"""Benchmark the numba kernels against the numpy/Python fallback.

Run as ``python -m plap.benchmark``.  Both implementations are imported
directly, so the comparison works regardless of the PLAP_NO_NUMBA setting;
without numba installed the script times the fallback alone.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from . import kernels
from .graph import path_graph


def _time(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_edges(rng, n, extra):
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.integers(0, n, 2))
        if u != v:
            edges.add((u, v))
    eu, ev = map(np.array, zip(*sorted(edges)))
    return eu.astype(np.int64), ev.astype(np.int64), rng.uniform(0.5, 2.0, len(edges))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-apply", type=int, default=2000,
                        help="vertices for the operator kernel")
    parser.add_argument("--n-path", type=int, default=12,
                        help="path length for the shooting kernel")
    parser.add_argument("--n-subset", type=int, default=12,
                        help="vertices for the subset/packing kernels")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    rows = []

    # operator application on a dense-ish random graph
    eu, ev, ew = _random_edges(rng, args.n_apply, 4 * args.n_apply)
    f = rng.standard_normal(args.n_apply)
    mu = rng.uniform(0.5, 2.0, args.n_apply)
    p = 2.7

    def apply_numpy():
        for _ in range(50):
            kernels.plap_apply_numpy(eu, ev, ew, f, p, args.n_apply)

    variants = [("fallback", apply_numpy)]
    if kernels.HAVE_NUMBA:
        kernels._plap_apply_numba(eu, ev, ew, f, p, args.n_apply)  # compile

        def apply_numba():
            for _ in range(50):
                kernels._plap_apply_numba(eu, ev, ew, f, p, args.n_apply)

        variants.append(("numba", apply_numba))
    rows.append(("plap_apply", {name: _time(fn, args.repeat)
                                for name, fn in variants}))

    # shooting recurrence swept over many trial eigenvalues
    lams = np.linspace(0.0, 2.0 ** p, 4000)

    def shoot_python():
        for lam in lams:
            kernels._shoot_loop(args.n_path, p, float(lam))

    variants = [("fallback", shoot_python)]
    if kernels.HAVE_NUMBA:
        kernels._shoot_numba(args.n_path, p, 1.0)

        def shoot_numba():
            for lam in lams:
                kernels._shoot_numba(args.n_path, p, float(lam))

        variants.append(("numba", shoot_numba))
    rows.append(("path_shoot", {name: _time(fn, args.repeat)
                                for name, fn in variants}))

    # subset cut tables + min-max packing recursion
    n = args.n_subset
    eu, ev, ew = _random_edges(rng, n, 2 * n)
    mu = rng.uniform(0.5, 2.0, n)

    def tables_numpy():
        cut, mass = kernels.subset_tables_numpy(n, eu, ev, ew, mu)
        ratio = np.empty(1 << n)
        ratio[0] = np.inf
        ratio[1:] = cut[1:] / mass[1:]
        kernels.family_dp_numpy(ratio, 4)

    variants = [("fallback", tables_numpy)]
    if kernels.HAVE_NUMBA:
        cut, mass = kernels._subset_tables_numba(n, eu, ev, ew, mu)
        ratio = np.empty(1 << n)
        ratio[0] = np.inf
        ratio[1:] = cut[1:] / mass[1:]
        kernels._family_dp_numba(ratio, 2)  # compile

        def tables_numba():
            cut, mass = kernels._subset_tables_numba(n, eu, ev, ew, mu)
            ratio = np.empty(1 << n)
            ratio[0] = np.inf
            ratio[1:] = cut[1:] / mass[1:]
            kernels._family_dp_numba(ratio, 4)

        variants.append(("numba", tables_numba))
    rows.append((f"multiway_tables(n={n})",
                 {name: _time(fn, args.repeat) for name, fn in variants}))

    print(f"numba available: {kernels.HAVE_NUMBA} "
          f"(active backend: {'numba' if kernels.USE_NUMBA else 'fallback'})")
    print(f"{'kernel':<24} {'fallback (s)':>14} {'numba (s)':>12} {'speedup':>9}")
    for name, times in rows:
        fb = times["fallback"]
        if "numba" in times:
            nb = times["numba"]
            print(f"{name:<24} {fb:>14.5f} {nb:>12.5f} {fb / nb:>8.1f}x")
        else:
            print(f"{name:<24} {fb:>14.5f} {'-':>12} {'-':>9}")
    # path correctness cross-check between the two implementations
    if kernels.HAVE_NUMBA:
        f1, d1, z1 = kernels._shoot_loop(args.n_path, p, 1.25)
        f2, d2, z2 = kernels._shoot_numba(args.n_path, p, 1.25)
        assert z1 == z2 and abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1))
        assert np.allclose(f1, f2, rtol=1e-13, atol=0)
        print("cross-check: numba and fallback agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
