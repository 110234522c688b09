"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from plap import (
    EigenPair,
    ax_by_gap,
    certify_cheeger,
    certify_nodal_bounds,
    enumerate_1lap_eigenvalues,
    multiway_cheeger_values,
    nodal_space_max_rq,
    path_graph,
    path_spectrum,
    rq_gradient,
    solve_p2_spectrum,
    strong_nodal_domains,
    sweep_bound,
    sweep_cut,
    variational_spectrum,
    verify_1lap_eigenpair,
    weak_nodal_domains,
)
from plap.cli import main
from plap.eigensolver import Spectrum
from plap.nodal import nodal_space_normals
from plap.one_laplacian import check_certificate

from .oracles import (
    charpoly_roots,
    fd_gradient,
    generalized_zeros,
    naive_multiway,
    p2_path_eigenvalues,
    path_p2_charpoly,
)
from .util import random_connected_graph, random_vertex_function

_shared = {}


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_p2_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(3, 11):
        sp = solve_p2_spectrum(path_graph(n))
        worst = max(worst, float(np.max(np.abs(
            np.array(sp.lams) - p2_path_eigenvalues(n)))))
    # the closed form itself is cross-checked against exact polynomial roots
    cross = float(np.max(np.abs(
        np.array(charpoly_roots(path_p2_charpoly(4))) - p2_path_eigenvalues(4))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and cross <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"max deviation {worst:.2e} (oracle cross-check "
                   f"{cross:.2e}) in {elapsed:.2f}s")


def test_criterion_2_path_solver_agreement():
    t0 = time.perf_counter()
    for n in range(3, 11):
        ps = path_spectrum(n, 2.0)
        dense = solve_p2_spectrum(path_graph(n))
        assert np.allclose(ps.lams, dense.lams, atol=1e-8), n
    checked = 0
    for n, p in itertools.product(range(3, 11), (1.2, 1.5, 3.0)):
        sp = path_spectrum(n, p)
        g = sp.graph
        lams = sp.lams
        assert all(b > a for a, b in zip(lams, lams[1:])), (n, p)
        for k, pair in enumerate(sp.pairs, 1):
            assert strong_nodal_domains(g, pair.f).count == k, (n, p, k)
            assert weak_nodal_domains(g, pair.f).count == k, (n, p, k)
            assert len(generalized_zeros(g, pair.f)) == k - 1, (n, p, k)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(2, ok, f"{checked} eigenpairs with exact nodal structure "
                   f"in {elapsed:.2f}s")


def test_criterion_3_nodal_bounds_random_graphs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    instances = []
    failures = []
    for _ in range(50):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(rng, n)
        for p in (1.2, 2.0, 3.0):
            sp = variational_spectrum(g, p) if p != 2.0 else solve_p2_spectrum(g)
            instances.append((g, sp))
            if max(pr.residual for pr in sp.pairs) > 1e-9:
                failures.append((p, "residual"))
                continue
            report = certify_nodal_bounds(sp)
            if not report.all_pass:
                failures.append((p, report))
            if report.checks[1].weak_count != 2:
                failures.append((p, "lambda_2 weak count"))
    _shared["criterion3"] = instances
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(3, ok, f"{len(instances)} spectra over 50 graphs, "
                   f"{len(failures)} failures in {elapsed:.1f}s")


def test_criterion_4_power_inequality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    total = 100_000
    ps = np.round(rng.uniform(1.0, 4.0, total), 2)
    a = rng.standard_normal(total) * 3
    b = rng.standard_normal(total) * 3
    x = np.abs(rng.standard_normal(total)) * 2
    y = -np.abs(rng.standard_normal(total)) * 2
    worst = -np.inf
    for p in np.unique(ps):
        sel = ps == p
        gap = ax_by_gap(float(p), a[sel], b[sel], x[sel], y[sel])
        scale = (np.abs(a[sel] * x[sel]) + np.abs(b[sel] * y[sel]) + 1.0) ** p
        worst = max(worst, float(np.max(gap / scale)))
    # equality families, normalized by the same scale as the main suite
    def norm_gap(p, aa, bb, xx, yy):
        scale = (np.abs(aa * xx) + np.abs(bb * yy) + 1.0) ** p
        return float(np.max(np.abs(ax_by_gap(p, aa, bb, xx, yy)) / scale))

    eq = []
    for p in (1.5, 2.0, 3.0):  # a = b with xy <= 0
        aa = rng.standard_normal(500)
        eq.append(norm_gap(p, aa, aa, x[:500], y[:500]))
    ab = np.abs(rng.standard_normal(500))  # p = 1 with ab >= 0
    eq.append(norm_gap(1.0, ab, 2 * ab, x[:500], y[:500]))
    eq.append(norm_gap(2.7, a[:500], b[:500], x[:500], np.zeros(500)))  # xy = 0
    eq_worst = max(eq)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and eq_worst <= 1e-12 and elapsed < 5.0
    _report(4, ok, f"{total} draws, max normalized gap {worst:.2e}, "
                   f"equality defect {eq_worst:.2e} in {elapsed:.2f}s")


def test_criterion_5_nodal_space_bound():
    assert "criterion3" in _shared, "criterion 3 must run first"
    t0 = time.perf_counter()
    checked = 0
    violations = []
    for g, sp in _shared["criterion3"]:
        for i, (pair, decs) in enumerate(zip(sp.pairs, sp.decompositions)):
            for dec in decs:
                normals = nodal_space_normals(17 + i, dec.count)
                mx = nodal_space_max_rq(g, pair, dec, normals)
                checked += 1
                if mx > pair.lam + 1e-8:
                    violations.append((sp.p, i + 1, dec.kind, mx, pair.lam))
    elapsed = time.perf_counter() - t0
    ok = not violations
    _report(5, ok, f"{checked} nodal-space maxima within tolerance "
                   f"in {elapsed:.1f}s ({len(violations)} violations)")


def test_criterion_6_one_laplacian_p3():
    t0 = time.perf_counter()
    g = path_graph(3, "degree")
    assert enumerate_1lap_eigenvalues(g).nonconstant == (Fraction(1),)

    f = [1, -1, 1]
    cert = verify_1lap_eigenpair(g, f, 1)
    assert cert.feasible and check_certificate(g, f, 1, cert)
    assert all(isinstance(v, Fraction) for v in cert.z.values())
    assert all(isinstance(v, Fraction) for v in cert.s.values())
    assert not verify_1lap_eigenpair(g, f, Fraction(1, 2)).feasible

    ff = np.array(f, dtype=float)
    assert strong_nodal_domains(g, ff).count == 3
    assert weak_nodal_domains(g, ff).count == 3
    pairs = (
        EigenPair(p=1.0, lam=0.0, f=np.ones(3), residual=0.0),
        EigenPair(p=1.0, lam=1.0, f=ff, residual=0.0),
        EigenPair(p=1.0, lam=1.0, f=np.array([1.0, 0.0, -1.0]), residual=0.0),
    )
    report = certify_nodal_bounds(
        Spectrum(graph=g, p=1.0, pairs=pairs, method="exact_p1"))
    second = report.checks[1]
    assert report.all_pass                    # weak = 3 <= k + r - 1 = 3
    assert second.multiplicity == 2
    assert second.weak_count == 3 > 2         # the p > 1 bound of k = 2 fails
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _report(6, ok, f"nonconstant eigenvalue set {{1}}, bounds met "
                   f"in {elapsed:.2f}s")


def test_criterion_7_cheeger_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    graphs = [path_graph(n) for n in range(4, 9)]
    graphs += [random_connected_graph(rng, int(rng.integers(3, 11)))
               for _ in range(20)]
    failures = []
    path_gaps = {}
    for gi, g in enumerate(graphs):
        hk = multiway_cheeger_values(g)
        if g.n <= 8:
            naive = naive_multiway(g, g.n)
            assert np.allclose(hk, naive, atol=1e-12), gi
        for p in (1.1, 1.5, 2.0, 3.0):
            if p == 2.0:
                sp = solve_p2_spectrum(g)
            elif gi < 5:
                sp = path_spectrum(g.n, p)
            else:
                sp = variational_spectrum(g, p)
            certs = certify_cheeger(sp)
            bad = [c for c in certs if not c.passed]
            if bad:
                failures.append((gi, p, bad))
            if gi < 5:
                c2 = certs[1]
                path_gaps[(gi, p)] = (c2.upper - c2.lam) / c2.lam
    trend_ok = all(path_gaps[(gi, 1.1)] < path_gaps[(gi, 3.0)]
                   for gi in range(5))
    elapsed = time.perf_counter() - t0
    ok = not failures and trend_ok and elapsed < 300.0
    _report(7, ok, f"{len(graphs)} graphs x 4 exponents certified, "
                   f"tightness trend holds, {len(failures)} failures "
                   f"in {elapsed:.1f}s")


def test_criterion_8_sweep_cut_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    violations = 0
    for _ in range(1000):
        g = random_connected_graph(rng, int(rng.integers(3, 10)))
        f = random_vertex_function(rng, g.n)
        p = float(rng.choice([1.1, 2.0, 3.0]))
        _, c = sweep_cut(g, f, p)
        if c > sweep_bound(g, f, p) + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(8, ok, f"1000 random sweeps, {violations} violations "
                   f"in {elapsed:.1f}s")


def test_criterion_9_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    worst = 0.0
    for p in (1.3, 2.0, 2.7, 4.0):
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            f = random_vertex_function(rng, g.n, min_gap=0.1)
            grad = rq_gradient(g, f, p)
            fd = fd_gradient(g, f, p)
            scale = np.max(np.abs(fd)) + 1e-12
            worst = max(worst, float(np.max(np.abs(grad - fd)) / scale))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4
    _report(9, ok, f"100 instances, worst relative error {worst:.2e} "
                   f"in {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    gfile = tmp_path / "p4.txt"
    gfile.write_text("n 4\n1 2 1.0\n2 3 1.0\n3 4 1.0\n")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", str(gfile), "--seed", "3"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - t0
    _report(10, identical, f"two certify runs byte-identical "
                           f"({out1.stat().st_size} bytes) in {elapsed:.1f}s")
