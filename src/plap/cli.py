"""Command-line interface and report serialization.

Subcommands: ``solve`` (one spectrum), ``cheeger`` (exact multiway constants
and optional sweep rounding), ``certify`` (the one-shot pipeline that solves
spectra over a list of exponents and certifies the nodal-count bounds, the
two-sided isoperimetric bounds, and the supporting inequalities).

Exit codes: 0 all certified / success, 1 certificate failure, 2 usage or
parse error, 3 solver non-convergence or a pair whose residual exceeds the
certificates' 1e-9 limit (`plaplacian.RESIDUAL_LIMIT`).

Reports are deterministic for a fixed (input, parameters, seed): the JSON
document carries no timing or host information (timings go to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
import warnings

import numpy as np

from . import cheeger, eigensolver, nodal, one_laplacian, plaplacian
from .eigensolver import (
    BracketError,
    ContinuationError,
    Spectrum,
    path_spectrum,
    solve_p2_spectrum,
    variational_spectrum,
)
from .graph import (
    Graph,
    GraphParseError,
    graph_digest,
    is_unit_path,
    parse_graph,
)

SCHEMA_VERSION = 1
DEFAULT_CERTIFY_P = (1.1, 1.5, 2.0, 3.0)

EXIT_OK = 0
EXIT_CERT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _load_graph(path: str, mu_mode: str | None) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read(), mu_mode)


def _load_vertex_function(path: str, n: int) -> np.ndarray:
    vals = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                vals.append(float(line))
    if len(vals) != n:
        raise ValueError(f"eigenfunction file has {len(vals)} values, expected {n}")
    return np.array(vals)


def _spectrum_for(g: Graph, p: float) -> Spectrum:
    if p == 2.0:
        return solve_p2_spectrum(g)
    if g.n > 1 and is_unit_path(g):
        # a unit path read with explicit unit mu lines is the same operator;
        # the spectrum belongs to the caller's graph
        return dataclasses.replace(path_spectrum(g.n, p), graph=g)
    return variational_spectrum(g, p)


def _spectrum_rows(sp: Spectrum, with_f: bool):
    rows = []
    for i, pair in enumerate(sp.pairs):
        row = {"k": i + 1, "lambda": float(pair.lam),
               "residual": float(pair.residual)}
        if with_f:
            row["f"] = [float(x) for x in pair.f]
        rows.append(row)
    return rows


def _input_block(path: str, g: Graph):
    return {"path": path, "sha256": graph_digest(g), "n": g.n, "m": g.m,
            "mu_mode": g.mu_mode}


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# writers of the exact scalar types, which make up most of a report
_SCALARS = {float: _json_float, str: _ESCAPE, int: int.__repr__,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_scalar(x) -> str:
    """A scalar of a subclass type, checked in json's order."""
    if isinstance(x, str):
        return _ESCAPE(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _to_json(x, indent: str = "") -> str:
    """The string `json.dumps(x, indent=2)` returns, without json's
    pure-Python indent encoder.

    Takes str, float, int, bool, None, list, tuple and dicts with str keys;
    anything else, a non-str key included (json would convert it), raises
    TypeError.
    """
    write = _SCALARS.get(type(x))
    if write is not None:
        return write(x)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = []
        for key, value in x.items():
            write = _SCALARS.get(type(value))
            items.append(_ESCAPE(key) + ": "
                         + (write(value) if write else _to_json(value, inner)))
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return ("[\n" + inner + sep.join([_to_json(v, inner) for v in x])
                + "\n" + indent + "]")
    return _json_scalar(x)


def _emit(report: dict, json_path: str | None) -> None:
    doc = _to_json(report) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _write_csv(rows: list[dict], fields: list[str], csv_path: str) -> None:
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(str(row[f]) for f in fields) + "\n")


# ---------------------------------------------------------------------------
# solve

def _cmd_solve(args) -> int:
    g = _load_graph(args.graph, args.mu)
    t0 = time.perf_counter()
    sp = _spectrum_for(g, args.p)
    elapsed = time.perf_counter() - t0
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "input": _input_block(args.graph, g),
        "parameters": {"p": args.p, "steps": eigensolver.CONTINUATION_STEPS,
                       "seed": args.seed},
        "method": sp.method,
        "spectrum": _spectrum_rows(sp, with_f=True),
        "notes": list(sp.notes),
    }
    _emit(report, args.json)
    if args.csv:
        rows = [{"p": sp.p, **r} for r in _spectrum_rows(sp, with_f=False)]
        _write_csv(rows, ["p", "k", "lambda", "residual"], args.csv)
    print(f"solve: {len(sp.pairs)} eigenpairs via {sp.method} "
          f"in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cheeger

def _cmd_cheeger(args) -> int:
    g = _load_graph(args.graph, args.mu)
    if not 1 <= args.k <= g.n:
        raise ValueError(f"k must satisfy 1 <= k <= n = {g.n}, got {args.k}")
    exact = g.n <= cheeger.EXACT_HK_CAP
    if not exact and not args.approx:
        raise ValueError(f"n = {g.n} exceeds the exact enumeration cap "
                         f"{cheeger.EXACT_HK_CAP}; pass --approx for the "
                         f"labeled heuristic")
    if exact:
        results = cheeger.multiway_cheeger_all(g, args.k)
    else:
        results = [cheeger.multiway_cheeger_greedy(g, k)
                   for k in range(1, args.k + 1)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "cheeger",
        "input": _input_block(args.graph, g),
        "parameters": {"k": args.k, "exact": exact,
                       "definition": "k pairwise-disjoint nonempty subsets; "
                                     "subsets need not cover V"},
        "h": [float(h) for h, _ in results],
        "families": [[sorted(s) for s in fam] for _, fam in results],
    }
    if args.sweep:
        f = _load_vertex_function(args.sweep, g.n)
        subset, c = cheeger.sweep_cut(g, f, args.p)
        bound = cheeger.sweep_bound(g, f, args.p)
        report["sweep"] = {
            "p": args.p,
            "subset": sorted(subset),
            "cut_ratio": float(c),
            "bound": float(bound),
            "bound_holds": bool(c <= bound + 1e-12),
        }
        print(f"sweep: c(A) = {c:.12g} <= {bound:.12g} "
              f"(threshold bound)", file=sys.stderr)
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify

def _power_inequality_suite(rng) -> dict:
    """Random suite for the two-term power inequality behind the nodal bounds.

    Each of the 20000 draws is tested at its own exponent p in [1, 4).  The
    largest normalized gap sits within a rounding of 0, and its last bits
    follow numpy's `power`; the report clamps it at 0 and rounds it to an
    absolute 1e-13, while `pass` tests the unrounded value against 1e-12.
    """
    draws = 20000
    p = rng.uniform(1.0, 4.0, draws)
    a = rng.standard_normal(draws) * 3
    b = rng.standard_normal(draws) * 3
    x = np.abs(rng.standard_normal(draws)) * 2
    y = -np.abs(rng.standard_normal(draws)) * 2
    gap = plaplacian.ax_by_gap(p, a, b, x, y)
    gap /= (np.abs(a * x) + np.abs(b * y) + 1.0) ** p
    worst = float(np.max(gap))
    return {"draws": draws, "max_normalized_gap": round(max(0.0, worst), 13),
            "pass": bool(worst <= 1e-12)}


@functools.lru_cache(maxsize=1)
def _seed_suite(seed: int) -> dict:
    return _power_inequality_suite(np.random.default_rng(seed))


def _kernel_inequality_check(seed: int) -> dict:
    """The report's power-inequality suite: `_power_inequality_suite` of
    `default_rng(seed)`.  It depends on the seed alone, so the process keeps
    the last seed's result; each call returns its own copy."""
    return dict(_seed_suite(seed))


@functools.lru_cache(maxsize=cheeger.EXACT_HK_CAP)
def _nodal_stream(stream_seed: int) -> np.ndarray:
    """`nodal_space_normals(stream_seed, EXACT_HK_CAP)`, read-only; pair i
    reads stream seed + i.  `certify` refuses larger graphs before sampling,
    and a space of m domains reads the first m rows, the draw of m rows."""
    rows = nodal.nodal_space_normals(stream_seed, cheeger.EXACT_HK_CAP)
    rows.flags.writeable = False
    return rows


def _operator_checks(g: Graph, p: float, seed: int) -> dict:
    """Lap_p f sums to 0 and R_p is scale invariant at one random f: the
    first n entries of row 0 of `_nodal_stream(seed + 7)`, the f that
    `default_rng(seed + 7).standard_normal(n)` draws.  The nodal-space check
    of pair 8 reads the same stream, so the two checks share it."""
    f = _nodal_stream(seed + 7)[0, :g.n]
    lap = plaplacian.apply_p_laplacian(g, f, p)
    sum_zero = abs(float(np.sum(lap))) <= 1e-12 * (float(np.sum(np.abs(lap))) + 1.0)
    r0 = plaplacian.rayleigh_quotient(g, f, p)
    r1 = plaplacian.rayleigh_quotient(g, -2.5 * f, p)
    scale_inv = abs(r1 - r0) <= 1e-12 * max(1.0, abs(r0))
    return {"sum_zero": bool(sum_zero), "scale_invariant": bool(scale_inv),
            "pass": bool(sum_zero and scale_inv)}


def _solve_for_certify(g, p) -> Spectrum:
    sp = _spectrum_for(g, p)
    # the certificates refuse pairs above the residual limit; only the path
    # solver's conditioning floor lets one through, and that is a solver miss.
    # This is the refusal `certify` reaches: the residual checks in
    # `certify_cheeger` and `nodal_space_max_rq` guard direct library callers
    for k, pair in enumerate(sp.pairs, 1):
        if pair.residual > plaplacian.RESIDUAL_LIMIT:
            raise BracketError(f"p = {p}: pair k = {k} residual "
                               f"{pair.residual:.3g} exceeds "
                               f"{plaplacian.RESIDUAL_LIMIT:g}")
    return sp


def _certify_spectrum(sp, seed):
    g, p = sp.graph, sp.p
    nrep = nodal.certify_nodal_bounds(sp)
    certs = cheeger.certify_cheeger(sp)
    span_checks = []
    # drawn before the checks grow their work arrays, so that a first call
    # keeps its streams side by side on the heap and its peak RSS lower; the
    # operator check reads stream seed + 7, so it runs here too
    streams = [_nodal_stream(seed + i) for i in range(len(sp.pairs))]
    op_check = _operator_checks(g, p, seed)
    for i, (pair, (strong, weak)) in enumerate(zip(sp.pairs, sp.decompositions)):
        strong_rq = nodal.nodal_space_max_rq(g, pair, strong, streams[i])
        # with no zero vertex the weak domains are the strong ones, and the
        # same basis and rows give the same float
        weak_rq = (strong_rq if weak.domains == strong.domains else
                   nodal.nodal_space_max_rq(g, pair, weak, streams[i]))
        entry = {"k": i + 1}
        for kind, mx in (("strong", strong_rq), ("weak", weak_rq)):
            entry[kind] = {"max_rq": float(mx),
                           "pass": bool(mx <= pair.lam + 1e-8)}
        span_checks.append(entry)
    run = {
        "p": p,
        "method": sp.method,
        "spectrum": _spectrum_rows(sp, with_f=False),
        "nodal": {
            "all_pass": nrep.all_pass,
            "checks": [{
                "k": c.k, "lambda": c.lam, "multiplicity": c.multiplicity,
                "strong": c.strong_count, "weak": c.weak_count,
                "strong_bound": c.strong_bound, "weak_bound": c.weak_bound,
                "weak_must_equal_two": c.weak_must_equal_two,
                "pass": c.passed,
            } for c in nrep.checks],
        },
        "cheeger": [{
            "k": c.k, "lambda": c.lam, "m": c.m, "h_k": c.h_k, "h_m": c.h_m,
            "tau": c.tau, "lower": c.lower, "upper": c.upper, "pass": c.passed,
        } for c in certs],
        "nodal_space": span_checks,
        "notes": list(sp.notes),
        "operator_checks": op_check,
    }
    return run, not any(_failure_lines(run))


def _one_laplacian_section(g: Graph, h2: float | None) -> tuple[dict, bool]:
    found = one_laplacian.enumerate_1lap_eigenvalues(g)
    merged, noncon = found.eigenvalues, found.nonconstant
    h2_member = h2 is not None and any(
        float(v) - 1e-9 <= h2 <= float(v) + 1e-9 for v in merged)
    example = None
    example_ok = True
    if noncon:
        # showcase the nodal-count bound: an eigenfunction of the smallest
        # nonconstant eigenvalue with the most strong domains
        lam, fvals = noncon[0], found.example
        f = [float(x) for x in fvals]
        cert = one_laplacian.verify_1lap_eigenpair(g, fvals, lam)
        example_ok = cert.feasible and one_laplacian.check_certificate(
            g, fvals, lam, cert)
        example = {
            "lambda": str(lam),
            "f": [str(x) for x in fvals],
            "feasible": bool(cert.feasible),
            "strong_domains": nodal.strong_nodal_domains(g, f).count,
            "weak_domains": nodal.weak_nodal_domains(g, f).count,
        }
    section = {
        "eigenvalues": [[str(v), str(v)] for v in merged],
        "nonconstant_eigenvalues": [[str(v), str(v)] for v in noncon],
        "h2": None if h2 is None else float(h2),
        "h2_is_eigenvalue": bool(h2_member),
        "example": example,
    }
    return section, bool(example_ok and (h2 is None or h2_member))


def _failure_lines(run: dict):
    """One line per failed sub-check of one exponent's run."""
    at = f"p={run['p']:g}"
    for c in run["nodal"]["checks"]:
        if not c["pass"]:
            yield f"nodal {at} k={c['k']}: {c}"
    for c in run["cheeger"]:
        if not c["pass"]:
            yield f"cheeger {at} k={c['k']}: {c}"
    for e in run["nodal_space"]:
        for kind in ("strong", "weak"):
            if not e[kind]["pass"]:
                yield f"nodal_space {at} k={e['k']} {kind}: {e[kind]}"
    if not run["operator_checks"]["pass"]:
        yield f"operator_checks {at}: {run['operator_checks']}"


def _cmd_certify(args) -> int:
    p_list = args.p if args.p else list(DEFAULT_CERTIFY_P)
    # each exponent's check is named certificates[p=<p:g>]; two exponents
    # with one name would be two runs of one check
    names = [f"{p:g}" for p in p_list]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"--p {name} is given more than once (exponents "
                             f"must differ at 6 significant digits)")
    g = _load_graph(args.graph, args.mu)
    # past EXACT_HK_CAP this raises the cap error before any solve; the
    # graph keeps h_k for every exponent's certificate
    hk = g.hk
    checks = []
    runs = []
    t0 = time.perf_counter()
    kernel_check = _kernel_inequality_check(args.seed)
    checks.append({"name": "power_inequality_suite", "pass": kernel_check["pass"]})
    for p in p_list:
        t1 = time.perf_counter()
        sp = _solve_for_certify(g, p)
        print(f"certify: p = {p:g} solved in {time.perf_counter() - t1:.3f}s",
              file=sys.stderr)
        run, ok = _certify_spectrum(sp, args.seed)
        runs.append(run)
        checks.append({"name": f"certificates[p={p:g}]", "pass": bool(ok)})
    one_lap_section = None
    if args.one_laplacian:
        h2 = hk[1] if g.n >= 2 else None
        one_lap_section, ol_ok = _one_laplacian_section(g, h2)
        checks.append({"name": "one_laplacian", "pass": bool(ol_ok)})
    all_pass = all(c["pass"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "certify",
        "input": _input_block(args.graph, g),
        "parameters": {
            "p_list": [float(p) for p in p_list],
            "steps": eigensolver.CONTINUATION_STEPS,
            "seed": args.seed,
            "tol": cheeger.BOUND_TOL_BASE,
            "one_laplacian": bool(args.one_laplacian),
        },
        "kernel_inequality": kernel_check,
        "runs": runs,
        "one_laplacian": one_lap_section,
        "checks": checks,
        "all_pass": bool(all_pass),
    }
    _emit(report, args.json)
    if args.csv:
        rows = []
        for run in runs:
            counts = {c["k"]: c for c in run["nodal"]["checks"]}
            for r in run["spectrum"]:
                rows.append({"p": run["p"], **r,
                             "strong": counts[r["k"]]["strong"],
                             "weak": counts[r["k"]]["weak"]})
        _write_csv(rows, ["p", "k", "lambda", "residual", "strong", "weak"],
                   args.csv)
    print(f"certify: total {time.perf_counter() - t0:.3f}s, "
          f"all_pass = {all_pass}", file=sys.stderr)
    if not all_pass:
        for c in checks:
            if not c["pass"]:
                print(f"FAILED: {c['name']}", file=sys.stderr)
        for run in runs:
            for line in _failure_lines(run):
                print(f"  {line}", file=sys.stderr)
        return EXIT_CERT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------

def _exponent(text: str) -> float:
    p = float(text)
    # a NaN fails the comparison, so it is refused with the infinities
    if not 1.0 < p < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite p > 1, got {text}")
    return p


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plap",
        description="Graph p-Laplacian spectra, nodal domains, and "
                    "multiway Cheeger certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("graph", help="edge-list file (header 'n <count>', "
                                      "optional 'mu <v> <value>' lines, edges "
                                      "'<u> <v> <w>')")
        sp.add_argument("--mu", choices=("unit", "degree", "explicit"),
                        default=None,
                        help="vertex measure mode (default: explicit when mu "
                             "lines are present, else unit)")
        sp.add_argument("--json", metavar="PATH",
                        help="write the JSON report here instead of stdout")

    p_solve = sub.add_parser("solve", help="compute one spectrum")
    common(p_solve)
    p_solve.add_argument("--seed", type=int, default=0,
                         help="recorded in the report")
    p_solve.add_argument("--p", type=_exponent, default=2.0,
                         help="exponent p > 1")
    p_solve.add_argument("--csv", metavar="PATH", help="spectrum table as CSV")
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser("certify",
                            help="solve and certify every bound per instance")
    common(p_cert)
    p_cert.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (recorded in the report)")
    p_cert.add_argument("--p", type=_exponent, action="append",
                        help="exponent (repeatable, each value once; "
                             "default 1.1 1.5 2 3)")
    p_cert.add_argument("--one-laplacian", action="store_true",
                        help="also enumerate and verify the exact p = 1 "
                             "eigenvalues")
    p_cert.add_argument("--csv", metavar="PATH",
                        help="per-pair table (p, k, lambda, residual, counts)")
    p_cert.set_defaults(func=_cmd_certify)

    p_ch = sub.add_parser("cheeger", help="exact multiway constants h_1..h_k")
    common(p_ch)
    p_ch.add_argument("--k", type=int, required=True)
    p_ch.add_argument("--approx", action="store_true",
                      help="allow the labeled greedy heuristic beyond the "
                           "exact cap")
    p_ch.add_argument("--sweep", metavar="FILE",
                      help="vertex function file (one value per line) to "
                           "round by threshold sweep")
    p_ch.add_argument("--p", type=_exponent, default=2.0,
                      help="exponent for the sweep bound")
    p_ch.set_defaults(func=_cmd_cheeger)
    return parser


def _run(args) -> int:
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # a missing or unreadable graph, or a report path that cannot be
        # written: a usage error, not a certificate failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContinuationError, BracketError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(args)
    # one line per distinct notice, however many exponents raised it
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
