"""Checks on `plap certify` reports.

Every report is checked on its own: the pass flags must follow from the
numbers it carries (nodal counts against their bounds, the two-sided
Cheeger inequality recomputed from h_k, h_m and tau, the nodal-space
maxima against lambda), and `all_pass` must be the conjunction of its
checks.  At the default seed each call is also compared with the reference
recorded at the baseline commit.
"""

from __future__ import annotations

from fractions import Fraction

RESIDUAL_TOL = 1e-9     # the certify pipeline's own pair residual limit
SPAN_TOL = 1e-8         # its nodal-space slack
LAMBDA_RTOL = 1e-7      # reference match for float eigenvalues
FORMULA_RTOL = 1e-12    # recomputed Cheeger bounds


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _run_problems(run: dict, tol_base: float) -> tuple[list[str], bool]:
    p = run["p"]
    where = f"p={p:g}"
    problems = []
    lams = [row["lambda"] for row in run["spectrum"]]
    if lams != sorted(lams):
        problems.append(f"{where}: eigenvalues not ascending")
    nodal_checks = run["nodal"]["checks"]
    for c in nodal_checks:
        ok = c["strong"] <= c["strong_bound"] and c["weak"] <= c["weak_bound"]
        if c["weak_must_equal_two"]:
            ok = ok and c["weak"] == 2
        if c["pass"] != ok:
            problems.append(f"{where}: nodal k={c['k']} pass flag contradicts counts")
    if run["nodal"]["all_pass"] != all(c["pass"] for c in nodal_checks):
        problems.append(f"{where}: nodal all_pass contradicts its checks")
    strong = {c["k"]: c["strong"] for c in nodal_checks}
    for c in run["cheeger"]:
        lower = (2.0 / c["tau"]) ** (p - 1.0) * (c["h_m"] / p) ** p
        upper = 2.0 ** (p - 1.0) * c["h_k"]
        if not (_close(c["lower"], lower, FORMULA_RTOL)
                and _close(c["upper"], upper, FORMULA_RTOL)):
            problems.append(f"{where}: cheeger k={c['k']} bounds do not follow "
                            f"from h_k, h_m, tau")
        if c["m"] != strong.get(c["k"]):
            problems.append(f"{where}: cheeger k={c['k']} m differs from the "
                            f"strong nodal count")
        if c["lambda"] != lams[c["k"] - 1]:
            problems.append(f"{where}: cheeger k={c['k']} lambda differs from "
                            f"the spectrum")
        tol = tol_base + 1e-6 * abs(c["lambda"])
        ok = c["lower"] - tol <= c["lambda"] <= c["upper"] + tol
        if c["pass"] != ok:
            problems.append(f"{where}: cheeger k={c['k']} pass flag contradicts "
                            f"its bounds")
    span_ok = True
    for e in run["nodal_space"]:
        for kind in ("strong", "weak"):
            ok = e[kind]["max_rq"] <= lams[e["k"] - 1] + SPAN_TOL
            span_ok = span_ok and ok
            if e[kind]["pass"] != ok:
                problems.append(f"{where}: nodal space k={e['k']} {kind} pass "
                                f"flag contradicts max_rq")
    residual_ok = all(row["residual"] <= RESIDUAL_TOL for row in run["spectrum"])
    run_ok = (run["nodal"]["all_pass"] and all(c["pass"] for c in run["cheeger"])
              and span_ok and residual_ok and run["operator_checks"]["pass"])
    return problems, run_ok


def _one_laplacian_problems(section: dict) -> tuple[list[str], bool]:
    problems = []
    intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in section["eigenvalues"]]
    if any(lo > hi for lo, hi in intervals):
        problems.append("one_laplacian: empty eigenvalue interval")
    h2 = section["h2"]
    member = h2 is not None and any(float(lo) - 1e-9 <= h2 <= float(hi) + 1e-9
                                    for lo, hi in intervals)
    if section["h2_is_eigenvalue"] != member:
        problems.append("one_laplacian: h2_is_eigenvalue contradicts the "
                        "eigenvalue list")
    example = section["example"]
    ok = member and (example is None or example["feasible"])
    return problems, ok


def report_problems(report: dict, digest: str, p_list: list[float]) -> list[str]:
    """Every way the report contradicts its input or its own certificates."""
    problems = []
    if report.get("command") != "certify":
        return ["not a certify report"]
    if report["input"]["sha256"] != digest:
        problems.append("report digest differs from the generated graph")
    if report["parameters"]["p_list"] != p_list:
        problems.append("report p list differs from the requested one")
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    if report["all_pass"] != all(checks.values()):
        problems.append("all_pass contradicts the checks")
    kernel = report["kernel_inequality"]
    if kernel["pass"] != (kernel["max_normalized_gap"] <= 1e-12):
        problems.append("power inequality pass flag contradicts its gap")
    if checks.get("power_inequality_suite") != kernel["pass"]:
        problems.append("power inequality check differs from its section")
    tol_base = report["parameters"]["tol"]
    for run in report["runs"]:
        run_problems, run_ok = _run_problems(run, tol_base)
        problems += run_problems
        if checks.get(f"certificates[p={run['p']:g}]") != run_ok:
            problems.append(f"p={run['p']:g}: certificates check contradicts "
                            f"its sections")
    if report["one_laplacian"] is not None:
        ol_problems, ol_ok = _one_laplacian_problems(report["one_laplacian"])
        problems += ol_problems
        # the pipeline also re-verifies the example's certificate, which the
        # report does not carry, so only a pass it cannot have earned shows
        if checks.get("one_laplacian") and not ol_ok:
            problems.append("one_laplacian check passes against its section")
    return problems


def summary(exit_code: int, report: dict | None) -> dict:
    """What the reference keeps of one call."""
    out = {"exit": exit_code, "all_pass": None}
    if report is None:
        return out
    out["all_pass"] = report["all_pass"]
    out["checks"] = {c["name"]: c["pass"] for c in report["checks"]}
    out["runs"] = [{
        "p": run["p"],
        "lambda": [row["lambda"] for row in run["spectrum"]],
        "strong": [c["strong"] for c in run["nodal"]["checks"]],
        "weak": [c["weak"] for c in run["nodal"]["checks"]],
        "pass": ([c["pass"] for c in run["nodal"]["checks"]]
                 + [c["pass"] for c in run["cheeger"]]
                 + [e[kind]["pass"] for e in run["nodal_space"]
                    for kind in ("strong", "weak")]
                 + [run["operator_checks"]["pass"]]),
    } for run in report["runs"]]
    if report["one_laplacian"] is not None:
        section = report["one_laplacian"]
        out["one_laplacian"] = {"eigenvalues": section["eigenvalues"],
                                "h2_is_eigenvalue": section["h2_is_eigenvalue"]}
    return out


def reference_mismatches(current: dict, reference: dict) -> list[str]:
    """Differences from the reference; a call the reference saw fail may pass now."""
    reference_failed = reference["exit"] != 0 or not reference["all_pass"]
    current_passed = current["exit"] == 0 and current["all_pass"]
    if reference_failed and current_passed:
        return []
    out = []
    for key in ("exit", "all_pass", "checks", "one_laplacian"):
        if current.get(key) != reference.get(key):
            out.append(f"{key} differs from the reference")
    runs, ref_runs = current.get("runs", []), reference.get("runs", [])
    if len(runs) != len(ref_runs):
        return out + ["number of exponents differs from the reference"]
    for run, ref in zip(runs, ref_runs):
        where = f"p={ref['p']:g}"
        lams, ref_lams = run["lambda"], ref["lambda"]
        if len(lams) != len(ref_lams) or not all(
                _close(a, b, LAMBDA_RTOL) for a, b in zip(lams, ref_lams)):
            out.append(f"{where}: eigenvalues differ from the reference")
        for key in ("strong", "weak", "pass"):
            if run[key] != ref[key]:
                out.append(f"{where}: {key} differs from the reference")
    return out
