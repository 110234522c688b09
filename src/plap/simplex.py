"""Exact two-phase simplex over rationals.

Solves min c.x subject to A x = b, x >= 0 with Fraction arithmetic and
Bland's anti-cycling rule.  Sized for the small feasibility systems of the
set-valued p = 1 eigenproblem (tens of variables), not general LP work: it
decides and witnesses the selections of `one_laplacian`'s verifier, and the
tests use it as the independent oracle of the enumeration, which itself
solves no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None   # primal solution when optimal
    value: Fraction | None           # objective value when optimal


def _pivot(tab, b, basis, row, col):
    piv = tab[row][col]
    inv = ONE / piv
    # zero pivot-row entries leave every entry of their column as it is
    prow = tab[row] = [v * inv if v else v for v in tab[row]]
    b[row] *= inv
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [vi - factor * vr if vr else vi for vi, vr in zip(tab[i], prow)]
            b[i] -= factor * b[row]
    basis[row] = col


def _run_phase(tab, b, basis, cost, allowed):
    """Bland-rule simplex on the current tableau; returns 'optimal'/'unbounded'."""
    m = len(tab)
    while True:
        # reduced costs r_j = c_j - cB . column_j
        entering = -1
        for j in allowed:
            r = cost[j]
            for i in range(m):
                cb = cost[basis[i]]
                if cb != 0 and tab[i][j] != 0:
                    r -= cb * tab[i][j]
            if r < 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tab, b, basis, leaving, entering)


def lp_solve(a_rows, b_vec, c_vec) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly."""
    m = len(a_rows)
    n = len(c_vec)
    tab = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b_vec]
    cost = [Fraction(v) for v in c_vec]
    for i in range(m):
        if b[i] < 0:
            tab[i] = [-v for v in tab[i]]
            b[i] = -b[i]
    # artificial columns n..n+m-1
    for i in range(m):
        tab[i] += [ONE if j == i else ZERO for j in range(m)]
    basis = list(range(n, n + m))

    phase1_cost = [ZERO] * n + [ONE] * m
    status = _run_phase(tab, b, basis, phase1_cost, range(n))
    assert status == "optimal"  # phase 1 is bounded below by 0
    infeasibility = sum((b[i] for i in range(m) if basis[i] >= n), ZERO)
    if infeasibility > 0:
        return LPResult(status="infeasible", x=None, value=None)

    # drive residual artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tab, b, basis, i, col)
        keep.append(i)
    tab = [tab[i][:n] for i in keep]
    b = [b[i] for i in keep]
    basis = [basis[i] for i in keep]

    status = _run_phase(tab, b, basis, cost, range(n))
    if status == "unbounded":
        return LPResult(status="unbounded", x=None, value=None)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = b[i]
    value = sum((cost[j] * x[j] for j in range(n) if cost[j] != 0), ZERO)
    return LPResult(status="optimal", x=tuple(x), value=value)
