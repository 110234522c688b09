"""Exact two-phase simplex over integer rows.

Solves min c.x subject to A x = b, x >= 0 exactly, with Bland's
anti-cycling rule.  Rational inputs are scaled to ints row by row, and
every tableau row, the right-hand side last, is held as Python ints over
one positive row denominator, so no `Fraction` is made until the result:
a row's values are its ints divided by the coefficient of its basic
variable, which is the row's entry in that column once an original
variable is basic there.  A pivot takes each other row to piv * row - a *
pivot row, a positive multiple of the rational update, and divides it by
the gcd of its entries.  The objective rows (the phase-1 sum of the
artificials and the cost) are pivoted along with the constraint rows, so
their entries are the reduced costs times a positive factor: the Bland
entering column is the first one whose entry is negative, and the ratio
test compares b_i / a_i by cross-multiplying, with ties broken to the
lowest basic index.  These are the pivots of the rational tableau, so the
result is its result.  The artificial columns are never read, so they
are not stored.

Sized for the small feasibility systems of the set-valued p = 1
eigenproblem (tens of variables), not general LP work: it decides and
witnesses the selections of `one_laplacian`'s verifier, one level at a
time, and the tests use it on the two-LP reference of the enumeration,
which itself solves no LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None   # primal solution when optimal
    value: Fraction | None           # objective value when optimal


def _int_row(values) -> tuple[list[int], int]:
    """values (ints or rationals) times the lcm of their denominators, and
    that lcm."""
    fracs = [v if isinstance(v, int) else Fraction(v) for v in values]
    scale = math.lcm(*(1 if isinstance(v, int) else v.denominator for v in fracs))
    return [v * scale if isinstance(v, int)
            else v.numerator * (scale // v.denominator) for v in fracs], scale


def _pivot(tab, objs, basis, row, col):
    prow = tab[row]
    piv = prow[col]
    if piv < 0:
        prow = tab[row] = [-v for v in prow]
        piv = -piv
    for rows in (tab, objs):
        for i, cur in enumerate(rows):
            a = cur[col]
            if a and cur is not prow:
                new = [piv * v - a * p if p else piv * v for v, p in zip(cur, prow)]
                g = math.gcd(*new)
                rows[i] = [v // g for v in new] if g > 1 else new
    basis[row] = col


def _run_phase(tab, objs, basis, n):
    """Bland-rule simplex with objs[0] as the phase's objective row; returns
    'optimal'/'unbounded'."""
    while True:
        obj = objs[0]
        entering = next((j for j in range(n) if obj[j] < 0), -1)
        if entering < 0:
            return "optimal"
        leaving = -1
        for i, cur in enumerate(tab):
            a = cur[entering]
            if a > 0:
                if leaving < 0:
                    leaving, num, den = i, cur[-1], a
                    continue
                lhs, rhs = cur[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, cur[-1], a
        if leaving < 0:
            return "unbounded"
        _pivot(tab, objs, basis, leaving, entering)


def lp_solve(a_rows, b_vec, c_vec) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly."""
    m = len(a_rows)
    n = len(c_vec)
    # each row [A_i | b_i] scaled to ints, with b_i >= 0; the artificial of
    # row i has its scale as coefficient there
    tab, scales = [], []
    for row, bi in zip(a_rows, b_vec):
        cur, scale = _int_row([*row, bi])
        tab.append([-v for v in cur] if cur[-1] < 0 else cur)
        scales.append(scale)
    # phase 1 minimises the sum of the artificials: its reduced costs are
    # minus the column sums of the rows, each divided by its scale
    common = math.lcm(*scales)
    phase1 = [0] * (n + 1)
    for cur, scale in zip(tab, scales):
        k = common // scale
        phase1 = [acc - k * v for acc, v in zip(phase1, cur)]
    objs = [phase1, _int_row([*c_vec, 0])[0]]
    for i, cur in enumerate(tab):
        g = math.gcd(*cur)
        if g > 1:
            tab[i] = [v // g for v in cur]
    basis = list(range(n, n + m))

    status = _run_phase(tab, objs, basis, n)
    assert status == "optimal"  # phase 1 is bounded below by 0
    if any(basis[i] >= n and tab[i][-1] for i in range(m)):
        return LPResult(status="infeasible", x=None, value=None)

    # drive residual artificials out of the basis; drop redundant rows
    objs = objs[1:]
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j]), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tab, objs, basis, i, col)
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    status = _run_phase(tab, objs, basis, n)
    if status == "unbounded":
        return LPResult(status="unbounded", x=None, value=None)
    x = [ZERO] * n
    for cur, bi in zip(tab, basis):
        x[bi] = Fraction(cur[-1], cur[bi])
    cost = [Fraction(v) for v in c_vec]
    value = sum((cost[j] * x[j] for j in range(n) if cost[j] != 0), ZERO)
    return LPResult(status="optimal", x=tuple(x), value=value)
