"""Exact treatment of the set-valued p = 1 eigenproblem.

An eigenpair (lambda, f) of the 1-Laplacian is witnessed by antisymmetric
edge selections z(uv) in Sign(f(u) - f(v)) and vertex selections
s(u) in Sign(f(u)) satisfying sum_v w(uv) z(uv) = lambda mu(u) s(u) at every
vertex.  Feasibility at the bounds z = +-1 is measure zero, so everything
here runs in exact rational arithmetic: floats are converted to their exact
binary values, non-finite inputs are rejected.

Besides verifying a declared eigenpair, the module enumerates the full
eigenvalue set of tiny graphs (n <= 6) by case analysis over weak orderings
of the vertex values with a designated zero level; each ordering fixes all
Sign sets, leaving a linear feasibility problem in (z, s, lambda).  Its
feasible lambda set is a single point: summing the vertex equations over a
level set L cancels the antisymmetric z of the edges inside L, so a level of
sign sigma gives w(L -> lower levels) - w(L -> higher levels) =
lambda sigma mu(L), and every ordering but the all-zero one has a nonzero
level.  That lambda is computed exactly from these sums, and only orderings
whose levels agree on it are decided by one feasibility LP at that lambda.
Records keep the interval form [lo, hi]; lo == hi always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, is_connected
from .simplex import LPResult, lp_solve

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)

ENUMERATION_CAP = 6


@dataclass(frozen=True)
class SignSet:
    """One of {-1}, {+1}, or the full interval [-1, 1]."""
    lo: Fraction
    hi: Fraction

    @classmethod
    def of(cls, x: Fraction) -> "SignSet":
        if x > 0:
            return cls(ONE, ONE)
        if x < 0:
            return cls(-ONE, -ONE)
        return cls(-ONE, ONE)

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v <= self.hi

    def __repr__(self) -> str:
        if self.lo == self.hi:
            return "{%+d}" % self.lo
        return "[-1, 1]"


@dataclass(frozen=True)
class OneLapCertificate:
    """Feasibility witness for a declared (lambda, f) at p = 1.

    z maps each stored edge (u, v), u < v, to z(u -> v); the reverse
    orientation is -z by construction.  s maps each vertex to its selected
    sign value.
    """
    feasible: bool
    lam: Fraction
    z: dict[tuple[int, int], Fraction]
    s: dict[int, Fraction]


def to_fraction(x) -> Fraction:
    """Exact rational value of an int/Fraction/float/str input."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r} violates the exactness contract")
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"cannot interpret {x!r} as an exact rational")


def _rational_graph(g: Graph):
    mu = [to_fraction(v) for v in g.mu]
    edges = [(int(u), int(v), to_fraction(w))
             for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)]
    return mu, edges


def verify_1lap_eigenpair(g: Graph, f: Sequence, lam) -> OneLapCertificate:
    """Decide exactly whether (lambda, f) is a p = 1 eigenpair of g.

    Selections are fixed wherever signs are determined and left as bounded
    LP variables on edges with f(u) = f(v) and vertices with f(u) = 0; the
    per-vertex equalities are then decided by exact phase-1 simplex.
    """
    if not is_connected(g):
        raise ValueError("verification requires a connected graph")
    mu, edges = _rational_graph(g)
    fvals = [to_fraction(x) for x in f]
    if len(fvals) != g.n:
        raise ValueError(f"expected {g.n} vertex values, got {len(fvals)}")
    if all(x == 0 for x in fvals):
        raise ValueError("the zero function is not an eigenfunction")
    return _selection_lp(mu, edges, g.n, fvals, to_fraction(lam))


def _selection_lp(mu, edges, n, fvals, lam: Fraction) -> OneLapCertificate:
    """Exact selection LP for (lambda, f) on rational graph data.

    No connectivity check: the enumeration also runs on disconnected graphs.
    """
    free_z = [i for i, (u, v, _) in enumerate(edges) if fvals[u] == fvals[v]]
    fixed_z = {i: (ONE if fvals[u] > fvals[v] else -ONE)
               for i, (u, v, _) in enumerate(edges) if fvals[u] != fvals[v]}
    free_s = [u for u in range(n) if fvals[u] == 0]
    z_col = {e: j for j, e in enumerate(free_z)}
    s_col = {u: len(free_z) + j for j, u in enumerate(free_s)}
    nvars = len(free_z) + len(free_s)

    rows, rhs = [], []
    for u in range(n):
        row = [ZERO] * nvars
        const = ZERO
        for i, (a, b, w) in enumerate(edges):
            if a == u:
                orient = ONE
            elif b == u:
                orient = -ONE
            else:
                continue
            if i in fixed_z:
                const -= orient * w * fixed_z[i]
            else:
                # z = x - 1 with x in [0, 2]
                row[z_col[i]] += orient * w
                const += orient * w
        if fvals[u] != 0:
            sigma = ONE if fvals[u] > 0 else -ONE
            const += lam * mu[u] * sigma
        else:
            # s = y - 1 with y in [0, 2]
            row[s_col[u]] -= lam * mu[u]
            const -= lam * mu[u]
        rows.append(row)
        rhs.append(const)
    # upper bounds x <= 2, y <= 2 via slack columns
    for j in range(nvars):
        row = [ZERO] * nvars
        row[j] = ONE
        rows.append(row)
        rhs.append(TWO)
    slacks = len(rows) - n
    padded = [row + [ZERO] * slacks for row in rows[:n]]
    for i in range(slacks):
        row = rows[n + i] + [ZERO] * slacks
        row[nvars + i] = ONE
        padded.append(row)
    result = lp_solve(padded, rhs, [ZERO] * (nvars + slacks))
    if result.status != "optimal":
        return OneLapCertificate(feasible=False, lam=lam, z={}, s={})
    x = result.x
    z = {}
    for i, (u, v, _) in enumerate(edges):
        val = fixed_z[i] if i in fixed_z else x[z_col[i]] - ONE
        z[(u + 1, v + 1)] = val
    s = {}
    for u in range(n):
        if fvals[u] != 0:
            s[u + 1] = ONE if fvals[u] > 0 else -ONE
        else:
            s[u + 1] = x[s_col[u]] - ONE
    return OneLapCertificate(feasible=True, lam=lam, z=z, s=s)


def check_certificate(g: Graph, f: Sequence, lam, cert: OneLapCertificate) -> bool:
    """Re-verify a feasible certificate by direct rational substitution."""
    if not cert.feasible:
        return False
    mu, edges = _rational_graph(g)
    fvals = [to_fraction(x) for x in f]
    lam = to_fraction(lam)
    for (u1, v1), zval in cert.z.items():
        u, v = u1 - 1, v1 - 1
        if not SignSet.of(fvals[u] - fvals[v]).contains(zval):
            return False
    for u1, sval in cert.s.items():
        if not SignSet.of(fvals[u1 - 1]).contains(sval):
            return False
    for u in range(g.n):
        total = ZERO
        for a, b, w in edges:
            if a == u:
                total += w * cert.z[(a + 1, b + 1)]
            elif b == u:
                total -= w * cert.z[(a + 1, b + 1)]
        if total != lam * mu[u] * cert.s[u + 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive eigenvalue enumeration for tiny graphs

@dataclass(frozen=True)
class OrderPattern:
    """A weak ordering of the vertices plus the position of zero.

    levels[u] is the rank (0-based, ascending value) of vertex u+1 among the
    m distinct levels.  zero_pos indexes the interleaved sequence
    gap_0, level_0, gap_1, ..., level_{m-1}, gap_m: even values place zero
    strictly between levels (or outside), odd value 2i+1 puts level i at
    zero.
    """
    levels: tuple[int, ...]
    m: int
    zero_pos: int

    @property
    def constant(self) -> bool:
        return self.m == 1

    def level_sign(self, i: int) -> int:
        pos = 2 * i + 1
        if pos > self.zero_pos:
            return 1
        if pos < self.zero_pos:
            return -1
        return 0

    def example_function(self) -> tuple[Fraction, ...]:
        """One rational vertex function realizing the pattern."""
        zero_rank = Fraction(self.zero_pos, 2)  # level i sits at rank i + 1/2
        return tuple(Fraction(2 * lev + 1, 2) - zero_rank for lev in self.levels)


@dataclass(frozen=True)
class EigenvalueRecord:
    """Feasible eigenvalue interval for one sign/order pattern."""
    lo: Fraction
    hi: Fraction
    pattern: OrderPattern


def _ordered_partitions(n: int):
    """All assignments of vertices 0..n-1 to ordered ranked blocks."""
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(u: int, blocks: list[list[int]]):
        if u == n:
            levels = [0] * n
            for rank, blk in enumerate(blocks):
                for v in blk:
                    levels[v] = rank
            out.append((tuple(levels), len(blocks)))
            return
        for blk in blocks:
            blk.append(u)
            rec(u + 1, blocks)
            blk.pop()
        for pos in range(len(blocks) + 1):
            blocks.insert(pos, [u])
            rec(u + 1, blocks)
            del blocks[pos]

    rec(0, [])
    return out


def _flip(levels: tuple[int, ...], m: int, zero_pos: int):
    flipped = tuple(m - 1 - lev for lev in levels)
    return flipped, 2 * m - zero_pos


def _level_sums(levels: tuple[int, ...], m: int, mu, edges):
    """Per level i: net[i] = w(L_i -> lower levels) - w(L_i -> higher levels)
    and mass[i] = mu(L_i)."""
    net = [0] * m
    mass = [0] * m
    for u, x in enumerate(mu):
        mass[levels[u]] += x
    for a, b, w in edges:
        la, lb = levels[a], levels[b]
        if la != lb:
            flow = w if la > lb else -w
            net[la] += flow
            net[lb] -= flow
    return net, mass


def _pinned_lambda(net, mass, pat: OrderPattern) -> Fraction | None:
    """The one lambda the level sums admit for a pattern, or None.

    net[i] equals lambda sigma_i mu(L_i) on a level of sign sigma_i != 0 and
    lies in [-lambda mu(L_0), lambda mu(L_0)] on the zero level L_0.  Ratios
    are compared by cross-multiplying, so integer sums stay integers.
    """
    signed = [(sigma * net[i], mass[i]) for i in range(pat.m)
              if (sigma := pat.level_sign(i))]
    top, bottom = signed[0]  # lambda = top / bottom
    if top < 0 or any(t * bottom != top * b for t, b in signed[1:]):
        return None
    if pat.zero_pos % 2:
        i = pat.zero_pos // 2
        if abs(net[i]) * bottom > top * mass[i]:
            return None
    return Fraction(top, bottom)


def enumerate_1lap_eigenvalues(g: Graph) -> list[EigenvalueRecord]:
    """All p = 1 eigenvalues of a tiny graph with representative patterns.

    Weak orderings are enumerated up to the global sign flip f -> -f; the
    all-zero pattern is skipped.  Every record's interval is exact.
    """
    if g.n > ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive enumeration capped at n <= {ENUMERATION_CAP}, got {g.n}")
    mu, edges = _rational_graph(g)
    # level sums on integers: every measure and weight times the lcm of their
    # denominators, which leaves each pinned ratio as it is
    scale = math.lcm(*(x.denominator for x in mu),
                     *(w.denominator for _, _, w in edges))
    int_mu = [int(x * scale) for x in mu]
    int_edges = [(u, v, int(w * scale)) for u, v, w in edges]
    records = []
    for levels, m in _ordered_partitions(g.n):
        net, mass = _level_sums(levels, m, int_mu, int_edges)
        for zero_pos in range(2 * m + 1):
            if m == 1 and zero_pos == 1:
                continue  # f identically zero
            if (levels, zero_pos) > _flip(levels, m, zero_pos):
                continue  # the sign-flipped twin covers this pattern
            pat = OrderPattern(levels=levels, m=m, zero_pos=zero_pos)
            lam = _pinned_lambda(net, mass, pat)
            if lam is not None and _selection_lp(
                    mu, edges, g.n, pat.example_function(), lam).feasible:
                records.append(EigenvalueRecord(lo=lam, hi=lam, pattern=pat))
    records.sort(key=lambda r: (r.lo, r.hi))
    return records


def merged_eigenvalues(records: Iterable[EigenvalueRecord],
                       nonconstant_only: bool = False) -> list[tuple[Fraction, Fraction]]:
    """Union of the feasible intervals, merged and sorted."""
    items = sorted((r.lo, r.hi) for r in records
                   if not (nonconstant_only and r.pattern.constant))
    merged: list[list[Fraction]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]
