"""Exact treatment of the set-valued p = 1 eigenproblem.

An eigenpair (lambda, f) of the 1-Laplacian is witnessed by antisymmetric
edge selections z(uv) in Sign(f(u) - f(v)) and vertex selections
s(u) in Sign(f(u)) satisfying sum_v w(uv) z(uv) = lambda mu(u) s(u) at every
vertex.  Feasibility at the bounds z = +-1 is measure zero, so everything
here runs in exact arithmetic: floats are converted to their exact binary
values, non-finite inputs are rejected, and the decisions run on Python
ints, with every measure and weight times the lcm of their denominators
(`_integer_graph`) and every equation times lambda's denominator.

The paper's lower bound (2/tau)^(p-1) (h_m/p)^p <= lambda reads h_m <=
lambda at p = 1, and the selections prove it for every eigenpair whose f
has m strong nodal domains (Chang, Shao & Zhang, "Nodal domains of
eigenvectors for 1-Laplacian on graphs", Adv. Math. 2017).  Let D be a
strong nodal domain, a connected component of {f > 0} say ({f < 0} is the
same with every sign turned).  Sum the vertex equations over D.  s = 1 on
D, so the right side is lambda mu(D).  On the left, an edge uv with both
ends in D enters u's equation as w(uv) z(uv) and v's as w(uv) z(vu) =
-w(uv) z(uv), so it adds nothing.  An edge uv from u in D to v outside D
has f(v) <= 0, since f(v) > 0 would put v in D, so f(u) - f(v) > 0 and
z(uv) = 1.  The left side is therefore w(D, V - D), and w(D, V - D) =
lambda mu(D).  The m strong nodal domains are disjoint and nonempty, so
they form a family that h_m minimises over, and h_m <= max_D w(D, V - D) /
mu(D) = lambda.  `test_exact_p1_cheeger_statements` checks the bound
exactly on the enumerated eigenpairs.

Besides verifying a declared eigenpair on any graph, connected or not, the
module enumerates the full eigenvalue set of tiny graphs (n <= 8,
ENUMERATION_CAP) by case analysis over weak orderings of the vertex values
with a designated zero level; each ordering fixes all Sign sets, leaving a
linear feasibility problem in (z, s, lambda).  Its feasible lambda set is a
single point: summing the vertex equations over a level set L cancels the
antisymmetric z of the edges inside L, so a level of sign sigma gives
w(L -> lower levels) - w(L -> higher levels) = lambda sigma mu(L), and every
ordering but the all-zero one has a nonzero level.  That lambda is computed
exactly from these sums.  At it the free selections (z inside a level, s on
the zero level) split into one flow problem per level, which Gale's
supply-demand theorem decides by one integer inequality per subset of the
level; no LP is solved.  When some level sum is nonzero, lambda > 0 and
every level off zero takes the sign of its sum, which leaves at most three
zero positions per ordering.

The enumeration screens, then decides.  One numpy table holds every weak
ordering; a block at a time, int64 level sums and float ratios drop the
(ordering, zero position) pairs that cannot pin a lambda, with a margin no
exact tie can cross.  Only the pairs left go, in order, to the exact
Python-int pinning and cut tests, so the records are those of the plain
loop over all orderings.  The verifier decides the same per-level
problems by the constructive face of Gale's theorem: one integer max flow
per level that has free selections (Ford & Fulkerson 1956), whose arc
flows are the selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph

ZERO = Fraction(0)
ONE = Fraction(1)

ENUMERATION_CAP = 8

# Orderings per block of the level-sum screen; bounds its arrays at n = 8.
SCREEN_BLOCK = 1 << 13
# Relative slack of the screen's float comparisons: 8 machine epsilons.
SCREEN_MARGIN = 2.0 ** -49


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


def _integer_graph(g: Graph):
    """mu and the edges with every measure and weight times the lcm of their
    denominators, as ints; one positive factor on all of them leaves every
    pinned lambda and every cut test as it is."""
    mu, edges = _rational_graph(g)
    scale = math.lcm(*(x.denominator for x in mu),
                     *(w.denominator for _, _, w in edges))
    return ([int(x * scale) for x in mu],
            [(u, v, int(w * scale)) for u, v, w in edges])


def verify_1lap_eigenpair(g: Graph, f: Sequence, lam) -> OneLapCertificate:
    """Decide exactly whether (lambda, f) is a p = 1 eigenpair of g.

    The distinct values of f are ranked as levels, as in the enumeration.
    f's signs fix z on the edges between its levels and s off its zero
    level; those selections enter each vertex equation as the vertex's
    level net (`_vertex_net`).  The free selections, z on edges with
    f(u) = f(v) and s where f(u) = 0, occur only inside one level, so the
    vertex equations split into one system per level: one integer max flow
    (`lp_solve`) decides and witnesses each level that has free selections,
    and a level without any holds iff each of its vertex equations holds as
    it stands.  Every equation is taken times the `_integer_graph` factor
    and lambda's denominator, so all the data are ints.  A lambda < 0 is
    refused before any flow is built: the sum over a strong nodal domain D
    in the module docstring gives lambda mu(D) = w(D, V - D) >= 0, and
    refusing it keeps every capacity nonnegative.  The test is exact on any
    graph, so g need not be connected.
    """
    mu, edges = _integer_graph(g)
    fvals = [to_fraction(x) for x in f]
    if len(fvals) != g.n:
        raise ValueError(f"expected {g.n} vertex values, got {len(fvals)}")
    if all(x == 0 for x in fvals):
        raise ValueError("the zero function is not an eigenfunction")
    lam = to_fraction(lam)
    infeasible = OneLapCertificate(feasible=False, lam=lam, z={}, s={})
    if lam < 0:
        return infeasible
    top, bottom = lam.numerator, lam.denominator
    rank = {x: i for i, x in enumerate(sorted(set(fvals)))}
    levels = [rank[x] for x in fvals]
    sign = [(x > 0) - (x < 0) for x in fvals]
    net = _vertex_net(levels, edges)
    # what u's free selections must supply, lambda sigma_u mu_u - net_u, times
    # lambda's denominator
    demand = [sign[u] * top * mu[u] - bottom * net[u] for u in range(g.n)]
    members = [[] for _ in rank]
    for u, lev in enumerate(levels):
        members[lev].append(u)
    inner = [[] for _ in rank]
    for u, v, w in edges:
        if levels[u] == levels[v]:
            inner[levels[u]].append((u, v, bottom * w))
    free = {}  # (u, v) of a free z and u of a free s -> its value
    for lev, mem in enumerate(members):
        if sign[mem[0]] == 0:
            radius = {u: top * mu[u] for u in mem}
        elif inner[lev]:
            radius = {}
        elif any(demand[u] for u in mem):
            return infeasible
        else:
            continue
        values = lp_solve(mem, inner[lev], radius, demand)
        if values is None:
            return infeasible
        free.update(values)
    z = {(u + 1, v + 1): free[u, v] if levels[u] == levels[v]
         else ONE if levels[u] > levels[v] else -ONE for u, v, _ in edges}
    s = {u + 1: free[u] if sigma == 0 else Fraction(sigma)
         for u, sigma in enumerate(sign)}
    return OneLapCertificate(feasible=True, lam=lam, z=z, s=s)


def lp_solve(members, inner, radius, demand) -> dict | None:
    """Free selections of one level that meet its vertex equations, or None.

    A max flow solves the level's selection LP.  inner holds the level's
    edges (u, v, c), c their scaled weight, and radius the scaled lambda
    mu_u >= 0 of each member with a free s (every member of the zero level).
    Edge (u, v) is an arc u -> v of capacity 2c, z(u -> v) = y / c - 1 for
    its flow y; a free s is an arc of capacity 2r_u from a ground node,
    s_u = t / r_u - 1 (or 0 when r_u = 0 drops s_u from the equation).  u's
    equation asks u to send out b_u = demand_u + c(arcs out of u) - c(arcs
    into u) - r_u more than it takes in, and the ground -sum b_u.  Edmonds
    and Karp's shortest augmenting paths (Ford & Fulkerson 1956), whose
    number does not depend on the Python-int capacities, saturate these
    supplies iff the level is feasible.  The result maps (u, v) to
    z(u -> v) and u to s(u).  perfbench's tracer wraps this name, one span
    per level with free selections; ROADMAP item 23 may rename it.
    """
    node = {u: i for i, u in enumerate(members)}
    ground, source, sink = len(members), len(members) + 1, len(members) + 2
    head, cap, out = [], [], [[] for _ in range(len(members) + 3)]

    def arc(a, b, c):  # arc 2k and its residual twin 2k + 1
        out[a].append(len(head))
        out[b].append(len(head) + 1)
        head.extend((b, a))
        cap.extend((c, 0))

    supply = [demand[u] - radius.get(u, 0) for u in members]
    for u, v, c in inner:
        supply[node[u]] += c
        supply[node[v]] -= c
        arc(node[u], node[v], 2 * c)
    for u, r in radius.items():
        arc(ground, node[u], 2 * r)
    supply.append(-sum(supply))
    for a, b in enumerate(supply):
        if b > 0:
            arc(source, a, b)
        elif b < 0:
            arc(a, sink, -b)
    need = sum(b for b in supply if b > 0)
    while need:
        into = {source: None}  # node -> the residual arc that reached it
        queue = [source]
        for a in queue:
            for k in out[a]:
                if cap[k] and head[k] not in into:
                    into[head[k]] = k
                    queue.append(head[k])
            if sink in into:
                break
        else:
            return None
        path = []
        a = sink
        while a != source:
            path.append(into[a])
            a = head[into[a] ^ 1]
        push = min(cap[k] for k in path)
        for k in path:
            cap[k] -= push
            cap[k ^ 1] += push
        need -= push
    # the flow on arc 2k is the residual capacity of its twin
    values = {(u, v): Fraction(cap[2 * k + 1], c) - ONE
              for k, (u, v, c) in enumerate(inner)}
    for k, (u, r) in enumerate(radius.items(), len(inner)):
        values[u] = Fraction(cap[2 * k + 1], r) - ONE if r else ZERO
    return values


def _in_sign(x: Fraction, v: Fraction) -> bool:
    """Whether v lies in Sign(x): {+1} for x > 0, {-1} for x < 0, else [-1, 1]."""
    if x > 0:
        return v == ONE
    if x < 0:
        return v == -ONE
    return -ONE <= v <= ONE


def check_certificate(g: Graph, f: Sequence, lam, cert: OneLapCertificate) -> bool:
    """Re-verify a feasible certificate by direct rational substitution."""
    if not cert.feasible:
        return False
    mu, edges = _rational_graph(g)
    fvals = [to_fraction(x) for x in f]
    lam = to_fraction(lam)
    total = [ZERO] * g.n
    for u, v, w in edges:
        zval = cert.z[(u + 1, v + 1)]
        if not _in_sign(fvals[u] - fvals[v], zval):
            return False
        total[u] += w * zval
        total[v] -= w * zval
    for u in range(g.n):
        sval = cert.s[u + 1]
        if not _in_sign(fvals[u], sval) or total[u] != lam * mu[u] * sval:
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
    """The exact eigenvalue one sign/order pattern pins."""
    lam: Fraction
    pattern: OrderPattern


def _weak_orderings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weak ordering of vertices 0..n-1 as rows of levels, with m.

    Vertex u either joins one of the current m blocks (choice c < m) or opens
    a new block at rank c - m, shifting the blocks at or above it up one;
    each row expands into its 2m + 1 children in choice order, so the rows
    come out depth first, as from the recursion that makes those choices
    (`tests/oracles.ordered_partitions`).
    """
    levels = np.zeros((1, 0), dtype=np.int8)
    m = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        kids = 2 * m.astype(np.int64) + 1
        choice = np.arange(kids.sum()) - np.repeat(np.cumsum(kids) - kids, kids)
        levels = np.repeat(levels, kids, axis=0)
        m = np.repeat(m, kids)
        rank = choice - m
        new = rank >= 0
        levels += new[:, None] & (levels >= rank[:, None])
        levels = np.column_stack(
            (levels, np.where(new, rank, choice).astype(np.int8)))
        m += new
    return levels, m


def _vertex_net(levels: tuple[int, ...], edges) -> list:
    """net[u] = w(u -> lower levels) - w(u -> higher levels)."""
    net = [0] * len(levels)
    for a, b, w in edges:
        la, lb = levels[a], levels[b]
        if la != lb:
            flow = w if la > lb else -w
            net[a] += flow
            net[b] -= flow
    return net


def _level_sums(levels: tuple[int, ...], m: int, mu, edges):
    """Per level i: net[i] = w(L_i -> lower levels) - w(L_i -> higher levels)
    and mass[i] = mu(L_i)."""
    net = [0] * m
    mass = [0] * m
    for lev, x, flow in zip(levels, mu, _vertex_net(levels, edges)):
        net[lev] += flow
        mass[lev] += x
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


def _levels_feasible(pat: OrderPattern, lam: Fraction, mu, edges) -> bool:
    """Whether a pattern's free selections meet its vertex equations at lambda.

    The free selections are z on the edges inside a level and s on the zero
    level, so the selection LP splits into one flow problem per level L: z in
    [-1, 1] on L's internal edges with sum_v w(uv) z(uv) = b_u at each u in L,
    where b_u = lambda sigma mu_u - net_u and net_u = w(u -> lower levels) -
    w(u -> higher levels); on the zero level b_u may be anything within
    lambda mu_u of -net_u.  By Gale's supply-demand theorem (1957), with the
    box form of the cut function's base polytope, such a z exists iff
    |c(S)| <= w(S, L - S) + r(S) for every nonempty S in L, where c is the
    centre and r the radius of b's range (r = 0 off the zero level).  S = L
    is the level-sum condition `_pinned_lambda` has decided, so it is not
    tested again, and neither is a level of one vertex, whose only subset
    is L.  Every quantity is taken times lambda's denominator, so integer mu
    and w keep the test in ints.

    The subsets of a level are visited in increasing bit order, and each
    one's sums come from the subset without its lowest bit j: c adds j's
    centre, and w(S, L - S) + r(S) adds j's degree inside L plus its radius
    less 2 w(j, S - j).  w(j, S - j) in turn is w(j, S - j - k) + w(j, k)
    for k the second lowest bit of S, read off the subset S - k, whose
    lowest bit is also j.
    """
    top, bottom = lam.numerator, lam.denominator
    levels = pat.levels
    members = [[] for _ in range(pat.m)]
    for u, lev in enumerate(levels):
        members[lev].append(u)
    bit = [0] * len(levels)  # u's bit within its level
    for mem in members:
        for j, u in enumerate(mem):
            bit[u] = 1 << j
    weight = [{} for _ in members]  # per level: bits of both ends -> weight
    for a, b, w in edges:
        lev = levels[a]
        if lev == levels[b]:
            ends = bit[a] | bit[b]
            weight[lev][ends] = weight[lev].get(ends, 0) + bottom * w
    net = _vertex_net(levels, edges)
    for i, mem in enumerate(members):
        if len(mem) == 1:
            continue
        sigma = pat.level_sign(i)
        full = (1 << len(mem)) - 1
        c_sum = [0] * full
        cap = [0] * full  # w(S, L - S) + r(S)
        for u in mem:
            c_sum[bit[u]] = sigma * top * mu[u] - bottom * net[u]
            if not sigma:
                cap[bit[u]] = top * mu[u]
        pairs = weight[i]
        for ends, c in pairs.items():
            low = ends & -ends
            cap[low] += c
            cap[ends ^ low] += c
        low_weight = [0] * full  # w(lowest bit of S, rest of S)
        for subset in range(1, full):
            low = subset & -subset
            rest = subset ^ low
            if rest:
                k = rest & -rest
                x = low_weight[subset] = low_weight[subset ^ k] + pairs.get(low | k, 0)
                c_sum[subset] = c_sum[rest] + c_sum[low]
                cap[subset] = cap[rest] + cap[low] - 2 * x
            if abs(c_sum[subset]) > cap[subset]:
                return False
    return True


def _screen(levels, m, last, mu, edges):
    """The (row, zero_pos) pairs of a block of orderings that their level sums
    leave open, in row order and then zero_pos order.

    Each ordering offers the zero positions of the rule in
    `enumerate_1lap_eigenvalues`.  A pair is dropped only if the exact
    `_pinned_lambda` must return None for it: a signed level whose net has
    the wrong sign (an exact int test), or float ratios r_i = |net_i| /
    mass_i that miss a common lambda by more than SCREEN_MARGIN.  The nets
    and masses are ints below 2^62, so each converts to float64 within a
    relative u = 2^-53 and each r_i is within (1 + u)^3 of its exact value.
    Where the exact test pins lambda, every signed r_i is within 3u (plus
    O(u^2)) of lambda, and so is their largest, r_max: their spread is at most
    about 6u r_max and the zero level's ratio at most about (1 + 6u) r_max,
    while SCREEN_MARGIN = 16u, and the threshold r_max (1 + 16u) loses at
    most one more rounding.  No exact tie is dropped; near ties pass to the
    exact test.
    """
    rows, n = levels.shape
    vnet = np.zeros((rows, n), dtype=np.int64)
    for a, b, w in edges:
        flow = np.sign(levels[:, a] - levels[:, b]).astype(np.int64) * w
        vnet[:, a] += flow
        vnet[:, b] -= flow
    net = np.zeros((rows, n), dtype=np.int64)
    mass = np.zeros((rows, n), dtype=np.int64)
    row = np.arange(rows)
    for u in range(n):
        net[row, levels[:, u]] += vnet[:, u]
        mass[row, levels[:, u]] += mu[u]
    ratio = np.divide(np.abs(net), mass, out=np.zeros((rows, n)),
                      where=mass > 0)

    # when a net is nonzero, lambda > 0 and every level off zero takes its
    # net's sign, so zero sits just after the a leading negative nets: at the
    # gap after them, or at the level on either side of that gap
    nonzero = net.any(axis=1)
    a = np.argmax(net >= 0, axis=1)
    lo = np.where(nonzero, np.maximum(2 * a - 1, 0), 0)
    hi = np.where(nonzero, np.minimum(2 * a + 1, last), last)
    hi = np.where(m == 1, 0, hi)  # zero_pos 1 of one level is f = 0
    count = np.maximum(hi - lo + 1, 0)
    cand = np.repeat(row, count)
    zero_pos = (np.arange(cand.shape[0])
                + np.repeat(lo - (np.cumsum(count) - count), count))

    sigma = np.sign(2 * np.arange(n) + 1 - zero_pos[:, None]).astype(np.int8)
    signed = (sigma != 0) & (np.arange(n) < m[cand, None])
    ratio = ratio[cand]
    r_max = np.where(signed, ratio, 0.0).max(axis=1)
    r_min = np.where(signed, ratio, np.inf).min(axis=1)
    r_zero = np.where(sigma == 0, ratio, 0.0).max(axis=1)
    slack = r_max * SCREEN_MARGIN
    keep = ~(sigma * np.sign(net).astype(np.int8)[cand] < 0).any(axis=1)
    keep &= r_max - r_min <= slack
    keep &= r_zero <= r_max + slack
    return cand[keep], zero_pos[keep]


def enumerate_1lap_eigenvalues(g: Graph) -> list[EigenvalueRecord]:
    """All p = 1 eigenvalues of a tiny graph with representative patterns.

    Weak orderings are enumerated up to the global sign flip f -> -f; the
    all-zero pattern is skipped.  Every record's eigenvalue is exact.

    The orderings are screened a block at a time by `_screen`, and only the
    pairs it leaves open are decided exactly, in ordering order and then
    zero_pos order, by `_pinned_lambda` and `_levels_feasible` on Python
    ints.  The screen's sums are int64: when the scaled total weight or
    measure reaches 2^62 it is given no edges and unit measures, so every
    net is 0 and it offers every zero position and drops none.
    """
    if g.n > ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive enumeration capped at n <= {ENUMERATION_CAP}, got {g.n}")
    mu, edges = _integer_graph(g)
    screen_mu, screen_edges = mu, edges
    if max(sum(mu), sum(w for _, _, w in edges)) >= 1 << 62:
        screen_mu, screen_edges = [1] * g.n, []
    table, ms = _weak_orderings(g.n)
    # skip an ordering greater than its flip, which covers all of its
    # patterns; f -> -f maps zero_pos to 2m - zero_pos, so on an ordering that
    # is its own flip that pairs the patterns up within it
    flipped = ms[:, None] - 1 - table
    differ = table != flipped
    first = differ.argmax(axis=1)
    rows = np.arange(table.shape[0])
    keep = table[rows, first] <= flipped[rows, first]
    last = np.where(differ.any(axis=1), 2 * ms, ms)
    table, ms, last = table[keep], ms[keep], last[keep]

    records = []
    for start in range(0, table.shape[0], SCREEN_BLOCK):
        block = slice(start, start + SCREEN_BLOCK)
        cand, zero_pos = _screen(table[block], ms[block], last[block],
                                 screen_mu, screen_edges)
        prev = -1
        for row, pos in zip((cand + start).tolist(), zero_pos.tolist()):
            if row != prev:
                prev = row
                levels, m = tuple(table[row].tolist()), int(ms[row])
                net, mass = _level_sums(levels, m, mu, edges)
            pat = OrderPattern(levels=levels, m=m, zero_pos=pos)
            lam = _pinned_lambda(net, mass, pat)
            if lam is not None and _levels_feasible(pat, lam, mu, edges):
                records.append(EigenvalueRecord(lam, pat))
    records.sort(key=lambda r: r.lam)
    return records


def merged_eigenvalues(records: Iterable[EigenvalueRecord],
                       nonconstant_only: bool = False) -> list[Fraction]:
    """The distinct eigenvalues of the records, sorted."""
    return sorted({r.lam for r in records
                   if not (nonconstant_only and r.pattern.constant)})
