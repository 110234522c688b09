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
exactly on the eigenpairs of the weak-ordering enumeration in
`tests/oracles.py`.

Lemma: if (lambda, f) is an eigenpair and D a strong nodal domain of f with
f > 0 on D, then f's own selections make (lambda, 1_D) an eigenpair.  Inside
D, z(uv) lies in Sign(f(u) - f(v)), within [-1, 1] = Sign(1_D(u) - 1_D(v)).
On D's boundary z = 1 = Sign(1 - 0), as above.  Off D every z and s lies
in [-1, 1] = Sign(0), and s = 1 = Sign(1) on D.  So every selection stays
admissible and every vertex equation holds as it did.  Domain by domain,
the same check makes sum_i sigma_i 1_{D_i} over f's strong nodal domains,
sigma_i the sign of f on D_i, an eigenfunction at lambda with f's signs,
and so with f's strong and weak nodal domains.

So the eigenvalues are 0, of the constant functions, and the w(D, V - D) /
mu(D) of the connected D != V whose 1_D is an eigenfunction at it (a
negative D is a positive one of -f, and (lambda, -f) is an eigenpair with
every selection turned).  A nonconstant eigenfunction f has a strong nodal
domain D != V: were V its only one, V would be connected and f of one sign,
the sum over V would give lambda = 0, and the sum over f's top level set L,
whose edges to lower levels have z = 1, would give w(L, V - L) = 0, so
L = V and f would be constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cheeger import EXACT_HK_CAP, ExactCapExceeded
from .graph import Graph

ZERO = Fraction(0)
ONE = Fraction(1)


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
    lambda and every flow decision as it is."""
    mu, edges = _rational_graph(g)
    scale = math.lcm(*(x.denominator for x in mu),
                     *(w.denominator for _, _, w in edges))
    return ([int(x * scale) for x in mu],
            [(u, v, int(w * scale)) for u, v, w in edges])


def verify_1lap_eigenpair(g: Graph, f: Sequence, lam) -> OneLapCertificate:
    """Decide exactly whether (lambda, f) is a p = 1 eigenpair of g.

    The distinct values of f are ranked as levels, and `_free_selections`
    decides the selections one level at a time, on `_integer_graph` data
    with every equation times lambda's denominator.  A lambda < 0 is
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
    rank = {x: i for i, x in enumerate(sorted(set(fvals)))}
    levels = [rank[x] for x in fvals]
    sign = [(x > 0) - (x < 0) for x in fvals]
    free = None if lam < 0 else _free_selections(
        levels, sign, mu, edges, lam.numerator, lam.denominator)
    if free is None:
        return OneLapCertificate(feasible=False, lam=lam, z={}, s={})
    z = {(u + 1, v + 1): free[u, v] if levels[u] == levels[v]
         else ONE if levels[u] > levels[v] else -ONE for u, v, _ in edges}
    s = {u + 1: free[u] if sigma == 0 else Fraction(sigma)
         for u, sigma in enumerate(sign)}
    return OneLapCertificate(feasible=True, lam=lam, z=z, s=s)


def _free_selections(levels, sign, mu, edges, top, bottom) -> dict | None:
    """The free selections that meet every vertex equation at lambda = top /
    bottom >= 0, or None.

    levels ranks f's value at each vertex and sign is its sign; mu and edges
    are `_integer_graph` data, and every equation is taken times bottom.
    f's signs fix z between levels and s off the zero level, which enter each
    equation as the vertex's level net (`_vertex_net`).  The free z and s lie
    inside one level each, so one integer max flow (`lp_solve`) decides each
    level that has any, and a level without any holds iff its equations do.
    """
    net = _vertex_net(levels, edges)
    # what u's free selections must supply, lambda sigma_u mu_u - net_u,
    # times bottom
    demand = [sigma * top * x - bottom * y for sigma, x, y in zip(sign, mu, net)]
    members = [[] for _ in range(max(levels) + 1)]
    for u, lev in enumerate(levels):
        members[lev].append(u)
    inner = [[] for _ in members]
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
            return None
        else:
            continue
        values = lp_solve(mem, inner[lev], radius, demand)
        if values is None:
            return None
        free.update(values)
    return free


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
# Exact eigenvalue enumeration from connected indicators

def _vertex_net(levels, edges) -> list:
    """net[u] = w(u -> lower levels) - w(u -> higher levels)."""
    net = [0] * len(levels)
    for a, b, w in edges:
        la, lb = levels[a], levels[b]
        if la != lb:
            flow = w if la > lb else -w
            net[a] += flow
            net[b] -= flow
    return net


@dataclass(frozen=True)
class OneLapEigenvalues:
    """The exact p = 1 eigenvalues of the nonconstant eigenfunctions,
    ascending, and an eigenfunction at the lowest with the most strong nodal
    domains, or None when every eigenfunction is constant."""
    nonconstant: tuple[Fraction, ...]
    example: tuple[Fraction, ...] | None

    @property
    def eigenvalues(self) -> list[Fraction]:
        """Every eigenvalue, ascending: the constant functions add 0."""
        return sorted({ZERO, *self.nonconstant})


def enumerate_1lap_eigenvalues(g: Graph) -> OneLapEigenvalues:
    """All p = 1 eigenvalues of a graph, connected or not, of n <= EXACT_HK_CAP.

    By the module docstring's lemma they are 0 and the lambda_S = w(S, V -
    S) / mu(S) of the connected S != V whose 1_S is an eigenfunction.  One
    pass over the subsets in bit order builds each one's cut and measure in
    ints from the subset without its lowest bit j: the cut adds j's degree
    less 2 w(j, S - j), and w(j, S - j) is w(j, S - j - k) + w(j, k) for k
    the second lowest bit of S, read off S - k, whose lowest bit is also j.
    A search from j inside S tells whether S is connected.  Each lambda_S,
    in ascending order, is an eigenvalue iff one of its 1_S passes the int
    tests of `passes` and then the flows of `_free_selections`.
    """
    if g.n > EXACT_HK_CAP:
        raise ExactCapExceeded(
            f"exact enumeration capped at n <= {EXACT_HK_CAP}, got n = {g.n}")
    mu, edges = _integer_graph(g)
    n, full, total = g.n, (1 << g.n) - 1, sum(mu)
    cut, mass, low_weight, near = ([0] * full for _ in range(4))
    pair = {}  # the bits of both ends -> the weight
    for u, v, w in edges:
        cut[1 << u] += w  # one vertex's cut is its degree
        cut[1 << v] += w
        near[1 << u] |= 1 << v
        near[1 << v] |= 1 << u
        pair[1 << u | 1 << v] = w
    subsets = {}  # lambda_S -> the connected S != V, in bit order
    for s in range(1, full):
        low = s & -s
        rest = s ^ low
        k = rest & -rest  # 0 when S is one vertex, and w(j, S - j) = 0
        low_weight[s] = low_weight[s ^ k] + pair.get(low | k, 0)
        cut[s] = cut[rest] + cut[low] - 2 * low_weight[s]
        mass[s] = mass[rest] + mu[low.bit_length() - 1]
        near[s] = near[rest] | near[low]  # every neighbour of a vertex of S
        reach = low  # grows inside S by all its neighbours at once
        while (grown := reach | near[reach] & s) != reach:
            reach = grown
        if reach == s:
            subsets.setdefault(Fraction(cut[s], mass[s]), []).append(s)

    def passes(s):
        # Gale's condition times mu(S) for 1_S at lambda_S: u in S needs
        # lambda mu_u - w(u, V - S) from its z inside S, at most w(u, S - u)
        # either way; u off S needs w(u, S), at most w(u, V - S - u) + lambda
        # mu_u; and V - S needs w(S, V - S) <= lambda mu(V - S)
        c, m = cut[s], mass[s]
        if c and 2 * m > total:
            return False
        into = [0] * n  # w(u, S)
        for u, v, w in edges:
            into[u] += w * (s >> v & 1)
            into[v] += w * (s >> u & 1)
        for u, x in enumerate(mu):
            out = cut[1 << u] - into[u]
            if (abs(c * x - m * out) > m * into[u] if s >> u & 1
                    else m * (into[u] - out) > c * x):
                return False
        return True

    def holds(s):
        inside = [s >> u & 1 for u in range(n)]
        return passes(s) and _free_selections(
            inside, inside, mu, edges, cut[s], mass[s]) is not None

    nonconstant = [lam for lam in sorted(subsets) if any(map(holds, subsets[lam]))]
    example = None
    if nonconstant:
        domains = list(filter(passes, subsets[nonconstant[0]]))
        example = _example(n, near, domains, nonconstant[0], mu, edges)
    return OneLapEigenvalues(tuple(nonconstant), example)


def _example(n, near, domains, lam, mu, edges) -> tuple[Fraction, ...]:
    """An eigenfunction at lambda with the most strong nodal domains.

    By the lemma it is some nonconstant sum_i sigma_i 1_{D_i} of disjoint
    candidate domains, same-sign domains not adjacent.  A depth-first search
    builds the sums of k domains, largest k first: the lowest vertex not yet
    covered opens a positive domain, then a negative one once a positive one
    exists (f and -f are one candidate), then stays zero.  Each sum is decided
    as it is built, and the first that holds is returned as whichever of f
    and -f has the lexicographically smaller level ranks, with values +-1 and
    0, or +-1/2 when no vertex is zero.
    """
    full = (1 << n) - 1
    by_low = [[] for _ in range(n)]  # the domains by their lowest vertex
    for d in domains:
        by_low[(d & -d).bit_length() - 1].append(d)

    def sums(free, pos, neg, k):
        # the nonconstant sums with k more domains in free, the uncovered
        # vertices the search has not passed
        if not k:
            if pos != full:
                yield pos, neg
        elif free.bit_count() >= k:
            low = free & -free
            for d in by_low[low.bit_length() - 1]:
                if d & ~free:
                    continue
                if not d & near[pos]:
                    yield from sums(free & ~d, pos | d, neg, k - 1)
                if pos and not d & near[neg]:
                    yield from sums(free & ~d, pos, neg | d, k - 1)
            yield from sums(free ^ low, pos, neg, k)

    def ranked(sign):
        values = sorted(set(sign))
        return [values.index(x) for x in sign], sign

    for k in range(min(n, len(domains)), 0, -1):
        for pos, neg in sums(full, 0, 0, k):
            sign = [(pos >> u & 1) - (neg >> u & 1) for u in range(n)]
            levels, sign = min(ranked(sign), ranked([-x for x in sign]))
            if _free_selections(levels, sign, mu, edges,
                                lam.numerator, lam.denominator) is not None:
                half = 1 if 0 in sign else 2
                return tuple(Fraction(x, half) for x in sign)
