from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from plap import (
    build_graph,
    enumerate_1lap_eigenvalues,
    is_connected,
    multiway_cheeger_all,
    multiway_cheeger_values,
    path_graph,
    strong_nodal_domains,
    verify_1lap_eigenpair,
)
from plap.cheeger import EXACT_HK_CAP
from plap.graph import components
from plap.one_laplacian import (
    _integer_graph,
    _rational_graph,
    check_certificate,
    to_fraction,
)

from .oracles import (
    OrderPattern,
    enumerate_1lap_every_position,
    exact_multiway_cheeger,
    enumerate_1lap_lp,
    fraction_lp_solve,
    level_sums,
    levels_feasible,
    lp_solve,
    ordered_partitions,
    pattern_lambda_lps,
    pinned_lambda,
    selection_lp,
)
from .util import MU_MODES, random_connected_graph

F = Fraction


# ---------------------------------------------------------------------------
# exact simplex

def test_lp_feasible_min():
    # min x1 s.t. x1 + x2 = 2
    res = lp_solve([[F(1), F(1)]], [F(2)], [F(1), F(0)])
    assert res.status == "optimal"
    assert res.value == 0 and res.x == (F(0), F(2))


def test_lp_infeasible():
    res = lp_solve([[F(1)], [F(1)]], [F(1), F(2)], [F(0)])
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_solve([[F(1), F(-1)]], [F(1)], [F(0), F(-1)])
    assert res.status == "unbounded"


def test_lp_degenerate_and_redundant_rows():
    res = lp_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)], [F(-1), F(0)])
    assert res.status == "optimal"
    assert res.value == -1


def test_lp_exactness():
    res = lp_solve([[F(1, 3), F(1)]], [F(1, 7)], [F(1), F(3)])
    assert res.status == "optimal"
    assert res.value == F(3, 7)  # all-slack... x2 = 1/7 costs exactly 3/7


def _random_lp(rng):
    """A small LP with nonzero costs: random small entries, half of them
    rationals, and then, drawn at random, nothing more, a row repeated at a
    multiple (redundant), a row repeated with another right-hand side
    (infeasible) or a zero right-hand side (degenerate)."""
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))

    def entry():
        v = F(int(rng.integers(-3, 4)))
        return v / int(rng.integers(1, 4)) if rng.random() < 0.5 else v

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    cost = [entry() for _ in range(n)]
    if not any(cost):
        cost[0] = F(-1)
    i = int(rng.integers(0, m))
    kind = int(rng.integers(0, 4))
    if kind == 1:
        rows.append([2 * v for v in rows[i]])
        rhs.append(2 * rhs[i])
    elif kind == 2:
        rows.append(list(rows[i]))
        rhs.append(rhs[i] + 1)
    elif kind == 3:
        rhs[i] = F(0)
    return rows, rhs, cost


def test_lp_matches_fraction_simplex():
    # the integer-row simplex against the Fraction tableau of the oracle: the
    # same pivots give the same status, x and value
    systems = [
        ([[F(1), F(1)]], [F(2)], [F(1), F(0)]),
        ([[F(1)], [F(1)]], [F(1), F(2)], [F(0)]),
        ([[F(1), F(-1)]], [F(1)], [F(0), F(-1)]),
        ([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)], [F(-1), F(0)]),
        ([[F(1, 3), F(1)]], [F(1, 7)], [F(1), F(3)]),
    ]
    # the two-LP reference's LPs of a sample of the patterns that pin a
    # lambda, most of them feasible, so that phase 2 runs on both costs
    rng = np.random.default_rng(9)
    for g in _reference_graphs():
        mu, edges = _rational_graph(g)
        pinned = [pat for _, pat, _, _ in _pinned_patterns([g])]
        for i in rng.choice(len(pinned), size=min(8, len(pinned)), replace=False):
            rows, rhs, cmin, cmax = pattern_lambda_lps(mu, edges, g.n, pinned[i])
            systems += [(rows, rhs, cmin), (rows, rhs, cmax)]
    systems += [_random_lp(rng) for _ in range(600)]
    statuses = set()
    for rows, rhs, cost in systems:
        res = lp_solve(rows, rhs, cost)
        assert res == fraction_lp_solve(rows, rhs, cost), (rows, rhs, cost)
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


# ---------------------------------------------------------------------------
# input handling

def test_to_fraction_exactness_contract():
    assert to_fraction(0.5) == F(1, 2)
    assert to_fraction("2/3") == F(2, 3)
    assert to_fraction(7) == F(7)
    with pytest.raises(ValueError):
        to_fraction(float("nan"))
    with pytest.raises(ValueError):
        to_fraction(float("inf"))


# ---------------------------------------------------------------------------
# verification

def test_verify_p3_lambda_one_feasible():
    g = path_graph(3, "degree")
    cert = verify_1lap_eigenpair(g, [1, -1, 1], 1)
    assert cert.feasible
    assert cert.z == {(1, 2): F(1), (2, 3): F(-1)}
    assert cert.s == {1: F(1), 2: F(-1), 3: F(1)}
    assert check_certificate(g, [1, -1, 1], 1, cert)


def test_check_certificate_rejects_each_broken_condition():
    g = path_graph(3, "degree")
    f = [1, -1, 1]
    cert = verify_1lap_eigenpair(g, f, 1)
    assert check_certificate(g, f, 1, cert)
    assert not check_certificate(g, f, 1, replace(cert, feasible=False))
    # f(1) - f(2) = 2 > 0, so z(1, 2) must be +1
    bad_z = replace(cert, z={**cert.z, (1, 2): F(-1)})
    assert not check_certificate(g, f, 1, bad_z)
    # f(1) = 1 > 0, so s(1) must be +1
    bad_s = replace(cert, s={**cert.s, 1: F(1, 2)})
    assert not check_certificate(g, f, 1, bad_s)
    # the signs still fit, but the balance at each vertex needs lambda = 1
    assert not check_certificate(g, f, F(1, 2), cert)
    # on one edge with f = (-1, 1), z = -1/2 balances both vertices at
    # lambda = 1/2, but f(1) - f(2) < 0, so z(1, 2) must be -1
    edge = path_graph(2)
    neg = verify_1lap_eigenpair(edge, [-1, 1], 1)
    assert check_certificate(edge, [-1, 1], 1, neg)
    assert not check_certificate(edge, [-1, 1], F(1, 2),
                                 replace(neg, z={(1, 2): F(-1, 2)}))
    # a constant f on a triangle balances any circulation z = (t, t, -t) at
    # lambda = 0, and every difference is zero, so z must lie in [-1, 1]
    triangle = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
    const = [1, 1, 1]
    flat = verify_1lap_eigenpair(triangle, const, 0)

    def circulation(t):
        return replace(flat, z={(1, 2): t, (2, 3): t, (1, 3): -t})

    assert check_certificate(triangle, const, 0, circulation(F(1, 2)))
    assert not check_certificate(triangle, const, 0, circulation(F(3, 2)))


def test_verify_p3_half_infeasible():
    g = path_graph(3, "degree")
    assert not verify_1lap_eigenpair(g, [1, -1, 1], F(1, 2)).feasible


def test_verify_constant_zero():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 5)
    cert = verify_1lap_eigenpair(g, [1] * 5, 0)
    assert cert.feasible
    assert check_certificate(g, [1] * 5, 0, cert)


def test_verify_rejects_zero_function_and_decides_disconnected():
    g = path_graph(3)
    with pytest.raises(ValueError, match="zero function"):
        verify_1lap_eigenpair(g, [0, 0, 0], 1)
    # two disjoint edges: the selection LP is exact on each component
    disconnected = build_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    f = [1, -1, 1, -1]
    cert = verify_1lap_eigenpair(disconnected, f, 1)
    assert cert.feasible
    assert check_certificate(disconnected, f, 1, cert)
    assert not verify_1lap_eigenpair(disconnected, f, F(1, 2)).feasible


def test_verify_interior_zero_eigenfunction():
    g = path_graph(3, "degree")
    cert = verify_1lap_eigenpair(g, [1, 0, -1], 1)
    assert cert.feasible
    assert check_certificate(g, [1, 0, -1], 1, cert)


# ---------------------------------------------------------------------------
# enumeration

def _sets(records):
    """The eigenvalues and the nonconstant eigenvalues of oracle records."""
    return (sorted({r.lam for r in records}),
            sorted({r.lam for r in records if not r.pattern.constant}))


def _reverifies(g, found):
    """The example goes through the verifier and the recheck, and so does
    1_S at w(S, V - S) / mu(S) for every connected S != V; the lambdas of
    those accepted are the nonconstant eigenvalues."""
    if found.nonconstant:
        lam, f = found.nonconstant[0], found.example
        cert = verify_1lap_eigenpair(g, f, lam)
        assert cert.feasible and check_certificate(g, f, lam, cert), f
    mu, edges = _rational_graph(g)
    held = set()
    for s in range(1, (1 << g.n) - 1):
        inside = [s >> u & 1 for u in range(g.n)]
        if len(components(g, inside)) > 1:
            continue
        cut = sum(w for u, v, w in edges if inside[u] != inside[v])
        lam = cut / sum(x for x, i in zip(mu, inside) if i)
        cert = verify_1lap_eigenpair(g, inside, lam)
        if cert.feasible:
            assert check_certificate(g, inside, lam, cert), inside
            held.add(lam)
    assert sorted(held) == list(found.nonconstant)


def test_enumerate_p3_degree_reproduces_case_analysis():
    g = path_graph(3, "degree")
    found = enumerate_1lap_eigenvalues(g)
    assert found.eigenvalues == [F(0), F(1)]
    assert found.nonconstant == (F(1),)


def test_enumerate_p2_single_edge():
    g = path_graph(2, "degree")
    noncon = enumerate_1lap_eigenvalues(g).nonconstant
    assert noncon == (F(1),)
    h2 = multiway_cheeger_all(g, 2)[1][0]
    assert float(noncon[0]) == pytest.approx(h2)


def test_enumerate_constant_pattern_gives_zero():
    # 0 is the eigenvalue of the constant functions, the oracle's constant
    # pattern; on a connected graph no nonconstant function has it
    g = path_graph(4, "unit")
    found = enumerate_1lap_eigenvalues(g)
    assert found.eigenvalues[0] == 0 and 0 not in found.nonconstant
    assert any(r.lam == 0 and r.pattern.constant
               for r in enumerate_1lap_every_position(g))


def test_enumerate_includes_h2():
    for g in (path_graph(3, "degree"), path_graph(4, "unit"),
              build_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)],
                          mu_mode="degree")):
        eigenvalues = enumerate_1lap_eigenvalues(g).eigenvalues
        h2 = multiway_cheeger_all(g, 2)[1][0]
        assert any(float(v) - 1e-12 <= h2 <= float(v) + 1e-12
                   for v in eigenvalues)


def test_enumerate_certificates_reverify():
    g = path_graph(3, "degree")
    _reverifies(g, enumerate_1lap_eigenvalues(g))


def test_enumerate_cap():
    g = path_graph(EXACT_HK_CAP + 1)
    with pytest.raises(ValueError, match="capped"):
        enumerate_1lap_eigenvalues(g)


def _cycle(n):
    return build_graph(n, [(i, i + 1, 1.0) for i in range(1, n)] + [(1, n, 1.0)])


def _complete(n):
    return build_graph(n, [(u, v, 1.0) for u in range(1, n + 1)
                           for v in range(u + 1, n + 1)])


def _reference_graphs():
    """Random graphs n = 2..5 in every measure mode, paths, cycles and
    complete graphs n = 3..5, and one disconnected graph, last."""
    rng = np.random.default_rng(11)
    graphs = [random_connected_graph(rng, n, mode)
              for n in range(2, 6) for mode in MU_MODES]
    graphs += [make(n) for n in range(3, 6) for make in (path_graph, _cycle, _complete)]
    graphs.append(build_graph(5, [(1, 2, 1.0), (2, 3, 0.5), (4, 5, 2.0)]))
    return graphs


def test_enumerate_matches_two_lp_reference():
    for g in _reference_graphs():
        # the two LPs bound lambda from both sides: a point is lo == hi
        records = enumerate_1lap_every_position(g)
        assert [(r.lam, r.lam, r.pattern) for r in records] == enumerate_1lap_lp(g)
        found = enumerate_1lap_eigenvalues(g)
        assert (found.eigenvalues, list(found.nonconstant)) == _sets(records)


def _matches_oracle(g):
    """The indicator search against the weak-ordering oracle: the same
    sets, and an example with the oracle's most strong domains at the lowest
    nonconstant eigenvalue, which the verifier accepts."""
    records = enumerate_1lap_every_position(g)
    found = enumerate_1lap_eigenvalues(g)
    assert (found.eigenvalues, list(found.nonconstant)) == _sets(records)
    if found.nonconstant:
        lam = found.nonconstant[0]
        most = max(strong_nodal_domains(g, [float(x) for x in r.pattern.example_function()]).count
                   for r in records if r.lam == lam and not r.pattern.constant)
        assert strong_nodal_domains(g, [float(x) for x in found.example]).count == most
    _reverifies(g, found)


def test_enumerate_sets_match_ordering_oracle():
    # on this path the subsets {1} and {3} have cut ratios 1 and 1 + 2^-52,
    # one float64 step apart; the second graph's weights and measures take
    # its integer data far past 2^62
    heavy = 1.0 + 2.0 ** -52
    near_tie = build_graph(3, [(1, 2, 1.0), (2, 3, heavy)], mu=[1.0, 1.0, 1.0],
                           mu_mode="explicit")
    wide = build_graph(5, [(1, 2, 1e-300), (2, 3, 1e300), (3, 4, 1.0),
                           (4, 5, 0.3), (1, 5, 2.0)],
                       mu=[1e-300, 1e300, 1.0, 2.0, 0.7], mu_mode="explicit")
    assert sum(_integer_graph(wide)[0]) > 1 << 62
    for g in (near_tie, wide, *_reference_graphs()):
        _matches_oracle(g)


def _relabelled(g, perm):
    """g with vertex u + 1 renamed perm[u] + 1.  The measure is passed on
    explicitly: a degree measure rebuilt from the reordered edges could sum
    the weights in another order."""
    mu = np.empty(g.n)
    mu[perm] = g.mu
    edges = [(int(perm[u]) + 1, int(perm[v]) + 1, float(w))
             for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)]
    return build_graph(g.n, edges, mu=mu, mu_mode="explicit")


def test_exact_p1_cheeger_statements():
    # at p = 1 the second eigenvalue is h_2 on a connected graph, and an
    # eigenfunction with m strong nodal domains has lambda >= h_m; both are
    # checked in exact arithmetic, and neither h_k nor the eigenvalues may
    # depend on the vertex labels
    rng = np.random.default_rng(12)
    graphs = _reference_graphs()
    for gi, g in enumerate(graphs):
        exact = exact_multiway_cheeger(g, g.n)
        for (h, _), want in zip(multiway_cheeger_all(g, g.n), exact):
            assert abs(F(h) - want) <= want / 10**12, (gi, h, want)
        found = enumerate_1lap_eigenvalues(g)
        if is_connected(g):
            assert found.nonconstant[0] == exact[1], gi
        for rec in enumerate_1lap_every_position(g):
            if rec.pattern.constant:
                continue
            f = [float(x) for x in rec.pattern.example_function()]
            m = strong_nodal_domains(g, f).count
            assert exact[m - 1] <= rec.lam, (gi, rec)
        h = _relabelled(g, rng.permutation(g.n))
        assert exact_multiway_cheeger(h, h.n) == exact, gi
        assert enumerate_1lap_eigenvalues(h).eigenvalues == found.eigenvalues, gi
    assert sum(not is_connected(g) for g in graphs) == 1


def test_enumerate_offers_each_ordering_its_possible_zero_positions():
    # the oracle offers every weak ordering every zero position; on seeded
    # n = 6 and 7 graphs in every measure mode, a disconnected graph and a
    # path, the indicator search must find its sets
    rng = np.random.default_rng(8)
    graphs = [random_connected_graph(rng, n, mode) for n in (6, 7) for mode in MU_MODES]
    graphs += [build_graph(6, [(1, 2, 1.0), (3, 4, 0.5), (4, 5, 2.0)]), path_graph(6)]
    for g in graphs:
        _matches_oracle(g)


def test_enumerate_at_cap_reverifies():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 6, "degree")
    found = enumerate_1lap_eigenvalues(g)
    _reverifies(g, found)
    h2 = multiway_cheeger_all(g, 2)[1][0]
    assert any(float(v) - 1e-12 <= h2 <= float(v) + 1e-12
               for v in found.eigenvalues)


def _grid(rows, cols):
    def at(i, j):
        return i * cols + j + 1
    edges = [(at(i, j), at(i, j + 1), 1.0) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j), 1.0) for i in range(rows - 1) for j in range(cols)]
    return build_graph(rows * cols, edges)


def test_lowest_nonconstant_eigenvalue_is_h2_past_old_cap():
    # lambda_2 = h_2 at p = 1 on connected graphs of n = 12 and 14
    rng = np.random.default_rng(14)
    graphs = [_cycle(12), _cycle(14), _grid(2, 6), _grid(2, 7),
              random_connected_graph(rng, 12, "degree"),
              random_connected_graph(rng, 14, "degree")]
    for g in graphs:
        lam2 = enumerate_1lap_eigenvalues(g).nonconstant[0]
        h2 = multiway_cheeger_all(g, 2)[1][0]
        assert abs(float(lam2) - h2) <= 1e-12 * h2, (g.n, lam2, h2)


def test_enumerate_ignores_vertex_labels():
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 10, "explicit")
    found = enumerate_1lap_eigenvalues(g)
    relabelled = enumerate_1lap_eigenvalues(_relabelled(g, rng.permutation(10)))
    assert relabelled.nonconstant == found.nonconstant
    assert len(found.nonconstant) > 10


def test_example_is_the_first_sum_of_the_search_that_holds():
    # (0, 1, 1) and (0, -1, 1) both hold with two strong domains; the search
    # opens a positive domain at vertex 3 before a negative one
    g = build_graph(3, [(1, 2, 0.814568519393309), (1, 3, 1.464324725797387)],
                    mu_mode="degree")
    found = enumerate_1lap_eigenvalues(g)
    assert found.example == (0, 1, 1)
    lam = found.nonconstant[0]
    for f in (found.example, (0, -1, 1)):
        assert strong_nodal_domains(g, [float(x) for x in f]).count == 2
        cert = verify_1lap_eigenpair(g, f, lam)
        assert cert.feasible and check_certificate(g, f, lam, cert), f


def _scaled(g, a, b):
    """g with every w times 2^a and every mu times 2^b; under the degree
    measure mu follows w."""
    edges = [(int(u) + 1, int(v) + 1, float(w) * 2.0 ** a)
             for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)]
    if g.mu_mode == "degree":
        return build_graph(g.n, edges, mu_mode="degree")
    return build_graph(g.n, edges, mu=g.mu * 2.0 ** b, mu_mode="explicit")


def test_exact_layers_scale_exactly():
    # a power of two times every w and every mu scales every cut ratio
    # without rounding, so h_k bit for bit and the p = 1 set exactly
    rng = np.random.default_rng(39)
    for n in range(2, 11):
        for mode in MU_MODES:
            g = random_connected_graph(rng, n, mode)
            hk, values = multiway_cheeger_all(g), multiway_cheeger_values(g)
            found = enumerate_1lap_eigenvalues(g) if n <= 8 else None
            for a, b in ((20, 0), (-20, 0), (0, 20), (7, -13)):
                h = _scaled(g, a, b)
                e = 0 if mode == "degree" else a - b
                assert multiway_cheeger_all(h) == [
                    (x * 2.0 ** e, family) for x, family in hk], (n, mode, a, b)
                assert multiway_cheeger_values(h) == [
                    x * 2.0 ** e for x in values], (n, mode, a, b)
                if found:
                    scaled = enumerate_1lap_eigenvalues(h)
                    assert scaled.nonconstant == tuple(
                        x * F(2) ** e for x in found.nonconstant), (n, mode, a, b)
                    assert scaled.example == found.example, (n, mode, a, b)


def _cut_test_graphs():
    rng = np.random.default_rng(5)
    graphs = [random_connected_graph(rng, n, mode)
              for n in range(2, 6) for mode in MU_MODES]
    # unit weights tie many level sums, so more patterns reach the cut test
    graphs += [make(n) for n in range(3, 6) for make in (path_graph, _cycle, _complete)]
    graphs.append(build_graph(5, [(1, 2, 1.0), (2, 3, 0.5), (4, 5, 2.0)]))
    return graphs


def _pinned_patterns(graphs):
    """(g, pattern, lambda, cut test verdict) for every pattern of the graphs
    whose level sums pin a lambda, both twins of each sign flip."""
    for g in graphs:
        mu, edges = _integer_graph(g)
        for levels, m in ordered_partitions(g.n):
            net, mass = level_sums(levels, m, mu, edges)
            for zero_pos in range(2 * m + 1):
                if m == 1 and zero_pos == 1:
                    continue
                pat = OrderPattern(levels=levels, m=m, zero_pos=zero_pos)
                lam = pinned_lambda(net, mass, pat)
                if lam is not None:
                    yield g, pat, lam, levels_feasible(pat, lam, mu, edges)


def _example_values(pat):
    """The pattern's example function and its cube: cubing keeps f's order
    and zeros and makes its gaps uneven, so the verifier must rank levels
    from any values, not only from the example's."""
    f = pat.example_function()
    return f, [x ** 3 for x in f]


def test_cut_test_matches_selection_lp():
    # every pattern whose level sums pin a lambda, decided by the per-level
    # cut test and by the single selection LP of the oracle
    outcomes = set()
    for g, pat, lam, cut in _pinned_patterns(_cut_test_graphs()):
        mu, edges = _rational_graph(g)
        for vals in _example_values(pat):
            cert = selection_lp(mu, edges, g.n, vals, lam)
            assert cert.feasible == cut, (g.edges_u, g.edges_v, pat, lam, vals)
            assert not cut or check_certificate(g, vals, lam, cert)
        outcomes.add(cut)
    # pinned patterns the cut test rejects fail on a proper subset of a level
    assert outcomes == {False, True}


def test_verifier_matches_selection_lp():
    # the verifier's one flow per level against the oracle's one LP over the
    # whole graph, at each pinned lambda, one percent either side of it and
    # its negative; of the last two graphs, one has weights and measures
    # over 2^-30..2^30, so its capacities pass 2^62, and one has an isolated
    # vertex, whose equation only s = 0 meets
    rng = np.random.default_rng(13)
    shape = random_connected_graph(rng, 5)
    wide = build_graph(5, [(int(u) + 1, int(v) + 1, 2.0 ** rng.uniform(-30, 30))
                           for u, v in zip(shape.edges_u, shape.edges_v)],
                       mu=2.0 ** rng.uniform(-30, 30, 5), mu_mode="explicit")
    assert max(w for _, _, w in _integer_graph(wide)[1]) > 1 << 62
    graphs = _cut_test_graphs()
    graphs += [wide, build_graph(4, [(1, 2, 1.0), (2, 3, 2.0)])]
    verdicts = set()
    for g, pat, lam, _ in _pinned_patterns(graphs):
        mu, edges = _rational_graph(g)
        for vals in _example_values(pat):
            for x in (lam, lam * F(99, 100), lam * F(101, 100), -lam):
                cert = verify_1lap_eigenpair(g, vals, x)
                want = selection_lp(mu, edges, g.n, vals, x)
                assert cert.feasible == want.feasible, (g.edges_u, g.edges_v,
                                                        pat, x, vals)
                assert not cert.feasible or check_certificate(g, vals, x, cert)
                verdicts.add((x == lam, cert.feasible))
    # a pattern pins one lambda, so one percent off it no pattern holds
    assert verdicts == {(True, True), (True, False), (False, False)}
