from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from plap import (
    build_graph,
    enumerate_1lap_eigenvalues,
    is_connected,
    merged_eigenvalues,
    multiway_cheeger_all,
    path_graph,
    strong_nodal_domains,
    verify_1lap_eigenpair,
)
from plap import one_laplacian
from plap.one_laplacian import (
    OrderPattern,
    _integer_graph,
    _level_sums,
    _levels_feasible,
    _pinned_lambda,
    _rational_graph,
    _screen,
    _selection_lp,
    _weak_orderings,
    check_certificate,
    to_fraction,
)
from plap.simplex import lp_solve

from .oracles import (
    enumerate_1lap_every_position,
    exact_multiway_cheeger,
    enumerate_1lap_lp,
    ordered_partitions,
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

def test_enumerate_p3_degree_reproduces_case_analysis():
    g = path_graph(3, "degree")
    records = enumerate_1lap_eigenvalues(g)
    assert merged_eigenvalues(records) == [F(0), F(1)]
    assert merged_eigenvalues(records, nonconstant_only=True) == [F(1)]


def test_enumerate_p2_single_edge():
    g = path_graph(2, "degree")
    records = enumerate_1lap_eigenvalues(g)
    noncon = merged_eigenvalues(records, nonconstant_only=True)
    assert noncon == [F(1)]
    h2 = multiway_cheeger_all(g, 2)[1][0]
    assert float(noncon[0]) == pytest.approx(h2)


def test_enumerate_constant_pattern_gives_zero():
    g = path_graph(4, "unit")
    records = enumerate_1lap_eigenvalues(g)
    assert any(r.lam == 0 and r.pattern.constant for r in records)


def test_enumerate_includes_h2():
    for g in (path_graph(3, "degree"), path_graph(4, "unit"),
              build_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)],
                          mu_mode="degree")):
        records = enumerate_1lap_eigenvalues(g)
        h2 = multiway_cheeger_all(g, 2)[1][0]
        assert any(float(v) - 1e-12 <= h2 <= float(v) + 1e-12
                   for v in merged_eigenvalues(records))


def test_enumerate_certificates_reverify():
    g = path_graph(3, "degree")
    for rec in enumerate_1lap_eigenvalues(g):
        if rec.pattern.constant:
            continue
        f = rec.pattern.example_function()
        cert = verify_1lap_eigenpair(g, f, rec.lam)
        assert cert.feasible
        assert check_certificate(g, f, rec.lam, cert)


def test_enumerate_cap():
    g = path_graph(one_laplacian.ENUMERATION_CAP + 1)
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
        assert [(r.lam, r.lam, r.pattern) for r in enumerate_1lap_eigenvalues(g)] \
            == enumerate_1lap_lp(g)


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
        records = enumerate_1lap_eigenvalues(g)
        if is_connected(g):
            assert merged_eigenvalues(records, nonconstant_only=True)[0] == exact[1], gi
        for rec in records:
            if rec.pattern.constant:
                continue
            f = [float(x) for x in rec.pattern.example_function()]
            m = strong_nodal_domains(g, f).count
            assert exact[m - 1] <= rec.lam, (gi, rec)
        h = _relabelled(g, rng.permutation(g.n))
        assert exact_multiway_cheeger(h, h.n) == exact, gi
        assert merged_eigenvalues(enumerate_1lap_eigenvalues(h)) \
            == merged_eigenvalues(records), gi
    assert sum(not is_connected(g) for g in graphs) == 1


def test_enumerate_offers_each_ordering_its_possible_zero_positions():
    # when a level net is nonzero, only the zero positions next to the
    # leading negative nets can pin a lambda, and the level-sum screen drops
    # only patterns that pin none; the records must not change
    rng = np.random.default_rng(8)
    graphs = [random_connected_graph(rng, 6, mode) for mode in MU_MODES]
    graphs.append(build_graph(6, [(1, 2, 1.0), (3, 4, 0.5), (4, 5, 2.0)]))
    graphs += [random_connected_graph(rng, 7, "degree"), path_graph(7)]
    for g in graphs:
        assert enumerate_1lap_eigenvalues(g) == enumerate_1lap_every_position(g)


def test_enumerate_at_cap_reverifies():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 6, "degree")
    records = enumerate_1lap_eigenvalues(g)
    for rec in records:
        f = rec.pattern.example_function()
        cert = verify_1lap_eigenpair(g, f, rec.lam)
        assert check_certificate(g, f, rec.lam, cert)
    h2 = multiway_cheeger_all(g, 2)[1][0]
    assert any(float(v) - 1e-12 <= h2 <= float(v) + 1e-12
               for v in merged_eigenvalues(records))


def _cut_test_graphs():
    rng = np.random.default_rng(5)
    graphs = [random_connected_graph(rng, n, mode)
              for n in range(2, 6) for mode in MU_MODES]
    # unit weights tie many level sums, so more patterns reach the cut test
    graphs += [make(n) for n in range(3, 6) for make in (path_graph, _cycle, _complete)]
    graphs.append(build_graph(5, [(1, 2, 1.0), (2, 3, 0.5), (4, 5, 2.0)]))
    return graphs


def test_cut_test_matches_selection_lp():
    # every pattern whose level sums pin a lambda, both twins of each sign
    # flip, decided by the per-level cut test and by the selection LP
    outcomes = set()
    for g in _cut_test_graphs():
        mu, edges = _rational_graph(g)
        int_mu, int_edges = _integer_graph(g)
        for levels, m in ordered_partitions(g.n):
            net, mass = _level_sums(levels, m, int_mu, int_edges)
            for zero_pos in range(2 * m + 1):
                if m == 1 and zero_pos == 1:
                    continue
                pat = OrderPattern(levels=levels, m=m, zero_pos=zero_pos)
                lam = _pinned_lambda(net, mass, pat)
                if lam is None:
                    continue
                cut = _levels_feasible(pat, lam, int_mu, int_edges)
                f = pat.example_function()
                # cubing keeps f's order and zeros and makes its gaps uneven:
                # the verifier must rank levels from any values, not only
                # from the example's
                for vals in (f, [x ** 3 for x in f]):
                    cert = _selection_lp(mu, edges, g.n, vals, lam)
                    assert cert.feasible == cut, (g.edges_u, g.edges_v, pat,
                                                  lam, vals)
                    assert not cut or check_certificate(g, vals, lam, cert)
                outcomes.add(cut)
    # pinned patterns the cut test rejects fail on a proper subset of a level
    assert outcomes == {False, True}


def test_enumerate_solves_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("enumeration called the simplex")

    monkeypatch.setattr(one_laplacian, "lp_solve", no_lp)
    rng = np.random.default_rng(3)
    for g in (path_graph(5, "degree"), _complete(5),
              random_connected_graph(rng, 6, "explicit"),
              build_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])):
        assert enumerate_1lap_eigenvalues(g)


# ---------------------------------------------------------------------------
# the level-sum screen

def test_weak_orderings_match_recursion():
    for n in range(1, 8):
        levels, m = _weak_orderings(n)
        assert list(zip(map(tuple, levels.tolist()), m.tolist())) == \
            ordered_partitions(n)


def test_screen_leaves_near_tie_to_exact_test():
    # the two end levels of f = (-1, 0, 1) on this path have nets -1 and
    # 1 + 2^-52 on unit masses, so their ratios are one float64 step apart;
    # the screen must keep the pattern and the exact test must reject it
    heavy = 1.0 + 2.0 ** -52
    g = build_graph(3, [(1, 2, 1.0), (2, 3, heavy)], mu=[1.0, 1.0, 1.0],
                    mu_mode="explicit")
    mu, edges = _integer_graph(g)
    levels, m = (0, 1, 2), 3
    net, mass = _level_sums(levels, m, mu, edges)
    assert net[0] != -net[2] and float(-net[0]) / mass[0] == pytest.approx(
        float(net[2]) / mass[2], rel=1e-15)
    pat = OrderPattern(levels=levels, m=m, zero_pos=3)
    assert _pinned_lambda(net, mass, pat) is None
    table, ms = _weak_orderings(3)
    row = table.tolist().index(list(levels))
    cand, zero_pos = _screen(table, ms, 2 * ms, mu, edges)
    assert (row, 3) in zip(cand.tolist(), zero_pos.tolist())
    records = enumerate_1lap_eigenvalues(g)
    assert records == enumerate_1lap_every_position(g)
    assert all(r.pattern != pat for r in records)


def test_screen_passes_everything_past_int64():
    # weights and measures whose common scale takes the integer sums far
    # past 2^62; the screen must drop nothing and the records stay exact
    g = build_graph(5, [(1, 2, 1e-300), (2, 3, 1e300), (3, 4, 1.0),
                        (4, 5, 0.3), (1, 5, 2.0)],
                    mu=[1e-300, 1e300, 1.0, 2.0, 0.7], mu_mode="explicit")
    mu, edges = _integer_graph(g)
    assert sum(mu) > 1 << 62
    assert enumerate_1lap_eigenvalues(g) == enumerate_1lap_every_position(g)
