import numpy as np
import pytest

from plap import (
    EigenPair,
    build_graph,
    certify_nodal_bounds,
    generalized_zeros,
    nodal_space_max_rq,
    path_graph,
    path_spectrum,
    solve_p2_spectrum,
    strong_nodal_domains,
    weak_nodal_domains,
)
from plap.eigensolver import Spectrum
from plap.graph import components
from plap.nodal import multiplicity_groups

from .util import random_connected_graph


def test_strong_domains_p3():
    g = path_graph(3)
    dec = strong_nodal_domains(g, [1.0, -1.0, 1.0])
    assert dec.domains == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert dec.signs == ("+", "-", "+")
    dec = strong_nodal_domains(g, [1.0, 0.0, -1.0])
    assert dec.domains == (frozenset({1}), frozenset({3}))
    assert dec.zero_set == frozenset({2})


def test_strong_domains_constant():
    g = path_graph(4)
    dec = strong_nodal_domains(g, np.full(4, 0.3))
    assert dec.count == 1 and dec.domains[0] == frozenset({1, 2, 3, 4})


def test_weak_domains_p3():
    g = path_graph(3)
    dec = weak_nodal_domains(g, [1.0, 0.0, -1.0])
    assert dec.domains == (frozenset({1, 2}), frozenset({2, 3}))
    assert weak_nodal_domains(g, [1.0, -1.0, 1.0]).count == 3
    assert weak_nodal_domains(g, np.ones(3)).count == 1


def test_weak_domain_zero_component_counted_once():
    g = build_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    dec = weak_nodal_domains(g, [0.0, 0.0, 1.0, -1.0])
    assert dec.count == 3
    assert frozenset({1, 2}) in dec.domains


def test_zero_tolerance_classification():
    g = path_graph(3)
    noisy = [1.0, 1e-12, -1.0]
    assert strong_nodal_domains(g, noisy).count == 2
    assert weak_nodal_domains(g, noisy).count == 2


def test_generalized_zeros_examples():
    g = path_graph(3)
    assert generalized_zeros(g, [1.0, -1.0, 1.0]) == [(1, 2), (2, 3)]
    assert generalized_zeros(g, [1.0, 0.0, -1.0]) == [(1, 2)]
    assert generalized_zeros(g, np.ones(3)) == []
    star = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
    with pytest.raises(ValueError, match="path"):
        generalized_zeros(star, [1.0, 0.0, -1.0])


def test_nodal_space_max_rq_constant_pair():
    g = path_graph(4)
    pair = solve_p2_spectrum(g).pairs[0]
    assert nodal_space_max_rq(g, pair, "strong", sample_count=50) == pytest.approx(0.0, abs=1e-12)


def test_nodal_space_max_rq_p3_pair():
    g = path_graph(3)
    pair = solve_p2_spectrum(g).pairs[1]
    for kind in ("strong", "weak"):
        mx = nodal_space_max_rq(g, pair, kind, sample_count=500, seed=1)
        assert mx <= pair.lam + 1e-8
        assert mx == pytest.approx(1.0, abs=1e-8)


def test_nodal_space_p1_equality_for_aligned_signs():
    # the p = 1 nodal-space bound is attained whenever the coefficients of
    # adjacent domains share a sign; the all-ones pattern recovers lambda
    g = path_graph(3, "degree")
    pair = EigenPair(p=1.0, lam=1.0, f=np.array([1.0, -1.0, 1.0]), residual=0.0)
    mx = nodal_space_max_rq(g, pair, "strong", sample_count=400, seed=3)
    assert mx == pytest.approx(1.0, abs=1e-10)
    assert mx <= pair.lam + 1e-8


def test_nodal_space_rejects_bad_kind_and_residual():
    g = path_graph(3)
    pair = solve_p2_spectrum(g).pairs[1]
    with pytest.raises(ValueError):
        nodal_space_max_rq(g, pair, "weird")
    bad = EigenPair(p=2.0, lam=1.0, f=pair.f, residual=1.0)
    with pytest.raises(ValueError, match="residual"):
        nodal_space_max_rq(g, bad, "strong")


def test_multiplicity_groups():
    assert multiplicity_groups([0.0, 1.0, 1.0 + 1e-9, 3.0]) == [[0], [1, 2], [3]]
    assert multiplicity_groups([0.0, 1.0, 2.0]) == [[0], [1], [2]]


def test_certify_path_spectra_exact_counts():
    sp = path_spectrum(5, 2.5)
    report = certify_nodal_bounds(sp)
    assert report.all_pass
    for check in report.checks:
        assert check.strong_count == check.k
        assert check.weak_count == check.k


def test_certify_second_eigenfunction_two_weak_domains():
    rng = np.random.default_rng(21)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        report = certify_nodal_bounds(solve_p2_spectrum(g))
        assert report.all_pass
        assert report.checks[1].weak_count == 2


def test_certify_p1_weak_bound_relaxation():
    # at p = 1 the second eigenvalue of the 3-path (degree measure) has
    # multiplicity 2 and the alternating eigenfunction attains 3 weak
    # domains: within k + r - 1 = 3 but beyond the p > 1 bound of k = 2
    g = path_graph(3, "degree")
    alternating = np.array([1.0, -1.0, 1.0])
    pairs = (
        EigenPair(p=1.0, lam=0.0, f=np.ones(3), residual=0.0),
        EigenPair(p=1.0, lam=1.0, f=alternating, residual=0.0),
        EigenPair(p=1.0, lam=1.0, f=np.array([1.0, 0.0, -1.0]), residual=0.0),
    )
    sp = Spectrum(graph=g, p=1.0, pairs=pairs, method="exact_p1")
    report = certify_nodal_bounds(sp)
    assert report.all_pass
    second = report.checks[1]
    assert second.multiplicity == 2
    assert second.weak_count == 3 and second.weak_bound == 3
    assert second.weak_count > 2  # the p > 1 bound would fail here


def test_certify_flags_violations_not_raises():
    # a non-eigenfunction stuffed into a spectrum shows up as a failed check
    g = path_graph(4)
    base = solve_p2_spectrum(g)
    fake = EigenPair(p=2.0, lam=base.lams[1], f=np.array([1.0, -1.0, 1.0, -1.0]),
                     residual=0.0)
    sp = Spectrum(graph=g, p=2.0,
                  pairs=(base.pairs[0], fake, base.pairs[2], base.pairs[3]),
                  method="dense_p2")
    report = certify_nodal_bounds(sp)
    assert not report.all_pass
    assert not report.checks[1].passed


def test_decomposition_structural_invariants():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 10)))
        f = rng.standard_normal(g.n)
        strong = strong_nodal_domains(g, f)
        weak = weak_nodal_domains(g, f)
        support = {u + 1 for u in range(g.n)} - strong.zero_set
        covered = set()
        for dom in strong.domains:
            assert not covered & dom
            covered |= dom
        assert covered == support
        assert set().union(*weak.domains) == set(range(1, g.n + 1))
        # every reported domain induces a connected subgraph
        for dec in (strong, weak):
            for dom in dec.domains:
                member = np.zeros(g.n, dtype=bool)
                member[[v - 1 for v in dom]] = True
                assert len(components(g, member)) == 1


def test_adjacent_strong_domains_have_opposite_signs():
    rng = np.random.default_rng(78)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 10)))
        f = rng.standard_normal(g.n)
        dec = strong_nodal_domains(g, f)
        sign_of = {}
        for dom, s in zip(dec.domains, dec.signs):
            for v in dom:
                sign_of[v] = s
        for u, v in zip(g.edges_u + 1, g.edges_v + 1):
            if u in sign_of and v in sign_of:
                du = next(d for d in dec.domains if u in d)
                dv = next(d for d in dec.domains if v in d)
                if du is not dv:
                    assert sign_of[u] != sign_of[v]


def test_path_eigenfunction_zero_entries_bounded():
    for n, p in ((5, 1.5), (7, 1.2), (6, 3.0)):
        sp = path_spectrum(n, p)
        for k, pair in enumerate(sp.pairs, 1):
            dec = strong_nodal_domains(sp.graph, pair.f)
            assert len(dec.zero_set) <= k - 1
