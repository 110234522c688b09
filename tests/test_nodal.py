import dataclasses

import numpy as np
import pytest

from plap import (
    EigenPair,
    build_graph,
    certify_nodal_bounds,
    nodal_space_max_rq,
    path_graph,
    path_spectrum,
    solve_p2_spectrum,
    strong_nodal_domains,
    weak_nodal_domains,
)
from plap.eigensolver import Spectrum
from plap.graph import components
from plap.nodal import multiplicity_groups, nodal_space_normals

from .oracles import decompose_arrays, generalized_zeros, nodal_space_max_rq_fresh
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
    dec = strong_nodal_domains(g, pair.f)
    mx = nodal_space_max_rq(g, pair, dec, nodal_space_normals(0, dec.count))
    assert mx == pytest.approx(0.0, abs=1e-12)


def test_nodal_space_max_rq_p3_pair():
    g = path_graph(3)
    pair = solve_p2_spectrum(g).pairs[1]
    for decompose in (strong_nodal_domains, weak_nodal_domains):
        dec = decompose(g, pair.f)
        mx = nodal_space_max_rq(g, pair, dec, nodal_space_normals(1, dec.count))
        assert mx <= pair.lam + 1e-8
        assert mx == pytest.approx(1.0, abs=1e-8)


def test_nodal_space_p1_equality_for_aligned_signs():
    # the p = 1 nodal-space bound is attained whenever the coefficients of
    # adjacent domains share a sign; the all-ones pattern recovers lambda
    g = path_graph(3, "degree")
    pair = EigenPair(p=1.0, lam=1.0, f=np.array([1.0, -1.0, 1.0]), residual=0.0)
    dec = strong_nodal_domains(g, pair.f)
    mx = nodal_space_max_rq(g, pair, dec, nodal_space_normals(3, dec.count))
    assert mx == pytest.approx(1.0, abs=1e-10)
    assert mx <= pair.lam + 1e-8


def test_nodal_space_rejects_residual_above_limit():
    g = path_graph(3)
    pair = solve_p2_spectrum(g).pairs[1]
    bad = EigenPair(p=2.0, lam=1.0, f=pair.f, residual=1.0)
    with pytest.raises(ValueError, match="residual"):
        nodal_space_max_rq(g, bad, strong_nodal_domains(g, pair.f),
                           nodal_space_normals(0, 2))


def test_shared_samples_match_fresh_draws_per_space():
    # as in `plap certify`, pair i reads stream 5 + i drawn once with as
    # many rows as its largest space has domains, so most spaces read a
    # draw with more rows than they have domains; the random graphs carry
    # functions with zero vertices, whose weak domains differ from the
    # strong ones
    rng = np.random.default_rng(31)
    cases = [(sp.graph, sp.pairs) for sp in
             (path_spectrum(n, p) for n, p in ((5, 1.5), (7, 3.0), (9, 1.1)))]
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(4, 11)))
        pairs = []
        for p in (1.5, 2.0, 3.0):
            f = rng.standard_normal(g.n)
            f[rng.choice(g.n, size=g.n // 3, replace=False)] = 0.0
            pairs.append(EigenPair(p=p, lam=0.0, f=f, residual=0.0))
        cases.append((g, pairs))
    spaces = []
    rows = {}           # stream -> most domains of any space that reads it
    differ = 0
    for g, pairs in cases:
        for i, pair in enumerate(pairs):
            strong = strong_nodal_domains(g, pair.f)
            weak = weak_nodal_domains(g, pair.f)
            differ += weak.domains != strong.domains
            spaces += [(g, i, pair, strong), (g, i, pair, weak)]
            rows[i] = max(rows.get(i, 0), strong.count, weak.count)
    normals = {i: nodal_space_normals(5 + i, m) for i, m in rows.items()}
    longer = 0
    for g, i, pair, dec in spaces:
        want = nodal_space_max_rq_fresh(g, pair, dec, 5 + i)
        assert nodal_space_max_rq(g, pair, dec, normals[i]) == want, (i, dec.kind)
        longer += dec.count < rows[i]
    assert differ and longer


def test_half_pattern_set_matches_every_sign_pattern():
    # one pattern per +- pair gives the float of every +-1 pattern: m = 1,
    # m = 12 (the most domains with patterns) and m = 13 (none)
    cases = []
    for n in (12, 13):
        sp = solve_p2_spectrum(path_graph(n))
        cases += [(sp, 0), (sp, n - 1)]
    sp = path_spectrum(9, 1.5)
    cases += [(sp, i) for i in range(9)]
    counts = set()
    for sp, i in cases:
        for dec in sp.decompositions[i]:
            counts.add(dec.count)
            want = nodal_space_max_rq_fresh(sp.graph, sp.pairs[i], dec, 4 + i)
            normals = nodal_space_normals(4 + i, dec.count)
            assert nodal_space_max_rq(sp.graph, sp.pairs[i], dec, normals) == want
    assert {1, 12, 13} <= counts


def _tiny_pair(scale):
    sp = path_spectrum(6, 3.0)
    pair = sp.pairs[4]
    return sp.graph, dataclasses.replace(pair, f=pair.f * scale), sp.decompositions[4][0]


def test_nodal_space_masks_columns_below_the_floor():
    # at 1e-100 and p = 3 some sampled denominators fall at or under 1e-300,
    # and an unmasked maximum would read one of their quotients
    g, pair, dec = _tiny_pair(1e-100)
    m = dec.count
    basis = np.zeros((g.n, m))
    for i, dom in enumerate(dec.domains):
        idx = [v - 1 for v in dom]
        basis[idx, i] = pair.f[idx]
    patterns = 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1) - 1.0
    alphas = np.concatenate([patterns.T, nodal_space_normals(0, m)], axis=1)
    gmat = basis @ alphas   # the unit path with unit measure
    num = (np.abs(np.diff(gmat, axis=0)) ** 3).sum(axis=0)
    den = (np.abs(gmat) ** 3).sum(axis=0)
    ok = den > 1e-300
    assert 0 < np.count_nonzero(ok) < den.size
    assert np.max(num / den) > np.max(num[ok] / den[ok])
    want = nodal_space_max_rq_fresh(g, pair, dec, 0)
    assert nodal_space_max_rq(g, pair, dec, nodal_space_normals(0, m)) == want


def test_nodal_space_all_columns_underflow_raises():
    g, pair, dec = _tiny_pair(1e-101)
    with pytest.raises(ValueError, match="all sampled combinations were zero"):
        nodal_space_max_rq(g, pair, dec, nodal_space_normals(0, dec.count))


def test_decompositions_match_direct_calls(monkeypatch):
    # the weak decomposition is the strong one relabelled exactly when f has
    # no zero vertex, and computed directly only when it has one
    from plap import nodal
    rng = np.random.default_rng(33)
    weak_calls = []
    weak = nodal.weak_nodal_domains
    monkeypatch.setattr(nodal, "weak_nodal_domains",
                        lambda *a: weak_calls.append(1) or weak(*a))
    with_zero = zero_free = 0
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        fs = []
        for _ in range(3):
            f = rng.standard_normal(g.n)
            if rng.random() < 0.5:
                f[rng.choice(g.n, size=max(1, g.n // 3), replace=False)] = 0.0
            fs.append(f)
        pairs = tuple(EigenPair(p=1.5, lam=0.0, f=f, residual=0.0) for f in fs)
        sp = Spectrum(graph=g, p=1.5, pairs=pairs, method="continuation")
        before = len(weak_calls)
        got = sp.decompositions
        zeros = sum(bool(np.any(f == 0.0)) for f in fs)
        assert len(weak_calls) - before == zeros
        with_zero += zeros
        zero_free += len(fs) - zeros
        for f, (s, w) in zip(fs, got):
            assert s == strong_nodal_domains(g, f)
            assert w == weak(g, f)
    assert with_zero and zero_free


def test_decompose_matches_array_masks_at_the_threshold():
    # entries at, one ulp off and a rounding off the zero threshold
    # 1e-9 max|f|, and signed zeros, decide the masks
    rng = np.random.default_rng(32)
    for _ in range(300):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        f = rng.standard_normal(g.n) * 10.0 ** rng.uniform(-3, 3)
        top = np.max(np.abs(f))
        tol = 1e-9 * top
        near = [tol, -tol, np.nextafter(tol, 0), np.nextafter(tol, np.inf),
                -np.nextafter(tol, np.inf), tol * (1 + 1e-15), 0.0, -0.0]
        for v in rng.choice(g.n, size=int(rng.integers(0, g.n)), replace=False):
            if abs(f[v]) != top:
                f[v] = near[int(rng.integers(len(near)))]
        for strict, decompose in ((True, strong_nodal_domains),
                                  (False, weak_nodal_domains)):
            assert decompose(g, f) == decompose_arrays(g, f, strict)
            assert decompose(g, list(f)) == decompose_arrays(g, f, strict)
    g = path_graph(3)
    for decompose in (strong_nodal_domains, weak_nodal_domains):
        with pytest.raises(ValueError, match="finite"):
            decompose(g, [1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="shape"):
            decompose(g, [1.0, 0.0])


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
