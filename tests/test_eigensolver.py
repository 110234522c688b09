import numpy as np
import pytest

from plap import (
    BracketError,
    continue_in_p,
    eigen_residual,
    indicator_span_upper_bound,
    path_graph,
    path_shoot,
    path_spectrum,
    rayleigh_quotient,
    solve_p2_spectrum,
    variational_spectrum,
)
from plap import (
    build_graph,
    certify_cheeger,
    certify_nodal_bounds,
    multiway_cheeger_all,
)
from plap import eigensolver, kernels
from plap.eigensolver import (
    NEWTON_TOL,
    PATH_RESIDUAL_TOL,
    _shot,
    _DirectForm,
    _same_pair,
    solve_from_guess,
)

from .oracles import (
    charpoly_roots,
    p2_path_eigenvalues,
    path_p2_charpoly,
    path_spectrum_bisection,
)
from .util import random_connected_graph


def test_p2_matches_closed_form():
    for n in range(3, 11):
        sp = solve_p2_spectrum(path_graph(n))
        assert np.allclose(sp.lams, p2_path_eigenvalues(n), atol=1e-9)
        assert all(pair.residual <= 1e-10 for pair in sp.pairs)


def test_closed_form_against_charpoly_roots():
    roots = charpoly_roots(path_p2_charpoly(4))
    assert np.allclose(roots, p2_path_eigenvalues(4), atol=1e-9)


def test_p2_constant_first_eigenfunction():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 7)
    sp = solve_p2_spectrum(g)
    assert sp.lams[0] == pytest.approx(0.0, abs=1e-10)
    f1 = sp.pairs[0].f
    assert np.max(np.abs(f1 - np.mean(f1))) <= 1e-10


def test_p2_disconnected_warns():
    g = build_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    with pytest.warns(UserWarning, match="disconnected"):
        sp = solve_p2_spectrum(g)
    assert sp.lams[1] == pytest.approx(0.0, abs=1e-12)


def test_p2_generalized_orthonormality():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 8, mu_mode="explicit")
    sp = solve_p2_spectrum(g)
    mat = np.stack([pair.f for pair in sp.pairs], axis=1)
    gram = mat.T @ (g.mu[:, None] * mat)
    assert np.allclose(gram, np.eye(8), atol=1e-10)


# ---------------------------------------------------------------------------
# continuation

def test_zero_length_homotopy_returns_seed():
    g = path_graph(3)
    seed = solve_p2_spectrum(g).pairs[1]
    assert continue_in_p(g, seed, 2.0) is seed


def test_constant_branch_is_p_independent():
    g = path_graph(4)
    seed = solve_p2_spectrum(g).pairs[0]
    for pt in (1.2, 3.0):
        pair = continue_in_p(g, seed, pt)
        assert pair.lam == 0.0
        assert np.max(np.abs(pair.f - pair.f[0])) <= 1e-14
        assert pair.residual <= 1e-12


def test_continuation_matches_path_shooting():
    for n, p in ((4, 1.5), (5, 1.2), (5, 3.0), (6, 1.1)):
        sp = variational_spectrum(path_graph(n), p)
        ps = path_spectrum(n, p)
        assert np.allclose(sp.lams, ps.lams, atol=1e-8), (n, p)


def test_continuation_seed_residual_precondition():
    g = path_graph(3)
    seed = solve_p2_spectrum(g).pairs[1]
    bad = type(seed)(p=2.0, lam=seed.lam + 0.5, f=seed.f, residual=0.5)
    with pytest.raises(ValueError, match="seed residual"):
        continue_in_p(g, bad, 1.5)


def test_continuation_step_doubling_stable(monkeypatch):
    # on these graphs halving or doubling the grid moves no reported
    # eigenvalue, so the grid is a constant rather than a setting
    graphs = [path_graph(3),
              random_connected_graph(np.random.default_rng(1000), 5)]
    for g in graphs:
        for p in (1.5, 3.0):
            ref = variational_spectrum(g, p).lams
            for steps in (8, 32):
                monkeypatch.setattr(eigensolver, "CONTINUATION_STEPS", steps)
                lams = variational_spectrum(g, p).lams
                monkeypatch.undo()
                assert np.allclose(lams, ref, rtol=0.0, atol=1e-8), (g, p, steps)


def test_continuation_below_min_p_warns():
    g = path_graph(3)
    seed = solve_p2_spectrum(g).pairs[1]
    with pytest.warns(UserWarning, match="curvature degenerates"):
        continue_in_p(g, seed, 1.03)


def test_halved_step_across_p2_keeps_its_form():
    # continuing back from p = 3 to 1.3 halves a flux-form grid step whose
    # midpoint can lie at p >= 2; both halves must stay in the flux form
    rng = np.random.default_rng(16)
    g = random_connected_graph(rng, rng.integers(4, 7))
    seed = solve_p2_spectrum(g).pairs[3]
    pair = continue_in_p(g, continue_in_p(g, seed, 3.0), 1.3)
    assert pair.residual <= 1e-9
    assert pair.lam == pytest.approx(3.5755748892515187, rel=1e-12)


def test_solve_from_guess_recovers_continued_pairs_in_both_forms():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 6)
    base = solve_p2_spectrum(g)
    for p in (1.5, 3.0):  # flux form, direct form
        for seed in base.pairs[1:]:
            pair = continue_in_p(g, seed, p)
            f0 = pair.f + 1e-2 * rng.standard_normal(g.n)
            got = solve_from_guess(g, f0, p)
            assert got is not None and _same_pair(got, pair), (p, seed.lam)
            assert got.lam == pytest.approx(pair.lam, abs=1e-9)
        assert solve_from_guess(g, np.zeros(g.n), p) is None


def _drawn_graph(seed, index, lo, hi):
    # the index-th graph of a sequence drawn like the acceptance tests' sets
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        g = random_connected_graph(rng, int(rng.integers(lo, hi)))
    return g


# (graph, lams, strong counts, weak counts); None marks a pair inside a
# multiplicity group, whose counts depend on the basis
P3_CUSP_CASES = {
    "0/5": (lambda: random_connected_graph(np.random.default_rng(0), 5),
            [0.0, 0.3864091364313761, 1.0, 2.8959615120748836, 4.0],
            [1, 2, 2, 4, 5], [1, 2, 2, 4, 5]),
    "20/5": (lambda: random_connected_graph(np.random.default_rng(20), 5),
             [0.0, 0.33571847977479885, 1.0, 3.249316873004937,
              3.6467337018581643],
             [1, 2, 3, 4, 4], [1, 2, 2, 4, 4]),
    "36/4": (lambda: random_connected_graph(np.random.default_rng(36), 4),
             [0.0, 1.0, 1.0, 4.0],
             [1, None, None, 4], [1, None, None, 4]),
    "78/6": (lambda: random_connected_graph(np.random.default_rng(78), 6),
             [0.0, 0.18294835711985535, 1.0, 1.0, 3.221009767784676,
              3.999999999999999],
             [1, 2, None, None, 5, 6], [1, 2, None, None, 5, 6]),
    "criterion-3 #21": (lambda: _drawn_graph(12345, 21, 3, 10),
                        [0.0, 0.2844849858500937, 0.8075678441673974, 1.0,
                         1.6102941477957713, 3.345424926165922,
                         3.82628887810017],
                        [1, 2, 2, 3, 4, 6, 6], [1, 2, 2, 2, 4, 6, 6]),
    "criterion-7 #9": (lambda: _drawn_graph(4242, 4, 3, 11),
                       [0.0, 0.44462836185898064, 1.0, 2.571281356326001, 4.0],
                       [1, 2, 2, 4, 5], [1, 2, 2, 4, 5]),
}


@pytest.mark.parametrize("case", list(P3_CUSP_CASES))
def test_p3_cusp_entries_are_exact_zeros_and_fix_the_counts(case):
    # degree-measure graphs whose p = 3 eigenfunctions vanish on clusters of
    # vertices; Newton leaves those entries anywhere up to about 1e-6 of the
    # largest, above the nodal zero threshold, unless they end as exact zeros
    make, lams, strong, weak = P3_CUSP_CASES[case]
    g = make()
    sp = variational_spectrum(g, 3.0)
    assert sp.lams == pytest.approx(lams, rel=1e-12, abs=0.0)
    for pair in sp.pairs:
        small = np.abs(pair.f) < 1e-6 * np.max(np.abs(pair.f))
        assert np.all(pair.f[small] == 0.0)
    nod = certify_nodal_bounds(sp)
    assert nod.all_pass
    for c, s, w in zip(nod.checks, strong, weak):
        if s is not None:
            assert c.multiplicity == 1
            assert (c.strong_count, c.weak_count) == (s, w)
    assert all(c.passed for c in certify_cheeger(sp))


def test_direct_form_finish_zeroes_only_unresolved_entries():
    # vertices 2 and 3 of this lambda = 1 pair have only zero neighbours, so
    # entries of 1e-9 there move the p = 3 residual by about 1e-18
    g = _drawn_graph(4242, 4, 3, 11)
    pair = variational_spectrum(g, 3.0).pairs[2]
    assert list(pair.f[:3]) == [0.0, 0.0, 0.0]
    f = pair.f.copy()
    f[1:3] = (1e-9, -2.5e-10)
    got, res = _DirectForm(g).finish(np.append(f, pair.lam), pair.lam, 3.0)
    assert list(got[:3]) == [0.0, 0.0, 0.0] and res <= NEWTON_TOL
    assert got == pytest.approx(pair.f, rel=1e-14)
    # the middle entry of this path's lambda ~ 1 pair is about -2e-9 and
    # resolved: zeroing it would move the neighbours' rows by about 3e-9
    g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0 + 1e-8)])
    pair = variational_spectrum(g, 3.0).pairs[1]
    assert pair.f[1] == pytest.approx(-1.98425e-9, rel=1e-4)
    got, _ = _DirectForm(g).finish(np.append(pair.f, pair.lam), pair.lam, 3.0)
    assert got[1] != 0.0 and got == pytest.approx(pair.f, rel=1e-14)


def _sign_seeds(g):
    """The indicator sign patterns of the repair pass, last subset negative."""
    for _, fam in multiway_cheeger_all(g, g.n)[1:]:
        for m in range(1 << (len(fam) - 1)):
            f0 = np.zeros(g.n)
            for j, subset in enumerate(fam):
                f0[[v - 1 for v in subset]] = 1.0 if (m >> j) & 1 else -1.0
            yield f0


@pytest.mark.parametrize("seed, n, mu_mode", [
    (24, 4, None), (0, 3, "degree"), (7, 4, "explicit")])
def test_solve_from_guess_is_odd_in_its_start(seed, n, mu_mode):
    # the repair pass starts each sign pattern once because of this
    g = random_connected_graph(np.random.default_rng(seed), n, mu_mode)
    for f0 in _sign_seeds(g):
        for p in (1.1, 1.5, 3.0):
            a, b = solve_from_guess(g, f0, p), solve_from_guess(g, -f0, p)
            if a is None or b is None:
                assert a is None and b is None
                continue
            assert (a.lam, a.residual) == (b.lam, b.residual)
            assert a.f.tobytes() == b.f.tobytes()


def test_repair_reports_the_lowest_pairs_from_distinct_starts(monkeypatch):
    from plap import eigensolver
    g = random_connected_graph(np.random.default_rng(24), 4)
    continued, starts, found = [], [], []
    cont, solve = eigensolver._continue_with_diag, eigensolver.solve_from_guess

    def continue_recorded(*args):
        out = cont(*args)
        continued.append(out[0])
        return out

    def solve_recorded(g, f0, p):
        starts.append(f0.copy())
        found.append(solve(g, f0, p))
        return found[-1]

    monkeypatch.setattr(eigensolver, "_continue_with_diag", continue_recorded)
    monkeypatch.setattr(eigensolver, "solve_from_guess", solve_recorded)
    sp = variational_spectrum(g, 1.1)
    # no start repeats an earlier one or its negation
    for i, f0 in enumerate(starts):
        assert not any(np.array_equal(f0, t) or np.array_equal(f0, -t)
                       for t in starts[:i]), i
    assert sp.lams == pytest.approx(
        [0.0, 2.302299302072836, 2.811835482942288, 2.845443892768848],
        rel=1e-12)
    assert sp.notes == ("6 extra eigenpairs found during repair; "
                        "kept the best certified selection",)
    pool = list(continued)
    for pair in found:
        if (pair is not None and pair.lam > 1e-10
                and not any(_same_pair(pair, pr) for pr in pool)):
            pool.append(pair)
    assert len(pool) == g.n + 6
    lowest = sorted(pool, key=lambda pr: pr.lam)[:g.n]
    assert all(a is b for a, b in zip(sp.pairs, lowest))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_disconnected_graph_keeps_every_zero_pair(p):
    # two disjoint triangles: one zero eigenvalue per component
    edges = [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0),
             (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0)]
    with pytest.warns(UserWarning, match="disconnected"):
        sp = variational_spectrum(build_graph(6, edges), p)
    assert len(sp.pairs) == 6
    assert sp.lams[:2] == [0.0, 0.0] and min(sp.lams[2:]) > 0.0


def test_variational_spectrum_p2_is_dense():
    g = path_graph(5)
    sp = variational_spectrum(g, 2.0)
    assert sp.method == "dense_p2"


def test_variational_spectrum_sandwich_on_p4():
    g = path_graph(4)
    sp = variational_spectrum(g, 1.5)
    certs = certify_cheeger(sp)
    assert all(c.passed for c in certs)


def test_variational_residuals_and_rayleigh_consistency():
    rng = np.random.default_rng(9)
    for p in (1.5, 3.0):
        g = random_connected_graph(rng, 7)
        sp = variational_spectrum(g, p)
        for pair in sp.pairs:
            assert pair.residual <= 1e-9
            r = rayleigh_quotient(g, pair.f, p)
            assert r == pytest.approx(pair.lam, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# indicator span upper bound

def test_indicator_span_bound_values():
    g4 = path_graph(4)
    assert indicator_span_upper_bound(g4, 2.0, [{1, 2}, {3, 4}]) == pytest.approx(1.0)
    assert indicator_span_upper_bound(g4, 2.0, [set(range(1, 5))]) == pytest.approx(0.0)
    g3 = path_graph(3)
    assert indicator_span_upper_bound(g3, 2.0, [{1}, {2}, {3}]) == pytest.approx(4.0)


def test_indicator_span_bound_dominates_spectrum():
    g = path_graph(4)
    bound = indicator_span_upper_bound(g, 2.0, [{1, 2}, {3, 4}])
    assert solve_p2_spectrum(g).lams[1] <= bound + 1e-12


def test_indicator_span_bound_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        indicator_span_upper_bound(path_graph(4), 2.0, [{1, 2}, {2, 3}])


# ---------------------------------------------------------------------------
# path shooting

def test_shoot_lambda_zero_constant():
    tr = path_shoot(5, 2.0, 0.0)
    assert np.allclose(tr.f, 1.0)
    assert tr.zero_count == 0 and tr.boundary_defect == 0.0


def test_shoot_p2_hand_values():
    tr = path_shoot(3, 2.0, 1.0)
    assert np.allclose(tr.f, [1.0, 0.0, -1.0])
    assert tr.zero_count == 1 and tr.boundary_defect == pytest.approx(0.0)
    tr = path_shoot(3, 2.0, 3.0)
    assert np.allclose(tr.f, [1.0, -2.0, 1.0])
    assert tr.zero_count == 2 and tr.boundary_defect == pytest.approx(0.0)


def test_shoot_validation():
    with pytest.raises(ValueError):
        path_shoot(1, 2.0, 1.0)
    with pytest.raises(ValueError):
        path_shoot(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        path_shoot(3, 2.0, -0.5)


def test_shoot_zero_count_nondecreasing():
    lams = np.linspace(0.0, 4.2, 400)
    counts = [path_shoot(6, 2.0, float(m)).zero_count for m in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_below_counts_closed_form_eigenvalues_at_p2():
    grid = np.linspace(0.0, 4.5, 901)
    for n in range(2, 13):
        eigs = np.array(p2_path_eigenvalues(n))
        for lam in grid:
            if np.min(np.abs(eigs - lam)) <= 1e-9:
                continue
            assert _shot(n, 2.0, float(lam))[0] == int(np.sum(eigs < lam)), (n, lam)


@pytest.mark.parametrize("p", [1.05, 3.0])
def test_below_nondecreasing(p):
    grid = np.linspace(0.0, 2.0 ** p + 1.0, 3001)
    for n in range(2, 16):
        counts = [_shot(n, p, float(lam))[0] for lam in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:])), n
        assert counts[0] == 0 and counts[-1] == n, n


def test_path_spectrum_matches_dense_at_p2():
    for n in range(3, 11):
        ps = path_spectrum(n, 2.0)
        dense = solve_p2_spectrum(path_graph(n))
        assert np.allclose(ps.lams, dense.lams, atol=1e-8)
        for a, b in zip(ps.pairs, dense.pairs):
            assert np.allclose(a.f, b.f, atol=1e-6)


def test_path_spectrum_structure_p_not_2():
    for n, p in ((5, 1.5), (5, 3.0), (4, 1.2)):
        sp = path_spectrum(n, p)
        lams = sp.lams
        assert all(b > a for a, b in zip(lams, lams[1:]))
        for k, (pair, diag) in enumerate(zip(sp.pairs, sp.diagnostics), 1):
            assert diag["zero_count"] == k - 1
            assert pair.residual <= 1e-10
            assert pair.f[0] != 0.0 and pair.f[-1] != 0.0
            g = path_graph(n)
            assert rayleigh_quotient(g, pair.f, p) == pytest.approx(
                pair.lam, rel=1e-9, abs=1e-12)


def test_path_spectrum_mirrors_ill_conditioned_pairs():
    # at p = 1.1 the shots for k = 7 on n = 11 and k = 8 on n = 13 end above
    # 1e-8 off the boundary equation; the mirrored left half of each shot
    # satisfies every equation
    for n, k in ((11, 7), (13, 8)):
        sp = path_spectrum(n, 1.1)
        assert all(pair.residual <= PATH_RESIDUAL_TOL for pair in sp.pairs)
        pair = sp.pairs[k - 1]
        assert eigen_residual(path_graph(n), pair.f, pair.lam, 1.1) <= PATH_RESIDUAL_TOL


@pytest.mark.parametrize("n, p", [(7, 1.05), (8, 1.05), (10, 1.05),
                                  (11, 1.05), (13, 1.05), (7, 1.08),
                                  (10, 1.08), (13, 1.08)])
def test_path_spectrum_near_p1(n, p):
    # each of these ended in "no defect sign change" under bisection of the
    # defect inside count level sets
    sp = path_spectrum(n, p)
    assert len(sp.pairs) == n
    assert all(pair.residual <= 1e-9 for pair in sp.pairs)
    assert [d["zero_count"] for d in sp.diagnostics] == list(range(n))
    assert all(b > a for a, b in zip(sp.lams, sp.lams[1:]))


def _spectrum_or_error(solve, n, p):
    try:
        return solve(n, p)
    except BracketError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 2.0, 2.2, 3.0, 3.5, 4.0])
def test_path_spectrum_matches_shot_by_shot_bisection(p):
    # the grid holds paths where the count flips across adjacent floats
    # next to lambda_k (n = 7 and 9 at p = 3.5, n = 4 and 7 at p = 4), where
    # a search that trusts a band narrower than the flips lands 1-2 ulps off
    for n in range(2, 17):
        want = _spectrum_or_error(path_spectrum_bisection, n, p)
        got = _spectrum_or_error(path_spectrum, n, p)
        if isinstance(want, str):
            assert got == want, (n, p)
            continue
        assert [pr.lam for pr in got.pairs] == [pr.lam for pr in want.pairs], (n, p)
        assert [pr.residual for pr in got.pairs] == [pr.residual for pr in want.pairs]
        for a, b in zip(got.pairs, want.pairs):
            assert np.array_equal(a.f, b.f), (n, p)
        assert got.diagnostics == want.diagnostics, (n, p)
        assert got.notes == want.notes, (n, p)


def test_path_spectrum_shot_budget(monkeypatch):
    # shooting every bisection midpoint took 396-413 shots here
    calls = []
    shoot = kernels.path_shoot_core
    monkeypatch.setattr(kernels, "path_shoot_core",
                        lambda *a: calls.append(1) or shoot(*a))
    for p in (1.1, 1.5, 3.0):
        calls.clear()
        path_spectrum(8, p)
        assert len(calls) <= 250, (p, len(calls))


def test_path_spectrum_non_finite_shot_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BracketError) as exc:
            path_spectrum(200, 1.1)
        assert str(exc.value) == _spectrum_or_error(path_spectrum_bisection, 200, 1.1)


def test_path_spectrum_validation():
    with pytest.raises(ValueError):
        path_spectrum(1, 2.0)
    with pytest.raises(ValueError):
        path_spectrum(4, 1.0)


def test_variational_p3_second_pair_two_weak_domains():
    from plap import weak_nodal_domains
    g = path_graph(3)
    sp = variational_spectrum(g, 1.5)
    assert sp.lams[1] == pytest.approx(1.0, abs=1e-9)
    assert weak_nodal_domains(g, sp.pairs[1].f).count == 2
