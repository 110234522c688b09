import numpy as np
import pytest

from plap import (
    build_graph,
    certify_cheeger,
    cut_ratio,
    multiway_cheeger_all,
    path_graph,
    rayleigh_quotient,
    solve_p2_spectrum,
    sweep_bound,
    sweep_cut,
    tau,
    variational_spectrum,
)
from plap import cheeger, kernels
from plap.cheeger import ExactCapExceeded, multiway_cheeger_greedy

from .oracles import (
    naive_multiway,
    reconstruct_family_loop,
    subset_key,
    validate_family,
)
from .util import MU_MODES, random_connected_graph, random_vertex_function


def test_cut_ratio_values():
    g4 = path_graph(4)
    assert cut_ratio(g4, {1, 2}) == pytest.approx(0.5)
    assert cut_ratio(g4, range(1, 5)) == 0.0
    assert cut_ratio(path_graph(3), {2}) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        cut_ratio(g4, set())


def test_multiway_p4_values_and_families():
    g = path_graph(4)
    h1, fam1 = multiway_cheeger_all(g, 1)[0]
    assert h1 == 0.0 and fam1 == (frozenset({1, 2, 3, 4}),)
    h2, fam2 = multiway_cheeger_all(g, 2)[1]
    assert h2 == pytest.approx(0.5)
    assert fam2 == (frozenset({1, 2}), frozenset({3, 4}))
    h3, _ = multiway_cheeger_all(g, 3)[2]
    assert h3 == pytest.approx(1.0)
    h4, fam4 = multiway_cheeger_all(g, 4)[3]
    assert h4 == pytest.approx(2.0)
    assert fam4 == tuple(frozenset({v}) for v in range(1, 5))


def test_multiway_monotone_in_k():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        hs = [h for h, _ in multiway_cheeger_all(g)]
        assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))


def test_multiway_matches_naive_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n)
        fast = [h for h, _ in multiway_cheeger_all(g)]
        assert np.allclose(fast, naive_multiway(g, n), atol=1e-12)


def test_multiway_family_achieves_value():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 8)
    for k in (2, 3, 5):
        h, fam = multiway_cheeger_all(g, k)[k - 1]
        validate_family(g, fam)
        assert len(fam) == k
        assert max(cut_ratio(g, a) for a in fam) == pytest.approx(h)


def test_multiway_deterministic_tie_break():
    # a 4-cycle has many optimal 2-families; the reported one is the
    # lexicographically smallest
    g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
    h, fam = multiway_cheeger_all(g, 2)[1]
    assert h == pytest.approx(1.0)
    assert fam == (frozenset({1, 2}), frozenset({3, 4}))


def test_reconstruction_matches_submask_walk():
    cycle4 = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
    k5 = build_graph(5, [(u, v, 1.0) for u in range(1, 6) for v in range(u + 1, 6)])
    graphs = [cycle4, k5]
    rng = np.random.default_rng(41)
    for n in (5, 6, 7, 8, 9):
        w = random_connected_graph(rng, n, mu_mode="unit")
        edges = [(int(u) + 1, int(v) + 1, 1.0) for u, v in zip(w.edges_u, w.edges_v)]
        graphs.append(build_graph(n, edges))
    # unit weights under the degree measure or a two-valued explicit one
    # leave many optimal families tied
    rng = np.random.default_rng(43)
    for n in (5, 6, 7, 8, 9):
        for mu_mode in ("degree", "explicit"):
            w = random_connected_graph(rng, n, mu_mode="unit")
            edges = [(int(u) + 1, int(v) + 1, 1.0) for u, v in zip(w.edges_u, w.edges_v)]
            mu = rng.choice([1.0, 2.0], n) if mu_mode == "explicit" else None
            graphs.append(build_graph(n, edges, mu=mu, mu_mode=mu_mode))
    # n = 12 splits every mask into high and low bits (L = 9)
    rng = np.random.default_rng(53)
    for mu_mode in MU_MODES:
        w = random_connected_graph(rng, 12, mu_mode="unit")
        edges = [(int(u) + 1, int(v) + 1, 1.0) for u, v in zip(w.edges_u, w.edges_v)]
        mu = rng.choice([1.0, 2.0], 12) if mu_mode == "explicit" else None
        graphs.append(build_graph(12, edges, mu=mu, mu_mode=mu_mode))
    for g in graphs:
        ratio = cheeger._ratio_table(g)
        dp = kernels.family_minmax_dp(ratio, g.n)
        rank = cheeger._subset_rank(g.n)
        for k in range(1, g.n + 1):
            assert (cheeger._reconstruct_family(ratio, dp, k, g.n, rank)
                    == reconstruct_family_loop(ratio, dp, k, g.n)), (g.n, g.mu_mode, k)


# (h_k, optimal family as vertex masks) for k = 1..n, recorded from the
# unpruned recursion and submask-walk reconstruction
RECORDED_N12 = [
    (0.0, [4095]),
    (0.2727272727272727, [869, 3226]),
    (0.5, [1159, 2104, 832]),
    (0.6, [2181, 1026, 56, 832]),
    (0.6666666666666666, [1027, 2308, 40, 144, 576]),
    (0.7777777777777778, [3, 68, 40, 144, 768, 3072]),
    (1.0, [1, 2, 4, 8, 16, 32, 64]),
    (1.0, [1, 2, 4, 8, 16, 32, 64, 128]),
    (1.0, [1, 2, 4, 8, 16, 32, 64, 128, 256]),
    (1.0, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]),
    (1.0, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    (1.0, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]),
]
RECORDED_N13 = [
    (0.0, [8191]),
    (0.38162379454475365, [3839, 4352]),
    (0.6619084346031294, [2687, 1152, 4352]),
    (1.0128061543204696, [43, 3668, 128, 4352]),
    (1.3228309205135242, [59, 3652, 128, 256, 4096]),
    (1.7147799979781102, [33, 1566, 2112, 128, 256, 4096]),
    (1.9051336977862776, [1, 2078, 1568, 64, 128, 256, 4096]),
    (2.184943368834815, [1, 10, 2068, 1568, 64, 128, 256, 4096]),
    (2.718333343302889, [1, 10, 2068, 544, 64, 128, 256, 1024, 4096]),
    (3.250352776418677, [1, 10, 516, 2064, 32, 64, 128, 256, 1024, 4096]),
    (3.8387878630463734, [1, 2, 20, 8, 32, 64, 128, 256, 1536, 2048, 4096]),
    (4.606923122139677, [1, 2, 4, 8, 48, 64, 128, 256, 512, 1024, 2048, 4096]),
    (5.460887139201354, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]),
]


def test_multiway_matches_recorded_values_past_the_loop_oracle():
    # `family_dp_loop` takes seconds at these sizes; ties on the unit-weight
    # graph under the degree measure exercise the tie-break
    w = random_connected_graph(np.random.default_rng(61), 12, mu_mode="unit")
    edges = [(int(u) + 1, int(v) + 1, 1.0) for u, v in zip(w.edges_u, w.edges_v)]
    cases = [(build_graph(12, edges, mu_mode="degree"), RECORDED_N12),
             (random_connected_graph(np.random.default_rng(67), 13, mu_mode="explicit"),
              RECORDED_N13)]
    for g, recorded in cases:
        want = [(h, tuple(cheeger._mask_to_subset(m) for m in masks))
                for h, masks in recorded]
        assert multiway_cheeger_all(g) == want, g.n


def test_subset_rank_orders_like_sorted_vertex_tuples():
    for n in range(1, 11):
        rank = cheeger._subset_rank(n)
        masks = list(range(1, 1 << n))
        assert (sorted(masks, key=rank.__getitem__)
                == sorted(masks, key=subset_key)), n


def test_multiway_prefix_matches_full_enumeration():
    # kmax < n (plap cheeger --k) stops the recursion early
    rng = np.random.default_rng(47)
    for n in range(3, 11):
        g = random_connected_graph(rng, n)
        full = multiway_cheeger_all(g, g.n)
        for k in range(1, n + 1):
            assert multiway_cheeger_all(g, k) == full[:k], (n, k)


def test_multiway_cap_and_greedy():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 15)
    with pytest.raises(ExactCapExceeded):
        multiway_cheeger_all(g, 2)
    h, fam = multiway_cheeger_greedy(g, 3)
    validate_family(g, fam)
    assert len(fam) == 3
    assert h == pytest.approx(max(cut_ratio(g, a) for a in fam))


def test_sweep_cut_localized_function():
    g = path_graph(4)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    subset, c = sweep_cut(g, f, 2.0)
    assert subset == frozenset({1}) and c == pytest.approx(1.0)
    assert sweep_bound(g, f, 2.0) == pytest.approx(2.0)
    assert c <= sweep_bound(g, f, 2.0)


def test_sweep_cut_full_support_reaches_whole_graph():
    g = path_graph(4)
    subset, c = sweep_cut(g, np.array([3.0, 2.0, 2.0, 1.0]), 2.0)
    assert subset == frozenset({1, 2, 3, 4}) and c == 0.0
    # non-dyadic weights leave a rounding in the running cut sum
    cycle = build_graph(4, [(1, 2, 1.0), (2, 3, 1.5), (3, 4, 0.7), (1, 4, 1.2)])
    subset, c = sweep_cut(cycle, np.array([4.0, 3.0, 2.0, 1.0]), 2.0)
    assert subset == frozenset({1, 2, 3, 4}) and c == 0.0


def test_sweep_cut_second_eigenvector():
    g = path_graph(4)
    f = solve_p2_spectrum(g).pairs[1].f
    _, c = sweep_cut(g, f, 2.0)
    lam2 = 2.0 - np.sqrt(2.0)
    assert c <= 2.0 * np.sqrt(lam2) + 1e-12


def test_sweep_cut_property_random():
    rng = np.random.default_rng(53)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        f = random_vertex_function(rng, g.n)
        p = float(rng.choice([1.1, 2.0, 3.0]))
        _, c = sweep_cut(g, f, p)
        assert c <= sweep_bound(g, f, p) + 1e-9


def test_sweep_rejects_zero():
    with pytest.raises(ValueError):
        sweep_cut(path_graph(3), np.zeros(3), 2.0)


def test_certify_cheeger_p4_p2_numbers():
    g = path_graph(4)
    certs = certify_cheeger(solve_p2_spectrum(g))
    assert [c.passed for c in certs] == [True] * 4
    k2 = certs[1]
    assert k2.m == 2
    assert k2.h_k == pytest.approx(0.5)
    assert k2.lower == pytest.approx(0.0625)
    assert k2.upper == pytest.approx(1.0)
    assert k2.lam == pytest.approx(2.0 - np.sqrt(2.0))
    k1 = certs[0]
    assert k1.lower == 0.0 and k1.upper == 0.0 and k1.lam == pytest.approx(0.0)


def test_certify_cheeger_requires_good_residuals():
    g = path_graph(4)
    sp = solve_p2_spectrum(g)
    from plap import EigenPair
    from plap.eigensolver import Spectrum
    bad = EigenPair(p=2.0, lam=sp.lams[1], f=sp.pairs[1].f, residual=1.0)
    broken = Spectrum(graph=g, p=2.0,
                      pairs=(sp.pairs[0], bad, sp.pairs[2], sp.pairs[3]),
                      method="dense_p2")
    with pytest.raises(ValueError, match="residual"):
        certify_cheeger(broken)


def test_certify_cheeger_tightens_toward_p_one():
    g = path_graph(5)
    gaps = {}
    for p in (1.1, 3.0):
        sp = variational_spectrum(g, p)
        cert = certify_cheeger(sp)[1]
        assert cert.passed
        gaps[p] = (cert.upper - cert.lam) / cert.lam
    assert gaps[1.1] < gaps[3.0]


def test_tau_enters_bound():
    g = path_graph(4, "degree")
    assert tau(g) == pytest.approx(1.0)
    certs = certify_cheeger(solve_p2_spectrum(g))
    assert all(c.tau == pytest.approx(1.0) for c in certs)
