import tracemalloc
import warnings

import numpy as np
import pytest

from plap import kernels

from .oracles import family_dp_loop, shoot_array, subset_tables_dense
from .util import MU_MODES, random_connected_graph, vertex_function_stack


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
def test_rows_kernels_match_row_by_row_calls(p):
    # a stack's row r is the one-row call on row r, and the one-row call is
    # the pair of bincounts over the edges, bit for bit
    rng = np.random.default_rng(int(p * 10))
    for n in range(2, 15):
        for mode in MU_MODES:
            g = random_connected_graph(rng, n, mode)
            eu, ev, ew = g.edges_u, g.edges_v, g.edges_w
            fs = vertex_function_stack(rng, 9, n)
            ts = vertex_function_stack(rng, 9, g.m)
            rows = kernels.plap_apply(eu, ev, ew, fs, p, n)
            norms = kernels.weighted_pnorm_pow(g.mu, fs, p)
            for f, row, norm in zip(fs, rows, norms):
                one = kernels.plap_apply(eu, ev, ew, f, p, n)
                d = f[eu] - f[ev]
                t = ew * np.sign(d) * np.abs(d) ** (p - 1.0)
                plain = (np.bincount(eu, weights=t, minlength=n)
                         - np.bincount(ev, weights=t, minlength=n))
                assert row.tobytes() == one.tobytes() == plain.tobytes()
                assert np.float64(norm).tobytes() == np.float64(
                    kernels.weighted_pnorm_pow(g.mu, f, p)).tobytes()
            for t, row in zip(ts, kernels.edge_divergence(eu, ev, ts, n)):
                plain = (np.bincount(eu, weights=t, minlength=n)
                         - np.bincount(ev, weights=t, minlength=n))
                assert row.tobytes() == plain.tobytes()
                assert kernels.edge_divergence(eu, ev, t, n).tobytes() == row.tobytes()


def test_subset_tables_small_hand_check():
    # single edge graph: masks 00, 01, 10, 11
    eu = np.array([0], dtype=np.int64)
    ev = np.array([1], dtype=np.int64)
    ew = np.array([2.0])
    mu = np.array([1.0, 3.0])
    cut, mass = kernels.subset_tables(2, eu, ev, ew, mu)
    assert list(cut) == [0.0, 2.0, 2.0, 0.0]
    assert list(mass) == [0.0, 1.0, 3.0, 4.0]


def test_subset_tables_blocks_match_one_pass():
    # several blocks at n >= 11; the rows must be summed as in one pass
    rng = np.random.default_rng(4)
    shapes = [(n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
              for n in range(1, 15)]
    shapes.append((14, 91))
    for n, m in shapes:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pick = rng.permutation(len(pairs))[:m]
        eu = np.array([pairs[i][0] for i in pick], dtype=np.int64)
        ev = np.array([pairs[i][1] for i in pick], dtype=np.int64)
        ew = rng.uniform(0.1, 3.0, m)
        mu = rng.uniform(0.1, 3.0, n)
        for got, want in zip(kernels.subset_tables(n, eu, ev, ew, mu),
                             subset_tables_dense(n, eu, ev, ew, mu)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_family_dp_matches_loop():
    rng = np.random.default_rng(11)
    for n in range(1, 12):
        # one decimal gives many ties; ratio[0] is never read, since the
        # empty set is no family member
        ratio = np.round(rng.uniform(0.0, 3.0, 1 << n), 1)
        ratio[rng.random(1 << n) < 0.1] = np.inf
        ratio[0] = 0.0
        want = family_dp_loop(ratio, n)
        for kmax in sorted({1, n // 2, n} - {0}):
            assert np.array_equal(kernels.family_minmax_dp(ratio, kmax),
                                  want[:kmax + 1]), (n, kmax)


def _ratio_table(n, edges, mu=None):
    """Cut ratios of every mask, the empty set at inf."""
    eu, ev, ew = (np.array(x) for x in zip(*edges))
    mu = np.ones(n) if mu is None else mu
    cut, mass = subset_tables_dense(n, eu, ev, ew.astype(float), mu)
    return np.append(np.inf, cut[1:] / mass[1:])


def test_family_dp_matches_loop_where_every_subset_is_undominated():
    # on K_n every subset has a smaller ratio than its proper subsets, so no
    # pair is dropped and every family of each size ties with many others;
    # a disconnected graph has zero ratios on its components and their
    # unions, and a star ties its leaves
    tables = [_ratio_table(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
              for n in range(2, 11)]
    apart = _ratio_table(8, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (5, 6, 0.5)],
                         np.array([1.0, 2.0, 1.0, 1.0, 1.0, 3.0, 1.0, 2.0]))
    assert np.count_nonzero(apart == 0.0) == 15  # the unions of 4 components
    tables.append(apart)
    tables.append(_ratio_table(9, [(0, v, 1.0) for v in range(1, 9)]))
    for ratio in tables:
        n = ratio.shape[0].bit_length() - 1
        want = family_dp_loop(ratio, n)
        for kmax in sorted({1, (n + 1) // 2, n}):
            assert np.array_equal(kernels.family_minmax_dp(ratio, kmax),
                                  want[:kmax + 1]), (n, kmax)


def test_undominated_subsets_by_brute_force():
    # kept iff no nonempty proper subset has a ratio at most its own
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        for _ in range(3):
            ratio = np.round(rng.uniform(0.0, 3.0, 1 << n), 1)
            ratio[rng.random(1 << n) < 0.1] = np.inf
            ratio[0] = 0.0
            least = np.array([min([ratio[u] for u in range(1, t + 1) if u & t == u],
                                  default=np.inf) for t in range(1 << n)])
            want = [t for t in range(1, 1 << n)
                    if not any(ratio[u] <= ratio[t] for u in range(1, t)
                               if u & t == u)]
            assert kernels._undominated(ratio, least).tolist() == want, n


def test_low_submask_pairs_hold_lowest_bit():
    # the submask table pairs each x with every submask y once, so that
    # x = y | (x ^ y), and the lowest bit of x is held by half of its pairs
    bits = kernels.SUBMASK_BITS
    sub, first, _, _ = kernels._submasks()
    assert sub.shape[0] == 3 ** bits and first[0] == 0
    for x in range(1 << bits):
        group = sub[first[x]:first[x] + (1 << x.bit_count())].tolist()
        assert sorted(group) == [y for y in range(x + 1) if y & x == y], x
        if x:
            assert 2 * sum(y & x & -x != 0 for y in group) == len(group), x


def test_every_pair_lists_each_anchored_pair_once():
    # below n bits, each s holding h(M) pairs with M once
    for n in range(1, kernels.SUBMASK_BITS + 1):
        m, r, s = kernels._every_pair(n)
        assert np.array_equal(m, r | s) and not (r & s).any()
        want = sorted((mm, mm ^ ss, ss) for mm in range(1, 1 << n)
                      for ss in range(1, mm + 1)
                      if ss & mm == ss and ss >> (mm.bit_length() - 1))
        got = zip(m.tolist(), r.tolist(), s.tolist())
        assert sorted(got) == want, n


def test_low_tables_split_pairs_by_threshold():
    # within a group popcounts descend, and for every threshold c the
    # binomial tables give the length and offset of the c-bit run, so the
    # pairs of popcount >= c are a prefix of above + count entries
    width = 2 * kernels._PAD + 1
    sub, first, count, above = kernels._submasks()
    for x in range(1 << kernels.SUBMASK_BITS):
        f = x.bit_count()
        pc = [y.bit_count() for y in sub[first[x]:first[x] + (1 << f)].tolist()]
        assert pc == sorted(pc, reverse=True), x
        for c in range(-2, f + 3):
            k = f * width + c + kernels._PAD
            run = [i for i, p in enumerate(pc) if p == c]
            assert count[k] == len(run), (x, c)
            if run:
                assert above[k] == run[0], (x, c)
            assert sum(p >= c for p in pc) == above[k] + count[k], (x, c)


def test_family_dp_runs_without_numpy_2(monkeypatch):
    # the declared floor is NumPy 1.24, which has no np.bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    kernels._submasks.__wrapped__()
    rng = np.random.default_rng(13)
    for n in (4, 10, 11):
        ratio = np.round(rng.uniform(0.0, 3.0, 1 << n), 1)
        assert np.array_equal(kernels.family_minmax_dp(ratio, 3),
                              family_dp_loop(ratio, 3)), n


def test_worst_case_stays_within_its_stated_peak():
    # K14 has every subset undominated; a seeded n = 14 graph is typical.
    # The bound is the warm peak stated beside `kernels.family_minmax_dp`.
    from plap import build_graph, cheeger
    from .util import random_connected_graph
    k14 = build_graph(14, [(u, v, 1.0) for u in range(1, 15) for v in range(u + 1, 15)])
    seeded = random_connected_graph(np.random.default_rng(3), 14, "degree")
    for g in (k14, seeded):
        values = cheeger.multiway_cheeger_values(g)
        tracemalloc.start()
        try:
            assert cheeger.multiway_cheeger_values(g) == values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 2 ** 20, peak


def test_tables_share_no_memory_with_the_kept_work_arrays():
    # the kept arrays are written again by the next call; what a kernel
    # returns stays as it was
    rng = np.random.default_rng(5)
    eu, ev = np.array([0, 1, 2]), np.array([1, 2, 3])
    cut, mass = kernels.subset_tables(4, eu, ev, rng.uniform(1, 2, 3), np.ones(4))
    dp = kernels.family_minmax_dp(np.append(np.inf, cut[1:] / mass[1:]), 3)
    kept = [x.copy() for x in (cut, mass, dp)]
    for x in (cut, mass, dp):
        assert not any(np.shares_memory(x, buf) for buf in kernels._work.values())
    kernels.subset_tables(4, eu, ev, rng.uniform(1, 2, 3), rng.uniform(1, 2, 4))
    kernels.family_minmax_dp(rng.uniform(0, 1, 16), 3)
    assert all(np.array_equal(x, y) for x, y in zip((cut, mass, dp), kept))


def _same_shot(got, want):
    f, defect, zeros = got
    f_ref, defect_ref, zeros_ref = want
    return (zeros == zeros_ref
            and np.array_equal(np.array(f, dtype=float), f_ref, equal_nan=True)
            and (defect == defect_ref
                 or (np.isnan(defect) and np.isnan(defect_ref))))


def test_path_shoot_core_matches_array_shooter():
    rng = np.random.default_rng(7)
    for i in range(3000):
        n = int(rng.integers(2, 16))
        p = float(rng.uniform(1.05, 4.0))
        lam = 0.0 if i % 100 == 0 else float(rng.uniform(0.0, 1.2 * 2.0 ** p))
        got = kernels.path_shoot_core(n, p, lam)
        assert type(got[1]) is float, (n, p, lam)
        assert _same_shot(got, shoot_array(n, p, lam)), (n, p, lam)


def test_path_shoot_core_overflow_matches_array_shooter():
    # Python float powers raise where float64 overflows to inf; the shot
    # must still carry inf and nan on as the array shooter does
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n, p, lam in ((100, 1.05, 4.0), (100, 1.05, 16.0), (200, 1.1, 128.0)):
            want = shoot_array(n, p, lam)
            assert not np.all(np.isfinite(want[0])), (n, p, lam)
            assert _same_shot(kernels.path_shoot_core(n, p, lam), want), (n, p, lam)
