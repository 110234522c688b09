import warnings

import numpy as np

from plap import kernels

from .oracles import family_dp_loop, shoot_array, subset_tables_dense


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


def test_family_dp_matches_loop(monkeypatch):
    # LOW_BITS = 2 and 3 send most masks through the high-part steps and the
    # zero-low-part column, which n <= 9 never reaches at the default
    rng = np.random.default_rng(11)
    for n in range(1, 12):
        # one decimal gives many ties; ratio[0] is never read, since the
        # empty set is no family member
        ratio = np.round(rng.uniform(0.0, 3.0, 1 << n), 1)
        ratio[rng.random(1 << n) < 0.1] = np.inf
        ratio[0] = 0.0
        want = family_dp_loop(ratio, n)
        for low_bits in (kernels.LOW_BITS, 2, 3):
            monkeypatch.setattr(kernels, "LOW_BITS", low_bits)
            for kmax in sorted({1, n // 2, n} - {0}):
                assert np.array_equal(kernels.family_minmax_dp(ratio, kmax),
                                      want[:kmax + 1]), (n, low_bits, kmax)
            monkeypatch.undo()


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


def test_low_submask_pairs_hold_lowest_bit():
    for low in range(1, kernels.LOW_BITS + 1):
        sub, rest, starts = kernels._low_submask_pairs(low)
        assert sub.shape[0] == (3 ** low - 1) // 2
        lo = sub | rest
        assert np.all((sub & rest) == 0)
        assert np.all(sub & lo & -lo)
        # grouped by lo = 1 .. 2^low - 1, each group every such submask once
        assert starts[0] == 0 and np.array_equal(lo[starts], np.arange(1, 1 << low))
        assert np.all(np.diff(lo) >= 0)
        assert len(set(zip(lo.tolist(), sub.tolist()))) == sub.shape[0]


def test_low_tables_split_pairs_by_threshold():
    for low in range(1, kernels.LOW_BITS + 1):
        sub, rest, _ = kernels._low_submask_pairs(low)
        bits = np.array([int(r).bit_count() for r in rest])
        tables = kernels._low_tables(low)
        assert len(tables) == low and bits.max() == low - 1
        for c, (t_sub, t_rest, t_starts, t_lo) in enumerate(tables):
            # the pairs with popcount(lo ^ ls) >= c, in their grouped order
            keep = bits >= c
            assert np.array_equal(t_sub, sub[keep]), (low, c)
            assert np.array_equal(t_rest, rest[keep]), (low, c)
            # one nonempty group per lo, ascending
            lo = t_sub | t_rest
            assert t_starts[0] == 0 and np.all(np.diff(t_starts) > 0)
            assert np.array_equal(t_lo, lo[t_starts]) and np.all(np.diff(t_lo) > 0)
            assert np.array_equal(np.repeat(t_lo, np.diff(t_starts, append=lo.shape[0])), lo)


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
