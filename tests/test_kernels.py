import numpy as np
import pytest

from plap import kernels

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                 reason="numba not available")


def _instance(seed=0, n=40, extra=60):
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.integers(0, n, 2))
        if u != v:
            edges.add((int(u), int(v)))
    eu, ev = map(np.array, zip(*sorted(edges)))
    return (eu.astype(np.int64), ev.astype(np.int64),
            rng.uniform(0.5, 2.0, len(edges)), rng.standard_normal(n),
            rng.uniform(0.5, 2.0, n))


def test_backend_flag_exposed():
    assert isinstance(kernels.USE_NUMBA, bool)
    assert kernels.USE_NUMBA == (kernels.HAVE_NUMBA and not kernels.NUMBA_DISABLED)


@needs_numba
def test_plap_apply_backends_agree():
    eu, ev, ew, f, mu = _instance()
    for p in (1.2, 2.0, 3.5):
        a = kernels._plap_apply_numba(eu, ev, ew, f, p, len(f))
        b = kernels.plap_apply_numpy(eu, ev, ew, f, p, len(f))
        assert np.allclose(a, b, rtol=1e-13, atol=1e-14)


@needs_numba
def test_dirichlet_backends_agree():
    eu, ev, ew, f, mu = _instance(1)
    for p in (1.1, 2.0, 4.0):
        a = kernels._dirichlet_numba(eu, ev, ew, f, p)
        b = kernels.dirichlet_numpy(eu, ev, ew, f, p)
        assert a == pytest.approx(b, rel=1e-13)


@needs_numba
def test_shoot_backends_agree():
    for p, lam in ((2.0, 1.37), (1.4, 0.61), (3.0, 5.0)):
        f1, d1, z1 = kernels._shoot_numba(9, p, lam)
        f2, d2, z2 = kernels._shoot_loop(9, p, lam)
        assert z1 == z2
        assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-15)
        assert np.allclose(f1, f2, rtol=1e-12)


@needs_numba
def test_subset_tables_backends_agree():
    eu, ev, ew, f, mu = _instance(2, n=10, extra=12)
    a_cut, a_mass = kernels._subset_tables_numba(10, eu, ev, ew, mu)
    b_cut, b_mass = kernels.subset_tables_numpy(10, eu, ev, ew, mu)
    assert np.allclose(a_cut, b_cut)
    assert np.allclose(a_mass, b_mass)


@needs_numba
def test_family_dp_backends_agree():
    eu, ev, ew, f, mu = _instance(3, n=8, extra=8)
    cut, mass = kernels.subset_tables_numpy(8, eu, ev, ew, mu)
    ratio = np.empty(1 << 8)
    ratio[0] = np.inf
    ratio[1:] = cut[1:] / mass[1:]
    a = kernels._family_dp_numba(ratio, 5)
    b = kernels._family_dp_loop(ratio, 5)
    assert np.allclose(a, b)


def test_subset_tables_small_hand_check():
    # single edge graph: masks 00, 01, 10, 11
    eu = np.array([0], dtype=np.int64)
    ev = np.array([1], dtype=np.int64)
    ew = np.array([2.0])
    mu = np.array([1.0, 3.0])
    cut, mass = kernels.subset_tables(2, eu, ev, ew, mu)
    assert list(cut) == [0.0, 2.0, 2.0, 0.0]
    assert list(mass) == [0.0, 1.0, 3.0, 4.0]


def test_family_dp_matches_loop():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        # one decimal gives many ties; ratio[0] is never read, since the
        # empty set is no family member
        ratio = np.round(rng.uniform(0.0, 3.0, 1 << n), 1)
        ratio[rng.random(1 << n) < 0.1] = np.inf
        ratio[0] = 0.0
        for kmax in sorted({1, n}):
            b = kernels._family_dp_loop(ratio, kmax)
            for dp in (kernels.family_minmax_dp, kernels.family_dp_numpy):
                assert np.array_equal(dp(ratio, kmax), b), (n, kmax)
