import numpy as np
import pytest

from plap import (
    EigenPair,
    apply_p_laplacian,
    ax_by_gap,
    eigen_residual,
    path_graph,
    phi,
    rayleigh_quotient,
    rq_gradient,
)
from plap import plaplacian
from plap.eigensolver import path_spectrum

from .oracles import fd_gradient
from .util import (
    MU_MODES,
    random_connected_graph,
    random_vertex_function,
    vertex_function_stack,
)


def test_phi_values():
    assert phi(2.0, -3.0) == -3.0
    assert phi(3.0, -2.0) == -4.0
    assert phi(1.5, 0.0) == 0.0
    assert phi(1.0, -7.0) == -1.0 and phi(1.0, 0.0) == 0.0
    x = np.array([-2.0, 0.0, 2.0])
    assert np.allclose(phi(2.0, x), x)
    with pytest.raises(ValueError):
        phi(0.9, 1.0)


def test_phi_odd_and_magnitude():
    rng = np.random.default_rng(0)
    for p in (1.0, 1.3, 2.0, 3.5):
        x = rng.standard_normal(50)
        assert np.allclose(phi(p, -x), -phi(p, x))
        assert np.allclose(np.abs(phi(p, x)), np.abs(x) ** (p - 1))


def test_apply_constant_is_zero():
    g = path_graph(5)
    assert np.allclose(apply_p_laplacian(g, np.full(5, 3.7), 2.5), 0.0)


def test_apply_p2_hand_value():
    g = path_graph(3)
    assert np.allclose(apply_p_laplacian(g, [1.0, 0.0, -1.0], 2.0), [1.0, 0.0, -1.0])


def test_apply_sums_to_zero():
    rng = np.random.default_rng(7)
    for p in (1.3, 2.0, 2.7, 4.0):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            f = rng.standard_normal(g.n)
            lap = apply_p_laplacian(g, f, p)
            assert abs(np.sum(lap)) <= 1e-12 * (np.sum(np.abs(lap)) + 1.0)


def test_apply_requires_p_above_one():
    with pytest.raises(ValueError):
        apply_p_laplacian(path_graph(3), [1.0, 0.0, -1.0], 1.0)
    with pytest.raises(ValueError):
        apply_p_laplacian(path_graph(3), [1.0, 0.0], 2.0)


def test_rayleigh_values():
    g = path_graph(3)
    assert rayleigh_quotient(g, np.ones(3), 2.0) == 0.0
    assert rayleigh_quotient(g, [1.0, 0.0, -1.0], 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rayleigh_quotient(g, np.zeros(3), 2.0)


def test_rayleigh_scale_invariance():
    rng = np.random.default_rng(13)
    for p in (1.0, 1.5, 2.0, 3.0):
        g = random_connected_graph(rng, 6)
        f = rng.standard_normal(6)
        r = rayleigh_quotient(g, f, p)
        assert rayleigh_quotient(g, -2.5 * f, p) == pytest.approx(r, rel=1e-12)


def test_gradient_constant_vanishes():
    g = path_graph(4)
    grad = rq_gradient(g, np.full(4, 2.0), 2.5)
    assert np.max(np.abs(grad)) <= 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for p in (1.3, 2.0, 2.7, 4.0):
        g = random_connected_graph(rng, 6)
        f = random_vertex_function(rng, 6, min_gap=0.1)
        grad = rq_gradient(g, f, p)
        fd = fd_gradient(g, f, p)
        scale = np.max(np.abs(fd)) + 1e-12
        assert np.max(np.abs(grad - fd)) / scale <= 1e-5


def test_gradient_vanishes_at_eigenpair():
    pair = path_spectrum(4, 2.7).pairs[1]
    g = path_graph(4)
    assert np.max(np.abs(rq_gradient(g, pair.f, 2.7))) <= 1e-9


def test_eigen_residual_values():
    g = path_graph(3)
    assert eigen_residual(g, np.ones(3), 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert eigen_residual(g, [1.0, 0.0, -1.0], 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    # defect is evaluated after scaling f to unit weighted 2-norm
    assert eigen_residual(g, [1.0, 0.0, -1.0], 2.0, 2.0) == pytest.approx(2 ** -0.5)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
def test_eigen_residuals_match_per_pair_calls(p):
    rng = np.random.default_rng(int(p * 10) + 1)
    for n in range(2, 15):
        for mode in MU_MODES:
            g = random_connected_graph(rng, n, mode)
            fs = vertex_function_stack(rng, 9, n)
            lams = rng.uniform(0.0, 8.0, 9).tolist()
            # rows of norm 0 (all zero, or underflowing) raise, one by one
            # and in a stack
            keep = [i for i, f in enumerate(fs) if plaplacian.pnorm(g, f, p) > 0]
            if len(keep) < len(fs):
                with pytest.raises(ValueError, match="zero function"):
                    plaplacian.eigen_residuals(g, fs, lams, p)
            fs, lams = fs[keep], [lams[i] for i in keep]
            got = plaplacian.eigen_residuals(g, fs, lams, p)
            want = [eigen_residual(g, f, lam, p) for f, lam in zip(fs, lams)]
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert all(type(r) is float for r in got)


def test_eigen_residuals_validation():
    g = path_graph(3)
    with pytest.raises(ValueError, match="shape"):
        plaplacian.eigen_residuals(g, np.ones((2, 4)), [0.0, 0.0], 2.0)
    with pytest.raises(ValueError, match="shape"):
        plaplacian.eigen_residuals(g, np.ones((2, 3)), [0.0], 2.0)
    with pytest.raises(ValueError, match="finite"):
        plaplacian.eigen_residuals(g, [[1.0, np.nan, 0.0]], [0.0], 2.0)
    with pytest.raises(ValueError, match="zero function"):
        plaplacian.eigen_residuals(g, [[1.0, 0.0, -1.0], [0.0] * 3], [1.0, 1.0], 2.0)
    with pytest.raises(ValueError, match="p > 1"):
        plaplacian.eigen_residuals(g, np.ones((1, 3)), [0.0], 1.0)


def test_ax_by_gap_values():
    assert ax_by_gap(2.0, 1.0, 1.0, 1.0, -1.0) == pytest.approx(0.0)
    assert ax_by_gap(1.0, 2.0, 3.0, 1.0, -1.0) == pytest.approx(0.0)
    assert ax_by_gap(2.0, 1.0, 2.0, 1.0, -1.0) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        ax_by_gap(2.0, 1.0, 1.0, 1.0, 1.0)
    # an array of exponents broadcasts against the other arguments
    gaps = ax_by_gap(np.array([2.0, 1.0, 2.0]), [1.0, 2.0, 1.0],
                     [1.0, 3.0, 2.0], 1.0, -1.0)
    assert gaps == pytest.approx([0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        ax_by_gap(np.array([2.0, 0.5]), 1.0, 1.0, 1.0, -1.0)


def test_ax_by_gap_nonpositive_property():
    rng = np.random.default_rng(31)
    p = rng.uniform(1.0, 4.0, 3000)
    a = rng.standard_normal(3000) * 2
    b = rng.standard_normal(3000) * 2
    x = np.abs(rng.standard_normal(3000))
    y = -np.abs(rng.standard_normal(3000))
    for pi in np.unique(np.round(p, 1)):
        sel = np.abs(p - pi) < 0.05
        gap = ax_by_gap(float(pi), a[sel], b[sel], x[sel], y[sel])
        scale = (np.abs(a[sel] * x[sel]) + np.abs(b[sel] * y[sel]) + 1.0) ** float(pi)
        assert np.all(gap <= 1e-12 * scale)


def test_eigenpair_validation():
    with pytest.raises(ValueError):
        EigenPair(p=2.0, lam=1.0, f=np.ones(2), residual=-1.0)
