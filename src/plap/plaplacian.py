"""Pointwise power kernels, the graph p-Laplacian, and Rayleigh functionals.

All operations are pure functions of immutable inputs.  The edge convention
is fixed in :mod:`plap.graph`: sums run once per unordered edge, so at p=2
the Rayleigh quotient is the classical f'Lf / f'Mf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .graph import Graph

RESIDUAL_LIMIT = 1e-9  # the certificates refuse pairs whose residual exceeds it


@dataclass(frozen=True)
class EigenPair:
    """A candidate eigenpair (p, lambda, f) with residual metadata.

    residual is the max-norm defect of the eigen-equation after normalizing
    f to unit weighted p-norm.
    """
    p: float
    lam: float
    f: np.ndarray
    residual: float

    def __post_init__(self):
        self.f.setflags(write=False)
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def phi(p: float, x):
    """Odd power kernel |x|^(p-2) x, extended by 0 at x = 0 for p < 2.

    Accepts scalars or arrays; requires p >= 1.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * np.abs(arr) ** (p - 1.0)
    return out if arr.ndim else float(out)


def _as_vertex_function(g: Graph, f) -> np.ndarray:
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (g.n,):
        raise ValueError(f"vertex function has shape {arr.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vertex function must be finite")
    return arr


def apply_p_laplacian(g: Graph, f, p: float) -> np.ndarray:
    """(Lap_p f)(u) = sum_v w(uv) phi_p(f(u) - f(v)); sums to 0 over V."""
    if p <= 1:
        raise ValueError(f"apply_p_laplacian requires p > 1, got {p}")
    arr = _as_vertex_function(g, f)
    return kernels.plap_apply(g.edges_u, g.edges_v, g.edges_w, arr, p, g.n)


def pnorm(g: Graph, f, p: float) -> float:
    """Weighted p-norm (sum_u mu(u)|f(u)|^p)^(1/p)."""
    arr = _as_vertex_function(g, f)
    return kernels.weighted_pnorm_pow(g.mu, arr, p) ** (1.0 / p)


def rayleigh_quotient(g: Graph, f, p: float) -> float:
    """Ratio of the p-Dirichlet energy to the weighted p-norm; scale invariant."""
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    arr = _as_vertex_function(g, f)
    den = kernels.weighted_pnorm_pow(g.mu, arr, p)
    if den == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero function")
    num = kernels.dirichlet(g.edges_u, g.edges_v, g.edges_w, arr, p)
    return num / den


def rq_gradient(g: Graph, f, p: float) -> np.ndarray:
    """Gradient of the Rayleigh quotient at f.

    Vanishes exactly at eigenpairs: grad = p (Lap_p f - R mu phi_p(f)) / den.
    """
    if p <= 1:
        raise ValueError(f"rq_gradient requires p > 1, got {p}")
    arr = _as_vertex_function(g, f)
    den = kernels.weighted_pnorm_pow(g.mu, arr, p)
    if den == 0.0:
        raise ValueError("gradient undefined for the zero function")
    lap = kernels.plap_apply(g.edges_u, g.edges_v, g.edges_w, arr, p, g.n)
    num = kernels.dirichlet(g.edges_u, g.edges_v, g.edges_w, arr, p)
    r = num / den
    return p * (lap - r * g.mu * phi(p, arr)) / den


def eigen_residual(g: Graph, f, lam: float, p: float) -> float:
    """Max-norm defect of the eigen-equation after unit p-norm scaling."""
    return eigen_residuals(g, _as_vertex_function(g, f)[None], [lam], p)[0]


def eigen_residuals(g: Graph, fs, lams, p: float) -> list[float]:
    """`eigen_residual` of each row of fs at the lam beside it, from one
    kernel call.  Each row's norm is the one-row sum and its 1/p power is
    taken on a Python float, so every value is the one-row call's."""
    if p <= 1:
        raise ValueError(f"eigen_residual requires p > 1, got {p}")
    arr = np.asarray(fs, dtype=np.float64)
    if arr.shape != (len(lams), g.n):
        raise ValueError(f"vertex functions have shape {arr.shape}, "
                         f"expected ({len(lams)}, {g.n})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vertex function must be finite")
    nrm = [s ** (1.0 / p) for s in kernels.weighted_pnorm_pow(g.mu, arr, p).tolist()]
    if 0.0 in nrm:
        raise ValueError("residual undefined for the zero function")
    arr = arr / np.array(nrm)[:, None]
    lap = kernels.plap_apply(g.edges_u, g.edges_v, g.edges_w, arr, p, g.n)
    lam = np.array(lams, dtype=np.float64)[:, None]
    return np.max(np.abs(lap - lam * g.mu * phi(p, arr)), axis=1).tolist()


def ax_by_gap(p: float, a, b, x, y):
    """|ax - by|^p - (|a|^p |x| + |b|^p |y|) |x - y|^(p-1) for xy <= 0.

    Nonpositive whenever xy <= 0; equality holds for p = 1 iff xy = 0 or
    ab >= 0, and for p > 1 iff xy = 0 or a = b.  Accepts scalars or arrays,
    p included, which broadcast together.
    """
    if np.any(np.asarray(p) < 1):
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    a, b, x, y = (np.asarray(t, dtype=np.float64) for t in (a, b, x, y))
    if np.any(x * y > 0):
        raise ValueError("ax_by_gap requires xy <= 0")
    gap = (np.abs(a * x - b * y) ** p
           - (np.abs(a) ** p * np.abs(x) + np.abs(b) ** p * np.abs(y))
           * np.abs(x - y) ** (p - 1.0))
    return gap if gap.ndim else float(gap)


def normalized(g: Graph, f, p: float) -> np.ndarray:
    """f scaled to unit weighted p-norm."""
    arr = _as_vertex_function(g, f)
    nrm = kernels.weighted_pnorm_pow(g.mu, arr, p) ** (1.0 / p)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero function")
    return arr / nrm
