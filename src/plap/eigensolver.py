"""Variational eigenvalue sequences of the graph p-Laplacian.

Three routes:

* dense generalized symmetric solve at p = 2 (every eigenpair, machine
  precision);
* damped-Newton continuation in p from the p = 2 seeds for general graphs
  along a fixed geometric grid of CONTINUATION_STEPS = 16 steps, certified
  post hoc against indicator-span upper bounds.  One Newton solver and one
  continuation driver work over two coordinate forms: the direct form
  (f, lam) serves targets p >= 2 and the flux form (phi_p(f),
  phi_p(edge differences), lam) serves targets p < 2.  One form serves the
  whole path from p = 2 to the target, halved steps included.  Newton's
  Armijo line search evaluates its trial points x + alpha * step, alpha = 1,
  1/2, ..., 2^-40, in one residual call and takes the first that passes, as
  trying them one by one would.  A finished direct-form pair has its
  unresolved cusp entries set to exact zeros when the residual stays
  within tolerance.  When a branch dies or a value breaks its upper bound,
  a single repair pass solves once from each distinct indicator-span start
  at the target p;
* a shooting solver on unit-weight paths that counts the eigenvalues below
  a trial lambda from one shot (generalized zeros plus the sign of the
  boundary defect) and bisects that count down to adjacent floats,
  shooting only the midpoints near each eigenvalue, which a secant search
  on the boundary defect finds first; past an overflowing shot it shoots
  every midpoint instead.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import cheeger, kernels, nodal, plaplacian
from .graph import Graph, components, is_connected, path_graph
from .plaplacian import EigenPair

MIN_CONTINUATION_P = 1.05
# steps of the geometric p-grid from the seed to the target.  On 23 solves
# of seeded random graphs at p = 1.5 and 3, 32 steps give the same
# eigenvalues to 1e-8, and 8 steps carry one lambda_3 to another eigenpair
CONTINUATION_STEPS = 16
PATH_RESIDUAL_TOL = 1e-10
# half-width in ulps of the band around a located path eigenvalue inside
# which the replayed bisection shoots its midpoints
BAND_ULPS = 32
NEWTON_TOL = 1e-12      # max-norm residual at which `_newton` stops
NEWTON_MAX_ITER = 200


class ContinuationError(RuntimeError):
    """Continuation in p failed, a p = 2 seed is above the residual limit,
    or too few eigenpairs could be computed.

    The message says where: the stalled p, the residual, or the terminated
    branches.  The CLI maps it to exit code 3.
    """


class BracketError(RuntimeError):
    """Eigenvalue bracketing on the path failed; message holds diagnostics."""


class _NewtonFailure(Exception):
    pass


class _Overflow(Exception):
    """A path shot overflowed, so its count need not be monotone in lambda."""


def _quiet(fn):
    """Silence numpy warnings of diverged line-search trials and path shots."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)
    return wrapper


@dataclass(frozen=True)
class Spectrum:
    graph: Graph
    p: float
    pairs: tuple[EigenPair, ...]
    method: str  # dense_p2 | continuation | path_shooting
    diagnostics: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        lams = [pair.lam for pair in self.pairs]
        if any(b < a - 1e-12 for a, b in zip(lams, lams[1:])):
            raise ValueError("spectrum eigenvalues must be ascending")

    @property
    def lams(self) -> list[float]:
        return [pair.lam for pair in self.pairs]

    @functools.cached_property
    def decompositions(self) -> tuple[tuple[nodal.NodalDecomposition, ...], ...]:
        """The (strong, weak) nodal decomposition of each pair, in pair order,
        computed on first use; every certificate reads them from here.

        When f has no zero vertex its weak domains, signs and zero set are
        the strong ones, so the weak decomposition is computed only for an f
        with a zero vertex.
        """
        out = []
        for pair in self.pairs:
            strong = nodal.strong_nodal_domains(self.graph, pair.f)
            weak = (nodal.weak_nodal_domains(self.graph, pair.f) if strong.zero_set
                    else replace(strong, kind="weak"))
            out.append((strong, weak))
        return tuple(out)


def _canonical_sign(f: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(f))
    if scale == 0.0:
        return f
    for x in f:
        if abs(x) > 1e-12 * scale:
            return -f if x < 0 else f
    return f


# ---------------------------------------------------------------------------
# Dense p = 2

def _limit_notes(pairs, what: str) -> tuple[str, ...]:
    """One note naming every pair above the certificates' residual limit."""
    above = [f"k = {k} residual {pair.residual:.3g}"
             for k, pair in enumerate(pairs, 1)
             if pair.residual > plaplacian.RESIDUAL_LIMIT]
    if not above:
        return ()
    return (f"{what} above the certificates' {plaplacian.RESIDUAL_LIMIT:g} "
            "residual limit: " + ", ".join(above),)


def solve_p2_spectrum(g: Graph) -> Spectrum:
    """All n generalized eigenpairs of L f = lambda M f, M = diag(mu).

    Solved as a symmetric dense problem for M^(-1/2) L M^(-1/2) and
    back-transformed; eigenvectors carry unit weighted 2-norm.  A note names
    every pair above the certificates' residual limit.
    """
    if not is_connected(g):
        warnings.warn("graph is disconnected: lambda_2 = 0 and nodal/cut "
                      "certificates are vacuous", stacklevel=2)
    n = g.n
    lap = np.zeros((n, n))
    eu, ev, ew = g.edges_u, g.edges_v, g.edges_w
    lap[eu, ev] -= ew
    lap[ev, eu] -= ew
    np.fill_diagonal(lap, g.degrees)
    inv_sqrt = 1.0 / np.sqrt(g.mu)
    sym = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.where((vals < 0) & (vals > -1e-10), 0.0, vals)
    fs = [_canonical_sign(inv_sqrt * vecs[:, k]) for k in range(n)]
    lams = vals.tolist()
    pairs = [EigenPair(p=2.0, lam=lam, f=f, residual=res) for f, lam, res
             in zip(fs, lams, plaplacian.eigen_residuals(g, fs, lams, 2.0))]
    return Spectrum(graph=g, p=2.0, pairs=tuple(pairs), method="dense_p2",
                    diagnostics=tuple({} for _ in pairs),
                    notes=_limit_notes(pairs, "dense p = 2 pairs"))


# ---------------------------------------------------------------------------
# Continuation in p
#
# `_newton` and the step recursion in `_continue_with_diag` take a form of
# the augmented system (eigen-equation plus unit-norm row) with unknowns
# x = (coordinates, lam).  A form poses a vertex function f as x and maps
# x back to f, and supplies the residual, Jacobian and the finished pair.
# A form's residual also takes a stack of points, one per row, and returns
# each row's residual bit for bit (the kernels' rows form).

# the Armijo trial step lengths 1, 1/2, ..., 2^-40
_ALPHAS = np.ldexp(1.0, -np.arange(41))


def _dphi(x: np.ndarray, p: float) -> np.ndarray:
    # derivative (p-1)|x|^(p-2); only the direct form, at p >= 2, calls it
    return (p - 1.0) * np.abs(x) ** (p - 2.0)


class _DirectForm:
    """x = (f, lam); f is renormalised at every new p before Newton."""

    renormalises = True
    failures = ("non-finite Newton step", "backtracking stalled",
                "Newton did not converge")

    def __init__(self, g: Graph):
        self.g = g

    def pose(self, f, lam, p):
        return np.append(f, lam)

    def vertex(self, x, p):
        return x[:-1]

    def residual(self, x, p):
        g, f, lam = self.g, x[..., :-1], x[..., -1:]
        out = np.empty(x.shape)
        out[..., :g.n] = (
            kernels.plap_apply(g.edges_u, g.edges_v, g.edges_w, f, p, g.n)
            - lam * g.mu * plaplacian.phi(p, f))
        out[..., g.n] = kernels.weighted_pnorm_pow(g.mu, f, p) - 1.0
        return out

    def jacobian(self, x, p):
        g, f, lam = self.g, x[:-1], x[-1]
        n = g.n
        eu, ev, ew = g.edges_u, g.edges_v, g.edges_w
        jac = np.zeros((n + 1, n + 1))
        wd = ew * _dphi(f[eu] - f[ev], p)
        jac[eu, ev] = -wd
        jac[ev, eu] = -wd
        diag = np.zeros(n)
        np.add.at(diag, eu, wd)
        np.add.at(diag, ev, wd)
        diag -= lam * g.mu * _dphi(f, p)
        jac[np.arange(n), np.arange(n)] = diag
        mphi = g.mu * plaplacian.phi(p, f)
        jac[:n, n] = -mphi
        jac[n, :n] = p * mphi
        return jac

    def finish(self, x, lam, p):
        f = plaplacian.normalized(self.g, x[:-1], p)
        res = plaplacian.eigen_residual(self.g, f, lam, p)
        # an entry whose neighbours are all near zero moves the residual by
        # about |e|^(p-1), so Newton stops with it anywhere below
        # NEWTON_TOL^(1/(p-1)) and nodal counts would turn on that noise; the
        # exact zero is kept when it meets the tolerance as well
        tiny = np.abs(f) <= NEWTON_TOL ** (1.0 / (p - 1.0)) * np.max(np.abs(f))
        if np.any(tiny & (f != 0.0)):
            snapped = np.where(tiny, 0.0, f)
            res_snapped = plaplacian.eigen_residual(self.g, snapped, lam, p)
            if res_snapped <= max(res, NEWTON_TOL):
                f, res = snapped, res_snapped
        return _canonical_sign(f), res


# The flux form, for 1 < p < 2.
#
# Near p = 1, eigenfunctions develop plateaus whose internal value
# differences scale like c^(1/(p-1)) and can drop below the float spacing of
# the entries themselves, while the fluxes phi_p(f(u)-f(v)) stay order one.
# Solving in the variables s(u) = phi_p(f(u)) and t(e) = phi_p(f(u)-f(v))
# keeps every quantity representable and turns all kernels into q-powers
# with q = p/(p-1) >= 2, which are smooth:
#
#   edge rows:    phi_q(t_e) - phi_q(s_u) + phi_q(s_v) = 0
#   vertex rows:  sum_e orient(u, e) w_e t_e - lam mu(u) s_u = 0
#   norm row:     sum_u mu(u) |s_u|^q - 1 = 0   (equals the f p-norm)

class _FluxForm:
    """x = (s, t, lam); s and t are not renormalised between steps."""

    renormalises = False
    failures = ("non-finite flux-form step", "flux-form backtracking stalled",
                "flux-form Newton did not converge")

    def __init__(self, g: Graph):
        self.g = g

    def pose(self, f, lam, p):
        eu, ev = self.g.edges_u, self.g.edges_v
        return np.concatenate([plaplacian.phi(p, f),
                               plaplacian.phi(p, f[eu] - f[ev]), [lam]])

    def vertex(self, x, p):
        return plaplacian.phi(p / (p - 1.0), x[:self.g.n])

    def residual(self, x, p):
        g = self.g
        n, m = g.n, g.m
        eu, ev, ew = g.edges_u, g.edges_v, g.edges_w
        s, t = x[..., :n], x[..., n:n + m]
        lam, q = x[..., -1:], p / (p - 1.0)
        out = np.empty(x.shape)
        phis = plaplacian.phi(q, s)
        out[..., :m] = (plaplacian.phi(q, t) - phis.take(eu, axis=-1)
                        + phis.take(ev, axis=-1))
        out[..., m:m + n] = (kernels.edge_divergence(eu, ev, ew * t, n)
                             - lam * g.mu * s)
        out[..., m + n] = kernels.weighted_pnorm_pow(g.mu, s, q) - 1.0
        return out

    def jacobian(self, x, p):
        g = self.g
        n, m = g.n, g.m
        eu, ev, ew = g.edges_u, g.edges_v, g.edges_w
        s, t, lam, q = x[:n], x[n:n + m], x[-1], p / (p - 1.0)
        size = n + m + 1
        jac = np.zeros((size, size))
        rows = np.arange(m)
        dq_t = (q - 1.0) * np.abs(t) ** (q - 2.0)
        dq_s = (q - 1.0) * np.abs(s) ** (q - 2.0)
        jac[rows, n + rows] = dq_t
        jac[rows, eu] = -dq_s[eu]
        jac[rows, ev] = dq_s[ev]
        np.add.at(jac, (m + eu, n + rows), ew)
        np.add.at(jac, (m + ev, n + rows), -ew)
        vrows = np.arange(n)
        jac[m + vrows, vrows] = -lam * g.mu
        jac[m + vrows, n + m] = -g.mu * s
        jac[m + n, :n] = q * g.mu * plaplacian.phi(q, s)
        return jac

    def finish(self, x, lam, p):
        n, q = self.g.n, p / (p - 1.0)
        s, t = x[:n], x[n:-1]
        nrm = plaplacian.pnorm(self.g, plaplacian.phi(q, s), p)
        # the norm row already pins this to 1; rescale s and t consistently
        s = s / plaplacian.phi(p, nrm)
        t = t / plaplacian.phi(p, nrm)
        f = plaplacian.phi(q, s)
        flipped = _canonical_sign(f)
        if flipped is not f:
            f, s, t = flipped, -s, -t
        res = self.residual(np.concatenate([s, t, [lam]]), p)
        return f, float(np.max(np.abs(res)))


@_quiet
def _newton(form, x, p):
    """Damped Newton on the form's augmented system at fixed p.

    Returns (x, iterations); raises _NewtonFailure with one of the form's
    three failure messages.
    """
    res = form.residual(x, p)
    nrm2 = float(np.linalg.norm(res))
    iters = 0
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(res)) <= NEWTON_TOL:
            return x, iters
        jac = form.jacobian(x, p)
        try:
            step = np.linalg.solve(jac, -res)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            # singular Jacobians at folds; without this fallback some solves
            # pick other pairs (the ablation in CHANGES.md)
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
            if not np.all(np.isfinite(step)):
                raise _NewtonFailure(form.failures[0])
        # Armijo backtracking on the residual norm: every trial point in one
        # residual call, the first to pass taken.  Each row's norm is the
        # norm of that row alone, so the step is the one-trial-at-a-time
        # loop's (`tests/oracles.newton_scalar`)
        trials = x + _ALPHAS[:, None] * step
        for alpha, x_try, res_try in zip(_ALPHAS.tolist(), trials,
                                         form.residual(trials, p)):
            nrm_try = float(np.linalg.norm(res_try))
            if nrm_try <= (1.0 - 1e-4 * alpha) * nrm2:
                x, res, nrm2 = x_try, res_try, nrm_try
                break
        else:
            # stiff instances bottom out above the tolerance; accept the
            # floor when it is already far below the solver contract;
            # without it stiff steps fail and some spectra lose a pair
            if np.max(np.abs(res)) <= 100 * NEWTON_TOL:
                return x, iters
            raise _NewtonFailure(form.failures[1])
        iters += 1
    if np.max(np.abs(res)) <= 100 * NEWTON_TOL:
        return x, iters
    raise _NewtonFailure(form.failures[2])


def _fold_restarts(g: Graph, f: np.ndarray):
    """Trial iterates for crossing a power-kernel corner.

    For p < 2 an eigenfunction entry can pass through zero (or two adjacent
    values can merge) as p decreases; the branch continues on the other side
    of the kink where plain line search cannot follow.  Candidate restarts
    flip the smallest entries and swap near-equal neighbor values.
    """
    scale = float(np.max(np.abs(f)))
    trials = []
    small = [u for u in np.argsort(np.abs(f)) if abs(f[u]) <= 0.2 * scale][:4]
    for u in small:
        t = f.copy()
        t[u] = -t[u]
        trials.append(t)
    if len(small) > 1:
        t = f.copy()
        t[small] = -t[small]
        trials.append(t)
    diffs = np.abs(f[g.edges_u] - f[g.edges_v])
    close = [i for i in np.argsort(diffs) if diffs[i] <= 0.2 * scale][:4]
    for i in close:
        u, v = g.edges_u[i], g.edges_v[i]
        t = f.copy()
        t[u], t[v] = t[v], t[u]
        trials.append(t)
    return trials


def _form_for(g: Graph, p: float):
    """The coordinate form that solves at p: the flux form below p = 2."""
    return _DirectForm(g) if p >= 2.0 else _FluxForm(g)


def _continue_with_diag(g, seed, p_target):
    """Follow one p = 2 eigenpair to p_target along a geometric p-grid.

    Each step solves the augmented system by damped Newton in the one form
    `_form_for(g, p_target)`; failing steps are halved geometrically up to
    12 levels.  Returns (pair, diagnostics).
    """
    if p_target < MIN_CONTINUATION_P:
        warnings.warn(f"continuation to p = {p_target} below the default "
                      f"minimum {MIN_CONTINUATION_P}: curvature degenerates "
                      f"as p -> 1", stacklevel=3)
    diag = {"newton_iterations": 0, "p_steps": 0, "halvings": 0}
    if seed.lam <= 1e-10:
        # the zero eigenvalue is p-independent and its eigenfunctions are
        # constant per connected component; snap the seed's rounding noise,
        # which the p < 2 kernel would otherwise amplify
        f = seed.f.astype(np.float64).copy()
        for comp in components(g):
            f[comp] = float(np.mean(f[comp]))
        f = plaplacian.normalized(g, f, p_target)
        res = plaplacian.eigen_residual(g, f, 0.0, p_target)
        pair = EigenPair(p=p_target, lam=0.0, f=_canonical_sign(f),
                         residual=res)
        return pair, diag
    form = _form_for(g, p_target)

    def advance(x, p_from, p_to, depth):
        if form.renormalises:
            f = plaplacian.normalized(g, form.vertex(x, p_to), p_to)
            x = form.pose(f, x[-1], p_to)
        lam = x[-1]
        try:
            x_new, iters = _newton(form, x, p_to)
        except _NewtonFailure as exc:
            # a stall usually means the branch crossed a kink of the power
            # kernel; try restarting on the far side before shrinking steps.
            # The flux form rebuilds f with the q of p_from; trials are
            # normalised at p_to.  Without these restarts branches stall or
            # jump at folds, and solves change, fail or slow down (CHANGES.md)
            for trial in _fold_restarts(g, form.vertex(x, p_from)):
                try:
                    t = form.pose(plaplacian.normalized(g, trial, p_to), lam, p_to)
                    x_new, iters = _newton(form, t, p_to)
                except (_NewtonFailure, ValueError):
                    continue
                if abs(x_new[-1] - lam) <= 0.1 * (1.0 + abs(lam)):
                    diag["fold_restarts"] = diag.get("fold_restarts", 0) + 1
                    break
            else:
                if depth >= 12:
                    raise ContinuationError(
                        f"continuation stalled at p = {p_to:.6g}: {exc}") from None
                diag["halvings"] += 1
                mid = float(np.sqrt(p_from * p_to))
                x = advance(x, p_from, mid, depth + 1)
                return advance(x, mid, p_to, depth + 1)
        diag["newton_iterations"] += iters
        diag["p_steps"] += 1
        return x_new

    ratio = p_target / seed.p
    grid = [seed.p * ratio ** (i / CONTINUATION_STEPS)
            for i in range(CONTINUATION_STEPS + 1)]
    grid[-1] = p_target
    # the flux form, which does not renormalise, is entered with a
    # normalised f
    f = seed.f if form.renormalises else plaplacian.normalized(g, seed.f, 2.0)
    x = form.pose(f, seed.lam, seed.p)
    for p_from, p_to in zip(grid, grid[1:]):
        x = advance(x, p_from, p_to, 0)
    lam = max(float(x[-1]), 0.0)
    f, res = form.finish(x, lam, p_target)
    if isinstance(form, _FluxForm):
        diag["coordinates"] = "flux"
        # entry differences can quantize below float resolution near p = 1,
        # making the direct defect evaluation pessimistic; record it anyway
        diag["direct_defect"] = plaplacian.eigen_residual(g, f, lam, p_target)
    if res > plaplacian.RESIDUAL_LIMIT:
        raise ContinuationError(
            f"continued pair residual {res:.3g} exceeds "
            f"{plaplacian.RESIDUAL_LIMIT:g}")
    return EigenPair(p=p_target, lam=lam, f=f, residual=res), diag


@_quiet
def solve_from_guess(g: Graph, f0: np.ndarray, p: float) -> EigenPair | None:
    """Solve the eigen-system at fixed p from an explicit starting function.

    Uses the flux form below p = 2 and the direct form otherwise; returns
    None when Newton fails.  Used to seed eigenpairs from indicator spans.
    """
    try:
        f0 = plaplacian.normalized(g, f0, p)
    except ValueError:
        return None
    lam0 = plaplacian.rayleigh_quotient(g, f0, p)
    form = _form_for(g, p)
    try:
        x, _ = _newton(form, form.pose(f0, lam0, p), p)
    except _NewtonFailure:
        return None
    # unlike continuation, the residual is taken before lam is clamped at 0
    lam = x[-1]
    f, res = form.finish(x, lam, p)
    if res > plaplacian.RESIDUAL_LIMIT or not np.isfinite(lam) or lam < -1e-12:
        return None
    return EigenPair(p=p, lam=max(float(lam), 0.0), f=f, residual=res)


def _same_pair(a: EigenPair, b: EigenPair) -> bool:
    if abs(a.lam - b.lam) > 1e-7 * (1.0 + abs(a.lam)):
        return False
    d = min(float(np.max(np.abs(a.f - b.f))), float(np.max(np.abs(a.f + b.f))))
    return d <= 1e-5


def _indicator_seeds(g: Graph, families, rng) -> list[np.ndarray]:
    """Candidate start functions built on optimal disjoint-subset families.

    The last subset of a small family keeps one sign: `solve_from_guess` is
    odd in its start, so the negated patterns would return the same pairs.
    """
    seeds = []
    for fam in families:
        idx = [np.fromiter((v - 1 for v in a), dtype=np.int64) for a in fam]
        k = len(idx)
        if k > 6:
            patterns = [tuple(rng.choice([-1.0, 1.0], k)) for _ in range(32)]
        else:
            patterns = [
                tuple(1.0 if (m >> j) & 1 else -1.0 for j in range(k))
                for m in range(1 << (k - 1))
            ]
        for pat in patterns:
            f0 = np.zeros(g.n)
            for c, ii in zip(pat, idx):
                f0[ii] = c
            seeds.append(f0)
        for _ in range(12):
            f0 = np.zeros(g.n)
            coef = rng.uniform(0.3, 1.7, k) * rng.choice([-1.0, 1.0], k)
            for c, ii in zip(coef, idx):
                f0[ii] = c
            seeds.append(f0)
    return seeds


def _upper_violations(p: float, hk, pairs) -> list[tuple[int, float]]:
    """(k, 2^(p-1) h_k) for every lambda_k of the ascending pairs above it."""
    found = []
    for k, pr in enumerate(pairs, 1):
        upper = cheeger.upper_bound(p, hk[k - 1])
        if pr.lam > upper + cheeger.bound_tol(pr.lam):
            found.append((k, upper))
    return found


def variational_spectrum(
    g: Graph,
    p: float,
    hk: Sequence | None = None,
    families=None,
) -> Spectrum:
    """The variational eigenvalue sequence at the target p.

    The p = 2 spectrum is continued pairwise along a geometric grid and
    re-sorted.  When exact multiway constants are available (n within the
    enumeration cap, or supplied as hk), every value is checked against the
    certified upper bound 2^(p-1) h_k; a violation or a dead branch
    triggers a repair pass that seeds additional eigenpairs from the
    optimal-cut indicator spans directly at the target p.  The n lowest
    pairs are reported; that is the best certified selection, since the
    lower bound of the paper holds for every eigenpair and the upper bound
    2^(p-1) h_k only gets harder to meet as lambda_k grows.  Anything still
    violating the upper bound stays flagged in the diagnostics.  hk is the
    list h_1..h_n, as `cheeger.multiway_cheeger_values(g)` returns it;
    without it the constants are enumerated once here.  families, called
    only by a repair pass, returns the optimal families of k = 1..n; without
    it that pass builds them with `cheeger.multiway_cheeger_all`.
    """
    if p <= 1:
        raise ValueError(f"variational spectrum requires p > 1, got {p}")
    base = solve_p2_spectrum(g)
    if p == 2.0:
        return base
    for k, seed in enumerate(base.pairs, 1):
        if seed.residual > plaplacian.RESIDUAL_LIMIT:
            raise ContinuationError(
                f"p = {p}: p = 2 seed k = {k} residual {seed.residual:.3g} "
                f"exceeds {plaplacian.RESIDUAL_LIMIT:g}")
    notes = []
    pool: list[tuple[EigenPair, dict]] = []
    for i, seed in enumerate(base.pairs):
        try:
            pair, diag = _continue_with_diag(g, seed, p)
        except ContinuationError as exc:
            notes.append(f"branch from p=2 pair {i + 1} terminated: {exc}")
            continue
        diag["seed_k"] = i + 1
        pool.append((pair, diag))

    if hk is None and g.n <= cheeger.EXACT_HK_CAP:
        hk = cheeger.multiway_cheeger_values(g)

    certified = hk is not None and g.n > 1
    lowest = sorted((pr for pr, _ in pool), key=lambda x: x.lam)[:g.n]
    if certified and (len(lowest) < g.n or _upper_violations(p, hk, lowest)):
        # seed from every family size: inserting one low eigenvalue shifts
        # all later indices, so the useful seeds are not confined to the
        # violated k.  solve_from_guess is deterministic and odd in its
        # start, so a start met before, or its negation, adds nothing;
        # adding 0.0 folds -0.0 to +0.0 in the bytes
        rng = np.random.default_rng(12961)
        started: set[bytes] = set()
        fams = (families() if families is not None else
                [fam for _, fam in cheeger.multiway_cheeger_all(g)])
        for f0 in _indicator_seeds(g, fams[1:], rng):
            key = (f0 + 0.0).tobytes()
            if key in started:
                continue
            started.add(key)
            started.add((0.0 - f0).tobytes())
            cand = solve_from_guess(g, f0, p)
            if cand is None or cand.lam <= 1e-10:
                continue
            if any(_same_pair(cand, pr) for pr, _ in pool):
                continue
            pool.append((cand, {"seeded_from": "indicator span"}))
    # after the repair pass, if there was one
    if len(pool) < g.n:
        raise ContinuationError(
            f"only {len(pool)} of {g.n} eigenpairs could be computed at "
            f"p = {p}; " + "; ".join(notes))
    results = sorted(pool, key=lambda tp: tp[0].lam)[:g.n]
    if len(pool) > g.n:
        notes.append(f"{len(pool) - g.n} extra eigenpairs found during "
                     f"repair; kept the best certified selection")
    if certified:
        for k, upper in _upper_violations(p, hk, [pr for pr, _ in results]):
            pair, diag = results[k - 1]
            diag["branch_warning"] = (
                f"lambda_{k} = {pair.lam:.12g} exceeds the certified "
                f"upper bound {upper:.12g}: continuation left the "
                f"variational branch")
            notes.append(diag["branch_warning"])
    elif hk is None:
        # at n = 1 the constants exist and there is nothing to certify
        notes.append("indicator-span certification skipped: exact "
                     "multiway constants unavailable at this size")

    return Spectrum(graph=g, p=p,
                    pairs=tuple(pair for pair, _ in results),
                    method="continuation",
                    diagnostics=tuple(diag for _, diag in results),
                    notes=tuple(notes))


# ---------------------------------------------------------------------------
# Shooting on unit paths

def _shot(n, p, lam):
    """(count, boundary defect, zero count, values) of one shot at lam.

    The count is the number of unit-path eigenvalues strictly below lam:
    the zero count c of the shot puts lambda_1..lambda_c below lam, and
    lambda_(c+1) joins once the defect turns against the sign of f(n).
    The count is nondecreasing in lam until a shot overflows.
    """
    f, defect, zeros = kernels.path_shoot_core(n, p, lam)
    return zeros + (defect * f[-1] < 0.0), defect, zeros, f


def _locate(shoot, k, a, b):
    """A band (lo, hi) around lambda_k with count(lo) < k <= count(hi).

    `shoot(lam)` returns the `_shot` at lam, and count(a) < k <= count(b)
    for the counts of those shots.  Where the shots at both ends of the
    bracket have one zero count, the defect is continuous between them and
    changes sign at lambda_k (or vanishes at an end), and an Illinois secant
    step (Dowell & Jarratt, BIT 1971) on it narrows the bracket; where the
    zero counts differ, a bisection step on the count does.  Once two secant
    estimates agree to BAND_ULPS ulps, or the bracket is 2 BAND_ULPS ulps
    wide, the band of +-BAND_ULPS ulps around the estimate is shot at both
    ends.  The count can flip between adjacent floats near lambda_k, and the
    band is wide enough to hold every flip seen; a band shot outside the
    bracket whose count contradicts it raises BracketError.
    """
    _, da, za, _ = shoot(a)
    _, db, zb, _ = shoot(b)
    kept = 0        # -1: a kept by the last secant step, +1: b kept
    last = None     # the last secant estimate
    bisect = False  # a band missed lambda_k: bisect once
    while True:
        secant = not bisect and za == zb and da * db <= 0.0 and da != db
        bisect = False
        est = a - da * (b - a) / (db - da) if secant else 0.5 * (a + b)
        if (b - a <= 2 * BAND_ULPS * math.ulp(b)
                or secant and last is not None
                and abs(est - last) <= BAND_ULPS * math.ulp(est)):
            half = BAND_ULPS * math.ulp(est)
            ends = [(y, *shoot(y)[:3]) for y in (est - half, est + half)]
            if ends[0][1] < k <= ends[1][1]:
                return ends[0][0], ends[1][0]
            for y, c, d, z in ends:
                if a < y < b:
                    if c >= k:
                        b, db, zb = y, d, z
                    else:
                        a, da, za = y, d, z
                elif (c >= k) != (y >= b):
                    raise BracketError(
                        f"count {c} at lambda = {y!r} contradicts the bracket "
                        f"[{a!r}, {b!r}] of lambda_{k}")
            kept, last, bisect = 0, None, True
            continue
        last = est if secant else None
        x = est if a < est < b else 0.5 * (a + b)
        c, d, z, _ = shoot(x)
        if c >= k:
            b, db, zb = x, d, z
            # Illinois: an end kept twice in a row has its defect halved
            if secant and kept < 0:
                da *= 0.5
            kept = -1 if secant else 0
        else:
            a, da, za = x, d, z
            if secant and kept > 0:
                db *= 0.5
            kept = 1 if secant else 0


@_quiet
def path_spectrum(n: int, p: float) -> Spectrum:
    """All n eigenpairs on the unit path, indexed by the count below lambda.

    ``_shot`` counts the eigenvalues strictly below a trial lambda by the
    generalized zeros of the shot and the sign of its boundary defect
    (Sturm-count bisection).  Each lambda_k is bisected on ``count >= k``
    down to two adjacent floats, where the defect must change sign, and the
    float with the smaller defect is kept.  A root whose zero count is not
    k - 1 aborts with a diagnostic rather than silently mis-indexing.

    The bisection is replayed, not shot midpoint by midpoint: ``_locate``
    first finds a band (a, b) of 2 BAND_ULPS ulps around lambda_k with
    count(a) < k <= count(b), and since the count is nondecreasing in lambda
    every midpoint outside the band is decided without a shot.  Only the
    midpoints inside the band are shot, so the bisection ends on the floats
    it would reach shooting every midpoint.  Each shot is made once per call.
    A failed replay raises its own BracketError.  Past an overflow the count
    need not be monotone, so at the first shot whose defect is not finite
    the replay stops and the spectrum is bisected shooting every midpoint;
    its pairs or its error are those of the plain bisection.
    """
    if n < 2:
        raise ValueError(f"path spectrum needs n >= 2, got {n}")
    if p <= 1:
        raise ValueError(f"path spectrum requires p > 1, got {p}")
    g = path_graph(n, "unit")
    shots = {}
    # the smallest and the largest lambda shot at each count
    lowest = [math.inf] * (n + 1)
    highest = [-math.inf] * (n + 1)
    plain = False  # shoot every midpoint; set once a shot has overflowed

    def shoot(lam):
        shot = shots.get(lam)
        if shot is None:
            shot = shots[lam] = _shot(n, p, lam)
            c, defect = shot[:2]
            lowest[c] = min(lowest[c], lam)
            highest[c] = max(highest[c], lam)
            if not (plain or math.isfinite(defect)):
                raise _Overflow
        return shot

    # lambda_max <= 2^(p-1) tau = 2^p on a unit path
    lam_hi = 2.0 ** p * (1.0 + 1e-7) + 1e-6

    def solve():
        top = shoot(lam_hi)[0]
        if top != n:
            raise BracketError(
                f"eigenvalue count below lambda = {lam_hi:.6g} is {top}, "
                f"expected {n}; count monotonicity assumption violated")
        mu_total = float(np.sum(g.mu))
        pairs = [EigenPair(p=p, lam=0.0,
                           f=np.full(n, mu_total ** (-1.0 / p)), residual=0.0)]
        diags = [{"zero_count": 0, "defect": 0.0}]
        lo = 0.0
        for k in range(2, n + 1):
            # count(lo) < k <= count(hi): lambda_k lies in [lo, hi)
            hi = lam_hi
            # the closest shots on either side of lambda_k start the search
            band_lo, band_hi = ((lo, hi) if plain else _locate(
                shoot, k, max(lo, *highest[:k]), min(lowest[k:])))
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if mid <= band_lo:
                    up = False
                elif mid >= band_hi:
                    up = True
                else:
                    up = shoot(mid)[0] >= k
                if up:
                    hi = mid
                else:
                    lo = mid
                mid = 0.5 * (lo + hi)
            d_lo, d_hi = shoot(lo)[1], shoot(hi)[1]
            if not d_lo * d_hi <= 0.0:
                raise BracketError(
                    f"no defect sign change for k = {k} in [{lo!r}, {hi!r}] "
                    f"(defects {d_lo!r}, {d_hi!r})")
            a_root = lo if abs(d_lo) <= abs(d_hi) else hi
            _, shot_defect, zeros, shot_f = shoot(a_root)
            shot_f, shot_defect = np.array(shot_f), float(shot_defect)
            if not (np.all(np.isfinite(shot_f)) and np.isfinite(shot_defect)):
                raise BracketError(
                    f"shot for k = {k} is not finite (lambda = {a_root!r})")
            if zeros != k - 1:
                raise BracketError(
                    f"eigenfunction for k = {k} has {zeros} generalized "
                    f"zeros; monotonic indexing failed (lambda = {a_root!r})")
            if shot_f[0] == 0.0 or shot_f[-1] == 0.0:
                raise BracketError(f"boundary entries vanish for k = {k}")
            # the recurrence satisfies every interior equation by construction,
            # so the honest defect is the boundary one, rescaled to the unit
            # p-norm representative; re-evaluating through the stored entries
            # is quantization-limited near p = 1 and goes to the diagnostics
            nrm = plaplacian.pnorm(g, shot_f, p)
            if not math.isfinite(nrm):
                # a finite shot near the float range, which would scale to 0
                raise BracketError(f"p-norm of the shot for k = {k} is not "
                                   f"finite (lambda = {a_root!r})")
            f = shot_f / nrm
            res = abs(shot_defect) / nrm ** (p - 1.0)
            if res > PATH_RESIDUAL_TOL:
                # the k-th eigenfunction is symmetric about the middle of the
                # path for odd k and antisymmetric for even k; the left half of
                # the shot carries less of the error the recurrence accumulates
                half = n // 2
                sign = 1.0 if k % 2 else -1.0
                mirrored = shot_f.copy()
                mirrored[n - half:] = sign * shot_f[half - 1::-1]
                if n % 2 and sign < 0:
                    mirrored[half] = 0.0
                mirrored_res = plaplacian.eigen_residual(g, mirrored, a_root, p)
                if mirrored_res < res:
                    f = mirrored / plaplacian.pnorm(g, mirrored, p)
                    res = mirrored_res
            # steep defects near p = 1 can jump above tolerance between two
            # adjacent representable lambdas; the conditioning floor is the
            # defect change per ulp and no float64 lambda can beat it
            d_lo = shoot(math.nextafter(a_root, -math.inf))[1]
            d_hi = shoot(math.nextafter(a_root, math.inf))[1]
            floor = min(abs(d_lo), abs(d_hi), abs(shot_defect))
            accept = max(PATH_RESIDUAL_TOL, 4.0 * floor / nrm ** (p - 1.0))
            if res > accept:
                raise BracketError(
                    f"path pair k = {k} residual {res:.3g} exceeds "
                    f"{accept:.3g}; defect = {shot_defect!r}")
            pairs.append(EigenPair(p=p, lam=a_root, f=f, residual=res))
            diags.append({"zero_count": zeros, "defect": shot_defect})
        direct = plaplacian.eigen_residuals(
            g, [pr.f for pr in pairs[1:]], [pr.lam for pr in pairs[1:]], p)
        for diag, res in zip(diags[1:], direct):
            diag["direct_defect"] = res
        return pairs, diags

    try:
        pairs, diags = solve()
    except _Overflow:
        # a midpoint the replay decides without a shot could shoot to another
        # count; on six paths of n = 114..128 at p = 1.08 only this bisection
        # finds the spectrum
        plain = True
        pairs, diags = solve()
    lams = [pair.lam for pair in pairs]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise BracketError(f"path eigenvalues not strictly increasing: {lams}")
    return Spectrum(graph=g, p=p, pairs=tuple(pairs), method="path_shooting",
                    diagnostics=tuple(diags),
                    notes=_limit_notes(pairs, "conditioning-limited path pairs"))
