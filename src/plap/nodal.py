"""Strong/weak nodal domains, nodal-space sampling and nodal-count certification.

A strong nodal domain is a maximal connected component of {f > 0} or
{f < 0}; a weak nodal domain is a maximal connected component of {f >= 0}
or {f <= 0}.  Numeric eigenfunctions carry solver noise, so membership is
decided against a zero tolerance of 1e-9 * max|f|.  The nodal-space
checks read their random coefficients from rows the caller draws with
`nodal_space_normals`, so the module holds no sampling state.  A space of
m domains reads the first m rows, and those are the draw of m rows, so
`plap certify` draws each stream once at the exact cap's 14 rows and keeps
it for the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import kernels, plaplacian
from .graph import Graph, components, is_connected

if TYPE_CHECKING:
    from .eigensolver import Spectrum

DEFAULT_MULTIPLICITY_TOL = 1e-7
MAX_SIGN_PATTERN_DOMAINS = 12
NODAL_SPACE_SAMPLES = 1000   # random draws per nodal-space check


@dataclass(frozen=True)
class NodalDecomposition:
    kind: str                                # "strong" or "weak"
    domains: tuple[frozenset[int], ...]      # 1-based vertex sets
    signs: tuple[str, ...]                   # "+" or "-" per domain
    zero_set: frozenset[int]

    @property
    def count(self) -> int:
        return len(self.domains)


def _decompose(g: Graph, f, strict: bool) -> NodalDecomposition:
    """Strong (strict) or weak nodal domains of f, in one pass over Python floats.

    f is validated as `plaplacian._as_vertex_function` does.  The zero
    threshold 1e-9 max|f| and the sign masks come from Python floats, whose
    abs, max and comparisons are the IEEE double operations numpy would do,
    so the domains are those of the array computation.
    """
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (g.n,):
        raise ValueError(f"vertex function has shape {arr.shape}, expected ({g.n},)")
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise ValueError("vertex function must be finite")
    tol = 1e-9 * max(map(abs, vals), default=0.0)
    pos = [x > tol for x in vals]
    neg = [x < -tol for x in vals]
    if strict:
        domains = [(c, "+") for c in components(g, pos)]
        domains += [(c, "-") for c in components(g, neg)]
    else:
        domains = [(c, "+") for c in components(g, [not b for b in neg])]
        # a component that is zero throughout shows up for both closed sign
        # sets; report it once
        seen = {tuple(c) for c, _ in domains}
        for c in components(g, [not b for b in pos]):
            if tuple(c) not in seen:
                domains.append((c, "-"))
    domains.sort(key=lambda t: t[0][0])
    return NodalDecomposition(
        kind="strong" if strict else "weak",
        domains=tuple(frozenset(v + 1 for v in c) for c, _ in domains),
        signs=tuple(s for _, s in domains),
        zero_set=frozenset(v + 1 for v, x in enumerate(vals) if -tol <= x <= tol),
    )


def strong_nodal_domains(g: Graph, f) -> NodalDecomposition:
    return _decompose(g, f, strict=True)


def weak_nodal_domains(g: Graph, f) -> NodalDecomposition:
    return _decompose(g, f, strict=False)


def nodal_space_normals(seed: int, m: int) -> np.ndarray:
    """Stream seed of the nodal-space checks with m rows.  Numpy fills it in
    C order, so its first rows are the draw with fewer: one draw serves every
    space of up to m domains."""
    return np.random.default_rng(seed).standard_normal((m, NODAL_SPACE_SAMPLES))


def nodal_space_max_rq(
    g: Graph,
    pair: plaplacian.EigenPair,
    decomposition: NodalDecomposition,
    normals: np.ndarray,
) -> float:
    """Largest Rayleigh quotient found over the nodal space of an eigenpair.

    The nodal space is spanned by the restrictions of pair.f to the domains
    of decomposition, its strong or weak nodal decomposition.  With m
    domains, the coefficient vectors are the first m rows of normals, one
    per column (a `nodal_space_normals` draw of at least m rows), plus, for
    up to 12 domains, one +-1 sign pattern per +- pair: the 2^(m-1) patterns
    whose last coefficient is -1.  The result never exceeds the eigenvalue
    (up to solver noise), which is what the certification harness asserts.
    The maximum is that over every sign pattern: negating the coefficients
    negates `basis @ a` exactly (rounding to nearest is symmetric), so the
    quotient's numerator and denominator are bitwise unchanged.

    When f has no zero vertex, its weak domains are its strong domains, so
    for one draw both kinds build the same basis and return the same float;
    `plap certify` then reports the strong value for the weak space instead
    of sampling it again.
    """
    if pair.residual > plaplacian.RESIDUAL_LIMIT and pair.p > 1:
        raise ValueError(f"eigenpair residual {pair.residual:.3g} exceeds "
                         f"{plaplacian.RESIDUAL_LIMIT:g}")
    m = decomposition.count
    if m == 0:
        raise ValueError("empty nodal decomposition")
    rows = [v - 1 for dom in decomposition.domains for v in dom]
    cols = [i for i, dom in enumerate(decomposition.domains) for _ in dom]
    basis = np.zeros((g.n, m))
    basis[rows, cols] = pair.f[rows]
    patterns = 1 << (m - 1) if m <= MAX_SIGN_PATTERN_DOMAINS else 0
    coeffs = kernels.work("nodal_coeffs", (m, patterns + NODAL_SPACE_SAMPLES))
    if patterns:
        # column c is the pattern of the bits of c: +1 where bit j is set
        coeffs[:, :patterns] = -1.0
        for j in range(m - 1):
            coeffs[j, :patterns].reshape(-1, 2, 1 << j)[:, 1] = 1.0
    coeffs[:, patterns:] = normals[:m]
    gmat = np.matmul(basis, coeffs,
                     out=kernels.work("nodal_gmat", (g.n, coeffs.shape[1])))
    p = pair.p
    diff = kernels.work("edges_a", (g.m, coeffs.shape[1]))
    other = kernels.work("edges_b", diff.shape)
    gmat.take(g.edges_u, axis=0, out=diff, mode="clip")
    gmat.take(g.edges_v, axis=0, out=other, mode="clip")
    diff -= other
    # exact identities skipped: (-x)^2 = x^2 and x * 1.0 = x
    if p != 2.0:
        np.abs(diff, out=diff)
        np.abs(gmat, out=gmat)
    diff **= p
    if not g.unit_weights:
        diff *= g.edges_w[:, None]
    num = diff.sum(axis=0)
    gmat **= p
    if not g.unit_measure:
        gmat *= g.mu[:, None]
    den = gmat.sum(axis=0)
    # mask only when some combination is (numerically) zero
    if den.min() > 1e-300:
        return float((num / den).max())
    ok = den > 1e-300
    if not np.any(ok):
        raise ValueError("all sampled combinations were zero")
    return float(np.max(num[ok] / den[ok]))


@dataclass(frozen=True)
class NodalCheck:
    k: int
    lam: float
    multiplicity: int
    strong_count: int
    weak_count: int
    strong_bound: int
    weak_bound: int
    weak_must_equal_two: bool
    passed: bool


@dataclass(frozen=True)
class NodalReport:
    p: float
    checks: tuple[NodalCheck, ...]
    all_pass: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "all_pass", all(c.passed for c in self.checks))


def multiplicity_groups(values) -> list[list[int]]:
    """Group ascending eigenvalue indices whose relative gaps are at most
    DEFAULT_MULTIPLICITY_TOL."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if (groups and v - values[groups[-1][-1]]
                <= DEFAULT_MULTIPLICITY_TOL * max(1.0, abs(v))):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def certify_nodal_bounds(spectrum: "Spectrum") -> NodalReport:
    """Check every pair's nodal counts against the variational-index bounds.

    For the k-th pair with multiplicity r: at most k + r - 1 strong domains;
    at most k weak domains for p > 1 (k + r - 1 when p = 1); and any pair in
    the second eigenvalue's group must have exactly 2 weak domains when p > 1
    on a connected graph.  Failures are report entries, not exceptions.
    The counts are read from `spectrum.decompositions`.
    """
    g = spectrum.graph
    p = spectrum.p
    lams = [pair.lam for pair in spectrum.pairs]
    groups = multiplicity_groups(lams)
    group_of = {}
    for gr in groups:
        for i in gr:
            group_of[i] = gr
    lambda2_group = group_of.get(1, [])
    connected = is_connected(g)
    checks = []
    for i, pair in enumerate(spectrum.pairs):
        k = i + 1
        r = len(group_of[i])
        strong, weak = (dec.count for dec in spectrum.decompositions[i])
        strong_bound = k + r - 1
        weak_bound = k if p > 1 else k + r - 1
        exact2 = p > 1 and connected and i in lambda2_group
        ok = strong <= strong_bound and weak <= weak_bound
        if exact2:
            ok = ok and weak == 2
        checks.append(NodalCheck(
            k=k, lam=float(pair.lam), multiplicity=r,
            strong_count=strong, weak_count=weak,
            strong_bound=strong_bound, weak_bound=weak_bound,
            weak_must_equal_two=exact2, passed=ok,
        ))
    return NodalReport(p=p, checks=tuple(checks))
