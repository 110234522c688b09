"""Cut ratios, exact multiway isoperimetric constants, and sweep-cut rounding.

h_k is the smallest achievable value, over families of k pairwise-disjoint
nonempty vertex subsets, of the largest cut ratio c(A) = w(boundary)/mu(A)
in the family.  Subsets are not required to cover the vertex set.  Exact
values are computed by enumeration over subset masks, capped at n <= 14;
beyond the cap a greedy spectral heuristic is clearly labeled non-exact.

A member A of a family can give way to a nonempty proper subset of ratio at
most c(A), so the recursion `kernels.family_minmax_dp` pairs masks with the
undominated subsets alone (every nonempty proper subset of larger ratio):
layer j holds, for every mask, the best family of j subsets inside it, at a
cost that falls with j as popcount pruning drops the small leftovers.
`multiway_cheeger_values` runs the layers up to ceil(n/2) only and finishes
each larger k with one pass over the 2^n masks M: floor(k/2) subsets inside
M and ceil(k/2) inside V - M.
`multiway_cheeger_all` runs every layer and reads each optimal family back
from the subsets whose ratio is at most h_k, dropping those that meet each
pick, and taking the smallest by a base-3 rank table whose integer order is
the order of sorted vertex tuples.  `plap certify` reads the values, and
builds the families at most once, when a repair pass of
`eigensolver.variational_spectrum` asks for indicator seeds; `plap cheeger`
reports both.  Costs by n are given beside `EXACT_HK_CAP`; `python3
perfbench/run.py` times them inside the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import kernels, plaplacian
from .graph import Graph, subset_indices, tau

if TYPE_CHECKING:
    from .eigensolver import Spectrum

# Warm (shared 2-core x86-64 VM): `multiway_cheeger_values` takes 1-2, 2-5,
# 3-13, 7-25 and 15-75 ms at n = 12..16 on seeded random graphs (tracemalloc
# peak 0.5-11.9 MB) and 7-12, 21, 63, 192 and 585 ms on K_n (0.6-11.1 MB); a
# warm `certify --p 2` 4-6, 6-11 and 9-15 ms at n = 12..14.  The cap stays
# at 14 until whole `certify` calls are timed past it.
EXACT_HK_CAP = 14
BOUND_TOL_BASE = 1e-9  # the additive part of `bound_tol`


class ExactCapExceeded(ValueError):
    """Graph too large for exact multiway enumeration."""


def cut_ratio(g: Graph, subset: Iterable[int]) -> float:
    """Boundary weight of A over its measure; c(V) = 0."""
    idx = subset_indices(g, subset)
    member = np.zeros(g.n, dtype=bool)
    member[idx] = True
    crossing = member[g.edges_u] != member[g.edges_v]
    return float(np.sum(g.edges_w[crossing]) / np.sum(g.mu[idx]))


def _ratio_table(g: Graph) -> np.ndarray:
    if g.n > EXACT_HK_CAP:
        raise ExactCapExceeded(
            f"exact enumeration capped at n <= {EXACT_HK_CAP}, got n = {g.n}")
    cut, mass = kernels.subset_tables(g.n, g.edges_u, g.edges_v, g.edges_w, g.mu)
    ratio = np.empty(1 << g.n)
    ratio[0] = np.inf  # the empty subset is not a valid family member
    ratio[1:] = cut[1:] / mass[1:]
    return ratio


def _mask_to_subset(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _subset_rank(n: int) -> np.ndarray:
    """Integer rank of every mask of n bits in the order of sorted vertex tuples.

    One base-3 digit per vertex, vertex 1 most significant: 1 if the vertex
    is in the set, 2 if it is not but a later vertex is, 0 once the set has
    ended.  Comparing ranks compares the sorted vertex tuples.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    rank = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        digit = np.where((masks >> i) & 1, 1, np.where(masks >> (i + 1), 2, 0))
        rank += digit * 3 ** (n - 1 - i)
    return rank


def _reconstruct_family(ratio: np.ndarray, dp: np.ndarray, k: int, n: int,
                        rank: np.ndarray) -> list[int]:
    """Lexicographically smallest optimal family (masks), given the dp table
    and the `_subset_rank(n)` table."""
    target = dp[k, (1 << n) - 1]
    mask = (1 << n) - 1
    # the nonempty submasks of mask whose ratio fits under the target
    fits = np.flatnonzero(ratio[1:] <= target) + 1
    chosen: list[int] = []
    for j in range(k, 0, -1):
        ok = fits[dp[j - 1, mask ^ fits] <= target]
        pick = int(ok[np.argmin(rank[ok])])
        chosen.append(pick)
        mask ^= pick
        fits = fits[(fits & pick) == 0]
    chosen.sort(key=rank.__getitem__)
    return chosen


def multiway_cheeger_all(g: Graph, kmax: int | None = None):
    """Exact (h_k, optimal family) for k = 1..kmax in one enumeration pass.

    Ties are broken by the lexicographically smallest family of sorted
    vertex tuples, so reports are reproducible.
    """
    kmax = g.n if kmax is None else kmax
    if not 1 <= kmax <= g.n:
        raise ValueError(f"k must satisfy 1 <= k <= {g.n}, got {kmax}")
    ratio = _ratio_table(g)
    dp = kernels.family_minmax_dp(ratio, kmax)
    rank = _subset_rank(g.n)
    out = []
    for k in range(1, kmax + 1):
        masks = _reconstruct_family(ratio, dp, k, g.n, rank)
        out.append((float(dp[k, (1 << g.n) - 1]),
                    tuple(_mask_to_subset(m) for m in masks)))
    return out


def multiway_cheeger_values(g: Graph) -> list[float]:
    """Exact h_1..h_n, the values of `multiway_cheeger_all(g)` bit for bit:
    the DP to layer ceil(n/2), then for each larger k the least over masks M
    of max(dp[floor(k/2)][M], dp[ceil(k/2)][V - M]), which takes min and max
    of the same floats."""
    dp = kernels.family_minmax_dp(_ratio_table(g), (g.n + 1) // 2)
    values = dp[1:, -1].tolist()
    for k in range(len(values) + 1, g.n + 1):
        # dp[j][::-1][M] is dp[j][V - M]
        values.append(float(np.maximum(dp[k // 2], dp[k - k // 2][::-1]).min()))
    return values


def multiway_cheeger_greedy(g: Graph, k: int):
    """Heuristic upper bound for n beyond the exact cap.  NOT exact.

    Orders vertices by the second eigenvector of the p=2 pair and splits the
    order into k contiguous blocks.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must satisfy 1 <= k <= {g.n}, got {k}")
    from .eigensolver import solve_p2_spectrum
    if k == 1:
        fam = (frozenset(range(1, g.n + 1)),)
        return max(cut_ratio(g, s) for s in fam), fam
    fiedler = solve_p2_spectrum(g).pairs[1].f
    order = np.argsort(fiedler, kind="stable")
    blocks = np.array_split(order, k)
    fam = tuple(frozenset(int(v) + 1 for v in b) for b in blocks)
    return max(cut_ratio(g, s) for s in fam), fam


def sweep_cut(g: Graph, f, p: float):
    """Best threshold set A = {u : |f(u)|^p > t} over all distinct thresholds.

    Only the n distinct values of |f(u)|^p (plus 0) matter since the
    threshold set is piecewise constant in t.  The returned cut always
    satisfies c(A) <= p * R_p(f)^(1/p) * (tau/2)^(1/q).
    """
    arr = plaplacian._as_vertex_function(g, f)
    levels = np.abs(arr) ** p
    if np.max(levels) == 0.0:
        raise ValueError("sweep cut undefined for the zero function")
    member = np.zeros(g.n, dtype=bool)
    order = sorted(range(g.n), key=lambda u: (-levels[u], u))
    adj_w = [{} for _ in range(g.n)]
    for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w):
        adj_w[u][int(v)] = w
        adj_w[v][int(u)] = w
    best_c = np.inf
    best_prefix = 0
    cut = 0.0
    mass = 0.0
    for i, u in enumerate(order):
        if levels[u] == 0.0:
            break
        for v, w in adj_w[u].items():
            cut += -w if member[v] else w
        member[u] = True
        mass += g.mu[u]
        last_of_level = i + 1 == g.n or levels[order[i + 1]] < levels[u]
        if last_of_level:
            c = cut / mass
            if c < best_c:
                best_c = c
                best_prefix = i + 1
    subset = frozenset(int(u) + 1 for u in order[:best_prefix])
    # the running sums pick the set; its ratio is recomputed, so that the
    # whole vertex set reads c(V) = 0 rather than their rounding
    return subset, cut_ratio(g, subset)


def sweep_bound(g: Graph, f, p: float) -> float:
    """p * R_p(f)^(1/p) * (tau/2)^(1/q) with q the Holder conjugate of p."""
    if p <= 1:
        raise ValueError(f"sweep bound requires p > 1, got {p}")
    q = p / (p - 1.0)
    r = plaplacian.rayleigh_quotient(g, f, p)
    return p * r ** (1.0 / p) * (tau(g) / 2.0) ** (1.0 / q)


def upper_bound(p: float, h_k: float) -> float:
    """The paper's upper bound 2^(p-1) h_k on lambda_k."""
    return 2.0 ** (p - 1.0) * h_k


def lower_bound(p: float, t: float, h_m: float) -> float:
    """The paper's lower bound (2/tau)^(p-1) (h_m/p)^p on lambda_k; 0.0 at
    h_m = 0, as the formula gives for tau > 0 (edgeless graphs have tau = 0)."""
    if h_m == 0.0:
        return 0.0
    return (2.0 / t) ** (p - 1.0) * (h_m / p) ** p


def bound_tol(lam: float) -> float:
    """Pass tolerance of either side of the bound: 1e-9 + 1e-6 |lambda|."""
    return BOUND_TOL_BASE + 1e-6 * abs(lam)


@dataclass(frozen=True)
class CheegerCertificate:
    """One instance of the two-sided bound linking lambda_k to h_k and h_m."""
    p: float
    k: int
    lam: float
    m: int          # strong nodal domain count of the k-th eigenfunction
    h_k: float
    h_m: float
    tau: float
    lower: float    # (2/tau)^(p-1) (h_m/p)^p
    upper: float    # 2^(p-1) h_k
    lower_ok: bool
    upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def certify_cheeger(spectrum: "Spectrum",
                    hk: Sequence | None = None) -> list[CheegerCertificate]:
    """Evaluate the two-sided isoperimetric bound for every pair in a spectrum.

    Pass tolerance is `bound_tol` on each side, and m is each pair's strong
    count from `spectrum.decompositions`.  hk may carry the list h_1..h_n
    that `multiway_cheeger_values(g)` returns, to avoid re-enumeration.
    """
    g = spectrum.graph
    p = spectrum.p
    if p <= 1:
        raise ValueError("the two-sided bound is certified for p > 1 only")
    for pair in spectrum.pairs:
        if pair.residual > plaplacian.RESIDUAL_LIMIT:
            raise ValueError(f"pair residual {pair.residual:.3g} exceeds "
                             f"{plaplacian.RESIDUAL_LIMIT:g}")
    if hk is None:
        hk = multiway_cheeger_values(g)
    t = tau(g)
    certs = []
    for i, pair in enumerate(spectrum.pairs):
        k = i + 1
        m = spectrum.decompositions[i][0].count
        h_k = float(hk[k - 1])
        h_m = float(hk[m - 1])
        lower = lower_bound(p, t, h_m)
        upper = upper_bound(p, h_k)
        tol = bound_tol(pair.lam)
        certs.append(CheegerCertificate(
            p=p, k=k, lam=float(pair.lam), m=m, h_k=h_k, h_m=h_m, tau=t,
            lower=lower, upper=upper,
            lower_ok=bool(lower - tol <= pair.lam),
            upper_ok=bool(pair.lam <= upper + tol),
        ))
    return certs
