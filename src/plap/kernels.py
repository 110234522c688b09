"""Hot inner loops, compiled with numba when available.

Set ``PLAP_NO_NUMBA=1`` to force the pure numpy/Python fallback path; the
fallback is also selected automatically when numba is not importable.
``plap.benchmark`` times both paths side by side.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("PLAP_NO_NUMBA", "0").strip().lower()
NUMBA_DISABLED = _flag not in ("", "0", "false", "no")

HAVE_NUMBA = False
if not NUMBA_DISABLED:
    try:
        from numba import njit as _njit
        HAVE_NUMBA = True
    except ImportError:
        pass

USE_NUMBA = HAVE_NUMBA


# ---------------------------------------------------------------------------
# p-Laplacian application: out[u] = sum_v w(uv) |f(u)-f(v)|^(p-2) (f(u)-f(v))

def _plap_apply_loop(eu, ev, ew, f, p, n):
    out = np.zeros(n)
    for i in range(eu.shape[0]):
        d = f[eu[i]] - f[ev[i]]
        if d > 0.0:
            t = ew[i] * d ** (p - 1.0)
        elif d < 0.0:
            t = -ew[i] * (-d) ** (p - 1.0)
        else:
            t = 0.0
        out[eu[i]] += t
        out[ev[i]] -= t
    return out


def plap_apply_numpy(eu, ev, ew, f, p, n):
    d = f[eu] - f[ev]
    t = ew * np.sign(d) * np.abs(d) ** (p - 1.0)
    return (np.bincount(eu, weights=t, minlength=n)
            - np.bincount(ev, weights=t, minlength=n))


# ---------------------------------------------------------------------------
# Rayleigh quotient pieces

def _dirichlet_loop(eu, ev, ew, f, p):
    acc = 0.0
    for i in range(eu.shape[0]):
        acc += ew[i] * abs(f[eu[i]] - f[ev[i]]) ** p
    return acc


def dirichlet_numpy(eu, ev, ew, f, p):
    return float(np.sum(ew * np.abs(f[eu] - f[ev]) ** p))


def weighted_pnorm_pow(mu, f, p):
    """sum_u mu(u) |f(u)|^p (the p-th power of the weighted norm)."""
    return float(np.sum(mu * np.abs(f) ** p))


# ---------------------------------------------------------------------------
# Half-linear shooting recurrence on the unit path.
#
# With f(1) = 1 and a reflected left boundary (zero first difference), march
#   t_u   = t_{u-1} - lam * phi_p(f(u)),    t_0 = 0
#   f(u+1)= f(u) + phi_q(t_u),              1/p + 1/q = 1
# The returned defect t_n = t_{n-1} - lam * phi_p(f(n)) vanishes exactly at
# eigenvalues (zero difference across the right boundary).  Generalized zeros
# are intervals (a, a+1] with f(a) != 0 and f(a) f(a+1) <= 0.

def _shoot_loop(n, p, lam):
    qm1 = 1.0 / (p - 1.0)  # q - 1 for the inverse kernel
    f = np.empty(n)
    f[0] = 1.0
    t = 0.0
    zeros = 0
    for i in range(n - 1):
        fi = f[i]
        if fi > 0.0:
            t -= lam * fi ** (p - 1.0)
        elif fi < 0.0:
            t += lam * (-fi) ** (p - 1.0)
        if t > 0.0:
            f[i + 1] = fi + t ** qm1
        elif t < 0.0:
            f[i + 1] = fi - (-t) ** qm1
        else:
            f[i + 1] = fi
        if fi != 0.0 and fi * f[i + 1] <= 0.0:
            zeros += 1
    fn = f[n - 1]
    if fn > 0.0:
        defect = t - lam * fn ** (p - 1.0)
    elif fn < 0.0:
        defect = t + lam * (-fn) ** (p - 1.0)
    else:
        defect = t
    return f, defect, zeros


# ---------------------------------------------------------------------------
# Subset tables for the multiway cut-ratio enumeration (n <= 14).
# cut[mask]  = total weight of edges leaving the subset encoded by mask
# mass[mask] = mu measure of the subset

def _subset_tables_loop(n, eu, ev, ew, mu):
    size = 1 << n
    cut = np.zeros(size)
    mass = np.zeros(size)
    for mask in range(size):
        c = 0.0
        for i in range(eu.shape[0]):
            if ((mask >> eu[i]) & 1) != ((mask >> ev[i]) & 1):
                c += ew[i]
        cut[mask] = c
        s = 0.0
        for u in range(n):
            if (mask >> u) & 1:
                s += mu[u]
        mass[mask] = s
    return cut, mass


def subset_tables_numpy(n, eu, ev, ew, mu):
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    mass = bits @ mu
    cut = (np.abs(bits[:, eu] - bits[:, ev]) * ew).sum(axis=1)
    return cut, mass


# ---------------------------------------------------------------------------
# Min-max packing over disjoint nonempty subsets:
# dp[j, mask] = min over j pairwise-disjoint nonempty subsets inside mask of
# the largest ratio[s].  ratio[s] is the cut ratio of subset s against the
# whole graph, so dp[k, full] is the k-way isoperimetric constant.

def _family_dp_loop(ratio, kmax):
    size = ratio.shape[0]
    dp = np.full((kmax + 1, size), np.inf)
    dp[0, :] = 0.0
    for j in range(1, kmax + 1):
        prev = dp[j - 1]
        cur = dp[j]
        for mask in range(1, size):
            best = np.inf
            s = mask
            while s:
                r = ratio[s]
                if r < best:
                    rest = prev[mask ^ s]
                    v = rest if rest > r else r
                    if v < best:
                        best = v
                s = (s - 1) & mask
            cur[mask] = best
    return dp


# The numpy version splits each mask into its high bits and its low
# L = min(n, 8) bits.  The (mask, submask) pairs of the low bits form a fixed
# table of 3^L entries grouped by mask, so one (high mask, high submask) pair
# costs one gather, one maximum and one reduceat over that table, and every
# temporary stays at 3^L elements.  Only min and max are taken, so the table
# is bit-identical to the loop's.

LOW_BITS = 8


def _low_submask_pairs(low):
    """Every (mask, submask) pair of `low` bits, grouped by ascending mask.

    Returns the submasks, their complements within the mask, and the start
    of each mask's group (every group holds at least the empty submask).
    """
    width = 1 << low
    ids = np.arange(width)
    mask, sub = np.nonzero((ids[None, :] & ~ids[:, None]) == 0)
    return sub, mask ^ sub, np.searchsorted(mask, ids)


def family_dp_numpy(ratio, kmax):
    size = ratio.shape[0]
    low = min(size.bit_length() - 1, LOW_BITS)
    sub, rest, starts = _low_submask_pairs(low)
    # the low-bit table holds the empty submask, which is no family member
    r = ratio.copy()
    r[0] = np.inf
    r = r.reshape(-1, 1 << low)
    dp = np.full((kmax + 1, size), np.inf)
    dp[0, :] = 0.0
    ratio_part = np.empty(sub.shape[0])
    vals = np.empty(sub.shape[0])
    for j in range(1, kmax + 1):
        prev = dp[j - 1].reshape(r.shape)
        cur = dp[j].reshape(r.shape)
        for hi in range(r.shape[0]):
            out = cur[hi]
            hs = hi
            while True:
                np.take(r[hs], sub, out=ratio_part)
                np.take(prev[hi ^ hs], rest, out=vals)
                np.maximum(ratio_part, vals, out=vals)
                np.minimum(out, np.minimum.reduceat(vals, starts), out=out)
                if hs == 0:
                    break
                hs = (hs - 1) & hi
    return dp


if HAVE_NUMBA:
    _plap_apply_numba = _njit(cache=True)(_plap_apply_loop)
    _dirichlet_numba = _njit(cache=True)(_dirichlet_loop)
    _shoot_numba = _njit(cache=True)(_shoot_loop)
    _subset_tables_numba = _njit(cache=True)(_subset_tables_loop)
    _family_dp_numba = _njit(cache=True)(_family_dp_loop)

if USE_NUMBA:
    plap_apply = _plap_apply_numba
    dirichlet = _dirichlet_numba
    path_shoot_core = _shoot_numba
    subset_tables = _subset_tables_numba
    family_minmax_dp = _family_dp_numba
else:
    plap_apply = plap_apply_numpy
    dirichlet = dirichlet_numpy
    path_shoot_core = _shoot_loop
    subset_tables = subset_tables_numpy
    family_minmax_dp = family_dp_numpy


def warmup() -> None:
    """Trigger JIT compilation of every selected kernel on tiny inputs."""
    eu = np.array([0], dtype=np.int64)
    ev = np.array([1], dtype=np.int64)
    ew = np.array([1.0])
    f = np.array([1.0, -1.0])
    mu = np.array([1.0, 1.0])
    plap_apply(eu, ev, ew, f, 2.0, 2)
    dirichlet(eu, ev, ew, f, 2.0)
    path_shoot_core(3, 2.0, 1.0)
    cut, _ = subset_tables(2, eu, ev, ew, mu)
    family_minmax_dp(np.where(np.arange(4) > 0, 1.0, np.inf), 2)
