"""Hot inner loops of the solvers and the h_k enumeration, in numpy and Python.

Callers look each kernel up as a module attribute (``kernels.plap_apply``),
so a tracer can count calls by replacing the attribute.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# p-Laplacian application: out[u] = sum_v w(uv) |f(u)-f(v)|^(p-2) (f(u)-f(v))

def plap_apply(eu, ev, ew, f, p, n):
    d = f[eu] - f[ev]
    t = ew * np.sign(d) * np.abs(d) ** (p - 1.0)
    return (np.bincount(eu, weights=t, minlength=n)
            - np.bincount(ev, weights=t, minlength=n))


# ---------------------------------------------------------------------------
# Rayleigh quotient pieces

def dirichlet(eu, ev, ew, f, p):
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

def path_shoot_core(n, p, lam):
    """(values f(1..n) as a list, boundary defect, generalized-zero count).

    Marches Python floats: a bisection shoots hundreds of times per
    spectrum, and numpy scalars would cost several times the arithmetic.
    Every operation is the IEEE double one a float64 array would see, so
    the results are the same floats.  Where a power overflows, Python
    raises instead of returning inf; the shot is then marched again in
    float64 scalars, which carry inf and nan on as an array would.
    """
    try:
        return _march(n, float(p) - 1.0, float(lam))
    except OverflowError:
        return _march(n, np.float64(p) - 1.0, np.float64(lam))


def _march(n, pm1, lam):
    qm1 = 1.0 / pm1  # q - 1 for the inverse kernel
    fi = 1.0
    f = [fi]
    t = 0.0
    zeros = 0
    for _ in range(n - 1):
        if fi > 0.0:
            t -= lam * fi ** pm1
        elif fi < 0.0:
            t += lam * (-fi) ** pm1
        if t > 0.0:
            nxt = fi + t ** qm1
        elif t < 0.0:
            nxt = fi - (-t) ** qm1
        else:
            nxt = fi
        if fi != 0.0 and fi * nxt <= 0.0:
            zeros += 1
        f.append(nxt)
        fi = nxt
    if fi > 0.0:
        defect = t - lam * fi ** pm1
    elif fi < 0.0:
        defect = t + lam * (-fi) ** pm1
    else:
        defect = t
    return f, defect, zeros


# ---------------------------------------------------------------------------
# Subset tables for the multiway cut-ratio enumeration (n <= 14).
# cut[mask]  = total weight of edges leaving the subset encoded by mask
# mass[mask] = mu measure of the subset

def subset_tables(n, eu, ev, ew, mu):
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

# Each mask splits into its high bits and its low L = min(n, 8) bits.  The
# (mask, submask) pairs of the low bits form a fixed table of 3^L entries
# grouped by mask, so one (high mask, high submask) pair costs one gather, one
# maximum and one reduceat over that table, and every temporary stays at 3^L
# elements.  Only min and max are taken, so the table is bit-identical to a
# plain submask walk (`tests/oracles.family_dp_loop`).

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


def family_minmax_dp(ratio, kmax):
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


def warmup() -> None:
    """Run every kernel once on tiny inputs."""
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
