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
# Masks go SUBSET_BLOCK at a time, so the (masks, edges) difference matrix
# stays small; each row is summed as it would be in one whole-table pass.

SUBSET_BLOCK = 1 << 10


def subset_tables(n, eu, ev, ew, mu):
    size = 1 << n
    cut = np.empty(size)
    mass = np.empty(size)
    shifts = np.arange(n)
    for start in range(0, size, SUBSET_BLOCK):
        stop = min(start + SUBSET_BLOCK, size)
        masks = np.arange(start, stop, dtype=np.int64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        mass[start:stop] = bits @ mu
        cut[start:stop] = (np.abs(bits[:, eu] - bits[:, ev]) * ew).sum(axis=1)
    return cut, mass


# ---------------------------------------------------------------------------
# Min-max packing over disjoint nonempty subsets:
# dp[j, mask] = min over j pairwise-disjoint nonempty subsets inside mask of
# the largest ratio[s].  ratio[s] is the cut ratio of subset s against the
# whole graph, so dp[k, full] is the k-way isoperimetric constant.

# e[j, mask] is the best family of j subsets whose union is exactly mask:
#   e[0] = [0, inf, ...],
#   e[j][mask] = min over s <= mask with lowbit(mask) in s of
#                max(ratio[s], e[j-1][mask ^ s]).
# Fixing the subset that holds the lowest vertex visits every family once
# instead of once per member, about 3^n / 2 (mask, submask) pairs per layer.
# dp[j] is then the minimum of e[j] over submasks: one np.minimum per bit
# over the whole table (a subset-min zeta transform).
#
# Each mask splits into its high bits and its low L = min(n, 9) bits.  For a
# nonzero low part the lowest vertex is low, and the (lo, ls) pairs with
# lowbit(lo) in ls form a fixed table of (3^L - 1) / 2 entries grouped by lo;
# one (high mask, high submask) pair costs one gather, one maximum and one
# reduceat over it.  For a zero low part the lowest vertex is high, and the
# few high submasks holding it are walked as scalars.  Only min and max are
# taken, so the table is bit-identical to a plain submask walk
# (`tests/oracles.family_dp_loop`); ratio[0] is never read.

LOW_BITS = 9


def _low_submask_pairs(low):
    """The (lo, ls) pairs of `low` bits with lo != 0 and lowbit(lo) in ls.

    Returns the submasks ls, their complements lo ^ ls, and the start of each
    lo group for lo = 1 .. 2^low - 1.  Group lo holds lowbit(lo) plus each of
    the 2^(popcount(lo) - 1) submasks of its other bits, dealt from the
    group index one bit at a time, so no sort and no 2^low x 2^low temporary
    is needed.
    """
    lo = np.arange(1, 1 << low)
    first = lo & -lo
    others = lo ^ first
    sizes = np.ones_like(lo)
    for i in range(low):
        sizes <<= (others >> i) & 1
    starts = np.cumsum(sizes) - sizes
    lo = np.repeat(lo, sizes)
    others = np.repeat(others, sizes)
    index = np.arange(lo.shape[0]) - np.repeat(starts, sizes)
    ls = np.repeat(first, sizes)
    for i in range(low):
        bit = (others >> i) & 1
        ls |= (index & bit) << i
        index >>= bit
    return ls, lo ^ ls, starts


def family_minmax_dp(ratio, kmax):
    size = ratio.shape[0]
    low = min(size.bit_length() - 1, LOW_BITS)
    sub, rest, starts = _low_submask_pairs(low)
    r = ratio.reshape(-1, 1 << low)
    n_hi = r.shape[0]
    part = r[:, sub]
    r_col0 = r[:, 0].tolist()
    e = np.full((kmax + 1, size), np.inf)
    e[0, 0] = 0.0
    vals = np.empty(sub.shape[0])
    for j in range(1, kmax + 1):
        prev = e[j - 1].reshape(r.shape)
        cur = e[j].reshape(r.shape)
        # e[j-1] is inf on masks of fewer than j - 1 bits, and e[0] off mask 0;
        # a step over such a row only gives inf
        live = [h == 0 if j == 1 else h.bit_count() + low >= j - 1
                for h in range(n_hi)]
        prev_col0 = prev[:, 0].tolist()
        for hi in range(n_hi):
            if hi.bit_count() + low < j:
                continue
            out = cur[hi, 1:]
            hs = hi
            while True:
                if live[hi ^ hs]:
                    np.take(prev[hi ^ hs], rest, out=vals)
                    np.maximum(part[hs], vals, out=vals)
                    np.minimum(out, np.minimum.reduceat(vals, starts), out=out)
                if hs == 0:
                    break
                hs = (hs - 1) & hi
            if hi == 0 or hi.bit_count() < j:
                continue
            # low part empty: the subset holding lowbit(hi) has no low bits
            first = hi & -hi
            others = hi ^ first
            best = np.inf
            t = others
            while True:
                a = r_col0[first | t]
                b = prev_col0[others ^ t]
                v = a if a > b else b
                if v < best:
                    best = v
                if t == 0:
                    break
                t = (t - 1) & others
            cur[hi, 0] = best
    # dp[j, mask] = min of e[j] over the submasks of mask
    for i in range(size.bit_length() - 1):
        view = e.reshape(kmax + 1, -1, 2, 1 << i)
        np.minimum(view[:, :, 1], view[:, :, 0], out=view[:, :, 1])
    return e


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
