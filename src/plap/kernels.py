"""Hot inner loops of the solvers and the h_k enumeration, in numpy and Python.

Callers look each kernel up as a module attribute (``kernels.plap_apply``),
so a tracer can count calls by replacing the attribute.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# Scratch arrays kept between calls and grown on demand, so that repeated
# calls fault in no memory.  No caller returns a view of one, and the uses
# of one name never overlap ("edges_a" and "edges_b" serve `subset_tables`
# and `nodal.nodal_space_max_rq`), so two threads must not run them at once.
# Within the exact h_k cap (n <= 14) they hold at most 5.31 MB.
_work: dict[str, np.ndarray] = {}


def work(name, shape):
    """An uninitialized float64 array of shape over the kept buffer name."""
    size = math.prod(shape)
    buf = _work.get(name)
    if buf is None or buf.size < size:
        buf = _work[name] = np.empty(size)
    return buf[:size].reshape(shape)


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
# Masks go SUBSET_BLOCK at a time through kept work arrays.  Each mask sums
# its edges one after another, as the F-order `bits[:, eu]` of the one-pass
# reference (`tests/oracles.subset_tables_dense`) does; a C-order (masks,
# edges) row sum would add pairwise and move last bits.

SUBSET_BLOCK = 1 << 10


def subset_tables(n, eu, ev, ew, mu):
    size = 1 << n
    cut = np.empty(size)
    mass = np.empty(size)
    rows = min(size, SUBSET_BLOCK)
    shifts = np.arange(n)[:, None]
    bits_t = work("subset_bits_t", (n, rows))
    bits = work("subset_bits", (rows, n))
    a = work("edges_a", (eu.shape[0], rows))
    b = work("edges_b", a.shape)
    for start in range(0, size, rows):
        bits_t[...] = (np.arange(start, start + rows) >> shifts) & 1
        bits[...] = bits_t.T
        np.matmul(bits, mu, out=mass[start:start + rows])
        bits_t.take(eu, axis=0, out=a, mode="clip")
        bits_t.take(ev, axis=0, out=b, mode="clip")
        a -= b
        np.abs(a, out=a)
        a *= ew[:, None]
        a.sum(axis=0, out=cut[start:start + rows])
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
# lowbit(lo) in ls form a fixed table of (3^L - 1) / 2 entries grouped by lo.
# A step (hi, hs) of layer j reads e[j-1] at (hi ^ hs, lo ^ ls), which is
# finite only if that mask holds at least j - 1 bits, since a family of
# j - 1 disjoint nonempty subsets needs j - 1 vertices.  So the step runs
# over the pairs with popcount(lo ^ ls) >= c = j - 1 - popcount(hi ^ hs)
# only (`_low_tables`), and none at all once c >= L.  The steps of one high
# mask that share c are gathered, maximized and minimized into one buffer,
# and one reduceat over the lo groups ends them.  For a zero low part the
# lowest vertex is high, and the few high submasks holding it are walked as
# scalars.  Only min and max are taken, so the table is bit-identical to a
# plain submask walk (`tests/oracles.family_dp_loop`); ratio[0] is never read.

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


@functools.lru_cache(maxsize=1)
def _low_tables(low):
    """`_low_submask_pairs(low)` split by threshold, for c = 0 .. low - 1.

    Table c is (ls, lo ^ ls, group starts, group lo) over the pairs with
    popcount(lo ^ ls) >= c, still grouped by ascending lo; a group is kept
    iff popcount(lo) > c, since ls holds lowbit(lo).  Built on first use and
    kept for the last `low` only: about 0.55 MB at low = 9.
    """
    sub, rest, _ = _low_submask_pairs(low)
    lo = sub | rest
    bits = np.zeros_like(rest)
    for i in range(low):
        bits += (rest >> i) & 1
    tables = []
    for c in range(low):
        keep = bits >= c
        group_lo = lo[keep]
        starts = np.flatnonzero(np.diff(group_lo, prepend=0))
        tables.append((sub[keep], rest[keep], starts, group_lo[starts]))
    return tables


def family_minmax_dp(ratio, kmax):
    size = ratio.shape[0]
    low = min(size.bit_length() - 1, LOW_BITS)
    tables = _low_tables(low)
    r = ratio.reshape(-1, 1 << low)
    n_hi = r.shape[0]
    r_col0 = r[:, 0].tolist()
    e = np.full((kmax + 1, size), np.inf)
    e[0, 0] = 0.0
    # one subset: e[1][mask] = max(ratio[mask], e[0][0])
    np.maximum(ratio[1:], 0.0, out=e[1, 1:])
    # leftovers[hi][b]: the high parts d = hi ^ hs of b bits that a step
    # (hi, hs) leaves over
    leftovers = []
    for hi in range(n_hi):
        by_bits = [[] for _ in range(hi.bit_count() + 1)]
        d = hi
        while True:
            by_bits[d.bit_count()].append(d)
            if d == 0:
                break
            d = (d - 1) & hi
        leftovers.append(by_bits)
    m = tables[0][0].shape[0]
    va, vb, acc = np.empty(m), np.empty(m), np.empty(m)
    for j in range(2, kmax + 1):
        prev = e[j - 1].reshape(r.shape)
        cur = e[j].reshape(r.shape)
        prev_col0 = prev[:, 0].tolist()
        for hi in range(n_hi):
            if hi.bit_count() + low < j:
                continue
            row = cur[hi]
            for b_hi, ds in enumerate(leftovers[hi]):
                c = j - 1 - b_hi
                if c >= low:
                    continue
                sub, rest, starts, los = tables[max(c, 0)]
                m = sub.shape[0]
                a, b, best = va[:m], vb[:m], acc[:m]
                # mode="clip" skips the buffered copy that take makes for
                # out= in its default mode; every index is in range
                for i, d in enumerate(ds):
                    r[hi ^ d].take(sub, out=a, mode="clip")
                    prev[d].take(rest, out=b, mode="clip")
                    if i == 0:
                        np.maximum(a, b, out=best)
                    else:
                        np.maximum(a, b, out=b)
                        np.minimum(best, b, out=best)
                red = np.minimum.reduceat(best, starts)
                if c <= 0:  # table 0 has a group for every lo = 1 .. 2^L - 1
                    np.minimum(row[1:], red, out=row[1:])
                else:
                    row[los] = np.minimum(row[los], red)
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
