"""Hot inner loops of the solvers and the h_k enumeration, in numpy and Python.

Callers look each kernel up as a module attribute (``kernels.plap_apply``),
so a tracer can count calls by replacing the attribute.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# Scratch arrays kept between calls and grown on demand, so that repeated
# calls fault in no memory.  Within the exact h_k cap (n <= 14) they hold at
# most 5.74 MB.
_work: dict[str, np.ndarray] = {}


def work(name, shape):
    """An uninitialized float64 array of shape over the kept buffer name.

    Kernels that never run inside one another share names, so the process
    keeps one set of large buffers: "edges_a" and "edges_b" serve
    `subset_tables`, `family_minmax_dp` (as int64 pair codes and leftovers)
    and `nodal.nodal_space_max_rq`, "subset_bits" and "subset_bits_t" the
    first two.  Two threads must not run them at once.
    """
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
#
# Domination.  s is undominated when ratio[s] < ratio[t] for every nonempty
# proper subset t of s.  A member s of a family can give way to a t of ratio
# at most ratio[s]: the family stays disjoint, its largest ratio does not
# rise and it shrinks, so some optimal family has undominated members only
# (where dp is finite).  A subset-min and a drop-one-vertex pass find them.
#
# Recursion.  With h(M) the highest vertex of M, dp[1] is the subset-min of
# ratio and dp[j][M] = min(dp[j][M - h(M)], max(ratio[s], dp[j-1][M - s])
# over undominated s with h(M) in s <= M): no member of a best family holds
# h(M), or the one that does is undominated.  Only min and max of the same
# floats are taken, so the table is bit-identical to a plain submask walk
# (`tests/oracles.family_dp_loop`); ratio[0] is never read.
#
# Pairs.  s meets M = s | r for each leftover r over its free bits, those
# below h(s) outside s.  Up to L = 9 vertices every s is paired (cheaper
# than finding the undominated), from a table kept per n (`_every_pair`:
# 0.34 MB for all n <= 9).  Past L, 7-31% of the pairs remain on the seed-0
# n = 12 benchmark graphs, and layer j runs only over leftovers of >= j - 1
# bits (dp[j-1][r] is inf below that).  `_submasks` lists the leftovers of
# the low L free bits by popcount, once per subset of the free bits above L
# (a segment).  The s go in ascending chunks of about 2^(n+1) pairs, each
# listed by leftover popcount descending, so that layer j reads a prefix.
# Pairs of s read dp only below h(s), so a chunk runs every layer before the
# next, and dp[j][M - h(M)] closes the masks of one highest vertex after its
# last s.  Chunks go through four kept work arrays, so warm calls fault in
# no memory; `_submasks` takes 0.16 MB.  On K14 (every subset undominated) a
# warm `cheeger.multiway_cheeger_values` peaks under 3 MB in tracemalloc.

SUBMASK_BITS = 9
_PAD = 16  # column c + _PAD of `_submasks`'s binomial tables, |c| <= 16


@functools.cache
def _submasks():
    """Every submask of every mask x of L bits, grouped by x and within a
    group by popcount descending; the start of each group; and, flat at
    f * (2 * _PAD + 1) + c + _PAD, the length and offset of the c-bit run of
    any group of an f-bit x (0 outside 0 <= c <= f)."""
    bits = SUBMASK_BITS
    x = np.arange(1 << bits, dtype=np.uint16)  # small first-call temporaries
    size = 1 << np.array([v.bit_count() for v in range(1 << bits)])
    first = np.cumsum(size) - size
    # canon[2^f - 1 + k]: the k-th f-bit mask by popcount descending
    canon = np.array([v for f in range(bits + 1) for v in sorted(
        range(1 << f), key=lambda v: -v.bit_count())], dtype=np.uint16)
    xs = np.repeat(x, size)
    index = canon[np.arange(xs.shape[0]) - np.repeat(first - size + 1, size)]
    sub = np.zeros_like(xs)
    for i in range(bits):  # deal the bits of index to the bits of x
        bit = (xs >> i) & 1
        sub |= (index & bit) << i
        index >>= bit
    sub = sub.astype(np.intp)
    c = np.arange(-_PAD, _PAD + 1)
    count = np.array([[math.comb(f, k) if 0 <= k <= f else 0 for k in c]
                      for f in range(bits + 1)])
    above = np.cumsum(count[:, ::-1], axis=1)[:, ::-1] - count
    return sub, first, count.ravel(), above.ravel()


@functools.cache
def _every_pair(n):
    """Rows M, r, s of the pairs with h(M) in s, r = M - s and M < 2^n."""
    u = r = np.zeros(1, dtype=np.intp)  # every r <= u < 2^h
    blocks = []
    for h in range(n):
        blocks.append(np.stack([u | 1 << h, r, (u ^ r) | 1 << h]))
        u, r = np.tile(u | 1 << h, 3), np.concatenate([r, r, r | 1 << h])
        u[:u.shape[0] // 3] ^= 1 << h
    return np.concatenate(blocks, axis=1)


def _undominated(ratio, least):
    """The masks, ascending, with no nonempty proper subset of ratio at most
    their own, given least[t], the least ratio of a nonempty t' <= t."""
    below = np.full(ratio.shape[0], np.inf)  # over nonempty proper subsets
    for i in range(ratio.shape[0].bit_length() - 1):
        v, w = below.reshape(-1, 2, 1 << i), least.reshape(-1, 2, 1 << i)
        np.minimum(v[:, 1], w[:, 0], out=v[:, 1])
    keep = ratio < below
    keep[1 << np.arange(ratio.shape[0].bit_length() - 1)] = True  # singletons
    keep[0] = False
    return np.flatnonzero(keep)


def family_minmax_dp(ratio, kmax):
    dp = np.full((kmax + 1, ratio.shape[0]), np.inf)
    dp[0] = 0.0
    dp[1, 1:] = ratio[1:]
    n = ratio.shape[0].bit_length() - 1
    for i in range(n):  # dp[1] is the subset-min of ratio
        v = dp[1].reshape(-1, 2, 1 << i)
        np.minimum(v[:, 1], v[:, 0], out=v[:, 1])
    if kmax < 2:
        return dp
    closed = 0
    for m, r, rs, v, ends, done in _pairs(ratio, dp[1]):
        for j in range(2, kmax + 1):
            p = ends[n - j]  # pairs whose leftover holds >= j - 1 bits
            if p:
                dp[j - 1].take(r[:p], out=v[:p], mode="clip")
                np.maximum(v[:p], rs[:p], out=v[:p])
                np.minimum.at(dp[j], m[:p], v[:p])
            for h in range(max(closed, j - 1), done):  # inf below j bits
                row = dp[j, 1 << h:2 << h]  # the M of h(M) = h
                np.minimum(row, dp[j, :1 << h], out=row)
        closed = done
    return dp


def _pairs(ratio, least):
    """Chunks (M, r = M - s, ratio[s], a float scratch, ends, done) of the
    pairs: r holds >= j - 1 bits in the first ends[n - j], and the s of the
    first `done` highest vertices have all come."""
    size = ratio.shape[0]
    n = size.bit_length() - 1
    if n <= SUBMASK_BITS:  # every s, from the table
        m, r, s = _every_pair(n)
        rs = ratio.take(s, out=work("subset_bits_t", s.shape), mode="clip")
        yield m, r, rs, work("edges_a", s.shape), [s.shape[0]] * n, n
        return
    count_bits = np.zeros(size, dtype=np.uint8)  # popcounts
    for i in range(n):
        count_bits[1 << i:2 << i] = count_bits[:1 << i] + 1
    s = _undominated(ratio, least)
    free = ((1 << np.frexp(s)[1]) - 1) ^ s
    pairs = np.cumsum(1 << count_bits.take(free).astype(np.intp))
    cuts = np.searchsorted(pairs, np.arange(2 * size, pairs[-1], 2 * size))
    cuts = [0, *cuts.tolist(), s.shape[0]]
    del pairs
    top_end = np.searchsorted(s, 2 << np.arange(n)).tolist()  # by highest bit
    low = SUBMASK_BITS
    sub, first, count, above = _submasks()
    shift = sub.shape[0].bit_length()  # code: position | segment << shift
    # a chunk ends within the 2^(n-1) pairs of one s past 2^(n+1)
    cap = 2 * size + (size >> 1) + 1
    code, r, m = (work(name, (cap,)).view(np.intp)
                  for name in ("edges_a", "edges_b", "subset_bits"))
    rs = work("subset_bits_t", (cap,))
    rows = np.arange(n - 1, 0, -1)[:, None] + _PAD  # a cell: (popcount, seg)
    for a, b in zip(cuts, cuts[1:]):  # each s has at most 2^(n-1) pairs
        x = free[a:b]  # a segment per subset of the free bits above L
        runs = 1 << count_bits.take(x >> low).astype(np.intp)
        ends = np.cumsum(runs)
        at = np.repeat(first[x >> low] - ends + runs, runs)
        seg_high = sub.take(at + np.arange(ends[-1])) << low
        seg_s = np.repeat(s[a:b], runs)
        x = np.repeat(x, runs) & ((1 << low) - 1)
        cell = count_bits.take(x).astype(np.intp) * (2 * _PAD + 1) + rows
        cell -= count_bits.take(seg_high)
        length = count.take(cell).ravel()
        ends = np.cumsum(length)
        tot = int(ends[-1])
        # codes run up by one inside a cell; a cell adds its jump from the
        # end of the one before it where it starts (empty cells cancel out)
        head = above.take(cell) + first.take(x)
        head = (head + (np.arange(x.shape[0]) << shift)).ravel()
        jump = head - 1
        jump[1:] -= head[:-1] + length[:-1] - 1
        code[:tot + 1] = 1
        np.add.at(code, ends - length, jump)
        np.cumsum(code[:tot], out=code[:tot])
        np.bitwise_and(code[:tot], (1 << shift) - 1, out=m[:tot])
        sub.take(m[:tot], out=r[:tot], mode="clip")
        np.right_shift(code[:tot], shift, out=code[:tot])
        r[:tot] |= seg_high.take(code[:tot], out=m[:tot], mode="clip")
        seg_s.take(code[:tot], out=m[:tot], mode="clip")
        ratio.take(m[:tot], out=rs[:tot], mode="clip")
        m[:tot] |= r[:tot]
        row_end = ends[x.shape[0] - 1::x.shape[0]].tolist()
        done = sum(e <= b for e in top_end)
        yield m, r, rs, code.view(np.float64), row_end, done


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
