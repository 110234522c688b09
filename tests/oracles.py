"""Independent oracles the solvers are checked against.

Everything here sticks to first principles (closed forms, exact polynomial
arithmetic, finite differences, unpruned enumeration) and never calls the
code paths under test.
"""

from fractions import Fraction

import numpy as np

from plap import rayleigh_quotient
from plap.one_laplacian import (
    EigenvalueRecord,
    OrderPattern,
    _integer_graph,
    _level_sums,
    _levels_feasible,
    _pinned_lambda,
    _rational_graph,
)
from plap.simplex import lp_solve


def p2_path_eigenvalues(n):
    """Closed form 2 - 2 cos(pi (k-1)/n) for the unit path, k = 1..n."""
    return [2.0 - 2.0 * np.cos(np.pi * k / n) for k in range(n)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for j, bj in enumerate(b):
        out[j] -= bj
    return out


def path_p2_charpoly(n):
    """Characteristic polynomial of the unit-path p=2 operator, exactly.

    Uses the tridiagonal determinant recurrence d_k = (a_k - x) d_{k-1} -
    d_{k-2} with integer diagonal (1, 2, ..., 2, 1); coefficients ascending.
    """
    diag = [1] + [2] * (n - 2) + [1]
    d_prev = [Fraction(1)]
    d = [Fraction(diag[0]), Fraction(-1)]  # a_1 - x
    for k in range(1, n):
        term = _poly_mul([Fraction(diag[k]), Fraction(-1)], d)
        d, d_prev = _poly_sub(term, d_prev), d
    return d


def charpoly_roots(coeffs):
    """Real roots of an exact polynomial via numpy on descending floats."""
    desc = [float(c) for c in reversed(coeffs)]
    roots = np.roots(desc)
    return sorted(float(r.real) for r in roots)


def cut_ratio_direct(g, members):
    """Boundary-over-measure from a plain edge loop (no subset tables)."""
    boundary = 0.0
    for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w):
        if members[u] != members[v]:
            boundary += w
    return boundary / float(np.sum(g.mu[members]))


def subset_tables_dense(n, eu, ev, ew, mu):
    """kernels.subset_tables in one pass over the whole (2^n, m) difference
    matrix."""
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    mass = bits @ mu
    cut = (np.abs(bits[:, eu] - bits[:, ev]) * ew).sum(axis=1)
    return cut, mass


def naive_multiway(g, kmax):
    """Unpruned enumeration of families of disjoint nonempty subsets.

    Families are walked in canonical order (increasing minimum element per
    subset), so each family of each size appears exactly once.  Returns
    best[k] for k = 1..kmax.
    """
    n = g.n
    full = (1 << n) - 1
    ratio = {}
    for mask in range(1, full + 1):
        members = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        ratio[mask] = cut_ratio_direct(g, members)
    best = [np.inf] * (kmax + 1)

    def rec(avail, depth, cur_max, min_v):
        if depth >= 1:
            best[depth] = min(best[depth], cur_max)
        if depth == kmax:
            return
        for v in range(min_v, n):
            if not (avail >> v) & 1:
                continue
            higher = avail & ~((1 << (v + 1)) - 1)
            sub = higher
            while True:
                s = (1 << v) | sub
                rec(avail & ~s, depth + 1, max(cur_max, ratio[s]), v + 1)
                if sub == 0:
                    break
                sub = (sub - 1) & higher

    rec(full, 0, 0.0, 0)
    return best[1:]


def family_dp_loop(ratio, kmax):
    """Min-max family table by a plain submask walk per mask.

    The reference for `kernels.family_minmax_dp`: dp[j, mask] is the
    smallest largest ratio over j disjoint nonempty subsets inside mask.
    """
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


def shoot_array(n, p, lam):
    """The unit-path shooting recurrence marched in a float64 array.

    The reference for `kernels.path_shoot_core`, which marches Python
    floats: returns (f, boundary defect, generalized-zero count).
    """
    qm1 = 1.0 / (p - 1.0)
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


def subset_key(mask):
    """The sorted vertex tuple of a mask (vertices counted from 1)."""
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def reconstruct_family_loop(ratio, dp, k, n):
    """Lexicographically smallest optimal family (masks) by a submask walk.

    The reference for the vectorized reconstruction: walk every nonempty
    submask of the remaining mask, keep those that fit under dp[k, full],
    and take the one whose sorted vertex tuple is smallest.
    """
    target = dp[k, (1 << n) - 1]
    mask = (1 << n) - 1
    chosen = []
    for j in range(k, 0, -1):
        subs = []
        s = mask
        while s:
            if ratio[s] <= target and dp[j - 1, mask ^ s] <= target:
                subs.append(s)
            s = (s - 1) & mask
        pick = min(subs, key=subset_key)
        chosen.append(pick)
        mask ^= pick
    chosen.sort(key=subset_key)
    return chosen


def ordered_partitions(n):
    """All weak orderings of vertices 0..n-1 as (levels, m), depth first.

    Vertex u joins each current block in rank order, then opens a new block
    at each rank 0..m; levels[v] is the rank of v's block.
    """
    out = []

    def rec(u, blocks):
        if u == n:
            levels = [0] * n
            for rank, blk in enumerate(blocks):
                for v in blk:
                    levels[v] = rank
            out.append((tuple(levels), len(blocks)))
            return
        for blk in blocks:
            blk.append(u)
            rec(u + 1, blocks)
            blk.pop()
        for pos in range(len(blocks) + 1):
            blocks.insert(pos, [u])
            rec(u + 1, blocks)
            del blocks[pos]

    rec(0, [])
    return out


def pattern_lambda_range_lp(mu, edges, n, pat):
    """Feasible lambda interval of one order pattern by two full LPs, or None.

    The reference for the level-sum pinning: lambda is an LP variable, each
    zero vertex carries a split y = a - b with |y| <= lambda encoding
    lambda s(u), and the interval ends are min and max lambda.
    """
    def vertex_sign(u):
        return pat.level_sign(pat.levels[u])

    zero, one, two = Fraction(0), Fraction(1), Fraction(2)
    free_z = [i for i, (u, v, _) in enumerate(edges)
              if pat.levels[u] == pat.levels[v]]
    z_col = {e: j for j, e in enumerate(free_z)}
    lam_col = len(free_z)
    zero_vs = [u for u in range(n) if vertex_sign(u) == 0]
    a_col = {u: lam_col + 1 + 2 * j for j, u in enumerate(zero_vs)}
    nvars = lam_col + 1 + 2 * len(zero_vs)

    rows, rhs = [], []
    for u in range(n):
        row = [zero] * nvars
        const = zero
        for i, (a, b, w) in enumerate(edges):
            if a == u:
                orient = one
            elif b == u:
                orient = -one
            else:
                continue
            if i in z_col:
                row[z_col[i]] += orient * w
                const += orient * w
            else:
                sig = one if pat.levels[a] > pat.levels[b] else -one
                const -= orient * w * sig
        sgn = vertex_sign(u)
        if sgn != 0:
            row[lam_col] -= mu[u] * sgn
        else:
            row[a_col[u]] -= mu[u]
            row[a_col[u] + 1] += mu[u]
        rows.append(row)
        rhs.append(const)
    ineq = []  # (row, rhs, sign of its slack/surplus column)
    for j in range(len(free_z)):
        row = [zero] * nvars
        row[j] = one
        ineq.append((row, two, one))          # x_e + slack = 2
    for u in zero_vs:
        for side in (-one, one):              # lambda +- (a - b) - slack = 0
            row = [zero] * nvars
            row[lam_col] = one
            row[a_col[u]] = side
            row[a_col[u] + 1] = -side
            ineq.append((row, zero, -one))
    extra = len(ineq)
    padded = [row + [zero] * extra for row in rows]
    full_rhs = list(rhs)
    for i, (row, rv, sign) in enumerate(ineq):
        prow = row + [zero] * extra
        prow[nvars + i] = sign
        padded.append(prow)
        full_rhs.append(rv)
    total = nvars + extra
    cmin = [zero] * total
    cmin[lam_col] = one
    res_min = lp_solve(padded, full_rhs, cmin)
    if res_min.status != "optimal":
        return None
    cmax = [zero] * total
    cmax[lam_col] = -one
    res_max = lp_solve(padded, full_rhs, cmax)
    assert res_max.status == "optimal", "lambda unbounded for a nonzero pattern"
    return res_min.value, -res_max.value


def flip_pattern(levels, m, zero_pos):
    """The ordering and zero position of -f for a pattern of f."""
    flipped = tuple(m - 1 - lev for lev in levels)
    return flipped, 2 * m - zero_pos


def enumerate_1lap_lp(g):
    """enumerate_1lap_eigenvalues with every pattern decided by two full LPs.

    The weak orderings come from the recursion above, and every pattern is
    offered, so nothing here shares code with the enumerator's screen.
    """
    mu, edges = _rational_graph(g)
    records = []
    for levels, m in ordered_partitions(g.n):
        for zero_pos in range(2 * m + 1):
            if m == 1 and zero_pos == 1:
                continue
            if (levels, zero_pos) > flip_pattern(levels, m, zero_pos):
                continue
            pat = OrderPattern(levels=levels, m=m, zero_pos=zero_pos)
            rng = pattern_lambda_range_lp(mu, edges, g.n, pat)
            if rng is not None:
                records.append(EigenvalueRecord(lo=rng[0], hi=rng[1], pattern=pat))
    records.sort(key=lambda r: (r.lo, r.hi))
    return records


def enumerate_1lap_every_position(g):
    """enumerate_1lap_eigenvalues with every zero position of every ordering
    offered to the module's own pinned-lambda and cut tests.

    The orderings and zero positions are independent of the code under test,
    and no pattern goes through its level-sum screen.
    """
    mu, edges = _integer_graph(g)
    records = []
    for levels, m in ordered_partitions(g.n):
        net, mass = _level_sums(levels, m, mu, edges)
        for zero_pos in range(2 * m + 1):
            if m == 1 and zero_pos == 1:
                continue
            if (levels, zero_pos) > flip_pattern(levels, m, zero_pos):
                continue
            pat = OrderPattern(levels=levels, m=m, zero_pos=zero_pos)
            lam = _pinned_lambda(net, mass, pat)
            if lam is not None and _levels_feasible(pat, lam, mu, edges):
                records.append(EigenvalueRecord(lo=lam, hi=lam, pattern=pat))
    records.sort(key=lambda r: (r.lo, r.hi))
    return records


def fd_gradient(g, f, p, h=1e-6):
    """Central finite differences of the Rayleigh quotient."""
    f = np.asarray(f, dtype=np.float64)
    out = np.empty(len(f))
    for u in range(len(f)):
        fp = f.copy()
        fp[u] += h
        fm = f.copy()
        fm[u] -= h
        out[u] = (rayleigh_quotient(g, fp, p) - rayleigh_quotient(g, fm, p)) / (2 * h)
    return out
