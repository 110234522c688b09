"""Independent oracles the solvers are checked against.

Everything here sticks to first principles (closed forms, exact polynomial
arithmetic, finite differences, unpruned enumeration) or is the plain form
of an optimized search (per-space sampling, shot-by-shot bisection, array
decomposition), and never calls the code paths under test.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from plap import kernels, plaplacian, rayleigh_quotient
from plap.eigensolver import PATH_RESIDUAL_TOL, BracketError, Spectrum
from plap.graph import components, is_canonical_path, path_graph
from plap.nodal import MAX_SIGN_PATTERN_DOMAINS, NODAL_SPACE_SAMPLES, NodalDecomposition
from plap.one_laplacian import OneLapCertificate, _integer_graph, _rational_graph, _vertex_net


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


def validate_family(g, subsets):
    """Check a family of k nonempty pairwise-disjoint vertex subsets."""
    fam = [frozenset(int(v) for v in s) for s in subsets]
    if not fam:
        raise ValueError("family must contain at least one subset")
    seen = set()
    for s in fam:
        if not s:
            raise ValueError("family subsets must be nonempty")
        if any(v < 1 or v > g.n for v in s):
            raise ValueError(f"subset vertex out of range 1..{g.n}")
        if seen & s:
            raise ValueError("family subsets must be pairwise disjoint")
        seen |= s
    return fam


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


def exact_multiway_cheeger(g, kmax):
    """Exact h_1..h_kmax as Fractions, by a subset DP on the graph's
    rational measure and weights (`one_laplacian._rational_graph`).

    After round k, best[mask] is the least largest ratio over families of k
    pairwise-disjoint nonempty subsets of mask (None when mask has fewer
    than k vertices); the subsets need not cover mask.
    """
    mu, edges = _rational_graph(g)
    full = (1 << g.n) - 1
    ratio = [None]
    for mask in range(1, full + 1):
        cut = sum((w for u, v, w in edges if (mask >> u ^ mask >> v) & 1), Fraction(0))
        ratio.append(cut / sum(x for i, x in enumerate(mu) if mask >> i & 1))
    best = [Fraction(0)] * (full + 1)
    out = []
    for _ in range(kmax):
        prev, best = best, [None] * (full + 1)
        for mask in range(1, full + 1):
            sub = mask
            while sub:
                rest = prev[mask ^ sub]
                if rest is not None:
                    value = max(ratio[sub], rest)
                    if best[mask] is None or value < best[mask]:
                        best[mask] = value
                sub = (sub - 1) & mask
        out.append(best[full])
    return out


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


# ---------------------------------------------------------------------------
# The weak-ordering enumeration of the p = 1 eigenvalues
#
# Case analysis over weak orderings of the vertex values with a designated
# zero level: each ordering fixes all Sign sets, leaving a linear
# feasibility problem in (z, s, lambda).  Its feasible lambda set is a
# single point: summing the vertex equations over a level set L cancels the
# antisymmetric z of the edges inside L, so a level of sign sigma gives
# w(L -> lower levels) - w(L -> higher levels) = lambda sigma mu(L), and
# every ordering but the all-zero one has a nonzero level.  That lambda is
# computed exactly from these sums, and at it the free selections split into
# one flow problem per level, which Gale's supply-demand theorem decides by
# one integer inequality per subset of the level.

@dataclass(frozen=True)
class OrderPattern:
    """A weak ordering of the vertices plus the position of zero.

    levels[u] is the rank (0-based, ascending value) of vertex u+1 among the
    m distinct levels.  zero_pos indexes the interleaved sequence
    gap_0, level_0, gap_1, ..., level_{m-1}, gap_m: even values place zero
    strictly between levels (or outside), odd value 2i+1 puts level i at
    zero.
    """
    levels: tuple[int, ...]
    m: int
    zero_pos: int

    @property
    def constant(self) -> bool:
        return self.m == 1

    def level_sign(self, i: int) -> int:
        pos = 2 * i + 1
        if pos > self.zero_pos:
            return 1
        if pos < self.zero_pos:
            return -1
        return 0

    def example_function(self) -> tuple[Fraction, ...]:
        """One rational vertex function realizing the pattern."""
        zero_rank = Fraction(self.zero_pos, 2)  # level i sits at rank i + 1/2
        return tuple(Fraction(2 * lev + 1, 2) - zero_rank for lev in self.levels)


@dataclass(frozen=True)
class EigenvalueRecord:
    """The exact eigenvalue one sign/order pattern pins."""
    lam: Fraction
    pattern: OrderPattern


def level_sums(levels: tuple[int, ...], m: int, mu, edges):
    """Per level i: net[i] = w(L_i -> lower levels) - w(L_i -> higher levels)
    and mass[i] = mu(L_i)."""
    net = [0] * m
    mass = [0] * m
    for lev, x, flow in zip(levels, mu, _vertex_net(levels, edges)):
        net[lev] += flow
        mass[lev] += x
    return net, mass


def pinned_lambda(net, mass, pat: OrderPattern) -> Fraction | None:
    """The one lambda the level sums admit for a pattern, or None.

    net[i] equals lambda sigma_i mu(L_i) on a level of sign sigma_i != 0 and
    lies in [-lambda mu(L_0), lambda mu(L_0)] on the zero level L_0.  Ratios
    are compared by cross-multiplying, so integer sums stay integers.
    """
    signed = [(sigma * net[i], mass[i]) for i in range(pat.m)
              if (sigma := pat.level_sign(i))]
    top, bottom = signed[0]  # lambda = top / bottom
    if top < 0 or any(t * bottom != top * b for t, b in signed[1:]):
        return None
    if pat.zero_pos % 2:
        i = pat.zero_pos // 2
        if abs(net[i]) * bottom > top * mass[i]:
            return None
    return Fraction(top, bottom)


def levels_feasible(pat: OrderPattern, lam: Fraction, mu, edges) -> bool:
    """Whether a pattern's free selections meet its vertex equations at lambda.

    The free selections are z on the edges inside a level and s on the zero
    level, so the selection LP splits into one flow problem per level L: z in
    [-1, 1] on L's internal edges with sum_v w(uv) z(uv) = b_u at each u in L,
    where b_u = lambda sigma mu_u - net_u and net_u = w(u -> lower levels) -
    w(u -> higher levels); on the zero level b_u may be anything within
    lambda mu_u of -net_u.  By Gale's supply-demand theorem (1957), with the
    box form of the cut function's base polytope, such a z exists iff
    |c(S)| <= w(S, L - S) + r(S) for every nonempty S in L, where c is the
    centre and r the radius of b's range (r = 0 off the zero level).  S = L
    is the level-sum condition `pinned_lambda` has decided, so it is not
    tested again, and neither is a level of one vertex, whose only subset
    is L.  Every quantity is taken times lambda's denominator, so integer mu
    and w keep the test in ints.

    The subsets of a level are visited in increasing bit order, and each
    one's sums come from the subset without its lowest bit j: c adds j's
    centre, and w(S, L - S) + r(S) adds j's degree inside L plus its radius
    less 2 w(j, S - j).  w(j, S - j) in turn is w(j, S - j - k) + w(j, k)
    for k the second lowest bit of S, read off the subset S - k, whose
    lowest bit is also j.
    """
    top, bottom = lam.numerator, lam.denominator
    levels = pat.levels
    members = [[] for _ in range(pat.m)]
    for u, lev in enumerate(levels):
        members[lev].append(u)
    bit = [0] * len(levels)  # u's bit within its level
    for mem in members:
        for j, u in enumerate(mem):
            bit[u] = 1 << j
    weight = [{} for _ in members]  # per level: bits of both ends -> weight
    for a, b, w in edges:
        lev = levels[a]
        if lev == levels[b]:
            ends = bit[a] | bit[b]
            weight[lev][ends] = weight[lev].get(ends, 0) + bottom * w
    net = _vertex_net(levels, edges)
    for i, mem in enumerate(members):
        if len(mem) == 1:
            continue
        sigma = pat.level_sign(i)
        full = (1 << len(mem)) - 1
        c_sum = [0] * full
        cap = [0] * full  # w(S, L - S) + r(S)
        for u in mem:
            c_sum[bit[u]] = sigma * top * mu[u] - bottom * net[u]
            if not sigma:
                cap[bit[u]] = top * mu[u]
        pairs = weight[i]
        for ends, c in pairs.items():
            low = ends & -ends
            cap[low] += c
            cap[ends ^ low] += c
        low_weight = [0] * full  # w(lowest bit of S, rest of S)
        for subset in range(1, full):
            low = subset & -subset
            rest = subset ^ low
            if rest:
                k = rest & -rest
                x = low_weight[subset] = low_weight[subset ^ k] + pairs.get(low | k, 0)
                c_sum[subset] = c_sum[rest] + c_sum[low]
                cap[subset] = cap[rest] + cap[low] - 2 * x
            if abs(c_sum[subset]) > cap[subset]:
                return False
    return True


def pattern_lambda_lps(mu, edges, n, pat):
    """The two full LPs of one order pattern: (rows, rhs, cmin, cmax).

    lambda is an LP variable, each zero vertex carries a split y = a - b
    with |y| <= lambda encoding lambda s(u); cmin minimises lambda and cmax
    maximises it.
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
    cmax = [zero] * total
    cmax[lam_col] = -one
    return padded, full_rhs, cmin, cmax


def pattern_lambda_range_lp(mu, edges, n, pat):
    """Feasible lambda interval of one order pattern by two full LPs, or None.

    The reference for the level-sum pinning: the interval ends are the min
    and the max of lambda over `pattern_lambda_lps`.
    """
    rows, rhs, cmin, cmax = pattern_lambda_lps(mu, edges, n, pat)
    res_min = lp_solve(rows, rhs, cmin)
    if res_min.status != "optimal":
        return None
    res_max = lp_solve(rows, rhs, cmax)
    assert res_max.status == "optimal", "lambda unbounded for a nonzero pattern"
    return res_min.value, -res_max.value


def flip_pattern(levels, m, zero_pos):
    """The ordering and zero position of -f for a pattern of f."""
    flipped = tuple(m - 1 - lev for lev in levels)
    return flipped, 2 * m - zero_pos


def enumerate_1lap_lp(g):
    """`enumerate_1lap_every_position` with every pattern decided by two full
    LPs.

    Each feasible pattern gives a (lo, hi, pattern) tuple: the least and the
    greatest lambda its LP admits, so a point is lo == hi.

    The weak orderings come from the recursion above, and every pattern is
    offered.
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
                records.append((*rng, pat))
    records.sort(key=lambda r: r[:2])
    return records


def enumerate_1lap_every_position(g):
    """The p = 1 eigenvalues by the weak-ordering case analysis above, as
    EigenvalueRecords sorted by lambda.

    Every ordering is offered every zero position, up to the flip f -> -f,
    and the constant pattern is kept, so its record gives the eigenvalue 0.
    Nothing here shares code with `enumerate_1lap_eigenvalues`, which
    searches indicator functions instead.
    """
    mu, edges = _integer_graph(g)
    records = []
    for levels, m in ordered_partitions(g.n):
        net, mass = level_sums(levels, m, mu, edges)
        for zero_pos in range(2 * m + 1):
            if m == 1 and zero_pos == 1:
                continue
            if (levels, zero_pos) > flip_pattern(levels, m, zero_pos):
                continue
            pat = OrderPattern(levels=levels, m=m, zero_pos=zero_pos)
            lam = pinned_lambda(net, mass, pat)
            if lam is not None and levels_feasible(pat, lam, mu, edges):
                records.append(EigenvalueRecord(lam, pat))
    records.sort(key=lambda r: r.lam)
    return records


# Exact two-phase simplex over integer rows.
#
# Solves min c.x subject to A x = b, x >= 0 exactly, with Bland's
# anti-cycling rule.  Rational inputs are scaled to ints row by row, and
# every tableau row, the right-hand side last, is held as Python ints over
# one positive row denominator, so no `Fraction` is made until the result:
# a row's values are its ints divided by the coefficient of its basic
# variable, which is the row's entry in that column once an original
# variable is basic there.  A pivot takes each other row to piv * row - a *
# pivot row, a positive multiple of the rational update, and divides it by
# the gcd of its entries.  The objective rows (the phase-1 sum of the
# artificials and the cost) are pivoted along with the constraint rows, so
# their entries are the reduced costs times a positive factor: the Bland
# entering column is the first one whose entry is negative, and the ratio
# test compares b_i / a_i by cross-multiplying, with ties broken to the
# lowest basic index.  These are the pivots of the rational tableau, so the
# result is its result.  The artificial columns are never read, so they
# are not stored.
#
# Sized for the small feasibility systems of the set-valued p = 1
# eigenproblem (tens of variables), not general LP work: it solves the LPs
# of the enumeration's two-LP reference (`pattern_lambda_range_lp`), three
# times faster than its `Fraction` form `fraction_lp_solve` below.

@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None   # primal solution when optimal
    value: Fraction | None           # objective value when optimal


def _int_row(values) -> tuple[list[int], int]:
    """values (ints or rationals) times the lcm of their denominators, and
    that lcm."""
    fracs = [v if isinstance(v, int) else Fraction(v) for v in values]
    scale = math.lcm(*(1 if isinstance(v, int) else v.denominator for v in fracs))
    return [v * scale if isinstance(v, int)
            else v.numerator * (scale // v.denominator) for v in fracs], scale


def _pivot(tab, objs, basis, row, col):
    prow = tab[row]
    piv = prow[col]
    if piv < 0:
        prow = tab[row] = [-v for v in prow]
        piv = -piv
    for rows in (tab, objs):
        for i, cur in enumerate(rows):
            a = cur[col]
            if a and cur is not prow:
                new = [piv * v - a * p if p else piv * v for v, p in zip(cur, prow)]
                g = math.gcd(*new)
                rows[i] = [v // g for v in new] if g > 1 else new
    basis[row] = col


def _run_phase(tab, objs, basis, n):
    """Bland-rule simplex with objs[0] as the phase's objective row; returns
    'optimal'/'unbounded'."""
    while True:
        obj = objs[0]
        entering = next((j for j in range(n) if obj[j] < 0), -1)
        if entering < 0:
            return "optimal"
        leaving = -1
        for i, cur in enumerate(tab):
            a = cur[entering]
            if a > 0:
                if leaving < 0:
                    leaving, num, den = i, cur[-1], a
                    continue
                lhs, rhs = cur[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, cur[-1], a
        if leaving < 0:
            return "unbounded"
        _pivot(tab, objs, basis, leaving, entering)


def lp_solve(a_rows, b_vec, c_vec) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly."""
    m = len(a_rows)
    n = len(c_vec)
    # each row [A_i | b_i] scaled to ints, with b_i >= 0; the artificial of
    # row i has its scale as coefficient there
    tab, scales = [], []
    for row, bi in zip(a_rows, b_vec):
        cur, scale = _int_row([*row, bi])
        tab.append([-v for v in cur] if cur[-1] < 0 else cur)
        scales.append(scale)
    # phase 1 minimises the sum of the artificials: its reduced costs are
    # minus the column sums of the rows, each divided by its scale
    common = math.lcm(*scales)
    phase1 = [0] * (n + 1)
    for cur, scale in zip(tab, scales):
        k = common // scale
        phase1 = [acc - k * v for acc, v in zip(phase1, cur)]
    objs = [phase1, _int_row([*c_vec, 0])[0]]
    for i, cur in enumerate(tab):
        g = math.gcd(*cur)
        if g > 1:
            tab[i] = [v // g for v in cur]
    basis = list(range(n, n + m))

    status = _run_phase(tab, objs, basis, n)
    assert status == "optimal"  # phase 1 is bounded below by 0
    if any(basis[i] >= n and tab[i][-1] for i in range(m)):
        return LPResult(status="infeasible", x=None, value=None)

    # drive residual artificials out of the basis; drop redundant rows
    objs = objs[1:]
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j]), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tab, objs, basis, i, col)
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    status = _run_phase(tab, objs, basis, n)
    if status == "unbounded":
        return LPResult(status="unbounded", x=None, value=None)
    x = [Fraction(0)] * n
    for cur, bi in zip(tab, basis):
        x[bi] = Fraction(cur[-1], cur[bi])
    cost = [Fraction(v) for v in c_vec]
    value = sum((cost[j] * x[j] for j in range(n) if cost[j] != 0), Fraction(0))
    return LPResult(status="optimal", x=tuple(x), value=value)


def _fraction_pivot(tab, b, basis, row, col):
    piv = tab[row][col]
    inv = 1 / piv
    # zero pivot-row entries leave every entry of their column as it is
    prow = tab[row] = [v * inv if v else v for v in tab[row]]
    b[row] *= inv
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [vi - factor * vr if vr else vi for vi, vr in zip(tab[i], prow)]
            b[i] -= factor * b[row]
    basis[row] = col


def _fraction_phase(tab, b, basis, cost, allowed):
    """Bland-rule simplex on the current tableau; returns 'optimal'/'unbounded'."""
    m = len(tab)
    while True:
        # reduced costs r_j = c_j - cB . column_j
        entering = -1
        for j in allowed:
            r = cost[j]
            for i in range(m):
                cb = cost[basis[i]]
                if cb != 0 and tab[i][j] != 0:
                    r -= cb * tab[i][j]
            if r < 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _fraction_pivot(tab, b, basis, leaving, entering)


def fraction_lp_solve(a_rows, b_vec, c_vec):
    """`lp_solve` on a `Fraction` tableau: the two-phase Bland-rule
    simplex with its reduced costs recomputed from the basis at every step
    and the artificial columns kept."""
    zero, one = Fraction(0), Fraction(1)
    m = len(a_rows)
    n = len(c_vec)
    tab = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b_vec]
    cost = [Fraction(v) for v in c_vec]
    for i in range(m):
        if b[i] < 0:
            tab[i] = [-v for v in tab[i]]
            b[i] = -b[i]
    # artificial columns n..n+m-1
    for i in range(m):
        tab[i] += [one if j == i else zero for j in range(m)]
    basis = list(range(n, n + m))

    phase1_cost = [zero] * n + [one] * m
    status = _fraction_phase(tab, b, basis, phase1_cost, range(n))
    assert status == "optimal"  # phase 1 is bounded below by 0
    infeasibility = sum((b[i] for i in range(m) if basis[i] >= n), zero)
    if infeasibility > 0:
        return LPResult(status="infeasible", x=None, value=None)

    # drive residual artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _fraction_pivot(tab, b, basis, i, col)
        keep.append(i)
    tab = [tab[i][:n] for i in keep]
    b = [b[i] for i in keep]
    basis = [basis[i] for i in keep]

    status = _fraction_phase(tab, b, basis, cost, range(n))
    if status == "unbounded":
        return LPResult(status="unbounded", x=None, value=None)
    x = [zero] * n
    for i, bi in enumerate(basis):
        x[bi] = b[i]
    value = sum((cost[j] * x[j] for j in range(n) if cost[j] != 0), zero)
    return LPResult(status="optimal", x=tuple(x), value=value)


def selection_lp(mu, edges, n, fvals, lam):
    """`verify_1lap_eigenpair` as one selection LP over the whole graph,
    solved by `fraction_lp_solve`, on rational graph data.

    The distinct values of f are ranked as levels, and `_vertex_net` sums the
    fixed z at each vertex.  Each free selection is x - 1 with x in [0, 2]:
    the columns are the free z in edge order, the free s in vertex order,
    then one slack per free selection; the rows are the vertex equations,
    sum of +-w z over u's free edges - lambda mu_u s_u = lambda sigma_u mu_u
    - net_u, with sigma_u the sign of f(u) and the s term only where f(u) = 0,
    then x + slack = 2 per free selection.
    """
    zero, one, two = Fraction(0), Fraction(1), Fraction(2)
    rank = {x: i for i, x in enumerate(sorted(set(fvals)))}
    net = _vertex_net([rank[x] for x in fvals], edges)
    sign = [(x > 0) - (x < 0) for x in fvals]
    free_z = [(u, v, w) for u, v, w in edges if fvals[u] == fvals[v]]
    free_s = [u for u in range(n) if fvals[u] == 0]
    nvars = len(free_z) + len(free_s)
    rows = [[zero] * (2 * nvars) for _ in range(n + nvars)]
    rhs = [sign[u] * lam * mu[u] - net[u] for u in range(n)] + [two] * nvars
    for j, (u, v, w) in enumerate(free_z):
        rows[u][j], rows[v][j] = w, -w
        rhs[u] += w
        rhs[v] -= w
    for j, u in enumerate(free_s, len(free_z)):
        rows[u][j] = -lam * mu[u]
        rhs[u] -= lam * mu[u]
    for j in range(nvars):
        rows[n + j][j] = rows[n + j][nvars + j] = one
    result = fraction_lp_solve(rows, rhs, [zero] * (2 * nvars))
    if result.status != "optimal":
        return OneLapCertificate(feasible=False, lam=lam, z={}, s={})
    # the free values come in column order: the free z, then the free s
    free = iter(result.x)
    z = {(u + 1, v + 1): next(free) - one if fvals[u] == fvals[v]
         else one if fvals[u] > fvals[v] else -one for u, v, _ in edges}
    s = {u + 1: next(free) - one if x == 0 else Fraction(sign[u])
         for u, x in enumerate(fvals)}
    return OneLapCertificate(feasible=True, lam=lam, z=z, s=s)


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


def decompose_arrays(g, f, strict):
    """Strong (strict) or weak nodal domains of f from float64 array masks.

    The reference for `nodal._decompose`, which works on Python floats.
    """
    arr = plaplacian._as_vertex_function(g, f)
    tol = 1e-9 * (float(np.max(np.abs(arr))) if len(arr) else 0.0)
    pos = arr > tol
    neg = arr < -tol
    zero = ~(pos | neg)
    if strict:
        domains = [(c, "+") for c in components(g, pos)]
        domains += [(c, "-") for c in components(g, neg)]
    else:
        domains = [(c, "+") for c in components(g, pos | zero)]
        seen = {tuple(c) for c, _ in domains}
        for c in components(g, neg | zero):
            if tuple(c) not in seen:
                domains.append((c, "-"))
    domains.sort(key=lambda t: t[0][0])
    return NodalDecomposition(
        kind="strong" if strict else "weak",
        domains=tuple(frozenset(v + 1 for v in c) for c, _ in domains),
        signs=tuple(s for _, s in domains),
        zero_set=frozenset(int(v) + 1 for v in np.nonzero(zero)[0]),
    )


def _zero_threshold(f):
    m = float(np.max(np.abs(f))) if len(f) else 0.0
    return 1e-9 * m


def generalized_zeros(g, f):
    """Intervals (a, a+1] with f(a) != 0 and f(a) f(a+1) <= 0 on a path.

    Only defined when g is the canonically labeled path 1-2-...-n.
    """
    if not is_canonical_path(g):
        raise ValueError("generalized zeros are defined on path graphs only")
    arr = plaplacian._as_vertex_function(g, f)
    tol = _zero_threshold(arr)
    s = np.where(arr > tol, 1, np.where(arr < -tol, -1, 0))
    return [(a + 1, a + 2) for a in range(g.n - 1) if s[a] != 0 and s[a] * s[a + 1] <= 0]


def nodal_space_max_rq_fresh(g, pair, decomposition, seed):
    """Nodal-space maximum from a fresh draw of stream seed with exactly
    as many rows as the space has domains, and every +-1 sign pattern.

    The reference for `nodal.nodal_space_max_rq`, which reads the first m
    rows of a longer draw and one pattern per +- pair.
    """
    m = decomposition.count
    basis = np.zeros((g.n, m))
    for i, dom in enumerate(decomposition.domains):
        idx = np.fromiter((v - 1 for v in dom), dtype=np.int64)
        basis[idx, i] = pair.f[idx]
    coeffs = []
    if m <= MAX_SIGN_PATTERN_DOMAINS:
        patterns = ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1)
        coeffs.append((2.0 * patterns - 1.0).T)
    rng = np.random.default_rng(seed)
    coeffs.append(rng.standard_normal((m, NODAL_SPACE_SAMPLES)))
    gmat = basis @ np.concatenate(coeffs, axis=1)
    p = pair.p
    num = (g.edges_w[:, None]
           * np.abs(gmat[g.edges_u, :] - gmat[g.edges_v, :]) ** p).sum(axis=0)
    den = (g.mu[:, None] * np.abs(gmat) ** p).sum(axis=0)
    ok = den > 1e-300
    return float(np.max(num[ok] / den[ok]))


def _below_shot(n, p, lam):
    f, defect, zeros = kernels.path_shoot_core(n, p, lam)
    return zeros + (defect * f[-1] < 0.0)


def path_spectrum_bisection(n, p):
    """Unit-path spectrum by shooting every midpoint of the count bisection.

    The reference for `eigensolver.path_spectrum`, which locates each
    lambda_k first and shoots only the midpoints near it: the same pairs,
    diagnostics, notes and errors.
    """
    g = path_graph(n, "unit")
    lam_hi = 2.0 ** p * (1.0 + 1e-7) + 1e-6
    top = _below_shot(n, p, lam_hi)
    if top != n:
        raise BracketError(
            f"eigenvalue count below lambda = {lam_hi:.6g} is {top}, expected "
            f"{n}; count monotonicity assumption violated")
    mu_total = float(np.sum(g.mu))
    pairs = [plaplacian.EigenPair(p=p, lam=0.0, f=np.full(n, mu_total ** (-1.0 / p)),
                                  residual=0.0)]
    diags = [{"zero_count": 0, "defect": 0.0}]
    lo = 0.0
    for k in range(2, n + 1):
        hi = lam_hi
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if _below_shot(n, p, mid) >= k:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        d_lo = kernels.path_shoot_core(n, p, lo)[1]
        d_hi = kernels.path_shoot_core(n, p, hi)[1]
        if not d_lo * d_hi <= 0.0:
            raise BracketError(
                f"no defect sign change for k = {k} in [{lo!r}, {hi!r}] "
                f"(defects {d_lo!r}, {d_hi!r})")
        a_root = lo if abs(d_lo) <= abs(d_hi) else hi
        shot_f, shot_defect, zeros = kernels.path_shoot_core(n, p, a_root)
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
        nrm = plaplacian.pnorm(g, shot_f, p)
        f = shot_f / nrm
        res = abs(shot_defect) / nrm ** (p - 1.0)
        if res > PATH_RESIDUAL_TOL:
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
        d_lo = kernels.path_shoot_core(n, p, np.nextafter(a_root, -np.inf))[1]
        d_hi = kernels.path_shoot_core(n, p, np.nextafter(a_root, np.inf))[1]
        floor = min(abs(d_lo), abs(d_hi), abs(shot_defect))
        accept = max(PATH_RESIDUAL_TOL, 4.0 * floor / nrm ** (p - 1.0))
        if res > accept:
            raise BracketError(
                f"path pair k = {k} residual {res:.3g} exceeds "
                f"{accept:.3g}; defect = {shot_defect!r}")
        pairs.append(plaplacian.EigenPair(p=p, lam=a_root, f=f, residual=res))
        diags.append({"zero_count": zeros, "defect": shot_defect,
                      "direct_defect": plaplacian.eigen_residual(g, f, a_root, p)})
    lams = [pair.lam for pair in pairs]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise BracketError(f"path eigenvalues not strictly increasing: {lams}")
    above = [f"k = {k} residual {pair.residual:.3g}"
             for k, pair in enumerate(pairs, 1)
             if pair.residual > plaplacian.RESIDUAL_LIMIT]
    notes = ()
    if above:
        notes = ("conditioning-limited path pairs above the certificates' "
                 f"{plaplacian.RESIDUAL_LIMIT:g} residual limit: "
                 + ", ".join(above),)
    return Spectrum(graph=g, p=p, pairs=tuple(pairs), method="path_shooting",
                    diagnostics=tuple(diags), notes=notes)
