"""Independent oracles the solvers are checked against.

Everything here sticks to first principles (closed forms, exact polynomial
arithmetic, finite differences, unpruned enumeration) or is the plain form
of an optimized search (per-space sampling, shot-by-shot bisection, array
decomposition), and never calls the code paths under test.
"""

from fractions import Fraction

import numpy as np

from plap import kernels, plaplacian, rayleigh_quotient
from plap.eigensolver import PATH_RESIDUAL_TOL, BracketError, Spectrum
from plap.graph import components, is_canonical_path, path_graph
from plap.nodal import MAX_SIGN_PATTERN_DOMAINS, NODAL_SPACE_SAMPLES, NodalDecomposition
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

    Each feasible pattern gives a (lo, hi, pattern) tuple: the least and the
    greatest lambda its LP admits, so a point is lo == hi.

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
                records.append((*rng, pat))
    records.sort(key=lambda r: r[:2])
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
                records.append(EigenvalueRecord(lam, pat))
    records.sort(key=lambda r: r.lam)
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
