"""Slow reference implementations used to pin expected values.

Everything in this file works on explicit point sets, membership
predicates, or dense rational matrices over finite windows.  Nothing
here imports the library under test.  Window sufficiency notes:

* delta / k0: a witness sigma of Delta(beta) can be min-capped to the
  capping bound gamma whenever beta < gamma componentwise, so scanning
  members inside [lo, gamma] is exhaustive for those beta.
* difference: for x in the candidate window, any f in F with
  x + f in the scan box satisfies f <= hi_E - x, so a generous F window
  [mu_F, cmax(gamma_F, hi_E - lo_X)] is exhaustive.
"""

import itertools
import math
from fractions import Fraction


def box(lo, hi):
    """All integer points of the closed box [lo, hi], lex order."""
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def cmin(a, b):
    return tuple(map(min, a, b))


def cmax(a, b):
    return tuple(map(max, a, b))


def leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def lt(a, b):
    return leq(a, b) and a != b


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def points_of(pred, lo, hi):
    return {p for p in box(lo, hi) if pred(p)}


# ----------------------------------------------------------------- axioms


def min_closed(pts):
    """True when the explicit set is closed under componentwise min."""
    P = set(pts)
    return all(cmin(p, q) in P for p in P for q in P)


def exchange_violations(pts, pred, witness_hi):
    """Pairs (a, b, j) with a_j == b_j admitting no exchange witness.

    ``pts`` are the pairs scanned; witnesses are searched among the
    predicate's members in [componentwise-min of the pair, witness_hi].
    """
    P = sorted(set(pts))
    s = len(witness_hi)
    bad = []
    for a in P:
        for b in P:
            if a >= b:
                continue
            for j in range(s):
                if a[j] != b[j]:
                    continue
                lo = cmin(a, b)
                found = False
                for eps in box(lo, witness_hi):
                    if not pred(eps) or eps[j] <= a[j]:
                        continue
                    ok = True
                    for i in range(s):
                        if i == j:
                            continue
                        if a[i] != b[i]:
                            if eps[i] != min(a[i], b[i]):
                                ok = False
                                break
                        elif eps[i] < a[i]:
                            ok = False
                            break
                    if ok:
                        found = True
                        break
                if not found:
                    bad.append((a, b, j))
    return bad


# ------------------------------------------------------- Delta sets and K0


def delta(pred, beta, lo, hi):
    """Members sigma with sigma_j == beta_j for some j and sigma_i > beta_i
    for every other i, scanned over [lo, hi]."""
    s = len(beta)
    out = set()
    for sigma in box(lo, hi):
        if not pred(sigma):
            continue
        for j in range(s):
            if sigma[j] == beta[j] and all(
                sigma[i] > beta[i] for i in range(s) if i != j
            ):
                out.add(sigma)
                break
    return out


def k0_points(pred_s, gamma, lo, hi):
    """The normalized canonical set {alpha : Delta(tau - alpha) is empty},
    tau = gamma - 1, computed pointwise over [lo, hi].  Every tau - alpha
    with alpha >= 0 is < gamma componentwise, so the member scan box
    [zero, gamma] is exhaustive."""
    s = len(gamma)
    tau = tuple(g - 1 for g in gamma)
    zero = (0,) * s
    out = set()
    for alpha in box(lo, hi):
        beta = sub(tau, alpha)
        if not delta(pred_s, beta, cmin(zero, beta), gamma):
            out.add(alpha)
    return out


# ----------------------------------------------------- difference and sum


def difference_points(pred_e, pred_f, lo_x, hi_x, f_lo, f_hi):
    """{x in [lo_x, hi_x] : x + f in E for all f in F cap [f_lo, f_hi]}."""
    fs = points_of(pred_f, f_lo, f_hi)
    return {
        x for x in box(lo_x, hi_x) if all(pred_e(add(x, f)) for f in fs)
    }


def sum_points(pred_e, pred_f, lo, hi, e_lo, f_lo):
    """(E + F) cap [lo, hi] for E bounded below by e_lo and F by f_lo.

    Any sum landing in the box has e <= hi - f_lo and f <= hi - e_lo,
    so the two scans below are exhaustive.
    """
    out = set()
    es = points_of(pred_e, e_lo, sub(hi, f_lo))
    fs = points_of(pred_f, f_lo, sub(hi, e_lo))
    for e in es:
        for f in fs:
            p = add(e, f)
            if leq(lo, p) and leq(p, hi):
                out.add(p)
    return out


def swept_translates(erode, pred, lo, hi, by_lo, offsets, top):
    """The translate reduction with every tail swept: the x in [lo, hi]
    with, for every offset u (erode) or some offset u (dilate), c = by_lo
    + u and T = {j : u_j = top_j}, every cell (erode) or some cell
    (dilate) of the window that agrees with x + c (erode) or x - c
    (dilate) off T and lies at or past it (erode) or at or before it
    (dilate) on T a member.  The window is [lo + by_lo, hi + far] (erode)
    or [lo - far, hi - by_lo] (dilate), far = by_lo + top: the one E's
    suffix-AND or prefix-OR tables are read over, whether or not E is
    constant along T there."""
    s = len(lo)
    far = add(by_lo, top)
    end = add(hi, far) if erode else sub(lo, far)
    step = 1 if erode else -1
    held = {}

    def table(T, y):
        # the sweep along the highest axis j of T, of the table of T - {j}
        key = (T, y)
        if key not in held:
            if not T:
                held[key] = bool(pred(y))
            else:
                j = max(T)
                here = table(T - {j}, y)
                if y[j] != end[j]:
                    nxt = table(T, y[:j] + (y[j] + step,) + y[j + 1 :])
                    here = (here and nxt) if erode else (here or nxt)
                held[key] = here
        return held[key]

    moves = [(add(by_lo, u) if erode else sub((0,) * s, add(by_lo, u)),
              frozenset(j for j in range(s) if u[j] == top[j])) for u in offsets]
    reduce_ = all if erode else any
    return {x for x in box(lo, hi) if reduce_(table(T, add(x, c)) for c, T in moves)}


# ----------------------------------------------------------------- chains


def members_between(pred, a, b):
    return [p for p in box(a, b) if pred(p)]


def covers(pred, a, b):
    """Members c with a < c <= b such that no member lies strictly
    between a and c."""
    pts = set(members_between(pred, a, b))
    out = []
    for c in pts:
        if not lt(a, c):
            continue
        if any(lt(a, d) and lt(d, c) for d in pts):
            continue
        out.append(c)
    return out


def chain_lengths(pred, a, b, cap=100000):
    """Lengths of all saturated chains from a to b inside the member set.

    Raises RuntimeError past ``cap`` explored chains.
    """
    lengths = set()
    count = 0
    stack = [(a, 0)]
    while stack:
        cur, n = stack.pop()
        count += 1
        if count > cap:
            raise RuntimeError("chain cap exceeded")
        if cur == b:
            lengths.add(n)
            continue
        for c in covers(pred, cur, b):
            stack.append((c, n + 1))
    return lengths


def greedy_distance(pred, a, b):
    """Links of the chain from a to b that steps, each time, to the
    lex-smallest member of (cur, b]: that member is minimal there, hence a
    cover.  On a good ideal every saturated chain has this length."""
    pts = members_between(pred, a, b)  # lex order
    steps, cur, k = 0, a, 0
    while cur != b:
        k = next(j for j in range(k + 1, len(pts)) if lt(cur, pts[j]))
        cur, steps = pts[k], steps + 1
    return steps


def is_level(pred, gamma, p, i):
    """Whether some member x >= p has x_i = p_i.  A witness can be lowered
    into [p, cmax(p, gamma)] under the capping rule at gamma."""
    top = list(cmax(p, gamma))
    top[i] = p[i]
    return any(pred(x) for x in box(p, top))


def level_count(pred, gamma, a, b, order):
    """The levels (see :func:`is_level`) on the path from a to b that
    raises the axes one at a time, in ``order``."""
    count, p = 0, list(a)
    for i in order:
        while p[i] < b[i]:
            count += is_level(pred, gamma, tuple(p), i)
            p[i] += 1
    return count


# ---------------------------------------------- dense exact linear algebra


def rref(rows):
    """Dense row reduction over Fraction lists; returns (rank, rows)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0, []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank, mat[:rank]


def poly_mul_mod(a, b, N):
    """Multiply coefficient lists modulo t^N."""
    out = [Fraction(0)] * N
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j >= N:
                break
            out[i + j] += x * y
    return out


def vec_mul_mod(v, g, N):
    """Branchwise product of two dense vectors (lists of coeff lists)."""
    return [poly_mul_mod(a, b, N) for a, b in zip(v, g)]


def flatten(v):
    return [c for branch in v for c in branch]


def dense_vec(poly_branches, s, N):
    """Dense vector from {exp: coeff} dicts, exponents >= N dropped."""
    out = []
    for i in range(s):
        col = [Fraction(0)] * N
        for e, c in poly_branches[i].items():
            if e < N:
                col[e] += Fraction(c)
        out.append(col)
    return out


def span_rows(ring_gens, module_gens, s, N):
    """Closure of the module generators under ring multiplication,
    returned as reduced dense rows of length s*N.  Worklist closure with
    dense rank checks; independent of the library's sparse engine."""
    one = [[Fraction(0)] * N for _ in range(s)]
    for i in range(s):
        one[i][0] = Fraction(1)
    gens = [dense_vec(g, s, N) for g in ring_gens]
    work = [dense_vec(m, s, N) for m in module_gens]
    rank, rows = 0, []
    while work:
        v = work.pop()
        cand = rows + [flatten(v)]
        r2, red = rref(cand)
        if r2 == rank:
            continue
        rank, rows = r2, red
        for g in gens:
            work.append(vec_mul_mod(v, g, N))
    return rows


def dim_with_floor(rows, s, N, alpha):
    """dim of {v in rowspace : v_i vanishes below alpha_i on each branch}.

    Computed as (#rows) - rank(rows restricted to the forbidden columns).
    """
    forbidden = [
        i * N + e for i in range(s) for e in range(min(max(alpha[i], 0), N))
    ]
    if not rows:
        return 0
    restricted = [[r[c] for c in forbidden] for r in rows]
    rank, _ = rref(restricted)
    return len(rows) - rank


def in_value_set(rows, s, N, alpha):
    """alpha lies in the value set iff, for every branch i, clamping the
    floor one step higher on branch i strictly drops the dimension."""
    base = dim_with_floor(rows, s, N, alpha)
    for i in range(s):
        up = list(alpha)
        up[i] += 1
        if dim_with_floor(rows, s, N, tuple(up)) == base:
            return False
    return True


def numerical_members(gens, hi):
    """Members of the numerical semigroup generated by ``gens`` up to hi,
    by coin-problem dynamic programming."""
    reach = [False] * (hi + 1)
    reach[0] = True
    for g in gens:
        for n in range(g, hi + 1):
            if reach[n - g]:
                reach[n] = True
    return {n for n, r in enumerate(reach) if r}


def radical_orders(pred, gamma):
    """e_i, the least i-th coordinate of a member alpha >= (1, ..., 1) of
    a value set whose membership is capped at gamma: capping alpha to
    cmax(gamma, 1) keeps it a member and can only lower each coordinate."""
    pts = points_of(pred, (1,) * len(gamma), tuple(max(g, 1) for g in gamma))
    return tuple(min(p[i] for p in pts) for i in range(len(gamma)))


# ----------------------------------------------------------- plane curves
#
# A plane branch here is (n, b, lam, a): x = t^n, y = lam·t^n + a·t^b with
# gcd(n, b) = 1 and b > n, so its Puiseux series is y = lam·x + a·x^(b/n).
# a is 0 only on a smooth branch (n = 1), which is then the line y = lam·x.
# A plane curve is a tuple of distinct branches, and its ring is generated
# by (x_1, ..., x_s) and (y_1, ..., y_s).


def plane_branch_conductor(n, b):
    """Conductor of one branch: its value semigroup is <n, b>, or N when
    n = 1, so c = (n - 1)(b - 1), the Frobenius number of two coprime
    generators plus one (Sylvester).  See Zariski, The moduli problem for
    plane branches, AMS University Lecture Series 39 (2006), ch. I."""
    return (n - 1) * (b - 1)


def zariski_branch(n, exps):
    """The minimal generators and the conductor of the value semigroup of
    the plane branch x = t^n, y = sum of t^b over b in ``exps``.

    The characteristic exponents beta_1 < ... < beta_g are the exponents
    at which e_i = gcd(n, beta_1, ..., beta_i) drops, down to e_g = 1.
    With n_i = e_(i-1)/e_i, the generators are n, beta_1 and
    beta-bar_(i+1) = n_i·beta-bar_i + beta_(i+1) - beta_i, and the
    conductor is c = sum of (n_i - 1)·beta-bar_i - n + 1.  See Zariski,
    The moduli problem for plane branches, AMS University Lecture Series
    39 (2006), ch. II."""
    chars, divs = [], [n]
    for b in sorted(exps):
        if b % divs[-1]:
            chars.append(b)
            divs.append(math.gcd(divs[-1], b))
    if divs[-1] != 1:
        raise ValueError(f"t^{n} and {exps} do not parametrize a branch: gcd {divs[-1]}")
    bars = [chars[0]]
    for i in range(1, len(chars)):
        bars.append(divs[i - 1] // divs[i] * bars[-1] + chars[i] - chars[i - 1])
    c = sum((divs[i] // divs[i + 1] - 1) * bar for i, bar in enumerate(bars)) - n + 1
    return (n, *bars), c


def plane_intersection(B, C):
    """Intersection number of two distinct branches, by Noether's formula
    in Halphen's form: the sum, over the n·m pairs of Puiseux conjugates,
    of the x-order of their difference.  Different tangents (lam) give
    order 1 for every pair, so n·m.  Equal tangents give a·ζ·x^(b/n) -
    a'·ζ'·x^(b'/m) for roots of unity ζ, ζ', of order min(b/n, b'/m) with
    a = 0 counting as infinity: unequal exponents cannot cancel, and equal
    ones mean equal (n, b), where a ≠ a' are positive, so they cannot
    either.  See Wall, Singular Points of Plane Curves, LMS Student Texts
    63 (2004)."""
    (n, b, lam, a), (m, d, mu, a2) = B, C
    if lam != mu:
        return n * m
    return min(m * b if a else math.inf, n * d if a2 else math.inf)


def plane_conductor(curve):
    """The conductor c of the ring of a plane curve:
    c_i = c(B_i) + sum over j ≠ i of I(B_i, B_j), Delgado, The semigroup
    of values of a curve singularity with several branches, Manuscripta
    Math. 59 (1987)."""
    return tuple(
        plane_branch_conductor(*B[:2]) + sum(plane_intersection(B, C) for C in curve if C is not B)
        for B in curve
    )


def random_plane_curve(rng, s):
    """s distinct branches with n_i <= 3, b_i <= 4·n_i + 2, lam_i in {0, 1}
    and a_i in {1, 2, 3} (a_i may be 0 when n_i = 1), drawn from ``rng``."""
    curve = []
    while len(curve) < s:
        n = rng.randint(1, 3)
        b = rng.choice([b for b in range(n + 1, 4 * n + 3) if math.gcd(n, b) == 1])
        a = rng.randint(0 if n == 1 else 1, 3)
        B = (n, b if a else 2, rng.randint(0, 1), a)  # a line forgets b
        if B not in curve:
            curve.append(B)
    return tuple(curve)


def plane_curve_text(curve, modules=()):
    """A curve file for the ring of ``curve`` and the named modules."""
    def poly(terms):
        return " + ".join(f"{c}*t^{e}" for e, c in terms if c) or "0"

    x = ", ".join(poly([(n, 1)]) for n, *_ in curve)
    y = ", ".join(poly([(n, lam), (b, a)]) for n, b, lam, a in curve)
    lines = [f"branches: {len(curve)}", f"ring: ({x}) ; ({y})"]
    lines += [f"module {name}: {gens}" for name, gens in modules]
    return "\n".join(lines) + "\n"


def frame_json(s, mu, gamma, points):
    """The canonical frame JSON text, one %-formatted line per point of the
    lex-sorted ``points``: the per-point writer the row writer replaced."""
    point = "    [" + ", ".join(["%d"] * s) + "]"
    lines = [
        "{",
        f'  "s": {s},',
        f'  "mu": {list(mu)},',
        f'  "gamma": {list(gamma)},',
        '  "frame": [',
        ",\n".join(map(point.__mod__, points)),
        "  ]",
        "}",
    ]
    return "\n".join(lines) + "\n"
