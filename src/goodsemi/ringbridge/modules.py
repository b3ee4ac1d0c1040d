"""Exact linear algebra for R-submodules of ∏ Q[t]/(t^N).

Module elements are flattened to sparse vectors keyed by branch-major
position i*N + e.  Every row is primitive: integer entries with gcd 1,
positive at its pivot (its minimal position).  A rational vector has one
such multiple, so the reduced echelon basis of primitive rows is the
reduced row echelon form with each row cleared to integers: exact and
canonical, with no denominator anywhere.  Every function here takes
integer terms only, ((exp, coeff), ...) per branch by exponent; a caller
clears rational data to them once (:func:`curves.integer_terms`), which
changes neither a Q-span nor the ring closure.  A generator whose
branch count differs from the others' is refused by name.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968):
v <- (a/g)·v - (b/g)·row clears position p, with a = row[p], b = v[p],
g = gcd(a, b), and the content is divided out once per reduction.

The value semigroup ideal of a basis whose rows each lie on one branch
is the product of the branches' pivot sets (:func:`ideals._interleave`);
any other basis is read off with one sweep per branch i: rows with
distinct branch-i orders by forward elimination, then the constraints of
each axis-line imposed one at a time.  A constraint hits the rows filed
under it by order, and drops the one of largest branch-i order, so every
other row keeps its order: the line's dimension drops.

Spans, value scans and colons all eliminate through the same two
steps, :meth:`ModuleBasis._fully_reduce` and :func:`_cancel`.  A colon
needs no elimination of its own: ω : M, ω the regular differentials, is
the complement of M under the residue pairing, read in closed form off
M's reduced echelon rows (:func:`residue_dual`), and F : E is
ω : (E·(ω : F)) by duality (:func:`colon_solution_basis`).
"""

from __future__ import annotations

from math import gcd, lcm, prod

from ..errors import DimensionMismatch, FrameError, NotCertifiedError, TruncationError
from ..ideals import Box, IdealFrame, _box_shape, _interleave, _rows_to_bits
from ..lattice import Point, as_point, zero

__all__ = ["ModuleBasis", "span_basis", "value_semigroup_ideal", "residue_dual", "colon_solution_basis"]

Row = dict[int, int]


def _row(terms: tuple, N: int) -> Row:
    """Integer terms as a flat row mod t^N."""
    return {i * N + e: c for i, p in enumerate(terms) for e, c in p if e < N}


def _times(row: Row, g: tuple, N: int) -> Row:
    """row * g mod t^N, for a flat integer row and integral terms g."""
    out: Row = {}
    for pos, c in row.items():
        room = N - pos % N
        for eb, cb in g[pos // N]:
            if eb >= room:
                break
            k = pos + eb
            out[k] = out.get(k, 0) + c * cb
    return {k: c for k, c in out.items() if c}


def _axpy(target: Row, src: Row, f: int) -> None:
    """target += f * src, dropping cancelled entries."""
    for k, c in src.items():
        nv = target.get(k, 0) + f * c
        if nv:
            target[k] = nv
        else:
            del target[k]


def _cancel(v: Row, row: Row, p: int) -> None:
    """Clear position p of v: v <- m·v - n·row with m > 0, so v keeps
    the sign of its other entries.  A primitive row with one entry is
    {p: ±1}: m = 1 and v only loses p, so it is cleared by deletion."""
    if len(row) == 1:
        del v[p]
        return
    a, b = row[p], v[p]
    g = gcd(a, b)
    m, n = a // g, b // g
    if m < 0:
        m, n = -m, -n
    if m != 1:
        for k in v:
            v[k] *= m
    _axpy(v, row, -n)


def _divide_content(v: Row, sign: int = 1) -> None:
    g = sign * gcd(*v.values())
    if g != 1:
        for k in v:
            v[k] //= g


class ModuleBasis:
    """Reduced echelon Q-basis of a subspace of ∏ Q[t]/(t^N).

    Invariants: each stored row is a primitive integer row, positive at
    its pivot (its minimal position), with no other pivot in its support.
    """

    __slots__ = ("s", "N", "rows")

    def __init__(self, s: int, N: int):
        self.s = s
        self.N = N
        self.rows: dict[int, Row] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _fully_reduce(self, v: Row) -> None:
        """Eliminate every pivot position from the integer row v, in place.

        One pass suffices: no row holds another row's pivot, so clearing
        one pivot from v never brings back another.  A unit row {p: 1},
        one per position above a span's conductor, clears p by deletion
        (:func:`_cancel`).
        """
        rows = self.rows
        for p in sorted(p for p in v if p in rows):
            _cancel(v, rows[p], p)

    def _insert(self, v: Row) -> bool:
        """Add the integer row v, which becomes the stored row, to the
        span; returns False if the span already holds it."""
        self._fully_reduce(v)
        if not v:
            return False
        lead = min(v)
        _divide_content(v, -1 if v[lead] < 0 else 1)
        for row in self.rows.values():
            if lead in row:
                _cancel(row, v, lead)
                _divide_content(row)
        self.rows[lead] = v
        return True


def monomial_tail(basis: ModuleBasis) -> Point:
    """The span's monomial tail c: c_i is least with t^k on branch i in the
    span for c_i <= k < N, so N when t^(N-1) is not.  With p = i·N + k,
    t^k lies in the span iff rows[p] == {p: 1}: a combination of rows holds
    c_q·rows[q][q] at each pivot q, as no other row holds q, so t^k, zero
    off p, is c·rows[p], and a primitive row positive at its pivot is then
    {p: 1}.  A row holds its pivot, so that is a row of one entry."""
    rows, N, tail = basis.rows, basis.N, []
    for i in range(basis.s):
        k = N
        while k and len(rows.get(i * N + k - 1, ())) == 1:
            k -= 1
        tail.append(k)
    return tuple(tail)


def require_monomials(basis: ModuleBasis, lo: Point, what: str, tail: Point) -> None:
    """Refuse unless ``tail``, the basis's :func:`monomial_tail`, is at most lo,
    naming the least t^k missing."""
    rows, N = basis.rows, basis.N
    for i, (low, c) in enumerate(zip(lo, tail)):
        if c > low:
            k = next(k for k in range(low, c) if len(rows.get(i * N + k, ())) != 1)
            raise TruncationError(f"{what} misses t^{k} on branch {i}: "
                                  f"conductor bound {tuple(lo)} is not valid at truncation {N}")


def _check_branches(s: int, gens: list, what: str) -> None:
    """Refuse a generator whose branch count is not s, naming it."""
    for g in gens:
        if len(g) != s:
            raise DimensionMismatch(f"{what} {g} has {len(g)} branches, not {s}")


def span_basis(ring_gens: list, module_gens: list, N: int) -> ModuleBasis:
    """Smallest Q-subspace of ∏ Q[t]/(t^N) containing module_gens and
    closed under multiplication by the ring generators.

    Generators are integer terms only.
    Only vectors that genuinely enlarged the span are re-expanded, each
    as the row it was reduced to on insertion: those rows span the same
    space as the vectors, so closing each of them under every generator
    closes the whole space.
    """
    if not module_gens:
        raise FrameError("a module needs at least one generator")
    s = len(module_gens[0])
    _check_branches(s, module_gens, "module generator")
    _check_branches(s, ring_gens, "ring generator")
    basis = ModuleBasis(s, N)
    queue = [_row(v, N) for v in module_gens]
    while queue:
        v = queue.pop()
        if v and basis._insert(v):
            queue.extend(_times(v, g, N) for g in ring_gens)
    return basis


def value_semigroup_ideal(basis: ModuleBasis, hi: Point) -> IdealFrame:
    """Value vectors of the module over the box [0, hi], as an ideal frame.

    alpha belongs iff the filtration dimension drops in every coordinate
    at alpha: for each branch i, some element vanishing below alpha_k on
    every other branch k has order exactly alpha_i on branch i.  Per
    branch i, on positions rotated so branch i comes first, a row's key is
    its lead, its branch-i order (>= N off branch i).  Keys need only be
    distinct, so forward elimination gives them: the drop set of the line
    with no constraints.  The other axes' box is walked in lex order, and
    raising alpha_k from a to a+1 makes (k, a) vanish.  With the positions
    below a imposed, a row is nonzero at (k, a) iff its branch-k order is
    a: the rows hit are one bucket of the rows filed by that order.  The
    largest key is dropped; the others, cleared at (k, a) with it, keep
    their keys and are filed at their higher order.  Rows are replaced,
    never edited, so levels share them; a level copies its parent's
    buckets and skips an entry whose row lost the position.  Keys only
    leave, so a line is the one before minus at most one key: with i last
    a line is one bitset row, the keys left; otherwise the last axis is
    innermost, and key e one run at alpha_i = e, as long as it survived.

    A basis whose rows each lie on one branch (every one-branch basis;
    Rbar, C, R : Rbar and R : C) is read off its pivots, not walked.  Its
    module is the direct sum of the parts V_i its rows on branch i span:
    an element is Σ x_i with x_i in V_i, so its order on branch i is a
    pivot of branch i, which that pivot's own row, zero elsewhere, attains.
    The value set in the box is the product of the pivot sets P_i cut at
    hi_i (Barucci, D'Anna and Fröberg, JPAA 147, 2000, one branch per
    factor), each holding hi_i, built by :func:`ideals._interleave` from
    the exact one-axis frames P_i ∩ [min P_i, gamma_i], gamma_i one past
    the last gap of P_i below hi_i, as P_i holds all of [gamma_i, hi_i].

    hi_i <= N-2 is required so every dimension involved stays inside the
    truncation; the returned capping bound is only trustworthy after the
    caller's stability checks.
    """
    s, N, hi = basis.s, basis.N, as_point(hi)
    if len(hi) != s:
        raise DimensionMismatch(f"scan box corner {hi} has {len(hi)} coordinates for {s} branches")
    if min(hi) < 0:
        raise FrameError(f"scan box corner {hi} has a negative coordinate")
    if any(h > N - 2 for h in hi):
        raise TruncationError(f"scan box {hi} does not fit below truncation {N}")
    if basis.dim == 0:
        raise FrameError("the zero module has no value semigroup ideal")
    if all(max(row) // N == p // N for p, row in basis.rows.items()):
        cut = [sum(1 << p % N for p in basis.rows if p // N == i and p % N <= h) for i, h in enumerate(hi)]
        if not all(m >> h & 1 for m, h in zip(cut, hi)):
            raise FrameError(f"scan box corner {hi} is not a value of the module")
        frames = []
        for m, h in zip(cut, hi):
            mu, gamma = (m & -m).bit_length() - 1, (~m & (1 << h) - 1).bit_length()
            frames.append(IdealFrame.__new__(IdealFrame)._adopt((mu,), (gamma,), m >> mu & (2 << gamma - mu) - 1))
        return _interleave([(i,) for i in range(s)], frames)
    shape = _box_shape(zero(s), hi)
    good = -1
    for i in range(s):
        rows = {} if i else dict(basis.rows)
        for row in basis.rows.values() if i else ():
            v = {(p - i * N) % (s * N): c for p, c in row.items()}
            while (lead := min(v)) in rows:
                _cancel(v, rows[lead], lead)
                _divide_content(v)
            rows[lead] = v
        rest, last, at, out = [k for k in range(s) if k != i], i == s - 1, [0] * s, []
        spans = [(((k - i) % s) * N, ((k - i) % s) * N + hi[k]) for k in rest]

        def walk(rows: dict[int, Row], buckets: list[dict], depth: int) -> None:
            k, lo, inner = rest[depth], spans[depth][0], depth + 1 < len(rest)
            left = {} if inner else {e: hi[k] + 1 for e in rows if e <= hi[i]}  # key: steps survived
            mask = sum(1 << e for e in left)
            for a in range(hi[k] + 1):
                at[k] = a
                if inner:
                    walk(dict(rows), [dict(b) for b in buckets[1:]], depth + 1)
                elif last:
                    out.append((tuple(at[:-1]), mask))
                if not (hits := {e for e in buckets[0].pop(lo + a, ()) if lo + a in rows.get(e, ())}):
                    continue
                dropped, changed = rows.pop(top := max(hits)), []
                for e in hits - {top}:
                    rows[e] = v = dict(rows[e])
                    _cancel(v, dropped, lo + a)
                    _divide_content(v)
                    changed.append((e, v))
                for b, span in zip(buckets, spans[depth:]) if changed else ():
                    _file(b, *span, changed)
                if top in left:
                    left[top], mask = a + 1, mask ^ 1 << top
            for e, n in left.items() if not last else ():
                at[i] = e
                out.append((tuple(at[:-1]), (1 << n) - 1))

        walk(rows, [_file({}, *span, rows.items()) for span in spans], 0)
        good &= _rows_to_bits(shape, out)
    if not good >> prod(shape) - 1 & 1:
        raise FrameError(f"scan box corner {hi} is not a value of the module")
    return IdealFrame._from_box(Box(zero(s), shape, good))


def _file(bucket: dict, lo: int, end: int, rows) -> dict:
    """The bucket with the key of each (key, row) of ``rows`` filed under
    the row's least position in [lo, end), if it has one there."""
    inside = range(lo, end).__contains__
    for key, row in rows:
        order = min(filter(inside, row), default=end)
        if order < end:
            bucket[order] = bucket.get(order, ()) + (key,)
    return bucket


def residue_dual(basis: ModuleBasis, c: Point, a: Point, N: int) -> ModuleBasis:
    """Basis of t^(c - a)·(ω : M) mod t^N for the module M ⊇ t^c·Rbar whose
    span, of order at least max(c), is ``basis``, refused unless it holds
    t^k for c_i <= k (:func:`require_monomials`), given t^c·(ω : M) ⊆
    t^a·Rbar; ω = {x : Σ_i res(x_i·f_i) = 0 for all f in R}, the regular
    differentials (Serre, *Algebraic Groups and Class Fields*, ch. IV).

    As R·M = M, x lies in ω : M iff Σ_i res(x_i·y_i) = 0 for all y in M;
    then x·t^c·Rbar ⊆ ω, and pairing with 1 in R gives z = t^c·x in Rbar.
    res(x_i·y_i) is the coefficient of t^(c_i - 1) in z_i·y_i, so
    t^c·(ω : M) is t^c·Rbar plus the complement of M mod t^c under
    ⟨z, y⟩ = Σ_i Σ_(e<c_i) z_(i,e)·y_(i,c_i-1-e), the dot product after
    the flip e -> c_i - 1 - e.  M mod t^c is spanned by the rows with pivot
    below c: every position at or above c is the pivot of a unit row, which
    no other row holds.  So the complement has one vector per free
    position q below c, L·e_q - Σ_p (L·r_p[q]/r_p[p])·e_p over the rows r_p
    holding q, L the lcm of their r_p[p]: orthogonal to every row, as no
    row holds another's pivot, independent, and as many as the dimension.
    Each is flipped to e -> c_i - a_i - 1 - e, t^(-a) times the flip; a
    position pushed below zero breaks the bound a and is refused.
    """
    s, M = basis.s, basis.N
    if M < max(c):
        raise TruncationError(f"a span of order {M} does not reach the conductor {tuple(c)} of its residue dual")
    require_monomials(basis, c, "the residue dual's module", monomial_tail(basis))
    low = {p: row for p, row in basis.rows.items() if p % M < c[p // M]}
    holders: dict[int, list[int]] = {}
    for p, row in low.items():
        for q in row:
            holders.setdefault(q, []).append(p)
    out = ModuleBasis(s, N)
    for q in (q for i in range(s) for q in range(i * M, i * M + c[i]) if q not in low):
        ps = holders.get(q, ())
        L = lcm(*(low[p][p] for p in ps))
        flipped = {}
        for pos, x in ((q, L), *((p, -L // low[p][p] * low[p][q]) for p in ps)):
            b, e = divmod(pos, M)
            if (f := c[b] - a[b] - 1 - e) < 0:
                raise NotCertifiedError(f"the residue dual has order {c[b] - 1 - e} on branch {b}, "
                                        f"below its bound {a[b]}")
            if f < N:
                flipped[b * N + f] = x
        out._insert(flipped)
    # the complement lies below c - a, so the monomials above stay unit rows
    out.rows.update((p, {p: 1}) for i in range(s) for p in range(i * N + c[i] - a[i], (i + 1) * N))
    return out


def colon_solution_basis(
    ring_gens: list, F_basis: ModuleBasis, E_gens: list, gamma_F: Point, c: Point, a: Point, N: int
) -> ModuleBasis:
    """Basis of t^(c - a - gamma_F)·(F : E) mod t^N, F : E = {x : x·E ⊆ F},
    for the module F ⊇ t^gamma_F·Rbar whose span is ``F_basis`` and the
    module E that ``E_gens`` generate.

    F : E = ω : (E·(ω : F)), as ω : (X·E) = (ω : X) : E and ω : (ω : F) = F
    (Herzog and Kunz, LNM 238, 1971).  D = t^gamma_F·(ω : F) is F's
    :func:`residue_dual`, and D·E mod t^Nc, Nc = max(c) + 1, is the span
    P of D's rows times the generators g_j of E, skipping the monomials of
    D at or above Nc - μ_E, μ_E_i the least order of a g_j on branch i:
    their products vanish mod t^Nc.  Then t^(c - gamma_F)·(F : E) is P's
    residue dual at c, read shifted down by ``a``; each residue dual
    checks that its span holds t^gamma_F·Rbar or t^c·Rbar.  Generators are integer
    terms only, and a generator or bound without F's branch count is
    refused by name.  A basis not closed under the ring is refused.
    """
    s, Nc = F_basis.s, max(c) + 1
    for name, v in (("gamma_F", gamma_F), ("c", c), ("a", a)):
        if len(v) != s:
            raise DimensionMismatch(f"{name} {tuple(v)} has {len(v)} coordinates, not the {s} branches of F")
    _check_branches(s, E_gens, "generator of E")
    _check_branches(s, ring_gens, "ring generator")
    D = residue_dual(F_basis, gamma_F, zero(s), Nc)
    top = [Nc - min((g[i][0][0] for g in E_gens if g[i]), default=Nc) for i in range(s)]
    P = ModuleBasis(s, Nc)
    for p, row in D.rows.items():
        if p % Nc < top[p // Nc]:
            for g in E_gens:
                P._insert(_times(row, g, Nc))
    out = residue_dual(P, c, a, N)
    for r in out.rows.values():
        for g in ring_gens:
            out._fully_reduce(v := _times(r, g, N))
            if v:
                raise NotCertifiedError("the colon's basis is not closed under the ring action")
    return out
