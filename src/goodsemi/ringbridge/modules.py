"""Exact linear algebra for R-submodules of ∏ Q[t]/(t^N).

Module elements are flattened to sparse vectors keyed by branch-major
position i*N + e.  Every row is primitive: integer entries with gcd 1,
positive at its pivot (its minimal position).  A rational vector has one
such multiple, so the reduced echelon basis of primitive rows is the
reduced row echelon form with each row cleared to integers: exact and
canonical, with no denominator anywhere.  Every function here takes
integer terms only, ((exp, coeff), ...) per branch by exponent; a caller
clears rational data to them once (:func:`curves.integer_terms`), which
changes neither a Q-span nor the ring closure.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968):
v <- (a/g)·v - (b/g)·row clears position p, with a = row[p], b = v[p],
g = gcd(a, b), and the content is divided out once per reduction.

The value semigroup ideal is read off with one sweep per branch i: rows
with distinct branch-i orders by forward elimination, then the
constraints of each axis-line imposed one at a time.  A constraint hits
the rows filed under it by order, and drops the one of largest branch-i
order, so every other row keeps its order: the line's dimension drops.

Spans, value scans, cuts and colons all eliminate through the same two
steps, :meth:`ModuleBasis._fully_reduce` and :func:`_cancel`: a colon's
solutions are the rows whose products reduce to zero, read off one row
reduction that carries each unknown as a tag (:func:`colon_solution_basis`).
"""

from __future__ import annotations

from math import gcd, prod

from ..errors import DimensionMismatch, FrameError, PoleBoundError, TruncationError
from ..ideals import Box, IdealFrame, _box_shape, _rows_to_bits
from ..lattice import Point, zero

__all__ = ["ModuleBasis", "span_basis", "value_semigroup_ideal", "colon_solution_basis"]

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
    the sign of its other entries."""
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
        one pivot from v never brings back another.
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

    def truncated(self, N: int) -> "ModuleBasis":
        """The basis of this span cut to ∏ Q[t]/(t^N), for N <= self.N.

        For spans this is the span at order N: truncation pi from order
        N' to N is a ring map, pi(r·v) = pi(r)·pi(v), so pi(V') holds the
        generators and is closed under the ring, giving V ⊆ pi(V'); and
        pi^-1(V) holds the generators and is closed under the ring too,
        giving V' ⊆ pi^-1(V).  The rows, re-keyed from i·N' + e to
        i·N + e with e >= N dropped, span pi(V'); reinserted they give the
        reduced echelon basis of primitive rows, which is unique (so is
        the reduced row echelon form, and each row's primitive multiple
        positive at its pivot), hence row for row a fresh build at N.
        """
        out, old = ModuleBasis(self.s, N), self.N
        for row in self.rows.values():
            out._insert({p // old * N + p % old: c for p, c in row.items() if p % old < N})
        return out

    def shifted(self, shift: Point) -> "ModuleBasis":
        """Basis of t^shift * (row space) mod t^N.

        Entries pushed past the truncation are dropped; callers must make
        sure those positions are covered separately (here they always fall
        in the monomial free zone of a conductor).
        """
        out = ModuleBasis(self.s, self.N)
        mono = tuple(((k, 1),) for k in shift)
        for row in self.rows.values():
            out._insert(_times(row, mono, self.N))
        return out


def require_monomials(basis: ModuleBasis, lo: Point, what: str) -> None:
    """Refuse unless the span holds t^e on branch i for all lo_i <= e < N.

    With p = i·N + e, t^e lies in the span iff rows[p] == {p: 1}.  A
    combination of rows holds c_q·rows[q][q] at each pivot q, as no other
    row holds q; so t^e, zero off p, is c·rows[p], and a primitive row
    positive at its pivot is then {p: 1}.
    """
    rows, N = basis.rows, basis.N
    for i, low in enumerate(lo):
        for p in range(i * N + low, (i + 1) * N):
            if rows.get(p) != {p: 1}:
                raise TruncationError(
                    f"{what} misses t^{p - i * N} on branch {i}: "
                    f"conductor bound {tuple(lo)} is not valid at truncation {N}"
                )


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
    basis = ModuleBasis(len(module_gens[0]), N)
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

    hi_i <= N-2 is required so every dimension involved stays inside the
    truncation; the returned capping bound is only trustworthy after the
    caller's stability checks.
    """
    s, N = basis.s, basis.N
    if len(hi) != s:
        raise DimensionMismatch(f"scan box corner {tuple(hi)} has {len(hi)} coordinates for {s} branches")
    if min(hi) < 0:
        raise FrameError(f"scan box corner {tuple(hi)} has a negative coordinate")
    if any(h > N - 2 for h in hi):
        raise TruncationError(f"scan box {hi} does not fit below truncation {N}")
    if basis.dim == 0:
        raise FrameError("the zero module has no value semigroup ideal")
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
        rest, last, at = [k for k in range(s) if k != i], i == s - 1, [0] * s
        out = [] if rest else [((), sum(1 << e for e in rows if e <= hi[i]))]
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

        if rest:
            walk(rows, [_file({}, *span, rows.items()) for span in spans], 0)
        good &= _rows_to_bits(shape, out)
    if not good >> prod(shape) - 1 & 1:
        raise FrameError(f"scan box corner {tuple(hi)} is not a value of the module")
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


def colon_solution_basis(
    ring_gens: list, K_basis: ModuleBasis, E_gens: list, gamma_K: Point, poles: Point
) -> ModuleBasis:
    """Basis of t^poles * (K : E) = {x honest : x * E ⊆ t^poles * K}.

    Requires K ⊇ t^gamma_K * (full space) — checked by
    :func:`require_monomials` — and N >= gamma_K + poles + 2 per branch,
    so that positions the truncation cannot see are exactly the free
    positions of the conductor.  Generators are integer terms only.  The
    result is verified to be closed under the ring.

    The kernel is read off one row reduction.  Each position var of x
    gives the row (t^var·g_1 | ... | t^var·g_k | t^var) over the
    generators g_j of E, in k + 1 blocks s·N wide with the tag block
    last: pivots are minimal positions, so products are eliminated before
    tags.  The product blocks are reduced against k disjoint copies of
    the shifted basis t^poles·K + monomials, then against the rows kept
    so far while the lowest position is a product position that a kept
    row owns.  A row left with a product position is kept; otherwise its
    tag block is a colon element.  Row operations keep each row equal to
    (x·g - w | x), w in t^poles·K; the tag at var stays positive and kept
    rows hold only earlier tags, so the colon rows are independent, s·N
    minus the rank in number: a basis, returned as its unique reduced
    echelon basis of primitive rows.
    """
    s, N = K_basis.s, K_basis.N
    if any(g + p + 2 > N for g, p in zip(gamma_K, poles)):
        raise TruncationError(f"truncation {N} too small for conductor {gamma_K} plus poles {poles}")
    require_monomials(K_basis, gamma_K, "left module")
    shifted = K_basis.shifted(poles)
    for i in range(s):
        for e in range(gamma_K[i] + poles[i], N):
            shifted._insert({i * N + e: 1})

    # at or above gamma_K + poles the shifted rows are the monomials
    # {p: 1}, which only delete a product entry: such entries are never
    # built, a generator with no term below puts no condition on x, and
    # only the rows below, which hold none of those positions, are copied
    # once per block; disjoint copies of a reduced basis are reduced
    free = [g + p for g, p in zip(gamma_K, poles)]
    E = [g for g in E_gens if any(terms and terms[0][0] < f for terms, f in zip(g, free))]
    width = s * N
    tag = len(E) * width
    low = [(p, row) for p, row in shifted.rows.items() if p % N < free[p // N]]
    target = ModuleBasis(s, N)
    target.rows = {
        j * width + p: {j * width + q: c for q, c in row.items()} for j in range(len(E)) for p, row in low
    }
    kept: dict[int, Row] = {}
    out = ModuleBasis(s, N)
    for var in range(width):
        i, room = var // N, free[var // N] - var % N
        v: Row = {}
        for j, g in enumerate(E):
            for eb, cb in g[i]:
                if eb >= room:
                    break
                v[j * width + var + eb] = cb
        v[tag + var] = 1
        target._fully_reduce(v)
        lead = min(v)
        while lead < tag and lead in kept:
            _cancel(v, kept[lead], lead)
            lead = min(v)
        if lead < tag:
            _divide_content(v)
            kept[lead] = v
        else:
            out._insert({p - tag: c for p, c in v.items()})
    # closure under the ring action is automatic for a true colon module;
    # failure means the pole window or the truncation clipped something
    for r in out.rows.values():
        for g in ring_gens:
            prod = _times(r, g, N)
            out._fully_reduce(prod)
            if prod:
                raise PoleBoundError(
                    "colon solution space is not closed under the ring action; "
                    "the pole window or the truncation is too small"
                )
    return out
