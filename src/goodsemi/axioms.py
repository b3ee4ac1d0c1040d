"""The axioms of good ideals, decided on frames, and the sum of ideals.

(E1) closure under componentwise min, (E2) the exchange axiom and the
ideal property E + S ⊆ E are each decided by sweeps of the frame bitset
(:func:`validate`); witnesses are listed only for an axiom that fails.
:class:`GoodSemigroup` is a frame that passed all of them.

By the capping rule a frame point c stands for the members c + N^T, T the
axes where c_i = gamma_i.  Sums, differences and the check E + S ⊆ E fold
each such family into one translate of a table built once per T: a shift
of the table's int per run of frame points along the last axis, walking
the nonempty rows alone, one table per T met, and one read back onto the
result's grid (:func:`_reduce_translates`).  An erosion leaves out of T
the axes on which every translate at the top lands at or past gamma_E,
where E does not vary; E + S ⊆ E on a good ideal E then sweeps no axis
at all, nor does K⁰ - (alpha + S).  Every table swept along a set of
axes, here and in :mod:`goodsemi.duality`, comes from
:func:`goodsemi.ideals._folds`: the table of T is the table of T minus
its highest axis, folded once more.

E + S ⊆ E translates E only by S's Apéry families, those that are not
sums (:func:`_apery_families`): the minimal nonzero cells G0 of S's box
[0, top], each cell c with no g in G0, g <= c, and c - g + N^T ⊆ S, and
cell 0 when some top_i = 0: its family 0 + N^T then holds the
multiples of e_i, a generator outside the box.  The verdict stays exact
by induction on |sigma| (:func:`_additivity_holds`).  S keeps these
families, and its K⁰, in its store once built.

:mod:`goodsemi.ideals` reads the public names of this module through,
importing it on first use; its private helpers are read from here.
"""

from __future__ import annotations

import operator
import re
from functools import reduce

from . import ideals
from .errors import FrameError, NotCertifiedError
from .ideals import (Box, IdealFrame, _Record, _box_shape, _crop, _fill, _folds, _frame_box,
                     _index, _points, _prefix_or, _regrid, _rows, _strides, _suffix_and,
                     _suffix_or, _suffix_or_strict, check_frames)
from .lattice import add, cmax, cmin, ones, sub, zero

_RUN = re.compile("1+")


def _window_op(op, table: int, r: int) -> int:
    """op (OR or AND) over the r flat positions from each cell on, by
    doubling steps; the last two windows overlap."""
    width = 1
    while 2 * width <= r:
        table = op(table, table >> width)
        width *= 2
    return op(table, table >> (r - width)) if r > width else table


def _reduce_translates(erode: bool, E: IdealFrame, lo, hi, by: Box) -> Box:
    """The erosion (AND, at x + c) or dilation (OR, at x - c) of E over
    [lo, hi] by the members c of ``by``, each read through E's suffix-AND
    or prefix-OR along T, the axes where c reaches the top of ``by``.  One
    window of E over [lo + min o, hi + max o], o = ±c over the corners of
    ``by``, holds every translate; each caller says why it suffices.

    A table is an int in the window's C layout; o is the shift k, the
    :func:`_index` of o - min o, and its translate table >> k holds
    [lo, hi] at the indices of x - lo, all below L, one past that of
    hi - lo.  The cells between (row ends) and bits at or past L (left
    over from the shift) are never read.  Along the last axis of ``by``
    the shifts are consecutive, so each row of ``by`` is a pattern (its
    cell string, reversed for a dilation) at a base shift B, and k = B + e
    for its set cells e.  A pattern's translates reduce to one int P, the
    op over its runs of r cells at a of the table's r-cell window op
    (:func:`_window_op`) shifted by a, and each row with that pattern adds
    P >> B: every cell of P read this way is one that the row's own
    translates would read.  Only the nonempty rows are walked
    (:func:`goodsemi.ideals._rows`); B and T come from the row number,
    one divmod per leading axis.

    An erosion sweeps only the axes j with lo_j + far_j < gamma_E,j, far
    = by.lo + top.  On any other axis, every translate at the top of
    ``by`` is read at x + c with x_j + c_j >= lo_j + far_j >= gamma_E,j.
    The window is a :meth:`membership_box` of E, constant along j past
    gamma_E,j by the capping rule, and a suffix-AND along other axes acts
    on each slice along j alone, so it keeps that.  So there the
    suffix-AND along j is the cell itself.  If the last axis is not swept,
    a row's edge cell shares the row's table, and the whole row is one
    pattern.  A dilation sweeps every axis.
    """
    n = by.shape
    s = len(n)
    top = tuple(m - 1 for m in n)
    far = add(by.lo, top)
    if erode:
        op, window = operator.and_, E.membership_box(add(lo, by.lo), add(hi, far))
    else:
        op, window = operator.or_, E.membership_box(sub(lo, far), sub(hi, by.lo))
    shape = _box_shape(lo, hi)
    reach, edge, last = _index(top, window.shape), top[-1], 1 << (s - 1)
    sweep = sum(1 << j for j in range(s) if lo[j] + far[j] < E.gamma[j]) if erode else (1 << s) - 1
    lead = [(sweep & 1 << j, n[j], t) for j, t in reversed(list(enumerate(_strides(window.shape)[:-1])))]
    groups: dict[int, dict[str, list[int]]] = {}
    for row, line in _rows(by.bits, n):
        base = T = 0
        for bit, m, t in lead:  # one digit of the row number each
            row, x = divmod(row, m)
            base += x * t
            T |= bit if x == m - 1 else 0
        if not erode:
            base = reach - base - edge
        if sweep & last:  # the cell at the edge also reaches the top of the last axis
            parts = ((T, line[:-1] + "0"), (T | last, "0" * edge + line[-1]))
        else:
            parts = ((T, line),)
        for mask, pattern in parts:
            if "1" in pattern:
                pattern = pattern if erode else pattern[::-1]
                groups.setdefault(mask, {}).setdefault(pattern, []).append(base)
    tables = _folds(window.bits, window.shape, _suffix_and if erode else _prefix_or)
    L = _index([m - 1 for m in shape], window.shape) + 1
    acc = (1 << L) - 1 if erode else 0
    for T, rows in groups.items():
        table, windows = tables(T), {}
        for pattern, bases in rows.items():
            parts = []
            for run in _RUN.finditer(pattern):
                a, b = run.span()
                w = windows.get(b - a)
                if w is None:
                    w = windows[b - a] = _window_op(op, table, b - a)
                parts.append(w >> a)
            P = reduce(op, parts)
            for B in bases:
                acc = op(acc, P >> B)
    return Box(lo, shape, _crop(acc, window.shape, zero(s), shape))


def _e1_holds(E: IdealFrame) -> bool:
    """Decide (E1) by 2^s suffix sweeps of the frame bitmap.

    A point m of [mu, gamma] is min(p, q) for frame points p, q exactly
    when, for some split I ⊔ J of the axes, there is a member p >= m that
    agrees with m on I and a member q >= m that agrees with m on J (every
    axis must carry the minimum on one side).  ``up(X)``, the inclusive
    suffix-OR of the bitmap along the axes in X, marks the m with such a
    member for the agreement set X^c.  (E1) holds iff up(I) & up(I^c)
    lies inside the frame for every proper nonempty I.  Capping commutes
    with min, so checking frame pairs on the frame box is exact for the
    represented set.
    """
    full = (1 << E.s) - 1
    up = _folds(E._bits, E.shape, _suffix_or)
    return not any(up(I) & up(full ^ I) & ~E._bits for I in range(1, full) if I < full ^ I)


def _e1_failures(E: IdealFrame) -> list[tuple[Point, Point]]:
    """Pairs p < q (lex) of frame points whose min is missing, in lex order;
    listed only after the sweep finds a failure.  For each p, cmin(q, p) is
    q capped at p, so the q whose min with p is a member are E's frame
    read with the capping rule of [mu, p]: one regrid per frame point."""
    if E.is_e1():
        return []
    shape, frame = E.shape, E._bits
    out = []
    for p in E.frame_sorted:
        idx = sub(p, E.mu)
        capped = _regrid(frame, shape, [(0, 0, i + 1, n - 1 - i) for i, n in zip(idx, shape)])
        k = _index(idx, shape) + 1
        bad = (frame & ~capped) >> k << k
        out.extend((p, q) for q in _points(bad, shape, E.mu))
    return out


def _exchange_tables(E: IdealFrame):
    """The (E2) witness tables over the grid [mu, gamma+1], folded on demand.

    ``tables[j](mask)``, for a real axis mask that does not contain j,
    marks the m that have a member eps with eps_j > m_j, eps_i >= m_i on
    the axes in ``mask`` and eps_i = m_i on the rest: a strict suffix-OR
    along j, then inclusive suffixes along the masked axes.  Returns
    (grid, tables), grid E's membership :class:`Box` on that grid.
    """
    grid = E.membership_box(E.mu, add(E.gamma, ones(E.s)))
    shape = grid.shape
    return grid, [_folds(_suffix_or_strict(grid.bits, shape, j), shape, _suffix_or) for j in range(E.s)]


def _e2_holds(E: IdealFrame, built=None) -> bool:
    """Decide (E2) by suffix sweeps of the frame bitmap.

    For frame points p != q with p_j = q_j and min m, both equal m on every
    axis where they agree; on the set D where they differ, one of them
    equals m and the other is strictly above it.  With ``G(X)`` the strict
    suffix-OR of the bitmap along the axes in X (a member strictly above m
    on X, equal to m elsewhere), such a pair sharing axis j and differing
    exactly on D exists iff the OR over splits Dp ⊔ Dq = D of
    G(Dp) & G(Dq) holds at m.  Each such m must carry the witness table
    of :func:`_exchange_tables` for j and the agreement axes.  The sweeps
    run on the frame embedded in the table grid, whose top slices are
    empty; a strict suffix leaves them empty, so no crop is needed.
    Work: s * 3^(s-1) box passes.  ``built`` is E's
    :func:`_exchange_tables`, when the caller has them.
    """
    grid, tables = built or _exchange_tables(E)
    shape = grid.shape
    frame = grid.bits
    for ax in range(E.s):
        frame &= _fill(shape, ax, 0, shape[ax] - 1)
    G = _folds(frame, shape, _suffix_or_strict)
    pairs: dict[int, int] = {}
    full = (1 << E.s) - 1
    for j, table in enumerate(tables):
        others = full ^ 1 << j
        # the masks of agreement axes other than j, all but others (p = q)
        for agree in range(others):
            if agree >> j & 1:
                continue
            D = others ^ agree
            if D not in pairs:
                # splits with the lowest axis of D on p's side: each
                # unordered split once
                got = 0
                low = D & -D
                Dp = D
                while Dp:
                    if Dp & low:
                        got |= G(Dp) & G(D ^ Dp)
                    Dp = (Dp - 1) & D
                pairs[D] = got
            if pairs[D] & ~table(agree):
                return False
    return True


def _e2_failures(E: IdealFrame) -> list[tuple[Point, Point, int]]:
    """Exchange-axiom failures among frame pairs, with the witness search
    running over [mu, gamma+1] via the extension rule; the pairwise
    enumeration runs only after the sweep finds a failure.  Listed by
    axis j, then by the shared coordinate, p in lex order, the agreement
    mask and q in lex order."""
    built = _exchange_tables(E)
    if _e2_holds(E, built):
        return []
    grid, tables = built
    pts = E.frame_sorted
    failures: list[tuple[Point, Point, int]] = []
    for j, table in enumerate(tables):
        groups: dict[int, list[Point]] = {}
        for p in pts:
            groups.setdefault(p[j], []).append(p)
        for x in sorted(groups):
            G = groups[x]
            for a, p in enumerate(G):
                found = []
                for t, q in enumerate(G[a + 1 :]):
                    mask = sum(1 << i for i in range(E.s) if i != j and q[i] == p[i])
                    if not table(mask) >> _index(sub(cmin(p, q), E.mu), grid.shape) & 1:
                        found.append((mask, t, q))
                failures.extend((p, q, j) for _, _, q in sorted(found))
    return failures


def _apery_families(S: IdealFrame) -> Box:
    """The cells of S's box [0, top], top = cmax(gamma_S, 0), whose
    families E must be translated by to decide E + S ⊆ E.

    A cell c stands for the family c + N^T, T the axes where c_i = top_i.
    G0 is the set of minimal members of the box other than 0: the members
    c != 0 with no member other than 0 at or below c - e_i for any axis
    i, read off the up-closure (one prefix-OR per axis).  A family is
    dropped when c - g + N^T ⊆ S for some g in G0 with g <= c: the
    suffix-AND of the box along T, read at c - g by a shift of g's cell
    index and masked to the cells c >= g.  The cells of G0 are kept, and
    cell 0 is kept exactly when its family is more than {0} (top_i = 0
    on some axis).  :func:`_additivity_holds` says why this is exact.
    """
    s = S.s
    top = cmax(S.gamma, zero(s))
    box = S.membership_box(zero(s), top)
    shape, bits = box.shape, box.bits
    st = _strides(shape)
    up = _folds(bits & ~1, shape, _prefix_or)((1 << s) - 1)
    below = 0
    for axis, t in enumerate(st):
        below |= up << t & _fill(shape, axis, 1, shape[axis])
    gens = bits & ~1 & ~below
    shifts = []  # (cell index of g, the cells c >= g) per g in G0
    rest = gens
    while rest:
        k = (rest & -rest).bit_length() - 1
        rest ^= 1 << k
        ge = (1 << box.size) - 1
        for axis, (t, n) in enumerate(zip(st, shape)):
            if k // t % n:
                ge &= _fill(shape, axis, k // t % n, n)
        shifts.append((k, ge))
    tail_and = _folds(bits, shape, _suffix_and)  # the cells c with c + N^T ⊆ S
    drop = 0
    for T in range(1 << s):
        on = bits
        for axis, x in enumerate(top):
            on &= _fill(shape, axis, x, x + 1) if T >> axis & 1 else _fill(shape, axis, 0, x)
        if on:
            A = tail_and(T)
            for k, ge in shifts:
                drop |= A << k & ge & on
    keep = bits & ~drop | gens
    if all(top):
        keep &= ~1
    return Box(box.lo, shape, keep)


def _additivity_holds(E: IdealFrame, S: IdealFrame) -> bool:
    """Decide E + S ⊆ E, for the sums e + sigma with sigma in S ∩ N^s.

    Capping at top = cmax(gamma_S, 0) keeps S's membership, so S ∩ N^s is
    the union over c in S ∩ [0, top] of c + N^T, T the axes where c_i =
    top_i (reading S on [mu_S, gamma_S] drops these tails on an axis where
    gamma_S < 0).  e + c + N^T ⊆ E iff e + c lies in E's suffix-AND along
    T; the window reaches past gamma_E, so the AND is exact, and on an
    axis where mu_E + top reaches gamma_E it is e + c itself, not swept
    (:func:`_reduce_translates`): on every axis when E is a good ideal of
    S.  Frame points e suffice, because sigma >= 0 keeps capped
    coordinates capped.

    Only the families of :func:`_apery_families` are translated: the
    cells of G0, the minimal elements of (S ∩ [0, top]) minus 0, cell 0 when
    its family has a tail, and each other cell c with no g in G0, g <= c,
    and c - g + N^T ⊆ S.  If those translates lie in E, so does e + sigma
    for every sigma in S ∩ N^s, by induction on |sigma|: sigma = 0 is
    trivial, and a sigma of a kept family is checked.  A sigma of a dropped
    family c + N^T is g + sigma' with sigma' = sigma - g in c - g + N^T, so
    sigma' lies in S ∩ N^s, and |sigma'| < |sigma| as g != 0; then e + g is
    in E, as g's family is kept, and e + sigma = (e + g) + sigma' is in E
    by induction.  The converse is plain, so the verdict is exact.
    """
    held = _reduce_translates(True, E, E.mu, E.gamma, S._memo("families", lambda: _apery_families(S)))
    return not E._bits & ~held.bits


def _additivity_failures(E: IdealFrame, S: IdealFrame) -> list[tuple[Point, Point]]:
    """Failures of E + S ⊆ E, listed sigma-major and then e in lex order;
    the enumeration runs only after :func:`_additivity_holds` finds one.

    Scanning e over the frame and sigma over S ∩ [0, max(gamma_S,
    gamma_E - mu_E) + 1] is exact for min-capped representations.
    """
    if _additivity_holds(E, S):
        return []
    bound = add(cmax(S.gamma, sub(E.gamma, E.mu)), ones(E.s))
    out = []
    for sigma in S.members_in_box(zero(E.s), bound):
        moved = E.membership_box(add(E.mu, sigma), add(E.gamma, sigma))
        out.extend((e, sigma) for e in _points(E._bits & ~moved.bits, E.shape, E.mu))
    return out


class ValidationReport(_Record):
    """Outcome of the axiom scans; failing checks carry witnesses.

    Mutable and unhashable; each list left out is a fresh empty one.
    """

    __slots__ = _fields = (
        "e0_ok",
        "e1_ok",
        "e2_ok",
        "additivity_ok",
        "e1_failures",
        "e2_failures",
        "additivity_failures",
        "notes",
    )
    __hash__ = None

    def __init__(
        self,
        e0_ok: bool,
        e1_ok: bool,
        e2_ok: bool,
        additivity_ok: bool | None,
        e1_failures: list | None = None,
        e2_failures: list | None = None,
        additivity_failures: list | None = None,
        notes: list | None = None,
    ):
        self.e0_ok, self.e1_ok, self.e2_ok = e0_ok, e1_ok, e2_ok
        self.additivity_ok = additivity_ok
        self.e1_failures = [] if e1_failures is None else e1_failures
        self.e2_failures = [] if e2_failures is None else e2_failures
        self.additivity_failures = [] if additivity_failures is None else additivity_failures
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return (
            self.e0_ok
            and self.e1_ok
            and self.e2_ok
            and self.additivity_ok is not False
        )

    def summary(self) -> str:
        def tag(v):
            return "pass" if v else "FAIL"

        lines = [
            f"E0 (conductor exists):        {tag(self.e0_ok)}",
            f"E1 (closed under min):        {tag(self.e1_ok)}",
            f"E2 (exchange axiom):          {tag(self.e2_ok)}",
        ]
        if self.additivity_ok is None:
            lines.append("ideal property (E+S in E):    not checked (no ambient)")
        else:
            lines.append(f"ideal property (E+S in E):    {tag(self.additivity_ok)}")
        for a, b in self.e1_failures[:3]:
            lines.append(f"  E1 witness: min of {a}, {b} is missing")
        for a, b, j in self.e2_failures[:3]:
            lines.append(f"  E2 witness: pair {a}, {b} agreeing in coordinate {j}")
        for e, sig in self.additivity_failures[:3]:
            lines.append(f"  ideal witness: {e} + {sig} is missing")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def validate(E: IdealFrame, S=None) -> ValidationReport:
    """Check the ideal/semigroup axioms on the finite representation.

    ``S`` (a GoodSemigroup or a raw IdealFrame) enables the E + S ⊆ E
    check; without it only (E0)-(E2) are examined.  All scans are exact
    for the represented set; see the per-check helpers for the boxes used.
    (E1) and (E2) are decided by bitmap sweeps; witnesses are listed only
    for an axiom that fails.  The conductor is compared with gamma only
    then: when both hold, the normalized gamma is the conductor c.  Let
    x_i >= c_i, and y_i = x_i, y_j > max(x_j, c_j) elsewhere, so that y
    is in E.  By (E1), x + e_i in E puts x = min(x + e_i, y) in E.  By
    (E2) on x in E and y, some x + k e_i with k >= 1 is in E, and then so
    is x + e_i, by (E1) read down from there.  So E is constant along i
    from c_i on, and the normalization cuts gamma to c.  Reports are
    kept in E's store, and each call returns a copy the caller owns.
    """
    check_frames("validate", E=E, **({} if S is None else {"S": S}))

    def axioms() -> ValidationReport:
        e1_fail = _e1_failures(E)
        e2_fail = _e2_failures(E)
        notes = []
        if (e1_fail or e2_fail) and E.conductor != E.gamma:
            notes.append(
                f"capping bound {E.gamma} exceeds the conductor {E.conductor}; "
                "the stored frame is definitional for this (non-good) set"
            )
        if e1_fail:
            notes.append("E2 was checked on the capped box only (E1 fails)")
        # e0: gamma is in the frame, so gamma + N^s is in E by the rule
        return ValidationReport(True, not e1_fail, not e2_fail, None, e1_fail, e2_fail, notes=notes)

    def full() -> ValidationReport:
        add_fail = _additivity_failures(E, S)
        return ValidationReport(True, ax.e1_ok, ax.e2_ok, not add_fail, ax.e1_failures, ax.e2_failures,
                                add_fail, ax.notes)

    ax = E._memo(("report", None), axioms)
    kept = ax if S is None else E._memo(("report", S.fingerprint()), full)
    return ValidationReport(*(list(v) if type(v) is list else v for v in kept._key()))


class GoodSemigroup(IdealFrame):
    """A good semigroup: a frame with mu = 0 certified to satisfy (E0)-(E2)
    and closure under addition, so S is a good ideal of itself.  The
    constructor only certifies, and S shares its source frame's store."""

    __slots__ = ()

    def __init__(self, ideal: IdealFrame):
        if not isinstance(ideal, IdealFrame):
            raise FrameError(f"a good semigroup is built from an IdealFrame, got {type(ideal).__name__}")
        if ideal.mu != zero(ideal.s):
            raise NotCertifiedError(f"a semigroup must have minimum 0, got mu={ideal.mu}")
        self._adopt(ideal.mu, ideal.gamma, ideal._bits)
        self._store = ideal._store  # the same set at the same place, so the same results
        # read on goodsemi.ideals, the name's public home, so that a wrapper
        # bound there (a profiler's, say) sees this check too
        report = ideals.validate(self, self)
        if not report.ok:
            raise NotCertifiedError(
                "the frame does not define a good semigroup:\n" + report.summary(),
                report,
            )

    @classmethod
    def from_points(cls, points, gamma) -> "GoodSemigroup":
        return cls(IdealFrame.from_points(points, gamma))

    @property
    def ideal(self) -> "GoodSemigroup":
        return self


# -- arithmetic on frames -----------------------------------------------------


def sum_ideals(E: IdealFrame, F: IdealFrame) -> IdealFrame:
    """The pointwise sum E + F = {e + f}, exactly representable with
    capping bound gamma_E + gamma_F (then minimized).

    Under the capping rule each frame point c of F stands for the members
    c + N^T of F, T the axes where c_i = gamma_F,i, so E + F is the OR over
    the frame points c of c + (E + N^T), and E + N^T is E's cumulative OR
    along T.  The window [lo - gamma_F, hi - mu_F] starts at or below
    mu_E, so that OR misses no member of E: one translate per frame point
    of F.
    """
    check_frames("sum_ideals", E=E, F=F)
    lo = add(E.mu, F.mu)
    hi = add(E.gamma, F.gamma)
    out = _reduce_translates(False, E, lo, hi, _frame_box(F))
    return IdealFrame._from_box(out)


def is_subset(E: IdealFrame, F: IdealFrame) -> bool:
    """Set inclusion E ⊆ F, decided exactly on the joint box."""
    check_frames("is_subset", E=E, F=F)
    lo = cmin(E.mu, F.mu)
    hi = cmax(E.gamma, F.gamma)
    return not E.membership_box(lo, hi).bits & ~F.membership_box(lo, hi).bits
