"""Exact linear algebra for R-submodules of ∏ Q[t]/(t^N).

Everything here is a Q-vector-space computation over Fractions.  Module
elements are flattened to sparse vectors keyed by branch-major position
i*N + e; a :class:`ModuleBasis` keeps a reduced row echelon basis with
monic pivots, and its ``_fully_reduce`` is the one elimination routine
here.  The value semigroup ideal is read off with one sweep per branch
i: rows in echelon form by branch-i order, then the constraints of each
axis-line imposed one at a time.  Each constraint drops the row of
largest branch-i order among those it touches, so every other row keeps
its order and the orders left are the line's dimension drops.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..errors import FrameError, PoleBoundError, TruncationError
from ..ideals import IdealFrame
from ..lattice import Point
from .series import SeriesVector

__all__ = ["ModuleBasis", "span_basis", "value_semigroup_ideal", "colon_solution_basis"]

Row = dict[int, Fraction]


def _axpy(target: Row, src: Row, f: Fraction) -> None:
    """target += f * src, dropping cancelled entries."""
    for k, v in src.items():
        nv = target.get(k, Fraction(0)) + f * v
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


class ModuleBasis:
    """Reduced row echelon Q-basis of a subspace of ∏ Q[t]/(t^N).

    Invariants: each stored row is monic at its pivot (its minimal
    position) and has no other pivot in its support.
    """

    __slots__ = ("s", "N", "rows")

    def __init__(self, s: int, N: int):
        self.s = s
        self.N = N
        self.rows: dict[int, Row] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def pivot_exponents(self, branch: int) -> list[int]:
        base = branch * self.N
        return sorted(p - base for p in self.rows if base <= p < base + self.N)

    def _fully_reduce(self, v: Row) -> None:
        """Eliminate every pivot position from v, in place."""
        while True:
            hits = sorted(p for p in v if p in self.rows)
            if not hits:
                return
            for p in hits:
                if p in v:
                    _axpy(v, self.rows[p], -v[p])

    def reduce(self, vec) -> Row:
        flat = vec.to_flat() if isinstance(vec, SeriesVector) else vec
        v = dict(flat)
        self._fully_reduce(v)
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec) -> bool:
        """Add a vector to the span; returns False if already contained."""
        flat = vec.to_flat() if isinstance(vec, SeriesVector) else vec
        v = dict(flat)
        self._fully_reduce(v)
        if not v:
            return False
        lead = min(v)
        c = v[lead]
        v = {k: val / c for k, val in v.items()}
        for row in self.rows.values():
            if lead in row:
                _axpy(row, v, -row[lead])
        self.rows[lead] = v
        return True

    def row_series(self) -> list[SeriesVector]:
        return [SeriesVector.from_flat(self.s, self.N, r) for r in self.rows.values()]

    def shifted(self, shift: Point) -> "ModuleBasis":
        """Basis of t^shift * (row space) mod t^N.

        Entries pushed past the truncation are dropped; callers must make
        sure those positions are covered separately (here they always fall
        in the monomial free zone of a conductor).
        """
        out = ModuleBasis(self.s, self.N)
        for row in self.rows.values():
            moved: Row = {}
            for pos, c in row.items():
                i, e = divmod(pos, self.N)
                e2 = e + shift[i]
                if e2 < self.N:
                    moved[i * self.N + e2] = c
            if moved:
                out.insert(moved)
        return out

    def copy(self) -> "ModuleBasis":
        out = ModuleBasis(self.s, self.N)
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out


def span_basis(ring_gens: list[SeriesVector], module_gens: list[SeriesVector]) -> ModuleBasis:
    """Smallest Q-subspace containing module_gens and closed under
    multiplication by the ring generators.

    Only vectors that genuinely enlarged the span are re-expanded: the
    span is the Q-span of those vectors, so closing each of them under
    every generator closes the whole space.
    """
    if not module_gens:
        raise FrameError("a module needs at least one generator")
    s, N = module_gens[0].s, module_gens[0].N
    basis = ModuleBasis(s, N)
    queue = list(module_gens)
    while queue:
        v = queue.pop()
        if v.is_zero() or not basis.insert(v):
            continue
        for g in ring_gens:
            queue.append(v * g)
    return basis


def _impose(rows: dict[int, Row], pos: int) -> None:
    """Restrict the span of ``rows`` to the vectors that vanish at pos.

    Rows are keyed by their order on one branch; keys >= N label rows
    that are zero there.  The row with the largest key among those
    nonzero at pos clears pos from the others and is dropped.  Its
    branch entries all lie above their orders, so every other row keeps
    its key.
    """
    hits = [k for k, r in rows.items() if pos in r]
    if not hits:
        return
    top_key = max(hits)
    top = rows.pop(top_key)
    c = top[pos]
    for k in hits:
        if k != top_key:
            r = rows[k]
            _axpy(r, top, -r[pos] / c)


def value_semigroup_ideal(basis: ModuleBasis, hi: Point) -> IdealFrame:
    """Value vectors of the module over the box [0, hi], as an ideal frame.

    alpha belongs iff the filtration dimension drops in every coordinate
    at alpha: for each branch i, some element vanishing below alpha_k on
    every other branch k has order exactly alpha_i on branch i.  Per
    branch i the module is put in echelon form by branch-i order, so the
    orders of the rows are distinct and form the drop set of the line
    with no constraints.  The box of the other axes is walked in lex
    order, copying the state once per outer level when s >= 3.  Raising
    alpha_k from a to a+1 requires position (k, a) to vanish, and
    :func:`_impose` drops the row of largest order among those nonzero
    there.  Every other row keeps its order, so each line's drop set is
    read straight off the remaining row keys.

    hi_i <= N-2 is required so every dimension involved stays inside the
    truncation; the returned capping bound is only trustworthy after the
    caller's stability checks.
    """
    s, N = basis.s, basis.N
    if any(h > N - 2 for h in hi):
        raise TruncationError(f"scan box {hi} does not fit below truncation {N}")
    if basis.dim == 0:
        raise FrameError("the zero module has no value semigroup ideal")
    shape = tuple(h + 1 for h in hi)
    good = np.ones(shape, dtype=bool)
    for i in range(s):
        # positions rotated so that branch i comes first: a row's pivot is
        # its branch-i order, or >= N when the row is zero on branch i
        rot = ModuleBasis(s, N)
        for row in basis.rows.values():
            rot.insert({(p - i * N) % (s * N): c for p, c in row.items()})
        rest = [k for k in range(s) if k != i]
        drop_i = np.zeros(shape, dtype=bool)
        idx: list = [slice(None)] * s

        def walk(rows: dict[int, Row], depth: int) -> None:
            if depth == len(rest):
                drop_i[tuple(idx)][[e for e in rows if e <= hi[i]]] = True
                return
            k, inner = rest[depth], depth + 1 < len(rest)
            for a in range(hi[k] + 1):
                idx[k] = a
                walk({p: dict(r) for p, r in rows.items()} if inner else rows, depth + 1)
                if a < hi[k]:
                    _impose(rows, ((k - i) % s) * N + a)

        walk(rot.rows, 0)
        good &= drop_i
    return IdealFrame._from_bitmap(tuple(0 for _ in range(s)), good)


def _nullspace(rows: list[Row], nvars: int) -> list[Row]:
    """Kernel basis of rows·x = 0 over Q (variables numbered 0..nvars-1)."""
    echelon = ModuleBasis(1, nvars)
    for r in rows:
        echelon.insert(r)
    kernel = []
    for f in range(nvars):
        if f in echelon.rows:
            continue
        sol: Row = {f: Fraction(1)}
        for piv, row in echelon.rows.items():
            c = row.get(f)
            if c:
                sol[piv] = -c
        kernel.append(sol)
    return kernel


def colon_solution_basis(
    ring_gens: list[SeriesVector],
    K_basis: ModuleBasis,
    E_gens: list[SeriesVector],
    gamma_K: Point,
    poles: Point,
) -> ModuleBasis:
    """Basis of t^poles * (K : E) = {x honest : x * E ⊆ t^poles * K}.

    Requires K ⊇ t^gamma_K * (full space) — checked explicitly — and
    N >= gamma_K + poles + 2 per branch, so that positions the truncation
    cannot see are exactly the free positions of the conductor.  The
    result is verified to be closed under the ring generators.
    """
    s, N = K_basis.s, K_basis.N
    for i in range(s):
        if gamma_K[i] + poles[i] + 2 > N:
            raise TruncationError(
                f"truncation {N} too small for conductor {gamma_K} plus poles {poles}"
            )
        for e in range(gamma_K[i], N):
            if not K_basis.contains(SeriesVector.monomial(s, N, i, e)):
                raise TruncationError(
                    f"left module misses t^{e} on branch {i}: "
                    f"conductor bound {gamma_K} is not valid at truncation {N}"
                )
    shifted = K_basis.shifted(poles)
    for i in range(s):
        for e in range(gamma_K[i] + poles[i], N):
            shifted.insert(SeriesVector.monomial(s, N, i, e))

    # x is a symbolic honest series with one variable per position.  For
    # each E generator g, the product x*g is a vector of linear forms:
    # its coefficient at (i, m) is sum_a x_(i,a) * g_i[m-a].  Reducing
    # that vector against the shifted basis leaves the forms that have to
    # vanish for membership.
    constraints: list[Row] = []
    for g in E_gens:
        forms: dict[int, Row] = {}
        for i in range(s):
            gb = g.coeffs[i]
            for m in range(N):
                form: Row = {}
                for eb, cb in gb.items():
                    a = m - eb
                    if 0 <= a < N:
                        form[i * N + a] = cb
                if form:
                    forms[i * N + m] = form
        for piv in sorted(shifted.rows):
            frm = forms.pop(piv, None)
            if frm is None:
                continue
            row = shifted.rows[piv]
            for pos, c in row.items():
                if pos == piv:
                    continue
                target = forms.setdefault(pos, {})
                for var, fc in frm.items():
                    nv = target.get(var, Fraction(0)) - c * fc
                    if nv:
                        target[var] = nv
                    else:
                        target.pop(var, None)
        constraints.extend(form for form in forms.values() if form)

    kernel = _nullspace(constraints, s * N)
    out = ModuleBasis(s, N)
    for sol in kernel:
        out.insert(sol)
    # closure under the ring action is automatic for a true colon module;
    # failure means the pole bound or the truncation clipped something
    check = out.copy()
    for r in out.row_series():
        for g in ring_gens:
            if check.insert(r * g):
                raise PoleBoundError(
                    "colon solution space is not closed under the ring action; "
                    "increase the pole bound or the truncation"
                )
    return out
