"""Finite representation of semigroup ideals of N^s and good semigroups.

An ideal E of a good semigroup lives in Z^s, is bounded below, and contains
a whole translated orthant gamma + N^s.  An :class:`IdealFrame` stores the
branch count ``s``, the minimum ``mu``, a capping bound ``gamma``, and a
read-only bitmap of the frame E ∩ [mu, gamma]; membership of an arbitrary
point is *defined* by the min-capping rule

    alpha in E  iff  cmin(alpha, gamma) in frame.

The frame's point tuples (``frame``, ``frame_sorted``) are built only when
read.  ``gamma`` is always normalized to the smallest bound for which this
rule reproduces the set (the per-axis slice-stability scan in
:func:`_trim`), so equal sets have equal state.  For validated-good ideals
that minimal bound coincides with the conductor; for frames that merely
satisfy (E1) it can sit strictly above the conductor, which is exposed
separately as :attr:`IdealFrame.conductor`.

By the rule a frame point c stands for the members c + N^T, T the axes
where c_i = gamma_i.  Sums, differences and the check E + S ⊆ E fold each
such family into one translate of a table built once per T: one translate
per frame point, a contiguous slice of the raveled table, plus at most 2^s
tables, and one read back onto the result's grid (:func:`_tail_translates`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import FrameError, NotCertifiedError, ParseError
from .lattice import (
    Point,
    add,
    as_point,
    check_same_dim,
    cmax,
    cmin,
    ones,
    sub,
    zero,
)

__all__ = [
    "IdealFrame",
    "GoodSemigroup",
    "ValidationReport",
    "LocalDecomposition",
    "validate",
    "sum_ideals",
    "is_subset",
    "is_local",
    "decompose",
    "product_semigroups",
    "recombine",
    "to_json",
    "from_json",
]


def _suffix_or(a: np.ndarray, axis: int) -> np.ndarray:
    """out[x] = OR of a at positions >= x along ``axis`` (inclusive)."""
    return np.flip(np.logical_or.accumulate(np.flip(a, axis), axis=axis), axis)


def _suffix_or_strict(a: np.ndarray, axis: int) -> np.ndarray:
    """out[x] = OR of a at positions > x along ``axis`` (exclusive)."""
    inc = _suffix_or(a, axis)
    out = np.zeros_like(a)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    src[axis] = slice(1, None)
    dst[axis] = slice(0, -1)
    out[tuple(dst)] = inc[tuple(src)]
    return out


def _suffix_and(a: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.logical_and.accumulate(np.flip(a, axis), axis=axis), axis)


def _trim(arr: np.ndarray, mu: Point) -> tuple[Point, np.ndarray]:
    """Cut a bitmap over [mu, ...] that is exact at its upper corner to the
    smallest exact capping bound; returns that bound and a copy.

    A bound c is exact iff along every axis i all box slices at levels
    >= c_i are identical; the exact bounds therefore form an upper
    orthant and the componentwise minimum is found per axis.
    """
    top = []
    for ax in range(arr.ndim):
        t = arr.shape[ax] - 1
        while t > 0 and np.array_equal(np.take(arr, t - 1, axis=ax), np.take(arr, t, axis=ax)):
            t -= 1
        top.append(t)
    return tuple(m + t for m, t in zip(mu, top)), arr[tuple(slice(0, t + 1) for t in top)].copy()


def _points(bitmap: np.ndarray, lo: Point) -> list[Point]:
    """The members of a bitmap over [lo, ...], in lex order."""
    return list(map(tuple, (np.argwhere(bitmap) + lo).tolist()))


_INT_TYPES = frozenset({int} | {np.dtype(c).type for c in np.typecodes["AllInteger"]})


def _check_ints(rows: list, name: str) -> None:
    """Refuse a coordinate that is not an int or a numpy integer: a bool,
    float or str is an input error, never cast."""
    for p in rows:
        if not _INT_TYPES.issuperset(map(type, p)):
            raise FrameError(f"{name} {list(p)} has a non-integer coordinate")


class IdealFrame:
    """Exact finite representation of a semigroup ideal of Z^s."""

    __slots__ = (
        "s",
        "mu",
        "gamma",
        "_frame",
        "_sorted",
        "_bitmap",
        "_conductor",
        "_report_cache",
    )

    def __init__(self, s: int, mu, gamma, frame, *, _normalized: bool = False):
        if type(s) not in _INT_TYPES:
            raise FrameError(f"branch count {s!r} is not an integer")
        s = int(s)
        if s < 1:
            raise FrameError("branch count must be >= 1")
        _check_ints([mu, gamma], "mu/gamma")
        mu, gamma = (tuple(map(int, v)) for v in (mu, gamma))
        if len(mu) != s or len(gamma) != s:
            raise FrameError(f"mu/gamma must have {s} coordinates")
        pts = list(frame)
        if not pts:
            raise FrameError("frame must be nonempty")
        _check_ints(pts, "frame point")
        if set(map(len, pts)) != {s}:
            bad = next(p for p in pts if len(p) != s)
            raise FrameError(f"frame point {tuple(map(int, bad))} has wrong dimension")
        arr = np.array(pts, dtype=np.int64).reshape(-1, s)
        outside = ~((arr >= mu) & (arr <= gamma)).all(axis=1)
        if outside.any():
            bad = tuple(arr[outside.argmax()].tolist())
            raise FrameError(f"frame point {bad} outside [{mu}, {gamma}]")
        bitmap = np.zeros(tuple(g - m + 1 for m, g in zip(mu, gamma)), dtype=bool)
        bitmap[tuple((arr - mu).T)] = True
        if not bitmap[(0,) * s]:
            raise FrameError(f"mu={mu} must belong to the frame")
        if not bitmap[(-1,) * s]:
            raise FrameError(f"gamma={gamma} must belong to the frame")
        if not _normalized:
            gamma, bitmap = _trim(bitmap, mu)
        self._adopt(mu, gamma, bitmap)

    def _adopt(self, mu: Point, gamma: Point, bitmap: np.ndarray) -> "IdealFrame":
        """Take the state, a bitmap over [mu, gamma] made read-only, unchecked."""
        bitmap.flags.writeable = False
        self.s, self.mu, self.gamma, self._bitmap = len(mu), mu, gamma, bitmap
        self._frame = self._sorted = self._conductor = None
        self._report_cache = {}
        return self

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_points(cls, points, gamma) -> "IdealFrame":
        """Build from the point set E ∩ [min, gamma]; gamma must be a valid
        capping bound for the intended set (it is then minimized)."""
        pts = list(points)
        if not pts:
            raise FrameError("empty point set")
        _check_ints(pts, "frame point")
        mu = tuple(map(min, zip(*pts)))
        return cls(len(mu), mu, gamma, pts)

    @classmethod
    def _from_bitmap(cls, lo: Point, bitmap: np.ndarray) -> "IdealFrame":
        """Build from a membership bitmap over [lo, lo+shape-1] that is exact
        at its upper corner (capping there reproduces the intended set)."""
        if not bitmap.any():
            raise FrameError("empty point set")
        s = len(lo)
        hi = tuple(l + n - 1 for l, n in zip(lo, bitmap.shape))
        first = tuple(
            int(np.argmax(bitmap.any(axis=tuple(j for j in range(s) if j != i))))
            for i in range(s)
        )
        mu = tuple(l + f for l, f in zip(lo, first))
        if not bitmap[first]:
            raise FrameError(f"set has no minimum element (componentwise min {mu} missing)")
        if not bitmap[(-1,) * s]:
            raise FrameError(f"gamma={hi} must belong to the frame")
        gamma, trimmed = _trim(bitmap[tuple(slice(f, None) for f in first)], mu)
        return cls.__new__(cls)._adopt(mu, gamma, trimmed)

    # -- basic accessors ------------------------------------------------------

    def _frame_bitmap(self) -> np.ndarray:
        """Membership over the box [mu, gamma] as a bool array.

        Read-only: :meth:`shift` shares it between frames.
        """
        return self._bitmap

    @property
    def frame_sorted(self) -> tuple[Point, ...]:
        """The frame points, lex-sorted; built on first read."""
        if self._sorted is None:
            self._sorted = tuple(_points(self._bitmap, self.mu))
        return self._sorted

    @property
    def frame(self) -> frozenset[Point]:
        """E ∩ [mu, gamma] as a set of points; built on first read."""
        if self._frame is None:
            self._frame = frozenset(self.frame_sorted)
        return self._frame

    def fingerprint(self):
        return (self.s, self.mu, self.gamma, self._bitmap.tobytes())

    def __eq__(self, other):
        if not isinstance(other, IdealFrame):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        return (
            f"IdealFrame(s={self.s}, mu={self.mu}, gamma={self.gamma}, "
            f"|frame|={self._bitmap.sum()})"
        )

    # -- membership -----------------------------------------------------------

    def contains(self, alpha) -> bool:
        alpha = as_point(alpha)
        check_same_dim(alpha, self.mu)
        idx = tuple(min(a, g) - m for a, g, m in zip(alpha, self.gamma, self.mu))
        return min(idx) >= 0 and bool(self._bitmap[idx])

    __contains__ = contains

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, s) int array of points."""
        pts = np.asarray(pts, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.s:
            raise FrameError(f"expected an (n, {self.s}) array of points")
        gam = np.array(self.gamma, dtype=np.int64)
        mu = np.array(self.mu, dtype=np.int64)
        capped = np.minimum(pts, gam)
        valid = np.all(capped >= mu, axis=1)
        idx = np.clip(capped - mu, 0, None)
        out = np.zeros(len(pts), dtype=bool)
        if valid.any():
            arr = self._frame_bitmap()
            sel = idx[valid]
            out[valid] = arr[tuple(sel.T)]
        return out

    def membership_box(self, lo, hi) -> np.ndarray:
        """Membership bitmap over the box [lo, hi] (any corners in Z^s)."""
        lo = as_point(lo)
        hi = as_point(hi)
        check_same_dim(lo, self.mu)
        arr = self._frame_bitmap()
        s = self.s
        gathered_idx = []
        valid_total = None
        for i in range(s):
            coords = np.arange(lo[i], hi[i] + 1, dtype=np.int64)
            capped = np.minimum(coords, self.gamma[i])
            valid = capped >= self.mu[i]
            idx = np.clip(capped - self.mu[i], 0, arr.shape[i] - 1)
            gathered_idx.append(idx)
            shape = [1] * s
            shape[i] = len(coords)
            v = valid.reshape(shape)
            valid_total = v if valid_total is None else (valid_total & v)
        out = arr[np.ix_(*gathered_idx)] & valid_total
        return out

    def members_in_box(self, lo, hi) -> list[Point]:
        lo = as_point(lo)
        return _points(self.membership_box(lo, hi), lo)

    # -- derived data ----------------------------------------------------------

    @property
    def conductor(self) -> Point:
        """The minimal c with c + N^s contained in E (componentwise minimum
        over all such c; realized as an element of the conductor ideal
        whenever E satisfies (E1))."""
        if self._conductor is None:
            arr = self._frame_bitmap()
            above = arr
            for ax in range(self.s):
                above = _suffix_and(above, ax)
            cand = np.argwhere(above)
            mins = cand.min(axis=0)
            self._conductor = tuple(int(c) + m for c, m in zip(mins, self.mu))
        return self._conductor

    @property
    def tau(self) -> Point:
        return sub(self.conductor, ones(self.s))

    def shift(self, alpha) -> "IdealFrame":
        """The translate alpha + E (an ideal again, same validation status)."""
        alpha = as_point(alpha)
        check_same_dim(alpha, self.mu)
        out = IdealFrame.__new__(IdealFrame)
        out._adopt(add(self.mu, alpha), add(self.gamma, alpha), self._bitmap)
        if self._conductor is not None:
            out._conductor = add(self._conductor, alpha)
        for key, rep in self._report_cache.items():
            # Axiom status is translation invariant; witnesses are not, so
            # only clean reports travel with the shift.
            if rep.ok:
                out._report_cache[key] = rep
        return out

    def is_e1(self) -> bool:
        """Closure of the frame under componentwise min (axiom E1).

        Exact for the represented set: capping reduces any pair to a frame
        pair because cmin commutes with capping.
        """
        rep = self._report_cache.get("axioms")
        if rep is not None:
            return rep.e1_ok
        return _e1_holds(self)


def _tail_translates(E: IdealFrame, lo, hi, offsets, tails, fold):
    """Translates fold_T(E) over [lo + o, hi + o], one per offset o: E's
    membership with ``fold`` (a cumulative op) applied along each axis in
    T, the axes marked in o's row of ``tails``.  The tables are cut from
    one window of E over [lo + min o, hi + max o], one mask at a time, and
    each caller says why that window suffices for its fold.  A table is
    raveled with the window's C strides st (a bool cell is one byte), o is
    the integer k = (o - min o)·st and its translate the contiguous slice
    flat[k : k + L], L = (shape - 1)·st + 1, whose cells (x - lo)·st form
    [lo, hi]; the cells between are row ends, never read.  Returns (grid,
    slices): the slices grouped by mask, offsets in order within a mask,
    and ``grid``, which reads a length-L array back onto [lo, hi] as a
    strided view of its buffer.  Do not write to either.
    """
    offs = np.asarray(offsets, dtype=np.int64)
    omin = offs.min(axis=0)
    window = np.ascontiguousarray(E.membership_box(add(lo, omin), add(hi, offs.max(axis=0))))
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    L = sum((n - 1) * t for n, t in zip(shape, window.strides)) + 1
    starts = ((offs - omin) * window.strides).sum(axis=1)
    masks = (np.asarray(tails) * (1 << np.arange(E.s))).sum(axis=1)

    def slices():
        for T in sorted(set(masks.tolist())):
            table = window
            for axis in range(E.s):
                if T >> axis & 1:
                    table = fold(table, axis)
            flat = table.ravel()
            for k in starts[masks == T].tolist():
                yield flat[k : k + L]

    return partial(np.ndarray, shape, bool, strides=window.strides), slices()


def _reduce_translates(op, *args) -> np.ndarray:
    """The OR or AND ``op`` of all translates of _tail_translates(*args)."""
    grid, slices = _tail_translates(*args)
    acc = next(slices).copy()
    for view in slices:
        op(acc, view, out=acc)
    return grid(acc)


def _e1_holds(E: IdealFrame) -> bool:
    """Decide (E1) by 2^s suffix sweeps of the frame bitmap.

    A point m of [mu, gamma] is min(p, q) for frame points p, q exactly
    when, for some split I ⊔ J of the axes, there is a member p >= m that
    agrees with m on I and a member q >= m that agrees with m on J (every
    axis must carry the minimum on one side).  ``up[X]`` marks the m with
    such a member for the agreement set X: the inclusive suffix-OR of the
    bitmap along every axis outside X, built from a superset mask by one
    more suffix.  (E1) holds iff up[I] & up[I^c] lies inside the frame
    for every proper nonempty I.  Capping commutes with min, so checking
    frame pairs on the frame box is exact for the represented set.
    """
    s = E.s
    full = (1 << s) - 1
    up = {full: E._frame_bitmap()}
    for X in range(full - 1, -1, -1):
        free = ~X & full
        axis = (free & -free).bit_length() - 1
        up[X] = _suffix_or(up[X | (1 << axis)], axis)
    frame = up[full]
    for I in range(1, full):
        if I < full ^ I and (up[I] & up[full ^ I] & ~frame).any():
            return False
    return True


def _e1_failures(E: IdealFrame) -> list[tuple[Point, Point]]:
    """Pairs p < q (lex) of frame points whose min is missing, in lex order;
    the pairwise enumeration runs only after the sweep finds a failure."""
    if _e1_holds(E):
        return []
    pts = np.argwhere(E._frame_bitmap()) + E.mu
    n = len(pts)
    arr = E._frame_bitmap()
    mu = np.array(E.mu, dtype=np.int64)
    out = []
    block = max(1, 2_000_000 // max(n, 1))
    for start in range(0, n, block):
        chunk = pts[start : start + block]
        mins = np.minimum(chunk[:, None, :], pts[None, :, :])
        idx = mins - mu
        ok = arr[tuple(idx.reshape(-1, E.s).T)].reshape(len(chunk), n)
        bad = np.argwhere(~ok)
        for a, b in bad:
            p, q = tuple(chunk[a]), tuple(pts[b])
            if p < q:
                out.append((tuple(int(x) for x in p), tuple(int(x) for x in q)))
    return out


def _exchange_tables(E: IdealFrame):
    """The (E2) witness tables over [mu, gamma+1], built on demand.

    ``table(j, mask)`` marks the m that have a member eps with eps_j > m_j,
    eps_i >= m_i on the axes i != j whose bit (indexed among the axes
    other than j) is set in ``mask``, and eps_i = m_i on the rest: a strict
    suffix-OR along j, then inclusive suffixes along the masked axes.
    """
    s = E.s
    grid = E.membership_box(E.mu, add(E.gamma, ones(s)))
    tables: dict[tuple[int, int], np.ndarray] = {}

    def table(j: int, mask: int) -> np.ndarray:
        key = (j, mask)
        got = tables.get(key)
        if got is None:
            if mask == 0:
                got = _suffix_or_strict(grid, j)
            else:
                low = mask & -mask
                prev = table(j, mask & (mask - 1))
                others = [i for i in range(s) if i != j]
                axis = others[low.bit_length() - 1]
                got = _suffix_or(prev, axis)
            tables[key] = got
        return got

    return table


def _e2_holds(E: IdealFrame) -> bool:
    """Decide (E2) by suffix sweeps of the frame bitmap.

    For frame points p != q with p_j = q_j and min m, both equal m on every
    axis where they agree; on the set D where they differ, one of them
    equals m and the other is strictly above it.  With ``G[X]`` the strict
    suffix-OR of the bitmap along the axes in X (a member strictly above m
    on X, equal to m elsewhere), such a pair sharing axis j and differing
    exactly on D exists iff the OR over splits Dp ⊔ Dq = D of
    G[Dp] & G[Dq] holds at m.  Each such m must carry the witness table
    of :func:`_exchange_tables` for j and the agreement axes, read on the
    frame box part of its grid.  Work: s * 3^(s-1) box passes.
    """
    s = E.s
    frame = E._frame_bitmap()
    G = [frame]
    for X in range(1, 1 << s):
        G.append(_suffix_or_strict(G[X & (X - 1)], (X & -X).bit_length() - 1))
    pairs: dict[int, np.ndarray] = {}
    table = _exchange_tables(E)
    box = tuple(slice(0, n) for n in frame.shape)
    for j in range(s):
        others = [i for i in range(s) if i != j]
        for agree in range((1 << (s - 1)) - 1):
            D = sum(1 << i for k, i in enumerate(others) if not agree >> k & 1)
            if D not in pairs:
                # splits with the lowest axis of D on p's side: each
                # unordered split once
                got = np.zeros_like(frame)
                low = D & -D
                Dp = D
                while Dp:
                    if Dp & low:
                        got |= G[Dp] & G[D ^ Dp]
                    Dp = (Dp - 1) & D
                pairs[D] = got
            if (pairs[D] & ~table(j, agree)[box]).any():
                return False
    return True


def _e2_failures(E: IdealFrame) -> list[tuple[Point, Point, int]]:
    """Exchange-axiom failures among frame pairs, with the witness search
    running over [mu, gamma+1] via the extension rule; the pairwise
    enumeration runs only after the sweep finds a failure."""
    if _e2_holds(E):
        return []
    s = E.s
    pts = np.argwhere(E._frame_bitmap()) + E.mu
    mu_arr = np.array(E.mu, dtype=np.int64)
    table = _exchange_tables(E)

    failures: list[tuple[Point, Point, int]] = []
    for j in range(s):
        others = [i for i in range(s) if i != j]
        # groups sharing coordinate j; np.unique would import numpy.ma
        sorted_pts = pts[np.argsort(pts[:, j], kind="stable")]
        for G in np.split(sorted_pts, np.flatnonzero(np.diff(sorted_pts[:, j])) + 1):
            for a in range(len(G) - 1):
                rows = G[a + 1 :]
                m = np.minimum(G[a], rows)
                eq = rows[:, others] == G[a][others]
                maskids = eq.astype(np.int64) @ (1 << np.arange(len(others)))
                idx = m - mu_arr
                for mask in sorted(set(maskids.tolist())):
                    pick = maskids == mask
                    ok = table(j, mask)[tuple(idx[pick].T)]
                    for t in np.flatnonzero(pick)[~ok].tolist():
                        failures.append((tuple(G[a].tolist()), tuple(rows[t].tolist()), j))
    return failures


def _additivity_holds(E: IdealFrame, S: IdealFrame) -> bool:
    """Decide E + S ⊆ E, for the sums e + sigma with sigma in S ∩ N^s.

    Capping at top = cmax(gamma_S, 0) keeps S's membership, so S ∩ N^s is
    the union over c in S ∩ [0, top] of c + N^T, T the axes where c_i =
    top_i (reading S on [mu_S, gamma_S] drops these tails on an axis where
    gamma_S < 0).  e + c + N^T ⊆ E iff e + c lies in E's suffix-AND along
    T; the window reaches past gamma_E, so the AND is exact.  Frame points
    e suffice, because sigma >= 0 keeps capped coordinates capped.
    """
    top = cmax(S.gamma, zero(E.s))
    cs = np.argwhere(S.membership_box(zero(E.s), top))
    held = _reduce_translates(np.logical_and, E, E.mu, E.gamma, cs, cs == top, _suffix_and)
    return not (E._frame_bitmap() & ~held).any()


def _additivity_failures(E: IdealFrame, S: IdealFrame) -> list[tuple[Point, Point]]:
    """Failures of E + S ⊆ E, listed sigma-major and then e in lex order;
    the enumeration runs only after :func:`_additivity_holds` finds one.

    Scanning e over the frame and sigma over S ∩ [0, max(gamma_S,
    gamma_E - mu_E) + 1] is exact for min-capped representations.
    """
    if _additivity_holds(E, S):
        return []
    bound = add(cmax(S.gamma, sub(E.gamma, E.mu)), ones(E.s))
    sigmas = np.argwhere(S.membership_box(zero(E.s), bound))
    frame = E._frame_bitmap()
    grid, views = _tail_translates(E, E.mu, E.gamma, sigmas, np.zeros_like(sigmas), None)
    out = []
    for sigma, view in zip(sigmas.tolist(), views):
        for e in _points(frame & ~grid(view), E.mu):
            out.append((e, tuple(sigma)))
    return out


@dataclass
class ValidationReport:
    """Outcome of the axiom scans; failing checks carry witnesses."""

    e0_ok: bool
    e1_ok: bool
    e2_ok: bool
    additivity_ok: bool | None
    e1_failures: list = field(default_factory=list)
    e2_failures: list = field(default_factory=list)
    additivity_failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


def _frame_of(S) -> IdealFrame:
    return S.ideal if isinstance(S, GoodSemigroup) else S


def validate(E: IdealFrame, S=None) -> ValidationReport:
    """Check the ideal/semigroup axioms on the finite representation.

    ``S`` (a GoodSemigroup or a raw IdealFrame) enables the E + S ⊆ E
    check; without it only (E0)-(E2) are examined.  All scans are exact
    for the represented set; see the per-check helpers for the boxes used.
    (E1) and (E2) are decided by bitmap sweeps; witnesses are listed only
    for an axiom that fails.
    """
    E = _frame_of(E)
    Sf = _frame_of(S) if S is not None else None
    cache_key = "axioms" if Sf is None else ("full", Sf.fingerprint())
    got = E._report_cache.get(cache_key)
    if got is not None:
        return got

    ax = E._report_cache.get("axioms")
    if ax is not None:
        e1_fail, e2_fail = ax.e1_failures, ax.e2_failures
        notes = list(ax.notes)
    else:
        e1_fail = _e1_failures(E)
        e2_fail = _e2_failures(E)
        notes = []
        if E.conductor != E.gamma:
            notes.append(
                f"capping bound {E.gamma} exceeds the conductor {E.conductor}; "
                "the stored frame is definitional for this (non-good) set"
            )
        if e1_fail:
            notes.append("E2 was checked on the capped box only (E1 fails)")
    add_fail = None
    if Sf is not None:
        check_same_dim(E.mu, Sf.mu)
        add_fail = _additivity_failures(E, Sf)

    report = ValidationReport(
        e0_ok=True,  # gamma is in the frame, so gamma + N^s is in E by the rule
        e1_ok=not e1_fail,
        e2_ok=not e2_fail,
        additivity_ok=None if add_fail is None else not add_fail,
        e1_failures=e1_fail,
        e2_failures=e2_fail,
        additivity_failures=add_fail or [],
        notes=notes,
    )
    axiom_report = ValidationReport(
        e0_ok=True,
        e1_ok=report.e1_ok,
        e2_ok=report.e2_ok,
        additivity_ok=None,
        e1_failures=e1_fail,
        e2_failures=e2_fail,
        notes=notes,
    )
    E._report_cache["axioms"] = axiom_report
    E._report_cache[cache_key] = report
    return report


class GoodSemigroup:
    """A validated good semigroup: an IdealFrame with mu = 0 certified to
    satisfy (E0)-(E2) and closure under addition."""

    __slots__ = ("ideal",)

    def __init__(self, ideal: IdealFrame):
        if ideal.mu != zero(ideal.s):
            raise NotCertifiedError(f"a semigroup must have minimum 0, got mu={ideal.mu}")
        report = validate(ideal, ideal)
        if not report.ok:
            raise NotCertifiedError(
                "the frame does not define a good semigroup:\n" + report.summary(),
                report,
            )
        self.ideal = ideal

    @classmethod
    def from_points(cls, points, gamma) -> "GoodSemigroup":
        return cls(IdealFrame.from_points(points, gamma))

    @property
    def s(self) -> int:
        return self.ideal.s

    @property
    def gamma(self) -> Point:
        return self.ideal.gamma

    @property
    def tau(self) -> Point:
        return sub(self.ideal.gamma, ones(self.ideal.s))

    def contains(self, alpha) -> bool:
        return self.ideal.contains(alpha)

    __contains__ = contains

    def __eq__(self, other):
        if not isinstance(other, GoodSemigroup):
            return NotImplemented
        return self.ideal == other.ideal

    def __hash__(self):
        return hash(("GoodSemigroup", self.ideal.fingerprint()))

    def __repr__(self):
        return f"GoodSemigroup(s={self.s}, gamma={self.gamma}, |frame|={self.ideal._bitmap.sum()})"


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
    check_same_dim(E.mu, F.mu)
    lo = add(E.mu, F.mu)
    hi = add(E.gamma, F.gamma)
    cs = np.argwhere(F._frame_bitmap()) + F.mu
    out = _reduce_translates(np.logical_or, E, lo, hi, -cs, cs == F.gamma, np.logical_or.accumulate)
    return IdealFrame._from_bitmap(lo, out)


def is_subset(E: IdealFrame, F: IdealFrame) -> bool:
    """Set inclusion E ⊆ F, decided exactly on the joint box."""
    check_same_dim(E.mu, F.mu)
    lo = cmin(E.mu, F.mu)
    hi = cmax(E.gamma, F.gamma)
    Em = E.membership_box(lo, hi)
    Fm = F.membership_box(lo, hi)
    return bool(np.all(Fm | ~Em))


# -- locality and decomposition ----------------------------------------------


def is_local(S) -> bool:
    """True iff the only element of S with a zero coordinate is 0.

    Scans S ∩ [0, gamma+1]; capping at gamma+1 preserves zero-patterns, so
    the scan is exact.
    """
    Sf = _frame_of(S)
    members = np.argwhere(Sf.membership_box(zero(Sf.s), add(Sf.gamma, ones(Sf.s))))
    nonzero = members.any(axis=1)
    has_zero_coord = (members == 0).any(axis=1)
    return not bool((nonzero & has_zero_coord).any())


@dataclass(frozen=True)
class LocalDecomposition:
    """Partition of the branch set with one local factor per block."""

    partition: tuple[tuple[int, ...], ...]
    factors: tuple[GoodSemigroup, ...]

    def recombine(self) -> GoodSemigroup:
        return recombine(self.partition, self.factors)


def decompose(S: GoodSemigroup) -> LocalDecomposition:
    """Split S into its product of local factors.

    Branches i, j share a block iff every element of S vanishes at i
    exactly when it vanishes at j (scanned on [0, gamma+1], which is
    exact); the factors are the projections onto the blocks.
    """
    Sf = _frame_of(S)
    s = Sf.s
    hi = add(Sf.gamma, ones(s))
    members = np.argwhere(Sf.membership_box(zero(s), hi))
    zpat = members == 0
    blocks: list[list[int]] = []
    seen: dict[bytes, int] = {}
    for i in range(s):
        key = zpat[:, i].tobytes()
        if key in seen:
            blocks[seen[key]].append(i)
        else:
            seen[key] = len(blocks)
            blocks.append([i])
    blocks_t = tuple(tuple(b) for b in blocks)

    factors = []
    for block in blocks_t:
        gb = tuple(Sf.gamma[i] for i in block)
        shape = tuple(g + 1 for g in gb)
        grid = np.indices(shape).reshape(len(block), -1).T
        embedded = np.empty((len(grid), s), dtype=np.int64)
        for col in range(s):
            embedded[:, col] = Sf.gamma[col] + 1
        for k, i in enumerate(block):
            embedded[:, i] = grid[:, k]
        mem = Sf.contains_many(embedded).reshape(shape)
        factor_frame = IdealFrame._from_bitmap(zero(len(block)), mem)
        factor = GoodSemigroup(factor_frame)
        if not is_local(factor):
            raise FrameError(
                f"projection onto branches {block} is not local; "
                "the zero-pattern partition is inconsistent"
            )
        factors.append(factor)
    return LocalDecomposition(blocks_t, tuple(factors))


def _interleave(partition, frames) -> IdealFrame:
    """The product of the frames, frame b's coordinates placed on the
    branch indices listed in block b of ``partition``."""
    blocks = [tuple(b) for b in partition]
    s = sum(len(b) for b in blocks)
    if sorted(i for b in blocks for i in b) != list(range(s)):
        raise FrameError(f"partition {blocks} does not cover 0..{s - 1}")
    if len(frames) != len(blocks):
        raise FrameError("one factor per block required")
    prod = np.ones((), dtype=bool)
    for block, f in zip(blocks, frames):
        if f.s != len(block):
            raise FrameError(f"factor dimension {f.s} != block size {len(block)}")
        prod = np.logical_and.outer(prod, f._frame_bitmap())
    # axis k of the outer product carries branch order[k]; move it to its place
    order = np.argsort([i for b in blocks for i in b])
    mu = [m for f in frames for m in f.mu]
    return IdealFrame._from_bitmap(tuple(mu[k] for k in order), prod.transpose(order))


def recombine(partition, factors) -> GoodSemigroup:
    """Cartesian recombination of factor semigroups along a partition of
    the branch indices (inverse of :func:`decompose`)."""
    return GoodSemigroup(_interleave(partition, [_frame_of(f) for f in factors]))


def product_semigroups(*factors) -> GoodSemigroup:
    """Product semigroup on consecutive branch blocks."""
    blocks = []
    at = 0
    for f in factors:
        sf = _frame_of(f).s
        blocks.append(tuple(range(at, at + sf)))
        at += sf
    return recombine(blocks, factors)


# -- JSON serialization --------------------------------------------------------


def to_json(E: IdealFrame) -> str:
    """Canonical JSON text: keys s/mu/gamma/frame, frame lex-sorted, one
    frame point per line.  Byte-stable."""
    E = _frame_of(E)
    lines = [
        "{",
        f'  "s": {E.s},',
        f'  "mu": {list(E.mu)},',
        f'  "gamma": {list(E.gamma)},',
        '  "frame": [',
    ]
    pts = _points(E._frame_bitmap(), E.mu)
    for k, p in enumerate(pts):
        comma = "," if k + 1 < len(pts) else ""
        lines.append(f"    {list(p)}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def from_json(text: str, filename=None) -> IdealFrame:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, col=exc.colno, filename=filename) from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", filename=filename)
    keys = {"s", "mu", "gamma", "frame"}
    if set(obj) != keys:
        raise ParseError(
            f"expected exactly the keys {sorted(keys)}, got {sorted(obj)}", filename=filename
        )
    try:
        return IdealFrame(obj["s"], obj["mu"], obj["gamma"], obj["frame"])
    except (FrameError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), filename=filename) from exc
