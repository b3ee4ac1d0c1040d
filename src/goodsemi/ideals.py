"""Finite representation of semigroup ideals of N^s and good semigroups.

An ideal E of a good semigroup lives in Z^s, is bounded below, and contains
a whole translated orthant gamma + N^s.  An :class:`IdealFrame` stores the
branch count ``s``, the minimum ``mu``, a capping bound ``gamma``, and the
frame E ∩ [mu, gamma] as one Python int used as a bitset; membership of an
arbitrary point is *defined* by the min-capping rule

    alpha in E  iff  cmin(alpha, gamma) in frame.

Every box [lo, hi] of this module, the frame box included, is laid out in
C order: the cell of x is bit (x - lo)·st, st the C strides of the box's
shape, so bits ascend in lex order of the points.  This module alone knows
that layout: the sweeps, the translates, :class:`Box` and the point
listings below are the only code that works out strides, and every other
module calls them.  No box may hold more than :data:`MAX_CELLS` cells; a
larger one is refused before anything is allocated.

The frame's point tuples (``frame``, ``frame_sorted``) are built only when
read.  ``gamma`` is always normalized to the smallest bound for which the
rule reproduces the set (the per-axis slice-stability scan in
:func:`_settle`), so equal sets have equal state.  For validated-good
ideals that minimal bound coincides with the conductor; for frames that
merely satisfy (E1) it can sit strictly above the conductor, which is
exposed separately as :attr:`IdealFrame.conductor`.

By the rule a frame point c stands for the members c + N^T, T the axes
where c_i = gamma_i.  Sums, differences and the check E + S ⊆ E fold each
such family into one translate of a table built once per T: a shift of
the table's int per run of frame points along the last axis, at most 2^s
tables, and one read back onto the result's grid
(:func:`_reduce_translates`).
"""

from __future__ import annotations

import json
import math
import operator
import re
from functools import lru_cache, reduce
from itertools import chain, compress, product

from .errors import FrameError, NotCertifiedError, ParseError
from .lattice import (
    Point,
    add,
    as_point,
    check_same_dim,
    cmax,
    cmin,
    leq,
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

# The most cells one box may hold: far above every box the fixtures, the
# tests and the benchmark build (CHANGES.md records the largest), and low
# enough that a box's int and its cell string stay a few tens of MB.
MAX_CELLS = 1 << 24


# -- value records -------------------------------------------------------------


class _Record:
    """Equality, hashing, repr and pickling by the fields named in
    ``_fields``, in constructor order; instances of different classes are
    never equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._key()


class _Frozen(_Record):
    """A record whose fields are set once, by ``_init``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


# -- the bitset layout ---------------------------------------------------------


def _size(shape) -> int:
    """The cell count of a box of ``shape``, refused above MAX_CELLS."""
    n = math.prod(shape)
    if n > MAX_CELLS:
        raise FrameError(
            f"a box of shape {tuple(shape)} has {n} cells, more than the {MAX_CELLS} allowed"
        )
    return n


def _box_shape(lo: Point, hi: Point) -> tuple[int, ...]:
    shape = tuple(max(h - l + 1, 0) for l, h in zip(lo, hi))
    _size(shape)
    return shape


@lru_cache(maxsize=256)
def _strides(shape) -> tuple[int, ...]:
    st, acc = [], 1
    for n in reversed(shape):
        st.append(acc)
        acc *= n
    return tuple(reversed(st))


def _index(idx, shape) -> int:
    return sum(i * t for i, t in zip(idx, _strides(shape)))


def _cells(bits: int, size: int) -> str:
    """The cells as a '0'/'1' string in C order: character k is bit k."""
    return format(bits, f"0{size}b")[::-1]


def _from_cells(cells) -> int:
    """Inverse of :func:`_cells`; also takes bytes of b'0'/b'1'."""
    return int(cells[::-1], 2) if cells else 0


_CELL_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _from_flags(flags: bytearray) -> int:
    """The bitset of a C-order array of 0/1 bytes."""
    return _from_cells(flags.translate(_CELL_CHARS))


# masks of boxes up to 2^18 cells are kept, at most 1024 of them (32 MB)
_FILLS: dict[tuple, int] = {}


def _fill(shape, axis: int, a: int, b: int) -> int:
    """The cells of ``shape`` whose coordinate on ``axis`` lies in [a, b)."""
    key = (shape, axis, a, b)
    got = _FILLS.get(key)
    if got is None:
        # one period of the axis, repeated by doubling blocks
        st = _strides(shape)[axis]
        block, width = ((1 << (b - a) * st) - 1) << a * st, shape[axis] * st
        size = math.prod(shape)
        count = size // width if size else 0
        got = at = 0
        while count:
            if count & 1:
                got |= block << at
                at += width
            count >>= 1
            if count:
                block |= block << width
                width *= 2
        if size <= 1 << 18:
            if len(_FILLS) >= 1024:
                _FILLS.clear()
            _FILLS[key] = got
    return got


def _suffix_or(bits: int, shape, axis: int) -> int:
    """out[x] = OR of the cells at positions >= x along ``axis``: doubling
    steps, each a shift by d strides masked to the cells with x + d inside."""
    n, st = shape[axis], _strides(shape)[axis]
    d = 1
    while d < n:
        bits |= (bits >> d * st) & _fill(shape, axis, 0, n - d)
        d *= 2
    return bits


def _suffix_or_strict(bits: int, shape, axis: int) -> int:
    """out[x] = OR of the cells at positions > x along ``axis``."""
    n, st = shape[axis], _strides(shape)[axis]
    return (_suffix_or(bits, shape, axis) >> st) & _fill(shape, axis, 0, n - 1)


def _prefix_or(bits: int, shape, axis: int) -> int:
    """out[x] = OR of the cells at positions <= x along ``axis``."""
    n, st = shape[axis], _strides(shape)[axis]
    d = 1
    while d < n:
        bits |= (bits << d * st) & _fill(shape, axis, d, n)
        d *= 2
    return bits


def _suffix_and(bits: int, shape, axis: int) -> int:
    """out[x] = AND of the cells at positions >= x along ``axis``; a cell
    with x + d past the edge keeps its value (the edge mask is ORed in)."""
    n, st = shape[axis], _strides(shape)[axis]
    d = 1
    while d < n:
        bits &= (bits >> d * st) | _fill(shape, axis, n - d, n)
        d *= 2
    return bits


def _lowest(bits: int, shape, axis: int) -> int:
    """The least coordinate on ``axis`` of a set cell (bits != 0)."""
    a, b = 0, shape[axis] - 1
    while a < b:
        m = (a + b) // 2
        if bits & _fill(shape, axis, 0, m + 1):
            b = m
        else:
            a = m + 1
    return a


def _highest(bits: int, shape, axis: int) -> int:
    """The greatest coordinate on ``axis`` of a set cell (bits != 0)."""
    n = shape[axis]
    a, b = 0, n - 1
    while a < b:
        m = (a + b + 1) // 2
        if bits & _fill(shape, axis, m, n):
            a = m
        else:
            b = m - 1
    return a


def _regrid(bits: int, shape, spans) -> int:
    """Read a bitset over ``shape`` onto a new grid.

    ``spans`` holds one (pre, a, b, post) per axis: the new axis is pre
    empty slices, then the source slices a..b-1, then post copies of slice
    b-1.  Blocks are joined as cell strings and repeated blocks are reused,
    so the Python work grows with the source rows read, not with the cells
    written.
    """
    if all(sp == (0, 0, n, 0) for sp, n in zip(spans, shape)):
        return bits
    st = _strides(shape)
    cells = _cells(bits, math.prod(shape))
    counts = [pre + b - a + post for pre, a, b, post in spans]
    blank = ["0" * math.prod(counts[j + 1 :]) for j in range(len(spans))]
    pre_row, a_row, b_row, post_row = spans[-1]

    def rows(start: int, stop: int, step: int) -> list[str]:
        parts = [cells[x + a_row : x + b_row] for x in range(start, stop, step)]
        if pre_row or post_row:
            parts = ["0" * pre_row + r + r[-1:] * post_row for r in parts]
        return parts

    def block(j: int, base: int) -> str:
        pre, a, b, post = spans[j]
        if j == len(spans) - 2:
            parts = rows(base + a * st[j], base + b * st[j], st[j])
        else:
            parts = [block(j + 1, base + i * st[j]) for i in range(a, b)]
        return blank[j] * pre + "".join(parts) + (parts[-1] * post if post else "")

    return _from_cells(block(0, 0) if len(spans) > 1 else rows(0, 1, 1)[0])


def _crop(bits: int, shape, start, out_shape) -> int:
    """The sub-box of ``out_shape`` at ``start`` of a bitset over ``shape``."""
    return _regrid(bits, shape, [(0, a, a + n, 0) for a, n in zip(start, out_shape)])


def _flip(bits: int, size: int) -> int:
    """The bitset with every axis reversed: C order read backwards."""
    return int(format(bits, f"0{size}b")[::-1], 2) if size else 0


_RUN = re.compile("1+")


def _rows(bits: int, shape):
    """(index tuple of the other axes, cell string) of each nonempty row
    along the last axis, in C order."""
    n = shape[-1]
    cells = _cells(bits, math.prod(shape))
    for row, u in enumerate(product(*map(range, shape[:-1]))):
        line = cells[row * n : row * n + n]
        if "1" in line:
            yield u, line


_CELL_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _points(bits: int, shape, lo) -> list[Point]:
    """The set cells of a bitset over [lo, ...] as points, in lex order:
    the points of the box in C order, picked by the cells' flags."""
    flags = _cells(bits, math.prod(shape)).encode().translate(_CELL_FLAGS)
    return list(compress(product(*(range(l, l + n) for l, n in zip(lo, shape))), flags))


def _capped_span(lo: int, hi: int, m: int, g: int) -> tuple[int, int, int, int]:
    """The :func:`_regrid` span of coordinates lo..hi on an axis of the
    frame box [m, g] under the capping rule: below m nothing, above g the
    slice at g."""
    count = max(hi - lo + 1, 0)
    pre = min(max(m - lo, 0), count)
    if pre == count:
        return (count, 0, 0, 0)
    a = min(max(lo, m), g) - m
    b = min(hi, g) - m + 1
    return (pre, a, b, count - pre - (b - a))


def _lines_to_bits(shape, axis: int, lines) -> int:
    """A bitset over ``shape`` from its lines along ``axis``: ``lines``
    yields, in lex order of the other coordinates, the coordinates on
    ``axis`` of the set cells of each line."""
    flags = bytearray(_size(shape))
    st = _strides(shape)
    step = st[axis]
    outer = [range(0, n * t, t) for j, (n, t) in enumerate(zip(shape, st)) if j != axis]
    for offs, line in zip(product(*outer), lines):
        base = sum(offs)
        for e in line:
            flags[base + e * step] = 1
    return _from_flags(flags)


class Box:
    """Membership over the box [lo, lo + shape - 1] as one int: the cell of
    x is bit (x - lo)·st, st the C strides of ``shape``."""

    __slots__ = ("lo", "shape", "bits", "_text")

    def __init__(self, lo: Point, shape: tuple[int, ...], bits: int):
        self.lo, self.shape, self.bits = lo, shape, bits
        self._text = None

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, idx) -> bool:
        """Membership at the cell with index tuple ``idx`` (x - lo)."""
        if len(idx) != len(self.shape) or not all(0 <= i < n for i, n in zip(idx, self.shape)):
            raise IndexError(f"cell {tuple(idx)} outside a box of shape {self.shape}")
        return bool(self.bits >> _index(idx, self.shape) & 1)

    def points(self) -> list[Point]:
        """The members, lex-sorted."""
        return _points(self.bits, self.shape, self.lo)

    def next_up(self, idx) -> Point | None:
        """The index tuple of the lex-least member y >= idx (componentwise)
        other than idx, or None: the rows of y's other coordinates are
        searched in lex order, each from idx's last coordinate on (past it
        in idx's own row)."""
        if self._text is None:
            self._text = _cells(self.bits, self.size)
        n, st = self.shape[-1], _strides(self.shape)
        head, e = tuple(idx[:-1]), idx[-1]
        for u in product(*(range(c, m) for c, m in zip(head, self.shape))):
            base = sum(x * t for x, t in zip(u, st))
            k = self._text.find("1", base + e + 1 if u == head else base + e, base + n)
            if k >= 0:
                return u + (k - base,)
        return None


def _integer(c) -> int | None:
    """c as an int, if it is an int or another integer type (numpy
    integers, say, read through operator.index); None for a bool, float,
    str or anything else, which is an input error and never cast."""
    if type(c) is int:
        return c
    if isinstance(c, bool):
        return None
    try:
        return operator.index(c)
    except TypeError:
        return None


def _coords(p, name: str) -> Point:
    cs = tuple(map(_integer, p))
    if None in cs:
        raise FrameError(f"{name} {list(p)} has a non-integer coordinate")
    return cs


class IdealFrame:
    """Exact finite representation of a semigroup ideal of Z^s."""

    __slots__ = (
        "s",
        "mu",
        "gamma",
        "_frame",
        "_sorted",
        "_bits",
        "_conductor",
        "_report_cache",
        "_e1",
    )

    def __init__(self, s: int, mu, gamma, frame, *, _normalized: bool = False):
        if _integer(s) is None:
            raise FrameError(f"branch count {s!r} is not an integer")
        s = _integer(s)
        if s < 1:
            raise FrameError("branch count must be >= 1")
        mu, gamma = (_coords(v, "mu/gamma") for v in (mu, gamma))
        if len(mu) != s or len(gamma) != s:
            raise FrameError(f"mu/gamma must have {s} coordinates")
        pts = list(map(tuple, frame))
        if not pts:
            raise FrameError("frame must be nonempty")
        if set(map(type, chain.from_iterable(pts))) != {int}:
            pts = [_coords(p, "frame point") for p in pts]
        if set(map(len, pts)) != {s}:
            bad = next(p for p in pts if len(p) != s)
            raise FrameError(f"frame point {bad} has wrong dimension")
        cols = list(zip(*pts))
        if not (leq(mu, tuple(map(min, cols))) and leq(tuple(map(max, cols)), gamma)):
            bad = next(p for p in pts if not (leq(mu, p) and leq(p, gamma)))
            raise FrameError(f"frame point {bad} outside [{mu}, {gamma}]")
        shape = _box_shape(mu, gamma)
        flags = bytearray(math.prod(shape))
        at = [0] * len(pts)
        for col, m, t in zip(cols, mu, _strides(shape)):
            at = [k + (x - m) * t for k, x in zip(at, col)]
        for k in at:
            flags[k] = 1
        if not flags[0]:
            raise FrameError(f"mu={mu} must belong to the frame")
        if not flags[-1]:
            raise FrameError(f"gamma={gamma} must belong to the frame")
        bits = _from_flags(flags)
        if _normalized:
            self._adopt(mu, gamma, bits)
        else:
            self._adopt(*_settle(mu, shape, bits, zero(s)))

    def _adopt(self, mu: Point, gamma: Point, bits: int) -> "IdealFrame":
        """Take the state, a bitset over [mu, gamma], unchecked."""
        self.s, self.mu, self.gamma, self._bits = len(mu), mu, gamma, bits
        self._frame = self._sorted = self._conductor = self._e1 = None
        self._report_cache = {}
        return self

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_points(cls, points, gamma) -> "IdealFrame":
        """Build from the point set E ∩ [min, gamma]; gamma must be a valid
        capping bound for the intended set (it is then minimized)."""
        pts = [_coords(p, "frame point") for p in points]
        if not pts:
            raise FrameError("empty point set")
        mu = tuple(map(min, zip(*pts)))
        return cls(len(mu), mu, gamma, pts)

    @classmethod
    def _from_box(cls, box: Box) -> "IdealFrame":
        """Build from a membership box that is exact at its upper corner
        (capping there reproduces the intended set)."""
        bits, shape, lo = box.bits, box.shape, box.lo
        if not bits:
            raise FrameError("empty point set")
        first = tuple(_lowest(bits, shape, ax) for ax in range(len(shape)))
        mu = add(lo, first)
        if not bits >> _index(first, shape) & 1:
            raise FrameError(f"set has no minimum element (componentwise min {mu} missing)")
        if not bits >> (math.prod(shape) - 1) & 1:
            hi = tuple(l + n - 1 for l, n in zip(lo, shape))
            raise FrameError(f"gamma={hi} must belong to the frame")
        return cls.__new__(cls)._adopt(*_settle(lo, shape, bits, first))

    # -- basic accessors ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the frame box [mu, gamma]."""
        return tuple(g - m + 1 for m, g in zip(self.mu, self.gamma))

    @property
    def frame_sorted(self) -> tuple[Point, ...]:
        """The frame points, lex-sorted; built on first read."""
        if self._sorted is None:
            self._sorted = tuple(_members(self))
        return self._sorted

    @property
    def frame(self) -> frozenset[Point]:
        """E ∩ [mu, gamma] as a set of points; built on first read."""
        if self._frame is None:
            self._frame = frozenset(self.frame_sorted)
        return self._frame

    def fingerprint(self):
        return (self.s, self.mu, self.gamma, self._bits)

    def __eq__(self, other):
        if not isinstance(other, IdealFrame):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        return (
            f"IdealFrame(s={self.s}, mu={self.mu}, gamma={self.gamma}, "
            f"|frame|={self._bits.bit_count()})"
        )

    # -- membership -----------------------------------------------------------

    def contains(self, alpha) -> bool:
        alpha = as_point(alpha)
        check_same_dim(alpha, self.mu)
        idx = tuple(min(a, g) - m for a, g, m in zip(alpha, self.gamma, self.mu))
        return min(idx) >= 0 and bool(self._bits >> _index(idx, self.shape) & 1)

    __contains__ = contains

    def contains_many(self, pts) -> list[bool]:
        """Membership of each point of ``pts``, in order."""
        return [self.contains(p) for p in pts]

    def membership_box(self, lo, hi) -> Box:
        """Membership over the box [lo, hi] (any corners in Z^s)."""
        lo = as_point(lo)
        hi = as_point(hi)
        check_same_dim(lo, self.mu)
        check_same_dim(hi, self.mu)
        shape = _box_shape(lo, hi)
        spans = [_capped_span(*a) for a in zip(lo, hi, self.mu, self.gamma)]
        return Box(lo, shape, _regrid(self._bits, self.shape, spans))

    def members_in_box(self, lo, hi) -> list[Point]:
        return self.membership_box(lo, hi).points()

    # -- derived data ----------------------------------------------------------

    @property
    def conductor(self) -> Point:
        """The minimal c with c + N^s contained in E (componentwise minimum
        over all such c; realized as an element of the conductor ideal
        whenever E satisfies (E1))."""
        if self._conductor is None:
            shape = self.shape
            above = self._bits
            for ax in range(self.s):
                above = _suffix_and(above, shape, ax)
            mins = (_lowest(above, shape, ax) for ax in range(self.s))
            self._conductor = tuple(c + m for c, m in zip(mins, self.mu))
        return self._conductor

    @property
    def tau(self) -> Point:
        return sub(self.conductor, ones(self.s))

    def shift(self, alpha) -> "IdealFrame":
        """The translate alpha + E (an ideal again, same validation status)."""
        alpha = as_point(alpha)
        check_same_dim(alpha, self.mu)
        out = IdealFrame.__new__(IdealFrame)
        out._adopt(add(self.mu, alpha), add(self.gamma, alpha), self._bits)
        if self._conductor is not None:
            out._conductor = add(self._conductor, alpha)
        out._e1 = self._e1
        for key, rep in self._report_cache.items():
            # Axiom status is translation invariant; witnesses are not, so
            # only clean reports travel with the shift.
            if rep.ok:
                out._report_cache[key] = rep
        return out

    def is_e1(self) -> bool:
        """Closure of the frame under componentwise min (axiom E1).

        Exact for the represented set: capping reduces any pair to a frame
        pair because cmin commutes with capping.  Kept once known, and set
        without a sweep on the results of ``duality.difference`` and the
        duals, which are min-closed by construction.
        """
        if self._e1 is None:
            rep = self._report_cache.get("axioms")
            self._e1 = rep.e1_ok if rep is not None else _e1_holds(self)
        return self._e1


def _settle(lo: Point, shape, bits: int, first: Point) -> tuple[Point, Point, int]:
    """(mu, gamma, bits) of the set held by a bitset over [lo, ...] that is
    exact at its upper corner, ``first`` the least level of a member on
    each axis: the frame box is cut to [lo + first, smallest exact bound].

    A bound c is exact iff along every axis all box slices at levels >= c_i
    are identical; the exact bounds therefore form an upper orthant and the
    componentwise minimum is found per axis, past the highest level whose
    slice differs from the next one.  Cells below ``first`` are empty, so
    the slices compare the same on the whole box.
    """
    top = []
    for ax, (n, st) in enumerate(zip(shape, _strides(shape))):
        diff = (bits ^ (bits >> st)) & _fill(shape, ax, 0, n - 1)
        top.append(max(first[ax], _highest(diff, shape, ax) + 1) if diff else first[ax])
    out_shape = tuple(t - f + 1 for f, t in zip(first, top))
    return add(lo, first), add(lo, top), _crop(bits, shape, first, out_shape)


def _frame_box(E: IdealFrame) -> Box:
    return Box(E.mu, E.shape, E._bits)


def _members(E: IdealFrame) -> list[Point]:
    """The frame points in lex order, not cached."""
    return _points(E._bits, E.shape, E.mu)


def _window_op(op, table: int, r: int) -> int:
    """op (OR or AND) over the r flat positions from each cell on, by
    doubling steps; the last two windows overlap."""
    width = 1
    while 2 * width <= r:
        table = op(table, table >> width)
        width *= 2
    return op(table, table >> (r - width)) if r > width else table


def _tail_translates(E: IdealFrame, lo, hi, by: Box, sign: int, fold):
    """Translates fold_T(E) over [lo + o, hi + o], one per member c of
    ``by``, o = sign·c: E's membership with ``fold`` (a cumulative sweep)
    applied along each axis in T, the axes where c reaches the top of
    ``by``.  The tables are cut from one window of E over [lo + min o,
    hi + max o] (o over the corners of ``by``), one mask at a time, and
    each caller says why that window suffices for its fold.

    A table is an int over the window's C layout, strides st; o is the
    shift k = (o - min o)·st, and its translate is table >> k, whose cells
    (x - lo)·st, all below L = (shape - 1)·st + 1, form [lo, hi].  The
    cells between are row ends, and bits at or past L are left over from
    the shift: neither is ever read.  Along the last axis of ``by`` the
    shifts are consecutive, so each row of ``by`` is a pattern (its cell
    string, reversed when sign < 0) at a base shift B, with k = B + e for
    the pattern's set cells e.  Returns (grid, L, tables): ``tables``
    yields (table, rows) per mask T, rows a list of (pattern, bases), and
    ``grid`` reads an int in the window's layout back onto [lo, hi].
    """
    n = by.shape
    s = len(n)
    top = tuple(m - 1 for m in n)
    far = add(by.lo, top)
    if sign > 0:
        window = E.membership_box(add(lo, by.lo), add(hi, far))
    else:
        window = E.membership_box(sub(lo, far), sub(hi, by.lo))
    st = _strides(window.shape)
    shape = _box_shape(lo, hi)
    L = sum((m - 1) * t for m, t in zip(shape, st)) + 1
    reach = sum(x * t for x, t in zip(top, st))
    edge = top[-1]
    groups: dict[int, dict[str, list[int]]] = {}
    for u, line in _rows(by.bits, n):
        base = sum(x * t for x, t in zip(u, st))
        T = sum(1 << j for j, (x, m) in enumerate(zip(u, top)) if x == m)
        if sign < 0:
            base = reach - base - edge
        # the cell at the edge also reaches the top of the last axis
        for mask, pattern in ((T, line[:-1] + "0"), (T | 1 << (s - 1), "0" * edge + line[-1])):
            if "1" in pattern:
                pattern = pattern if sign > 0 else pattern[::-1]
                groups.setdefault(mask, {}).setdefault(pattern, []).append(base)

    def tables():
        for T in sorted(groups):
            table = window.bits
            for axis in range(s):
                if T >> axis & 1:
                    table = fold(table, window.shape, axis)
            yield table, groups[T].items()

    def grid(bits: int) -> Box:
        return Box(lo, shape, _crop(bits, window.shape, zero(s), shape))

    return grid, L, tables()


def _reduce_translates(op, *args) -> Box:
    """The OR or AND ``op`` of all translates of _tail_translates(*args).

    A pattern's translates reduce to one int P, the op over its runs of r
    cells at a of the table's r-cell window op (:func:`_window_op`)
    shifted by a, and each row with that pattern adds P >> B: every cell
    of P read this way is one that the row's own translates would read.
    """
    grid, L, tables = _tail_translates(*args)
    acc = (1 << L) - 1 if op is operator.and_ else 0
    for table, rows in tables:
        windows: dict[int, int] = {}
        for pattern, bases in rows:
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
    s, shape = E.s, E.shape
    full = (1 << s) - 1
    up = {full: E._bits}
    for X in range(full - 1, -1, -1):
        free = ~X & full
        axis = (free & -free).bit_length() - 1
        up[X] = _suffix_or(up[X | (1 << axis)], shape, axis)
    frame = up[full]
    for I in range(1, full):
        if I < full ^ I and up[I] & up[full ^ I] & ~frame:
            return False
    return True


def _e1_failures(E: IdealFrame) -> list[tuple[Point, Point]]:
    """Pairs p < q (lex) of frame points whose min is missing, in lex order;
    listed only after the sweep finds a failure.  For each p, cmin(q, p) is
    q capped at p, so the q whose min with p is a member are E's frame
    read with the capping rule of [mu, p]: one regrid per frame point."""
    if _e1_holds(E):
        return []
    shape, frame = E.shape, E._bits
    out = []
    for p in _members(E):
        idx = sub(p, E.mu)
        capped = _regrid(frame, shape, [(0, 0, i + 1, n - 1 - i) for i, n in zip(idx, shape)])
        k = _index(idx, shape) + 1
        bad = (frame & ~capped) >> k << k
        out.extend((p, q) for q in _points(bad, shape, E.mu))
    return out


def _exchange_tables(E: IdealFrame):
    """The (E2) witness tables over the grid [mu, gamma+1], built on demand.

    ``table(j, mask)`` marks the m that have a member eps with eps_j > m_j,
    eps_i >= m_i on the axes i != j whose bit (indexed among the axes
    other than j) is set in ``mask``, and eps_i = m_i on the rest: a strict
    suffix-OR along j, then inclusive suffixes along the masked axes.
    Returns (grid, table), grid E's membership :class:`Box` on that grid.
    """
    s = E.s
    grid = E.membership_box(E.mu, add(E.gamma, ones(s)))
    tables: dict[tuple[int, int], int] = {}

    def table(j: int, mask: int) -> int:
        key = (j, mask)
        got = tables.get(key)
        if got is None:
            if mask == 0:
                got = _suffix_or_strict(grid.bits, grid.shape, j)
            else:
                low = mask & -mask
                prev = table(j, mask & (mask - 1))
                others = [i for i in range(s) if i != j]
                axis = others[low.bit_length() - 1]
                got = _suffix_or(prev, grid.shape, axis)
            tables[key] = got
        return got

    return grid, table


def _e2_holds(E: IdealFrame) -> bool:
    """Decide (E2) by suffix sweeps of the frame bitmap.

    For frame points p != q with p_j = q_j and min m, both equal m on every
    axis where they agree; on the set D where they differ, one of them
    equals m and the other is strictly above it.  With ``G[X]`` the strict
    suffix-OR of the bitmap along the axes in X (a member strictly above m
    on X, equal to m elsewhere), such a pair sharing axis j and differing
    exactly on D exists iff the OR over splits Dp ⊔ Dq = D of
    G[Dp] & G[Dq] holds at m.  Each such m must carry the witness table
    of :func:`_exchange_tables` for j and the agreement axes.  The sweeps
    run on the frame embedded in the table grid, whose top slices are
    empty; a strict suffix leaves them empty, so no crop is needed.
    Work: s * 3^(s-1) box passes.
    """
    s = E.s
    grid, table = _exchange_tables(E)
    shape = grid.shape
    frame = grid.bits
    for ax in range(s):
        frame &= _fill(shape, ax, 0, shape[ax] - 1)
    G = [frame]
    for X in range(1, 1 << s):
        G.append(_suffix_or_strict(G[X & (X - 1)], shape, (X & -X).bit_length() - 1))
    pairs: dict[int, int] = {}
    for j in range(s):
        others = [i for i in range(s) if i != j]
        for agree in range((1 << (s - 1)) - 1):
            D = sum(1 << i for k, i in enumerate(others) if not agree >> k & 1)
            if D not in pairs:
                # splits with the lowest axis of D on p's side: each
                # unordered split once
                got = 0
                low = D & -D
                Dp = D
                while Dp:
                    if Dp & low:
                        got |= G[Dp] & G[D ^ Dp]
                    Dp = (Dp - 1) & D
                pairs[D] = got
            if pairs[D] & ~table(j, agree):
                return False
    return True


def _e2_failures(E: IdealFrame) -> list[tuple[Point, Point, int]]:
    """Exchange-axiom failures among frame pairs, with the witness search
    running over [mu, gamma+1] via the extension rule; the pairwise
    enumeration runs only after the sweep finds a failure.  Listed by
    axis j, then by the shared coordinate, p in lex order, the agreement
    mask and q in lex order."""
    if _e2_holds(E):
        return []
    s = E.s
    grid, table = _exchange_tables(E)
    cells: dict[tuple[int, int], str] = {}
    pts = _members(E)
    failures: list[tuple[Point, Point, int]] = []
    for j in range(s):
        others = [i for i in range(s) if i != j]
        groups: dict[int, list[Point]] = {}
        for p in pts:
            groups.setdefault(p[j], []).append(p)
        for x in sorted(groups):
            G = groups[x]
            for a, p in enumerate(G):
                found = []
                for t, q in enumerate(G[a + 1 :]):
                    mask = sum(1 << k for k, i in enumerate(others) if q[i] == p[i])
                    got = cells.get((j, mask))
                    if got is None:
                        got = cells[j, mask] = _cells(table(j, mask), grid.size)
                    if got[_index(sub(cmin(p, q), E.mu), grid.shape)] != "1":
                        found.append((mask, t, q))
                failures.extend((p, q, j) for _, _, q in sorted(found))
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
    by = S.membership_box(zero(E.s), top)
    held = _reduce_translates(operator.and_, E, E.mu, E.gamma, by, 1, _suffix_and)
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
        e1_fail = [] if E._e1 else _e1_failures(E)
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
        return f"GoodSemigroup(s={self.s}, gamma={self.gamma}, |frame|={self.ideal._bits.bit_count()})"


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
    out = _reduce_translates(operator.or_, E, lo, hi, _frame_box(F), -1, _prefix_or)
    return IdealFrame._from_box(out)


def is_subset(E: IdealFrame, F: IdealFrame) -> bool:
    """Set inclusion E ⊆ F, decided exactly on the joint box."""
    check_same_dim(E.mu, F.mu)
    lo = cmin(E.mu, F.mu)
    hi = cmax(E.gamma, F.gamma)
    return not E.membership_box(lo, hi).bits & ~F.membership_box(lo, hi).bits


# -- locality and decomposition ----------------------------------------------


def _zero_on(box: Box, axis: int) -> int:
    """The cells of a box with lo = 0 whose coordinate on ``axis`` is 0."""
    return _fill(box.shape, axis, 0, 1)


def is_local(S) -> bool:
    """True iff the only element of S with a zero coordinate is 0.

    Scans S ∩ [0, gamma+1]; capping at gamma+1 preserves zero-patterns, so
    the scan is exact.
    """
    Sf = _frame_of(S)
    box = Sf.membership_box(zero(Sf.s), add(Sf.gamma, ones(Sf.s)))
    on_axes = reduce(operator.or_, (_zero_on(box, i) for i in range(Sf.s)))
    return not box.bits & on_axes & ~1  # cell 0 is the point 0


class LocalDecomposition(_Frozen):
    """Partition of the branch set with one local factor per block."""

    __slots__ = _fields = ("partition", "factors")

    def __init__(self, partition: tuple[tuple[int, ...], ...], factors: tuple[GoodSemigroup, ...]):
        self._init(partition, factors)

    def recombine(self) -> GoodSemigroup:
        return recombine(self.partition, self.factors)


def decompose(S: GoodSemigroup) -> LocalDecomposition:
    """Split S into its product of local factors.

    Branches i, j share a block iff every element of S vanishes at i
    exactly when it vanishes at j (scanned on [0, gamma+1], which is
    exact); the factors are the projections onto the blocks, read with
    the other coordinates past gamma.
    """
    Sf = _frame_of(S)
    s = Sf.s
    box = Sf.membership_box(zero(s), add(Sf.gamma, ones(s)))
    blocks: list[list[int]] = []
    seen: dict[int, int] = {}
    for i in range(s):
        key = box.bits & _zero_on(box, i)
        if key in seen:
            blocks[seen[key]].append(i)
        else:
            seen[key] = len(blocks)
            blocks.append([i])
    blocks_t = tuple(tuple(b) for b in blocks)

    factors = []
    shape = Sf.shape
    for block in blocks_t:
        # the other axes keep one slice, so dropping them keeps the C order
        spans = [(0, 0, n, 0) if i in block else (0, n - 1, n, 0) for i, n in enumerate(shape)]
        sub_shape = tuple(shape[i] for i in block)
        bits = _regrid(Sf._bits, shape, spans)
        factor = GoodSemigroup(IdealFrame._from_box(Box(zero(len(block)), sub_shape, bits)))
        if not is_local(factor):
            raise FrameError(
                f"projection onto branches {block} is not local; "
                "the zero-pattern partition is inconsistent"
            )
        factors.append(factor)
    return LocalDecomposition(blocks_t, tuple(factors))


def _interleave(partition, frames) -> IdealFrame:
    """The product of the frames, frame b's coordinates placed on the
    branch indices listed in block b of ``partition``.

    The product box is built row by row in C order of the branches: once
    all axes of a block are placed it contributes one cell, and a row is
    a strided slice of the frame that owns the last branch.
    """
    blocks = [tuple(b) for b in partition]
    s = sum(len(b) for b in blocks)
    if sorted(i for b in blocks for i in b) != list(range(s)):
        raise FrameError(f"partition {blocks} does not cover 0..{s - 1}")
    if len(frames) != len(blocks):
        raise FrameError("one factor per block required")
    owner = {}
    for b, (block, f) in enumerate(zip(blocks, frames)):
        if f.s != len(block):
            raise FrameError(f"factor dimension {f.s} != block size {len(block)}")
        for pos, i in enumerate(block):
            owner[i] = (b, pos)
    shapes = [f.shape for f in frames]
    strides = [_strides(sh) for sh in shapes]
    shape = tuple(shapes[b][pos] for b, pos in (owner[i] for i in range(s)))
    mu = tuple(frames[b].mu[pos] for b, pos in (owner[i] for i in range(s)))
    size = _size(shape)
    cells = [_cells(f._bits, math.prod(sh)) for f, sh in zip(frames, shapes)]
    done_at = [max(block) for block in blocks]
    blank = ["0" * (size // math.prod(shape[: k + 1])) for k in range(s)]

    def build(k: int, offs: tuple[int, ...]) -> str:
        b, pos = owner[k]
        st = strides[b][pos]
        if k == s - 1:
            return cells[b][offs[b] : offs[b] + shape[k] * st : st]
        parts = []
        for x in range(shape[k]):
            o = offs[b] + x * st
            if k == done_at[b] and cells[b][o] != "1":
                parts.append(blank[k])
            else:
                parts.append(build(k + 1, offs[:b] + (o,) + offs[b + 1 :]))
        return "".join(parts)

    return IdealFrame._from_box(Box(mu, shape, _from_cells(build(0, (0,) * len(blocks)))))


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
        ",\n".join([f"    {list(p)}" for p in _members(E)]),
        "  ]",
        "}",
    ]
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
