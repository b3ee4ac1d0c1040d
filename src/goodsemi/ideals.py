"""Finite representation of semigroup ideals of N^s: frames and boxes.

An ideal E of a good semigroup lives in Z^s, is bounded below, and contains
a whole translated orthant gamma + N^s.  An :class:`IdealFrame` stores the
branch count ``s``, the minimum ``mu``, a capping bound ``gamma``, and the
frame E ∩ [mu, gamma] as one Python int used as a bitset; membership of an
arbitrary point is *defined* by the min-capping rule

    alpha in E  iff  cmin(alpha, gamma) in frame.

Every box [lo, hi] of the package, the frame box included, is laid out in
C order: the cell of x is bit (x - lo)·st, st the C strides of the box's
shape, so bits ascend in lex order of the points.  Outside the helpers
below only :mod:`goodsemi.axioms` works out strides, for the Apéry
families and the translates; other offsets are read with :func:`_index`.
Boxes are cut, moved and reversed by masked shifts of the whole int: only
:func:`_points` and the one row walker :func:`_rows`, which visits the
nonempty rows alone, read cells as a '0'/'1' string.  No box may hold
more than :data:`MAX_CELLS` cells; a larger one is refused first.

The masks of :func:`_fill` and :func:`_regrid` are built by doubling and
kept in one store, ``_MASKS``, of at most :data:`MAX_CELLS` cells in all,
cleared when the next mask would not fit.

``frame`` is a read-only set view over the bitset: its size and membership
read the bits, and it equals and hashes like the frozenset of its points.
The point tuples (``frame_sorted``) are built only when read, and
:func:`to_json` builds none: it writes the frame box row by row and
formats each coordinate once per axis.  ``gamma`` is always normalized
to the smallest bound for which the rule reproduces the set (the per-axis
slice-stability scan in :func:`_settle`), so equal sets have equal state.
For validated-good ideals that minimal bound coincides with the conductor;
for frames that merely satisfy (E1) it can sit strictly above the
conductor, which is exposed separately as :attr:`IdealFrame.conductor`.

A frame keeps all it computes in one store (:meth:`IdealFrame._memo`); a
:class:`GoodSemigroup` shares its source frame's store.

The one product builder, :func:`_interleave`, lives here too.  The axiom
checks, sums and :class:`GoodSemigroup` live in :mod:`goodsemi.axioms`,
and local decompositions in :mod:`goodsemi.products`.  This module still
reads their public names through (PEP 562), importing the owning module
on first access, so a command that only reads frames compiles neither.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Set
from functools import lru_cache, reduce
from itertools import chain, compress, product, repeat

from .errors import FrameError, ParseError
from .lattice import (
    Point,
    _integer,
    add,
    as_point,
    check_same_dim,
    leq,
    zero,
)

__all__ = ["IdealFrame", "GoodSemigroup", "ValidationReport", "LocalDecomposition", "validate", "sum_ideals",
           "is_subset", "is_local", "decompose", "product_semigroups", "recombine", "to_json", "from_json"]

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


_CELL_CHARS = bytes.maketrans(b"\x00\x01", b"01")


# the masks of _fill, keyed (shape, axis, a, b), and of _periodic, keyed
# (period, a, b, total): only _fill's key starts with a tuple
_MASKS: dict[tuple, int] = {}
_held = 0  # the cells of the masks in _MASKS


def _keep(key: tuple, mask: int, total: int) -> int:
    """Store ``mask``, of ``total`` cells, under ``key``, first clearing
    the store if it would then hold more than MAX_CELLS cells."""
    global _held
    if _held + total > MAX_CELLS:
        _MASKS.clear()
        _held = 0
    _MASKS[key] = mask
    _held += total
    return mask


def _repeat(period: int, a: int, b: int, total: int) -> int:
    """Cells a..b-1 of every period of ``period`` cells among the first
    ``total``: one block repeated by doubling."""
    block, count, got, at = (1 << b) - (1 << a), -(-total // period) if total else 0, 0, 0
    while count:
        if count & 1:
            got |= block << at
            at += period
        count >>= 1
        if count:
            block |= block << period
            period *= 2
    if at > total:  # the last period is cut short
        got &= (1 << total) - 1
    return got


def _periodic(period: int, a: int, b: int, total: int) -> int:
    """A :func:`_repeat` mask of :func:`_regrid`, kept in _MASKS."""
    key = (period, a, b, total)
    got = _MASKS.get(key)
    return _keep(key, _repeat(*key), total) if got is None else got


def _fill(shape, axis: int, a: int, b: int) -> int:
    """The cells of ``shape`` whose coordinate on ``axis`` lies in [a, b)."""
    key = (shape, axis, a, b)
    got = _MASKS.get(key)
    if got is None:
        st, total = _strides(shape)[axis], math.prod(shape)
        got = _keep(key, _repeat(shape[axis] * st, a * st, b * st, total), total)
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
    """out[x] = AND of the cells at positions >= x along ``axis``: the
    complement of the :func:`_suffix_or` of the complement."""
    full = (1 << math.prod(shape)) - 1
    return full ^ _suffix_or(full ^ bits, shape, axis)


def _folds(bits: int, shape, sweep):
    """fold(T): ``sweep`` (one of the sweeps above) applied to ``bits``
    along every axis in the axis mask T.  Sweeps along different axes
    commute, so the table of T is the table of T minus its highest axis
    swept once more; each table built is kept, and shared prefixes are
    swept once."""
    held = {0: bits}

    def fold(T: int) -> int:
        got = held.get(T)
        if got is None:
            axis = T.bit_length() - 1
            got = held[T] = sweep(fold(T ^ 1 << axis), shape, axis)
        return got

    return fold


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


def _regrid(bits: int, shape, spans) -> int:
    """Read a bitset over ``shape`` onto a new grid.

    ``spans`` holds one (pre, a, b, post) per axis: the new axis is pre
    empty slices, then the source slices a..b-1, then post copies of slice
    b-1; if b <= a on any axis the grid is empty.  Each axis is a few
    masked shifts of the whole int: slices a..b-1 of every block are kept
    and shifted down, block r moves from r·w to r·v (v the new block
    width) in groups of 2^k blocks, one shift per bit k of r (low k first
    when blocks shrink, high k first when they grow), pre is one shift up
    and the post copies are made by doubling.  Axes that shrink go first,
    so no step holds more cells than the larger of source and result.
    """
    if any(b <= a for _, a, b, _ in spans):
        return 0
    cur = list(shape)
    counts = [pre + b - a + post for pre, a, b, post in spans]
    for j in sorted(range(len(cur)), key=lambda j: counts[j] > cur[j]):
        (pre, a, b, post), n = spans[j], cur[j]
        if (pre, a, b, post) == (0, 0, n, 0):
            continue
        st, rows = math.prod(cur[j + 1 :]), math.prod(cur[:j])
        w, v = n * st, counts[j] * st
        if a or b < n:
            bits = (bits & _periodic(w, a * st, b * st, rows * w)) >> a * st
        lo, hi = sorted((w, v))
        ks = [1 << i for i in range((rows - 1).bit_length())] if w != v else []
        for k in ks if v < w else ks[::-1]:
            x = bits & _periodic(2 * k * hi, k * w, k * (w + lo), rows * hi)
            bits ^= x ^ (x << k * (v - w) if v > w else x >> k * (w - v))
        bits <<= pre * st
        if post:
            x, c = bits & _periodic(v, v - (post + 1) * st, v - post * st, rows * v), 1
            while c <= post:
                x |= x << min(c, post + 1 - c) * st
                c *= 2
            bits |= x
        cur[j] = counts[j]
    return bits


def _crop(bits: int, shape, start, out_shape) -> int:
    """The sub-box of ``out_shape`` at ``start`` of a bitset over ``shape``."""
    return _regrid(bits, shape, [(0, a, a + n, 0) for a, n in zip(start, out_shape)])


# byte k is k with its 8 bits in reverse order
_REVERSED = bytes(int(f"{k:08b}"[::-1], 2) for k in range(256))


def _flip(bits: int, size: int) -> int:
    """The bitset with every axis reversed: C order read backwards, each
    byte's bits reversed through a table and the bytes read big-endian."""
    n = (size + 7) // 8
    return int.from_bytes(bits.to_bytes(n, "little").translate(_REVERSED), "big") >> 8 * n - size


def _rows(bits: int, shape):
    """(row number, cell string) of each nonempty row along the last axis,
    in C order; ``str.find`` jumps over the empty rows."""
    n = shape[-1]
    cells = _cells(bits, math.prod(shape))
    k = cells.find("1")
    while k >= 0:
        row = k // n
        yield row, cells[row * n : row * n + n]
        k = cells.find("1", row * n + n)


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


def _rows_to_bits(shape, rows) -> int:
    """A bitset over ``shape`` from (index tuple over the leading axes, the
    row's cells along the last axis as an int) pairs; other rows are empty."""
    n, lead = shape[-1], shape[:-1]
    out, st = [0] * math.prod(lead), _strides(lead)
    for u, x in rows:
        out[sum(map(int.__mul__, u, st))] |= x
    while len(out) > 1:  # adjacent blocks joined pairwise, widths doubling
        out = [a | b << n for a, b in zip(out[::2], out[1::2] + [0])]
        n *= 2
    return out[0]


class Box:
    """Membership over the box [lo, lo + shape - 1] as one int: the cell of
    x is bit (x - lo)·st, st the C strides of ``shape``."""

    __slots__ = ("lo", "shape", "bits")

    def __init__(self, lo: Point, shape: tuple[int, ...], bits: int):
        self.lo, self.shape, self.bits = lo, shape, bits

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


def _coords(p, name: str) -> Point:
    cs = tuple(map(_integer, p))
    if None in cs:
        raise FrameError(f"{name} {list(p)} has a non-integer coordinate")
    return cs


class _FrameView(Set):
    """E ∩ [mu, gamma] as a read-only set of points over E's bitset: size
    and membership read the bits, iteration is lex order, and it equals
    and hashes like the frozenset of its points."""

    __slots__ = ("_E",)

    def __init__(self, E: "IdealFrame"):
        self._E = E

    def __len__(self) -> int:
        return self._E._bits.bit_count()

    def __iter__(self):
        return iter(self._E.frame_sorted)

    def __contains__(self, p) -> bool:
        E = self._E
        if type(p) is not tuple or len(p) != E.s or not {int}.issuperset(map(type, p)):
            return p in frozenset(self)  # the frozenset's answer, or its TypeError
        idx = tuple(map(operator.sub, p, E.mu))
        return min(idx) >= 0 and leq(p, E.gamma) and bool(E._bits >> _index(idx, E.shape) & 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({set(self)})"

    __hash__ = Set._hash
    _from_iterable = frozenset  # |, & and - give frozensets


class IdealFrame:
    """Exact finite representation of a semigroup ideal of Z^s."""

    __slots__ = ("s", "mu", "gamma", "_bits", "_store")

    def __init__(self, s: int, mu, gamma, frame, *, _normalized: bool = False):
        if _integer(s) is None:
            raise FrameError(f"branch count {s!r} is not an integer")
        s = _integer(s)
        if s < 1:
            raise FrameError("branch count must be >= 1")
        mu, gamma = (_coords(v, "mu/gamma") for v in (mu, gamma))
        if len(mu) != s or len(gamma) != s:
            raise FrameError(f"mu/gamma must have {s} coordinates")
        pts = list(frame)
        if not pts:
            raise FrameError("frame must be nonempty")
        if not {list, tuple}.issuperset(map(type, pts)):  # tuple() reads the rest, or refuses it
            pts = list(map(tuple, pts))
        flat = list(chain.from_iterable(pts))
        if set(map(type, flat)) != {int}:
            pts = [_coords(p, "frame point") for p in pts]
            flat = list(chain.from_iterable(pts))
        if set(map(len, pts)) != {s}:
            bad = next(p for p in pts if len(p) != s)
            raise FrameError(f"frame point {tuple(bad)} has wrong dimension")
        cols = [flat[i::s] for i in range(s)]
        if not (leq(mu, tuple(map(min, cols))) and leq(tuple(map(max, cols)), gamma)):
            bad = next(p for p in pts if not (leq(mu, p) and leq(p, gamma)))
            raise FrameError(f"frame point {tuple(bad)} outside [{mu}, {gamma}]")
        shape = _box_shape(mu, gamma)
        flags, at = bytearray(math.prod(shape)), repeat(-_index(mu, shape))
        for col, t in zip(cols, _strides(shape)):  # at = (x - mu)·st, summed by maps
            at = map(operator.add, at, map(t.__mul__, col))
        for k in at:
            flags[k] = 1
        if not flags[0]:
            raise FrameError(f"mu={mu} must belong to the frame")
        if not flags[-1]:
            raise FrameError(f"gamma={gamma} must belong to the frame")
        bits = int(flags.translate(_CELL_CHARS)[::-1], 2)
        if _normalized:
            self._adopt(mu, gamma, bits)
        else:
            self._adopt(*_settle(mu, shape, bits, zero(s)))

    def _adopt(self, mu: Point, gamma: Point, bits: int) -> "IdealFrame":
        """Take the state, a bitset over [mu, gamma], unchecked."""
        self.s, self.mu, self.gamma, self._bits = len(mu), mu, gamma, bits
        self._store = {}
        return self

    def _memo(self, key, build):
        """The result kept under ``key`` ("points", "conductor", "e1",
        ("report", ambient fingerprint or None), "families", "k0"), from
        ``build()`` on first read: the one store of the frame's results."""
        got = self._store.get(key)
        if got is None:
            got = self._store[key] = build()
        return got

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
        # a plain frame even when read through a subclass: it is not certified
        return IdealFrame.__new__(IdealFrame)._adopt(*_settle(lo, shape, bits, first))

    # -- basic accessors ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the frame box [mu, gamma]."""
        return tuple(g - m + 1 for m, g in zip(self.mu, self.gamma))

    @property
    def frame_sorted(self) -> tuple[Point, ...]:
        """The frame points, lex-sorted; built on first read."""
        return self._memo("points", lambda: tuple(_points(self._bits, self.shape, self.mu)))

    @property
    def frame(self) -> Set[Point]:
        """E ∩ [mu, gamma] as a read-only set view over the bitset."""
        return _FrameView(self)

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
            f"{type(self).__name__}(s={self.s}, mu={self.mu}, gamma={self.gamma}, "
            f"|frame|={self._bits.bit_count()})"
        )

    # -- membership -----------------------------------------------------------

    def contains(self, alpha) -> bool:
        alpha = as_point(alpha)
        check_same_dim(alpha, self.mu)
        idx = tuple(min(a, g) - m for a, g, m in zip(alpha, self.gamma, self.mu))
        return min(idx) >= 0 and bool(self._bits >> _index(idx, self.shape) & 1)

    __contains__ = contains

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
        def build():
            shape = self.shape
            above = _folds(self._bits, shape, _suffix_and)((1 << self.s) - 1)
            mins = (_lowest(above, shape, ax) for ax in range(self.s))
            return tuple(c + m for c, m in zip(mins, self.mu))

        return self._memo("conductor", build)

    def shift(self, alpha) -> "IdealFrame":
        """The translate alpha + E (an ideal again, same validation status).
        Clean reports and (E1) carry over, the conductor moves by alpha, and
        nothing tied to the place (points, witnesses, families, K⁰) does."""
        alpha = as_point(alpha)
        check_same_dim(alpha, self.mu)
        out = IdealFrame.__new__(IdealFrame)._adopt(add(self.mu, alpha), add(self.gamma, alpha), self._bits)
        for key, got in self._store.items():
            if key == "conductor":
                out._store[key] = add(got, alpha)
            elif key == "e1" or type(key) is tuple and got.ok:
                out._store[key] = got
        return out

    def is_e1(self) -> bool:
        """Closure of the frame under componentwise min (axiom E1).

        Exact for the represented set: capping reduces any pair to a frame
        pair because cmin commutes with capping.  Kept once known, and set
        without a sweep on the results of ``duality.difference`` and the
        duals, which are min-closed by construction.
        """
        from .axioms import _e1_holds

        return self._memo("e1", lambda: _e1_holds(self))


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
    # on the reversed box, slice y against y + 1 is slice n - 1 - y against
    # n - 2 - y: one past the highest differing level is n - 1 - the lowest
    top, flipped = [], _flip(bits, math.prod(shape))
    for ax, (n, st) in enumerate(zip(shape, _strides(shape))):
        diff = (flipped ^ (flipped >> st)) & _fill(shape, ax, 0, n - 1)
        top.append(max(first[ax], n - 1 - _lowest(diff, shape, ax)) if diff else first[ax])
    out_shape = tuple(t - f + 1 for f, t in zip(first, top))
    return add(lo, first), add(lo, top), _crop(bits, shape, first, out_shape)


def check_frames(what: str, **frames) -> None:
    """Refuse a non-frame argument of ``what`` by name and type, then frames of unequal branch counts."""
    for name, X in frames.items():
        if not isinstance(X, IdealFrame):
            raise FrameError(f"{what} takes an IdealFrame as {name}, got {type(X).__name__}")
    mus = [X.mu for X in frames.values()]
    check_same_dim(mus[0], mus[-1])


def _frame_box(E: IdealFrame) -> Box:
    return Box(E.mu, E.shape, E._bits)


def _interleave(partition, frames) -> IdealFrame:
    """The product of the frames, frame b's coordinates placed on the
    branch indices listed in block b of ``partition``.

    Each frame is read onto the product box by :func:`_regrid`, as it is
    on its own axes and as one slice repeated on the others, and the
    product is the AND of these reads.  A block must be increasing: its
    axes then keep their C order, so the frame's bits do not move.

    A product of exact frames is exact, so it is adopted with no trim:
    it holds the concatenated mu, as each factor holds its own, and along
    an axis of block b its slice at a level is frame b's slice there
    times the other factors' frames, none empty, so two slices agree iff
    frame b's do, and frame b's gamma is the least exact bound there.
    """
    blocks = [tuple(b) for b in partition]
    if not blocks:
        raise FrameError("a product needs at least one factor")
    s = sum(len(b) for b in blocks)
    if sorted(i for b in blocks for i in b) != list(range(s)):
        raise FrameError(f"partition {blocks} does not cover 0..{s - 1}")
    if len(frames) != len(blocks):
        raise FrameError("one factor per block required")
    mu, gamma = [0] * s, [0] * s
    for block, f in zip(blocks, frames):
        if f.s != len(block):
            raise FrameError(f"factor dimension {f.s} != block size {len(block)}")
        if list(block) != sorted(block):
            raise FrameError(f"partition block {block} is not increasing")
        for i, m, g in zip(block, f.mu, f.gamma):
            mu[i], gamma[i] = m, g
    mu, gamma = tuple(mu), tuple(gamma)
    shape = _box_shape(mu, gamma)

    def read(block, f) -> int:
        src, spans = [1] * s, [(0, 0, 1, n - 1) for n in shape]
        for i, n in zip(block, f.shape):
            src[i], spans[i] = n, (0, 0, n, 0)
        return _regrid(f._bits, tuple(src), spans)

    bits = reduce(operator.and_, map(read, blocks, frames))
    return IdealFrame.__new__(IdealFrame)._adopt(mu, gamma, bits)


# -- JSON serialization --------------------------------------------------------


def to_json(E: IdealFrame) -> str:
    """Canonical JSON text: keys s/mu/gamma/frame, frame lex-sorted, one
    frame point per line.  Byte-stable.  No point is formatted: the texts
    ``x]`` and ``u, `` of each axis are, once, and each nonempty row along
    the last axis is one join of the ``x]`` its cells pick."""
    last = [f"{x}]" for x in range(E.mu[-1], E.gamma[-1] + 1)]
    axes = ([f"{x}, " for x in range(m, g + 1)] for m, g in zip(E.mu[:-1], E.gamma[:-1]))
    heads = ["".join(u) for u in product(*axes)]  # by row number
    rows = []
    for row, line in _rows(E._bits, E.shape):
        head = heads[row]
        rows.append(head + (",\n    [" + head).join(compress(last, line.encode().translate(_CELL_FLAGS))))
    return (f'{{\n  "s": {E.s},\n  "mu": {list(E.mu)},\n  "gamma": {list(E.gamma)},\n  "frame": [\n    ['
            + ",\n    [".join(rows) + "\n  ]\n}\n")


def from_json(text: str, filename=None) -> IdealFrame:
    import json

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


# the public names of goodsemi.axioms and goodsemi.products read through
# this module
_HOME = {name: module for module, names in {
    "axioms": "GoodSemigroup ValidationReport validate sum_ideals is_subset",
    "products": "LocalDecomposition decompose is_local product_semigroups recombine",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib, also shows in ``python -X importtime``
    module = __import__(f"{__package__}.{_HOME[name]}", fromlist=[name])
    globals()[name] = value = getattr(module, name)  # later reads skip this hook
    return value
