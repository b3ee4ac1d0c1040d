"""Primitive lattice arithmetic on Z^s.

Points are plain tuples of ints, one coordinate per branch; branch indices
are 0-based everywhere.  The partial order is componentwise; lexicographic
order is used only to make set listings and tie-breaks deterministic.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from .errors import DimensionMismatch, FrameError

Point = tuple[int, ...]


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


def as_point(coords: Iterable[int]) -> Point:
    cs = tuple(coords)
    p = tuple(map(_integer, cs))
    if None in p:
        raise FrameError(f"point {list(cs)} has the non-integer coordinate {cs[p.index(None)]!r}")
    if not p:
        raise FrameError("a point needs at least one coordinate")
    return p


def check_same_dim(a: Point, b: Point) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")


def cmin(a: Point, b: Point) -> Point:
    """Componentwise minimum of two points."""
    check_same_dim(a, b)
    return tuple(map(min, a, b))


def cmax(a: Point, b: Point) -> Point:
    """Componentwise maximum of two points."""
    check_same_dim(a, b)
    return tuple(map(max, a, b))


def leq(a: Point, b: Point) -> bool:
    """Componentwise a <= b."""
    check_same_dim(a, b)
    return all(x <= y for x, y in zip(a, b))


def lt(a: Point, b: Point) -> bool:
    """Strict partial order: a <= b componentwise and a != b."""
    return leq(a, b) and a != b


def add(a: Point, b: Point) -> Point:
    check_same_dim(a, b)
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Point, b: Point) -> Point:
    check_same_dim(a, b)
    return tuple(x - y for x, y in zip(a, b))


def unit(s: int, i: int) -> Point:
    """The i-th standard basis vector e_i of Z^s."""
    return tuple(1 if k == i else 0 for k in range(s))


def zero(s: int) -> Point:
    return (0,) * s


def ones(s: int) -> Point:
    return (1,) * s
