"""Local factors of good semigroups: decomposition and products.

S is local when 0 is its only element with a zero coordinate.  Every good
semigroup is the product of local ones, one per block of branches that
vanish together (:func:`decompose`), and :func:`recombine` interleaves
factors back along a partition.  :mod:`goodsemi.ideals` reads every name
of this module through, importing it on first use.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

from .axioms import GoodSemigroup
from .errors import FrameError
from .ideals import Box, IdealFrame, _cells, _fill, _frame_of, _from_cells, _Frozen, _regrid, _size, _strides
from .lattice import add, ones, zero


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
