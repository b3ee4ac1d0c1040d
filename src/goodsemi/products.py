"""Local factors of good semigroups: decomposition and products.

S is local when 0 is its only element with a zero coordinate.  Every good
semigroup is the product of local ones, one per block of branches that
vanish together (:func:`decompose`), and :func:`recombine` interleaves
factors back along a partition of increasing blocks with the one product
builder, :func:`goodsemi.ideals._interleave`.  :mod:`goodsemi.ideals`
reads the public names of this module through, importing it on first use.
"""

from __future__ import annotations

import operator
from functools import reduce

from .axioms import GoodSemigroup
from .errors import FrameError
from .ideals import Box, IdealFrame, _fill, _Frozen, _interleave, _regrid
from .lattice import add, ones, zero


def is_local(S) -> bool:
    """True iff the only element of S with a zero coordinate is 0.

    Scans S ∩ [0, gamma+1]; capping at gamma+1 preserves zero-patterns, so
    the scan is exact.
    """
    box = S.membership_box(zero(S.s), add(S.gamma, ones(S.s)))
    on_axes = reduce(operator.or_, (_fill(box.shape, i, 0, 1) for i in range(S.s)))
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
    s = S.s
    box = S.membership_box(zero(s), add(S.gamma, ones(s)))
    blocks: list[list[int]] = []
    seen: dict[int, int] = {}
    for i in range(s):
        key = box.bits & _fill(box.shape, i, 0, 1)
        if key in seen:
            blocks[seen[key]].append(i)
        else:
            seen[key] = len(blocks)
            blocks.append([i])
    blocks_t = tuple(tuple(b) for b in blocks)

    factors = []
    shape = S.shape
    for block in blocks_t:
        # the other axes keep one slice, so dropping them keeps the C order
        spans = [(0, 0, n, 0) if i in block else (0, n - 1, n, 0) for i, n in enumerate(shape)]
        sub_shape = tuple(shape[i] for i in block)
        bits = _regrid(S._bits, shape, spans)
        factor = GoodSemigroup(IdealFrame._from_box(Box(zero(len(block)), sub_shape, bits)))
        if not is_local(factor):
            raise FrameError(
                f"projection onto branches {block} is not local; "
                "the zero-pattern partition is inconsistent"
            )
        factors.append(factor)
    return LocalDecomposition(blocks_t, tuple(factors))


def recombine(partition, factors) -> GoodSemigroup:
    """Cartesian recombination of factor semigroups along a partition of
    the branch indices (inverse of :func:`decompose`)."""
    return GoodSemigroup(_interleave(partition, factors))


def product_semigroups(*factors) -> GoodSemigroup:
    """Product semigroup on consecutive branch blocks."""
    blocks = []
    at = 0
    for f in factors:
        blocks.append(tuple(range(at, at + f.s)))
        at += f.s
    return recombine(blocks, factors)
