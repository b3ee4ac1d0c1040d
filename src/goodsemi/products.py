"""Local factors of good semigroups: decomposition and products.

S is local when 0 is its only element with a zero coordinate.  Every good
semigroup is the product of local ones, one per block of branches that
vanish together.  One scan, :func:`_zero_blocks`, reads that partition:
:func:`is_local` asks whether it has one block, and :func:`decompose`
projects S onto each block.  :func:`recombine` interleaves factors back
along a partition of increasing blocks with the one product builder,
:func:`goodsemi.ideals._interleave`.  :mod:`goodsemi.ideals` reads the
public names of this module through, importing it on first use.
"""

from __future__ import annotations

from .axioms import GoodSemigroup
from .errors import FrameError
from .ideals import Box, IdealFrame, _fill, _Frozen, _interleave, _regrid
from .lattice import add, ones, zero


def _zero_blocks(S) -> tuple[tuple[int, ...], ...]:
    """The classes of branches whose zero slices of S ∩ [0, gamma+1] hold
    the same cells, ordered by first branch.

    Branches i, j share a class iff every element of S vanishes at i
    exactly when it vanishes at j; capping at gamma+1 preserves
    zero-patterns, so the scan is exact.
    """
    box = S.membership_box(zero(S.s), add(S.gamma, ones(S.s)))
    blocks: dict[int, list[int]] = {}
    for i in range(S.s):
        blocks.setdefault(box.bits & _fill(box.shape, i, 0, 1), []).append(i)
    return tuple(map(tuple, blocks.values()))


def is_local(S) -> bool:
    """True iff the only element of S with a zero coordinate is 0, that
    is, iff :func:`_zero_blocks` finds one block.

    If 0 is the only member with a zero coordinate, every zero slice holds
    cell 0 alone, so all slices agree.  If all slices agree, a member with
    x_i = 0 lies in every zero slice, so it is 0.
    """
    return len(_zero_blocks(S)) == 1


class LocalDecomposition(_Frozen):
    """Partition of the branch set with one local factor per block."""

    __slots__ = _fields = ("partition", "factors")

    def __init__(self, partition: tuple[tuple[int, ...], ...], factors: tuple[GoodSemigroup, ...]):
        self._init(partition, factors)


def decompose(S: GoodSemigroup) -> LocalDecomposition:
    """Split S into its product of local factors: the projections onto
    the blocks of :func:`_zero_blocks`, read with the other coordinates
    past gamma."""
    blocks = _zero_blocks(S)
    factors = []
    shape = S.shape
    for block in blocks:
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
    return LocalDecomposition(blocks, tuple(factors))


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
