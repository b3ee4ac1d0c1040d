import pytest

from goodsemi.errors import DimensionMismatch
from goodsemi.lattice import (
    add,
    as_point,
    check_same_dim,
    cmax,
    cmin,
    leq,
    lt,
    ones,
    sub,
    unit,
    zero,
)


def test_pointwise_ops():
    assert cmin((3, 1), (2, 5)) == (2, 1)
    assert cmax((3, 1), (2, 5)) == (3, 5)
    assert add((1, 2), (3, 4)) == (4, 6)
    assert sub((1, 2), (3, 4)) == (-2, -2)
    assert unit(3, 1) == (0, 1, 0)
    assert zero(2) == (0, 0)
    assert ones(4) == (1, 1, 1, 1)


def test_order_relations():
    assert leq((1, 1), (1, 1))
    assert leq((0, 2), (1, 2))
    assert not leq((2, 0), (1, 5))
    assert lt((1, 1), (1, 2))
    assert not lt((1, 1), (1, 1))
    # incomparable pairs are neither below nor above
    assert not leq((0, 3), (2, 1)) and not leq((2, 1), (0, 3))


def test_as_point_normalizes():
    assert as_point([1, 2]) == (1, 2)
    assert as_point((x for x in (3, 4, 5))) == (3, 4, 5)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_same_dim((1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        cmin((1,), (1, 2))
