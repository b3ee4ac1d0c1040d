"""The box primitives of ``goodsemi.ideals`` against cell-by-cell oracles.

``_regrid`` (and ``_crop`` on top of it) moves whole blocks with masked
int shifts, and ``_flip`` reverses bytes through a table; the oracles here
decode every cell on its own, so a block moved one place off, a post copy
missing or a pre shift one slice short shows up as a wrong cell.
"""

import math
import random
import tracemalloc
from itertools import product

import pytest

from goodsemi import duality, ideals
from goodsemi.generate import numerical_semigroup


def _offset(idx, shape) -> int:
    """The C-order offset of the index tuple ``idx`` in ``shape``."""
    k = 0
    for i, n in zip(idx, shape):
        k = k * n + i
    return k


def _regrid_oracle(bits, shape, spans) -> int:
    if any(b <= a for _, a, b, _ in spans):
        return 0
    counts = [pre + b - a + post for pre, a, b, post in spans]
    out = 0
    for y in product(*map(range, counts)):
        if all(yi >= pre for yi, (pre, *_) in zip(y, spans)):
            src = [min(a + yi - pre, b - 1) for yi, (pre, a, b, _) in zip(y, spans)]
            out |= (bits >> _offset(src, shape) & 1) << _offset(y, counts)
    return out


def _flip_oracle(bits, size) -> int:
    return sum(1 << size - 1 - k for k in range(size) if bits >> k & 1)


def _span(rng, n):
    kind = rng.choice(("full", "identity", "crop", "empty"))
    if n == 0 or kind == "empty":
        a = rng.randint(0, n)
        return (rng.randint(0, 3), a, a - rng.randint(0, min(a, 1)), 0)
    if kind == "identity":
        return (0, 0, n, 0)
    a = rng.randrange(n)
    b = rng.randint(a + 1, n)
    return (0, a, b, 0) if kind == "crop" else (rng.randint(0, 4), a, b, rng.randint(0, 4))


def _draws(rng, count, dims, sizes):
    for _ in range(count):
        shape = tuple(rng.randint(*sizes) for _ in range(rng.randint(*dims)))
        yield rng.getrandbits(math.prod(shape)), shape, [_span(rng, n) for n in shape]


def test_regrid_matches_the_cell_oracle_on_small_boxes(rng):
    kinds = set()
    for bits, shape, spans in _draws(rng, 1500, (1, 4), (0, 5)):
        assert ideals._regrid(bits, shape, spans) == _regrid_oracle(bits, shape, spans), (bits, shape, spans)
        kinds.update(("pre" if p else "", "post" if q else "", "empty" if b <= a else "") for p, a, b, q in spans)
    assert {("pre", "post", ""), ("", "", "empty")} <= kinds


def test_regrid_matches_the_cell_oracle_above_the_mask_cache():
    # boxes of more than 2^12 cells, whose masks are built on the fly
    rng = random.Random(5)
    seen = 0
    while seen < 10:
        bits, shape, spans = next(_draws(rng, 1, (2, 3), (10, 90)))
        spans = [(p, a, b, q) if b > a else (0, 0, n, 0) for (p, a, b, q), n in zip(spans, shape)]
        if not 1 << 12 < math.prod(shape) <= 20_000:
            continue
        assert ideals._regrid(bits, shape, spans) == _regrid_oracle(bits, shape, spans), (shape, spans)
        seen += 1


def test_regrid_to_a_zero_size_grid_is_empty():
    assert ideals._regrid(0b1011, (2, 2), [(0, 1, 1, 0), (0, 0, 2, 0)]) == 0
    assert ideals._regrid(0, (0, 3), [(2, 0, 0, 0), (1, 0, 3, 2)]) == 0


def test_crop_matches_the_cell_oracle(rng):
    for _ in range(300):
        shape = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        start = tuple(rng.randrange(n) for n in shape)
        out = tuple(rng.randint(1, n - a) for a, n in zip(start, shape))
        bits = rng.getrandbits(math.prod(shape))
        want = _regrid_oracle(bits, shape, [(0, a, a + n, 0) for a, n in zip(start, out)])
        assert ideals._crop(bits, shape, start, out) == want


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 17_500])
def test_flip_matches_the_cell_oracle(rng, size):
    for bits in (0, (1 << size) - 1, rng.getrandbits(size), 1, 1 << max(size - 1, 0)):
        bits &= (1 << size) - 1
        assert ideals._flip(bits, size) == _flip_oracle(bits, size)


def test_regrid_spreading_one_row_holds_no_more_than_the_result():
    # shrinking axes go first: growing the last axis first would hold a
    # 2^24-cell int before the first axis is cut to one row
    bits = (1 << 4096) - 1
    tracemalloc.start()
    try:
        got = ideals._regrid(bits, (4096, 1), [(0, 0, 1, 0), (0, 0, 1, 4095)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == bits
    assert peak < 64 * 1024, peak


def test_mask_cache_stays_small_over_a_dualize_pass():
    S = ideals.product_semigroups(*(numerical_semigroup(*g) for g in ((7, 9, 11), (5, 7), (4, 9))))
    K = duality.CanonicalIdeal.normalized(S)
    I = S.ideal.shift((1, 2, 3))
    assert duality.dualize(K, duality.dualize(K, I)) == I
    assert 0 < len(ideals._MASKS) <= ideals._MASK_CAP
    assert all(m.bit_length() <= total <= 1 << 12 for (_, _, _, total), m in ideals._MASKS.items())
    # the masks over 2^12 cells are kept apart, 2^22 cells in all
    assert ideals._BIG_MASKS and ideals._BIG_CAP == 1 << 22
    assert all(1 << 12 < total and m.bit_length() <= total for (_, _, _, total), m in ideals._BIG_MASKS.items())
    assert sum(total for _, _, _, total in ideals._BIG_MASKS) <= 1 << 22
