"""The box primitives of ``goodsemi.ideals`` against cell-by-cell oracles.

``_regrid`` (and ``_crop`` on top of it) moves whole blocks with masked
int shifts, ``_flip`` reverses bytes through a table, the axis sweeps
shift by doubling strides and ``_folds`` chains them along axis sets; the
oracles here decode every cell on its own, so a block moved one place
off, a post copy missing, a pre shift one slice short or a sweep leaking
across a row edge shows up as a wrong cell.
"""

import math
import operator
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import oracles
from goodsemi import axioms, duality, ideals
from goodsemi.generate import numerical_semigroup, random_pair
from goodsemi.lattice import add


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


def _cell_map(bits, shape) -> dict:
    """{index tuple: cell} over every cell of ``shape``."""
    return {x: bits >> _offset(x, shape) & 1 for x in product(*map(range, shape))}


def _sweep_oracle(bits, shape, axis, pick, combine) -> int:
    """out[x] = combine of the cells y on x's line along ``axis`` with
    pick(y[axis], x[axis])."""
    cells, out = _cell_map(bits, shape), 0
    for x in cells:
        line = [cells[x[:axis] + (y,) + x[axis + 1 :]] for y in range(shape[axis]) if pick(y, x[axis])]
        out |= int(combine(line)) << _offset(x, shape)
    return out


_SWEEPS = {
    "_suffix_or": (operator.ge, any),
    "_suffix_or_strict": (operator.gt, any),
    "_prefix_or": (operator.le, any),
    "_suffix_and": (operator.ge, all),
}


def _sweep_draws(rng, count):
    """Boxes of 1-4 axes of 1-5 cells, many axes of size 1, with sparse,
    even and dense cells."""
    for _ in range(count):
        shape = tuple(rng.choice((1, 1, 2, 3, 4, 5)) for _ in range(rng.randint(1, 4)))
        size = math.prod(shape)
        bits = rng.choice((operator.and_, operator.or_, lambda a, b: a))(rng.getrandbits(size), rng.getrandbits(size))
        yield bits, shape, rng.randrange(len(shape))


def _key_cells(key) -> int:
    """The cells of the mask stored under ``key``: _fill's key starts with
    its box's shape, _periodic's ends with its total."""
    return math.prod(key[0]) if isinstance(key[0], tuple) else key[3]


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
    # boxes of more than 2^12 cells, which the small draws above never reach
    rng = random.Random(5)
    seen = 0
    while seen < 10:
        bits, shape, spans = next(_draws(rng, 1, (2, 3), (10, 90)))
        spans = [(p, a, b, q) if b > a else (0, 0, n, 0) for (p, a, b, q), n in zip(spans, shape)]
        if not 1 << 12 < math.prod(shape) <= 20_000:
            continue
        assert ideals._regrid(bits, shape, spans) == _regrid_oracle(bits, shape, spans), (shape, spans)
        seen += 1


@pytest.mark.parametrize("name", sorted(_SWEEPS))
def test_axis_sweeps_match_the_cell_oracle(rng, name):
    sweep, (pick, combine) = getattr(ideals, name), _SWEEPS[name]
    for bits, shape, axis in _sweep_draws(rng, 400):
        assert sweep(bits, shape, axis) == _sweep_oracle(bits, shape, axis, pick, combine), (bits, shape, axis)


@pytest.mark.parametrize("name", sorted(_SWEEPS))
def test_folds_match_the_cell_oracle_along_every_axis_mask(rng, name):
    sweep, (pick, combine) = getattr(ideals, name), _SWEEPS[name]
    for bits, shape, _ in _sweep_draws(rng, 200):
        calls = []

        def counted(b, sh, axis):
            calls.append(axis)
            return sweep(b, sh, axis)

        fold, masks, first = ideals._folds(bits, shape, counted), range(1 << len(shape)), []
        for T in masks:
            # the oracle sweeps T's axes in a random order: they commute
            axes = [i for i in range(len(shape)) if T >> i & 1]
            rng.shuffle(axes)
            want = bits
            for axis in axes:
                want = _sweep_oracle(want, shape, axis, pick, combine)
            first.append(fold(T))
            assert first[T] == want, (bits, shape, T)
        # one sweep per nonzero mask, and a second read returns the kept
        # table without sweeping again
        assert len(calls) == len(masks) - 1
        assert all(fold(T) is first[T] for T in masks)
        assert len(calls) == len(masks) - 1


def test_fill_lowest_and_highest_match_the_cell_oracle(rng):
    for bits, shape, axis in _sweep_draws(rng, 600):
        n = shape[axis]
        a = rng.randint(0, n)
        b = rng.randint(a, n)
        want = sum(1 << _offset(x, shape) for x in _cell_map(0, shape) if a <= x[axis] < b)
        assert ideals._fill(shape, axis, a, b) == want, (shape, axis, a, b)
        if bits:
            levels = [x[axis] for x, c in _cell_map(bits, shape).items() if c]
            assert ideals._lowest(bits, shape, axis) == min(levels), (bits, shape, axis)
    # the highest level is read as the lowest of the reversed box, in
    # _settle: test_settle_cuts_to_the_least_exact_bound checks it


def test_settle_cuts_to_the_least_exact_bound(rng):
    # the bound on an axis is the least level c >= first at and past which
    # every slice equals the top slice; the kept cells are the box's from
    # first to that bound
    seen = set()
    for bits, shape, _ in _sweep_draws(rng, 400):
        if not bits:
            continue
        cells = _cell_map(bits, shape)
        first = tuple(min(x[ax] for x, c in cells.items() if c) for ax in range(len(shape)))
        top = []
        for ax, n in enumerate(shape):
            same = [all(c == cells[x[:ax] + (n - 1,) + x[ax + 1 :]] for x, c in cells.items() if x[ax] == lv)
                    for lv in range(n)]
            top.append(next(c for c in range(first[ax], n) if all(same[c:])))
        lo = tuple(rng.randint(-3, 3) for _ in shape)
        out_shape = tuple(t - f + 1 for f, t in zip(first, top))
        want = sum(cells[tuple(f + y for f, y in zip(first, x))] << _offset(x, out_shape)
                   for x in product(*map(range, out_shape)))
        got = ideals._settle(lo, shape, bits, first)
        assert got == (add(lo, first), add(lo, tuple(top)), want), (bits, shape, first)
        seen.add((len(shape), 1 in shape))
    # every s from 1 to 4, with and without a one-level axis
    assert seen == {(s, one) for s in range(1, 5) for one in (False, True)}, seen


def test_mask_store_is_cleared_when_the_next_mask_would_not_fit():
    # each mask counts as a third of MAX_CELLS and more, so every third
    # clears the store; the masks themselves are a few bits
    total = ideals.MAX_CELLS // 3 + 1
    asked = []
    for k in range(1, 7):
        if k % 2:
            key, mask = ((total,), 0, 0, k), ideals._fill((total,), 0, 0, k)
        else:
            key, mask = (total, 0, k, total), ideals._periodic(total, 0, k, total)
        assert mask == (1 << k) - 1
        asked.append(key)
        assert ideals._MASKS[key] == mask  # the last mask is kept
        assert sum(map(_key_cells, ideals._MASKS)) == ideals._held <= ideals.MAX_CELLS
    assert asked[0] not in ideals._MASKS


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


def test_box_bits_are_the_membership_box_read_cell_by_cell(rng):
    # the library's inclusion checks read _box_bits with no argument checks:
    # on random frames and good ideals it must give membership_box's bits,
    # each cell the frame's own contains, on boxes from below mu to above
    # gamma, and empty ones
    below = above = empty = 0
    for _ in range(200):
        s = rng.randint(1, 3)
        E = _small_frame(rng, s) if rng.random() < 0.5 else random_pair(rng, s, max_gamma=5)[1]
        lo = tuple(rng.randint(m - 3, g + 1) for m, g in zip(E.mu, E.gamma))
        hi = tuple(rng.randint(a - 1, g + 3) for a, g in zip(lo, E.gamma))
        box = E.membership_box(lo, hi)
        bits = ideals._box_bits(E, lo, hi)
        assert bits == box.bits, (E, lo, hi)
        cells = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        assert bits == sum(E.contains(p) << k for k, p in enumerate(cells))
        below += any(a < m for a, m in zip(lo, E.mu))
        above += any(b > g for b, g in zip(hi, E.gamma))
        empty += not box.size
    assert min(below, above) >= 80 and empty >= 10, (below, above, empty)


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
    assert ideals._MASKS
    assert sum(map(_key_cells, ideals._MASKS)) <= ideals.MAX_CELLS
    assert all(m.bit_length() <= _key_cells(key) for key, m in ideals._MASKS.items())


# ------------------------------------------------------------ the row walker


def _rows_oracle(bits, shape) -> list:
    """(row number, cell string) of every row along the last axis that
    holds a set cell, each cell decoded on its own."""
    n = shape[-1]
    out = []
    for row in range(math.prod(shape[:-1]) if n else 0):
        line = "".join(str(bits >> row * n + e & 1) for e in range(n))
        if "1" in line:
            out.append((row, line))
    return out


def _walker_boxes(rng):
    """Random bitsets over 1-4 axes, sparse, even and dense, then the edge
    cases: boxes of no cell, boxes with no set cell, the last cell alone,
    rows of one cell and rows all set."""
    for bits, shape, _ in _sweep_draws(rng, 600):
        yield bits, shape
    for shape in [(0,), (3, 0), (0, 4), (2, 0, 3)]:
        yield 0, shape
    for shape in [(1,), (5,), (3, 4), (2, 3, 4), (2, 2, 2, 3)]:
        size = math.prod(shape)
        yield 0, shape
        yield 1 << size - 1, shape
        yield (1 << size) - 1, shape
    for shape in [(4, 1), (2, 3, 1), (3, 1, 2, 1)]:
        yield rng.getrandbits(math.prod(shape)), shape
    for shape in [(4, 5), (3, 2, 6)]:  # every other row full, the rest empty
        n = shape[-1]
        yield sum(((1 << n) - 1) << row * n for row in range(0, math.prod(shape[:-1]), 2)), shape


def test_rows_match_the_cell_oracle(rng):
    kinds = set()
    for bits, shape in _walker_boxes(rng):
        got = list(ideals._rows(bits, shape))
        assert got == _rows_oracle(bits, shape), (bits, shape)
        kinds.add((len(shape), "empty" if not got else "full" if all("0" not in c for _, c in got) else ""))
    assert {(s, "") for s in range(1, 5)} <= kinds and {(1, "empty"), (2, "full"), (3, "full")} <= kinds


def test_rows_yield_each_nonempty_row_once_in_c_order(rng):
    for bits, shape in _walker_boxes(rng):
        n = shape[-1]
        got = [row for row, _ in ideals._rows(bits, shape)]
        assert got == sorted(set(got)), (bits, shape)
        nonempty = {k // n for k in range(math.prod(shape)) if bits >> k & 1}
        assert set(got) == nonempty, (bits, shape)
        for row, cells in ideals._rows(bits, shape):
            assert len(cells) == n and "1" in cells
            assert int(cells[::-1], 2) == bits >> row * n & (1 << n) - 1


def _sparse_by(rng, s):
    """A raw box over 2-4 axes of 1-5 cells, its last axis of 2-6, with a
    few set cells in at most two rows: most rows are empty."""
    shape = tuple(rng.randint(1, 5) for _ in range(s - 1)) + (rng.randint(2, 6),)
    n, rows = shape[-1], math.prod(shape[:-1])
    bits = 0
    for row in rng.sample(range(rows), min(rows, rng.randint(1, 2))):
        bits |= (rng.getrandbits(n) or 1) << row * n
    by_lo = tuple(rng.randint(-2, 2) for _ in range(s))
    return ideals.Box(by_lo, shape, bits)


def _small_frame(rng, s):
    """A small frame over s axes holding both corners of [mu, mu + B]."""
    B = tuple(rng.randint(0, 2) for _ in range(s))
    mu = tuple(rng.randint(-2, 2) for _ in range(s))
    pts = {(0,) * s, B} | {tuple(rng.randint(0, b) for b in B) for _ in range(6)}
    return ideals.IdealFrame(s, mu, add(mu, B), [add(mu, p) for p in pts])


def test_reducer_on_sparse_boxes_matches_the_swept_oracle():
    # erosions and dilations by the mostly empty Apéry boxes of s = 3
    # semigroups, and by raw boxes with most rows empty
    rng = random.Random(20261020)
    empty_rows, apery_rows = 0, [0, 0]  # (nonempty, all) rows of the Apéry boxes
    for k in range(90):
        s = 3 if k % 2 == 0 else rng.randint(2, 4)
        if s == 3 and k % 4 == 0:
            S, E = random_pair(rng, 3, max_gamma=5)
            E, by = rng.choice((S, E)), axioms._apery_families(S)
            apery_rows[0] += len(_rows_oracle(by.bits, by.shape))
            apery_rows[1] += math.prod(by.shape[:-1])
        else:
            E = random_pair(rng, s, max_gamma=4)[1] if s <= 3 else _small_frame(rng, s)
            by = _sparse_by(rng, s)
        erode = k % 3 != 2
        n = by.shape
        empty_rows += math.prod(n[:-1]) - len(_rows_oracle(by.bits, n))
        top = tuple(m - 1 for m in n)
        if erode:
            lo, hi = oracles.sub(E.mu, by.lo), oracles.sub(E.gamma, by.lo)
        else:
            lo, hi = oracles.add(E.mu, by.lo), oracles.add(E.gamma, oracles.add(by.lo, top))
        lo = tuple(a + rng.randint(-1, 1) for a in lo)
        hi = oracles.cmax(lo, tuple(b + rng.randint(-1, 1) for b in hi))
        offsets = [oracles.sub(c, by.lo) for c in by.points()]
        got = axioms._reduce_translates(erode, E, lo, hi, by)
        want = oracles.swept_translates(erode, E.contains, lo, hi, by.lo, offsets, top)
        assert set(got.points()) == want, (erode, E, lo, hi, by.lo, offsets)
    assert empty_rows >= 500 and 2 * apery_rows[0] < apery_rows[1], (empty_rows, apery_rows)


def test_to_json_by_row_numbers_is_byte_identical_on_the_benchmark_frames():
    frames = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "frames").glob("*.json"))
    assert len(frames) == 14
    for path in frames:
        text = path.read_text()
        E = ideals.from_json(text)
        assert ideals.to_json(E) == text, path.name
        points = [p for p in oracles.box(E.mu, E.gamma) if E.contains(p)]
        assert text == oracles.frame_json(E.s, E.mu, E.gamma, points), path.name
