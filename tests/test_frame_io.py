"""Frame text and frame construction: the row writer of ``to_json``
against the per-point oracle, byte-for-byte round trips of every JSON
fixture, and the constructor's refusals and accepted input forms."""

import random
from pathlib import Path

import numpy as np
import pytest

import oracles
from goodsemi import (
    CanonicalIdeal,
    FrameError,
    IdealFrame,
    ParseError,
    difference,
    dualize,
    from_json,
    to_json,
)
from goodsemi.generate import random_pair

ROOT = Path(__file__).resolve().parent.parent
JSON_FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.json")) + sorted(
    (ROOT / "perfbench" / "fixtures").rglob("*.json")
)


def _oracle(E):
    points = [p for p in oracles.box(E.mu, E.gamma) if E.contains(p)]
    return oracles.frame_json(E.s, E.mu, E.gamma, points)


def _sparse_frame(rng, s):
    """Random points over [mu, mu + B] holding both corners, most of them
    not min-closed, with rows along the last axis often empty."""
    B = tuple(rng.randint(0, 5 if s <= 2 else 3) for _ in range(s))
    mu = tuple(rng.randint(-6, 6) for _ in range(s))
    pts = {(0,) * s, B} | {tuple(rng.randint(0, b) for b in B) for _ in range(rng.randint(0, 6))}
    return IdealFrame(s, mu, oracles.add(B, mu), {oracles.add(p, mu) for p in pts})


def _frames(seed):
    rng = random.Random(seed)
    s = 1 + seed % 4
    E = _sparse_frame(rng, s)
    yield E
    yield E.shift(tuple(rng.randint(-9, 9) for _ in range(s)))
    c = tuple(rng.randint(-4, 4) for _ in range(s))
    yield IdealFrame(s, c, c, [c])  # one point
    S, F = random_pair(rng, s, max_gamma=5 if s <= 2 else 3)
    K = CanonicalIdeal.normalized(S)
    yield K.ideal
    yield dualize(K, F)
    yield difference(F, S)
    yield difference(S.ideal.shift((2,) * s), F)


@pytest.mark.parametrize("seed", range(40))
def test_to_json_matches_the_per_point_oracle(seed):
    for E in _frames(seed):
        text = to_json(E)
        assert text == _oracle(E)
        assert from_json(text) == E


def test_frames_with_empty_rows_and_negative_coordinates_are_covered():
    frames = [E for seed in range(40) for E in _frames(seed)]
    assert {E.s for E in frames} == {1, 2, 3, 4}
    assert any(min(E.mu) < 0 for E in frames) and any(min(E.mu) > 0 for E in frames)
    assert any(E._bits.bit_count() == 1 for E in frames)
    assert not all(E.is_e1() for E in frames)

    def has_empty_row(E):
        pts = [p for p in oracles.box(E.mu, E.gamma) if E.contains(p)]
        rows = list(oracles.box(E.mu[:-1], E.gamma[:-1]))
        return len({p[:-1] for p in pts}) < len(rows)

    assert sum(map(has_empty_row, frames)) >= 20


@pytest.mark.parametrize("path", JSON_FIXTURES, ids=lambda p: str(p.relative_to(ROOT)))
def test_json_fixtures_round_trip_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert to_json(from_json(text)) == text


# ---------------------------------------------------------- construction


@pytest.mark.parametrize(
    "frame, error, message",
    [
        ([], FrameError, "frame must be nonempty"),
        ([(0, 0), (1,), (1, 1)], FrameError, "frame point (1,) has wrong dimension"),
        ([[0, 0], [1, 1, 1], [1, 1]], FrameError, "frame point (1, 1, 1) has wrong dimension"),
        ([(0, 0), (1, 2, 3), (5, 1)], FrameError, "frame point (1, 2, 3) has wrong dimension"),
        ([{0: 1}, (1, 1)], FrameError, "frame point (0,) has wrong dimension"),
        ([[]], FrameError, "frame point () has wrong dimension"),
        ([(0, 0), (2, 0), (1, 1)], FrameError, "frame point (2, 0) outside [(0, 0), (1, 1)]"),
        ([[0, 0], [1, -1], [1, 1]], FrameError, "frame point (1, -1) outside [(0, 0), (1, 1)]"),
        ([(0, 0), (True, 1), (1, 1)], FrameError, "frame point [True, 1] has a non-integer coordinate"),
        ([(0, 0), (1, 2.5), (1, 1)], FrameError, "frame point [1, 2.5] has a non-integer coordinate"),
        ([(0, 0), (1,), ("1", 1)], FrameError, "frame point ['1', 1] has a non-integer coordinate"),
        ([(0, 0), "ab", (1, 1)], FrameError, "frame point ['a', 'b'] has a non-integer coordinate"),
        ([(0, 0), 5, (1, 1)], TypeError, "'int' object is not iterable"),
        ([(0, 0), None, (1, 1)], TypeError, "'NoneType' object is not iterable"),
        (7, TypeError, "'int' object is not iterable"),
        ([(1, 0), (1, 1)], FrameError, "mu=(0, 0) must belong to the frame"),
        ([(0, 0), (1, 0)], FrameError, "gamma=(1, 1) must belong to the frame"),
    ],
    ids=["empty", "short", "long", "dimension-first", "dict", "no-coordinates", "above", "below", "bool", "float",
         "str", "str-point", "int-point", "none-point", "int-frame", "no-mu", "no-gamma"],
)
def test_constructor_refusals_keep_their_type_and_message(frame, error, message):
    with pytest.raises(error) as exc:
        IdealFrame(2, (0, 0), (1, 1), frame)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "frame, message",
    [
        ("[]", "frame must be nonempty"),
        ("[[0, 0], [1], [1, 1]]", "frame point (1,) has wrong dimension"),
        ("[[0, 0], [1, 2], [1, 1]]", "frame point (1, 2) outside [(0, 0), (1, 1)]"),
        ("[[0, 0], [true, 1], [1, 1]]", "frame point [True, 1] has a non-integer coordinate"),
        ("[[0, 0], [0.5, 1], [1, 1]]", "frame point [0.5, 1] has a non-integer coordinate"),
        ('[[0, 0], ["1", 1], [1, 1]]', "frame point ['1', 1] has a non-integer coordinate"),
        ('[[0, 0], {"a": 1}, [1, 1]]', "frame point ['a'] has a non-integer coordinate"),
        ("[[0, 0], 5, [1, 1]]", "'int' object is not iterable"),
        ("5", "'int' object is not iterable"),
        ("[[1, 0], [1, 1]]", "mu=(0, 0) must belong to the frame"),
        ("[[0, 0], [0, 1]]", "gamma=(1, 1) must belong to the frame"),
    ],
)
def test_from_json_refusals_keep_their_message(frame, message):
    text = '{"s": 2, "mu": [0, 0], "gamma": [1, 1], "frame": %s}' % frame
    with pytest.raises(ParseError) as exc:
        from_json(text, filename="f.json")
    assert type(exc.value) is ParseError and str(exc.value) == f"f.json: {message}"


def test_from_points_refusals_keep_their_message():
    for points, message in (
        ([], "empty point set"),
        ([(0, 0), (1, False)], "frame point [1, False] has a non-integer coordinate"),
        ([(0, 0), (3, 1, 0)], "frame point (3, 1, 0) has wrong dimension"),
    ):
        with pytest.raises(FrameError) as exc:
            IdealFrame.from_points(points, (3, 1))
        assert str(exc.value) == message


def test_every_form_of_a_frame_builds_the_same_frame():
    pts = [(-1, 2), (0, 2), (2, 3), (2, 5), (3, 5)]
    want = IdealFrame(2, (-1, 2), (3, 5), pts)
    assert want.frame_sorted == tuple(pts)
    forms = [
        [list(p) for p in pts],
        tuple(pts),
        set(pts),
        (p for p in pts),
        [(x for x in p) for p in pts],
        np.array(pts),
        np.array(pts, dtype=np.int32),
        [np.array(p, dtype=np.int8) for p in pts],
        [(np.int64(x), y) for x, y in pts],
    ]
    for frame in forms:
        E = IdealFrame(2, (-1, 2), (3, 5), frame)
        assert E == want and E.fingerprint() == want.fingerprint()
        assert all(type(x) is int for p in E.frame_sorted for x in p)
    assert IdealFrame(2, np.array([-1, 2]), (np.int16(3), 5), pts) == want
    assert IdealFrame.from_points(np.array(pts), (3, 5)) == want
    assert IdealFrame(1, (4,), (4,), [(4,)]) == IdealFrame(1, [4], [4], [[4]])
