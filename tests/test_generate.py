import math
import random
import re
import time
import tracemalloc

import pytest

import oracles
import goodsemi.generate as gen
from goodsemi import (
    FrameError,
    IdealFrame,
    ideals,
    NotCertifiedError,
    numerical_semigroup,
    random_good_ideal,
    random_good_semigroup,
    random_pair,
    validate,
)


def test_numerical_semigroup_2_5():
    S = numerical_semigroup(2, 5)
    members = oracles.numerical_members((2, 5), 12)
    assert {x for (x,) in S.ideal.members_in_box((0,), (12,))} == members
    assert S.gamma == (4,)
    assert (3,) not in S and (4,) in S


def test_numerical_semigroup_4_5_7():
    S = numerical_semigroup(4, 5, 7)
    assert S.gamma == (7,)
    members = oracles.numerical_members((4, 5, 7), 20)
    assert {x for (x,) in S.ideal.members_in_box((0,), (20,))} == members
    # gap structure: 1, 2, 3, 6 are the only gaps
    assert members == set(range(21)) - {1, 2, 3, 6}


def test_numerical_semigroup_rejects_bad_generators():
    with pytest.raises(FrameError, match="gcd"):
        numerical_semigroup(4, 6)
    with pytest.raises(FrameError, match="positive"):
        numerical_semigroup(0, 3)
    with pytest.raises(FrameError):
        numerical_semigroup()


@pytest.mark.parametrize("bad", [2.0, True, "2", None])
def test_numerical_semigroup_refuses_non_integer_generators(bad):
    # 2.0 used to raise a bare TypeError, and True was read as 1
    with pytest.raises(FrameError, match=f"generator {re.escape(repr(bad))} of .* is not an integer"):
        numerical_semigroup(bad, 3)


@pytest.mark.parametrize(
    "gens, says",
    [
        # the conductor (4201 - 1)(4203 - 1) needs more cells than a box
        # may hold, and is refused before a box of that size is built
        ((4201, 4203), f"conductor {4200 * 4202} of"),
        # 1, ..., a - 1 are gaps, so the least generator a bounds the
        # conductor before any residue is visited
        ((ideals.MAX_CELLS + 1, ideals.MAX_CELLS), f"is at least {ideals.MAX_CELLS}"),
    ],
)
def test_numerical_semigroup_refuses_an_oversized_conductor_at_once(gens, says):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(FrameError) as exc:
            numerical_semigroup(*gens)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 8 << 20, (elapsed, peak)
    assert says in str(exc.value)
    assert f"box limit of {ideals.MAX_CELLS} cells" in str(exc.value)


def test_numerical_semigroup_matches_the_coin_problem_oracle(rng):
    for _ in range(40):
        gens = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = numerical_semigroup(*gens)
        hi = S.gamma[0] + max(gens) + 2
        members = oracles.numerical_members(gens, hi)
        assert {x for (x,) in S.ideal.members_in_box((0,), (hi,))} == members, gens
        # the conductor is one past the largest gap
        assert S.gamma == (max(set(range(hi + 1)) - members, default=-1) + 1,), gens


def test_numerical_semigroup_trivial():
    S = numerical_semigroup(1)
    assert S.gamma == (0,)
    assert (0,) in S and (5,) in S


def test_random_semigroups_are_certified(rng):
    for _ in range(8):
        S = random_good_semigroup(rng, 2, max_gamma=7)
        rep = validate(S)
        assert rep.ok, rep.summary()
        # independent re-check of the exchange axiom on the raw point set
        bound = tuple(g + 2 for g in S.gamma)
        assert oracles.exchange_violations(
            set(S.ideal.frame_sorted), S.ideal.contains, bound
        ) == []


@pytest.mark.parametrize("max_gamma", [2, 0, -4])
def test_random_semigroup_refuses_max_gamma_below_3(rng, max_gamma):
    # it used to raise ValueError: empty range for randrange()
    with pytest.raises(FrameError, match=re.escape(f"max_gamma must be at least 3, got {max_gamma}")):
        random_good_semigroup(rng, 2, max_gamma=max_gamma)


@pytest.mark.parametrize("call, message", [
    (lambda r: random_good_ideal(r, numerical_semigroup(3, 4), max_shift=-1), "max_shift must be at least 0, got -1"),
    (lambda r: random_pair(r, 2, max_shift=-2), "max_shift must be at least 0, got -2"),
    (lambda r: random_pair(r, 2, max_shift=1.0), "max_shift must be an integer, got 1.0"),
    (lambda r: random_good_semigroup(r, 2.0), "s must be an integer, got 2.0"),
    (lambda r: random_good_semigroup(r, 0), "s must be at least 1, got 0"),
    (lambda r: random_good_semigroup(r, 2, max_gamma=3.5), "max_gamma must be an integer, got 3.5"),
], ids=["ideal-shift", "pair-shift", "float-shift", "float-s", "zero-s", "float-gamma"])
def test_generators_refuse_parameters_by_name_before_drawing(call, message):
    rng = random.Random(5)
    with pytest.raises(FrameError, match=re.escape(message)):
        call(rng)
    assert rng.random() == random.Random(5).random()  # no draw was made


def test_random_semigroups_in_three_coordinates(rng):
    for _ in range(3):
        S = random_good_semigroup(rng, 3, max_gamma=4)
        assert validate(S).ok
        assert S.s == 3 and (0, 0, 0) in S


def test_local_flag_forces_trivial_small_elements(rng):
    for _ in range(6):
        S = random_good_semigroup(rng, 2, max_gamma=6, local=True)
        small = [p for p in S.ideal.members_in_box((0, 0), S.gamma)
                 if 0 in p and p != (0, 0)]
        assert small == []


def test_random_ideals_validate_against_their_semigroup(rng):
    for _ in range(8):
        S, E = random_pair(rng, 2, max_gamma=6)
        rep = validate(E, S)
        assert rep.ok, rep.summary()


def test_random_ideal_shift_can_leave_origin(rng):
    shifted = False
    for _ in range(10):
        S = random_good_semigroup(rng, 2, max_gamma=5)
        E = random_good_ideal(rng, S, max_shift=3)
        if E.mu != (0, 0):
            shifted = True
    assert shifted


def test_generation_is_seed_reproducible():
    a = random_good_semigroup(random.Random(99), 2)
    b = random_good_semigroup(random.Random(99), 2)
    assert a == b and a.ideal.frame_sorted == b.ideal.frame_sorted
    c = random_good_semigroup(random.Random(100), 2)
    assert a != c or a.gamma != c.gamma


def test_stale_scan_witnesses_cannot_hang_the_generator(monkeypatch):
    calls = 0

    def stale_e1(frame):
        # min(mu, gamma) = mu is always present, so this adds nothing
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("the repair loop kept running on stale witnesses")
        return [(frame.mu, frame.gamma)]

    monkeypatch.setattr(gen, "_e1_failures", stale_e1)
    for seed in range(5):
        try:
            S = random_good_semigroup(random.Random(seed), 2)
        except NotCertifiedError:
            continue
        assert validate(S).ok


def test_the_repair_loop_scans_normalized_frames(monkeypatch, rng):
    # every frame the repair scans has the least exact capping bound, as
    # every other frame does; a frame held at the box corner differs
    # from its rebuild in gamma and in its bits
    seen = []
    real = gen._e1_failures

    def recording(frame):
        seen.append(frame)
        return real(frame)

    monkeypatch.setattr(gen, "_e1_failures", recording)
    for i in range(40):
        s = i % 4 + 1
        random_pair(rng, s, 8 if s <= 2 else 4)
    assert len(seen) >= 80, len(seen)
    for F in seen:
        assert F == IdealFrame(F.s, F.mu, F.gamma, F.frame_sorted), F
