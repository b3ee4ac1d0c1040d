"""Randomized algebraic laws, driven by hypothesis.

Each strategy draws a PRNG seed and rebuilds the objects from it, so
failures shrink to a single small integer that reproduces the case.
"""

import pathlib
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import oracles
from goodsemi import (
    CanonicalIdeal,
    canonical_normalized,
    difference,
    dualize,
    from_json,
    is_subset,
    random_good_ideal,
    random_good_semigroup,
    random_pair,
    relative_distance,
    sum_ideals,
    to_json,
    validate,
)

SEEDS = st.integers(min_value=0, max_value=10**6)
FAST = settings(max_examples=20, deadline=None)


@given(SEEDS)
@FAST
def test_dual_is_an_involution(seed):
    rng = random.Random(seed)
    S, E = random_pair(rng, 2, max_gamma=6, max_shift=2)
    K = CanonicalIdeal.normalized(S)
    assert dualize(K, dualize(K, E)) == E


@given(SEEDS)
@FAST
def test_dual_reverses_inclusions(seed):
    rng = random.Random(seed)
    S = random_good_semigroup(rng, 2, max_gamma=6)
    E = random_good_ideal(rng, S, max_shift=0)
    K = CanonicalIdeal.normalized(S)
    D = dualize(K, E)
    DS = dualize(K, S.ideal)
    if is_subset(E, S.ideal):  # E need not nest inside S
        assert is_subset(DS, D)


@given(SEEDS, st.integers(-3, 3), st.integers(-3, 3))
@FAST
def test_difference_translation_laws(seed, dx, dy):
    rng = random.Random(seed)
    S, E = random_pair(rng, 2, max_gamma=5, max_shift=1)
    F = random_good_ideal(rng, S, max_shift=1)
    d = (dx, dy)
    base = difference(E, F)
    assert difference(E.shift(d), F) == base.shift(d)
    assert difference(E, F.shift(d)) == base.shift(tuple(-c for c in d))


@given(SEEDS, st.integers(-2, 4), st.integers(-2, 4))
@FAST
def test_sum_translation_law(seed, dx, dy):
    rng = random.Random(seed)
    S, E = random_pair(rng, 2, max_gamma=5, max_shift=1)
    F = random_good_ideal(rng, S, max_shift=1)
    d = (dx, dy)
    assert sum_ideals(E.shift(d), F) == sum_ideals(E, F).shift(d)


@given(SEEDS)
@FAST
def test_sum_is_commutative_and_associative(seed):
    rng = random.Random(seed)
    S = random_good_semigroup(rng, 2, max_gamma=5)
    E = random_good_ideal(rng, S, max_shift=1)
    F = random_good_ideal(rng, S, max_shift=1)
    G = random_good_ideal(rng, S, max_shift=1)
    assert sum_ideals(E, F) == sum_ideals(F, E)
    assert sum_ideals(sum_ideals(E, F), G) == sum_ideals(E, sum_ideals(F, G))


@given(SEEDS)
@FAST
def test_canonical_difference_with_itself_returns_the_semigroup(seed):
    rng = random.Random(seed)
    S = random_good_semigroup(rng, 2, max_gamma=6)
    K = canonical_normalized(S)
    assert difference(K, K) == S.ideal


def _check_difference_membership(seed, s):
    rng = random.Random(seed)
    S, E = random_pair(rng, s, max_gamma=5, max_shift=1)
    F = random_good_ideal(rng, S, max_shift=1)
    D = difference(E, F)
    lo = tuple(m - 2 for m in D.mu)
    hi = tuple(g + 2 for g in D.gamma)
    f_hi = tuple(max(F.gamma[i], E.gamma[i] - E.mu[i] + F.mu[i]) + 1 for i in range(s))
    want = oracles.difference_points(E.contains, F.contains, lo, hi, F.mu, f_hi)
    got = {p for p in oracles.box(lo, hi) if p in D}
    assert got == want


def _check_sum_membership(seed, s):
    rng = random.Random(seed)
    S = random_good_semigroup(rng, s, max_gamma=4)
    E = random_good_ideal(rng, S, max_shift=1)
    F = random_good_ideal(rng, S, max_shift=1)
    P = sum_ideals(E, F)
    hi = tuple(g + 2 for g in P.gamma)
    want = oracles.sum_points(E.contains, F.contains, P.mu, hi, E.mu, F.mu)
    got = {p for p in oracles.box(P.mu, hi) if p in P}
    assert got == want


@given(SEEDS)
@FAST
def test_difference_membership_matches_bruteforce(seed):
    _check_difference_membership(seed, 2)


@given(SEEDS)
@FAST
def test_difference_membership_matches_bruteforce_three_branch(seed):
    _check_difference_membership(seed, 3)


@given(SEEDS)
@FAST
def test_sum_membership_matches_bruteforce(seed):
    _check_sum_membership(seed, 2)


@given(SEEDS)
@FAST
def test_sum_membership_matches_bruteforce_three_branch(seed):
    _check_sum_membership(seed, 3)


@given(SEEDS)
@FAST
def test_random_ideals_respect_their_axioms(seed):
    rng = random.Random(seed)
    S, E = random_pair(rng, 2, max_gamma=6, max_shift=2)
    assert validate(E, S).ok
    bound = tuple(g + 2 for g in E.gamma)
    pts = set(E.frame_sorted)
    assert oracles.exchange_violations(pts, E.contains, bound) == []
    assert oracles.min_closed(pts)


@given(SEEDS)
@FAST
def test_json_roundtrip_random(seed):
    rng = random.Random(seed)
    S, E = random_pair(rng, 2, max_gamma=6, max_shift=3)
    assert from_json(to_json(E)) == E
    assert from_json(to_json(S.ideal)) == S.ideal
    # serialization is deterministic
    assert to_json(E) == to_json(from_json(to_json(E)))


@given(SEEDS)
@FAST
def test_three_branch_involution(seed):
    rng = random.Random(seed)
    S = random_good_semigroup(rng, 3, max_gamma=4)
    E = random_good_ideal(rng, S, max_shift=1)
    K = CanonicalIdeal.normalized(S)
    assert dualize(K, dualize(K, E)) == E


@given(SEEDS, st.integers(1, 3))
@FAST
def test_duality_keeps_lengths(seed, s):
    # d(E \ F) = d((K0 - F) \ (K0 - E)) for F ⊆ E, with F = alpha + E and
    # alpha in S \ {0}; gamma_S + 1 is such an alpha when S = N^s
    rng = random.Random(seed)
    S, E = random_pair(rng, s, max_gamma=5, max_shift=2)
    K = canonical_normalized(S)
    alpha = rng.choice(S.ideal.frame_sorted[1:] + (tuple(x + 1 for x in S.gamma),))
    F = E.shift(alpha)
    assert relative_distance(F, E) == relative_distance(difference(K, E), difference(K, F))


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis reports a failure through libcst, which warns on import:
    # under the repository's config the next test must still run
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_runs_after_it():\n"
        "    pass\n"
    )
    config = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
