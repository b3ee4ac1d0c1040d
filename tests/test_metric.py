import sys

import pytest

import oracles
from goodsemi import (
    CapExceededError,
    GoodSemigroup,
    IdealFrame,
    InclusionError,
    MetricError,
    NotCertifiedError,
    all_saturated_chains,
    canonical_normalized,
    conductor_ideal,
    difference,
    distance_between,
    numerical_semigroup,
    product_semigroups,
    random_good_semigroup,
    relative_distance,
)
from goodsemi import metric


def test_distance_on_corner_semigroup(fig_s):
    E = fig_s.ideal
    assert distance_between(E, (0, 0), (3, 1)) == 1
    assert distance_between(E, (3, 1), (3, 1)) == 0
    assert distance_between(E, (3, 1), (5, 3)) == 4
    assert distance_between(E, (0, 0), (5, 3)) == 5


def test_distance_agrees_with_chain_search(fig_s, wide_s):
    for S, pairs in [
        (fig_s, [((0, 0), (4, 2)), ((3, 1), (6, 3))]),
        (wide_s, [((0, 0), (8, 6)), ((3, 2), (9, 7)), ((5, 4), (8, 6))]),
    ]:
        E = S.ideal
        for a, b in pairs:
            lens = oracles.chain_lengths(E.contains, a, b)
            assert len(lens) == 1
            assert distance_between(E, a, b) == lens.pop()


def test_all_chains_have_equal_length_when_good(wide_s):
    chains = all_saturated_chains(wide_s.ideal, (0, 0), (5, 4))
    assert len({len(c) for c in chains}) == 1
    assert all(c[0] == (0, 0) and c[-1] == (5, 4) for c in chains)
    # each step is a cover: strictly above, nothing in between
    for c in chains:
        for u, v in zip(c, c[1:]):
            assert oracles.covers(wide_s.ideal.contains, u, v)


def test_chains_split_lengths_without_exchange(wide_s, wide_e):
    # K0 - E satisfies (E1) but not (E2); chain lengths genuinely differ
    K = canonical_normalized(wide_s)
    D = difference(K, wide_e)
    chains = all_saturated_chains(D, (4, 2), (7, 4))
    lens = {len(c) - 1 for c in chains}
    assert lens == {2, 4}
    assert lens == oracles.chain_lengths(D.contains, (4, 2), (7, 4))
    with pytest.raises(NotCertifiedError):
        distance_between(D, (4, 2), (7, 4))


def test_distance_runs_straight_past_the_conductor():
    # the tail past gamma is counted, not walked: a million on <2,3> and a
    # box of 25 million cells on the product are answered at once
    S = numerical_semigroup(2, 3)
    assert distance_between(S, (0,), (40_000,)) == 39_999
    assert distance_between(S, (0,), (10**6,)) == 10**6 - 1
    P = product_semigroups(S, numerical_semigroup(3, 4))
    assert distance_between(P, (0, 0), (5000, 5000)) == 9996
    assert distance_between(P, (4, 3), (5000, 3)) == 4996


def test_distance_matches_one_saturated_chain_on_randoms(rng):
    # endpoints up to gamma + 3, so the tail is cut (beta past gamma) and
    # not cut (beta <= gamma, the metric queries' case); the oracle
    # follows one chain of covers, found cell by cell
    tails = heads = 0
    for _ in range(40):
        S = random_good_semigroup(rng, rng.choice((1, 2, 2)), max_gamma=4)
        E = S.ideal
        pts = E.members_in_box(E.mu, [g + 3 for g in E.gamma])
        a = rng.choice(pts)
        above = [p for p in pts if all(x <= y for x, y in zip(a, p))]
        inside = [p for p in above if all(y <= g for y, g in zip(p, E.gamma))]
        b = rng.choice(inside if inside and rng.random() < 0.5 else above)
        steps, cur = 0, a
        while cur != b:
            cur = min(oracles.covers(E.contains, cur, b))
            steps += 1
        assert distance_between(E, a, b) == steps, (E, a, b)
        past = any(y > g for y, g in zip(b, E.gamma))
        tails, heads = tails + past, heads + (not past)
    assert tails >= 10 and heads >= 5, (tails, heads)


def test_chain_cap():
    big = GoodSemigroup.from_points([(0, 0), (1, 1)], gamma=(1, 1))
    with pytest.raises(CapExceededError):
        all_saturated_chains(big.ideal, (0, 0), (6, 6), cap=5)


def _recursive_chains(E, cur, beta):
    """The saturated chains from cur to beta, by recursion over the covers."""
    if cur == beta:
        return [(cur,)]
    return [(cur, *c) for nxt in metric._minimal_covers(E, cur, beta) for c in _recursive_chains(E, nxt, beta)]


def test_chains_are_walked_without_recursion(wide_s, wide_e):
    # <2, 3> from 0 to 301 is one chain of 300 links, 0, 2, 3, ..., 301:
    # deeper than the lowered recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        chains = all_saturated_chains(numerical_semigroup(2, 3), (0,), (301,))
    finally:
        sys.setrecursionlimit(limit)
    assert chains == [((0,), *((k,) for k in range(2, 302)))]
    # the chains come in the order of a recursive depth-first search
    D = difference(canonical_normalized(wide_s), wide_e)
    P = product_semigroups(numerical_semigroup(2, 3), numerical_semigroup(3, 4)).ideal
    for E, alpha, beta in ((D, (4, 2), (7, 4)), (P, (0, 0), (5, 6))):
        want = _recursive_chains(E, alpha, beta)
        assert len(want) > 1 and all_saturated_chains(E, alpha, beta) == want


def test_endpoint_errors(fig_s):
    E = fig_s.ideal
    with pytest.raises(MetricError, match="comparable"):
        distance_between(E, (3, 1), (0, 0))
    with pytest.raises(MetricError, match="belong"):
        distance_between(E, (1, 0), (3, 1))
    with pytest.raises(MetricError, match="belong"):
        distance_between(E, (0, 0), (4, 0))


def test_relative_distance_fixtures(fig_s):
    S = fig_s.ideal
    K = canonical_normalized(fig_s)
    C = IdealFrame.from_points([(3, 1)], gamma=(3, 1))
    assert relative_distance(C, S) == 1
    assert relative_distance(S, K) == 2
    assert relative_distance(C, K) == 3
    assert relative_distance(S, S) == 0


def test_relative_distance_argument_order(fig_s):
    C = IdealFrame.from_points([(3, 1)], gamma=(3, 1))
    with pytest.raises(InclusionError, match="smaller"):
        relative_distance(fig_s.ideal, C)


def test_relative_distance_additive_in_chains(rng):
    # d(K\C) = d(K\S) + d(S\C) across the nested chain C ⊆ S ⊆ K0
    for trial in range(4):
        S = random_good_semigroup(rng, 2, max_gamma=5)
        K = canonical_normalized(S)
        C = conductor_ideal(S.ideal)
        assert relative_distance(C, K) == (
            relative_distance(S.ideal, K) + relative_distance(C, S.ideal)
        )


def test_distance_detects_proper_inclusion(fig_s):
    # nested with zero relative distance forces equality, so any proper
    # nesting shows up as a positive distance
    S = fig_s.ideal
    K = canonical_normalized(fig_s)
    assert relative_distance(S, K) > 0 and S != K
    bigger = IdealFrame.from_points([(0, 0), (2, 1), (3, 1)], gamma=(3, 1))
    assert relative_distance(S, bigger) == 1


def test_relative_distance_matches_oracle_on_randoms(rng):
    for trial in range(4):
        S = random_good_semigroup(rng, 2, max_gamma=5)
        K = canonical_normalized(S)
        C = conductor_ideal(S.ideal)
        d = relative_distance(C, K)
        # oracle: all saturated chains to a common far point have one
        # length in each ideal; the distance is the difference
        far = tuple(g + 1 for g in K.gamma)
        lens_big = oracles.chain_lengths(K.contains, K.mu, far)
        lens_small = oracles.chain_lengths(C.contains, C.mu, far)
        assert len(lens_big) == 1 and len(lens_small) == 1
        assert d == lens_big.pop() - lens_small.pop()
