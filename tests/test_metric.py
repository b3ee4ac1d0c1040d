import functools
import itertools
import sys
import time

import pytest

import oracles
from test_ringbridge import _random_scan_case, _terms
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
    is_subset,
    numerical_semigroup,
    product_semigroups,
    random_good_ideal,
    random_good_semigroup,
    random_pair,
    relative_distance,
)
from goodsemi import metric
from goodsemi.ideals import _frame_box
from goodsemi.lattice import cmax, leq
from goodsemi.ringbridge import span_basis, value_semigroup_ideal
from goodsemi.ringbridge.curves import value_ideal


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
    # endpoints up to gamma + 3, so the tail is cut (beta past gamma, odd
    # draws) and not cut (beta <= gamma, the metric queries' case, even
    # draws); the oracle follows one chain of covers, found cell by cell
    tails = heads = 0
    for k in range(40):
        S = random_good_semigroup(rng, rng.choice((1, 2, 2)), max_gamma=4)
        E = S.ideal
        pts = E.members_in_box(E.mu, [g + 3 for g in E.gamma])
        inside = [p for p in pts if all(y <= g for y, g in zip(p, E.gamma))]
        odd = bool(k % 2)
        a = rng.choice(pts if odd else inside)
        # a itself, or gamma + 3, is always a choice
        b = rng.choice([p for p in pts if all(x <= y for x, y in zip(a, p)) and (p not in inside) == odd])
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


def test_a_two_thousand_link_chain_is_found_in_under_a_second():
    # each cover is sought in [cur, cmin(beta, cmax(cur + 1, gamma))], not
    # in all of [cur, beta], which made the search quadratic in the chain
    start = time.perf_counter()
    chains = all_saturated_chains(numerical_semigroup(2, 3), (0,), (2001,))
    assert time.perf_counter() - start < 1
    assert chains == [((0,), *((k,) for k in range(2, 2002)))]


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


def _subset_by_cells(E, F):
    lo, hi = [min(a, b) for a, b in zip(E.mu, F.mu)], [max(a, b) for a, b in zip(E.gamma, F.gamma)]
    return all(F.contains(p) for p in itertools.product(*map(range, lo, [h + 1 for h in hi])) if E.contains(p))


def test_inclusion_checks_refuse_every_pair_that_is_not_nested(rng):
    # relative_distance and is_subset read frame bits with no argument
    # checks; pairs of good ideals of one semigroup, nested or not, must
    # still be told apart cell by cell, also where F's conductor lies
    # below E's and only the bits decide, as for alpha + X against X
    refused = by_bits = 0
    for _ in range(60):
        S, X = random_pair(rng, rng.randint(1, 3), max_gamma=5)
        alpha = tuple(rng.randint(0, 2) for _ in range(S.s))
        for E, F in [*itertools.permutations((X, random_good_ideal(rng, S))), (X.shift(alpha), X)]:
            nested = _subset_by_cells(E, F)
            assert is_subset(E, F) == nested, (E, F)
            if nested:
                assert relative_distance(E, F) == _distance_by_walks(E, F)
                continue
            with pytest.raises(InclusionError, match="smaller ideal first"):
                relative_distance(E, F)
            refused += 1
            by_bits += leq(F.gamma, E.gamma)
    assert refused >= 40 and by_bits >= 20, (refused, by_bits)


def test_relative_distance_refuses_an_argument_that_is_not_good(wide_s, wide_e):
    # wide_e satisfies (E1) but not (E2); its orthant at gamma is good
    orthant = IdealFrame.from_points([wide_e.gamma], gamma=wide_e.gamma)
    with pytest.raises(NotCertifiedError, match="smaller ideal"):
        relative_distance(wide_e, wide_s)
    with pytest.raises(NotCertifiedError, match="larger ideal"):
        relative_distance(orthant, wide_e)


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


def _pairs(rng, E, count, over=2):
    """``count`` random pairs a <= b of members of E in [mu, gamma + over]."""
    pts = E.members_in_box(E.mu, [g + over for g in E.gamma])
    for _ in range(count):
        a = rng.choice(pts)
        yield a, rng.choice([p for p in pts if leq(a, p)])


def _random_ideals(rng, s):
    """A random good semigroup's ideal and a random good ideal of it,
    possibly translated off the origin."""
    S, E = random_pair(rng, s, max_gamma=6 if s < 3 else 4)
    return S.ideal, E


def test_levels_match_the_greedy_walk_for_s_1_to_4(rng):
    # the library's level count against the greedy chain walk over the
    # whole box [a, b]; pairs with b past gamma count levels there
    tails = 0
    for s in (1, 2, 3, 4):
        for _ in range(12 if s < 4 else 6):
            for E in _random_ideals(rng, s):
                for a, b in _pairs(rng, E, 3):
                    assert distance_between(E, a, b) == oracles.greedy_distance(E.contains, a, b), (E, a, b)
                    tails += not leq(b, E.gamma)
    assert tails >= 30, tails


def _permuted(E, order):
    return IdealFrame.from_points([tuple(p[i] for i in order) for p in E.frame], [E.gamma[i] for i in order])


def test_levels_do_not_depend_on_the_axis_order(rng):
    # the law on every path order at s <= 3: the oracle's count along the
    # order equals the walk, and so does the library's count on the frame
    # with its axes permuted, which walks the path in that order
    for s in (1, 2, 3):
        for _ in range(8):
            for E in _random_ideals(rng, s):
                for a, b in _pairs(rng, E, 2):
                    d = oracles.greedy_distance(E.contains, a, b)
                    for order in itertools.permutations(range(s)):
                        assert oracles.level_count(E.contains, E.gamma, a, b, order) == d, (E, a, b, order)
                        P = _permuted(E, order)
                        assert distance_between(P, [a[i] for i in order], [b[i] for i in order]) == d


def _above(F, p):
    """F^p = F ∩ (p + N^s), a good ideal for every p."""
    top = cmax(p, F.gamma)
    return IdealFrame.from_points(F.members_in_box(p, top), top)


def test_relative_distance_from_below_the_smaller_minimum(rng):
    # E ⊆ F with mu_F < mu_E: E = F^p or a + F with a in S, whose
    # conductors lie above gamma_F, so the path from mu_F to c starts
    # outside E and runs past gamma_F; on every axis order at s <= 3 the
    # levels of E along it are the walk from mu_E
    below = 0
    for s in (1, 2, 3):
        for _ in range(10):
            S, F = _random_ideals(rng, s)
            for E in (_above(F, rng.choice(F.members_in_box(F.mu, [g + 2 for g in F.gamma]))),
                      F.shift(rng.choice(S.members_in_box(S.mu, [g + 1 for g in S.gamma])))):
                c = E.conductor
                want = oracles.greedy_distance(F.contains, F.mu, c) - oracles.greedy_distance(E.contains, E.mu, c)
                assert relative_distance(E, F) == want, (E, F)
                for order in itertools.permutations(range(s)):
                    assert oracles.level_count(E.contains, E.gamma, F.mu, c, order) == (
                        oracles.greedy_distance(E.contains, E.mu, c))
                below += E.mu != F.mu
    assert below >= 20, below


def test_level_is_the_ring_dimension_drop_on_random_modules(rng):
    # D'Anna's count on the ring side: the floor p -> p + e_i drops the
    # dimension of a module's span by one exactly at a level of its value
    # set, so the drops along a path from p to the scan corner hi sum to
    # the library's distance (from the value set's least point above p)
    tails = 0
    for s in (1, 2, 3):
        scanned = 0
        for _ in range(40):
            ring, module, N, hi = _random_scan_case(rng, s)
            rows = oracles.span_rows(ring, module, s, N)
            if not oracles.in_value_set(rows, s, N, hi):
                continue
            G = value_semigroup_ideal(span_basis(list(map(_terms, ring)), list(map(_terms, module)), N), hi)
            dim = functools.cache(lambda p: oracles.dim_with_floor(rows, s, N, p))
            for p in oracles.box((0,) * s, hi):
                for i in range(s):
                    q = tuple(x + (j == i) for j, x in enumerate(p))
                    assert dim(p) - dim(q) == oracles.is_level(G.contains, G.gamma, p, i), (ring, module, N, p, i)
                drops = dim(p) - dim(hi)
                assert metric._levels(G.membership_box(p, hi)) == drops
                if p in G:
                    assert distance_between(G, p, hi) == drops
            tails += not leq(hi, G.gamma)
            scanned += 1
            if scanned == 3:
                break
        assert scanned == 3, f"only {scanned} of 40 draws on {s} branches had a corner to scan"
    assert tails, "no value set had its conductor below the scan corner"


def _nested(rng, s):
    """Nested good pairs (E, F), E ⊆ F, from one random pair (S, F): the
    conductor ideal and a translate of F, and the semigroup under K⁰ and
    over its conductor ideal, with the semigroup built anew from a plain
    frame, its source, which it shares its store with."""
    S, F = random_pair(rng, s, max_gamma=5 if s < 3 else 3)
    source = IdealFrame(S.s, S.mu, S.gamma, S.frame_sorted)
    S = GoodSemigroup(source)
    shifted = F.shift(rng.choice(S.members_in_box(S.mu, [g + 1 for g in S.gamma])))
    pairs = [(conductor_ideal(F), F), (shifted, F), (S, canonical_normalized(S)), (conductor_ideal(S), S)]
    return pairs, source


def _distance_by_walks(E, F):
    c = E.conductor
    return oracles.greedy_distance(F.contains, F.mu, c) - oracles.greedy_distance(E.contains, E.mu, c)


def _check_kept_levels(*frames):
    for X in frames:
        assert X._store["levels"] == metric._levels(_frame_box(X)), X


def test_relative_distance_keeps_each_frames_level_count(rng, curve_spec):
    # the distance reads each frame's level count through its store: asked
    # again, interleaved across frames, through a semigroup that shares its
    # source's store and on translates (which leave the count behind), every
    # answer is the walks' difference and every kept count the frame box's.
    # Keeping the count under "e1" (which a shift carries) or in a cache
    # keyed by the box shape (so reused across frames) fails here
    drawn = [_nested(rng, s) for s in (1, 2, 3, 4) for _ in range(4)]
    pairs = [pair for nested, _ in drawn for pair in nested]
    names = ["R", "E", "F", "K0", "CR", "CF", "Rbar"]
    G = {n: value_ideal(curve_spec, n) for n in names}
    pairs += [(G[a], G[b]) for a in names for b in names if a != b and is_subset(G[a], G[b])]
    want = [_distance_by_walks(E, F) for E, F in pairs]
    for _ in range(3):
        for k in rng.sample(range(len(pairs)), len(pairs)):
            E, F = pairs[k]
            assert relative_distance(E, F) == want[k], (E, F)
            _check_kept_levels(E, F)
    for nested, source in drawn:
        S = nested[-1][1]
        assert type(S) is GoodSemigroup and S._store is source._store
        _check_kept_levels(source)
    for (E, F), d in zip(pairs, want):
        alpha = tuple(rng.randint(-3, 3) for _ in range(E.s))
        Y, Z = E.shift(alpha), F.shift(alpha)
        assert "levels" not in Y._store and "levels" not in Z._store
        assert Y.is_e1() is True and Y.conductor == oracles.add(E.conductor, alpha)
        assert relative_distance(Y, Z) == d == relative_distance(E, F), (E, F, alpha)
        _check_kept_levels(Y, Z, E, F)
