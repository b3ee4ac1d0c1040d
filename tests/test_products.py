import random
import re

import pytest

import oracles
from goodsemi import FrameError, ideals, products
from goodsemi import numerical_semigroup, product_semigroups, random_good_ideal, random_good_semigroup, recombine


def _random_partition(rng, sizes):
    """Increasing blocks of the given sizes that split 0..sum(sizes)-1 at random."""
    axes = list(range(sum(sizes)))
    rng.shuffle(axes)
    blocks, at = [], 0
    for n in sizes:
        blocks.append(tuple(sorted(axes[at : at + n])))
        at += n
    return blocks


def test_interleave_matches_factorwise_membership():
    # differential: x is in the product iff each factor holds x restricted
    # to its block, checked on the product box grown by 1 on every side
    rng = random.Random(20261019)
    cases = [((0, 2), (1,))] * 6 + [None] * 30
    shifted = 0
    for partition in cases:
        if partition is None:
            sizes = [rng.choice((1, 1, 2)) for _ in range(rng.randint(2, 3))]
            partition = _random_partition(rng, sizes)
        frames = []
        for block in partition:
            S = random_good_semigroup(rng, len(block), 4)
            frames.append(S.ideal if rng.random() < 0.4 else random_good_ideal(rng, S))
        shifted += any(any(f.mu) for f in frames)
        P = products._interleave(partition, frames)
        s = P.s
        lo, hi = [0] * s, [0] * s
        for block, f in zip(partition, frames):
            for i, m, g in zip(block, f.mu, f.gamma):
                lo[i], hi[i] = m - 1, g + 1
        got = P.membership_box(lo, hi)
        want = [
            all(f.contains(tuple(x[i] for i in block)) for block, f in zip(partition, frames))
            for x in oracles.box(lo, hi)
        ]
        assert [bool(got.bits >> k & 1) for k in range(got.size)] == want, partition
        # adopted untrimmed, the product must hold the state that the trim
        # of its cells on the wider box gives: least mu, least exact gamma
        assert P.fingerprint() == ideals.IdealFrame._from_box(got).fingerprint(), partition
    assert shifted >= 10  # ideals with mu != 0 are reached


def test_recombine_refuses_bad_partitions():
    A = numerical_semigroup(3, 4)
    P = recombine([(0,), (1,)], [A, A])
    with pytest.raises(FrameError, match=r"block \(1, 0\) is not increasing"):
        recombine([(1, 0)], [P])
    with pytest.raises(FrameError, match="at least one factor"):
        product_semigroups()
    with pytest.raises(FrameError, match=re.escape("partition [(0,), (2,)] does not cover 0..1")):
        recombine([(0,), (2,)], [A, A])
    with pytest.raises(FrameError, match="one factor per block required"):
        recombine([(0,), (1,)], [A])
    with pytest.raises(FrameError, match="factor dimension 1 != block size 2"):
        recombine([(0, 1)], [A])


def test_interleave_refuses_a_box_over_the_cell_limit(monkeypatch):
    A, B = numerical_semigroup(5, 7).ideal, numerical_semigroup(4, 9).ideal
    cells = A.shape[0] * B.shape[0]
    monkeypatch.setattr(ideals, "MAX_CELLS", cells - 1)
    with pytest.raises(FrameError, match=f"has {cells} cells"):
        products._interleave([(0,), (1,)], [A, B])
    monkeypatch.setattr(ideals, "MAX_CELLS", cells)
    assert products._interleave([(0,), (1,)], [A, B]).shape == (A.shape[0], B.shape[0])


def test_is_local_is_one_zero_block_and_decompose_recombines():
    # seeded semigroups of s = 1-4, local and not, and products along
    # consecutive and interleaved partitions: is_local agrees with the
    # point oracle and with a one-block decomposition, and the factors
    # recombine to S along a partition that refines the built one
    rng = random.Random(20261020)
    seen = {"local": 0, "not local": 0, "consecutive": 0, "interleaved": 0}
    for trial in range(80):
        built = None
        if trial % 2:
            S = random_good_semigroup(rng, rng.randint(1, 4), 5, local=rng.random() < 0.5)
        else:
            sizes = [2] + [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            factors = [random_good_semigroup(rng, n, 4) for n in sizes]
            if trial % 4:
                built = _random_partition(rng, sizes)
                S = recombine(built, factors)
            else:
                built = [tuple(range(sum(sizes[:k]), sum(sizes[: k + 1]))) for k in range(len(sizes))]
                S = product_semigroups(*factors)
            seen["consecutive"] += all(b[-1] - b[0] < len(b) for b in built)
            seen["interleaved"] += any(b[-1] - b[0] >= len(b) for b in built)
        zero, hi = (0,) * S.s, tuple(g + 1 for g in S.gamma)
        local = all(0 not in x or x == zero for x in S.members_in_box(zero, hi))
        dec = products.decompose(S)
        assert products.is_local(S) == local == (len(dec.partition) == 1), (trial, S)
        assert recombine(dec.partition, dec.factors) == S, trial
        assert all(products.is_local(f) for f in dec.factors)
        if built is not None:
            assert all(any(set(b) <= set(c) for c in built) for b in dec.partition), (built, dec.partition)
        seen["local" if local else "not local"] += 1
    assert min(seen.values()) >= 10, seen
