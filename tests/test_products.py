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
