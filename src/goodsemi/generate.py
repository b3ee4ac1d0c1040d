"""Randomized good semigroups and ideals, built by closure repair.

Starting from a few seed points in a box [0, B], the generators repeatedly
add whatever the axiom scans report missing — componentwise minima,
exchange witnesses, capped sums — until the scans are clean.  Every
addition is forced, the box is finite, so the loop terminates and the
result passes certification by construction.
"""

from __future__ import annotations

import heapq
import math
import random

from . import ideals
from .errors import FrameError
from .axioms import _additivity_failures, _e1_failures, _e2_failures
from .ideals import GoodSemigroup, IdealFrame, validate
from .lattice import Point, _integer, add, cmin, unit, zero

__all__ = [
    "random_good_semigroup",
    "random_good_ideal",
    "random_pair",
    "numerical_semigroup",
]


def _closure_pass(pts: set[Point], mu: Point, B: Point, ambient: IdealFrame | None) -> bool:
    """One repair round; returns True when ``pts`` grew.

    A witness already in ``pts`` adds nothing, so a scan that keeps
    reporting stale witnesses ends the loop instead of spinning; the
    caller's final certification then passes or raises.
    """
    s = len(B)
    frame = IdealFrame(s, mu, B, pts, _normalized=True)
    before = len(pts)
    for a, b in _e1_failures(frame):
        pts.add(cmin(a, b))
    if len(pts) > before:
        return True  # settle E1 before trusting the other scans
    for a, b, j in _e2_failures(frame):
        m = cmin(a, b)
        pts.add(add(m, unit(s, j)))
    sums_vs = ambient if ambient is not None else frame
    for e, sigma in _additivity_failures(frame, sums_vs):
        pts.add(cmin(add(e, sigma), B))
    return len(pts) > before


def random_good_semigroup(
    rng: random.Random, s: int, max_gamma: int = 8, local: bool = False
) -> GoodSemigroup:
    """A certified good semigroup of N^s with conductor bounded by max_gamma."""
    B = tuple(rng.randint(3, max_gamma) for _ in range(s))
    lo = 1 if local else 0
    pts: set[Point] = {zero(s), B}
    for _ in range(rng.randint(1, 4)):
        pts.add(tuple(rng.randint(lo, B[i]) for i in range(s)))
    while _closure_pass(pts, zero(s), B, None):
        pass
    return GoodSemigroup(IdealFrame(s, zero(s), B, pts))


def random_good_ideal(
    rng: random.Random,
    S: GoodSemigroup,
    max_shift: int = 3,
) -> IdealFrame:
    """A certified good ideal of S, possibly translated off the origin."""
    s = S.s
    B = tuple(rng.randint(2, S.gamma[i] + 2) for i in range(s))
    pts: set[Point] = {B}
    for _ in range(rng.randint(1, 3)):
        pts.add(tuple(rng.randint(0, B[i]) for i in range(s)))
    # the minimum lies in the min-closure, so the repair keeps it as mu
    mu = tuple(min(p[i] for p in pts) for i in range(s))
    pts.add(mu)
    while _closure_pass(pts, mu, B, S.ideal):
        pass
    E = IdealFrame(s, mu, B, pts)
    report = validate(E, S)
    if not report.ok:  # cannot happen: the repair loop is a fixpoint of these scans
        raise FrameError("repair loop produced an uncertified ideal:\n" + report.summary())
    if max_shift:
        delta = tuple(rng.randint(-max_shift, max_shift) for _ in range(s))
        E = E.shift(delta)
    return E


def random_pair(
    rng: random.Random, s: int, max_gamma: int = 8, max_shift: int = 3
) -> tuple[GoodSemigroup, IdealFrame]:
    S = random_good_semigroup(rng, s, max_gamma)
    return S, random_good_ideal(rng, S, max_shift)


def numerical_semigroup(*gens: int) -> GoodSemigroup:
    """The numerical semigroup generated by ``gens`` (gcd must be 1).

    With a the smallest generator, w[r] is the least member congruent to
    r mod a (the Apéry set of a), found by a shortest-path pass over the
    residues with one edge r -> r + g of length g per generator g; then
    v lies in S iff v >= w[v mod a], so the conductor is max(w) - a + 1.
    A conductor whose box exceeds the box limit is refused before any
    box is built.
    """
    ints = tuple(map(_integer, gens))
    if None in ints:
        raise FrameError(f"generator {gens[ints.index(None)]!r} of {gens} is not an integer")
    if not ints or any(g < 1 for g in ints):
        raise FrameError("generators must be positive integers")
    if math.gcd(*ints) != 1:
        raise FrameError(f"gcd of {ints} is not 1, so there is no conductor")
    a = min(ints)
    if a >= ideals.MAX_CELLS:  # 1, ..., a - 1 are gaps, so the conductor is at least a
        raise FrameError(
            f"the conductor of the numerical semigroup generated by {ints} is at least {a}, "
            f"so its box exceeds the box limit of {ideals.MAX_CELLS} cells"
        )
    w = [0] + [math.inf] * (a - 1)  # every residue is reached, as the gcd is 1
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > w[r]:
            continue
        for g in ints:
            q = (r + g) % a
            if d + g < w[q]:
                w[q] = d + g
                heapq.heappush(heap, (d + g, q))
    c = max(w) - a + 1
    if c + 1 > ideals.MAX_CELLS:
        raise FrameError(
            f"the conductor {c} of the numerical semigroup generated by {ints} needs a box of "
            f"{c + 1} cells, more than the box limit of {ideals.MAX_CELLS} cells"
        )
    pts = [(v,) for v in range(c + 1) if v >= w[v % a]]
    return GoodSemigroup(IdealFrame(1, (0,), (c,), pts))
