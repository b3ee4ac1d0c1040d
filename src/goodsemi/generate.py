"""Randomized good semigroups and ideals, built by closure repair.

Starting from a few seed points in a box [0, B], the generators repeatedly
add whatever the axiom scans report missing — componentwise minima,
exchange witnesses, capped sums — until the scans are clean.  Every
addition is forced, the box is finite, so the loop terminates and the
result passes certification by construction.
"""

from __future__ import annotations

import math
import random

from .errors import FrameError
from .axioms import _additivity_failures, _e1_failures, _e2_failures
from .ideals import GoodSemigroup, IdealFrame, validate
from .lattice import Point, add, cmin, unit, zero

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
    """The numerical semigroup generated by ``gens`` (gcd must be 1)."""
    if not gens or any(g < 1 for g in gens):
        raise FrameError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise FrameError(f"gcd of {gens} is not 1, so there is no conductor")
    a = min(gens)
    bound = (a - 1) * (max(gens) - 1) + a + 1
    reach = [False] * (bound + 1)
    reach[0] = True
    for g in gens:
        for v in range(g, bound + 1):
            if reach[v - g]:
                reach[v] = True
    gaps = [v for v in range(bound + 1) if not reach[v]]
    c = gaps[-1] + 1 if gaps else 0
    pts = [(v,) for v in range(c + 1) if reach[v]]
    if not pts or pts[-1] != (c,):
        pts.append((c,))
    return GoodSemigroup(IdealFrame(1, (0,), (c,), pts))
