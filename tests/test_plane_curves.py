"""Plane curves as a closed-form oracle for the ring layer.

A plane curve's ring is Gorenstein, so its answers are known without
linear algebra: the conductor by Delgado's formula from the branches'
conductors and intersection numbers (``oracles.plane_conductor``), Γ_R
symmetric (Kunz, Proc. AMS 25, 1970, for one branch; Delgado, Manuscripta
Math. 61, 1988, for several), and R a canonical module, so that the
paper's Γ(K : E) = Γ_K - Γ_E reads Γ(R : E) = Γ_R - Γ_E for every module
E, and the built-in K has the values of R.  Lengths are distances: ℓ(R/C) = d(Γ_R \\ Γ_C), which for a Gorenstein
ring is half the sum of the conductor's coordinates.  A branch with
several characteristic exponents has its values from Zariski's recursion
(``oracles.zariski_branch``).
"""

import random

import pytest

import oracles
from goodsemi import GoodSemigroup, IdealFrame, canonical_normalized, difference, is_symmetric, relative_distance
from goodsemi.ringbridge import (
    colon_value_ideal,
    conductor_of,
    curves,
    length_quotient,
    parse_curve,
    value_ideal,
)


def _module(rng, s):
    """Two generators: a monomial on every branch, so that the module is
    regular, and a random binomial vector."""
    u = ", ".join(f"t^{rng.randint(0, 3)}" for _ in range(s))
    v = ", ".join(f"{rng.choice([-2, -1, 1, 2])}*t^{rng.randint(0, 2)} + t^{rng.randint(3, 5)}" for _ in range(s))
    return f"({u}) ; ({v})"


@pytest.mark.parametrize("seed", range(100))
def test_plane_curve_matches_the_closed_forms(seed):
    rng = random.Random(seed)
    curve = oracles.random_plane_curve(rng, rng.randint(1, 3))
    spec = parse_curve(oracles.plane_curve_text(curve, [("E", _module(rng, len(curve)))]))
    GR, GE = value_ideal(spec, "R"), value_ideal(spec, "E")
    c = oracles.plane_conductor(curve)
    assert GR.conductor == c, curve
    assert is_symmetric(GoodSemigroup(GR)), curve
    # K = t^γ·ω_R has the values K⁰ = Γ_R of a symmetric Γ_R
    assert value_ideal(spec, "K") == canonical_normalized(GR) == GR, curve
    assert colon_value_ideal(spec, "R", "E") == difference(GR, GE), curve
    # R : C = Rbar (proof in test_ringbridge.py)
    zero = (0,) * len(curve)
    assert colon_value_ideal(spec, "R", "C") == IdealFrame.from_points([zero], zero), curve
    ell = length_quotient(spec, "R", "C")
    assert ell == relative_distance(value_ideal(spec, "C"), GR) == sum(c) // 2, curve


def test_plane_curves_exercise_the_bootstrap_step_rule(monkeypatch):
    # the draws above reach conductors in the 50s, and many commit
    # between the doubling orders 16, 32 and 64
    built, tops = [], []
    real = curves.span_basis
    monkeypatch.setattr(curves, "span_basis", lambda r, g, N: built.append(N) or real(r, g, N))
    for seed in range(100):
        rng = random.Random(seed)
        curve = oracles.random_plane_curve(rng, rng.randint(1, 3))
        tops.append(max(value_ideal(parse_curve(oracles.plane_curve_text(curve)), "R").conductor))
    assert max(tops) > 50
    assert len({N for N in built if N & (N - 1)}) > 5


@pytest.mark.parametrize("n, b, c", [(1, 2, 0), (1, 5, 0), (2, 3, 2), (2, 7, 6), (3, 4, 6), (3, 8, 14), (3, 14, 26)])
def test_one_branch_conductor_is_the_frobenius_number_plus_one(n, b, c):
    assert oracles.plane_branch_conductor(n, b) == c
    members = oracles.numerical_members([n, b], c + n * b)
    assert all(k in members for k in range(c, c + n * b))
    assert c == 0 or c - 1 not in members


@pytest.mark.parametrize(
    "n, exps, gens, c",
    [
        (4, (6, 7), (4, 6, 13), 16),
        (4, (6, 9), (4, 6, 15), 18),
        (6, (8, 9), (6, 8, 25), 36),
        (6, (9, 10), (6, 9, 19), 42),
        (8, (12, 14, 15), (8, 12, 26, 53), 84),
    ],
)
def test_plane_branch_values_follow_zariskis_recursion(n, exps, gens, c):
    assert oracles.zariski_branch(n, exps) == (gens, c)
    y = " + ".join(f"t^{b}" for b in exps)
    spec = parse_curve(f"branches: 1\nring: (t^{n}) ; ({y})\n")
    gamma, basis = conductor_of(spec)
    assert gamma == (c,) and basis.dim == basis.N - c
    members = oracles.numerical_members(gens, c)
    G = value_ideal(spec, "R")
    assert [k for k in range(c + 1) if G.contains((k,))] == sorted(members), (n, exps)
