"""The type law on curves, and a census of two goodness questions.

For a local curve ring R with maximal ideal m (the built-in module m), the
type of R is the length of (R : m)/R, read by ``curves.type_of`` as
t = d(Γ(R : m) ∖ Γ_R).  R is Gorenstein, that
is t = 1, iff Γ_R is symmetric (Kunz 1970 for one branch, Delgado 1988
for several).  On value semigroups S = Γ_R and M = Γ_m = S ∖ {0}, the
difference S − M holds Γ(R : m), so t ≤ d((S − M) ∖ S) wherever S − M is
good; S − M need not be good (tests/fixtures/not_good_difference.curve),
and neither need K⁰ + M, K⁰ the normalized canonical ideal of S.
"""

import math

import pytest

from goodsemi import (
    FrameError,
    IdealFrame,
    NotCertifiedError,
    TruncationError,
    canonical_normalized,
    difference,
    is_symmetric,
    relative_distance,
    sum_ideals,
    validate,
)
from goodsemi.ringbridge import curves


def _poly(terms) -> str:
    return " + ".join(f"{c}*t^{e}" for e, c in sorted(terms.items())) or "0"


def _spec(s: int, ring: str, file_m: bool = False):
    """The curve with ring generators ``ring``, and with a file module m
    they generate, which shadows the built-in m, if ``file_m``."""
    return curves.parse_curve(f"branches: {s}\nring: {ring}\n" + (f"module m: {ring}\n" if file_m else ""))


def _ring_text(gens) -> str:
    return " ; ".join("(" + ", ".join(map(_poly, g)) + ")" for g in gens)


def _draw(rng):
    """(s, ring text) of a random ring with no constant terms, or None when
    the draw is dropped: fewer than 2 nonzero generators, or a branch where
    the orders of the nonzero generators have a gcd other than 1 (such a
    ring may have no conductor, and its refusal takes seconds)."""
    s = rng.randint(1, 3)
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = [
            {e: rng.randint(1, 3) for e in rng.sample(range(1, 8), rng.randint(1, 2))}
            if rng.random() < 0.8 else {}
            for _ in range(s)
        ]
        if any(g):
            gens.append(g)
    if len(gens) < 2 or any(math.gcd(*(min(g[i]) for g in gens if g[i])) != 1 for i in range(s)):
        return None
    return s, _ring_text(gens)


def _law(spec):
    """Check the law on one ring; returns (S, M, S − M, type)."""
    S, M = curves.value_ideal(spec), curves.value_ideal(spec, "m")
    top = tuple(g + 1 for g in S.gamma)
    zero = (0,) * spec.s
    assert M == IdealFrame.from_points(set(S.members_in_box(zero, top)) - {zero}, top)
    t = curves.type_of(spec)
    assert t == relative_distance(S, curves.colon_value_ideal(spec, "R", "m"))
    assert (t == 1) == is_symmetric(S), (t, spec)
    SM = difference(S, M)
    if validate(SM, S).ok:
        assert t <= relative_distance(S, SM), spec
    return S, M, SM, t


@pytest.mark.parametrize("gens, want", [
    ((2, 3), 1),
    ((3, 4, 5), 2),
    ((3, 5, 7), 2),
    ((5, 6, 7), 2),
    ((4, 5, 6, 7), 3),
])
def test_type_of_monomial_curves(gens, want):
    spec = _spec(1, " ; ".join(f"(t^{g})" for g in gens))
    assert _law(spec)[3] == want


def _fixture_spec(fixture_dir):
    return curves.parse_curve((fixture_dir / "not_good_difference.curve").read_text())


def test_not_good_difference_fixture_has_type_3(fixture_dir):
    S, M, SM, t = _law(_fixture_spec(fixture_dir))
    assert t == 3 and not is_symmetric(S)
    assert not validate(SM, S).ok  # the fixture's reason to be


def test_a_file_module_m_gives_the_built_in_answers(rng):
    # a file module m generated by the ring generators, which have no
    # constant terms, shadows the built-in m: it must have the same integer
    # generators, cleared to primitive terms, and give the same Γ_m,
    # Γ(R : m) and type, each on its own store
    checked = 0
    while checked < 12:
        draw = _draw(rng)
        if draw is None:
            continue
        built_in, from_file = _spec(*draw), _spec(*draw, file_m=True)
        try:
            want = curves.value_ideal(built_in, "m")
        except (FrameError, TruncationError):  # the precheck or the bootstrap
            continue
        assert curves._gens(built_in, "m") == curves._gens(from_file, "m")
        assert curves.value_ideal(from_file, "m") == want
        assert curves.colon_value_ideal(from_file, "R", "m") == curves.colon_value_ideal(built_in, "R", "m")
        assert curves.type_of(from_file) == curves.type_of(built_in)
        checked += 1


def test_built_in_m_drops_the_constant_terms():
    # m is generated by the g - c_g; a constant generator gives none
    spec = curves.parse_curve("branches: 2\nring: (2 + t^2, 2 + t) ; (t^3, t^2) ; (3, 3)\n")
    assert curves._gens(spec, "m") == ((((2, 1),), ((1, 1),)), (((3, 1),), ((2, 1),)))
    S, M = curves.value_ideal(spec), curves.value_ideal(spec, "m")
    top = tuple(g + 1 for g in S.gamma)
    assert M == IdealFrame.from_points(set(S.members_in_box((0, 0), top)) - {(0, 0)}, top)
    assert curves.type_of(spec) == 1 and is_symmetric(S)


def test_built_in_m_is_refused_on_a_semilocal_ring():
    spec = curves.parse_curve("branches: 3\nring: (t, t, t) ; (1 + t, 1 + t^2, t^3)\n")
    with pytest.raises(FrameError, match=r"'m' needs a local ring, but ring generator \(1 \+ t, 1 \+ t\^2, t\^3\) "
                       r"has constant terms 1 on branch 0, 1 on branch 1, 0 on branch 2"):
        curves.type_of(spec)
    curves.value_ideal(spec)  # the ring itself has a conductor


def test_type_law_and_goodness_census_on_random_curves(rng, fixture_dir):
    rings = asym = refused = 0
    bad_sm, bad_km = [], 0
    for _ in range(300):
        draw = _draw(rng)
        if draw is None:
            continue
        spec = _spec(*draw)
        try:
            curves.value_ideal(spec)
            curves.value_ideal(spec, "m")
        except (FrameError, TruncationError):  # the precheck or the bootstrap
            refused += 1
            continue
        S, M, SM, t = _law(spec)
        rings += 1
        asym += t != 1
        if not validate(SM, S).ok:
            bad_sm.append((S, SM))
        bad_km += not validate(sum_ideals(canonical_normalized(S), M), S).ok
    S, M, SM, _ = _law(_fixture_spec(fixture_dir))
    if not validate(SM, S).ok:
        bad_sm.append((S, SM))
    assert rings >= 80 and asym >= 15, (rings, asym, refused)
    assert bad_sm and bad_km >= 3, (len(bad_sm), bad_km)
    for S, SM in bad_sm:
        with pytest.raises(NotCertifiedError):
            relative_distance(S, SM)
