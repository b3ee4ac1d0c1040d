"""The built-in canonical module K = t^γ·ω_R, γ the ring's conductor.

ω_R = {x : Σ_i res(x_i·f_i) = 0 for every f in R} is Rosenlicht's module
of regular differentials (Serre, *Algebraic Groups and Class Fields*,
ch. IV), read off R's span by ``modules.residue_dual``.  The paper's
claims on the ring side are checked with it: Γ_K is the normalized
canonical ideal K⁰ of Γ_R, Γ(K : E) = Γ_K − Γ_E for every module E, and
ℓ((K : m)/K) = d(Γ(K : m) ∖ Γ_K) = 1 on a local ring: (K : m)/K is
Ext¹_R(R/m, K), which is R/m for the canonical module of a
one-dimensional Cohen–Macaulay ring.  Γ_K = Γ_R exactly
when Γ_R is symmetric, i.e. R is Gorenstein (Kunz 1970, Delgado 1988).
"""

import pytest

from test_type_law import _draw, _spec
from goodsemi import (
    FrameError,
    TruncationError,
    canonical_normalized,
    difference,
    is_symmetric,
    relative_distance,
)
from goodsemi.ringbridge import colon_value_ideal, curves, parse_curve, value_ideal


def _laws(spec, modules):
    """Check K's laws on one curve against ``modules``."""
    S, GK = value_ideal(spec, "R"), value_ideal(spec, "K")
    assert GK == canonical_normalized(S)
    assert (GK == S) == is_symmetric(S)
    for E in modules:
        assert colon_value_ideal(spec, "K", E) == difference(GK, value_ideal(spec, E)), E
    assert relative_distance(GK, colon_value_ideal(spec, "K", "m")) == 1


@pytest.mark.parametrize("name", ["twobranch", "cusp", "not_good_difference"])
def test_built_in_K_on_every_fixture(name, fixture_dir):
    spec = parse_curve((fixture_dir / f"{name}.curve").read_text())
    _laws(spec, ["R", "m", "Rbar", "C", "K", *spec.module_names()])


def test_built_in_canonical_module_on_random_curves(rng):
    checked = 0
    for _ in range(300):
        draw = _draw(rng)
        if draw is None:
            continue
        spec = _spec(*draw)
        try:
            value_ideal(spec, "R"), value_ideal(spec, "m")
        except (FrameError, TruncationError):  # the precheck or the bootstrap
            continue
        _laws(spec, ["R", "m", "Rbar", "C"])
        checked += 1
    assert checked >= 80, checked


def test_the_file_module_K0_gives_the_colons_of_K(curve_spec):
    # twobranch's K0 is canonical with the values of K: as K0 = u·K for a
    # unit u of value 0, every colon into or by either has one value set
    spec = parse_curve(curves.dumps_curve(curve_spec))
    names = ["R", "m", "Rbar", "C", *spec.module_names()]
    assert value_ideal(spec, "K0") == value_ideal(spec, "K")
    for X in names:
        assert colon_value_ideal(spec, "K0", X) == colon_value_ideal(spec, "K", X), X
        assert colon_value_ideal(spec, X, "K0") == colon_value_ideal(spec, X, "K"), X


def test_K_is_generated_by_the_residue_dual_below_the_conductor_and_C():
    # on the cusp Q[[t^2, t^3]], γ = 2 and R mod t^2 is spanned by 1, whose
    # complement under ⟨z, y⟩ = z_0·y_1 + z_1·y_0 is spanned by 1: K = R
    spec = parse_curve("branches: 1\nring: (t^2) ; (t^3)\n")
    assert curves._gens(spec, "K") == ((((0, 1),),), (((2, 1),),), (((3, 1),),))
    assert curves.module_generators(spec, "K") == curves.module_generators(spec, "R") + curves.module_generators(spec, "C")
