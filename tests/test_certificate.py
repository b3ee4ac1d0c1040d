"""The Nakayama conductor certificate that commits each value set: its
refusals, its orders e, and agreement with the fixed-order policy it
replaced."""

import pytest

import oracles
from goodsemi import InclusionError, TruncationError, relative_distance
from goodsemi.ringbridge import (
    conductor_of,
    curves,
    dumps_curve,
    length_quotient,
    modules,
    parse_curve,
    span_module,
    value_ideal,
)
from test_span_store import CURVES, _counting

# semilocal: (0, 2) puts the idempotent (0, 1) in R, so R = R_0 x R_1 with
# values <2, 3> x <4, 5>; the ring's least branch-1 exponent is 0, not e_1
SEMILOCAL = "branches: 2\nring: (1/3*t^2 - t^5, t^4) ; (t^3, t^5) ; (0, 2)\n"


def _text(name, curve_spec):
    return dumps_curve(curve_spec) if name == "twobranch" else CURVES[name]


def test_ring_without_conductor_fails_at_the_precheck(monkeypatch):
    built, scanned = _counting(monkeypatch)
    spec = parse_curve("branches: 3\nring: (t, t, t)\n")
    with pytest.raises(TruncationError, match="truncations 16, 32, 64, 128, 256;") as exc:
        value_ideal(spec, "R")
    assert "the precheck refused truncation 256: the span misses t^255" in str(exc.value)
    assert scanned == [] and built == [16, 32, 64, 128, 256]


@pytest.mark.parametrize(
    "ring, check",
    [
        ("(t^4) ; (t^6 + t^7)", "precheck refused truncation 16: the span misses t^15"),
        # 15 is a value but 14 is not, so the box's corner is no member
        ("(t^9) ; (t^15) ; (t^16)", "scan box refused truncation 16: "),
        # 12..15 are values, 16 is not: the candidate 12 needs N_c = 18
        ("(t^6) ; (t^13) ; (t^14) ; (t^15) ; (t^17)",
         "certificate refused truncation 16: the span misses t^16 on branch 0"),
    ],
)
def test_error_names_the_check_that_refused_the_last_order(monkeypatch, ring, check):
    monkeypatch.setattr(curves.ideals, "MAX_CELLS", 20)
    with pytest.raises(TruncationError, match=r"^no stable conductor at truncations 16; ") as exc:
        value_ideal(parse_curve(f"branches: 1\nring: {ring}\n"), "R")
    assert "box limit of 20 cells; the " + check in str(exc.value)


def test_certificate_needs_n_at_least_gamma_plus_e():
    # at 11 the scan of <4, 5> shows 8, 9 and no gap, and t^8, t^9, t^10
    # lie in the span, yet the conductor is 12: 11 < 8 + e with e = 4
    spec = parse_curve("branches: 1\ntruncation: 11\nring: (t^4) ; (t^5)\n")
    gens = curves._gens(spec, "R")
    assert curves._scan(span_module(spec, "R", 11), "conductor").conductor == (8,)
    modules.require_monomials(span_module(spec, "R", 11), (8,), "R")
    with pytest.raises(TruncationError, match=r"below γ \+ e = \(12,\)"):
        curves._certify(spec, gens, (8,), (4,), 11)
    with pytest.raises(TruncationError, match=r"truncation 11 is below γ \+ e = \(12,\) .* \(8,\)"):
        value_ideal(parse_curve(dumps_curve(spec)), "R")
    assert value_ideal(parse_curve("branches: 1\nring: (t^4) ; (t^5)\n")).conductor == (12,)


def test_certificate_refuses_a_false_conductor_inside_the_box():
    spec = parse_curve(CURVES["ring-16"])
    gens = curves._gens(spec, "R")
    assert curves._scan(span_module(spec, "R", 16), "conductor").conductor == (12,)
    with pytest.raises(TruncationError, match=r"the span misses t\^13 on branch 0"):
        curves._certify(spec, gens, (12,), curves._radical_orders(spec), 16)
    assert value_ideal(spec, "R").conductor == (16,)


@pytest.mark.parametrize("name", ["twobranch", "semilocal", *CURVES])
def test_orders_e_are_read_from_the_ring_values(name, curve_spec):
    spec = parse_curve(SEMILOCAL if name == "semilocal" else _text(name, curve_spec))
    GR = value_ideal(spec, "R")
    assert curves._radical_orders(spec) == oracles.radical_orders(GR.contains, GR.gamma)


def test_semilocal_ring_commits_at_gamma_plus_e():
    GR = value_ideal(parse_curve(SEMILOCAL), "R")
    assert GR.conductor == (2, 12)
    assert curves._radical_orders(parse_curve(SEMILOCAL)) == (2, 4)
    assert value_ideal(parse_curve("truncation: 16\n" + SEMILOCAL)) == GR
    with pytest.raises(TruncationError, match=r"below γ \+ e = \(4, 16\)"):
        value_ideal(parse_curve("truncation: 15\n" + SEMILOCAL))


@pytest.mark.parametrize("name", ["twobranch", *CURVES])
def test_certified_values_match_the_fixed_order_policy(name, curve_spec):
    text = _text(name, curve_spec)
    spec = parse_curve(text)
    gamma_R = value_ideal(spec, "R").conductor
    for module in ["R", "Rbar", "C"] + spec.module_names():
        G = value_ideal(spec, module)
        # Rbar and C are built from Γ_R, so R must commit at that order too
        top = max(G.conductor + gamma_R)
        old = parse_curve(f"truncation: {max(16, 2 * top + 4)}\n" + text)
        assert G == value_ideal(old, module), module
    gamma, basis = conductor_of(spec)
    assert basis.N == max(gamma) + 1


@pytest.mark.parametrize("name", ["cusp", "ring-6-6", "twobranch"])
def test_length_equals_distance_on_nested_pairs(name, curve_spec):
    spec = parse_curve(_text(name, curve_spec))
    names = ["R", "Rbar", "C"] + spec.module_names()
    nested = 0
    for F in names:
        for E in names:
            try:
                ell = length_quotient(spec, F, E)
            except InclusionError:
                continue
            nested += 1
            want = relative_distance(value_ideal(spec, E), value_ideal(spec, F))
            assert ell == want, (F, E)
    assert nested >= 2 * len(names)
