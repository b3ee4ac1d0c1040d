"""The Nakayama conductor certificate that commits each value set: its
refusals, its orders e, and agreement with the fixed-order policy it
replaced."""

import itertools
import random
import re

import pytest

import oracles
from goodsemi import (FrameError, IdealFrame, InclusionError, NotCertifiedError, TruncationError, difference,
                      metric, relative_distance, validate)
from goodsemi.ringbridge import (
    conductor_of,
    curves,
    dumps_curve,
    length_quotient,
    modules,
    parse_curve,
    span_module,
    colon_value_ideal,
    value_ideal,
)
from test_span_store import CURVES, RING_34_26, _counting

# semilocal: (0, 2) puts the idempotent (0, 1) in R, so R = R_0 x R_1 with
# values <2, 3> x <4, 5>; the ring's least branch-1 exponent is 0, not e_1
SEMILOCAL = "branches: 2\nring: (1/3*t^2 - t^5, t^4) ; (t^3, t^5) ; (0, 2)\n"


def _text(name, curve_spec):
    return dumps_curve(curve_spec) if name == "twobranch" else CURVES[name]


def test_ring_without_conductor_fails_at_the_precheck(monkeypatch):
    built, scanned = _counting(monkeypatch)
    spec = parse_curve("branches: 3\nring: (t, t, t)\n")
    with pytest.raises(TruncationError, match="truncations 8, 16, 32, 64, 128, 256;") as exc:
        value_ideal(spec, "R")
    assert "the precheck refused truncation 256: the span misses t^255" in str(exc.value)
    assert scanned == [] and built == [8, 16, 32, 64, 128, 256]


@pytest.mark.parametrize(
    "ring, generator, branch",
    [
        ("(1/3*t^2 - t^5, t) ; (0, 2)", "(1/3*t^2 - t^5, t)", 0),
        ("(3*t^2 + 2*t^3, t^7) ; (0, 3*t^2 + t^5)", "(3*t^2 + 2*t^3, t^7)", 0),
        ("(-2*t + t^3, 2*t^2 - t^3) ; (1/2*t - t^2, 0)", "(-2*t + t^3, 2*t^2 - t^3)", 1),
    ],
    ids=["semilocal-branch-0", "branch-0", "branch-1"],
)
def test_a_branch_with_one_generator_of_order_above_1_is_refused_before_any_span(monkeypatch, ring, generator,
                                                                                   branch):
    # the ring's projection to the branch is Q[[h]], h the one generator
    # not constant there, of order 2: its values are the even numbers, so
    # the ring has no conductor, and no order need be probed
    built, scanned = _counting(monkeypatch)
    with pytest.raises(FrameError, match=re.escape(
            f"ring generator {generator} is the only one not constant on branch {branch}, so the ring's values "
            "there are the multiples of 2, and it has no conductor")):
        value_ideal(parse_curve(f"branches: 2\nring: {ring}\n"), "R")
    assert built == [] and scanned == []


@pytest.mark.parametrize(
    "ring, tried, last, box",
    [
        # the precheck refuses 8 and 16, so the conductor is at least 16
        # and commits at 16 + e = 20 or above, whose rerun box [0, 20]
        # exceeds the box limit
        pytest.param("(t^4) ; (t^6 + t^7)", "8, 16",
                     "the precheck refused truncation 8: the span misses t^7 on branch 0; "
                     "the precheck refused truncation 16: the span misses t^15 on branch 0",
                     "the least conductor they allow, (16,), commits at truncation 20, but the rerun at 22 "
                     "scans [0, 20]^1, of 21 cells",
                     id="(t^4) ; (t^6 + t^7)-precheck"),
        # the precheck refuses 8; t^15 is in the span at 16 and t^14 is
        # not: the candidate 15 needs 15 + e = 24, whose rerun box [0, 24]
        # exceeds the box limit
        pytest.param("(t^9) ; (t^15) ; (t^16)", "8, 16",
                     "the precheck refused truncation 8: the span misses t^7 on branch 0; "
                     "the certificate refused truncation 16: the candidate conductor (15,) needs truncation 24",
                     "the least conductor they allow, (15,), commits at truncation 24, but the rerun at 26 "
                     "scans [0, 24]^1, of 25 cells",
                     id="(t^9) ; (t^15) ; (t^16)-certificate"),
        # the precheck refuses 8; 12..15 are values, 16 is not: the
        # candidate 12 needs 18, so 20 is tried, where the candidate 17
        # needs 23, whose rerun box [0, 23] exceeds the box limit
        pytest.param("(t^6) ; (t^13) ; (t^14) ; (t^15) ; (t^17)", "8, 16, 20",
                     "the precheck refused truncation 8: the span misses t^7 on branch 0; "
                     "the certificate refused truncation 16: the candidate conductor (12,) needs truncation 18; "
                     "the certificate refused truncation 20: the candidate conductor (17,) needs truncation 23",
                     "the least conductor they allow, (17,), commits at truncation 23, but the rerun at 25 "
                     "scans [0, 23]^1, of 24 cells",
                     id="(t^6) ; (t^13) ; (t^14) ; (t^15) ; (t^17)-certificate"),
    ],
)
def test_error_names_the_check_that_refused_the_last_order(monkeypatch, ring, tried, last, box):
    monkeypatch.setattr(curves.ideals, "MAX_CELLS", 20)
    with pytest.raises(TruncationError, match=rf"^no stable conductor at truncations {tried}; ") as exc:
        value_ideal(parse_curve(f"branches: 1\nring: {ring}\n"), "R")
    # every order tried is listed with the check that refused it, the last
    # one last, then the box test that ended the probes
    assert str(exc.value).endswith(f"{last}; {box}, over the box limit of 20 cells")


def test_certificate_needs_n_at_least_gamma_plus_e(monkeypatch):
    # at 9 the scan of <6, 7, 8, 9, 10> shows {0} ∪ [6, ∞), its rerun at 11
    # agrees, and t^6, ..., t^10 lie in the span at 11, whose tail is then
    # the scan's conductor 6; yet the conductor is 12: 9 < 6 + e with e = 6
    ring = "ring: (t^6) ; (t^7) ; (t^8) ; (t^9) ; (t^10)\n"
    spec = parse_curve("branches: 1\ntruncation: 9\n" + ring)
    B = span_module(spec, "R", 11)
    assert B.N == 11 and modules.monomial_tail(B) == (6,)
    scans = curves._scan(B, 9, "conductor"), curves._scan(B, 11, "conductor")
    assert scans == (IdealFrame.from_points([(0,), (6,)], (6,)),) * 2
    built, scanned = _counting(monkeypatch)
    with pytest.raises(TruncationError,
                       match=r"^truncation 9 is below γ \+ e = \(12,\) for the candidate conductor \(6,\)$"):
        value_ideal(parse_curve(dumps_curve(spec)), "R")
    assert built == [11] and scanned == []
    assert value_ideal(parse_curve("branches: 1\n" + ring)).conductor == (12,)


def test_certificate_refuses_a_false_conductor_inside_the_box():
    # the scan at 16 shows the conductor 12, strictly inside its box, but
    # the span at 18 it is read from has the monomial tail 16
    spec = parse_curve(CURVES["ring-16"])
    B = span_module(spec, "R", 18)
    assert curves._scan(B, 16, "conductor").conductor == (12,)
    with pytest.raises(TruncationError,
                       match=r"^conductor \(12,\) of the scan at truncation 16 is not the span's "
                             r"monomial tail \(16,\)$"):
        curves._commit(B, modules.monomial_tail(B), 16, "")
    assert value_ideal(spec, "R").conductor == (16,)


def test_a_scan_whose_conductor_is_too_high_is_refused(monkeypatch):
    # {0} ∪ [3, ∞) is a good semigroup, and t^3, t^4, ... lie in the span,
    # but Q[[t^2, t^3]] has the conductor 2: the scan's conductor must be
    # the span's monomial tail, not only at or above it
    bad = IdealFrame.from_points([(0,), (3,)], (3,))
    _scans_with(monkeypatch, "conductor", lambda k, G: bad)
    with pytest.raises(TruncationError, match=r"^conductor \(3,\) of the scan at truncation \d+ is not the span's "
                                              r"monomial tail \(2,\)$"):
        value_ideal(parse_curve("branches: 1\nring: (t^2) ; (t^3)\n"), "R")


def test_a_wrong_conductor_on_the_scan_box_edge_is_refused_by_the_tail(monkeypatch):
    # at truncation 5 the scan box is [0, 3]: scans of Q[[t^2, t^3]] that
    # give {0} ∪ [3, ∞) put the conductor on the box's edge, where the
    # scan itself does not refuse it, and the tail check must
    bad = IdealFrame.from_points([(0,), (3,)], (3,))
    monkeypatch.setattr(curves, "value_semigroup_ideal", lambda basis, hi: bad)
    with pytest.raises(TruncationError, match=r"^conductor \(3,\) of the scan at truncation 5 is not the span's "
                                              r"monomial tail \(2,\)$"):
        value_ideal(parse_curve("branches: 1\ntruncation: 5\nring: (t^2) ; (t^3)\n"), "R")


def test_a_colon_scan_moved_up_one_branch_is_refused_by_the_tail(curve_spec, monkeypatch):
    # both scans moved by e_0 agree, so the rerun alone would pass them
    _scans_with(monkeypatch, "colon conductor", lambda k, G: G.shift((1, 0)))
    with pytest.raises(TruncationError, match=r"^colon conductor \(4, 1\) of the scan at truncation \d+ is not the "
                                              r"span's monomial tail \(3, 1\)$"):
        colon_value_ideal(parse_curve(dumps_curve(curve_spec)), "K0", "E")


@pytest.mark.parametrize("E", ["F", "K0"])
def test_a_colon_into_a_canonical_module_whose_scan_loses_a_point_is_refused(curve_spec, monkeypatch, E):
    # K0 is canonical, so Γ(K0 : E) = Γ_K0 - Γ_E.  Dropping the scan's
    # least point keeps its conductor and the axioms, and stays inside the
    # difference, so only the canonical certificate refuses it (on the
    # module E every one-point loss already fails the axioms)
    def lose_the_least_point(k, G):
        return IdealFrame.from_points([p for p in G.frame_sorted if p != G.mu], G.gamma)

    spec = parse_curve(dumps_curve(curve_spec))
    assert colon_value_ideal(spec, "K0", E) == difference(value_ideal(spec, "K0"), value_ideal(spec, E))
    _scans_with(monkeypatch, "colon conductor", lose_the_least_point)
    with pytest.raises(NotCertifiedError, match=rf"^colon 'K0' : '{E}' at truncation \d+ is not Γ_F - Γ_E, "
                                                "though Γ_F is a canonical ideal$"):
        colon_value_ideal(parse_curve(dumps_curve(curve_spec)), "K0", E)


def test_a_built_in_K_without_the_canonical_values_is_refused(monkeypatch):
    # one residue-dual row dropped leaves a smaller module than t^γ·ω_R
    real = curves.residue_dual

    def one_row_short(basis, c, a, N):
        D = real(basis, c, a, N)
        del D.rows[min(p for p in D.rows if p % N < c[p // N])]
        return D

    monkeypatch.setattr(curves, "residue_dual", one_row_short)
    with pytest.raises(NotCertifiedError, match="^the built-in module 'K' does not have the values K⁰ of Γ_R$"):
        value_ideal(parse_curve("branches: 1\nring: (t^3) ; (t^4) ; (t^5)\n"), "K")


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


def _builtin_text(name, curve_spec):
    if name.startswith("plane-"):
        rng = random.Random(int(name[6:]))
        return oracles.plane_curve_text(oracles.random_plane_curve(rng, rng.randint(1, 3)))
    if name == "zariski":
        return "branches: 1\nring: (t^8) ; (t^12 + t^14 + t^15)\n"
    return {"semilocal": SEMILOCAL, "ring-34-26": RING_34_26}.get(name) or _text(name, curve_spec)


@pytest.mark.parametrize(
    "name", ["twobranch", "semilocal", "ring-34-26", "zariski", *CURVES, *(f"plane-{k}" for k in range(6))]
)
def test_builtins_are_generated_by_the_idempotents_below_e(name, curve_spec):
    # Rbar by t^k·ε_i and C by t^(γ_i + k)·ε_i, 0 <= k < e_i: Σe_i generators each
    spec = parse_curve(_builtin_text(name, curve_spec))
    GR = value_ideal(spec, "R")
    gamma, e, s = GR.conductor, oracles.radical_orders(GR.contains, GR.gamma), spec.s
    assert len(curves._gens(spec, "Rbar")) == len(curves._gens(spec, "C")) == sum(e)
    for module, lo in (("Rbar", (0,) * s), ("C", gamma)):
        G = value_ideal(spec, module)
        assert (G.frame_sorted, G.conductor) == ((lo,), lo), module
    assert length_quotient(spec, "Rbar", "C") == sum(gamma)
    assert conductor_of(spec)[0] == gamma


@pytest.mark.parametrize("name", ["twobranch", *CURVES])
def test_certified_values_match_the_fixed_order_policy(name, curve_spec):
    text = _text(name, curve_spec)
    spec = parse_curve(text)
    gamma_R = value_ideal(spec, "R").conductor
    for module in ["R", "Rbar", "C"] + spec.module_names():
        G = value_ideal(spec, module)
        # C is built from Γ_R, so R must commit at that order too
        top = max(G.conductor + gamma_R)
        old = parse_curve(f"truncation: {max(16, 2 * top + 4)}\n" + text)
        assert G == value_ideal(old, module), module
    gamma, basis = conductor_of(spec)
    assert basis.N == max(gamma) + 1


def _random_poly(rng, lead=None):
    """One or two terms with exponents below 7 and coefficients in
    ±{1/2, 1, 2}, or 0 now and then; with ``lead``, t^lead and at most one
    higher term."""
    if lead is not None:
        return rng.choice([f"t^{lead}", f"t^{lead} {rng.choice('+-')} 2*t^{rng.randint(lead + 1, 7)}"])
    a, b = (f"{rng.choice(['', '2*', '1/2*'])}t^{e}" for e in sorted(rng.sample(range(7), 2)))
    both = f"{rng.choice(['', '-'])}{a} {rng.choice('+-')} {b}"
    return rng.choice(["0", b, both, both])


def _random_curve(rng):
    """A ring of 1-3 branches and a two-generator module E.  Two ring
    generators lead with coprime orders p_i, q_i on each branch, so that
    each branch's projection of R has a conductor; a third generator, if
    any, and E are free, so that E may be zero on a branch."""
    s = rng.randint(1, 3)
    leads = [rng.choice([(1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]) for _ in range(s)]
    ring = [[_random_poly(rng, pq[k]) for pq in leads] for k in range(2)]
    ring += [[_random_poly(rng) for _ in range(s)] for _ in range(rng.randint(0, 1))]
    E = [[_random_poly(rng) for _ in range(s)] for _ in range(2)]
    vectors = lambda vs: " ; ".join("(" + ", ".join(v) + ")" for v in vs)  # noqa: E731
    return f"branches: {s}\nring: {vectors(ring)}\nmodule E: {vectors(E)}\n"


def _value_or_refusal(text, module):
    try:
        return value_ideal(parse_curve(text), module)
    except (TruncationError, FrameError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(100))
def test_bootstrap_matches_the_fixed_order_policy_on_random_curves(seed):
    # the fixed-order policy the bootstrap replaced: an explicit truncation
    # of max(16, 2·max(γ) + 4); a refused module is refused at 64 too
    text = _random_curve(random.Random(seed))
    for module in ("R", "E"):
        got = _value_or_refusal(text, module)
        N = 64 if isinstance(got, type) else max(16, 2 * max(got.conductor) + 4)
        assert got == _value_or_refusal(f"truncation: {N}\n" + text, module), (text, module)


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


def test_colon_outside_the_difference_is_refused_by_name(curve_spec, monkeypatch):
    # a colon basis with one row too many, of the least value outside
    # Γ_F - Γ_E that the basis of t^σ·(F : E) can hold (σ = c - a - γ_F):
    # the scans, rerun and axioms pass, and the inclusion refuses it
    spec = parse_curve(dumps_curve(curve_spec))
    D = difference(value_ideal(spec, "K0"), value_ideal(spec, "E"))
    real = curves.colon_solution_basis

    def one_row_too_many(ring, F_basis, E_gens, gamma_F, c, a, N):
        B = real(ring, F_basis, E_gens, gamma_F, c, a, N)
        sigma = [x - y - g for x, y, g in zip(c, a, gamma_F)]
        v = next(x for x in oracles.box([-d for d in sigma], D.gamma) if x not in D)
        B._insert({i * N + x + d: 1 for i, (x, d) in enumerate(zip(v, sigma))})
        return B

    monkeypatch.setattr(curves, "colon_solution_basis", one_row_too_many)
    with pytest.raises(NotCertifiedError, match=r"colon 'K0' : 'E' at truncation \d+ fails the inclusion"):
        colon_value_ideal(spec, "K0", "E")


def test_length_that_differs_from_the_distance_is_refused(curve_spec, monkeypatch):
    spec = parse_curve(dumps_curve(curve_spec))
    assert length_quotient(spec, "Rbar", "R") == 3
    monkeypatch.setattr(metric, "relative_distance", lambda E, F: relative_distance(E, F) + 1)
    with pytest.raises(NotCertifiedError, match=r"length of 'Rbar' / 'R' is 3 by pivots, but d\(Γ_F \\ Γ_E\) = 4"):
        length_quotient(spec, "Rbar", "R")


def _scans_with(monkeypatch, what, change):
    """Bind curves._scan so that the k-th scan labelled ``what`` (k from
    0) returns change(k, G) in place of its value set G."""
    real, count = curves._scan, itertools.count()

    def scan(basis, n, label):
        G = real(basis, n, label)
        return change(next(count), G) if label == what else G

    monkeypatch.setattr(curves, "_scan", scan)


def test_a_value_set_that_changes_on_the_rerun_is_refused(monkeypatch):
    _scans_with(monkeypatch, "conductor", lambda k, G: G.shift((k,)))
    with pytest.raises(TruncationError, match=r"value set changed between truncations \d+ and \d+"):
        value_ideal(parse_curve("branches: 1\nring: (t^2) ; (t^3)\n"), "R")


def test_a_value_set_that_fails_the_axioms_is_refused(curve_spec, monkeypatch):
    # R's values {0} ∪ ((3, 1) + N^2) with (1, 0) added fail (E2) at the
    # pair (0, 0), (1, 0), at the same conductor: the tail and the rerun
    # pass, and only the axioms refuse it
    G = value_ideal(parse_curve(dumps_curve(curve_spec)), "R")
    bad = IdealFrame.from_points(G.frame_sorted + ((1, 0),), G.gamma)
    assert bad.conductor == G.conductor and not validate(bad).e2_ok
    _scans_with(monkeypatch, "conductor", lambda k, G: bad)
    with pytest.raises(NotCertifiedError, match="^computed value set fails the good-ideal axioms:\n"):
        value_ideal(parse_curve(dumps_curve(curve_spec)), "R")


def test_a_colon_that_changes_on_the_rerun_is_refused(monkeypatch):
    _scans_with(monkeypatch, "colon conductor", lambda k, G: G.shift((k,)))
    with pytest.raises(TruncationError, match=r"colon value set changed between truncations \d+ and \d+"):
        colon_value_ideal(parse_curve("branches: 1\nring: (t^2) ; (t^3)\n"), "R", "Rbar")


def test_a_conductor_whose_colon_is_not_the_orthant_is_refused(monkeypatch):
    spec = parse_curve("branches: 1\nring: (t^2) ; (t^3)\n")
    real = curves.colon_value_ideal
    monkeypatch.setattr(curves, "colon_value_ideal", lambda spec, K, E: real(spec, K, E).shift((1,)))
    with pytest.raises(NotCertifiedError, match=r"colon against the full ring gives .*, not the orthant at \(2,\)"):
        conductor_of(spec)
