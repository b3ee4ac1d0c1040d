"""End-to-end acceptance checks.

Each test exercises one full scenario across the stack and finishes by
printing a single ACCEPTANCE line; run with
``pytest -v -s tests/test_acceptance.py`` to see them all.
"""

import random

import oracles
from goodsemi import (
    CanonicalIdeal,
    GoodSemigroup,
    IdealFrame,
    canonical_normalized,
    conductor_ideal,
    decompose,
    difference,
    distance_between,
    dualize,
    from_json,
    is_subset,
    is_symmetric,
    numerical_semigroup,
    product_canonical,
    product_semigroups,
    random_good_ideal,
    random_good_semigroup,
    random_pair,
    recombine,
    relative_distance,
    sum_ideals,
    to_json,
    validate,
)
from goodsemi.ringbridge import (
    CurveSpec,
    colon_value_ideal,
    length_quotient,
    module_generators,
    parse_curve,
    poly_mul_vec,
    value_ideal,
)
from goodsemi.ringbridge.curves import value_ideal_from_polys
from goodsemi.errors import InclusionError

SEED = 20260817


def _set_in_box(E, lo, hi):
    return {p for p in oracles.box(lo, hi) if p in E}


def test_acceptance_01_two_branch_curve_panels(curve_spec):
    GS = value_ideal(curve_spec, "R")
    GE = value_ideal(curve_spec, "E")
    GF = value_ideal(curve_spec, "F")
    GEF = sum_ideals(GE, GF)

    lo, hi = (0, 0), (9, 8)
    want_S = {(0, 0)} | {
        p for p in oracles.box(lo, hi) if p[0] >= 3 and p[1] >= 1
    }
    assert _set_in_box(GS, lo, hi) == want_S

    want_E = {(2, b) for b in range(1, 9)} | {(3, 1)}
    want_E |= {p for p in oracles.box(lo, hi) if p[0] >= 5 and p[1] >= 2}
    assert _set_in_box(GE, lo, hi) == want_E

    want_F = {(3, 1)} | {p for p in oracles.box(lo, hi) if p[0] >= 4 and p[1] >= 2}
    assert _set_in_box(GF, lo, hi) == want_F

    want_EF = {(5, 2), (6, 2)}
    want_EF |= {p for p in oracles.box(lo, hi) if p[0] >= 5 and p[1] >= 3}
    assert _set_in_box(GEF, lo, hi) == want_EF
    print("ACCEPTANCE 1: PASS")


def test_acceptance_02_sum_of_good_ideals_need_not_be_good(curve_spec):
    GE = value_ideal(curve_spec, "E")
    GF = value_ideal(curve_spec, "F")
    GEF = sum_ideals(GE, GF)
    report = validate(GEF)
    assert not report.e2_ok and report.e1_ok
    assert ((6, 2), (6, 3), 0) in report.e2_failures

    # the product module's value set strictly dominates the sum of values
    prods = tuple(
        poly_mul_vec(a, b)
        for a in module_generators(curve_spec, "E")
        for b in module_generators(curve_spec, "F")
    )
    G_prod = value_ideal_from_polys(curve_spec, prods)
    assert G_prod.frame_sorted == ((5, 2),)
    assert is_subset(GEF, G_prod) and GEF != G_prod
    print("ACCEPTANCE 2: PASS")


def test_acceptance_03_staircase_duality_panels(wide_s, wide_e):
    K = canonical_normalized(wide_s)
    exp = {(0, y) for y in range(7)}
    exp |= {(1, 0), (1, 1), (3, 0)}
    exp |= {(3, y) for y in range(2, 7)}
    exp |= {(4, 0), (4, 2), (4, 3)}
    exp |= {(5, 0), (5, 2), (5, 4), (5, 5), (5, 6)}
    exp |= {(6, 0), (6, 2), (6, 4), (6, 5), (6, 6)}
    exp |= {(7, 0), (7, 2), (7, 4), (7, 5)}
    exp |= {(8, 0), (8, 2), (8, 4), (8, 6)}
    assert set(K.frame_sorted) == exp

    D = difference(K, wide_e)
    assert D.frame_sorted == ((4, 2), (4, 3), (5, 2), (6, 2), (7, 2), (7, 4))
    rep = validate(D)
    assert rep.e1_ok and not rep.e2_ok

    DD = difference(K, D)
    assert DD.frame_sorted == ((1, 2), (2, 2), (3, 2), (4, 4))
    assert is_subset(wide_e, DD) and wide_e != DD
    print("ACCEPTANCE 3: PASS")


def test_acceptance_04_duality_involution_randomized():
    rng = random.Random(SEED)
    plan = [(1, 8)] * 34 + [(2, 7)] * 33 + [(3, 4)] * 33
    count = 0
    for s, mg in plan:
        S, E = random_pair(rng, s, max_gamma=mg, max_shift=2)
        K = CanonicalIdeal.normalized(S)
        D = dualize(K, E)
        assert dualize(K, D) == E
        assert difference(K.ideal, K.ideal) == S.ideal
        assert validate(D, S).ok
        count += 1
    assert count >= 100
    print("ACCEPTANCE 4: PASS")


def test_acceptance_05_distance_suite(fig_s, wide_s):
    rng = random.Random(SEED + 5)
    # additivity across >= 50 nested triples C <= S <= K0
    triples = 0
    for trial in range(50):
        S = random_good_semigroup(rng, 2, max_gamma=5)
        K = canonical_normalized(S)
        C = conductor_ideal(S.ideal)
        dKC = relative_distance(C, K)
        dKS = relative_distance(S.ideal, K)
        dSC = relative_distance(C, S.ideal)
        assert dKC == dKS + dSC
        # separation: zero distance must pin equality, both ways
        assert (dKS == 0) == (S.ideal == K)
        if trial % 4 == 0:
            far = tuple(g + 1 for g in K.gamma)
            lens = oracles.chain_lengths(K.contains, K.mu, far)
            assert len(lens) == 1
            assert distance_between(K, K.mu, far) == lens.pop()
        triples += 1
    assert triples >= 50

    # engineered near-equal pair: one extra column of points
    S = fig_s.ideal
    F2 = IdealFrame.from_points([(0, 0), (2, 1), (3, 1)], gamma=(3, 1))
    assert relative_distance(S, F2) == 1 and S != F2
    assert relative_distance(S, S) == 0
    assert relative_distance(F2, F2) == 0

    # greedy distance equals the exhaustive-chain oracle on the fixtures
    for E, a, b in [
        (fig_s.ideal, (0, 0), (4, 2)),
        (wide_s.ideal, (0, 0), (8, 6)),
        (wide_s.ideal, (3, 2), (9, 7)),
    ]:
        lens = oracles.chain_lengths(E.contains, a, b)
        assert len(lens) == 1 and distance_between(E, a, b) == lens.pop()
    print("ACCEPTANCE 5: PASS")


def _delta_at_tau_is_empty(E):
    tau = tuple(c - 1 for c in E.conductor)
    s = E.s
    for i in range(s):
        # axis ray through tau in coordinate i: beta_i = tau_i, beta_j > tau_j
        span = [range(tau[j] + 1, E.gamma[j] + 2) for j in range(s)]
        span[i] = range(tau[i], tau[i] + 1)
        stack = [()]
        for r in span:
            stack = [p + (v,) for p in stack for v in r]
        if any(p in E for p in stack):
            return False
    return True


def test_acceptance_06_conductor_formulas(fig_s, wide_s, wide_e):
    E = IdealFrame.from_points([(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2))
    F = IdealFrame.from_points([(3, 1), (4, 2)], gamma=(4, 2))
    K = canonical_normalized(wide_s)

    # conductor of a difference: gamma^(E-F) = gamma^E - mu^F
    for left, right in [(E, F), (K, wide_e), (K, K)]:
        D = difference(left, right)
        assert D.conductor == tuple(
            g - m for g, m in zip(left.conductor, right.mu)
        )

    # the shifted-corner set just below the conductor misses the ideal
    for ideal in [fig_s.ideal, wide_s.ideal, E, F, K, canonical_normalized(fig_s)]:
        assert _delta_at_tau_is_empty(ideal)

    rng = random.Random(SEED + 6)
    for _ in range(25):
        S, A = random_pair(rng, 2, max_gamma=5, max_shift=1)
        B = random_good_ideal(rng, S, max_shift=1)
        D = difference(A, B)
        assert D.conductor == tuple(g - m for g, m in zip(A.conductor, B.mu))
        assert _delta_at_tau_is_empty(A)
        assert _delta_at_tau_is_empty(B)
    print("ACCEPTANCE 6: PASS")


def test_acceptance_07_ring_semigroup_diagram(curve_spec):
    GK = value_ideal(curve_spec, "K0")
    for name in ("R", "E", "F", "CR"):
        got = colon_value_ideal(curve_spec, "K0", name)
        assert got == difference(GK, value_ideal(curve_spec, name)), name

    names = ["R", "E", "F", "K0", "CR", "CF", "Rbar", "C"]
    nested = 0
    for big in names:
        for small in names:
            if big == small:
                continue
            try:
                ell = length_quotient(curve_spec, big, small)
            except InclusionError:
                continue
            d = relative_distance(
                value_ideal(curve_spec, small), value_ideal(curve_spec, big)
            )
            assert ell == d, (big, small)
            nested += 1
    assert nested >= 6
    print("ACCEPTANCE 7: PASS")


def test_acceptance_08_symmetry(fixture_dir):
    spec = parse_curve((fixture_dir / "cusp.curve").read_text())
    G = value_ideal(spec, "R")
    assert G.frame_sorted == ((0,), (2,))
    cusp_sg = GoodSemigroup(G)
    assert is_symmetric(cusp_sg)

    # gap-reflection oracle agrees on both verdicts
    def reflected(members, tau, hi):
        return {(x,) for x in range(hi + 1) if (tau - x) not in members}

    m23 = oracles.numerical_members((2, 3), 12)
    assert reflected(m23, 1, 12) == {(x,) for x in m23}

    S457 = numerical_semigroup(4, 5, 7)
    assert not is_symmetric(S457)
    m457 = oracles.numerical_members((4, 5, 7), 20)
    K457 = canonical_normalized(S457)
    assert reflected(m457, 6, 20) == _set_in_box(K457, (0,), (20,))
    assert reflected(m457, 6, 20) != {(x,) for x in m457}

    # {0,2,4,5,6,...} (pairwise coprime generators 2 and 5) is symmetric
    assert is_symmetric(numerical_semigroup(2, 5))
    print("ACCEPTANCE 8: PASS")


def test_acceptance_09_decomposition_randomized():
    rng = random.Random(SEED + 9)
    pool = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5, 7), (2, 7), (5, 6, 7)]
    done = 0
    for trial in range(10):
        A = numerical_semigroup(*rng.choice(pool))
        B = numerical_semigroup(*rng.choice(pool))
        P = product_semigroups(A, B)
        dec = decompose(P)
        assert dec.partition == ((0,), (1,))
        assert dec.factors == (A, B)
        assert recombine(dec.partition, dec.factors) == P
        assert product_canonical(dec) == canonical_normalized(P)
        done += 1
    for trial in range(10):
        A = numerical_semigroup(*rng.choice(pool))
        B = random_good_semigroup(rng, 2, max_gamma=5)
        P = product_semigroups(A, B)
        dec = decompose(P)
        assert recombine(dec.partition, dec.factors) == P
        assert product_canonical(dec) == canonical_normalized(P)
        done += 1
    assert done >= 20
    print("ACCEPTANCE 9: PASS")


def test_acceptance_10_truncation_stability(curve_spec, fixture_dir):
    jobs = [(curve_spec, ["R", "E", "F", "K0", "CR", "CF", "Rbar", "C"], 16)]
    cusp = parse_curve((fixture_dir / "cusp.curve").read_text())
    jobs.append((cusp, ["R", "Rbar", "C"], 16))
    for spec, names, N in jobs:
        lo = CurveSpec(spec.s, N, spec.ring, spec.modules)
        hi = CurveSpec(spec.s, N + 2, spec.ring, spec.modules)
        for name in names:
            a = to_json(value_ideal(lo, name))
            b = to_json(value_ideal(hi, name))
            assert a == b, (name, N)
            assert from_json(a) == from_json(b)
    print("ACCEPTANCE 10: PASS")
