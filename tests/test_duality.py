import random

import pytest

import oracles
import goodsemi as g
from goodsemi import axioms, duality, products
from goodsemi import (
    GoodSemigroup,
    IdealFrame,
    InclusionError,
    NotCertifiedError,
    canonical_normalized,
    conductor_ideal,
    difference,
    dualize,
    is_canonical,
    is_subset,
    is_symmetric,
    numerical_semigroup,
    product_canonical,
    product_semigroups,
    push_forward,
    random_good_semigroup,
    random_pair,
    relative_distance,
    sum_ideals,
    to_json,
    validate,
)
from goodsemi.duality import CanonicalIdeal
from goodsemi.ringbridge.curves import parse_curve, value_ideal


def staircase_pred(p):
    x, y = p
    if (x, y) in {(0, 0), (3, 2), (5, 4), (6, 4)}:
        return True
    if x == 5 and y >= 6:
        return True
    return x >= 8 and y >= 6


# ----------------------------------------------------------- K0 fixtures


def test_canonical_of_corner_semigroup(fig_s):
    K = canonical_normalized(fig_s)
    assert K.frame_sorted == (
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 1)
    )
    assert K.gamma == (3, 1)
    # cross-check against the Delta-emptiness definition, brute force
    want = oracles.k0_points(
        lambda p: p in fig_s, fig_s.gamma, (0, 0), (4, 2)
    )
    got = {p for p in oracles.box((0, 0), (4, 2)) if p in K}
    assert got == want


def test_canonical_of_staircase_matches_bruteforce(wide_s):
    K = canonical_normalized(wide_s)
    want = oracles.k0_points(staircase_pred, (8, 6), (0, 0), (10, 8))
    got = {p for p in oracles.box((0, 0), (10, 8)) if p in K}
    assert got == want
    # frame transcribed from the worked picture, column by column
    exp = set()
    exp |= {(0, y) for y in range(7)}
    exp |= {(1, 0), (1, 1), (3, 0)}
    exp |= {(3, y) for y in range(2, 7)}
    exp |= {(4, 0), (4, 2), (4, 3)}
    exp |= {(5, 0), (5, 2), (5, 4), (5, 5), (5, 6)}
    exp |= {(6, 0), (6, 2), (6, 4), (6, 5), (6, 6)}
    exp |= {(7, 0), (7, 2), (7, 4), (7, 5)}
    exp |= {(8, 0), (8, 2), (8, 4), (8, 6)}
    assert set(K.frame_sorted) == exp
    # K0 is itself a certified good ideal
    assert validate(K, wide_s).ok


def test_numerical_canonical_via_gap_reflection():
    # one branch: K0 = {x : tau - x not in S}
    S = numerical_semigroup(4, 5, 7)
    K = canonical_normalized(S)
    members = oracles.numerical_members((4, 5, 7), 20)
    tau = 6
    want = {(x,) for x in range(0, 21) if (tau - x) not in members}
    got = {p for p in oracles.box((0,), (20,)) if p in K}
    assert got == want
    assert (3,) in K and (3,) not in S.ideal


# ------------------------------------------------------------- difference


def test_a_semigroup_keeps_its_k0_and_apery_families():
    # built once and kept: the same K⁰ object on every call, equal to a
    # fresh build, and Apéry families equal to those of a plain frame
    rng = random.Random(20261021)
    for k in range(30):
        S = random_good_semigroup(rng, k % 3 + 1, max_gamma=6)
        K0 = canonical_normalized(S)
        assert canonical_normalized(S) is K0 and S._store["k0"] is K0
        assert K0 == duality._dual_normalized(S, S) and K0.is_e1()
        plain = IdealFrame(S.s, S.mu, S.gamma, S.frame_sorted)
        assert type(plain) is IdealFrame
        fresh, kept = axioms._apery_families(plain), S._store["families"]
        assert axioms._additivity_holds(plain, S) and S._store["families"] is kept
        assert (kept.lo, kept.shape, kept.bits) == (fresh.lo, fresh.shape, fresh.bits)
        assert canonical_normalized(plain) == K0 and canonical_normalized(plain) is not K0
        assert canonical_normalized(plain) is plain._store["k0"]


def test_each_result_is_built_once_per_set(monkeypatch):
    # a semigroup shares its source frame's store: certifying the frame
    # builds the Apéry families that every later check of S reads
    E = IdealFrame.from_points([(0, 0), (3, 2), (5, 4), (6, 4), (5, 6), (8, 6)], gamma=(8, 6))
    families, duals = [], []
    real_families, real_dual = axioms._apery_families, duality._dual_normalized
    monkeypatch.setattr(axioms, "_apery_families", lambda S: families.append(S) or real_families(S))
    monkeypatch.setattr(duality, "_dual_normalized", lambda S, F: duals.append(F) or real_dual(S, F))
    assert validate(E, E).ok
    S = GoodSemigroup(E)
    K0 = canonical_normalized(S)
    assert not is_symmetric(S)
    CK = CanonicalIdeal.normalized(S)
    I = S.shift((1, 2))
    once = dualize(CK, I)
    assert once == K0.shift((-1, -2)) and dualize(CK, once) == I
    assert families == [E]
    assert duals == [S, I, once]
    # a raw good frame is certified once, by whichever call comes first
    # (canonical_normalized here), and every later one reads that report
    raw = IdealFrame.from_points(E.frame_sorted, gamma=E.gamma)
    families.clear()
    scans, real_scan = [], axioms._additivity_failures
    monkeypatch.setattr(axioms, "_additivity_failures", lambda E, S: scans.append(E) or real_scan(E, S))
    assert canonical_normalized(raw) == K0
    assert CanonicalIdeal.normalized(raw).ideal is canonical_normalized(raw)
    assert not is_symmetric(raw) and GoodSemigroup(raw) == S
    assert families == scans == [raw]


def test_canonical_queries_on_one_semigroup_build_k0_once(monkeypatch):
    S = numerical_semigroup(4, 5, 7)
    calls = []
    real = duality._dual_normalized

    def counted(S, E):
        calls.append(E)
        return real(S, E)

    monkeypatch.setattr(duality, "_dual_normalized", counted)
    K0 = canonical_normalized(S)
    assert not is_symmetric(S)
    CK = CanonicalIdeal.normalized(S)
    assert CK.ideal is K0 and is_canonical(K0.shift((2,)), S) == (True, (2,))
    assert canonical_normalized(S) is K0
    assert len(calls) == 1
    # a plain frame of the same set keeps its own K⁰: two calls build once
    plain = IdealFrame(1, (0,), S.gamma, S.frame_sorted)
    assert canonical_normalized(plain) is canonical_normalized(plain) == K0
    assert len(calls) == 2


def test_difference_of_worked_ideals():
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    F = IdealFrame.from_points([(3, 1), (4, 2)], gamma=(4, 2))
    D = difference(E, F)
    assert D.frame_sorted == ((2, 1),)
    assert D.mu == (2, 1) and D.gamma == (2, 1)
    # conductor-shift law: gamma of E-F equals gamma^E - mu^F
    assert D.gamma == tuple(a - b for a, b in zip(E.gamma, F.mu))


def test_difference_matches_pointwise_oracle(fig_s):
    K = canonical_normalized(fig_s)
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    D = difference(K, E)
    lo, hi = (-4, -4), (6, 4)
    want = oracles.difference_points(
        K.contains, E.contains, lo, hi, E.mu, (9, 7)
    )
    got = {p for p in oracles.box(lo, hi) if p in D}
    assert got == want


def test_difference_requires_min_closure():
    bad = IdealFrame.from_points(
        [(0, 0), (1, 2), (2, 1), (2, 2)], gamma=(2, 2)
    )
    good = IdealFrame.from_points([(0, 0), (1, 1)], gamma=(1, 1))
    with pytest.raises(NotCertifiedError, match="left"):
        difference(bad, good)
    with pytest.raises(NotCertifiedError, match="right"):
        difference(good, bad)


def test_duals_and_differences_carry_min_closure(monkeypatch, wide_s):
    # K0 and a difference are min-closed by construction, so difference
    # sweeps neither for (E1); a raw frame failing (E1) is still refused
    sweeps = []
    real = axioms._e1_holds
    monkeypatch.setattr(axioms, "_e1_holds", lambda E: sweeps.append(E) or real(E))
    K = canonical_normalized(wide_s)
    E = IdealFrame.from_points([(3, 2), (5, 4), (6, 4), (8, 6)], gamma=(8, 6))
    D = difference(K, E)
    assert sweeps == [E]
    assert D.is_e1() and D.shift((1, 1)).is_e1()
    difference(K, D)
    dualize(CanonicalIdeal.normalized(wide_s), wide_s.ideal).is_e1()
    assert sweeps == [E]
    bad = IdealFrame.from_points([(0, 0), (1, 2), (2, 1), (2, 2)], gamma=(2, 2))
    with pytest.raises(NotCertifiedError, match="right"):
        difference(K, bad)
    assert sweeps == [E, bad]


def test_difference_by_semigroup_is_identity(fig_s):
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    assert difference(E, fig_s.ideal) == E


def test_conductor_ideal():
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    C = conductor_ideal(E)
    assert C.mu == C.gamma == (5, 2)
    assert (5, 2) in C and (5, 1) not in C and (7, 9) in C
    assert is_subset(C, E)


def test_conductor_ideal_is_the_constructed_one_cell_frame(rng):
    # adopted without the constructor, it is the frame the constructor
    # builds from the one cell, on semigroups and translated ideals, with
    # conductors below the origin too
    below = 0
    for k in range(60):
        S, E = random_pair(rng, k % 4 + 1, max_gamma=5 if k % 4 < 2 else 3)
        for X in (S, E.shift(tuple(rng.randint(-4, 4) for _ in range(E.s)))):
            c = X.conductor
            C, built = conductor_ideal(X), IdealFrame(X.s, c, c, [c])
            assert type(C) is IdealFrame and C.fingerprint() == built.fingerprint(), (X, C)
            assert (C.conductor, C.frame_sorted, validate(C, S).ok) == (c, (c,), True)
            below += min(c) < 0
    assert below >= 10, below


# ------------------------------------------------- dualization, involution


def test_dualize_involution_on_fixture(fig_s):
    K = CanonicalIdeal.normalized(fig_s)
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    D = dualize(K, E)
    DD = dualize(K, D)
    assert DD == E
    assert validate(D, fig_s).ok


def test_dualize_semigroup_gives_canonical(fig_s):
    K = CanonicalIdeal.normalized(fig_s)
    assert dualize(K, fig_s.ideal) == K.ideal


def test_dualize_refuses_a_plain_frame_on_the_left(fig_s):
    # K⁰ as a frame has the right set but carries no certificate
    with pytest.raises(NotCertifiedError, match="requires a certified CanonicalIdeal on the left"):
        dualize(canonical_normalized(fig_s), fig_s)


def test_dualize_refuses_uncertified(wide_s, wide_e):
    K = CanonicalIdeal.normalized(wide_s)
    with pytest.raises(NotCertifiedError, match="involution"):
        dualize(K, wide_e)


def test_uncapped_difference_breaks_involution(wide_s, wide_e):
    # the raw difference still computes; applying it twice strictly grows
    K = canonical_normalized(wide_s)
    D = difference(K, wide_e)
    assert D.frame_sorted == (
        (4, 2), (4, 3), (5, 2), (6, 2), (7, 2), (7, 4)
    )
    assert D.gamma == (7, 4)
    rep = validate(D, wide_s)
    assert rep.e1_ok and not rep.e2_ok
    DD = difference(K, D)
    assert DD.frame_sorted == ((1, 2), (2, 2), (3, 2), (4, 4))
    assert DD.gamma == (4, 4)
    assert is_subset(wide_e, DD) and wide_e != DD


def test_double_difference_contains_every_e1_frame(rng):
    # e + x lies in K⁰ for e in E and x in K⁰ - E, so E ⊆ K⁰ - (K⁰ - E) for
    # any E: good ideals, and min-closed frames that fail (E2) or E + S ⊆ E
    seen = [0, 0]  # [uncertified, good]
    for _ in range(120):
        s = rng.randint(1, 3)
        S = random_good_semigroup(rng, s, max_gamma=5)
        if rng.random() < 0.3:
            E = g.random_good_ideal(rng, S, max_shift=2)
        else:
            B = tuple(rng.randint(0, 4) for _ in range(s))
            pts = {(0,) * s, B} | {tuple(rng.randint(0, b) for b in B) for _ in range(rng.randint(0, 6))}
            while not oracles.min_closed(pts):
                pts |= {oracles.cmin(p, q) for p in pts for q in pts}
            mu = tuple(rng.randint(-2, 2) for _ in range(s))
            E = IdealFrame.from_points([oracles.add(p, mu) for p in pts], oracles.add(B, mu))
        K = canonical_normalized(S)
        assert is_subset(E, difference(K, difference(K, E))), (S, E)
        seen[validate(E, S).ok] += 1
    assert min(seen) >= 30, seen


def test_is_canonical_accepts_translates(fig_s):
    K0 = canonical_normalized(fig_s)
    ok, shift = is_canonical(K0, fig_s)
    assert ok and shift == (0, 0)
    moved = K0.shift((2, 3))
    ok, shift = is_canonical(moved, fig_s)
    assert ok and shift == (2, 3)
    no, _ = is_canonical(fig_s.ideal, fig_s)
    assert not no


def test_certify_canonical(fig_s):
    K0 = canonical_normalized(fig_s)
    cert = CanonicalIdeal.certify(K0.shift((1, 1)), fig_s)
    assert cert.shift_from_normalized == (1, 1)
    with pytest.raises(NotCertifiedError):
        CanonicalIdeal.certify(fig_s.ideal, fig_s)


# ---------------------------------------------------------------- symmetry


def test_symmetry_two_generated():
    assert is_symmetric(numerical_semigroup(2, 5))
    assert is_symmetric(numerical_semigroup(2, 3))
    assert is_symmetric(numerical_semigroup(3, 5))


def test_symmetry_fails_for_4_5_7():
    S = numerical_semigroup(4, 5, 7)
    assert not is_symmetric(S)
    K = canonical_normalized(S)
    extra = [p for p in oracles.box((0,), (10,)) if p in K and p not in S.ideal]
    assert extra == [(3,)]


def test_staircase_not_symmetric(wide_s):
    assert not is_symmetric(wide_s)
    assert is_symmetric(GoodSemigroup.from_points([(0, 0), (1, 1)], gamma=(1, 1)))


# ----------------------------------------------------- push forward, product


def test_push_forward_to_overgroup(fig_s):
    big = GoodSemigroup.from_points([(0, 0), (1, 1)], gamma=(1, 1))
    assert is_subset(fig_s.ideal, big.ideal)
    K = CanonicalIdeal.normalized(fig_s)
    pushed = push_forward(K, big)
    assert isinstance(pushed, CanonicalIdeal)
    ok, _ = is_canonical(pushed.ideal, big)
    assert ok
    with pytest.raises(InclusionError):
        push_forward(CanonicalIdeal.normalized(big), fig_s)


def test_duals_by_delta_sweeps_match_difference():
    # dualize and push_forward read K - E off Delta sweeps of E; both must
    # equal the erosion K - E, for K certified at a shift alpha.  Products
    # of pooled pairs reach s = 4 with windows larger than the generator's.
    rng = random.Random(20261018)
    pool = {
        d: [random_pair(rng, d, max_gamma=top, max_shift=0) for _ in range(n)]
        for d, top, n in ((1, 12, 40), (2, 7, 30), (3, 4, 12), (4, 3, 4))
    }
    kinds, moved = set(), 0
    for k in range(320):
        s = 1 + k % 4
        split = rng.randint(0, s - 1)
        if split:
            pairs = [rng.choice(pool[d]) for d in (split, s - split)]
            S = product_semigroups(*(p[0] for p in pairs))
            E = products._interleave([range(split), range(split, s)], [p[1] for p in pairs])
        else:
            S, E = rng.choice(pool[s])
        kinds.add((s, split))
        E = E.shift(tuple(rng.randint(-3, 3) for _ in range(s)))
        alpha = tuple(rng.randint(-3, 3) for _ in range(s))
        K = CanonicalIdeal.certify(canonical_normalized(S).shift(alpha), S)
        assert dualize(K, E) == difference(K.ideal, E)
        Sp = GoodSemigroup(difference(E, E))  # an oversemigroup of S
        assert push_forward(K, Sp).ideal == difference(K.ideal, Sp.ideal)
        moved += Sp != S
    assert len(kinds) == 10 and moved >= 100, (kinds, moved)


def test_dual_of_any_s_stable_set_matches_oracle():
    # the Delta description of K⁰ - E needs only E + S ⊆ E: E = R + S for
    # a raw frame R, often failing (E1) or capped above mu_E + gamma_S,
    # where the box read from E must reach gamma_E
    rng = random.Random(20261020)
    seen = [0, 0]
    for k in range(120):
        s = 1 + k % 3
        S = random_good_semigroup(rng, s, max_gamma=(9, 6, 4)[s - 1])
        B = tuple(rng.randint(0, 3) for _ in range(s))
        mu = tuple(rng.randint(-3, 3) for _ in range(s))
        pts = {(0,) * s, B}
        pts |= {tuple(rng.randint(0, b) for b in B) for _ in range(rng.randint(0, 6))}
        R = IdealFrame(s, mu, oracles.add(B, mu), {oracles.add(p, mu) for p in pts})
        E = sum_ideals(R, S.ideal)
        seen[0] += not E.is_e1()
        seen[1] += any(g > m + c for g, m, c in zip(E.gamma, E.mu, S.gamma))
        K0 = canonical_normalized(S)
        lo = tuple(-m - 1 for m in E.mu)
        hi = tuple(c - m + 1 for c, m in zip(S.gamma, E.mu))
        f_hi = tuple(max(f, t - l) + 1 for f, t, l in zip(E.gamma, K0.gamma, lo))
        want = oracles.difference_points(K0.contains, E.contains, lo, hi, E.mu, f_hi)
        D = duality._dual_normalized(S, E)
        assert {p for p in oracles.box(lo, hi) if p in D} == want
    assert min(seen) >= 15, seen


def test_duals_run_without_translates(monkeypatch):
    # K⁰, K - E and K - S' take no erosion: with the translate helper
    # broken they must still give the erosion's answers
    S, E = random_pair(random.Random(33), 2)  # gamma_S = (6, 4), S' != S
    K = CanonicalIdeal.certify(canonical_normalized(S).shift((2, -1)), S)
    Sp = GoodSemigroup(difference(E, E))
    want = (K.ideal, difference(K.ideal, E), difference(K.ideal, Sp.ideal))
    validate(E, S)  # cached, so dualize's own check needs no sweep

    def broken(*args):
        raise AssertionError("translate sweep called")

    # duality binds the name itself, so both bindings are broken
    monkeypatch.setattr(axioms, "_reduce_translates", broken)
    monkeypatch.setattr(duality, "_reduce_translates", broken)
    with pytest.raises(AssertionError, match="translate sweep"):
        difference(K.ideal, E)
    got = (canonical_normalized(S).shift((2, -1)), dualize(K, E), push_forward(K, Sp).ideal)
    assert got == want


def test_canonical_ideal_refuses_a_semigroup_that_is_not_certified():
    # T fails the semigroup axioms: 1 + 1 = 2 is not in T.  Each refusal
    # names the function that certifies T and carries that witness
    T = IdealFrame(1, (0,), (3,), [(0,), (1,), (3,)])
    S = numerical_semigroup(3, 4, 5)
    assert is_subset(S, T)
    K0 = canonical_normalized(S)
    for call, name in [
        (lambda: push_forward(CanonicalIdeal.normalized(S), T), "push_forward"),
        (lambda: CanonicalIdeal.certify(K0, T), "canonical_normalized"),
        (lambda: CanonicalIdeal.normalized(T), "canonical_normalized"),
        (lambda: CanonicalIdeal(K0, T, (0,)), "CanonicalIdeal"),
    ]:
        with pytest.raises(NotCertifiedError, match=f"^{name} needs a good semigroup") as exc:
            call()
        assert exc.value.report.additivity_failures == [((1,), (1,))]


@pytest.mark.parametrize(
    "call, X, why",
    [
        (canonical_normalized, IdealFrame(1, (-1,), (-1,), [(-1,)]), r"minimum 0, got mu=\(-1,\)"),
        (canonical_normalized, IdealFrame(2, (-2, -2), (-2, -2), [(-2, -2)]), r"minimum 0, got mu=\(-2, -2\)"),
        # 1 + N passes E + E ⊆ E, but holds no 0
        (canonical_normalized, IdealFrame(1, (1,), (1,), [(1,)]), r"minimum 0, got mu=\(1,\)"),
        (canonical_normalized, IdealFrame(2, (0, 0), (2, 2), [(0, 0), (0, 2), (2, 2)]),
         r"E2 witness: pair \(0, 0\), \(0, 2\) agreeing in coordinate 0"),
        # is_symmetric certifies S through canonical_normalized
        (is_symmetric, IdealFrame(1, (0,), (3,), [(0,), (1,), (3,)]), r"ideal witness: \(1,\) \+ \(1,\) is missing"),
    ],
    ids=["gamma-1", "gamma-2-2", "mu-1", "not-e2", "symmetric-not-additive"],
)
def test_functions_relative_to_s_refuse_a_non_semigroup_by_name(call, X, why):
    with pytest.raises(NotCertifiedError, match=f"^canonical_normalized needs a good semigroup S:(?s:.*){why}"):
        call(X)
    assert "k0" not in X._store


def test_differences_and_sums_of_good_ideals_need_not_be_good(fixture_dir):
    # S = Γ_R of a curve and its maximal ideal M = S ∖ {0} are good, but
    # S - M and K⁰ + M fail (E2)
    spec = parse_curve((fixture_dir / "not_good_difference.curve").read_text())
    S = GoodSemigroup(value_ideal(spec))
    assert S.conductor == (7, 16)
    M = IdealFrame.from_points([p for p in S.frame_sorted if any(p)], gamma=S.gamma)
    assert validate(M, S).ok
    D = difference(S, M)
    report = validate(D)
    assert report.e1_ok and not report.e2_ok
    assert report.e2_failures[0] == ((3, 6), (4, 6), 1)
    with pytest.raises(NotCertifiedError, match="^distance requires the larger ideal") as exc:
        relative_distance(S, D)
    assert exc.value.report.e2_failures == report.e2_failures
    report = validate(sum_ideals(canonical_normalized(S), M))
    assert report.e1_ok and report.e2_failures[0] == ((3, 8), (4, 8), 1)


def test_product_canonical_matches_product(fig_s):
    B = GoodSemigroup.from_points([(0,), (2,)], gamma=(2,))
    P = product_semigroups(fig_s, B)
    dec = g.decompose(P)
    K_prod = product_canonical(dec)
    assert K_prod == canonical_normalized(P)


def test_sum_with_canonical_stays_inside(fig_s):
    # K0 is an ideal: K0 + S is contained in K0
    K = canonical_normalized(fig_s)
    assert is_subset(sum_ideals(K, fig_s.ideal), K)


def test_canonical_json_roundtrip(fig_s):
    K = canonical_normalized(fig_s)
    assert g.from_json(to_json(K)) == K
