import copy
import json
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import load_text
import goodsemi as g
from goodsemi import axioms, ideals
from goodsemi import (
    FrameError,
    GoodSemigroup,
    IdealFrame,
    NotCertifiedError,
    ParseError,
    canonical_normalized,
    decompose,
    difference,
    from_json,
    is_local,
    is_subset,
    product_semigroups,
    recombine,
    sum_ideals,
    to_json,
    validate,
)


def corner_pred(p):
    """Membership in {0} u ((3,1)+N^2)."""
    return p == (0, 0) or (p[0] >= 3 and p[1] >= 1)


def staircase_pred(p):
    x, y = p
    if (x, y) in {(0, 0), (3, 2), (5, 4), (6, 4)}:
        return True
    if x == 5 and y >= 6:
        return True
    return x >= 8 and y >= 6


def e_pred(p):
    """The (E1)-only ideal drawn over the staircase semigroup."""
    x, y = p
    return (
        (y == 2 and 1 <= x <= 3)
        or (y == 4 and 4 <= x <= 6)
        or (x >= 6 and y >= 5)
    )


# ------------------------------------------------------------ construction


def test_from_points_normalizes_padded_gamma():
    # the same set declared with a lazily large capping bound shrinks
    a = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    pts = oracles.points_of(corner_pred, (0, 0), (6, 4))
    b = IdealFrame.from_points(sorted(pts), gamma=(6, 4))
    assert b.gamma == (3, 1)
    assert a == b
    assert a.fingerprint() == b.fingerprint()


def test_gamma_must_be_member():
    with pytest.raises(FrameError):
        IdealFrame.from_points([(0, 0), (3, 1)], gamma=(4, 2))


def test_frame_needs_minimum():
    with pytest.raises(FrameError, match="must belong"):
        IdealFrame.from_points([(0, 1), (1, 0), (1, 1)], gamma=(1, 1))


@pytest.mark.parametrize("bad", [True, 2.9, "1"], ids=["bool", "float", "str"])
def test_non_integer_coordinates_are_refused(bad):
    # int() would turn True into 1, 2.9 into 2 and "1" into 1 without a word
    for mu, gamma, pts in (
        ((0,), (2,), [(0,), (bad,), (2,)]),
        ((0,), (bad,), [(0,)]),
        ((bad,), (2,), [(0,), (2,)]),
    ):
        with pytest.raises(FrameError, match="non-integer"):
            IdealFrame(1, mu, gamma, pts)
    with pytest.raises(FrameError, match="non-integer"):
        IdealFrame.from_points([(0, 0), (bad, 1)], gamma=(3, 1))
    text = json.dumps({"s": 1, "mu": [0], "gamma": [2], "frame": [[0], [bad], [2]]})
    with pytest.raises(ParseError, match=r"frame point \[.+\] has a non-integer coordinate"):
        from_json(text)
    with pytest.raises(ParseError, match="non-integer"):
        from_json('{"s": 1, "mu": [0], "gamma": [2.9], "frame": [[0], [2.9], [true]]}')
    # points given to a built frame, 3 and 4 members of <3,4>
    E = g.numerical_semigroup(3, 4).ideal
    for call in (
        lambda: E.contains((bad,)),
        lambda: E.shift((bad,)),
        lambda: E.membership_box((0,), (bad,)),
        lambda: g.distance_between(E, (bad,), (4,)),
    ):
        with pytest.raises(FrameError, match=f"non-integer coordinate {bad!r}"):
            call()


def test_empty_point_is_a_frame_error():
    # the package's own input error, not a bare ValueError
    E = g.numerical_semigroup(3, 4).ideal
    for call in (lambda: E.contains(()), lambda: E.membership_box((), (4,)), lambda: E.membership_box((0,), ())):
        with pytest.raises(FrameError, match="a point needs at least one coordinate"):
            call()


@pytest.mark.parametrize("bad", [True, 1.9, "1"], ids=["bool", "float", "str"])
def test_non_integer_branch_count_is_refused(bad):
    # int() would load each of these as s = 1
    with pytest.raises(FrameError, match=f"branch count {bad!r} is not an integer"):
        IdealFrame(bad, (0,), (2,), [(0,), (2,)])
    text = json.dumps({"s": bad, "mu": [0], "gamma": [2], "frame": [[0], [2]]})
    with pytest.raises(ParseError, match="branch count"):
        from_json(text)
    assert IdealFrame(np.int64(1), (0,), (2,), [(0,), (2,)]).s == 1


def test_numpy_integer_coordinates_are_accepted():
    E = IdealFrame(2, np.array([0, 0]), (np.int32(3), 1), np.array([[0, 0], [3, 1]]))
    assert E == IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    assert E.mu == (0, 0) and type(E.mu[0]) is int
    assert E.contains((np.int64(3), np.int8(1))) and not E.contains(np.array([2, 1]))


def test_membership_matches_predicate_everywhere():
    E = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    for p in oracles.box((-2, -2), (8, 6)):
        assert (p in E) == corner_pred(p), p


def test_staircase_membership():
    S = IdealFrame.from_points(
        [(0, 0), (3, 2), (5, 4), (6, 4), (5, 6), (8, 6)], gamma=(8, 6)
    )
    for p in oracles.box((0, 0), (11, 9)):
        assert S.contains(p) == staircase_pred(p), p
    assert S.contains((7, 4)) is False
    assert S.contains((5, 40))
    assert S.contains((40, 40))


def test_capping_bound_can_exceed_conductor():
    E = IdealFrame.from_points(
        [(1, 2), (2, 2), (3, 2), (4, 4), (5, 4), (6, 4), (6, 5), (7, 5)],
        gamma=(7, 5),
    )
    assert E.conductor == (6, 5)
    assert E.gamma == (7, 5)
    assert (7, 4) not in E  # the point the conductor bound would corrupt
    for p in oracles.box((0, 0), (10, 8)):
        assert (p in E) == e_pred(p), p


def test_contains_agrees_with_the_predicate_on_tuples_and_numpy_rows():
    E = IdealFrame.from_points(
        [(1, 2), (2, 2), (3, 2), (4, 4), (5, 4), (6, 4), (6, 5), (7, 5)],
        gamma=(7, 5),
    )
    pts = list(oracles.box((-1, -1), (9, 7)))
    got = [E.contains(p) for p in pts]
    assert got == [p in E for p in pts]
    assert got == [e_pred(p) for p in pts]
    # each row of an (n, s) integer array is a point
    assert [E.contains(row) for row in np.array(pts, dtype=np.int64)] == got


def test_members_in_box_is_lex_sorted():
    E = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    mem = E.members_in_box((0, 0), (5, 3))
    assert mem == sorted(mem)
    assert mem[0] == (0, 0)
    assert set(mem) == oracles.points_of(corner_pred, (0, 0), (5, 3))


def test_membership_box_windows():
    E = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    grid = E.membership_box((-1, -1), (5, 2))
    assert isinstance(grid, ideals.Box)
    assert grid.lo == (-1, -1) and grid.shape == (7, 4) and grid.size == 28
    assert type(grid.bits) is int and grid.bits.bit_length() <= grid.size
    for k, p in enumerate(oracles.box((-1, -1), (5, 2))):
        # cell p is bit (p - lo)·strides, C order
        assert grid[p[0] + 1, p[1] + 1] == corner_pred(p) == bool(grid.bits >> k & 1)
    assert grid.points() == sorted(oracles.points_of(corner_pred, (-1, -1), (5, 2)))
    with pytest.raises(IndexError):
        grid[7, 0]


def test_membership_box_of_no_cells_or_below_mu():
    S = g.numerical_semigroup(3, 5)  # gamma 8
    P = product_semigroups(S, S)
    # an axis with hi = lo - 1 above gamma holds no cells, so no bits
    for E, lo, hi, shape in [(S, (9,), (8,), (0,)), (S, (20,), (19,), (0,)), (P, (9, 0), (8, 3), (0, 4))]:
        box = E.membership_box(lo, hi)
        assert box.shape == shape and box.size == 0 and box.bits == 0 and box.points() == []
    # a box wholly below mu holds no members
    assert S.shift((2,)).membership_box((-3,), (1,)).bits == 0
    box = P.shift((1, 4)).membership_box((-2, 5), (0, 9))
    assert box.shape == (3, 5) and box.bits == 0


def test_shift_translates_everything():
    E = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    T = E.shift((-2, 5))
    assert T.mu == (-2, 5)
    assert T.gamma == (1, 6)
    assert T.conductor == (1, 6)
    assert ((-2, 5) in T) and ((1, 6) in T) and ((0, 5) not in T)
    back = T.shift((2, -5))
    assert back == E


@pytest.mark.parametrize("gamma", [(3, 1), (5, 1)])
def test_cached_bitmap_is_read_only(gamma):
    # (5, 1) is shrunk to (3, 1) by normalization, which builds a new bitset
    E = IdealFrame.from_points([(0, 0), (3, 1), gamma], gamma=gamma)
    T = E.shift((1, 2))
    # the shift shares the state, an immutable int: writing to it rebinds
    # a local name and changes no frame
    assert type(E._bits) is int and T._bits is E._bits
    bits = T._bits
    bits |= 1 << 1
    assert bits != T._bits
    assert (1, 0) not in E and (2, 2) not in T
    assert E.members_in_box((0, 0), (3, 1)) == [(0, 0), (3, 1)]


def test_frame_view_matches_the_frozenset_of_its_points():
    # good ideals as drawn, shifted by up to 3 cells either way, and raw
    # frames with mu in [-3, 2]^s; each X is a fresh shift, so its points
    # are built only when the view is iterated
    rng = random.Random(20261021)
    for k in range(240):
        s = rng.randint(1, 3)
        if k % 3 == 2:
            E, alpha = _raw_frame(rng, s, False)[0], (0,) * s
        else:
            E = g.random_pair(rng, s, max_gamma=4)[1]
            alpha = (0,) * s if k % 3 == 0 else tuple(rng.randint(-3, 3) for _ in range(s))
        X = E.shift(alpha)
        view, want = X.frame, frozenset(E.shift(alpha).frame_sorted)
        assert len(view) == len(want)
        for p in oracles.box(oracles.add(X.mu, (-2,) * s), oracles.add(X.gamma, (2,) * s)):
            assert (p in view) == (p in want), (X, p)
            assert X.contains(p) == (oracles.cmin(p, X.gamma) in view), (X, p)
        assert "points" not in X._store, X
        assert view == want and want == view and not view != want
        assert hash(view) == hash(want)
        assert tuple(view) == X.frame_sorted
        other = frozenset(oracles.add(p, (1,) * s) for p in want)
        for got, ref in [(view | other, want | other), (other | view, other | want),
                         (view & other, want & other), (other & view, other & want),
                         (view - other, want - other), (other - view, other - want)]:
            assert type(got) is frozenset and got == ref


@pytest.mark.parametrize("p", [[3, 2], ([3], 2), (3,), (3, 2, 0), (3.0, 2), (3.5, 2), 3.0, 3.5, True, (True, 0),
                               (False, False), (np.int64(3), np.int64(2)), np.int64(3), "ab", ""])
def test_frame_view_answers_odd_points_like_the_frozenset(p):
    E = IdealFrame.from_points([(0, 0), (1, 0), (3, 2), (5, 4)], gamma=(5, 4))
    answers = []
    for frame in (E.frame, frozenset(E.frame_sorted)):
        try:
            answers.append(p in frame)
        except TypeError as exc:
            answers.append((TypeError, str(exc)))
    assert answers[0] == answers[1]


# -------------------------------------------------------------- validation


def test_validate_good_semigroup():
    S = IdealFrame.from_points(
        [(0, 0), (3, 2), (5, 4), (6, 4), (5, 6), (8, 6)], gamma=(8, 6)
    )
    rep = validate(S, S)
    assert rep.ok
    assert rep.e1_ok and rep.e2_ok and rep.additivity_ok
    assert "pass" in rep.summary()


def test_validate_detects_e1_failure():
    # two incomparable points whose min is absent
    E = IdealFrame.from_points(
        [(0, 0), (1, 2), (2, 1), (2, 2)], gamma=(2, 2)
    )
    rep = validate(E)
    assert not rep.e1_ok
    assert ((1, 2), (2, 1)) in [(a, b) for a, b in rep.e1_failures]
    assert not rep.ok


def test_validate_detects_e2_failure(wide_s, wide_e):
    rep = validate(wide_e, wide_s)
    assert rep.e1_ok
    assert not rep.e2_ok
    assert rep.additivity_ok
    # cross-check every reported pair against the brute-force axiom
    pred = wide_e.contains
    bad = oracles.exchange_violations(
        wide_e.frame_sorted, pred, (9, 7)
    )
    assert bad, "oracle must agree the exchange axiom fails"
    got = {(a, b) for a, b, _ in rep.e2_failures}
    want = {(a, b) for a, b, _ in bad}
    assert got <= want


def test_validate_additivity_failure():
    # {0} u ((1,1)+N^2) is good; remove interior point (2,2) from a copy
    # by using a frame that is min-closed but not closed under addition
    E = IdealFrame.from_points(
        [(0, 0), (1, 1), (1, 2), (2, 1), (3, 3)],
        gamma=(3, 3),
    )
    S = GoodSemigroup.from_points([(0, 0), (1, 1)], gamma=(1, 1))
    rep = validate(E, S)
    assert rep.additivity_ok is False
    # every (e, sigma) with e + sigma missing, sigma-major and then lex in
    # e; sigma runs over S ∩ [0, max(gamma_S, gamma_E - mu_E) + 1]
    want = [
        (e, sigma)
        for sigma in oracles.box((0, 0), (4, 4))
        if S.contains(sigma)
        for e in E.frame_sorted
        if not E.contains(oracles.add(e, sigma))
    ]
    assert len({sigma for _, sigma in want}) > 1
    assert rep.additivity_failures == want


def test_validation_report_is_cached(monkeypatch, wide_s, wide_e):
    # kept in the frame's store: a second call scans nothing, and each
    # caller gets an equal report of its own
    r1 = validate(wide_e, wide_s)
    scans = []
    for name in ("_e1_failures", "_e2_failures", "_additivity_failures"):
        monkeypatch.setattr(axioms, name, lambda *a, name=name: scans.append(name))
    r2 = validate(wide_e, wide_s)
    assert r1 == r2 and r1 is not r2 and r2 is not wide_e._store[("report", wide_s.fingerprint())]
    assert scans == []


def test_validate_leaves_the_conductor_of_a_good_frame_unread():
    # when (E1) and (E2) hold the normalized gamma is the conductor
    S = IdealFrame.from_points([(0, 0), (3, 2), (5, 4), (6, 4), (5, 6), (8, 6)], gamma=(8, 6))
    assert validate(S, S).ok
    assert "conductor" not in S._store
    assert S.conductor == S.gamma


def test_validate_notes_a_gamma_above_the_conductor_of_a_non_good_frame():
    E = IdealFrame.from_points(
        [(1, 2), (2, 2), (3, 2), (4, 4), (5, 4), (6, 4), (6, 5), (7, 5)],
        gamma=(7, 5),
    )
    rep = validate(E)
    assert not rep.ok
    assert rep.notes[0] == (
        "capping bound (7, 5) exceeds the conductor (6, 5); "
        "the stored frame is definitional for this (non-good) set"
    )
    assert "  note: capping bound (7, 5) exceeds the conductor (6, 5); " in rep.summary()


def test_good_semigroup_certification():
    S = GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    assert S.gamma == (3, 1)
    assert S.contains((40, 2))
    with pytest.raises(NotCertifiedError):
        GoodSemigroup.from_points(
            [(0, 0), (1, 2), (2, 1), (2, 2)], gamma=(2, 2)
        )
    with pytest.raises(NotCertifiedError, match="minimum 0"):
        GoodSemigroup.from_points([(1, 1)], gamma=(1, 1))


def test_good_semigroup_is_a_frame(fig_s):
    frame = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    S = GoodSemigroup(frame)
    assert isinstance(S, IdealFrame) and S.ideal is S
    assert S == frame and hash(S) == hash(frame) and S == fig_s
    again = GoodSemigroup(S)  # a semigroup is a frame, so it certifies again
    assert type(again) is GoodSemigroup and again == S
    moved = S.shift((1, 2))
    assert type(moved) is IdealFrame and moved.mu == (1, 2)
    # {0, 1} ∪ (3 + N) misses 1 + 1: read through GoodSemigroup it stays a plain frame
    assert type(GoodSemigroup._from_box(ideals.Box((0,), (4,), 0b1011))) is IdealFrame
    assert repr(S).startswith("GoodSemigroup(s=2, mu=(0, 0), gamma=(3, 1)")
    twin = pickle.loads(pickle.dumps(S))
    assert type(twin) is GoodSemigroup and twin == S and twin.conductor == S.conductor == (3, 1)


def test_a_frame_and_its_semigroup_build_the_families_once(monkeypatch):
    E = IdealFrame.from_points([(3, 1), (3, 2)], gamma=(3, 2))
    plain = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    assert plain._store == {}
    built = []
    real = axioms._apery_families
    monkeypatch.setattr(axioms, "_apery_families", lambda S: built.append(S) or real(S))
    assert axioms._additivity_holds(E, plain) and axioms._additivity_holds(E, plain)
    assert built == [plain] and isinstance(plain._store["families"], ideals.Box)
    S = GoodSemigroup(plain)  # the same store, so its own check E + S ⊆ E builds nothing
    assert S._store is plain._store and not hasattr(S, "__dict__")
    assert axioms._additivity_holds(E, S) and validate(E.shift((1, 0)), S).ok
    assert built == [plain]
    twin = IdealFrame(2, (0, 0), (3, 1), plain.frame_sorted)  # the same set, a store of its own
    assert axioms._additivity_holds(E, twin) and built == [plain, twin]


def test_validate_hands_out_reports_the_caller_owns():
    # an edit to a returned report changes no later answer
    E = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    validate(E).e2_ok = False
    S = GoodSemigroup(E)  # certified from the kept report, not the edited copy
    moved = S.shift((1, 2))  # carries S's clean reports
    validate(moved).notes.append("edited")
    assert validate(S).notes == validate(moved).notes == [] and validate(E).e2_ok
    bad = IdealFrame.from_points([(0, 0), (1, 2), (2, 1), (2, 2)], gamma=(2, 2))  # (1, 1) is missing
    full, alone = validate(bad, S), validate(bad)
    assert full.e1_failures == alone.e1_failures == [((1, 2), (2, 1))]
    assert full.e1_failures is not alone.e1_failures
    text = full.summary()
    alone.e1_failures.clear()
    alone.notes.clear()
    assert validate(bad, S) == full and validate(bad, S).summary() == text
    assert validate(bad).e1_failures == full.e1_failures and validate(bad).notes == full.notes != []


_ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda X: pickle.loads(pickle.dumps(X))]


def _store_answers(X, A):
    """What a frame's store holds, asked afresh: the reports on their own
    and over the ambient A, (E1), conductor, points, E + S ⊆ E with X and
    A as S, and K⁰ - X (or the error it raises on a raw frame)."""
    try:
        K0 = canonical_normalized(X)
    except (FrameError, ValueError) as exc:
        K0 = repr(exc)
    return (validate(X), validate(X, A), X.is_e1(), X.conductor, X.frame_sorted,
            axioms._additivity_holds(X, X), axioms._additivity_holds(X, A), K0)


def test_what_travels_with_a_frame():
    # good ideals and semigroups as drawn, and raw frames that fail (E1) or
    # (E2): a shift answers as a fresh frame of the same points, and carries
    # only clean reports, the (E1) status and the moved conductor
    rng = random.Random(20261020)
    frames = []
    for k in range(30):
        S, E = g.random_pair(rng, k % 3 + 1, max_gamma=5)
        frames += [(S, S), (E, S)]
    while len(frames) < 100:
        X = _raw_frame(rng, rng.randint(1, 3), rng.random() < 0.5)[0]
        if not validate(X).ok:
            frames.append((X, X))
    reports = []
    for k, (X, A) in enumerate(frames):
        before = _store_answers(X, A)
        reports.append(before[0])
        alpha = tuple(rng.randint(-3, 3) for _ in range(X.s))
        Y = X.shift(alpha)
        carried = {key for key, got in X._store.items() if type(key) is tuple and got.ok}
        assert set(Y._store) == {"e1", "conductor"} | carried, (X, alpha)
        assert Y._store["conductor"] == oracles.add(X.conductor, alpha)
        fresh = IdealFrame(X.s, Y.mu, Y.gamma, [oracles.add(p, alpha) for p in X.frame_sorted])
        assert _store_answers(Y, A) == _store_answers(fresh, A), (X, alpha)
        twin = _ROUND_TRIPS[k % 3](X)
        assert type(twin) is type(X) and twin == X and set(twin._store) == set(X._store)
        assert _store_answers(twin, A) == before, (X, k % 3)
    assert sum(not r.ok for r in reports) == 40
    assert any(not r.e1_ok for r in reports) and any(r.e1_ok and not r.e2_ok for r in reports)


@pytest.mark.parametrize("twin_of", _ROUND_TRIPS, ids=["copy", "deepcopy", "pickle"])
def test_a_semigroup_with_kept_results_round_trips(twin_of):
    S = product_semigroups(g.numerical_semigroup(3, 5), g.numerical_semigroup(2, 3))
    K0, families = canonical_normalized(S), S._store["families"]
    twin = twin_of(S)
    assert type(twin) is GoodSemigroup and twin == S and hash(twin) == hash(S)
    kept = twin._store["families"]
    assert twin._store["k0"] == K0 and canonical_normalized(twin) is twin._store["k0"]
    assert (kept.lo, kept.shape, kept.bits) == (
        families.lo, families.shape, families.bits)
    assert g.is_symmetric(twin) == g.is_symmetric(S)
    E = S.shift((1,) * S.s)
    assert validate(E, twin).ok and validate(K0, twin).ok
    assert g.dualize(g.CanonicalIdeal.normalized(twin), E) == g.dualize(g.CanonicalIdeal.normalized(S), E)
    corner = IdealFrame.from_points([(0,) * S.s, S.gamma], gamma=S.gamma)  # {0} ∪ (gamma + N^s)
    assert validate(corner, twin).additivity_failures == validate(corner, S).additivity_failures != []


@pytest.mark.parametrize("bad", [[(0, 0)], (0, 0), "corner_s.json", None])
def test_good_semigroup_refuses_a_non_frame_by_type(bad):
    with pytest.raises(FrameError, match=f"built from an IdealFrame, got {type(bad).__name__}"):
        GoodSemigroup(bad)


@pytest.mark.parametrize(
    "call, name, bad",
    [
        (lambda E, x: g.validate(x), "validate", "E"),
        (lambda E, x: g.validate(E, x), "validate", "S"),
        (lambda E, x: g.sum_ideals(E, x), "sum_ideals", "F"),
        (lambda E, x: g.is_subset(x, E), "is_subset", "E"),
        (lambda E, x: g.difference(E, x), "difference", "F"),
        (lambda E, x: g.is_canonical(x, E), "is_canonical", "K"),
        (lambda E, x: g.relative_distance(E, x), "relative_distance", "F"),
    ],
)
@pytest.mark.parametrize("x", [[(0, 0)], "x", (0, 0), 3])
def test_frame_arguments_are_refused_by_name_and_type(fig_s, call, name, bad, x):
    with pytest.raises(FrameError, match=rf"^{name} takes an IdealFrame as {bad}, got {type(x).__name__}$"):
        call(fig_s, x)


def test_e2_failures_build_the_exchange_tables_once(monkeypatch):
    E = IdealFrame.from_points([(0, 0), (1, 1), (2, 1), (2, 2)], gamma=(2, 2))
    calls = []
    build = axioms._exchange_tables

    def counted(F):
        calls.append(F)
        return build(F)

    monkeypatch.setattr(axioms, "_exchange_tables", counted)
    assert axioms._e2_failures(E) == [((1, 1), (2, 1), 1)]
    assert len(calls) == 1


def test_exchange_scan_agrees_with_oracle_on_randoms(rng):
    import goodsemi.generate as gen

    for _ in range(8):
        S = gen.random_good_semigroup(rng, 2, max_gamma=5)
        E = S.ideal
        bad = oracles.exchange_violations(
            E.frame_sorted, E.contains, tuple(x + 1 for x in E.gamma)
        )
        assert bad == []
        rep = validate(E)
        assert rep.e2_ok


def _random_frames(rng, count=400):
    """Frames from random point sets in small boxes, s = 1-4; about half
    are closed under min first, so that (E2) failures are reached too."""
    for _ in range(count):
        s = rng.randint(1, 4)
        B = tuple(rng.randint(1, 4 if s <= 2 else 2) for _ in range(s))
        pts = {(0,) * s, B}
        for _ in range(rng.randint(1, 10)):
            pts.add(tuple(rng.randint(0, b) for b in B))
        if rng.random() < 0.5:
            while True:
                extra = {oracles.cmin(p, q) for p in pts for q in pts} - pts
                if not extra:
                    break
                pts |= extra
        yield IdealFrame(s, (0,) * s, B, pts)


def test_axiom_scans_match_oracles_on_failing_and_passing_sets(rng):
    seen = {"e1": [0, 0], "e2": [0, 0]}
    for E in _random_frames(rng):
        rep = validate(E)
        frame = E.frame_sorted
        want_e1 = [
            (p, q)
            for p in frame
            for q in frame
            if p < q and oracles.cmin(p, q) not in E.frame
        ]
        assert rep.e1_ok == oracles.min_closed(frame)
        assert rep.e1_failures == want_e1
        bad = oracles.exchange_violations(
            frame, E.contains, tuple(x + 1 for x in E.gamma)
        )
        assert rep.e2_ok == (bad == [])
        assert set(rep.e2_failures) == set(bad)
        # the sweeps alone, which also decide whether witnesses are listed
        assert axioms._e1_holds(E) == rep.e1_ok
        assert axioms._e2_holds(E) == rep.e2_ok
        seen["e1"][rep.e1_ok] += 1
        seen["e2"][rep.e2_ok] += 1
    # [failing, passing] per axiom: both sides must be exercised
    assert min(seen["e1"] + seen["e2"]) >= 50, seen


def test_e2_failure_on_an_incomparable_pair_only():
    # (0,3,2) and (1,1,2) share axis 2 and each sits above their min on one
    # of the other axes; no comparable pair fails
    E = IdealFrame.from_points(
        [(0, 0, 0), (0, 3, 2), (1, 1, 2), (2, 0, 0), (3, 3, 3)], gamma=(3, 3, 3)
    )
    bad = oracles.exchange_violations(E.frame_sorted, E.contains, (4, 4, 4))
    assert bad == [((0, 3, 2), (1, 1, 2), 2)]
    rep = validate(E)
    assert not rep.e2_ok
    assert rep.e2_failures == bad


def test_e2_failure_path_does_not_import_numpy_ma(wide_e):
    # the library imports no numpy at all, on the failure path included
    code = (
        "import sys\n"
        "from goodsemi import from_json, validate\n"
        "rep = validate(from_json(sys.stdin.read()))\n"
        "assert rep.e2_failures, rep.summary()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = os.path.dirname(os.path.dirname(g.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=to_json(wide_e),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_is_e1_agrees_with_validate(rng):
    for E in _random_frames(rng):
        got = E.is_e1()  # before validate caches a report
        assert got == validate(E).e1_ok


# ------------------------------------------------------------- operations


def test_sum_matches_oracle_on_worked_pair():
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    F = IdealFrame.from_points([(3, 1), (4, 2)], gamma=(4, 2))
    out = sum_ideals(E, F)
    assert out.frame_sorted == ((5, 2), (5, 3), (6, 2), (6, 3), (7, 3))
    assert out.mu == (5, 2)
    assert out.conductor == (5, 3)
    assert out.gamma == (7, 3)
    want = oracles.sum_points(
        E.contains, F.contains, (5, 2), (9, 6), E.mu, F.mu
    )
    got = {p for p in oracles.box((5, 2), (9, 6)) if p in out}
    assert got == want


def test_sum_covers_offframe_contributions():
    # regression: the F-part of a sum may lie beyond F's capping bound
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    F = IdealFrame.from_points([(3, 1), (4, 2)], gamma=(4, 2))
    out = sum_ideals(E, F)
    assert (7, 4) in out  # (2,2) + (5,2), with (5,2) outside F's frame box


def test_sum_commutes():
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    F = IdealFrame.from_points([(3, 1), (4, 2)], gamma=(4, 2))
    assert sum_ideals(E, F) == sum_ideals(F, E)


def _raw_frame(rng, s, close):
    """A frame from random points over [mu, mu + B] holding both corners,
    mu in [-3, 2]^s, closed under componentwise min when ``close``; with
    its membership predicate, built from the points alone."""
    B = tuple(rng.randint(0, 3 if s <= 2 else 2) for _ in range(s))
    mu = tuple(rng.randint(-3, 2) for _ in range(s))
    pts = {(0,) * s, B}
    for _ in range(rng.randint(0, 8)):
        pts.add(tuple(rng.randint(0, b) for b in B))
    while close:
        extra = {oracles.cmin(p, q) for p in pts for q in pts} - pts
        if not extra:
            break
        pts |= extra
    pts = {oracles.add(p, mu) for p in pts}
    gamma = oracles.add(B, mu)
    return IdealFrame(s, mu, gamma, pts), lambda p: oracles.cmin(p, gamma) in pts


def test_folded_sum_and_difference_match_oracles_on_raw_frames():
    # each frame point c of F stands for c + N^T, T = {i : c_i = gamma_F,i}:
    # the oracle boxes reach past gamma_F on every axis, and every tail
    # mask T of three axes must be met
    rng = random.Random(20260818)
    tails, diffs = set(), 0
    for _ in range(150):
        s = rng.randint(1, 3)
        (E, pe), (F, pf) = (_raw_frame(rng, s, rng.random() < 0.7) for _ in range(2))
        if s == 3:
            tails |= {tuple(x == g for x, g in zip(c, F.gamma)) for c in F.frame_sorted}
        lo = tuple(a + b - 1 for a, b in zip(E.mu, F.mu))
        hi = tuple(a + b + 1 for a, b in zip(E.gamma, F.gamma))
        P = sum_ideals(E, F)
        want = oracles.sum_points(pe, pf, lo, hi, E.mu, F.mu)
        assert {p for p in oracles.box(lo, hi) if p in P} == want
        if not (E.is_e1() and F.is_e1()):
            continue
        diffs += 1
        D = difference(E, F)
        lo = tuple(a - b - 1 for a, b in zip(E.mu, F.mu))
        hi = tuple(a - b + 1 for a, b in zip(E.gamma, F.mu))
        f_hi = tuple(max(f, e - l) + 1 for f, e, l in zip(F.gamma, E.gamma, lo))
        want = oracles.difference_points(pe, pf, lo, hi, F.mu, f_hi)
        assert {p for p in oracles.box(lo, hi) if p in D} == want
    assert len(tails) == 8 and diffs >= 50, (tails, diffs)


def test_folded_sum_and_difference_match_oracles_at_four_branches():
    # the raw-frame oracle checks at s = 4, where all 16 tail masks occur;
    # every fourth F is a single frame point c (c + N^4), whose offsets
    # have zero spread on every axis
    rng = random.Random(20261019)
    tails, diffs = set(), 0
    for k in range(40):
        (E, pe), (F, pf) = (_raw_frame(rng, 4, rng.random() < 0.7) for _ in range(2))
        if k % 4 == 0:
            c = F.gamma
            F, pf = IdealFrame(4, c, c, [c]), lambda p, c=c: oracles.leq(c, p)
        tails |= {tuple(x == g for x, g in zip(c, F.gamma)) for c in F.frame_sorted}
        lo = tuple(a + b - 1 for a, b in zip(E.mu, F.mu))
        hi = tuple(a + b + 1 for a, b in zip(E.gamma, F.gamma))
        P = sum_ideals(E, F)
        want = oracles.sum_points(pe, pf, lo, hi, E.mu, F.mu)
        assert {p for p in oracles.box(lo, hi) if p in P} == want
        if not (E.is_e1() and F.is_e1()):
            continue
        diffs += 1
        D = difference(E, F)
        lo = tuple(a - b - 1 for a, b in zip(E.mu, F.mu))
        hi = tuple(a - b + 1 for a, b in zip(E.gamma, F.mu))
        f_hi = tuple(max(f, e - l) + 1 for f, e, l in zip(F.gamma, E.gamma, lo))
        want = oracles.difference_points(pe, pf, lo, hi, F.mu, f_hi)
        assert {p for p in oracles.box(lo, hi) if p in D} == want
    assert len(tails) == 16 and diffs >= 20, (tails, diffs)


def test_additivity_sweep_matches_bruteforce_verdict():
    # ambients are raw frames, some with gamma_S < 0 on an axis, where S's
    # nonnegative members c + N^T lie beyond its frame box
    rng = random.Random(20260819)
    seen = [0, 0]
    below = 0
    for _ in range(240):
        s = rng.randint(1, 3)
        E, pe = _raw_frame(rng, s, False)
        S, ps = _raw_frame(rng, s, False)
        below += min(S.gamma) < 0
        top = tuple(max(g, 0) + (a - b) + 1 for g, a, b in zip(S.gamma, E.gamma, E.mu))
        es = oracles.points_of(pe, E.mu, tuple(g + 1 for g in E.gamma))
        sigmas = oracles.points_of(ps, (0,) * s, top)
        want = all(pe(oracles.add(e, sig)) for sig in sigmas for e in es)
        assert axioms._additivity_holds(E, S) == want
        assert (validate(E, S).additivity_failures == []) == want
        seen[want] += 1
    # [failing, passing]: both sides must be exercised
    assert min(seen) >= 50 and below >= 20, (seen, below)
    # good semigroups as ambients: random ones, and products with <1> = N,
    # whose top coordinate 0 gives cell 0 of S's box a tail
    seen = [0, 0]
    tails = 0
    for _ in range(160):
        s = rng.randint(1, 3)
        E, pe = _raw_frame(rng, s, False)
        if rng.random() < 0.5:
            factors = [g.numerical_semigroup(*rng.choice(((1,), (1,), (2, 3), (3, 4), (2, 5)))) for _ in range(s)]
            S = product_semigroups(*factors) if s > 1 else factors[0]
        else:
            S = g.random_good_semigroup(rng, s, max_gamma=5)
        tails += 0 in S.gamma
        top = tuple(max(c, 0) + (a - b) + 1 for c, a, b in zip(S.gamma, E.gamma, E.mu))
        es = oracles.points_of(pe, E.mu, tuple(c + 1 for c in E.gamma))
        sigmas = oracles.points_of(S.contains, (0,) * s, top)
        want = all(pe(oracles.add(e, sig)) for sig in sigmas for e in es)
        assert axioms._additivity_holds(E, S.ideal) == want
        assert (validate(E, S).additivity_failures == []) == want
        seen[want] += 1
    assert min(seen) >= 30 and tails >= 40, (seen, tails)


def test_erosions_skip_only_the_axes_where_the_window_is_flat():
    # the reducer against a reference that sweeps every tail: Apéry and
    # frame boxes, erosions and dilations, with the corners of [lo, hi]
    # moved by up to two cells, and every fourth lo put at lo_j + far_j =
    # gamma_E,j - d, d in {0, 1, 2}, with hi > lo so that the window
    # reaches gamma_E; (skipped, swept) counts erosion axes with a tail
    rng = random.Random(20261020)
    seen = [0, 0]
    for k in range(160):
        s = rng.randint(1, 3)
        S, E = g.random_pair(rng, s, max_gamma=5)
        if k % 2:
            E = _raw_frame(rng, s, False)[0]
        kind = k % 3
        if kind == 0:
            erode, by, lo, hi = True, axioms._apery_families(S), E.mu, E.gamma
        else:
            F = rng.choice([S, g.random_good_ideal(rng, S, max_shift=3)])
            by = ideals._frame_box(F)
            if kind == 1:
                erode, lo, hi = True, oracles.sub(E.mu, F.mu), oracles.sub(E.gamma, F.mu)
            else:
                erode, lo, hi = False, oracles.add(E.mu, F.mu), oracles.add(E.gamma, F.gamma)
        top = tuple(n - 1 for n in by.shape)
        if k % 4 == 3:
            lo = tuple(gm - a - b - rng.randint(0, 2) for gm, a, b in zip(E.gamma, by.lo, top))
            hi = tuple(a + rng.randint(1, 3) for a in lo)
        else:
            lo = tuple(a + rng.randint(-2, 2) for a in lo)
            hi = oracles.cmax(lo, tuple(b + rng.randint(-2, 2) for b in hi))
        offsets = [oracles.sub(c, by.lo) for c in by.points()]
        got = axioms._reduce_translates(erode, E, lo, hi, by)
        want = oracles.swept_translates(erode, E.contains, lo, hi, by.lo, offsets, top)
        assert set(got.points()) == want, (erode, E, lo, hi, by.lo, offsets)
        if erode:
            far = oracles.add(by.lo, top)
            for j in range(s):
                if any(u[j] == top[j] for u in offsets):
                    seen[lo[j] + far[j] < E.gamma[j]] += 1
    assert min(seen) >= 30, seen


def test_an_erosion_one_cell_short_of_gamma_still_sweeps(fig_s):
    # S = {0} ∪ ((3,1) + N^2); the one cell of ``by`` reaches the top of
    # axis 1 only, and x + c at x = lo lands at gamma_S,1 - 1 = 0 on it:
    # 0 is in S, but 0 + N e_1 is not
    by = ideals.Box((0, 0), (2, 1), 1)
    got = axioms._reduce_translates(True, fig_s, (0, 0), (1, 1), by)
    want = oracles.swept_translates(True, fig_s.contains, (0, 0), (1, 1), (0, 0), [(0, 0)], (1, 0))
    assert set(got.points()) == want == set()


def test_additivity_and_k0_minus_s_fold_no_axis(monkeypatch):
    # on a good ideal E of S every translate at the top of S's box lands
    # at or past gamma_E, so the reducer sweeps nothing: E + S ⊆ E folds only
    # S's own box, once, for the Apéry families that S then keeps, and K⁰ - S
    # folds nothing
    S = product_semigroups(g.numerical_semigroup(7, 9, 11), g.numerical_semigroup(5, 7),
                           g.numerical_semigroup(4, 9))
    K0 = canonical_normalized(S)
    calls = []
    real = ideals._suffix_and

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(ideals, "_suffix_and", counted)
    monkeypatch.setattr(axioms, "_suffix_and", counted)
    assert axioms._apery_families(S) is not S._store["families"]  # a fresh build, on top of the kept one
    families = len(calls)
    assert families > 0
    assert axioms._additivity_holds(S, S)
    assert len(calls) == families
    assert difference(K0, S) == K0
    assert len(calls) == families


def test_sweeps_build_no_point_tuples():
    # frames hold (s, mu, gamma, bitmap); the point tuples are built on read
    E = IdealFrame.from_points([(0, 0), (3, 2), (5, 4), (6, 4), (5, 6), (8, 6)], gamma=(8, 6))
    # a fresh S: the K⁰ a semigroup keeps would carry what earlier readers built
    S = GoodSemigroup(E)
    E.frame_sorted  # the inputs' caches must not leak into the results
    K = canonical_normalized(S)
    out = [
        sum_ideals(K, E),
        difference(K, E),
        K,
        E.shift((1, -2)),
        IdealFrame._from_box(ideals.Box((0, 0), (2, 3), (1 << 6) - 1)),
    ]
    for X in out:
        assert "points" not in X._store, X
        # size and membership read the bitset
        assert len(X.frame) == X._bits.bit_count()
        assert X.mu in X.frame and X.gamma in X.frame
        assert tuple(g + 1 for g in X.gamma) not in X.frame
        assert "points" not in X._store, X
        assert X.frame == frozenset(X.frame_sorted)


def test_subset_checks():
    S = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    E = IdealFrame.from_points(
        [(2, 1), (2, 2), (3, 1), (5, 2)], gamma=(5, 2)
    )
    assert is_subset(E, S) is False  # (2,1) not in S
    C = IdealFrame.from_points([(3, 1)], gamma=(3, 1))
    assert is_subset(C, S)
    assert is_subset(C, E) is False  # (3,2) in C but not in E
    assert is_subset(S, S)


def test_semigroup_arguments_are_read_as_their_frames():
    S = GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    E = IdealFrame.from_points([(3, 1), (3, 2)], gamma=(3, 2))
    assert sum_ideals(S, S) == sum_ideals(S.ideal, S.ideal) == S.ideal
    assert sum_ideals(E, S) == sum_ideals(S, E) == E
    assert is_subset(E, S) and is_subset(S, S) and not is_subset(S, E)
    assert difference(S, S) == difference(S.ideal, S.ideal) == S.ideal
    assert difference(E, S) == E and difference(S, E) == difference(S.ideal, E)


# ------------------------------------------- locality and decomposition


def test_is_local():
    assert is_local(GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1)))
    prod = product_semigroups(
        GoodSemigroup.from_points([(0,), (2,)], gamma=(2,)),
        GoodSemigroup.from_points([(0,), (3,)], gamma=(3,)),
    )
    assert not is_local(prod)


def test_decompose_product_roundtrip():
    A = GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    B = GoodSemigroup.from_points([(0,), (2,)], gamma=(2,))
    P = product_semigroups(A, B)
    assert P.s == 3
    dec = decompose(P)
    assert [tuple(m) for m in dec.partition] == [(0, 1), (2,)]
    assert dec.factors[0] == A and dec.factors[1] == B
    assert recombine(dec.partition, dec.factors) == P


def test_decompose_local_is_trivial():
    S = GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    dec = decompose(S)
    assert len(dec.factors) == 1
    assert dec.factors[0] == S


def test_decompose_interleaved_axes():
    # branches of one factor need not be adjacent
    A = GoodSemigroup.from_points([(0, 0), (2, 3)], gamma=(2, 3))
    B = GoodSemigroup.from_points([(0,), (4,)], gamma=(4,))
    P = recombine([(0, 2), (1,)], [A, B])
    dec = decompose(P)
    assert [tuple(m) for m in dec.partition] == [(0, 2), (1,)]
    assert dec.factors[0] == A
    assert dec.factors[1] == B


# ------------------------------------------------------------------- json


def test_json_roundtrip_is_byte_stable():
    E = IdealFrame.from_points(
        [(1, 2), (2, 2), (3, 2), (4, 4), (5, 4), (6, 4), (6, 5), (7, 5)],
        gamma=(7, 5),
    )
    text = to_json(E)
    again = from_json(text)
    assert again == E
    assert to_json(again) == text
    assert text.endswith("\n")


def test_json_fixture_files_load(fixture_dir):
    S = from_json(load_text("staircase_s.json"))
    assert S.gamma == (8, 6)
    E = from_json(load_text("staircase_e.json"))
    assert E.conductor == (6, 5)


def test_from_json_rejects_bad_keys():
    with pytest.raises(ParseError):
        from_json('{"s": 1, "mu": [0], "frame": [[0]]}')
    with pytest.raises(ParseError):
        from_json(
            '{"s": 1, "mu": [0], "gamma": [0], "frame": [[0]], "extra": 1}'
        )


@pytest.mark.parametrize("text", ["[]", "3", '"frame"', "null"])
def test_from_json_refuses_a_non_object(text):
    with pytest.raises(ParseError, match="expected a JSON object"):
        from_json(text, filename="list.json")


def test_from_json_reports_position():
    try:
        from_json('{"s": 1,\n  broken', filename="bad.json")
    except ParseError as exc:
        msg = str(exc)
        assert "bad.json" in msg
        assert "2" in msg  # line number of the syntax error
    else:
        pytest.fail("expected ParseError")


def test_fingerprint_distinguishes():
    a = IdealFrame.from_points([(0, 0), (3, 1)], gamma=(3, 1))
    b = IdealFrame.from_points([(0, 0), (1, 3)], gamma=(1, 3))
    assert a.fingerprint() != b.fingerprint()
    assert hash(a) != hash(b) or a != b
