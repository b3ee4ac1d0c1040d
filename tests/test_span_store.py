"""The per-curve span store: one held span per module, read at lower
orders over smaller boxes, pivot-lookup membership, the bootstrap's orders
and box limit, and the hot path's freedom from Fractions."""

import random
from fractions import Fraction

import pytest

import oracles
from test_bench_smoke import workloads
from goodsemi import FrameError, TruncationError, ideals
from goodsemi.ringbridge import (
    colon_value_ideal,
    conductor_of,
    curves,
    dumps_curve,
    length_quotient,
    module_generators,
    modules,
    parse_curve,
    span_basis,
    span_module,
    value_ideal,
    value_semigroup_ideal,
)

CURVES = {
    "cusp": "branches: 1\nring: (t^2) ; (t^3)\nmodule M: (t^5)\nmodule N: (t^9) ; (t^10)\n",
    "ring-6-6": "branches: 2\nring: (t^2, t^3) ; (t^3, t^2)\n"
    "module M: (t^5, t^4)\nmodule N: (t^3, t^7) ; (t^8, t^2)\n",
    "ring-5-3": "branches: 2\nring: (t^2, t) ; (t^3, 0)\n",
    "ring-2-2": "branches: 2\nring: (t, t) ; (t^2, -t^2)\n",
    "ring-16": "branches: 1\nring: (t^4) ; (t^6 + t^7)\n",
    "ring-14-12": "branches: 2\nring: (t^3, t^2) ; (t^4, t^5)\n",
    "three-branch": "branches: 3\nring: (t, t, 0) ; (0, t, t) ; (t^2, 0, t^3)\n",
}


def _fresh(spec, gens, N):
    """The span at order N built from scratch from the integer terms of
    the rational generators."""
    return span_basis(list(map(curves.integer_terms, spec.ring)), list(map(curves.integer_terms, gens)), N)


def _outcome(scan, *args):
    """What ``scan(*args)`` gives: a frame, or the type and message of its refusal."""
    try:
        return scan(*args)
    except (FrameError, TruncationError) as exc:
        return type(exc), str(exc)


def _same_values_at(held, fresh, n, what) -> bool:
    """Check that ``held``, a span of order at least n, has the values of
    ``fresh``, the span at n, over [0, n - 2]^s, read directly and through
    the store's scan at order n; return whether the corner is a value."""
    hi = (n - 2,) * fresh.s
    got = _outcome(value_semigroup_ideal, held, hi)
    if not fresh.dim:  # zero at n: no value in the box, refused with another message
        assert isinstance(got, tuple) and got[0] is FrameError, what
        return False
    assert got == _outcome(value_semigroup_ideal, fresh, hi), what
    assert _outcome(curves._scan, held, n, "it") == _outcome(curves._scan, fresh, n, "it"), what
    return not isinstance(got, tuple)


@pytest.mark.parametrize("name", ["twobranch", *CURVES])
def test_truncated_span_is_the_fresh_build(name, curve_spec):
    # the store holds one span, at the highest order built, and reads it at
    # a lower order n over [0, n - 2]^s: it has the values of the span at
    # n, below the conductor (where the scans refuse alike) and above it
    text = dumps_curve(curve_spec) if name == "twobranch" else CURVES[name]
    spec = parse_curve(text)
    for module in ["R", "Rbar", "C"] + spec.module_names():
        gens = module_generators(spec, module)
        c = max(value_ideal(spec, module).conductor)
        for n in sorted({4, 8, c + 2, max(16, 2 * c + 4)}):
            fresh = _fresh(spec, gens, n)
            for high in (n + 2, 2 * n):
                store = parse_curve(text)
                held = span_module(store, module, high)
                assert held.N == high and span_module(store, module, n) is held, (module, n, high)
                _same_values_at(held, fresh, n, (module, n, high))


def _random_poly(rng, span):
    return tuple((e, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
                 for e in sorted(rng.sample(range(span), rng.randint(0, 2))))


def test_truncated_span_is_the_fresh_build_on_random_parametrizations():
    rng = random.Random(20260817)
    values = 0
    for trial in range(12):
        s = rng.randint(1, 3)
        ring = [tuple(_random_poly(rng, 7) for _ in range(s)) for _ in range(rng.randint(1, 3))]
        gens = [tuple(_random_poly(rng, 5) for _ in range(s)) for _ in range(rng.randint(1, 2))]
        spec = curves.CurveSpec(s, None, tuple(ring), ())
        N = rng.randint(5, 11)
        fresh = _fresh(spec, gens, N)
        for high in (N + 2, 2 * N):
            values += _same_values_at(_fresh(spec, gens, high), fresh, N, (trial, high))
    assert values >= 6


def _drops_a_pivot_with_entries_left(basis, N):
    """Whether cutting ``basis`` to order N drops some row's pivot while the
    row keeps an entry below N: the held rows are then not the rows at N."""
    old = basis.N
    return any(p % old >= N and any(q % old < N for q in row) for p, row in basis.rows.items())


@pytest.mark.parametrize(
    "ring, gens",
    [
        # (t^5, t)·(t^2, t^3) = (t^7, t^4): below order 7 it leads on branch 1
        ("(t^2, t^3)", "(t^5, t)"),
        ("(t^2, t^3) ; (t^3, t^5)", "(t^6 + t^7, t^2)"),
        ("(t, t^2, 0) ; (t^3, 0, t)", "(t^6, 2*t^2 - t^3, t) ; (0, t^5, t^4)"),
    ],
)
def test_truncated_span_is_the_fresh_build_when_a_cut_drops_a_pivot(ring, gens):
    s = ring.split(";")[0].count(",") + 1
    spec = parse_curve(f"branches: {s}\nring: {ring}\nmodule M: {gens}\n")
    gens = module_generators(spec, "M")
    spans = {n: _fresh(spec, gens, n) for n in range(2, 35)}
    dropped = values = 0
    for n in range(2, 18):
        for high in (n + 2, 2 * n):
            dropped += _drops_a_pivot_with_entries_left(spans[high], n)
            values += _same_values_at(spans[high], spans[n], n, (high, n))
    assert dropped and values


def test_a_scan_or_colon_above_the_held_span_is_refused():
    # Q[[t^2, t^3]] at order 10 has dimension 9, at 20 dimension 19: the
    # span at 10 cannot be read at 12, nor its residue dual taken at a
    # conductor of 12, past the positions it holds
    ring = [(((2, 1),),), (((3, 1),),)]
    one = [(((0, 1),),)]
    B = span_basis(ring, one, 10)
    assert (B.dim, span_basis(ring, one, 20).dim) == (9, 19)
    with pytest.raises(TruncationError, match=r"scan box \(10,\) does not fit below truncation 10"):
        curves._scan(B, 12, "conductor")
    with pytest.raises(TruncationError, match=r"a span of order 10 does not reach the conductor \(12,\)"):
        modules.colon_solution_basis(ring, B, one, (12,), (12,), (0,), 12)
    assert curves._scan(B, 10, "conductor") == curves._scan(span_basis(ring, one, 20), 10, "conductor")


def _solved_once(spec, F, E):
    """The arguments of the one ``colon_solution_basis`` call that
    ``colon_value_ideal(spec, F, E)`` makes, with the orders it scans."""
    value_ideal(spec, F), value_ideal(spec, E)  # warm, so that only the colon scans
    calls, real = [], curves.colon_solution_basis
    with pytest.MonkeyPatch.context() as mp:
        _, scanned = _counting(mp)
        mp.setattr(curves, "colon_solution_basis", lambda *a: calls.append(a) or real(*a))
        colon_value_ideal(spec, F, E)
    assert len(calls) == 1, (F, E)
    return calls[0], sorted(scanned)


def test_colon_solves_once_and_scans_twice(curve_spec):
    # from the left module's held span, with no span built
    spec = parse_curve(dumps_curve(curve_spec))
    for E in ["R", "Rbar", "C"] + spec.module_names():
        (_, F_basis, *_, order), scanned = _solved_once(spec, "K0", E)
        N = order - 2
        assert scanned == [N, N + 2] and F_basis is spec._store.spans[curves._gens(spec, "K0")], E


def _colon_rings(curve_spec):
    """twobranch's 8 modules, and R, Rbar, C of the five rings of the
    ring-colon benchmark, each on 3 seeded value-preserving changes."""
    two = parse_curve(dumps_curve(curve_spec))
    yield "twobranch", two, ["R", "Rbar", "C"] + two.module_names()
    for name, text in workloads.COLON_RINGS.items():
        for seed in (1, 2, 3):
            yield name, workloads.transform_curve(text, random.Random(seed)), ["R", "Rbar", "C"]


def test_colon_basis_at_n_plus_2_has_the_values_of_the_basis_at_n(curve_spec):
    # the colon solved at N + 2 from F's held span, and at N from that
    # span and from F's span built at its conductor plus 1, have one value
    # set over [0, N - 2]^s
    for name, spec, names in _colon_rings(curve_spec):
        for F in names:
            for E in names:
                (ring, F_basis, E_gens, gamma_F, c, a, order), _ = _solved_once(spec, F, E)
                N, hi = order - 2, (order - 4,) * spec.s
                F_low = span_basis(ring, curves._gens(spec, F), max(gamma_F) + 1)
                want = value_semigroup_ideal(modules.colon_solution_basis(ring, F_low, E_gens, gamma_F, c, a, N), hi)
                for B in (modules.colon_solution_basis(ring, F_basis, E_gens, gamma_F, c, a, order),
                          modules.colon_solution_basis(ring, F_basis, E_gens, gamma_F, c, a, N)):
                    assert value_semigroup_ideal(B, hi) == want, (name, F, E)


@pytest.mark.parametrize("name", sorted({**workloads.RING_VALUE_RINGS, **workloads.COLON_RINGS}))
def test_a_span_held_above_the_bootstrap_gives_the_same_answers(name):
    # span_module may hold R's span at 120, far above every order the
    # bootstrap tries; the value set, and the length of Rbar / R read off
    # spans of two orders, are those of a fresh store
    text = {**workloads.RING_VALUE_RINGS, **workloads.COLON_RINGS}[name]
    spec, fresh = parse_curve(text), parse_curve(text)
    assert span_module(spec, "R", 120).N == 120
    assert value_ideal(spec, "R") == value_ideal(fresh, "R")
    assert span_module(spec, "R", 8).N == 120
    assert length_quotient(spec, "Rbar", "R") == length_quotient(fresh, "Rbar", "R")


def _read_off_held_spans(spec) -> tuple:
    """The answers that read held spans with no check of their own: the
    length of Rbar / R, the conductor with its monomial basis, and the
    value set of m."""
    length = length_quotient(spec, "Rbar", "R")
    gamma, basis = conductor_of(spec)
    return length, gamma, basis.N, basis.rows, value_ideal(spec, "m")


def test_answers_read_off_replaced_spans_are_a_fresh_stores(curve_spec):
    # the length and the conductor trust the commit step's proof of
    # t^gamma·Rbar ⊆ M and re-check no held span; span_module calls at
    # rising orders, interleaved across modules, replace held spans before
    # those answers are read, and the answers must be a fresh store's
    rng = random.Random(11)
    replaced = 0
    for text in (dumps_curve(curve_spec), CURVES["ring-6-6"], CURVES["three-branch"], CURVES["ring-16"]):
        spec = parse_curve(text)
        names = ["R", "Rbar", "C", "m"] + spec.module_names()
        rising = {name: range(2, 15, rng.randint(1, 3)) for name in names}
        calls = [name for name, orders in rising.items() for _ in orders]
        rng.shuffle(calls)
        rising = {name: iter(orders) for name, orders in rising.items()}
        for name in calls:
            held = dict(spec._store.spans)
            span_module(spec, name, next(rising[name]))
            replaced += sum(B is not held[g] for g, B in spec._store.spans.items() if g in held)
        assert _read_off_held_spans(spec) == _read_off_held_spans(parse_curve(text)), text
    assert replaced >= 20, replaced


def _walks(monkeypatch):
    """Count the scans, and those that walk: a scan walks iff it files a
    row by order (modules._file); a basis whose rows each lie on one
    branch is read off its pivots and files none."""
    counts, filed = {"scans": 0, "walks": 0}, [False]
    real_scan, real_file = curves.value_semigroup_ideal, modules._file

    def scan(B, hi):
        filed[0] = False
        got = real_scan(B, hi)
        counts["scans"] += 1
        counts["walks"] += filed[0]
        return got

    def file(*args):
        filed[0] = True
        return real_file(*args)

    monkeypatch.setattr(modules, "_file", file)
    monkeypatch.setattr(curves, "value_semigroup_ideal", scan)
    return counts


def test_only_a_basis_that_couples_branches_is_walked(monkeypatch, curve_spec):
    # R holds 1 = (1, ..., 1), a row on every branch; Rbar, C and the
    # colons R : Rbar and R : C are spanned by rows on one branch each
    counts = _walks(monkeypatch)
    two = parse_curve(dumps_curve(curve_spec))
    rings = [("twobranch", two)] + [(n, parse_curve(t)) for n, t in workloads.COLON_RINGS.items()]
    for name, spec in rings:
        counts.update(scans=0, walks=0)
        value_ideal(spec, "R")
        own = 2 if spec.s > 1 else 0
        assert counts == {"scans": 2, "walks": own}, name
        conductor_of(spec)
        colon_value_ideal(spec, "R", "C")
        assert counts == {"scans": 10, "walks": own}, name
    counts.update(scans=0, walks=0)
    value_ideal(two, "E")
    assert counts == {"scans": 2, "walks": 2}


def _reduces_to_zero(basis, row):
    v = dict(row)
    basis._fully_reduce(v)
    return not v


def test_monomial_membership_by_pivot_lookup(curve_spec):
    for module in ["R", "Rbar", "C"] + curve_spec.module_names():
        B = span_module(curve_spec, module, 12)
        s, N = B.s, B.N
        for i in range(s):
            for low in range(N + 1):
                lo = tuple(low if k == i else N for k in range(s))
                want = all(_reduces_to_zero(B, {i * N + e: 1}) for e in range(low, N))
                try:
                    modules.require_monomials(B, lo, module, modules.monomial_tail(B))
                    got = True
                except TruncationError as exc:
                    assert f"{module} misses t^" in str(exc)
                    got = False
                assert got == want, (module, i, low)


def _counting(monkeypatch):
    """Record the order of every span built and every value set scanned,
    a scan over [0, hi] being at order max(hi) + 2."""
    built, scanned = [], []
    real_span, real_scan = curves.span_basis, curves.value_semigroup_ideal
    monkeypatch.setattr(curves, "span_basis", lambda r, g, N: built.append(N) or real_span(r, g, N))
    monkeypatch.setattr(
        curves, "value_semigroup_ideal", lambda B, hi: scanned.append(max(hi) + 2) or real_scan(B, hi)
    )
    return built, scanned


def test_bootstrap_stops_before_an_oversized_scan_box(monkeypatch):
    # (t, t) has no conductor: the precheck refuses 8, ..., 64, so the
    # conductor is at least (64, 64) and commits at 67 or above, whose
    # rerun box [0, 67]^2 exceeds the limit; the probes stop there, by proof
    built, scanned = _counting(monkeypatch)
    monkeypatch.setattr(ideals, "MAX_CELLS", 40 * 40)
    spec = parse_curve("branches: 2\nring: (t, t)\n")
    with pytest.raises(TruncationError, match=r"^no stable conductor at truncations 8, 16, 32, 64; ") as exc:
        value_ideal(spec, "R")
    assert str(exc.value).endswith(
        "the precheck refused truncation 64: the span misses t^63 on branch 0; the least conductor they allow, "
        "(64, 64), commits at truncation 67, but the rerun at 69 scans [0, 67]^2, of 4624 cells, over the box "
        "limit of 1600 cells"
    )
    assert built == [8, 16, 32, 64] and scanned == []


@pytest.mark.parametrize(
    "ring, cells, refusal",
    [
        # <3, 10> x <1>: the candidate (28, 10) at 32, the last order that
        # fits, commits at 31, whose rerun at 33 needs [0, 31]^2
        pytest.param("branches: 2\nring: (t^3, t) ; (t^10, t^4)\n", 1000,
                     "the candidate conductor (28, 10) commits at truncation 31, but the rerun at 33 "
                     "scans [0, 31]^2, of 1024 cells, over the box limit of 1000 cells", id="two-branches"),
        # <4, 21> x N^3 at the real limit: the candidate commits at 64,
        # whose rerun at 66 needs [0, 64]^4
        pytest.param("branches: 4\nring: (t^4, 0, 0, 0) ; (t^21, 0, 0, 0) ; (0, t, 0, 0) ; (0, 0, t, 0) ; "
                     "(0, 0, 0, t)\n", None,
                     "the candidate conductor (60, 1, 1, 1) commits at truncation 64, but the rerun at 66 "
                     f"scans [0, 64]^4, of {65 ** 4} cells, over the box limit of {ideals.MAX_CELLS} cells",
                     id="four-branches"),
    ],
)
def test_bootstrap_refuses_a_commit_whose_rerun_box_exceeds_the_limit(monkeypatch, ring, cells, refusal):
    _, scanned = _counting(monkeypatch)
    if cells is not None:
        monkeypatch.setattr(ideals, "MAX_CELLS", cells)
    with pytest.raises(TruncationError) as exc:
        value_ideal(parse_curve(ring), "R")
    assert str(exc.value) == refusal
    assert scanned == []


@pytest.mark.parametrize(
    "truncation, refusal",
    [
        # the explicit order is the commit order: its rerun at 42 needs [0, 40]^2
        ("truncation: 40\n", "the line 'truncation: 40' commits at truncation 40, but the rerun at 42 scans "
                             "[0, 40]^2, of 1681 cells, over the box limit of 1000 cells"),
        # the same ring without the line: the bootstrap's refusal, unchanged
        ("", "the candidate conductor (28, 10) commits at truncation 31, but the rerun at 33 scans "
             "[0, 31]^2, of 1024 cells, over the box limit of 1000 cells"),
    ],
    ids=["explicit", "bootstrap"],
)
def test_an_explicit_truncation_is_refused_before_any_span_when_its_rerun_box_exceeds_the_limit(
    monkeypatch, truncation, refusal
):
    built, scanned = _counting(monkeypatch)
    monkeypatch.setattr(ideals, "MAX_CELLS", 1000)
    with pytest.raises(TruncationError) as exc:
        value_ideal(parse_curve(f"branches: 2\n{truncation}ring: (t^3, t) ; (t^10, t^4)\n"), "R")
    assert str(exc.value) == refusal
    assert scanned == []
    assert (built == []) == bool(truncation)


def test_an_explicit_truncation_whose_rerun_box_fits_is_still_scanned(monkeypatch):
    # [0, 31]^2 fits 1024 cells: the line's order is scanned and rerun as before
    built, scanned = _counting(monkeypatch)
    monkeypatch.setattr(ideals, "MAX_CELLS", 1024)
    G = value_ideal(parse_curve("branches: 2\ntruncation: 31\nring: (t^3, t) ; (t^10, t^4)\n"), "R")
    assert G.conductor == (28, 10) and sorted(scanned) == [31, 33]


def test_the_box_limit_refuses_exactly_the_modules_whose_rerun_box_exceeds_it(monkeypatch, rng):
    # need = (commit + 1)^s, the cells of the rerun box of a run under the
    # real limit: under a limit of need or more the module certifies as
    # there, with the same spans, and under a smaller one it is refused,
    # naming the limit, before any scan (a box test on commit - 1 lets
    # need - 1 through to a scan)
    from test_type_law import _draw

    built, scanned = _counting(monkeypatch)
    real, checked = ideals.MAX_CELLS, 0
    while checked < 30:
        draw = _draw(rng)
        if draw is None:
            continue
        s, ring = draw
        text = f"branches: {s}\nring: {ring}\n"
        for module in ("R", "m"):
            monkeypatch.setattr(ideals, "MAX_CELLS", real)
            del built[:], scanned[:]
            try:
                want = value_ideal(parse_curve(text), module)
            except (FrameError, TruncationError):  # the precheck or the bootstrap
                break
            spans, need = built[:], (min(scanned) + 1) ** s
            for limit in (need - 1, need, need + 1, 2 * need, 7 ** s):
                monkeypatch.setattr(ideals, "MAX_CELLS", limit)
                del built[:], scanned[:]
                spec = parse_curve(text)
                if limit >= need:
                    assert value_ideal(spec, module) == want and built == spans, (text, module, limit)
                else:
                    with pytest.raises(TruncationError, match=f"over the box limit of {limit} cells$"):
                        value_ideal(spec, module)
                    assert scanned == [], (text, module, limit)
        else:
            checked += 1


def test_colon_is_refused_before_it_is_solved_when_its_rerun_box_exceeds_the_limit(monkeypatch, curve_spec):
    # K0 : E on twobranch is read at N = 6 and rerun at 8 over [0, 6]^2,
    # 49 cells; its value sets are certified first, under the real limit
    spec = parse_curve(dumps_curve(curve_spec))
    want = colon_value_ideal(parse_curve(dumps_curve(curve_spec)), "K0", "E")
    for module in ("K0", "E"):
        value_ideal(spec, module)
    solved, real = [], curves.colon_solution_basis
    monkeypatch.setattr(curves, "colon_solution_basis", lambda *args: solved.append(args[-1]) or real(*args))
    monkeypatch.setattr(ideals, "MAX_CELLS", 48)
    with pytest.raises(TruncationError) as exc:
        colon_value_ideal(spec, "K0", "E")
    assert str(exc.value) == ("colon 'K0' : 'E' commits at truncation 6, but the rerun at 8 scans [0, 6]^2, "
                              "of 49 cells, over the box limit of 48 cells")
    assert solved == []
    monkeypatch.setattr(ideals, "MAX_CELLS", 49)
    assert colon_value_ideal(spec, "K0", "E") == want and solved == [8]


def _smooth_branches(s):
    """s smooth branches, (t, 0, ..., 0) ; ... ; (0, ..., 0, t): the value
    set is {0} and (1, ..., 1) + N^s."""
    units = ("(" + ", ".join("t" if k == i else "0" for k in range(s)) + ")" for i in range(s))
    return f"branches: {s}\nring: " + " ; ".join(units) + "\n"


def test_seven_smooth_branches_commit_at_order_8(monkeypatch):
    # the span at 8 has the candidate (1, ..., 1), which commits at 4,
    # whose rerun box [0, 4]^7 fits the box limit
    built, scanned = _counting(monkeypatch)
    G = value_ideal(parse_curve(_smooth_branches(7)), "R")
    assert G.conductor == (1,) * 7 and G.frame_sorted == ((0,) * 7, (1,) * 7)
    assert built == [8] and sorted(scanned) == [4, 6]


def test_a_commit_box_that_fits_certifies_though_the_first_probes_scan_box_does_not(monkeypatch):
    # the scan box of order 8, [0, 6]^3, has 343 cells, over a limit of
    # 200, but a probe only builds a span: the span at 8 has the candidate
    # (1, 1, 1), which commits at 4, whose rerun box [0, 4]^3 has 125
    built, scanned = _counting(monkeypatch)
    monkeypatch.setattr(ideals, "MAX_CELLS", 200)
    G = value_ideal(parse_curve(_smooth_branches(3)), "R")
    assert G.conductor == (1,) * 3 and G.frame_sorted == ((0,) * 3, (1,) * 3)
    assert built == [8] and sorted(scanned) == [4, 6]


@pytest.mark.parametrize(
    "ring, cells, conductor, spans, scans",
    [
        # <6, 9, 10>, conductor 24, e = 6: the precheck refuses 8, the
        # candidates at 16, 23 and 28 need 21, 24 and 30, and 35, the step
        # from 28, commits at 30, whose rerun box [0, 30] fits 32 cells,
        # though the scan box of 35 would not
        pytest.param("branches: 1\nring: (t^6) ; (t^9) ; (t^10)\n", 32, (24,), [8, 16, 23, 28, 35], [30, 32],
                     id="certificate-step"),
        # <3, 14> x <2, 3>, conductor (26, 2): the precheck refuses 8, the
        # candidate 14 at 16 needs 17, so 20 is next, where t^19 is missing;
        # the precheck's step goes back to 32, not 40, and 32 commits at 29,
        # whose rerun box [0, 29]^2 fits 1000 cells
        pytest.param("branches: 2\nring: (1, 0) ; (0, 1) ; (t^3, t^2) ; (t^14, t^3)\n", 1000, (26, 2),
                     [8, 16, 20, 32], [29, 31], id="precheck-step"),
    ],
)
def test_bootstrap_steps_to_the_commit_under_a_limit_its_rerun_box_fits(monkeypatch, ring, cells, conductor, spans, scans):
    built, scanned = _counting(monkeypatch)
    monkeypatch.setattr(ideals, "MAX_CELLS", cells)
    assert value_ideal(parse_curve(ring), "R").conductor == conductor
    assert built == spans
    assert sorted(scanned) == scans


def test_value_ideal_builds_one_span_per_order_pair(monkeypatch, curve_spec):
    built, scanned = _counting(monkeypatch)
    value_ideal(parse_curve("truncation: 20\n" + dumps_curve(curve_spec)), "E")
    assert (built, sorted(scanned)) == ([22], [20, 22])
    for text in (dumps_curve(curve_spec), *CURVES.values(), RING_34_26):
        GR = value_ideal(parse_curve(text), "R")
        e = oracles.radical_orders(GR.contains, GR.gamma)
        for module in ["R", "Rbar", "C"] + parse_curve(text).module_names():
            # a fresh store per module, as modules with one generator tuple
            # share a value set (on twobranch, C's generators are CR's)
            spec = parse_curve(text)
            curves._gens(spec, module)  # C's generators need Γ_R
            del built[:], scanned[:]
            G = value_ideal(spec, module)
            commit = max(g + max(3, x) for g, x in zip(G.conductor, e))
            # every certified value set is scanned exactly twice
            assert sorted(scanned) == [commit, commit + 2], (module, built, scanned)
            # one span per order tried, from 8 on, each at most twice the
            # one before; every order but the last lies below commit, as at
            # or above it the tail is the conductor, and the last reaches
            # commit; then commit + 2 exactly when the last lies below it
            tried = built[:-1] if len(built) > 1 and commit <= built[-2] < built[-1] == commit + 2 else built
            assert tried[0] == 8 and all(a < b <= 2 * a for a, b in zip(tried, tried[1:])), (module, built)
            assert all(n < commit for n in tried[:-1]) and commit <= tried[-1], (module, built)
            assert built == tried + ([commit + 2] if tried[-1] < commit + 2 else []), (module, built)


RING_34_26 = "branches: 2\nring: (t^4, t^3) ; (t^6 + t^7, t^5)\n"


@pytest.mark.parametrize(
    "text, spans, scans",
    [
        # the precheck refuses 8 and 16; the candidate at 32 needs 38, so 40
        # is next, where it commits and reruns
        (RING_34_26, [8, 16, 32, 40], {38, 40}),
        # the precheck refuses 8; the candidate at 16 needs 17, so 20 is
        # next, where it commits and reruns
        (CURVES["ring-14-12"], [8, 16, 20], {17, 19}),
        # <11, ..., 21> has conductor 11 = e: the precheck refuses 8, the
        # candidate at 16 needs 22, and 24 commits and reruns in one span
        # where 22 would take two
        ("branches: 1\nring: " + " ; ".join(f"(t^{k})" for k in range(11, 22)) + "\n", [8, 16, 24], {22, 24}),
        # <5, ..., 9> has conductor 5 = e: the candidate at 8 needs 10, so
        # 12 is next, where it commits and reruns
        ("branches: 1\nring: " + " ; ".join(f"(t^{k})" for k in range(5, 10)) + "\n", [8, 12], {10, 12}),
    ],
)
def test_bootstrap_reads_the_next_order_off_the_candidate(monkeypatch, text, spans, scans):
    built, scanned = _counting(monkeypatch)
    value_ideal(parse_curve(text), "R")
    assert built == spans
    assert sorted(scanned) == sorted(scans)


def test_bootstrap_passes_512_only_for_the_candidate_found_there(monkeypatch):
    # <20, 27> has conductor 494 and e = 20: false candidates at 128 and
    # 256 leave the powers of two, each precheck step returns to them, and
    # the candidate at 512, the conductor, commits at 514 with one span above
    built, scanned = _counting(monkeypatch)
    assert value_ideal(parse_curve("branches: 1\nring: (t^20) ; (t^27)\n"), "R").conductor == (494,)
    assert built == [8, 16, 32, 64, 128, 160, 256, 320, 512, 516]
    assert sorted(scanned) == [514, 516]


@pytest.mark.parametrize("text, curve", [
    ("branches: 1\nring: (t^100000) ; (t^100001)\n", "1 branch"),
    ("branches: 2\nring: (t, t)\n", "2 branches"),
])
def test_probes_that_stop_at_512_say_the_conductor_may_lie_past_it(text, curve):
    # Q[[t^100000, t^100001]] is a curve whose conductor lies far past the
    # ceiling, and (t, t) repeats one branch and has none: the probes tell
    # them apart from neither, so the refusal names both readings
    with pytest.raises(TruncationError) as exc:
        value_ideal(parse_curve(text), "R")
    assert str(exc.value).endswith(
        "the precheck refused truncation 512: the span misses t^511 on branch 0; "
        "the probes stop at their ceiling of 512, and the conductor may lie past it; "
        f"is the ring really a curve with {curve}?"
    )


def test_ring_layer_hashes_no_fraction(monkeypatch, curve_spec):
    spec = parse_curve(dumps_curve(curve_spec))
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or real(q))
    names = ["R", "Rbar", "C"] + spec.module_names()
    for name in names:
        value_ideal(spec, name)
        colon_value_ideal(spec, "K0", name)
    length_quotient(spec, "Rbar", "R")
    length_quotient(spec, "K0", "CF")
    conductor_of(spec, "F")
    assert hashed == []
