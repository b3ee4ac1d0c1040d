"""The per-curve span store: truncated spans, pivot-lookup membership,
the bootstrap's box limit and the hot path's freedom from Fractions."""

import random
from fractions import Fraction

import pytest

import oracles
from goodsemi import TruncationError, ideals
from goodsemi.ringbridge import (
    SeriesVector,
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
    """The span at order N built from scratch through SeriesVectors."""
    ring = [SeriesVector.from_polys(g, N) for g in spec.ring]
    return span_basis(ring, [SeriesVector.from_polys(g, N) for g in gens])


@pytest.mark.parametrize("name", ["twobranch", *CURVES])
def test_truncated_span_is_the_fresh_build(name, curve_spec):
    text = dumps_curve(curve_spec) if name == "twobranch" else CURVES[name]
    spec = parse_curve(text)
    for module in ["R", "Rbar", "C"] + spec.module_names():
        gens = module_generators(spec, module)
        N = max(16, 2 * max(value_ideal(spec, module).conductor) + 4)
        want = _fresh(spec, gens, N).rows
        for high in (N + 2, 2 * N):
            assert _fresh(spec, gens, high).truncated(N).rows == want, (module, high)
            # the store cuts the order-N span from the highest one it holds
            store = parse_curve(text)
            assert span_module(store, module, high).N == high
            assert span_module(store, module, N).rows == want, (module, high)


def _random_poly(rng, span):
    return tuple((e, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
                 for e in sorted(rng.sample(range(span), rng.randint(0, 2))))


def test_truncated_span_is_the_fresh_build_on_random_parametrizations():
    rng = random.Random(20260817)
    for trial in range(12):
        s = rng.randint(1, 3)
        ring = [tuple(_random_poly(rng, 7) for _ in range(s)) for _ in range(rng.randint(1, 3))]
        gens = [tuple(_random_poly(rng, 5) for _ in range(s)) for _ in range(rng.randint(1, 2))]
        spec = curves.CurveSpec(s, None, tuple(ring), ())
        N = rng.randint(5, 11)
        want = _fresh(spec, gens, N).rows
        for high in (N + 2, 2 * N):
            assert _fresh(spec, gens, high).truncated(N).rows == want, (trial, high)


def test_monomial_membership_by_pivot_lookup(curve_spec):
    for module in ["R", "Rbar", "C"] + curve_spec.module_names():
        B = span_module(curve_spec, module, 12)
        s, N = B.s, B.N
        for i in range(s):
            for low in range(N + 1):
                lo = tuple(low if k == i else N for k in range(s))
                want = all(B.contains(SeriesVector.monomial(s, N, i, e)) for e in range(low, N))
                try:
                    modules.require_monomials(B, lo, module)
                    got = True
                except TruncationError as exc:
                    assert f"{module} misses t^" in str(exc)
                    got = False
                assert got == want, (module, i, low)


PROBES = (16, 32, 64, 128, 256, 512)


def _counting(monkeypatch):
    """Record the order of every span built and every value set scanned."""
    built, scanned = [], []
    real_span, real_scan = curves.span_basis, curves.value_semigroup_ideal
    monkeypatch.setattr(curves, "span_basis", lambda r, g, N: built.append(N) or real_span(r, g, N))
    monkeypatch.setattr(
        curves, "value_semigroup_ideal", lambda B, hi: scanned.append(B.N) or real_scan(B, hi)
    )
    return built, scanned


def test_bootstrap_stops_before_an_oversized_scan_box(monkeypatch):
    built, _ = _counting(monkeypatch)
    monkeypatch.setattr(ideals, "MAX_CELLS", 40 * 40)
    spec = parse_curve("branches: 2\nring: (t, t)\n")
    with pytest.raises(TruncationError, match=r"truncations 16, 32; truncation 64 was not tried") as exc:
        value_ideal(spec, "R")
    assert "box limit of 1600 cells" in str(exc.value)
    assert built and max(built) < 64


def test_value_ideal_builds_one_span_per_order_pair(monkeypatch, curve_spec):
    built, scanned = _counting(monkeypatch)
    value_ideal(parse_curve("truncation: 20\n" + dumps_curve(curve_spec)), "E")
    assert (built, sorted(scanned)) == ([22], [20, 22])
    GR = value_ideal(parse_curve(dumps_curve(curve_spec)), "R")
    e = oracles.radical_orders(GR.contains, GR.gamma)
    spec = parse_curve(dumps_curve(curve_spec))
    for module in ["R", "Rbar", "C"] + spec.module_names():
        del built[:], scanned[:]
        gamma = value_ideal(spec, module).conductor
        assert len(set(built)) == len(built) <= len(scanned) - 1, (module, built, scanned)
        # one span per probe order N tried, then N_c + 2 only when it
        # lies above the last of them; every scan is cut from a build
        probes = [n for n, p in zip(built, PROBES) if n == p]
        commit = max(g + max(3, x) for g, x in zip(gamma, e))
        extra = [commit + 2] if commit + 2 > probes[-1] else []
        assert built == probes + extra, (module, built, scanned)
        assert max(scanned) <= max(built), (module, built, scanned)


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
