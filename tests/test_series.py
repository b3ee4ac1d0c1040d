from fractions import Fraction

import pytest

import oracles
from goodsemi import FrameError
from goodsemi.ringbridge import (
    SeriesVector,
    poly_mul_vec,
    poly_vec,
)


def test_poly_vec_normalizes():
    v = poly_vec([{3: 1, 1: 2}, [(0, 1), (0, 2)]])
    assert v == (((1, Fraction(2)), (3, Fraction(1))), ((0, Fraction(3)),))
    # cancellation drops the term entirely
    w = poly_vec([[(2, 1), (2, -1)], {}])
    assert w == ((), ())


def test_poly_vec_rejects_negative_exponent():
    with pytest.raises(FrameError, match="negative"):
        poly_vec([{-1: 1}])


def test_poly_mul_vec_hand_product():
    a = poly_vec([{0: 1, 1: 1}, {2: 3}])       # (1 + t, 3t^2)
    b = poly_vec([{1: 1, 2: -1}, {0: 2}])      # (t - t^2, 2)
    got = poly_mul_vec(a, b)
    # (1+t)(t-t^2) = t - t^3 ; 3t^2 * 2 = 6t^2
    assert got == poly_vec([{1: 1, 3: -1}, {2: 6}])
    with pytest.raises(FrameError, match="branch count"):
        poly_mul_vec(a, poly_vec([{0: 1}]))


def test_series_construction_and_value():
    v = SeriesVector(2, 6, [{3: 1, 4: -2}, {}])
    assert v.value() == (3, None)
    assert not v.is_zero()
    assert SeriesVector.zero(2, 6).is_zero()
    assert SeriesVector.zero(2, 6).value() == (None, None)
    m = SeriesVector.monomial(2, 6, 1, 2, c=7)
    assert m.value() == (None, 2)
    assert m.coeffs == ({}, {2: Fraction(7)})


def test_series_arithmetic_is_exact():
    v = SeriesVector(1, 10, [{0: Fraction(1, 3), 1: Fraction(1, 7)}])
    w = SeriesVector(1, 10, [{0: Fraction(2, 3), 1: Fraction(6, 7)}])
    assert (v + w).coeffs == ({0: Fraction(1), 1: Fraction(1)},)
    assert (v - v).is_zero()
    assert (v.scale(3)).coeffs == ({0: Fraction(1), 1: Fraction(3, 7)},)
    assert (2 * v).coeffs == ({0: Fraction(2, 3), 1: Fraction(2, 7)},)


def test_series_multiplication_truncates():
    v = SeriesVector(1, 4, [{2: 1, 3: 1}])
    w = SeriesVector(1, 4, [{1: 1, 2: 1}])
    # full product t^3 + 2t^4 + t^5; only t^3 survives at N=4
    assert (v * w).coeffs == ({3: Fraction(1)},)


def test_series_multiplication_matches_oracle():
    a = {0: Fraction(2), 1: Fraction(-1), 3: Fraction(5)}
    b = {1: Fraction(1), 2: Fraction(4)}
    N = 7

    def dense(d):
        return [d.get(e, Fraction(0)) for e in range(N)]

    v = SeriesVector(2, N, [a, b])
    w = SeriesVector(2, N, [b, a])
    got = (v * w).coeffs
    want = oracles.poly_mul_mod(dense(a), dense(b), N)
    for branch in range(2):
        assert [got[branch].get(e, Fraction(0)) for e in range(N)] == want


def test_series_shape_mismatch():
    v = SeriesVector(2, 6, [{0: 1}, {}])
    with pytest.raises(FrameError, match="mismatch"):
        v + SeriesVector(2, 7, [{0: 1}, {}])
    with pytest.raises(FrameError, match="mismatch"):
        v * SeriesVector(1, 6, [{0: 1}])
    with pytest.raises(FrameError, match="expected 2 branches"):
        SeriesVector(2, 6, [{0: 1}])


def test_series_rejects_negative_exponent():
    with pytest.raises(FrameError, match="out of range"):
        SeriesVector(1, 5, [{-2: 1}])


def test_high_exponents_fall_off():
    v = SeriesVector(1, 5, [{4: 1, 5: 1, 9: 3}])
    assert v.coeffs == ({4: Fraction(1)},)


def test_from_polys_materializes_truncation():
    p = poly_vec([{0: 1, 8: 1}, {3: 2}])
    v = SeriesVector.from_polys(p, 5)
    assert v.coeffs == ({0: Fraction(1)}, {3: Fraction(2)})
    assert v.value() == (0, 3)


def test_flat_roundtrip():
    v = SeriesVector(3, 4, [{0: 1}, {2: Fraction(1, 2)}, {}])
    flat = v.to_flat()
    assert flat == {0: Fraction(1), 6: Fraction(1, 2)}
    back = SeriesVector.from_flat(3, 4, flat)
    assert back == v
    assert hash(back) == hash(v)


def test_equality_ignores_zero_entries():
    a = SeriesVector(1, 5, [{1: 1, 2: 0}])
    b = SeriesVector(1, 5, [{1: 1}])
    assert a == b
