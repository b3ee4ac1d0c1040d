"""The value records: ValidationReport, LocalDecomposition, CanonicalIdeal
and CurveSpec keep field equality and hashing, the three frozen ones refuse
assignment, and defaults and stores are never shared."""

import copy
import pickle

import pytest

from goodsemi import (
    CanonicalIdeal,
    GoodSemigroup,
    LocalDecomposition,
    ValidationReport,
    decompose,
    numerical_semigroup,
    product_semigroups,
)
from goodsemi.ringbridge import CurveSpec, parse_curve, value_ideal


def test_validation_report_compares_fields_and_is_unhashable():
    a = ValidationReport(True, True, False, None)
    b = ValidationReport(e0_ok=True, e1_ok=True, e2_ok=False, additivity_ok=None)
    assert a == b and a is not b
    assert a != ValidationReport(True, True, False, True)
    assert a != ValidationReport(True, True, False, None, notes=["n"])
    assert a != (True, True, False, None, [], [], [], [])
    with pytest.raises(TypeError):
        hash(a)
    a.e2_ok = True  # reports stay mutable
    assert a.ok and a != b


def test_validation_reports_never_share_a_default_list():
    a, b = ValidationReport(True, True, True, None), ValidationReport(True, True, True, None)
    for name in ("e1_failures", "e2_failures", "additivity_failures", "notes"):
        assert getattr(a, name) == [] and getattr(a, name) is not getattr(b, name)
    a.notes.append("only a")
    assert b.notes == []


def _decomposition():
    return decompose(product_semigroups(numerical_semigroup(2, 3), numerical_semigroup(3, 4)))


def _canonical():
    return CanonicalIdeal.normalized(GoodSemigroup.from_points([(0, 0), (3, 1)], gamma=(3, 1)))


def _curve(truncation=None):
    text = "branches: 2\nring: (t^2, t) ; (t^3, 0)\nmodule E: (t, t)\n"
    spec = parse_curve(text)
    return spec if truncation is None else CurveSpec(spec.s, truncation, spec.ring, spec.modules)


# kind -> (build, a variant unequal to it, its fields)
FROZEN = {
    "LocalDecomposition": (
        _decomposition,
        lambda d: LocalDecomposition(d.partition, d.factors[::-1]),
        ("partition", "factors"),
    ),
    "CanonicalIdeal": (
        _canonical,
        lambda K: CanonicalIdeal(K.ideal, K.semigroup, (1, 1)),
        ("ideal", "semigroup", "shift_from_normalized"),
    ),
    "CurveSpec": (_curve, lambda spec: _curve(truncation=20), ("s", "truncation", "ring", "modules")),
}


@pytest.mark.parametrize("kind", FROZEN)
def test_frozen_record_equality_and_hashing(kind):
    build, vary, fields = FROZEN[kind]
    a, b = build(), build()
    assert a == b and a is not b and hash(a) == hash(b)
    assert vary(a) != a and len({a, b, vary(a)}) == 2
    assert a != tuple(getattr(a, name) for name in fields)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is type(a)


@pytest.mark.parametrize("kind", FROZEN)
def test_frozen_record_refuses_assignment(kind):
    build, _, fields = FROZEN[kind]
    record = build()
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_curve_specs_keep_separate_stores():
    a, b = _curve(), _curve()
    assert a == b and hash(a) == hash(b)
    assert a._store is not b._store
    value_ideal(a, "E")
    assert a._store.values and not b._store.values
    with pytest.raises(AttributeError):
        a._store = b._store
    assert copy.deepcopy(a)._store is not a._store
