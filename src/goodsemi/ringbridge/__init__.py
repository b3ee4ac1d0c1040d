"""Value semigroups of parametrized curve singularities over Q.

A curve is given by power-series parametrizations of its branches; the
functions here span finitely generated modules over the parametrization
ring, read off their value semigroup ideals, and transport colon and
length computations between the ring and the semigroup sides.
"""

from .series import Poly, PolyVec, SeriesVector, poly_mul_vec, poly_vec
from .modules import ModuleBasis, colon_solution_basis, span_basis, value_semigroup_ideal
from .curves import (
    CurveSpec,
    colon_value_ideal,
    conductor_of,
    dumps_curve,
    length_quotient,
    module_generators,
    parse_curve,
    span_module,
    value_ideal,
)

__all__ = [
    "CurveSpec",
    "ModuleBasis",
    "Poly",
    "PolyVec",
    "SeriesVector",
    "colon_solution_basis",
    "colon_value_ideal",
    "conductor_of",
    "dumps_curve",
    "length_quotient",
    "module_generators",
    "parse_curve",
    "poly_mul_vec",
    "poly_vec",
    "span_basis",
    "span_module",
    "value_ideal",
]
