"""Good semigroups of N^s, their ideals, duality, and curve singularities.

The central object is :class:`IdealFrame`, a finite description of a
subset E of Z^s that agrees with a translated positive orthant above a
capping bound.  :class:`GoodSemigroup` wraps a frame that passed the
axiom checks.  The ``ringbridge`` subpackage computes value semigroups
of explicitly parametrized curve branches over Q and mirrors the
set-theoretic operations (colon, length) on the ring side.
"""

from .errors import (
    CapExceededError,
    DimensionMismatch,
    FrameError,
    GoodsemiError,
    InclusionError,
    MetricError,
    NotCertifiedError,
    ParseError,
    PoleBoundError,
    TruncationError,
)
from .lattice import Point, add, as_point, cmax, cmin, leq, lt, sub
from .ideals import (
    GoodSemigroup,
    IdealFrame,
    LocalDecomposition,
    ValidationReport,
    decompose,
    from_json,
    is_local,
    is_subset,
    product_semigroups,
    recombine,
    sum_ideals,
    to_json,
    validate,
)
from .duality import (
    CanonicalIdeal,
    canonical_normalized,
    conductor_ideal,
    difference,
    dualize,
    is_canonical,
    is_symmetric,
    product_canonical,
    push_forward,
)
from .metric import all_saturated_chains, distance_between, relative_distance
from .generate import (
    numerical_semigroup,
    random_good_ideal,
    random_good_semigroup,
    random_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalIdeal",
    "CapExceededError",
    "DimensionMismatch",
    "FrameError",
    "GoodSemigroup",
    "GoodsemiError",
    "IdealFrame",
    "InclusionError",
    "LocalDecomposition",
    "MetricError",
    "NotCertifiedError",
    "ParseError",
    "Point",
    "PoleBoundError",
    "TruncationError",
    "ValidationReport",
    "add",
    "all_saturated_chains",
    "as_point",
    "canonical_normalized",
    "cmax",
    "cmin",
    "conductor_ideal",
    "decompose",
    "difference",
    "distance_between",
    "dualize",
    "from_json",
    "is_canonical",
    "is_local",
    "is_subset",
    "is_symmetric",
    "leq",
    "lt",
    "numerical_semigroup",
    "product_canonical",
    "product_semigroups",
    "push_forward",
    "random_good_ideal",
    "random_good_semigroup",
    "random_pair",
    "recombine",
    "relative_distance",
    "sub",
    "sum_ideals",
    "to_json",
    "validate",
]
