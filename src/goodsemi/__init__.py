"""Good semigroups of N^s, their ideals, duality, and curve singularities.

The central object is :class:`IdealFrame`, a finite description of a
subset E of Z^s that agrees with a translated positive orthant above a
capping bound.  :class:`GoodSemigroup` is a certified frame, not a
wrapper: an IdealFrame with mu = 0 that passed the axiom checks against
itself.  The ``ringbridge`` subpackage computes value semigroups of
explicitly parametrized curve branches over Q and mirrors the
set-theoretic operations (colon, length) on the ring side.

Importing the package imports none of its submodules: each public name,
and each submodule, is resolved on first access (PEP 562), so a process
compiles only the modules it uses.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "axioms", "cli", "duality", "errors", "generate", "ideals", "lattice", "metric", "plot", "products", "ringbridge"
)

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "errors": (
            "CapExceededError",
            "DimensionMismatch",
            "FrameError",
            "GoodsemiError",
            "InclusionError",
            "MetricError",
            "NotCertifiedError",
            "ParseError",
            "TruncationError",
        ),
        "lattice": ("Point", "add", "as_point", "cmax", "cmin", "leq", "lt", "sub"),
        "ideals": (
            "GoodSemigroup",
            "IdealFrame",
            "LocalDecomposition",
            "ValidationReport",
            "decompose",
            "from_json",
            "is_local",
            "is_subset",
            "product_semigroups",
            "recombine",
            "sum_ideals",
            "to_json",
            "validate",
        ),
        "duality": (
            "CanonicalIdeal",
            "canonical_normalized",
            "conductor_ideal",
            "difference",
            "dualize",
            "is_canonical",
            "is_symmetric",
            "product_canonical",
            "push_forward",
        ),
        "metric": ("all_saturated_chains", "distance_between", "relative_distance"),
        "generate": ("numerical_semigroup", "random_good_ideal", "random_good_semigroup", "random_pair"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule in this namespace; __import__,
        # unlike importlib, also shows in ``python -X importtime``
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __getattr__(_HOME[name])
    globals()[name] = value = getattr(module, name)  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
