"""Vectors of truncated power series over Q, one component per branch.

All coefficients are :class:`fractions.Fraction`; nothing is ever rounded.
A :class:`SeriesVector` is an element of ∏_i Q[t]/(t^N) for a shared
truncation order N, stored sparsely as per-branch {exponent: coefficient}
maps.  Exact (untruncated) polynomial data uses the ``PolyVec`` tuples
below, which can be materialized at any N.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import FrameError

__all__ = ["Poly", "PolyVec", "SeriesVector", "poly_vec", "poly_mul_vec"]

# One branch: ((exp, coeff), ...) with strictly increasing exponents,
# no zero coefficients.  A vector is one Poly per branch.
Poly = tuple[tuple[int, Fraction], ...]
PolyVec = tuple[Poly, ...]


def poly_vec(branches) -> PolyVec:
    """Normalize raw {exp: coeff}-like data into a canonical PolyVec."""
    out = []
    for br in branches:
        items = dict(br).items() if isinstance(br, dict) else br
        acc: dict[int, Fraction] = {}
        for e, c in items:
            e = int(e)
            if e < 0:
                raise FrameError(f"polynomial exponent {e} is negative")
            c = Fraction(c)
            if c:
                acc[e] = acc.get(e, Fraction(0)) + c
        out.append(tuple(sorted((e, c) for e, c in acc.items() if c)))
    return tuple(out)


def poly_mul_vec(a: PolyVec, b: PolyVec) -> PolyVec:
    """Exact branchwise product of polynomial vectors."""
    if len(a) != len(b):
        raise FrameError("branch count mismatch in polynomial product")
    out = []
    for pa, pb in zip(a, b):
        acc: dict[int, Fraction] = {}
        for ea, ca in pa:
            for eb, cb in pb:
                e = ea + eb
                acc[e] = acc.get(e, Fraction(0)) + ca * cb
        out.append(tuple(sorted((e, c) for e, c in acc.items() if c)))
    return tuple(out)


class SeriesVector:
    """An element of ∏ Q[t]/(t^N); immutable in practice."""

    __slots__ = ("s", "N", "coeffs")

    def __init__(self, s: int, N: int, coeffs):
        if s < 1 or N < 1:
            raise FrameError("need s >= 1 branches and truncation N >= 1")
        cleaned = []
        coeffs = list(coeffs)
        if len(coeffs) != s:
            raise FrameError(f"expected {s} branches, got {len(coeffs)}")
        for br in coeffs:
            d = {}
            for e, c in (br.items() if isinstance(br, dict) else br):
                e = int(e)
                c = Fraction(c)
                if not 0 <= e:
                    raise FrameError(f"exponent {e} out of range [0, {N})")
                if e < N and c:
                    d[e] = c
            cleaned.append(d)
        self.s = s
        self.N = N
        self.coeffs = tuple(cleaned)

    @classmethod
    def from_polys(cls, polys: PolyVec, N: int) -> "SeriesVector":
        return cls(len(polys), N, [dict(p) for p in polys])

    @classmethod
    def monomial(cls, s: int, N: int, branch: int, exp: int, c=1) -> "SeriesVector":
        data = [{} for _ in range(s)]
        data[branch] = {exp: Fraction(c)}
        return cls(s, N, data)

    @classmethod
    def zero(cls, s: int, N: int) -> "SeriesVector":
        return cls(s, N, [{} for _ in range(s)])

    def value(self) -> tuple:
        """Per-branch order; None flags a branch that vanishes mod t^N
        (its true order is >= N and not knowable at this truncation)."""
        return tuple(min(d) if d else None for d in self.coeffs)

    def is_zero(self) -> bool:
        return all(not d for d in self.coeffs)

    def _binop(self, other, f):
        if not isinstance(other, SeriesVector):
            return NotImplemented
        if (self.s, self.N) != (other.s, other.N):
            raise FrameError("series mismatch: different branch count or truncation")
        out = []
        for da, db in zip(self.coeffs, other.coeffs):
            d = dict(da)
            for e, c in db.items():
                d[e] = d.get(e, Fraction(0)) + f * c
            out.append(d)
        return SeriesVector(self.s, self.N, out)

    def __add__(self, other):
        return self._binop(other, Fraction(1))

    def __sub__(self, other):
        return self._binop(other, Fraction(-1))

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, c) -> "SeriesVector":
        c = Fraction(c)
        return SeriesVector(
            self.s, self.N, [{e: v * c for e, v in d.items()} for d in self.coeffs]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SeriesVector):
            return NotImplemented
        if (self.s, self.N) != (other.s, other.N):
            raise FrameError("series mismatch: different branch count or truncation")
        out = []
        for da, db in zip(self.coeffs, other.coeffs):
            d: dict[int, Fraction] = {}
            for ea, ca in da.items():
                for eb, cb in db.items():
                    e = ea + eb
                    if e < self.N:
                        d[e] = d.get(e, Fraction(0)) + ca * cb
            out.append(d)
        return SeriesVector(self.s, self.N, out)

    __rmul__ = __mul__

    def to_flat(self) -> dict[int, Fraction]:
        """Sparse coefficients keyed by branch-major position i*N + e."""
        flat = {}
        for i, d in enumerate(self.coeffs):
            base = i * self.N
            for e, c in d.items():
                flat[base + e] = c
        return flat

    @classmethod
    def from_flat(cls, s: int, N: int, flat: dict[int, Fraction]) -> "SeriesVector":
        data = [{} for _ in range(s)]
        for pos, c in flat.items():
            i, e = divmod(pos, N)
            data[i][e] = c
        return cls(s, N, data)

    def __eq__(self, other):
        if not isinstance(other, SeriesVector):
            return NotImplemented
        return (self.s, self.N, self.coeffs) == (other.s, other.N, other.coeffs)

    def __hash__(self):
        return hash((self.s, self.N, tuple(tuple(sorted(d.items())) for d in self.coeffs)))

    def __repr__(self):
        parts = []
        for d in self.coeffs:
            if not d:
                parts.append("0")
            else:
                parts.append(" + ".join(f"{c}*t^{e}" for e, c in sorted(d.items())))
        return f"SeriesVector(N={self.N}; " + " | ".join(parts) + ")"
