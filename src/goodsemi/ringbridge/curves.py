"""Parametrized curve rings over Q and their value semigroup ideals.

A curve file names the subring R of ∏ Q[[t]] spanned (as a Q-algebra)
by finitely many polynomial vectors, plus any number of R-modules given
by generators:

    # an example with two branches
    branches: 2
    ring: (-t^4, t) ; (-t^3, 0) ; (0, t) ; (t^5, 0)
    module E: (t^3, t) ; (t^2, 0)

Every computation is exact over Q.  Truncation orders are chosen
automatically: a bootstrap run finds the conductor, the final order is
max(16, 2*max(gamma)+4), and each reported value set must agree bitwise
with a rerun two orders higher, otherwise a TruncationError is raised.
A module zero on some branch, or a ring that is constant or a series in
t^d (d > 1) on some branch, has no conductor and is refused up front.
An explicit ``truncation:`` line overrides the bootstrap but not the
stability check.

Module names ``R`` (the ring), ``Rbar`` (the full product of power-series
rings) and ``C`` (the conductor module t^gamma * Rbar) are built in;
names defined in the file shadow them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from ..errors import (
    FrameError,
    InclusionError,
    NotCertifiedError,
    ParseError,
    PoleBoundError,
    TruncationError,
)
from ..duality import difference
from ..ideals import IdealFrame, validate
from ..lattice import Point, cmax, ones, sub, zero
from .modules import ModuleBasis, colon_solution_basis, span_basis, value_semigroup_ideal
from .series import PolyVec, SeriesVector, poly_shift_vec, poly_vec

__all__ = [
    "CurveSpec",
    "parse_curve",
    "dumps_curve",
    "value_ideal",
    "value_ideal_from_polys",
    "span_module",
    "module_generators",
    "colon_value_ideal",
    "length_quotient",
    "conductor_of",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TERM_RE = re.compile(
    r"^\s*(?:(?P<coef>\d+(?:\s*/\s*\d+)?)\s*(?P<star>\*)?\s*)?(?P<t>t(?:\^(?P<exp>\d+))?)?\s*$"
)


@dataclass(frozen=True)
class CurveSpec:
    """Immutable parsed curve description."""

    s: int
    truncation: int | None
    ring: tuple[PolyVec, ...]
    modules: tuple[tuple[str, tuple[PolyVec, ...]], ...]

    def module_names(self) -> list[str]:
        return [name for name, _ in self.modules]


# ---------------------------------------------------------------- parsing


def _parse_poly(text: str, line: int, col: int, filename) -> tuple:
    acc: dict[int, Fraction] = {}
    # split into signed terms; exponents are plain integers, so every
    # +/- at this level separates terms
    idx = 0
    terms: list[tuple[int, str, int]] = []  # (sign, chunk, col)
    sign = 1
    start = 0
    body = text
    for idx, ch in enumerate(body + "+"):  # sentinel flushes the last chunk
        if ch in "+-":
            chunk = body[start:idx]
            if chunk.strip():
                terms.append((sign, chunk, col + start))
            elif not (start == 0 and not terms):
                # an empty chunk is fine only as a single leading sign
                raise ParseError(
                    "empty term", line=line, col=col + idx, filename=filename
                )
            sign = 1 if ch == "+" else -1
            start = idx + 1
    if not terms:
        raise ParseError("empty polynomial", line=line, col=col, filename=filename)
    for sgn, chunk, ccol in terms:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise ParseError(
                f"cannot read term {chunk.strip()!r}", line=line, col=ccol, filename=filename
            )
        if m.group("star") and m.group("t") is None:
            raise ParseError(
                "'*' without a t-power", line=line, col=ccol, filename=filename
            )
        coef = Fraction(m.group("coef").replace(" ", "")) if m.group("coef") else Fraction(1)
        if m.group("t") is None:
            exp = 0
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
        c = sgn * coef
        if c:
            acc[exp] = acc.get(exp, Fraction(0)) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def _parse_vector(text: str, s: int, line: int, col: int, filename) -> PolyVec:
    stripped = text.strip()
    offset = col + (len(text) - len(text.lstrip()))
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError(
            "generator must be parenthesized, like (t^2, -t)",
            line=line,
            col=offset,
            filename=filename,
        )
    inner = stripped[1:-1]
    parts = inner.split(",")
    if len(parts) != s:
        raise ParseError(
            f"expected {s} branches, found {len(parts)}",
            line=line,
            col=offset,
            filename=filename,
        )
    polys = []
    at = offset + 1
    for part in parts:
        polys.append(_parse_poly(part, line, at, filename))
        at += len(part) + 1
    return tuple(polys)


def _parse_genlist(text: str, s: int, line: int, col: int, filename) -> tuple[PolyVec, ...]:
    gens = []
    at = col
    for piece in text.split(";"):
        if piece.strip():
            gens.append(_parse_vector(piece, s, line, at, filename))
        at += len(piece) + 1
    if not gens:
        raise ParseError("no generators given", line=line, col=col, filename=filename)
    return tuple(gens)


def parse_curve(text: str, filename: str | None = None) -> CurveSpec:
    s = None
    truncation = None
    ring = None
    modules: list[tuple[str, tuple[PolyVec, ...]]] = []
    seen: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=ln, col=1, filename=filename)
        key, _, rest = line.partition(":")
        vcol = len(key) + 2
        key = key.strip()
        if key == "branches":
            try:
                s = int(rest.strip())
            except ValueError:
                raise ParseError("branches must be an integer", line=ln, col=vcol, filename=filename)
            if s < 1:
                raise ParseError("branches must be >= 1", line=ln, col=vcol, filename=filename)
        elif key == "truncation":
            try:
                truncation = int(rest.strip())
            except ValueError:
                raise ParseError("truncation must be an integer", line=ln, col=vcol, filename=filename)
            if truncation < 4:
                raise ParseError("truncation must be >= 4", line=ln, col=vcol, filename=filename)
        elif key == "ring" or key.startswith("module"):
            if s is None:
                raise ParseError(
                    "'branches:' must come before generators", line=ln, col=1, filename=filename
                )
            gens = _parse_genlist(rest, s, ln, vcol, filename)
            if key == "ring":
                if ring is not None:
                    raise ParseError("duplicate 'ring:' line", line=ln, col=1, filename=filename)
                ring = gens
            else:
                name = key[len("module") :].strip()
                if not _NAME_RE.match(name):
                    raise ParseError(
                        f"bad module name {name!r}", line=ln, col=1, filename=filename
                    )
                if name in seen:
                    raise ParseError(
                        f"duplicate module {name!r}", line=ln, col=1, filename=filename
                    )
                seen.add(name)
                modules.append((name, gens))
        else:
            raise ParseError(f"unknown key {key!r}", line=ln, col=1, filename=filename)
    if s is None:
        raise ParseError("missing 'branches:' line", filename=filename)
    if ring is None:
        raise ParseError("missing 'ring:' line", filename=filename)
    return CurveSpec(s=s, truncation=truncation, ring=ring, modules=tuple(modules))


# ------------------------------------------------------------- serialization


def _fmt_term(e: int, c: Fraction) -> str:
    if e == 0:
        return str(c)
    t = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return t
    if c == -1:
        return f"-{t}"
    return f"{c}*{t}"


def _fmt_poly(p) -> str:
    if not p:
        return "0"
    out = _fmt_term(*p[0])
    for e, c in p[1:]:
        if c > 0:
            out += f" + {_fmt_term(e, c)}"
        else:
            out += f" - {_fmt_term(e, -c)}"
    return out


def _fmt_vec(v: PolyVec) -> str:
    return "(" + ", ".join(_fmt_poly(p) for p in v) + ")"


def dumps_curve(spec: CurveSpec) -> str:
    lines = [f"branches: {spec.s}"]
    if spec.truncation is not None:
        lines.append(f"truncation: {spec.truncation}")
    lines.append("ring: " + " ; ".join(_fmt_vec(v) for v in spec.ring))
    for name, gens in spec.modules:
        lines.append(f"module {name}: " + " ; ".join(_fmt_vec(v) for v in gens))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- computations

_span_cache: dict = {}
_gamma_cache: dict = {}


def _ring_gens(spec: CurveSpec, N: int) -> list[SeriesVector]:
    return [SeriesVector.from_polys(g, N) for g in spec.ring]


def module_generators(spec: CurveSpec, name: str) -> tuple[PolyVec, ...]:
    """Generators for a named module; file names shadow the built-ins
    R, Rbar and C."""
    for n, gens in spec.modules:
        if n == name:
            return gens
    one = poly_vec([{0: 1}] * spec.s)
    if name == "R":
        return (one,)
    if name in ("Rbar", "C"):
        gamma = value_ideal(spec, "R").conductor
        gens = [one]
        for i in range(spec.s):
            for e in range(gamma[i]):
                branches = [{} for _ in range(spec.s)]
                branches[i] = {e: 1}
                gens.append(poly_vec(branches))
        if name == "Rbar":
            return tuple(gens)
        return tuple(poly_shift_vec(g, gamma) for g in gens)
    raise FrameError(
        f"unknown module {name!r}; file defines {spec.module_names()!r}, "
        "built-ins are R, Rbar, C"
    )


def span_from_polys(spec: CurveSpec, gens: tuple[PolyVec, ...], N: int) -> ModuleBasis:
    key = (spec, gens, N)
    got = _span_cache.get(key)
    if got is None:
        module_gens = [SeriesVector.from_polys(g, N) for g in gens]
        got = span_basis(_ring_gens(spec, N), module_gens)
        _span_cache[key] = got
    return got


def span_module(spec: CurveSpec, name: str, N: int) -> ModuleBasis:
    return span_from_polys(spec, module_generators(spec, name), N)


def _scan(basis: ModuleBasis, what: str) -> IdealFrame:
    """Value set over [0, N-2]^s, whose capping bound must lie inside."""
    hi = tuple(basis.N - 2 for _ in range(basis.s))
    G = value_semigroup_ideal(basis, hi)
    if any(g >= h for g, h in zip(G.gamma, hi)):
        raise TruncationError(
            f"{what} not strictly inside the scan box at truncation {basis.N}"
        )
    return G


def _gamma_once(spec: CurveSpec, gens: tuple[PolyVec, ...], N: int) -> IdealFrame:
    return _scan(span_from_polys(spec, gens, N), "conductor")


def _check_conductor_exists(spec: CurveSpec, gens: tuple[PolyVec, ...]) -> None:
    """Refuse, before any truncation is tried, a module that is zero on a
    branch and a ring whose projection to a branch lies in Q or in
    Q[[t^d]] with d > 1; neither has a conductor at any truncation."""
    for i in range(spec.s):
        if not any(g[i] for g in gens):
            names = [n for n, g in spec.modules if g == gens]
            label = repr(names[0]) if names else " ; ".join(_fmt_vec(g) for g in gens)
            raise FrameError(f"module {label} is zero on branch {i}; it has no value set")
        exps = [e for g in spec.ring for e, _ in g[i] if e > 0]
        if not exps:
            raise FrameError(
                f"every ring generator is constant on branch {i}, so the ring has no conductor"
            )
        d = math.gcd(*exps)
        if d > 1:
            raise FrameError(
                f"every ring exponent on branch {i} is a multiple of {d}, "
                "so the ring has no conductor"
            )


def value_ideal_from_polys(spec: CurveSpec, gens: tuple[PolyVec, ...]) -> IdealFrame:
    """Value semigroup ideal of the module generated by ``gens``.

    Runs the bootstrap/commit/stability truncation policy and certifies
    the result against the good-ideal axioms.
    """
    key = (spec, gens)
    got = _gamma_cache.get(key)
    if got is not None:
        return got
    _check_conductor_exists(spec, gens)
    if spec.truncation is not None:
        commit = spec.truncation
    else:
        orders = (16, 32, 64, 128, 256, 512)
        for N in orders:
            try:
                probe = _gamma_once(spec, gens, N)
                break
            except (TruncationError, FrameError):
                pass
        else:
            raise TruncationError(
                f"no stable conductor at truncations {', '.join(map(str, orders))}; "
                f"is the ring really a curve with {spec.s} branches?"
            )
        commit = max(16, 2 * max(probe.conductor) + 4)
    # a probe at the commit order is the commit scan itself
    Ga = probe if spec.truncation is None and commit == N else _gamma_once(spec, gens, commit)
    Gb = _gamma_once(spec, gens, commit + 2)
    if Ga != Gb:
        raise TruncationError(
            f"value set changed between truncations {commit} and {commit + 2}"
        )
    report = validate(Ga)
    if not (report.e1_ok and report.e2_ok):
        raise TruncationError(
            "computed value set fails the good-ideal axioms, which signals "
            "a truncation artifact:\n" + report.summary()
        )
    _gamma_cache[key] = Ga
    return Ga


def value_ideal(spec: CurveSpec, module: str = "R") -> IdealFrame:
    return value_ideal_from_polys(spec, module_generators(spec, module))


def _colon_once(
    spec: CurveSpec,
    K_gens: tuple[PolyVec, ...],
    E_gens: tuple[PolyVec, ...],
    gamma_K: Point,
    poles: Point,
    N: int,
) -> IdealFrame:
    ring = _ring_gens(spec, N)
    KB = span_from_polys(spec, K_gens, N)
    egens = [SeriesVector.from_polys(g, N) for g in E_gens]
    return _scan(colon_solution_basis(ring, KB, egens, gamma_K, poles), "colon conductor")


def colon_value_ideal(
    spec: CurveSpec, K: str, E: str, pole_bound=None
) -> IdealFrame:
    """Value semigroup ideal of the colon module K : E = {x : x*E ⊆ K}.

    The pole bound (how far below 0 solutions may reach) is proven, not
    guessed.  For x in K : E and a regular e in E (a nonzerodivisor, so
    v(xe) = v(x) + v(e)), v(x) + v(e) = v(xe) lies in Γ_K; hence
    Γ(K : E) ⊆ Γ_K - Γ_E, and P = max(0, -mu(Γ_K - Γ_E)) per branch bounds
    the poles of every solution.  The default is P, where a solution on
    the window's edge is legitimate; an explicit bound below P is refused
    before any elimination.  The result must agree with a rerun two
    orders higher.
    """
    GK = value_ideal(spec, K)
    GE = value_ideal(spec, E)
    K_gens = module_generators(spec, K)
    E_gens = module_generators(spec, E)
    gamma_K = GK.conductor
    s = spec.s
    proven = tuple(max(0, -m) for m in difference(GK, GE).mu)
    if pole_bound is None:
        poles = proven
    else:
        poles = (pole_bound,) * s if isinstance(pole_bound, int) else tuple(map(int, pole_bound))
        if any(p < q for p, q in zip(poles, proven)):
            raise PoleBoundError(
                f"pole bound {poles} is below the proven bound {proven} "
                f"from Γ({K}) - Γ({E}); solutions reach further down"
            )
    N = max(16, 2 * max(gamma_K) + 4) + max(poles) + 2
    if spec.truncation is not None:
        N = max(N, spec.truncation)
    Ga = _colon_once(spec, K_gens, E_gens, gamma_K, poles, N)
    Gb = _colon_once(spec, K_gens, E_gens, gamma_K, poles, N + 2)
    if Ga != Gb:
        raise TruncationError(f"colon value set changed between truncations {N} and {N + 2}")
    return Ga.shift(tuple(-p for p in poles))


def length_quotient(spec: CurveSpec, F: str, E: str) -> int:
    """Q-dimension of F/E for nested modules E ⊆ F (larger first)."""
    GE = value_ideal(spec, E)
    GF = value_ideal(spec, F)
    c = cmax(GE.conductor, GF.conductor)
    N = max(16, 2 * max(c) + 4)
    if spec.truncation is not None:
        N = max(N, spec.truncation)
    FB = span_module(spec, F, N)
    EB = span_module(spec, E, N)
    for g in module_generators(spec, E):
        if not FB.contains(SeriesVector.from_polys(g, N)):
            raise InclusionError(f"module {E!r} is not contained in {F!r}")
    for name, B, G in ((E, EB, GE), (F, FB, GF)):
        for i in range(spec.s):
            for e in range(c[i], N):
                if not B.contains(SeriesVector.monomial(spec.s, N, i, e)):
                    raise TruncationError(
                        f"module {name!r} misses t^{e} on branch {i} below truncation; "
                        "conductor data is inconsistent"
                    )
    total = 0
    for i in range(spec.s):
        total += sum(1 for e in FB.pivot_exponents(i) if e < c[i])
        total -= sum(1 for e in EB.pivot_exponents(i) if e < c[i])
    return total


def conductor_of(spec: CurveSpec, module: str = "R", verify: bool = True) -> tuple[Point, ModuleBasis]:
    """The conductor gamma of the module's value set together with the
    monomial module t^gamma * Rbar it cuts out.

    With ``verify`` the monomial description is checked against the colon
    computation Γ(module : Rbar) = gamma + N^s.
    """
    G = value_ideal(spec, module)
    gamma = G.conductor
    N = max(16, 2 * max(gamma) + 4)
    if spec.truncation is not None:
        N = max(N, spec.truncation)
    basis = ModuleBasis(spec.s, N)
    for i in range(spec.s):
        for e in range(gamma[i], N):
            basis.insert(SeriesVector.monomial(spec.s, N, i, e))
    if verify:
        got = colon_value_ideal(spec, module, "Rbar")
        expected = IdealFrame(spec.s, gamma, gamma, [gamma], _normalized=True)
        if got != expected:
            raise NotCertifiedError(
                f"colon against the full ring gives {got.frame_sorted}, "
                f"not the orthant at {gamma}"
            )
    return gamma, basis
