"""Parametrized curve rings over Q and their value semigroup ideals.

A curve file names the subring R of ∏ Q[[t]] spanned (as a Q-algebra)
by finitely many polynomial vectors, plus any number of R-modules given
by generators:

    # an example with two branches
    branches: 2
    ring: (-t^4, t) ; (-t^3, 0) ; (0, t) ; (t^5, 0)
    module E: (t^3, t) ; (t^2, 0)

Every computation is exact over Q.  Truncation orders are chosen
automatically: a bootstrap probes orders 16, 32, ... until one shows a
conductor gamma that a Nakayama certificate proves (see :func:`_value`),
and the value set is committed at the smallest order the certificate
covers, max_i(gamma_i + max(3, e_i)) with J·Rbar = ∏ t^(e_i)·Q[[t]].
Each reported value set must also agree bitwise with a rerun at a higher
order, otherwise a TruncationError is raised.  A module zero on some
branch, or a ring that is constant or a series in t^d (d > 1) on some
branch, has no conductor and is refused up front.  An explicit
``truncation:`` line overrides the bootstrap but neither the certificate
nor the rerun.

Module names ``R`` (the ring), ``Rbar`` (the full product of power-series
rings) and ``C`` (the conductor module t^gamma * Rbar) are built in;
names defined in the file shadow them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from ..errors import (
    FrameError,
    InclusionError,
    NotCertifiedError,
    ParseError,
    TruncationError,
)
from .. import ideals
from ..ideals import IdealFrame, _Frozen, validate
from ..lattice import Point, cmax
from .modules import (
    ModuleBasis,
    _row,
    colon_solution_basis,
    require_monomials,
    span_basis,
    value_semigroup_ideal,
)
from .series import PolyVec, poly_vec

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


class CurveSpec(_Frozen):
    """Immutable parsed curve description, with the store of everything
    computed on it (see :class:`_Store`).  Equality and hashing ignore the
    store; every instance gets its own."""

    _fields = ("s", "truncation", "ring", "modules")
    __slots__ = _fields + ("_store",)

    def __init__(
        self,
        s: int,
        truncation: int | None,
        ring: tuple[PolyVec, ...],
        modules: tuple[tuple[str, tuple[PolyVec, ...]], ...],
    ):
        self._init(s, truncation, ring, modules)
        object.__setattr__(self, "_store", _Store(self))

    def module_names(self) -> list[str]:
        return [name for name, _ in self.modules]


# ---------------------------------------------------------------- parsing


def _parse_poly(text: str, col: int, fail) -> tuple:
    # split into signed terms; exponents are plain integers, so every
    # +/- at this level separates terms
    terms: list[tuple[int, str, int]] = []  # (sign, chunk, col)
    sign, start = 1, 0
    for idx, ch in enumerate(text + "+"):  # sentinel flushes the last chunk
        if ch in "+-":
            chunk = text[start:idx]
            if chunk.strip():
                terms.append((sign, chunk, col + start))
            elif start or terms:  # an empty chunk is fine only as a single leading sign
                fail("empty term", col + idx)
            sign, start = (1 if ch == "+" else -1), idx + 1
    if not terms:
        fail("empty polynomial", col)
    acc: dict[int, Fraction] = {}
    for sgn, chunk, ccol in terms:
        m = _TERM_RE.match(chunk)
        if not m or (m["coef"] is None and m["t"] is None):
            fail(f"cannot read term {chunk.strip()!r}", ccol)
        if m["star"] and m["t"] is None:
            fail("'*' without a t-power", ccol)
        exp = 0 if m["t"] is None else int(m["exp"] or 1)
        acc[exp] = acc.get(exp, 0) + sgn * Fraction(m["coef"].replace(" ", "") if m["coef"] else 1)
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def _parse_vector(text: str, s: int, col: int, fail) -> PolyVec:
    stripped = text.strip()
    at = col + len(text) - len(text.lstrip())
    if not (stripped.startswith("(") and stripped.endswith(")")):
        fail("generator must be parenthesized, like (t^2, -t)", at)
    parts = stripped[1:-1].split(",")
    if len(parts) != s:
        fail(f"expected {s} branches, found {len(parts)}", at)
    polys = []
    for part in parts:
        polys.append(_parse_poly(part, at + 1, fail))
        at += len(part) + 1
    return tuple(polys)


def _parse_genlist(text: str, s: int, col: int, fail) -> tuple[PolyVec, ...]:
    gens, at = [], col
    for piece in text.split(";"):
        if piece.strip():
            gens.append(_parse_vector(piece, s, at, fail))
        at += len(piece) + 1
    if not gens:
        fail("no generators given", col)
    return tuple(gens)


def parse_curve(text: str, filename: str | None = None) -> CurveSpec:
    s = truncation = ring = None
    modules: list[tuple[str, tuple[PolyVec, ...]]] = []

    def fail(msg: str, col: int = 1):
        raise ParseError(msg, line=ln, col=col, filename=filename)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            fail("expected 'key: value'")
        key, _, rest = line.partition(":")
        vcol, key = len(key) + 2, key.strip()
        if key in ("branches", "truncation"):
            low = 1 if key == "branches" else 4
            try:
                n = int(rest.strip())
            except ValueError:
                fail(f"{key} must be an integer", vcol)
            if n < low:
                fail(f"{key} must be >= {low}", vcol)
            if (s if key == "branches" else truncation) is not None:
                fail(f"duplicate '{key}:' line")
            s, truncation = (n, truncation) if key == "branches" else (s, n)
        elif key == "ring" or key.split()[:1] == ["module"]:
            if s is None:
                fail("'branches:' must come before generators")
            gens = _parse_genlist(rest, s, vcol, fail)
            if key == "ring":
                if ring is not None:
                    fail("duplicate 'ring:' line")
                ring = gens
                continue
            name = key[len("module") :].strip()
            if not _NAME_RE.match(name):
                fail(f"bad module name {name!r}")
            if any(name == n for n, _ in modules):
                fail(f"duplicate module {name!r}")
            modules.append((name, gens))
        else:
            fail(f"unknown key {key!r}")
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
    return t if c == 1 else f"-{t}" if c == -1 else f"{c}*{t}"


def _fmt_poly(p) -> str:
    if not p:
        return "0"
    rest = (f" + {_fmt_term(e, c)}" if c > 0 else f" - {_fmt_term(e, -c)}" for e, c in p[1:])
    return _fmt_term(*p[0]) + "".join(rest)


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


def integer_terms(polys) -> tuple:
    """The primitive integer multiple of a rational polynomial vector,
    given as ((exp, coeff), ...) per branch by exponent."""
    den = math.lcm(*(c.denominator for p in polys for _, c in p))
    ints = [[(e, c.numerator * (den // c.denominator)) for e, c in sorted(p) if c] for p in polys]
    g = math.gcd(*(c for p in ints for _, c in p)) or 1
    return tuple(tuple((e, c // g) for e, c in p) for p in ints)


class _Store:
    """Everything computed on one curve, keyed by integer generators.

    ``ring`` and ``named`` hold generators cleared once to primitive
    integer terms, which do not depend on the truncation: products stop
    at it.  ``spans`` keeps per generator tuple the highest-order span
    built and the lower orders cut from it, each row for row a fresh
    build (:meth:`ModuleBasis.truncated`); ``values`` the certified value
    sets.  No lookup hashes a Fraction.
    """

    __slots__ = ("ring", "named", "spans", "values")

    def __init__(self, spec: CurveSpec):
        self.ring = tuple(map(integer_terms, spec.ring))
        self.named = {"R": ((((0, 1),),) * spec.s,)}
        self.named.update((n, tuple(map(integer_terms, g))) for n, g in spec.modules)
        self.spans: dict[tuple, dict[int, ModuleBasis]] = {}
        self.values: dict[tuple, IdealFrame] = {}


def _gens(spec: CurveSpec, name: str) -> tuple:
    """Integer generator terms of a named module."""
    named = spec._store.named
    if name not in named:
        if name not in ("Rbar", "C"):
            raise FrameError(
                f"unknown module {name!r}; file defines {spec.module_names()!r}, "
                "built-ins are R, Rbar, C"
            )
        gamma = value_ideal(spec, "R").conductor
        lift = gamma if name == "C" else (0,) * spec.s
        named[name] = (tuple(((k, 1),) for k in lift),) + tuple(
            tuple(((e + k, 1),) if b == i else () for b, k in enumerate(lift))
            for i in range(spec.s)
            for e in range(gamma[i])
        )
    return named[name]


def module_generators(spec: CurveSpec, name: str) -> tuple[PolyVec, ...]:
    """Generators for a named module; file names shadow the built-ins
    R, Rbar and C."""
    return dict(spec.modules).get(name) or tuple(map(poly_vec, _gens(spec, name)))


def _span(spec: CurveSpec, gens: tuple, N: int) -> ModuleBasis:
    """The span of ``gens`` at order N: cut from the highest span built
    when that is at least as high, else built, replacing it and its cuts."""
    got = spec._store.spans.setdefault(gens, {})
    if N not in got:
        top = max(got, default=0)
        if top < N:
            got.clear()
        got[N] = got[top].truncated(N) if top > N else span_basis(spec._store.ring, gens, N)
    return got[N]


def span_module(spec: CurveSpec, name: str, N: int) -> ModuleBasis:
    return _span(spec, _gens(spec, name), N)


def _scan(basis: ModuleBasis, what: str) -> IdealFrame:
    """Value set over [0, N-2]^s, whose capping bound must lie inside."""
    hi = tuple(basis.N - 2 for _ in range(basis.s))
    G = value_semigroup_ideal(basis, hi)
    if any(g >= h for g, h in zip(G.gamma, hi)):
        raise TruncationError(f"{what} not strictly inside the scan box at truncation {basis.N}")
    return G


def _radical_orders(spec: CurveSpec) -> Point:
    """The orders e with J·Rbar = ∏ t^(e_i)·Q[[t]], J the ideal of ring
    elements with zero constant terms: e_i is the least positive exponent
    of a ring generator on branch i.

    That is the least i-th coordinate of a point alpha >= (1, ..., 1) of
    Γ_R.  On branch i every element of R is its constant term plus a sum
    of products, each with a factor g_i - c_i for a generator g and its
    constant term c_i, so an element of J has order at least e_i there.  Conversely, if g attains e_i and c is its vector of
    constant terms, p(g) with p(x) = ∏ (x - c) over the distinct c_k lies
    in J and has order e_i on branch i, the other factors being units
    there; adding an element of the conductor ideal of order above e_i on
    every branch makes it a nonzerodivisor, so its value lies in Γ_R.

    A ring whose projection to a branch lies in Q or in Q[[t^d]], d > 1,
    has no conductor at any truncation and is refused.
    """
    e = []
    for i in range(spec.s):
        exps = [x for g in spec._store.ring for x, _ in g[i] if x > 0]
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
        e.append(min(exps))
    return tuple(e)


def _check_conductor_exists(spec: CurveSpec, gens: tuple) -> None:
    """Refuse, before any truncation is tried, a module that is zero on a
    branch; it has no conductor at any truncation."""
    for i in range(spec.s):
        if not any(g[i] for g in gens):
            names = [n for n, g in spec._store.named.items() if g == gens]
            label = repr(names[0]) if names else " ; ".join(_fmt_vec(g) for g in gens)
            raise FrameError(f"module {label} is zero on branch {i}; it has no value set")


def _certify(spec: CurveSpec, gens: tuple, gamma: Point, e: Point, N: int) -> None:
    """Refuse unless the span at N proves t^gamma·Rbar ⊆ M: N >= gamma + e
    on every branch, and the span holds t^k for gamma_i <= k < N."""
    if any(g + x > N for g, x in zip(gamma, e)):
        low = tuple(g + x for g, x in zip(gamma, e))
        raise TruncationError(
            f"truncation {N} is below γ + e = {low} for the candidate conductor {gamma}"
        )
    require_monomials(_span(spec, gens, N), gamma, "the span")


def _value(spec: CurveSpec, gens: tuple) -> IdealFrame:
    """Value set of the module M generated by integer terms ``gens``.

    The bootstrap probes orders 16, 32, ... and stops before an order
    whose scan box [0, N-2]^s exceeds the box limit.  A probe at N builds
    the span at N and succeeds when three checks pass:

    1. precheck: the span holds t^(N-1) on every branch, which a
       conductor inside the box forces; otherwise no scan runs;
    2. scan: the value set over the box has a candidate conductor gamma
       strictly inside it;
    3. certificate (:func:`_certify`): with N_c = max_i(gamma_i +
       max(3, e_i)), e from :func:`_radical_orders`, the span at N_c
       holds t^k for gamma_i <= k < N_c.

    Proof that the certificate gives t^gamma·Rbar ⊆ M.  Let A be the
    closure of R in Rbar = ∏ Q[[t]] and M the closure of the module, which
    has the same values and the same truncations.  Rbar is finite over A:
    A holds an element of positive order on every branch, and Q[[t]] is
    finite over the power series in it.  J, the elements of A with zero
    constant terms, is an ideal inside the Jacobson radical of A: for x
    in J, 1 + x is a unit of Rbar whose inverse, the t-adic limit of
    sum (-x)^k, lies in A.  And J·Rbar = ∏ t^(e_i)·Q[[t]].  The monomials give t^gamma·Rbar ⊆ M +
    t^(N_c)·Rbar, and N_c >= gamma + e gives t^(N_c)·Rbar ⊆
    J·t^gamma·Rbar, so t^gamma·Rbar ⊆ M + J·t^gamma·Rbar.  Nakayama's
    lemma, for the finite A-module t^gamma·Rbar, gives t^gamma·Rbar ⊆ M.
    Nothing here needs R local: a ring with a (0, 2) generator is
    semilocal, and J is still its radical.

    M then holds t^(N_c)·Rbar, so it is the full preimage of its span at
    N_c, and every witness of the scan over [0, N_c - 2]^s lifts to M:
    the in-box values are exact, the conductor lies strictly inside the
    box (N_c >= gamma + 3), and capping at the box's corner reproduces
    the value set.  The commit scan runs at N_c.  Its rerun at a higher
    order is the probe's own scan when N >= N_c + 2, else a scan at
    N_c + 2, built first with N_c cut from it when N_c > N; the two must
    agree and the result must pass the good-ideal axioms.  An explicit
    truncation commits at its own order N, building N + 2 first, and
    certifies there with N in place of N_c.
    """
    values = spec._store.values
    if gens in values:
        return values[gens]
    _check_conductor_exists(spec, gens)
    e = _radical_orders(spec)
    s = spec.s
    if spec.truncation is not None:
        commit = N = spec.truncation
        _span(spec, gens, N + 2)
        probe = _scan(_span(spec, gens, N), "conductor")
        _certify(spec, gens, probe.conductor, e, N)
    else:
        probe, tried, limit, refusal = None, [], None, None
        for N in (16, 32, 64, 128, 256, 512):
            if (N - 1) ** s > ideals.MAX_CELLS:
                limit = f"truncation {N} was not tried, as its scan box [0, {N - 2}]^{s} exceeds"
                limit += f" the box limit of {ideals.MAX_CELLS} cells"
                break
            tried.append(N)
            B = _span(spec, gens, N)
            try:
                check = "precheck"
                require_monomials(B, (N - 1,) * s, "the span")
                check = "scan box"
                G = _scan(B, "conductor")
                check = "certificate"
                commit = max(g + max(3, x) for g, x in zip(G.conductor, e))
                if commit > N:
                    _span(spec, gens, commit + 2)
                _certify(spec, gens, G.conductor, e, commit)
                probe = G
                break
            except (TruncationError, FrameError) as exc:
                refusal = f"the {check} refused truncation {N}: {exc}"
        if probe is None:
            question = None if limit else f"is the ring really a curve with {s} branches?"
            raise TruncationError(
                f"no stable conductor at truncations {', '.join(map(str, tried))}; "
                + "; ".join(filter(None, (limit, refusal, question)))
            )
    Ga = probe if commit == N else _scan(_span(spec, gens, commit), "conductor")
    # a probe two orders above the commit order is the rerun itself
    rerun = N if N >= commit + 2 else commit + 2
    Gb = probe if rerun == N else _scan(_span(spec, gens, rerun), "conductor")
    if Ga != Gb:
        raise TruncationError(f"value set changed between truncations {commit} and {rerun}")
    report = validate(Ga)
    if not (report.e1_ok and report.e2_ok):
        raise TruncationError(
            "computed value set fails the good-ideal axioms, which signals "
            "a truncation artifact:\n" + report.summary()
        )
    values[gens] = Ga
    return Ga


def value_ideal_from_polys(spec: CurveSpec, gens: tuple[PolyVec, ...]) -> IdealFrame:
    """Value semigroup ideal of the module generated by ``gens``.

    Runs the certified truncation policy of :func:`_value`: bootstrap,
    Nakayama certificate, commit, rerun and the good-ideal axioms.
    """
    return _value(spec, tuple(map(integer_terms, gens)))


def value_ideal(spec: CurveSpec, module: str = "R") -> IdealFrame:
    return _value(spec, _gens(spec, module))


def colon_value_ideal(spec: CurveSpec, K: str, E: str) -> IdealFrame:
    """Value semigroup ideal of the colon module K : E = {x : x*E ⊆ K}.

    The pole bound (how far below 0 solutions may reach) is proven, not
    guessed.  For x in K : E and a regular e in E (a nonzerodivisor, so
    v(xe) = v(x) + v(e)), v(x) + v(e) = v(xe) lies in Γ_K; hence
    Γ(K : E) ⊆ Γ_K - Γ_E, and P = max(0, -mu(Γ_K - Γ_E)) per branch bounds
    the poles of every solution.  The pole window is P, and a solution on
    its edge is legitimate.

    The truncation N = max_i(γ_K,i + p_i + 2, γ_K,i - μ_E,i + p_i + 3),
    p the poles, is proven too: t^(γ_K - μ_E)·Rbar·E ⊆ t^(γ_K)·Rbar ⊆ K,
    so the colon's conductor is at most γ_K - μ_E, and after the shift by
    p it lies strictly inside the scan box [0, N - 2]^s.  The result must
    agree with a rerun two orders higher, which runs first so that the
    span of K at N is cut from the one at N + 2.
    """
    from ..duality import difference  # only the colon needs duality

    GK = value_ideal(spec, K)
    GE = value_ideal(spec, E)
    K_gens, E_gens, ring = _gens(spec, K), _gens(spec, E), spec._store.ring
    gamma_K = GK.conductor
    poles = tuple(max(0, -m) for m in difference(GK, GE).mu)
    N = max(max(g + p + 2, g - m + p + 3) for g, m, p in zip(gamma_K, GE.mu, poles))
    if spec.truncation is not None:
        N = max(N, spec.truncation)
    Gb, Ga = (
        _scan(colon_solution_basis(ring, _span(spec, K_gens, n), E_gens, gamma_K, poles), "colon conductor")
        for n in (N + 2, N)
    )
    if Ga != Gb:
        raise TruncationError(f"colon value set changed between truncations {N} and {N + 2}")
    return Gb.shift(tuple(-p for p in poles))


def _order(spec: CurveSpec, c: Point) -> int:
    """The truncation at which certified modules are read below their
    conductors c: max(c) + 1, or an explicit truncation when larger.  A
    certified module holds t^c·Rbar, so it is the full preimage of its
    span at any order above c."""
    N = max(c) + 1
    return N if spec.truncation is None else max(N, spec.truncation)


def length_quotient(spec: CurveSpec, F: str, E: str) -> int:
    """Q-dimension of F/E for nested modules E ⊆ F (larger first)."""
    c = cmax(value_ideal(spec, E).conductor, value_ideal(spec, F).conductor)
    N = _order(spec, c)
    FB, EB = span_module(spec, F, N), span_module(spec, E, N)
    rows = [_row(g, N) for g in _gens(spec, E)]
    for v in rows:
        FB._fully_reduce(v)
    if any(rows):
        raise InclusionError(f"module {E!r} is not contained in {F!r}")
    for name, B in ((E, EB), (F, FB)):
        require_monomials(B, c, f"module {name!r}")
    # a pivot below c is one dimension of the module modulo t^c·Rbar
    return sum(p % N < c[p // N] for p in FB.rows) - sum(p % N < c[p // N] for p in EB.rows)


def conductor_of(spec: CurveSpec, module: str = "R") -> tuple[Point, ModuleBasis]:
    """The conductor gamma of the module's value set together with the
    monomial module t^gamma * Rbar it cuts out.

    The basis is given at the certified order :func:`_order`, and the
    module's span there must hold it (:func:`require_monomials`), and the
    colon computation must give Γ(module : Rbar) = gamma + N^s.
    """
    gamma = value_ideal(spec, module).conductor
    N = _order(spec, gamma)
    require_monomials(span_module(spec, module, N), gamma, f"module {module!r}")
    basis = ModuleBasis(spec.s, N)
    # the monomials are already a reduced echelon basis of primitive rows
    basis.rows = {p: {p: 1} for i, g in enumerate(gamma) for p in range(i * N + g, (i + 1) * N)}
    got = colon_value_ideal(spec, module, "Rbar")
    if got != IdealFrame(spec.s, gamma, gamma, [gamma], _normalized=True):
        raise NotCertifiedError(
            f"colon against the full ring gives {got.frame_sorted}, not the orthant at {gamma}"
        )
    return gamma, basis
