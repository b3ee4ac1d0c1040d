"""Parametrized curve rings over Q and their value semigroup ideals.

A curve file names the subring R of ∏ Q[[t]] spanned (as a Q-algebra)
by finitely many polynomial vectors, plus any number of R-modules given
by generators:

    # an example with two branches
    branches: 2
    ring: (-t^4, t) ; (-t^3, 0) ; (0, t) ; (t^5, 0)
    module E: (t^3, t) ; (t^2, 0)

Every computation is exact over Q.  Truncation orders are chosen
automatically and certified (see :func:`_value`): a span's monomial tail
is the candidate conductor, a Nakayama certificate proves it, and the
value set is committed at the least order the certificate covers and
must agree bitwise with a rerun two orders higher.  A module zero on some
branch, or a ring that is constant or a series in t^d (d > 1) on some
branch, has no conductor and is refused up front.  An explicit
``truncation:`` line overrides the bootstrap but neither the certificate
nor the rerun.

Module names ``R`` (the ring), ``Rbar`` (the full product of power-series
rings), ``C`` (the conductor module t^gamma * Rbar) and ``m`` (the
maximal ideal of a local ring) are built in; names defined in the file
shadow them.  Rbar and C each have Σe_i generators, t^k·ε_i and
t^(gamma_i + k)·ε_i for 0 <= k < e_i, ε_i the idempotent of branch i
(see :func:`_gens`); only C needs the ring's value set.  m is generated
by the g - c_g, c_g the constant term of ring generator g, and
:func:`type_of` reads the type t(R) = ℓ((R : m)/R) off it.
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
from ..axioms import require_good
from ..ideals import IdealFrame, _Frozen, is_subset, validate
from ..lattice import Point, cmax
from .modules import (
    ModuleBasis,
    _row,
    colon_solution_basis,
    monomial_tail,
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
    "type_of",
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
            at = col + start + len(chunk) - len(chunk.lstrip())  # the term's first character
            if ch == "-" and chunk.rstrip().endswith("^"):
                fail("exponents must be nonnegative integers", at)
            if chunk.strip():
                terms.append((sign, chunk, at))
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
        try:
            coef = Fraction(m["coef"].replace(" ", "") if m["coef"] else 1)
        except ZeroDivisionError:
            fail(f"zero denominator in term {chunk.strip()!r}", ccol)
        acc[exp] = acc.get(exp, 0) + sgn * coef
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
    at it.  ``spans`` keeps per generator tuple one span, the highest-order
    one built, with its monomial tail (:func:`modules.monomial_tail`),
    taken when the span is built: a held span is never changed, only
    replaced together with its tail, so every certificate that reads the
    tail reads the held span's.  Read at order n, the span is scanned over
    [0, n - 2]^s, where it has the values of the span at n: truncation to
    n is a ring map onto that span whose kernel, of positions at or above
    n, lies in the filtration levels at alpha and alpha + e_i that decide
    a value alpha of the box.  ``values`` the certified value sets.  No
    lookup hashes a Fraction.
    """

    __slots__ = ("ring", "named", "spans", "values")

    def __init__(self, spec: CurveSpec):
        self.ring = tuple(map(integer_terms, spec.ring))
        self.named = {"R": ((((0, 1),),) * spec.s,)}
        self.named.update((n, tuple(map(integer_terms, g))) for n, g in spec.modules)
        self.spans: dict[tuple, tuple[ModuleBasis, Point]] = {}
        self.values: dict[tuple, IdealFrame] = {}


def _gens(spec: CurveSpec, name: str) -> tuple:
    """Integer generator terms of a named module.

    Rbar is generated by the t^k·ε_i with 0 <= k < e_i, ε_i the idempotent
    of branch i and e from :func:`_radical_orders`, and C = t^gamma·Rbar,
    gamma the ring's conductor, by the t^(gamma_i + k)·ε_i: Σe_i
    generators each, and Rbar's need no value set.  Proof: the Q-span of
    the t^k·ε_i plus J·Rbar = ∏ t^(e_i)·Q[[t]] is all of Rbar, J the ring
    elements with zero constant terms (proved in :func:`_radical_orders`).
    With A the closure of R, J lies in the Jacobson radical of A and Rbar
    is finite over A (both proved in :func:`_value`), so Nakayama's lemma
    gives Rbar = A·{t^k·ε_i}, whose truncations are those of the span of
    R·{t^k·ε_i}.  Multiplying by t^gamma gives C.

    m is generated by the g - c_g, g a ring generator and c_g its constant
    term, which must be the same on every branch; zero vectors are
    dropped.  Proof: the constant term on a branch is a ring map R -> Q,
    onto, the same map on every branch when every generator's constant
    terms agree, and m is its kernel.  An element P(g) of R, P a
    polynomial in the generators, lies in m iff P(c) = 0, and
    P(x) - P(c) lies in the ideal of Q[x] generated by the x_j - c_j, so
    P(g) lies in the ideal generated by the g - c_g.  A semilocal ring
    has no one maximal ideal, and m is refused, naming a generator and
    its constant term on each branch.
    """
    named = spec._store.named
    if name in named:
        return named[name]
    if name == "m":
        named[name] = tuple(_maximal_ideal(spec))
    elif name in ("Rbar", "C"):
        e = _radical_orders(spec)
        lift = value_ideal(spec, "R").conductor if name == "C" else (0,) * spec.s
        named[name] = tuple(
            tuple(((lift[i] + k, 1),) if b == i else () for b in range(spec.s))
            for i in range(spec.s)
            for k in range(e[i])
        )
    else:
        raise FrameError(
            f"unknown module {name!r}; file defines {spec.module_names()!r}, "
            "built-ins are R, Rbar, C, m"
        )
    return named[name]


def _maximal_ideal(spec: CurveSpec):
    """The integer terms of the nonzero g - c_g, g a ring generator and c_g
    its constant term on every branch; a generator whose constant terms
    differ is refused (see :func:`_gens`)."""
    for g, terms in zip(spec.ring, spec._store.ring):
        consts = [dict(p).get(0, 0) for p in g]
        if len(set(consts)) > 1:
            where = ", ".join(f"{c} on branch {i}" for i, c in enumerate(consts))
            raise FrameError(f"the built-in module 'm' needs a local ring, but ring generator {_fmt_vec(g)} "
                             f"has constant terms {where}: the ring is semilocal")
        if any(e for p in terms for e, _ in p):
            yield integer_terms(tuple(p[1:] if p and not p[0][0] else p for p in terms))


def module_generators(spec: CurveSpec, name: str) -> tuple[PolyVec, ...]:
    """Generators for a named module; file names shadow the built-ins
    R, Rbar, C and m, whose generators :func:`_gens` gives: 1 for R,
    t^k·ε_i for Rbar and t^(gamma_i + k)·ε_i for C, 0 <= k < e_i, and the
    nonzero g - c_g for m."""
    return dict(spec.modules).get(name) or tuple(map(poly_vec, _gens(spec, name)))


def _span(spec: CurveSpec, gens: tuple, N: int) -> tuple[ModuleBasis, Point]:
    """The held span of ``gens`` and its monomial tail when its order is at
    least N, else the span built at N and its tail, which replace them."""
    spans = spec._store.spans
    if gens not in spans or spans[gens][0].N < N:
        B = span_basis(spec._store.ring, gens, N)
        spans[gens] = B, monomial_tail(B)
    return spans[gens]


def span_module(spec: CurveSpec, name: str, N: int) -> ModuleBasis:
    """The module's span at order N or above: its values in every box
    [0, hi] with hi <= N - 2 are those of the span at N (see :class:`_Store`)."""
    return _span(spec, _gens(spec, name), N)[0]


def _scan(basis: ModuleBasis, n: int, what: str) -> IdealFrame:
    """Value set at order n <= basis.N, over [0, n-2]^s, refused unless its capping bound
    lies inside: a corner that is no value (the scan's only FrameError here) puts it outside."""
    hi = (n - 2,) * basis.s
    where = f"{what} not strictly inside the scan box at truncation {n}"
    try:
        G = value_semigroup_ideal(basis, hi)
    except FrameError as exc:
        raise TruncationError(f"{where}: {exc}") from exc
    if any(g >= h for g, h in zip(G.gamma, hi)):
        raise TruncationError(where)
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
    """Refuse unless the held span, of order N' >= N, proves t^gamma·Rbar ⊆ M:
    N >= gamma + e on every branch, and the span holds t^k for gamma_i <= k < N'."""
    if any(g + x > N for g, x in zip(gamma, e)):
        low = tuple(g + x for g, x in zip(gamma, e))
        raise TruncationError(
            f"truncation {N} is below γ + e = {low} for the candidate conductor {gamma}"
        )
    B, tail = _span(spec, gens, N)
    require_monomials(B, gamma, "the span", tail)


def _checked_commit(s: int, commit: int, what: str) -> int:
    """``commit``, the commit order of ``what``, refused if the rerun at
    commit + 2 would scan more than the box limit: its box [0, commit]^s
    is the largest a certified value set or colon scans, so this is the
    one box test, made before any scan."""
    if (commit + 1) ** s > ideals.MAX_CELLS:
        raise TruncationError(f"{what} commits at truncation {commit}, but the rerun at {commit + 2} scans "
                              f"[0, {commit}]^{s}, of {(commit + 1) ** s} cells, over the box limit of "
                              f"{ideals.MAX_CELLS} cells")
    return commit


def _bootstrap(spec: CurveSpec, gens: tuple, e: Point) -> int:
    """The commit order of the module generated by ``gens`` (see :func:`_value`)."""
    s, tried, notes = spec.s, [], []
    N = 8
    while True:
        tried.append(N)
        B, c = _span(spec, gens, N)  # at N, unless a higher span is held
        commit = max(g + max(3, x) for g, x in zip(c, e))
        if B.N in c:
            notes.append(f"the precheck refused truncation {B.N}: "
                         f"the span misses t^{B.N - 1} on branch {c.index(B.N)}")
            rule = 1 << N.bit_length()  # the next of 8, 16, 32, ...
        elif commit <= N:
            return _checked_commit(s, commit, f"the candidate conductor {c}")
        else:
            notes.append(f"the certificate refused truncation {N}: the candidate conductor {c} needs truncation {commit}")
            rule = commit + 2 if N == 512 else min(max(commit + 2, N + N // 4), 2 * N)
        refused = f"no stable conductor at truncations {', '.join(map(str, tried))}; " + "; ".join(notes)
        _checked_commit(s, commit, f"{refused}; the least conductor they allow, {c},")
        if N < 512:
            N = min(rule, 512)
        elif N == 512 and N not in c:
            N = rule
        else:
            break
    raise TruncationError(f"{refused}; the probes stop at their ceiling of 512, and the conductor may lie past it; "
                          f"is the ring really a curve with {s} branch{'es' if s > 1 else ''}?")


def _value(spec: CurveSpec, gens: tuple) -> IdealFrame:
    """Value set of the module M generated by integer terms ``gens``.

    The bootstrap tries orders N from 8 on, with one span each.  Its
    monomial tail c (:func:`modules.monomial_tail`) is the candidate
    conductor: c <= gamma, M's conductor, as M holds t^gamma·Rbar, and
    c = gamma once N > gamma, as then M ⊇ t^N·Rbar.  If c_i = N on a
    branch (the precheck fails), gamma_i >= N, no candidate bounds it,
    and N moves to the next of 8, 16, 32, ...; back on that grid, a
    precheck failure after a step to 20 costs a span at 32, not at 40.
    Else let commit = max_i(c_i + max(3, e_i)), e from
    :func:`_radical_orders`.  If commit <= N, the span at N is the
    certificate below, so c = gamma with no higher span.  Else the next
    order is commit + 2, where a true candidate commits and reruns in one
    span, held within [N + N // 4, 2N] so that orders grow geometrically
    and a far-off candidate cannot overshoot gamma by much.

    Every step is clamped to the ceiling 512.  Past it only a candidate
    found at 512 steps, once, to its commit + 2, where it commits if
    gamma < 512, as then c = gamma already at 512.  So a ring with no
    conductor, or one whose conductor lies past the ceiling, such as
    Q[[t^100000, t^100001]], is refused there, naming each order tried,
    the check that refused it, and that the conductor may lie past it.
    Every probe's commit is tested against the box limit: as c <= gamma,
    no conductor the probe allows commits lower, so a rerun box
    [0, commit]^s over the limit is refused at once, before any scan,
    and a module whose own rerun box fits is never refused for its box.

    Certificate (:func:`_certify`): the span at an order N_c >= c + e
    holds t^k for c_i <= k < N_c.  Proof that then t^c·Rbar ⊆ M.  Let A
    be the closure of R in Rbar = ∏ Q[[t]] and M the closure of the
    module, which has the same values and the same truncations.  Rbar is
    finite over A: A holds an element of positive order on every branch,
    and Q[[t]] is finite over the power series in it.  J, the elements of
    A with zero constant terms, is an ideal inside the Jacobson radical
    of A: for x in J, 1 + x is a unit of Rbar whose inverse, the t-adic
    limit of sum (-x)^k, lies in A.  And J·Rbar = ∏ t^(e_i)·Q[[t]].
    Truncation keeps monomials, so t^c·Rbar ⊆ M + t^(N_c)·Rbar, and
    N_c >= c + e gives t^(N_c)·Rbar ⊆ J·t^c·Rbar, so t^c·Rbar ⊆ M +
    J·t^c·Rbar.  Nakayama's lemma, for the finite A-module t^c·Rbar,
    gives t^c·Rbar ⊆ M.  Nothing here needs R local: a ring with a
    (0, 2) generator is semilocal, and J is still its radical.

    M then holds t^commit·Rbar, so it is the full preimage of its span at
    commit, and every witness of the scan over [0, commit - 2]^s lifts
    to M: the in-box values are exact, the conductor lies strictly inside
    the box (commit >= c + 3), and capping at the box's corner reproduces
    the value set.  It is scanned exactly twice, over [0, commit - 2]^s
    and [0, commit]^s, on the one span held, of order at least commit + 2
    (see :class:`_Store`).  The conductor of the scan at commit must pass
    the certificate on that span, valid as its order is at least c + e,
    which cross-checks the scan against the span; the rerun must agree
    with it, and the result must pass the good-ideal axioms.  An explicit
    truncation is the commit order, its scan's conductor the candidate,
    and its rerun's box is checked like a candidate's, before any span.
    """
    values = spec._store.values
    if gens in values:
        return values[gens]
    _check_conductor_exists(spec, gens)
    e = _radical_orders(spec)
    t = spec.truncation
    commit = _bootstrap(spec, gens, e) if t is None else _checked_commit(spec.s, t, f"the line 'truncation: {t}'")
    B = _span(spec, gens, commit + 2)[0]
    Ga = _scan(B, commit, "conductor")
    _certify(spec, gens, Ga.conductor, e, commit)
    Gb = _scan(B, commit + 2, "conductor")
    if Ga != Gb:
        raise TruncationError(f"value set changed between truncations {commit} and {commit + 2}")
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
    agree with a rerun two orders higher.

    The colon is solved once, at N + 2, from K's held span, and its basis
    B is scanned over [0, N - 2]^s and [0, N]^s.  Over the first box B
    gives the values of the solution basis at N: truncation from N + 2 to
    N is a ring map taking the colon at N + 2 onto the colon at N, as
    both are the preimages of t^p·K under multiplication by E, and its
    kernel holds only positions at or above N, so it lies in every
    filtration level of the box (see :class:`_Store`).  The rerun's box
    [0, N]^s is tested against the box limit before the colon is solved.

    The result is certified: it must pass the good-ideal axioms and lie
    in Γ_K - Γ_E, or NotCertifiedError names the check, K, E and N.
    """
    from ..duality import difference  # only the colon needs duality

    GK = value_ideal(spec, K)
    GE = value_ideal(spec, E)
    K_gens, E_gens, ring = _gens(spec, K), _gens(spec, E), spec._store.ring
    gamma_K, bound = GK.conductor, difference(GK, GE)
    poles = tuple(max(0, -m) for m in bound.mu)
    N = max(max(g + p + 2, g - m + p + 3) for g, m, p in zip(gamma_K, GE.mu, poles))
    _checked_commit(spec.s, N, f"colon {K!r} : {E!r}")
    B = colon_solution_basis(ring, _span(spec, K_gens, N + 2)[0], E_gens, gamma_K, poles, N + 2)
    Gb, Ga = _scan(B, N + 2, "colon conductor"), _scan(B, N, "colon conductor")
    if Ga != Gb:
        raise TruncationError(f"colon value set changed between truncations {N} and {N + 2}")
    G = Gb.shift(tuple(-p for p in poles))
    what = f"colon {K!r} : {E!r} at truncation {N}"
    require_good(G, f"{what} fails the good-ideal axioms")
    if not is_subset(G, bound):
        raise NotCertifiedError(f"{what} fails the inclusion Γ(K : E) ⊆ Γ_K - Γ_E")
    return G


def length_quotient(spec: CurveSpec, F: str, E: str) -> int:
    """Q-dimension of F/E for nested modules E ⊆ F (larger first), read
    off each module's held span at its own order, at least max(c) + 1, c
    the larger conductor: a certified module holds t^c·Rbar, so it is the
    full preimage of its span at any order above c.

    The count is certified against ℓ(F/E) = d(Γ_F \\ Γ_E) (D'Anna 1997):
    a mismatch with :func:`~goodsemi.metric.relative_distance` raises
    NotCertifiedError."""
    from ..metric import relative_distance  # only the length needs the metric

    GE, GF = value_ideal(spec, E), value_ideal(spec, F)
    c = cmax(GE.conductor, GF.conductor)
    (FB, F_tail), (EB, E_tail) = (_span(spec, _gens(spec, name), max(c) + 1) for name in (F, E))
    rows = [_row(g, FB.N) for g in _gens(spec, E)]
    for v in rows:
        FB._fully_reduce(v)
    if any(rows):
        raise InclusionError(f"module {E!r} is not contained in {F!r}")
    for name, B, tail in ((E, EB, E_tail), (F, FB, F_tail)):
        require_monomials(B, c, f"module {name!r}", tail)
    # a pivot below c is one dimension of the module modulo t^c·Rbar; a
    # span of order N holds t^k for c_i <= k < N (checked above), each the
    # row at its own pivot, so it has dim - Σ(N - c_i) pivots below c
    ell = FB.dim - EB.dim - spec.s * (FB.N - EB.N)
    d = relative_distance(GE, GF)
    if ell != d:
        raise NotCertifiedError(f"length of {F!r} / {E!r} is {ell} by pivots, but d(Γ_F \\ Γ_E) = {d}")
    return ell


def conductor_of(spec: CurveSpec, module: str = "R") -> tuple[Point, ModuleBasis]:
    """The conductor gamma of the module's value set together with the
    monomial module t^gamma * Rbar it cuts out.

    The basis is given at N = max(gamma) + 1, as a certified module is
    the full preimage of its span at any order above gamma; the held span,
    at N or above, must hold it (:func:`require_monomials`), and the colon
    computation must give Γ(module : Rbar) = gamma + N^s.
    """
    from ..duality import conductor_ideal  # the colon below imports duality too

    G = value_ideal(spec, module)
    gamma = G.conductor
    N = max(gamma) + 1
    B, tail = _span(spec, _gens(spec, module), N)
    require_monomials(B, gamma, f"module {module!r}", tail)
    basis = ModuleBasis(spec.s, N)
    # the monomials are already a reduced echelon basis of primitive rows
    basis.rows = {p: {p: 1} for i, g in enumerate(gamma) for p in range(i * N + g, (i + 1) * N)}
    got = colon_value_ideal(spec, module, "Rbar")
    if got != conductor_ideal(G):
        raise NotCertifiedError(
            f"colon against the full ring gives {got.frame_sorted}, not the orthant at {gamma}"
        )
    return gamma, basis


def type_of(spec: CurveSpec) -> int:
    """The Cohen–Macaulay type t(R) = ℓ((R : m)/R) of a local ring, m its
    maximal ideal (the module named m, built in unless the file defines
    one), read as d(Γ(R : m) ∖ Γ_R) by the length formula ℓ(F/E) =
    d(Γ_F ∖ Γ_E) (D'Anna 1997): the colon is certified, and so is the
    distance.  R is Gorenstein iff t(R) = 1, iff Γ_R is symmetric (Kunz
    1970 for one branch, Delgado 1988 for several)."""
    from ..metric import relative_distance  # only the type needs the metric

    return relative_distance(value_ideal(spec, "R"), colon_value_ideal(spec, "R", "m"))
