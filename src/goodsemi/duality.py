"""Duality for good semigroups: ideal differences and canonical ideals.

The difference E - F = {x : x + F ⊆ E} is exact boolean erosion: the AND
of one translate per frame point of F, each a shift of a suffix-AND table
of one membership window of E, the mirror of the OR that forms the sum
E + F in :mod:`goodsemi.axioms`.  With a canonical ideal K
on the left it is the duality E ↦ K - E, an inclusion-reversing
involution on good ideals, but that dual needs no erosion: alpha lies in
K⁰ - E iff no element of E agrees with tau - alpha in some coordinate
while strictly dominating it elsewhere (tau = conductor of S minus 1), so
K⁰ = K⁰ - S and every dual is an OR of strict suffix sweeps of one box
along all axes but one, shared through :func:`goodsemi.ideals._folds`.
"""

from __future__ import annotations

import math

from .axioms import _reduce_translates
from .errors import InclusionError, NotCertifiedError
from .ideals import (
    Box,
    GoodSemigroup,
    IdealFrame,
    _Frozen,
    _crop,
    _flip,
    _folds,
    _frame_box,
    _interleave,
    _suffix_or_strict,
    check_frames,
    is_subset,
    validate,
)
from .lattice import Point, add, cmax, ones, sub, zero

__all__ = [
    "difference",
    "conductor_ideal",
    "canonical_normalized",
    "is_canonical",
    "is_symmetric",
    "CanonicalIdeal",
    "dualize",
    "push_forward",
    "product_canonical",
]


def difference(E: IdealFrame, F: IdealFrame) -> IdealFrame:
    """E - F = {x in Z^s : x + F ⊆ E}, one translate per frame point of F.

    Both arguments must be closed under componentwise min (E1).  The
    result then is as well, and carries that without a sweep: with x + F
    and y + F in E, min(x, y) + f = min(x + f, y + f) lies in E.  It is
    exactly representable with capping bound gamma_E - mu_F.  A frame
    point c of F stands for c + N^T, T the axes where c_i = gamma_F,i, and
    x + c + N^T ⊆ E iff x + c lies in E's suffix-AND along T.  The window
    [mu_E, gamma_E - mu_F + gamma_F] reaches past gamma_E, where E is
    constant, so that AND is exact.  On an axis where mu_E - mu_F +
    gamma_F reaches gamma_E it is x + c itself, and that axis is not swept
    (:func:`goodsemi.axioms._reduce_translates`); for K⁰ - (alpha + S) no
    axis is.
    """
    check_frames("difference", E=E, F=F)
    for name, X in (("left", E), ("right", F)):
        if not X.is_e1():
            raise NotCertifiedError(
                f"difference requires (E1) on the {name} argument; "
                "it fails closure under componentwise min"
            )
    xlo = sub(E.mu, F.mu)
    xhi = sub(E.gamma, F.mu)
    out = IdealFrame._from_box(_reduce_translates(True, E, xlo, xhi, _frame_box(F)))
    out._memo("e1", lambda: True)
    return out


def conductor_ideal(E: IdealFrame) -> IdealFrame:
    """The translated orthant gamma_E + N^s as an ideal frame."""
    c = E.conductor
    return IdealFrame(len(c), c, c, [c], _normalized=True)


def _dual_normalized(S: GoodSemigroup, E: IdealFrame) -> IdealFrame:
    """K⁰ - E for any E with E + S ⊆ E, K⁰ the normalized canonical ideal.

    Let tau = gamma_S - 1, Delta_j(b) = {x : x_j = b_j, x_i > b_i for
    i != j} and Delta = ∪_j Delta_j.  D'Anna (Comm. Algebra 25, 1997):
    K⁰ = {alpha : Delta(tau - alpha) ∩ S = ∅}, and then K⁰ - E = {alpha :
    Delta(tau - alpha) ∩ E = ∅}.  ⊆: if e ∈ Delta_j(tau - alpha) ∩ E, then
    Delta_j(tau - alpha - e) holds 0 ∈ S, so alpha + e ∉ K⁰.  ⊇: if sigma ∈
    Delta_j(tau - alpha - e) ∩ S, then sigma + e ∈ Delta_j(tau - alpha) ∩ E.
    The dual is min-closed (E1) for any E and carries that without a
    sweep: a point of Delta_j(max(b, b')) lies in Delta_j(b) or in
    Delta_j(b'), whichever attains the max on axis j.

    The result lies in -mu_E + N^s and is exact at gamma_S - mu_E, so
    alpha runs over [-mu_E, gamma_S - mu_E] and b = tau - alpha over
    [mu_E - 1, mu_E + gamma_S - 1].  E is read on [mu_E - 1, cmax(gamma_E,
    mu_E + gamma_S)]: the top lies above every b, and E is constant along
    axis i past gamma_E,i, so each strict suffix at a b misses no member.
    """
    gamma = S.gamma
    s = E.s
    M = E.membership_box(sub(E.mu, ones(s)), cmax(E.gamma, add(E.mu, gamma)))
    strict = _folds(M.bits, M.shape, _suffix_or_strict)
    bad = 0
    for j in range(s):
        bad |= strict((1 << s) - 1 ^ 1 << j)  # along all axes but j
    # b = tau - alpha sits at grid index gamma_S - (alpha + mu_E): cut the
    # box at gamma_S and reverse every axis
    shape = tuple(g + 1 for g in gamma)
    size = math.prod(shape)
    good = ~_flip(_crop(bad, M.shape, zero(s), shape), size) & ((1 << size) - 1)
    out = IdealFrame._from_box(Box(sub(zero(s), E.mu), shape, good))
    out._memo("e1", lambda: True)
    return out


def canonical_normalized(S: GoodSemigroup) -> IdealFrame:
    """The normalized canonical ideal K⁰ of S, as K⁰ - S.  S keeps it in
    its store, and every call returns that one frame: treat it as a value."""
    return S._memo("k0", lambda: _dual_normalized(S, S))


def is_canonical(K: IdealFrame, S: GoodSemigroup) -> tuple[bool, Point]:
    """Decide whether K is a canonical ideal of S, i.e. a translate of K⁰.

    Returns (verdict, alpha) with alpha = conductor(K) - gamma(S), the only
    possible translation; the verdict compares K against K⁰ + alpha as sets.
    """
    check_frames("is_canonical", K=K, S=S)
    K0 = canonical_normalized(S)
    alpha = sub(K.conductor, S.gamma)
    return (K == K0.shift(alpha), alpha)


def is_symmetric(S: GoodSemigroup) -> bool:
    """S is symmetric iff S itself is one of its canonical ideals."""
    return is_canonical(S, S)[0]


class CanonicalIdeal(_Frozen):
    """A certified canonical ideal over its semigroup.

    Instances are produced by :meth:`certify` (or :meth:`normalized`),
    which verifies the translate property and records the shift; a
    semigroup that is not a :class:`GoodSemigroup` is refused.
    """

    __slots__ = _fields = ("ideal", "semigroup", "shift_from_normalized")

    def __init__(self, ideal: IdealFrame, semigroup: GoodSemigroup, shift_from_normalized: Point):
        if not isinstance(semigroup, GoodSemigroup):
            raise NotCertifiedError(
                f"a canonical ideal needs a certified GoodSemigroup, got {type(semigroup).__name__}"
            )
        self._init(ideal, semigroup, shift_from_normalized)

    @classmethod
    def certify(cls, ideal: IdealFrame, semigroup: GoodSemigroup) -> "CanonicalIdeal":
        verdict, alpha = is_canonical(ideal, semigroup)
        if not verdict:
            raise NotCertifiedError(
                f"the frame with conductor {ideal.conductor} is not a translate "
                "of the normalized canonical ideal"
            )
        return cls(ideal, semigroup, alpha)

    @classmethod
    def normalized(cls, semigroup: GoodSemigroup) -> "CanonicalIdeal":
        K0 = canonical_normalized(semigroup)
        return cls(K0, semigroup, zero(K0.s))


def dualize(K: CanonicalIdeal, E: IdealFrame) -> IdealFrame:
    """The dual K - E of a good ideal E with respect to a canonical ideal.

    E must be certified as a good ideal of K's semigroup; on such inputs
    the map is an involution and K - E is good again.  An uncertified E is
    rejected: a plain difference can still be formed, but applying it twice
    is then not guaranteed to return E.
    """
    if not isinstance(K, CanonicalIdeal):
        raise NotCertifiedError("dualize requires a certified CanonicalIdeal on the left")
    report = validate(E, K.semigroup)
    if not report.ok:
        raise NotCertifiedError(
            "input not (E2)-certified; involution not guaranteed:\n" + report.summary(),
            report,
        )
    return _dual_normalized(K.semigroup, E).shift(K.shift_from_normalized)


def push_forward(K: CanonicalIdeal, Sp: GoodSemigroup) -> CanonicalIdeal:
    """Transport a canonical ideal of S to one of an oversemigroup S ⊆ S'.

    The result is K - S' (difference taken in Z^s), certified canonical
    over S' before being returned.
    """
    S = K.semigroup
    if not is_subset(S, Sp):
        raise InclusionError("push_forward requires S ⊆ S'")
    # S' + S ⊆ S', so K - S' is a dual over S
    moved = _dual_normalized(S, Sp).shift(K.shift_from_normalized)
    return CanonicalIdeal.certify(moved, Sp)


def product_canonical(decomp) -> IdealFrame:
    """Normalized canonical ideal of a product, assembled factorwise.

    K⁰ of the semigroup that the LocalDecomposition ``decomp`` recombines
    equals the product of the factors' K⁰s, interleaved along the partition.
    """
    return _interleave(decomp.partition, [canonical_normalized(f) for f in decomp.factors])
