"""Saturated chains and the distance function on good ideals.

Between comparable elements of a good ideal all saturated chains have the
same length, so "number of links in a saturated chain from alpha to beta"
is a well-defined distance.  The greedy walk below computes it: from the
current point, step to the lexicographically smallest member of
{delta in E : cur < delta <= beta}.  That point is automatically a minimal
element of the set, hence a cover, and every cover keeps the remaining
distance consistent on certified inputs.

Past gamma the chain runs straight: the box [cut, beta], cut =
cmin(beta, cmax(alpha, gamma)), lies in E, so only [alpha, cut] is walked
and the tail adds |beta - cut|_1 unit steps.
"""

from __future__ import annotations

from .errors import CapExceededError, InclusionError, MetricError, NotCertifiedError
from .ideals import IdealFrame, _fill, _strides, check_frames, is_subset, validate
from .lattice import Point, as_point, check_same_dim, cmax, cmin, leq, lt, zero

__all__ = ["distance_between", "all_saturated_chains", "relative_distance"]

Chain = tuple[Point, ...]


def _require_good(E: IdealFrame, role: str) -> None:
    report = validate(E)
    if not (report.e1_ok and report.e2_ok):
        raise NotCertifiedError(
            f"distance requires {role} to be a certified good ideal:\n" + report.summary(),
            report,
        )


def _check_endpoints(E: IdealFrame, alpha, beta) -> tuple[Point, Point]:
    alpha = as_point(alpha)
    beta = as_point(beta)
    check_same_dim(alpha, E.mu)
    check_same_dim(beta, E.mu)
    if not leq(alpha, beta):
        raise MetricError(f"endpoints must be comparable: {alpha} is not <= {beta}")
    for p in (alpha, beta):
        if not E.contains(p):
            raise MetricError(f"endpoint {p} does not belong to the ideal")
    return alpha, beta


def distance_between(E: IdealFrame, alpha, beta) -> int:
    """Length of any saturated chain from alpha to beta inside E.

    Preconditions: E certified good, both endpoints in E, alpha <= beta.
    """
    _require_good(E, "the ideal")
    alpha, beta = _check_endpoints(E, alpha, beta)
    # alpha <= cut <= beta, and cut_i >= gamma_i where cut_i < beta_i, so
    # each x in [cut, beta] caps to cmin(beta, gamma), in the frame: the box
    # lies in E, its covers are unit steps, and the chain through cut has
    # d(alpha, cut) + |beta - cut|_1 links, as all saturated chains do
    cut = cmin(beta, cmax(alpha, E.gamma))
    box = E.membership_box(alpha, cut)
    shape, st = box.shape, _strides(box.shape)
    live, cur, k, steps = box.bits, zero(len(alpha)), 0, sum(beta) - sum(cut)
    while k != box.size - 1:  # cut is the box's last cell
        # the lex-smallest of {delta : cur < delta <= cut} is a minimal element
        # and therefore a cover: the lowest set cell past cur's, once the cells
        # with delta >= cur are kept (cur only grows, so each axis's mask is
        # ANDed in when its coordinate moves)
        live ^= 1 << k
        k = (live & -live).bit_length() - 1
        nxt = tuple(k // t % n for t, n in zip(st, shape))
        for axis, (x, y) in enumerate(zip(cur, nxt)):
            if x != y:
                live &= _fill(shape, axis, y, shape[axis])
        cur = nxt
        steps += 1
    return steps


def _minimal_covers(E: IdealFrame, cur: Point, beta: Point) -> list[Point]:
    above = E.members_in_box(cur, beta)[1:]
    return [m for m in above if not any(lt(u, m) for u in above)]


def all_saturated_chains(E: IdealFrame, alpha, beta, cap: int = 1_000_000) -> list[Chain]:
    """Every saturated chain from alpha to beta in E, by depth-first search
    in the order of :func:`_minimal_covers`, on an explicit stack so that a
    chain of any length is walked.

    Raises CapExceededError once more than ``cap`` chains are found.  Does
    not require certification: on a merely (E1) ideal the chains may have
    different lengths, and this enumeration is the way to observe that.
    """
    alpha, beta = _check_endpoints(E, alpha, beta)
    chains: list[Chain] = []
    path: list[Point] = []
    todo = [(0, alpha)]  # (depth, point) still to walk, the next one last
    while todo:
        depth, cur = todo.pop()
        del path[depth:]
        path.append(cur)
        if cur == beta:
            if len(chains) >= cap:
                raise CapExceededError(f"more than {cap} saturated chains; raise the cap")
            chains.append(tuple(path))
        else:
            todo.extend((depth + 1, nxt) for nxt in reversed(_minimal_covers(E, cur, beta)))
    return chains


def relative_distance(E: IdealFrame, F: IdealFrame) -> int:
    """d(F \\ E) for nested good ideals E ⊆ F (smaller argument first).

    Computed as d_F(mu_F, c) - d_E(mu_E, c) with c the conductor of E,
    which lies in both ideals; the value is independent of that choice.
    """
    check_frames("relative_distance", E=E, F=F)
    _require_good(E, "the smaller ideal")
    _require_good(F, "the larger ideal")
    if not is_subset(E, F):
        raise InclusionError("relative_distance expects the smaller ideal first: E ⊆ F fails")
    c = E.conductor
    return distance_between(F, F.mu, c) - distance_between(E, E.mu, c)
