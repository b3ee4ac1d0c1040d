"""Saturated chains and the distance function on good ideals.

Between comparable elements of a good ideal all saturated chains have the
same length, so "number of links in a saturated chain from alpha to beta"
is a well-defined distance d(alpha, beta).  :func:`_levels` counts it by
levels, the lattice form of the dimension drops by which a module length
is counted on the ring side (D'Anna, Comm. Algebra 25, 1997).

The law.  For p in Z^s let E^p = E ∩ (p + N^s).  A unit step p -> p + e_i
is a level of E when some x in E has x >= p and x_i = p_i.  Let E be good,
and let p_0, ..., p_n be a monotone lattice path of unit steps whose end
p_n lies in E.  Then its levels number d(m(p_0), p_n), m(p) the least
element of E^p; on a path from alpha to beta in E that is d(alpha, beta),
whatever the path.  Proof:

* E^p is a good ideal: it holds cmax(p, gamma) + N^s, the min of two of
  its members is in E by (E1) and >= p, and for (E2) a witness of two of
  its members is >= their min >= p.  So it has a least element m(p), by
  (E1), as E is bounded below, and m(p_0) <= m(p_1) <= ... <= m(p_n) =
  p_n as E^p shrinks along the path.
* E^p \\ E^(p+e_i) = {x in E : x >= p, x_i = p_i}.  If it is empty,
  m(p) = m(p + e_i).  If not, m = m(p) lies in it (m <= x gives
  m_i <= p_i), so m < m' = m(p + e_i), and m' covers m in E.  Suppose
  z in E has m < z < m'.  Then z is in E^p but not in E^(p+e_i), so
  z_i = p_i = m_i, and z_j > m_j on some axis j.  (E2) on m and z at i
  gives delta in E with delta_i > p_i and delta >= cmin(m, z) = m >= p,
  equal to m_j on axis j: delta lies in E^(p+e_i), so delta >= m', yet
  delta_j = m_j < z_j <= m'_j.
* So the distinct m(p_k) form a saturated chain from m(p_0) to p_n with
  one link per level, and all saturated chains have that length.

:func:`relative_distance` reads d(F \\ E) = d_F(mu_F, c) - d_E(mu_E, c),
c the conductor of E; a path from mu_F to c has the same levels in E,
as m(mu_F) = mu_E there.

The box.  Take the path that raises axis 0 first, then axis 1, and so on,
let beta = p_n, and let cut be a point with
cmin(beta, cmax(p_0, gamma)) <= cut <= beta, so that cut_i < beta_i
forces cut_i >= gamma_i.  A step at p_i >= gamma_i is a level, with
witness cmax(p, gamma).  On axis i the steps at p_i >= cut_i number
beta_i - cut_i, all at p_i >= gamma_i: they add |beta - cut|_1.  A step
at p_i < cut_i has p_j = beta_j on the axes j < i and p_j = p_0,j after
i.  A witness x of it gives the witness cmin(x, cut) of the step at
cmin(p, cut): cmin(x, beta) is in E by (E1) and keeps x_i = p_i, and
lowering a coordinate above cut_j to cut_j, where cut_j < beta_j, keeps
membership under the capping rule, as cut_j >= gamma_j.  Raising such
coordinates back turns a witness of the step at cmin(p, cut) into one of
the step at p.  So E is read on the box [p_0, cut] only: the step of
axis i at p_i < cut_i is a level when the box holds a member x with
x_i = p_i and x_j = cut_j on every axis j < i.  Both functions below
take the least cut; on a path from mu to c >= gamma it is gamma, so
:func:`relative_distance` reads each ideal on its own frame box, and
keeps that count in the frame's store: a certified ring length asks it
twice of the same value sets.
"""

from __future__ import annotations

import math

from .axioms import require_good
from .errors import CapExceededError, InclusionError, MetricError
from .ideals import Box, IdealFrame, _box_bits, _fill, _frame_box, _index, _suffix_or, check_frames
from .lattice import Point, as_point, check_same_dim, cmax, cmin, leq, lt

__all__ = ["distance_between", "all_saturated_chains", "relative_distance"]

Chain = tuple[Point, ...]


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


def _levels(box: Box) -> int:
    """The levels below the upper corner of a membership box [p_0, cut] of
    a good ideal, on the path from p_0 to cut that raises axis 0 first,
    then axis 1, and so on (see the module docstring for the cuts)."""
    shape, count = box.shape, 0
    for i, n in enumerate(shape):
        # the cells at cut on the axes before i and below cut_i on axis i,
        # in C order n - 1 rows of the axes after i: a row holding a
        # member is a level
        rows = (n - 1, math.prod(shape[i + 1 :]))
        at = _index([m - 1 for m in shape[:i]] + [0] * (len(shape) - i), shape)
        block = box.bits >> at & (1 << math.prod(rows)) - 1
        count += (_suffix_or(block, rows, 1) & _fill(rows, 1, 0, 1)).bit_count()
    return count


def _kept_levels(X: IdealFrame) -> int:
    """The levels of X's frame box, kept in X's store."""
    return X._memo("levels", lambda: _levels(_frame_box(X)))


def distance_between(E: IdealFrame, alpha, beta) -> int:
    """Length of any saturated chain from alpha to beta inside E.

    Preconditions: E certified good, both endpoints in E, alpha <= beta.
    """
    require_good(E, "distance requires the ideal to be a certified good ideal")
    alpha, beta = _check_endpoints(E, alpha, beta)
    cut = cmin(beta, cmax(alpha, E.gamma))
    return _levels(E.membership_box(alpha, cut)) + sum(beta) - sum(cut)


def _minimal_covers(E: IdealFrame, cur: Point, beta: Point) -> list[Point]:
    """The covers of cur below beta, lex-sorted: the minimal members of
    (cur, beta], sought in [cur, cmin(beta, cmax(cur + 1, gamma))].  A
    cover m with m_i > max(cur_i + 1, gamma_i) cannot be: m - e_i is a
    member by the capping rule, as m_i - 1 >= gamma_i, and lies strictly
    between cur and m."""
    above = E.members_in_box(cur, cmin(beta, cmax([c + 1 for c in cur], E.gamma)))[1:]
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

    That is d_F(mu_F, c) - d_E(mu_E, c), c = gamma_E the conductor of E,
    which lies in both ideals: the levels of each frame box, plus the
    |c - gamma_F|_1 steps past gamma_F (see the module docstring).  E ⊆ F
    needs gamma_F <= c, gamma_F being F's conductor and c + N^s ⊆ F, and
    then E's frame box decides it: a member of E and its cap at c have
    the same cap at gamma_F.
    """
    check_frames("relative_distance", E=E, F=F)
    require_good(E, "distance requires the smaller ideal to be a certified good ideal")
    require_good(F, "distance requires the larger ideal to be a certified good ideal")
    c = E.gamma
    if not leq(F.gamma, c) or E._bits & ~_box_bits(F, E.mu, c):
        raise InclusionError("relative_distance expects the smaller ideal first: E ⊆ F fails")
    return _kept_levels(F) + sum(c) - sum(F.gamma) - _kept_levels(E)
