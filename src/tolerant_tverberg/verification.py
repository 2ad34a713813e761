"""Exact checking of tolerance, Tukey depth and centerpoints.

Tolerance testing is coNP-complete when d is part of the input, so
``verify_tolerance`` and ``exact_tolerance`` run a budgeted exhaustive
search: every removal set of the critical size is enumerated in
lexicographic id order, and each one that could refute is judged by one
exact LP, whose witnesses re-check by exact substitution.  Each call
builds one judge from ``lp``, ``intersection_judge`` over the parts or,
for the d >= 3 depth ascent, ``hull_judge`` over the points, and speaks
point ids to it: a removal in, the ids of the surviving witness's
support or None out, each solve starting where the last one ended.
That makes them oracles for desk-scale instances rather than scalable
algorithms.  Each checks its partition first, and ``verify_tolerance``
then deletes a whole part when t reaches the smallest one.  Next both
ask a count of the fewest refuting deletions, with no LP and no removal
set, for one part (m = 1) in any dimension, any m in the line (one walk
over the sorted parts, O(n log n)), and m = 2 in the plane (O(n^3)):
``exact_tolerance`` is that count minus 1, and ``verify_tolerance``
answers None when it exceeds t; only a refutation is still enumerated.
Tukey depth takes the ascent from d = 3 on; in the line and the plane
it is counted directly, by an exact O(n log n) angular sweep that
enumerates no removal set and solves no LP.  Both planar rules read each
point as integers (X, Y, W) by its own denominators, never all n at once.

Every feasible LP reports its witness's support, the points with
nonzero weight; a basic witness has at most one per LP equality (Carathéodory).
A removal that misses some known support leaves that witness intact, so
it cannot refute and is skipped; only removals that hit every support
found so far are judged.  Skipped sets never refute, so the reported
refutation is still the lexicographically first: ``verify_tolerance``
returns that removal itself, or None when the partition is tolerant.
Conversely, s + 1 pairwise disjoint supports certify a level of size s
with no walk: s deletions cannot hit them all.  The walk grows such a
family before each level by judging its union, and walks only once a
union refutes, so only tolerant verdicts are cut short.
All three searches are one walk, ``_first_refutation``, over a list of
levels: ``verify_tolerance`` gives it the one critical size, and
``exact_tolerance`` and the depth ascent every size below the one known
to refute; the supports found at one level prune the later ones.  The
walk charges the budget for every removal set of a level as it reaches
that level, judged, certified or not, and for nothing else: the counted
shapes, the planar sweep and a level known to refute without a judge (a
whole part, or all n points) are not charged.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable

from .core import (
    Partition, Point, PointSet, RemovalSet, TverbergError, check_partition, check_query, short_repr,
)
from .lp import Judge, hull_judge, intersection_judge

DEFAULT_BUDGET = 10**6


def verify_tolerance(
    point_set: PointSet,
    partition: Partition,
    t: int,
    budget: int = DEFAULT_BUDGET,
) -> RemovalSet | None:
    """A removal of min(t, n) ids that separates the parts' hulls, or
    None when ``partition`` survives every removal of up to t points.

    Hulls only shrink when the removal grows, so it suffices to try the
    removals of size exactly min(t, n): any separating smaller set
    extends to a separating one of that size.  When some part has at
    most t points, deleting that whole part refutes at once: it is
    returned padded with the smallest other ids, before any count.
    Otherwise the removal is the lexicographically first refutation.  It
    is checkable independently: deleting it leaves the parts' hulls with
    empty common intersection.  ``budget`` bounds the C(n, t) removal
    sets; it is not charged for that immediate refutation, nor for a
    tolerant verdict when m = 1, d = 1, or d = 2 and m = 2.
    """
    _check_budget(budget)
    if t < 0:
        raise TverbergError(f"t must be nonnegative, got t={short_repr(t)}")
    check_partition(partition, point_set.ids())
    ids = sorted(point_set.ids())
    smallest = min(partition, key=len)
    if t >= len(smallest):
        rest = [pid for pid in ids if pid not in smallest]
        return smallest | frozenset(rest[: t - len(smallest)])
    fewest = _fewest_refuting(point_set, partition)
    if fewest is not None and fewest > t:
        return None
    # t < min part size here, so no part is ever emptied
    return _first_refutation(ids, [t], _partition_judge(point_set, partition), budget)


def exact_tolerance(
    point_set: PointSet,
    partition: Partition,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Largest t at which the partition verifies tolerant; -1 when it is
    not a Tverberg partition at all.

    Tolerance at t implies tolerance at every smaller t, so the first
    refuted level ends the ascent.  The level of the smallest part
    always refutes (removing that part empties its hull), so it is
    neither judged nor charged.  ``budget`` bounds the removal sets of all
    levels together, and the witness supports found at one level prune
    the next.  For one part in any dimension, any m in the line and two
    parts in the plane, no level is enumerated and nothing is charged.
    """
    _check_budget(budget)
    check_partition(partition, point_set.ids())
    fewest = _fewest_refuting(point_set, partition)
    if fewest is None:
        ids, stop = sorted(point_set.ids()), min(map(len, partition))
        judge = _partition_judge(point_set, partition)
        removal = _first_refutation(ids, range(stop), judge, budget)
        fewest = stop if removal is None else len(removal)
    return fewest - 1


def _partition_judge(point_set: PointSet, partition: Partition) -> Judge:
    """The judge of the parts' common point, each part's points in id order."""
    by_id = point_set.by_id()
    return intersection_judge([[by_id[pid] for pid in sorted(part)] for part in partition],
                              point_set.dim)


def _fewest_refuting(point_set: PointSet, partition: Partition) -> int | None:
    """The fewest deletions that refute the valid ``partition``, counted
    with no LP and no removal set for one part in any dimension (a
    nonempty hull meets itself, so all of it must go), in the line for
    any m by one rule over all the parts at once, and in the plane for
    m = 2 over separating lines; None elsewhere."""
    m = len(partition)
    if m == 1:
        return len(partition[0])
    if not (point_set.dim == 1 or (point_set.dim == 2 and m == 2)):
        return None
    by_id = point_set.by_id()
    parts = [[by_id[pid].coords for pid in part] for part in partition]
    return _fewest_on_line(parts) if point_set.dim == 1 else _fewest_deletions(*parts)


def _fewest_deletions(a: list[tuple], b: list[tuple]) -> int:
    """The fewest points to delete from a and b, points of the plane as
    given, so that their hulls miss or one of them is empty.

    Disjoint hulls have a strictly separating line, and the open cell of
    separators that keep a given pattern has a vertex in its closure: a
    line H through two distinct input points.  Lines near H keep every
    point off H on its side, and put the points on H on either side of a
    cut along H or all on one side.  So the answer is the least, over
    every H and both orientations, of the a points strictly on the + side
    and the b points strictly on the - side, plus the line rule for the
    points on H, ordered by x, or by y when H is vertical; and
    min(|a|, |b|), which also covers every point at one place.  H is the
    cross product of two ``_homogeneous`` triples, and a point's side the
    sign of its triple's dot product with H.  O(n^3).
    """
    weights: dict[tuple, list[int]] = {}
    for s, part in enumerate((a, b)):
        for p in part:
            weights.setdefault(p, [0, 0])[s] += 1
    points = [(p, *_homogeneous(p), na, nb) for p, (na, nb) in weights.items()]
    best = min(len(a), len(b))
    for j, (_, qx, qy, qw, _, _) in enumerate(points):
        for i in range(j):
            px, py, pw = points[i][1:4]
            hx, hy, hw = py * qw - pw * qy, pw * qx - px * qw, px * qy - py * qx
            a_plus = a_minus = b_plus = b_minus = 0
            on_h = []
            for k, (p, x, y, w, na, nb) in enumerate(points):
                side = hx * x + hy * y + hw * w
                if side > 0:
                    a_plus += na
                    b_plus += nb
                elif side < 0:
                    a_minus += na
                    b_minus += nb
                elif k < j and k != i:
                    break  # H was counted at its first two points
                else:
                    on_h.append((p[0] if hy else p[1], na, nb))
            else:
                cost = min(a_plus + b_minus, a_minus + b_plus)
                if cost < best:
                    on_a = [v for v, na, _ in on_h for _ in range(na)]
                    on_b = [v for v, _, nb in on_h for _ in range(nb)]
                    best = min(best, cost + _fewest_on_line([on_a, on_b]))
    return best


def _homogeneous(p: tuple) -> tuple[int, int, int]:
    """The planar point p as integers (X, Y, W), W > 0, with p = (X/W, Y/W),
    from its own denominators: the one integer form of a planar point."""
    (xn, xd), (yn, yd) = ((x.numerator, x.denominator) for x in p)
    return xn * yd, yn * xd, xd * yd


def _fewest_on_line(parts: list[list]) -> int:
    """The fewest values to delete from the parts, one list each, so that
    their intervals share no point or one of them is empty.

    With s the smallest part's size, let hi[k] be the lowest top of any
    part after deleting its k largest values and lo[j] the highest bottom
    after deleting its j smallest, for k, j < s: the answer is the least
    of s and the k + j with hi[k] < lo[j] (a part giving both has k + j
    >= its size).  hi only falls and lo only rises, so one walk after one
    sort per part finds it: O(n log n).
    """
    parts = [sorted(part) for part in parts]
    s = min(map(len, parts))
    hi = [min(part[-1 - k] for part in parts) for k in range(s)]
    best = k = s  # k: the fewest top deletions with hi[k] < lo[j]
    for j in range(s):
        low = max(part[j] for part in parts)
        while k and hi[k - 1] < low:
            k -= 1
        best = min(best, j + k)
    return best


def tukey_depth(c: Point, point_set: PointSet, budget: int = DEFAULT_BUDGET) -> int:
    """Depth of c with respect to the point set: the smallest number of
    deletions that pulls c out of the convex hull of the rest.

    In the line and the plane it is counted directly, with no removal set
    enumerated, so ``budget`` is not used there.  From d = 3 on it is
    searched by ascending removal size; each candidate removal is judged
    by an exact hull-membership LP, and the supports found at one size
    prune every later size.  Removing all n points always evicts c, so
    size n is neither judged nor charged.  ``budget`` bounds the removal
    sets of all sizes together.
    """
    _check_budget(budget)
    check_query(c, point_set)
    if c.dim == 1:  # the closed half-lines at c: the points on either side
        x = c.coords[0]
        values = [p.coords[0] for p in point_set.points]
        return min(sum(v <= x for v in values), sum(v >= x for v in values))
    if c.dim == 2:
        return _planar_depth(c, point_set.points)
    ids = sorted(point_set.ids())
    by_id = point_set.by_id()
    judge = hull_judge(c, [by_id[pid] for pid in ids])
    removal = _first_refutation(ids, range(len(ids)), judge, budget)
    return len(ids) if removal is None else len(removal)


def _planar_depth(c: Point, points: tuple[Point, ...]) -> int:
    """Planar depth by an angular sweep around c, in integers.

    A closed half-plane through c holds the z points at c and every
    v_j = p_j - c outside the opposite open half-plane, and the most an
    open half-plane through c holds is the most v_j in one half-open arc
    [v_k, v_k + pi).  So depth = z + #{v} - that maximum, n when every
    point is c (no v, maximum 0).  Each v is (X W_c - X_c W, Y W_c - Y_c W)
    from the ``_homogeneous`` forms of p and c, reduced by its gcd; the
    directions are sorted counter-clockwise by half-plane and cross
    product, and the arc's far end only moves forward.
    """
    cx, cy, cw = _homogeneous(c.coords)
    weights: dict[tuple[int, int], int] = {}
    for p in points:
        px, py, pw = _homogeneous(p.coords)
        x, y = px * cw - cx * pw, py * cw - cy * pw
        if x or y:
            g = math.gcd(x, y)
            u = (x // g, y // g)
            weights[u] = weights.get(u, 0) + 1
    order = cmp_to_key(_ccw_cmp)
    dirs = sorted((u for u in weights if u[1] > 0 or (u[1] == 0 and u[0] > 0)), key=order)
    dirs += sorted((u for u in weights if u[1] < 0 or (u[1] == 0 and u[0] < 0)), key=order)
    k = len(dirs)
    best = inside = end = 0  # inside: the v_j strictly between dirs[i] and dirs[end]
    for i, (ux, uy) in enumerate(dirs):
        if end <= i:
            end, inside = i + 1, 0
        while end < i + k:
            vx, vy = dirs[end % k]
            if ux * vy - uy * vx <= 0:
                break
            inside += weights[vx, vy]
            end += 1
        best = max(best, weights[ux, uy] + inside)
        if end > i + 1:
            inside -= weights[dirs[(i + 1) % k]]
    return len(points) - best


def _ccw_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Negative when v lies counter-clockwise of u, within half a turn."""
    return u[1] * v[0] - u[0] * v[1]


def _first_refutation(
    ids: list[int], sizes: Iterable[int], judge: Judge, budget: int
) -> frozenset[int] | None:
    """The lexicographically first removal that ``judge`` refutes, of the
    first of ``sizes`` that has one, or None.

    Each size is charged against one ``budget`` as the walk reaches it,
    before any judge.  ``judge`` returns the support of the witness that
    survives a removal, or None to refute.  Before walking a size s, a
    family of pairwise disjoint supports grows by judging the union of
    its members: a witness that survives it avoids every member and
    joins.  Once the family has s + 1 members no s deletions hit them
    all, so the size is tolerant unwalked, and so is every later size the
    family still exceeds.  The first refuted union ends the family for
    good; from then on each size is walked in lexicographic order.  A
    removal disjoint from a known support leaves that witness valid, so
    it is skipped unjudged, and the refuted union is not judged again.
    """
    n = len(ids)
    supports: list[frozenset[int]] = []  # pairwise disjoint until a union refutes
    union: frozenset[int] = frozenset()
    refuted: frozenset[int] | None = None
    for size in sizes:
        budget -= _charge(n, size, budget)
        while refuted is None and len(supports) <= size:
            support = judge(union)
            if support is None:
                refuted = union
            else:
                supports.append(support)
                union |= support
        if refuted is None:
            continue  # size + 1 disjoint supports: the pigeonhole certificate
        for combo in combinations(ids, size):
            removed = frozenset(combo)
            if removed == refuted:
                return removed
            if any(removed.isdisjoint(s) for s in supports):
                continue
            support = judge(removed)
            if support is None:
                return removed
            supports.append(support)
    return None


def _check_budget(budget: int) -> None:
    """Refuse a negative budget before any work, wherever it would be read."""
    if budget < 0:
        raise TverbergError(f"invalid budget: {short_repr(budget)}")


def _charge(n: int, size: int, budget: int) -> int:
    """The C(n, size) removal sets of one level; raises when they exceed
    the ``budget`` left."""
    sets = math.comb(n, size)
    if sets > budget:
        raise TverbergError(
            f"instance too large: C({n},{size}) removal sets exceed the budget left, "
            f"{short_repr(budget)}"
        )
    return sets


def centerpoint_depth(n: int, d: int) -> int:
    """Depth a centerpoint of n points in d dimensions has: ceil(n / (d+1))."""
    return -(-n // (d + 1))

