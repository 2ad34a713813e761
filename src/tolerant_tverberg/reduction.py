"""Centerpoint testing rephrased as a tolerance question.

Given P in d dimensions and a candidate c, embed everything one
dimension up, put a tower of t+1 points strictly below and t+1 strictly
above c on the new axis (t = ceil(|P|/(d+1)) - 1), and ask whether
{embedded P, tower} is a t-tolerant 2-partition.  The tower's hull
meets the embedded hyperplane only at c and survives any t deletions,
so the answer is "yes" exactly when c has centerpoint depth in P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, Point, PointSet, TverbergError, check_query
from .verification import centerpoint_depth


@dataclass(frozen=True)
class ReducedInstance:
    lifted_points: PointSet
    partition: Partition
    t: int
    gadget_minus_ids: frozenset[int]
    gadget_plus_ids: frozenset[int]


def center_to_tolerant_instance(point_set: PointSet, c: Point) -> ReducedInstance:
    """Build the lifted instance whose tolerance encodes "c is a centerpoint".

    Tower points sit at integer offsets -1..-(t+1) and then +1..+(t+1) on
    the vertical line through c; any strictly signed placement works, and
    integers keep coordinates small.  Tower ids count on from the largest
    id in P, the minus side first.
    """
    check_query(c, point_set)
    if not point_set.points:
        raise TverbergError("too few points: empty point set")
    t = centerpoint_depth(len(point_set), point_set.dim) - 1
    top = max(p.id for p in point_set.points)
    minus_ids = frozenset(range(top + 1, top + t + 2))
    plus_ids = frozenset(range(top + t + 2, top + 2 * t + 3))
    offsets = [*range(-1, -t - 2, -1), *range(1, t + 2)]
    embedded = [Point(p.id, p.coords + (0,)) for p in point_set.points]
    tower = [Point(top + 1 + i, c.coords + (off,)) for i, off in enumerate(offsets)]
    return ReducedInstance(
        lifted_points=PointSet(point_set.dim + 1, tuple(embedded + tower)),
        partition=(point_set.ids(), minus_ids | plus_ids),
        t=t,
        gadget_minus_ids=minus_ids,
        gadget_plus_ids=plus_ids,
    )
