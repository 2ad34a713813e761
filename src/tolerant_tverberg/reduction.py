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

from .core import Partition, Point, PointSet, TverbergError
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

    Tower points sit at integer offsets -1..-(t+1) and +1..+(t+1) on the
    vertical line through c; any strictly signed placement works, and
    integers keep coordinates small.  Tower ids continue after the
    largest id in P.
    """
    d = point_set.dim
    if c.dim != d:
        raise TverbergError(
            f"dimension: query has dim {c.dim}, point set has {d}"
        )
    n = len(point_set)
    if n < 1:
        raise TverbergError("too few points: empty point set")

    t = centerpoint_depth(n, d) - 1

    embedded = [Point(p.id, p.coords + (0,)) for p in point_set.points]

    next_id = max(p.id for p in point_set.points) + 1
    minus_ids: list[int] = []
    plus_ids: list[int] = []
    gadget: list[Point] = []
    for off in range(1, t + 2):
        gadget.append(Point(next_id, c.coords + (-off,)))
        minus_ids.append(next_id)
        next_id += 1
    for off in range(1, t + 2):
        gadget.append(Point(next_id, c.coords + (off,)))
        plus_ids.append(next_id)
        next_id += 1

    lifted = PointSet(d + 1, tuple(embedded + gadget))
    return ReducedInstance(
        lifted_points=lifted,
        partition=(point_set.ids(), frozenset(minus_ids + plus_ids)),
        t=t,
        gadget_minus_ids=frozenset(minus_ids),
        gadget_plus_ids=frozenset(plus_ids),
    )
