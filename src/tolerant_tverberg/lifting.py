"""Dimension reduction by halving and pairing.

A point set in d dimensions is split by a hyperplane orthogonal to the
last axis, the lower half is paired with the upper half, and each pair
is replaced by the exact intersection of its connecting segment with
the hyperplane.  A tolerant partition of the projected set lifts back
by substituting both endpoints for every projected point: deleting an
original point destroys at most its own pair, so tolerance survives
the round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DimensionError,
    IndexedPartition,
    InvalidPartitionError,
    Point,
    PointSet,
    TooFewPointsError,
    TverbergError,
    lex_key,
    validate_partition,
)
from .one_d import tolerant_tverberg_1d

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class PairProjection:
    """Bookkeeping for one halve-and-pair step.

    Projected point i is the image of pairs[i]; its id equals its index
    into ``pairs``.  ``dropped_ids`` holds the middle point of an
    odd-sized input, which skips the recursion and is re-absorbed when
    lifting.
    """

    halving_value: Fraction
    pairs: tuple[tuple[int, int], ...]
    projected: PointSet
    dropped_ids: frozenset[int]


def halve_and_pair(point_set: PointSet) -> PairProjection:
    """Split by the last coordinate and project rank-matched pairs.

    Points are ordered by (last coordinate, ..., first coordinate, id),
    an exact symbolic perturbation standing in for "all last coordinates
    distinct".  The i-th point below the median pairs with the i-th
    above it.
    """
    d = point_set.dim
    if d < 2:
        raise DimensionError(f"dimension: halve_and_pair needs d >= 2, got {d}")
    n = len(point_set)
    if n < 2:
        raise TooFewPointsError(f"too few points: need 2, got {n}")

    ordered = sorted(point_set.points, key=lex_key)
    half = n // 2
    below = ordered[:half]
    above = ordered[-half:]
    dropped = frozenset(p.id for p in ordered[half : n - half])  # odd middle

    if n % 2 == 1:
        halving_value = ordered[half].coords[-1]
    else:
        halving_value = (ordered[half - 1].coords[-1] + ordered[half].coords[-1]) * _HALF

    pairs: list[tuple[int, int]] = []
    projected: list[Point] = []
    for i, (lo, hi) in enumerate(zip(below, above)):
        pairs.append((lo.id, hi.id))
        projected.append(Point(i, _cross_section(lo, hi, halving_value)))

    return PairProjection(
        halving_value=halving_value,
        pairs=tuple(pairs),
        projected=PointSet(d - 1, tuple(projected)),
        dropped_ids=dropped,
    )


def _cross_section(lo: Point, hi: Point, level: Fraction) -> tuple[Fraction, ...]:
    """First d-1 coordinates of segment(lo, hi) at last coordinate == level.

    When both endpoints share the level the whole segment lies in the
    hyperplane; the midpoint is as good as any point of it for lifting.
    """
    span = hi.coords[-1] - lo.coords[-1]
    lam = _HALF if span == 0 else (level - lo.coords[-1]) / span
    return tuple(a + lam * (b - a) for a, b in zip(lo.coords[:-1], hi.coords[:-1]))


def lift_partition(
    projection: PairProjection, partition: IndexedPartition
) -> IndexedPartition:
    """Replace every projected point by both endpoints of its pair.

    Dropped points are appended to part 1 (part 0 when the partition has
    a single part); extra points only grow a hull.
    """
    if not validate_partition(projection.projected, partition):
        raise InvalidPartitionError("invalid partition: does not match projection")

    lifted: list[set[int]] = []
    for part in partition.parts:
        ids: set[int] = set()
        for q in part:
            lo, hi = projection.pairs[q]
            ids.add(lo)
            ids.add(hi)
        lifted.append(ids)

    absorb = 1 if len(lifted) >= 2 else 0
    lifted[absorb] |= projection.dropped_ids
    return IndexedPartition(tuple(frozenset(ids) for ids in lifted))


def tolerant_tverberg_lifted(point_set: PointSet, m: int, t: int) -> IndexedPartition:
    """A t-tolerant Tverberg m-partition in any dimension.

    Needs 2^(d-1) (m(t+2)-1) points: the set halves once per lost
    dimension until the tight 1-D construction applies.
    """
    if m < 1:
        raise TverbergError(f"m must be at least 1, got m={m}")
    if t < 0:
        raise TverbergError(f"t must be nonnegative, got t={t}")
    d = point_set.dim
    need = (2 ** (d - 1)) * (m * (t + 2) - 1)
    if len(point_set) < need:
        raise TooFewPointsError(
            f"too few points: need 2^(d-1)(m(t+2)-1) = {need}, got {len(point_set)}"
        )
    if d == 1:
        return tolerant_tverberg_1d(point_set, m)
    projection = halve_and_pair(point_set)
    projected_partition = tolerant_tverberg_lifted(projection.projected, m, t)
    return lift_partition(projection, projected_partition)
