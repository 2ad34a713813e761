"""Exhaustive, exact checking of tolerance, Tukey depth and centerpoints.

Tolerance testing is coNP-complete in general, so these routines run a
budgeted exhaustive search: every removal set of the critical size is
enumerated in lexicographic id order and judged by the exact LP engine.
That makes them oracles for desk-scale instances rather than scalable
algorithms, which is exactly their job here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    BudgetExceededError,
    DimensionError,
    IndexedPartition,
    InvalidPartitionError,
    Point,
    PointSet,
    RemovalSet,
    validate_partition,
)
from .lp import common_intersection_point, point_in_hull

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ToleranceVerdict:
    """Either "tolerant" or "refuted" with a separating removal set.

    A refutation witness is checkable independently: deleting it leaves
    the parts' hulls with empty common intersection.  The certificate is
    the common point of the last LP solved; it is a diagnostic only.
    """

    status: str  # "tolerant" | "refuted"
    witness_removal: RemovalSet | None = None
    certificate: tuple[Fraction, ...] | None = None

    @property
    def tolerant(self) -> bool:
        return self.status == "tolerant"


def verify_tolerance(
    point_set: PointSet,
    partition: IndexedPartition,
    t: int,
    budget: int = DEFAULT_BUDGET,
) -> ToleranceVerdict:
    """Decide whether ``partition`` survives every removal of up to t points.

    Hulls only shrink when the removal grows, so it suffices to try the
    removals of size exactly min(t, n): any separating smaller set
    extends to a separating one of that size.  The witness reported is
    the lexicographically first refutation, except when some part has at
    most t points — then deleting that whole part is an immediate
    refutation and is reported padded to full size.  ``budget`` bounds
    the C(n, min(t, n)) removal sets.
    """
    if t < 0:
        raise InvalidPartitionError(f"invalid partition query: t={t}")
    if not validate_partition(point_set, partition):
        raise InvalidPartitionError("invalid partition: does not cover the point set")

    n = len(point_set)
    size = min(t, n)
    _charge(n, size, budget)

    all_ids = sorted(point_set.ids())
    smallest_idx = min(range(partition.m), key=lambda i: len(partition.parts[i]))
    smallest = partition.parts[smallest_idx]
    if t >= len(smallest):
        removal = sorted(smallest)
        for pid in all_ids:
            if len(removal) == size:
                break
            if pid not in smallest:
                removal.append(pid)
        return ToleranceVerdict("refuted", witness_removal=frozenset(removal))

    by_id = point_set.by_id()
    part_points = [
        [by_id[pid] for pid in sorted(part)] for part in partition.parts
    ]

    certificate: tuple[Fraction, ...] | None = None
    for combo in combinations(all_ids, size):
        removed = frozenset(combo)
        sets = [[p for p in part if p.id not in removed] for part in part_points]
        # size < min part size here, so no part is ever emptied
        point = common_intersection_point(sets, point_set.dim)
        if point is None:
            return ToleranceVerdict("refuted", witness_removal=removed)
        certificate = point
    return ToleranceVerdict("tolerant", certificate=certificate)


def exact_tolerance(
    point_set: PointSet,
    partition: IndexedPartition,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Largest t at which the partition verifies tolerant; -1 when it is
    not a Tverberg partition at all.

    Tolerance at t implies tolerance at every smaller t, so the first
    refuted level ends the ascent.  Level n always refutes (removing
    everything empties every hull), so this terminates.  ``budget``
    bounds the removal sets of all levels together.
    """
    n = len(point_set)
    t = 0
    while True:
        verdict = verify_tolerance(point_set, partition, t, budget=budget)
        if not verdict.tolerant:
            return t - 1
        budget -= math.comb(n, min(t, n))
        t += 1


def tukey_depth(c: Point, point_set: PointSet, budget: int = DEFAULT_BUDGET) -> int:
    """Depth of c with respect to the point set: the smallest number of
    deletions that pulls c out of the convex hull of the rest.

    Searched by ascending removal size; each candidate removal is judged
    by an exact hull-membership LP.  ``budget`` bounds the removal sets
    of all sizes together.
    """
    if c.dim != point_set.dim:
        raise DimensionError(
            f"dimension: query has dim {c.dim}, point set has {point_set.dim}"
        )
    n = len(point_set)
    ids = sorted(point_set.ids())
    by_id = point_set.by_id()
    for r in range(n + 1):
        budget -= _charge(n, r, budget)
        for combo in combinations(ids, r):
            removed = set(combo)
            rest = [by_id[pid] for pid in ids if pid not in removed]
            if not point_in_hull(c, rest):
                return r
    # unreachable: removing all n points always evicts c
    return n


def _charge(n: int, size: int, budget: int) -> int:
    """The C(n, size) removal sets of one level; raises when they exceed
    the ``budget`` left."""
    sets = math.comb(n, size)
    if sets > budget:
        raise BudgetExceededError(
            f"instance too large: C({n},{size}) removal sets exceed the budget left, {budget}"
        )
    return sets


def centerpoint_depth(n: int, d: int) -> int:
    """Depth a centerpoint of n points in d dimensions has: ceil(n / (d+1))."""
    return -(-n // (d + 1))


def is_centerpoint(c: Point, point_set: PointSet, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff c has depth at least ceil(n / (d+1))."""
    required = centerpoint_depth(len(point_set), point_set.dim)
    return tukey_depth(c, point_set, budget=budget) >= required
