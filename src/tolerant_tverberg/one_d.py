"""Tolerant Tverberg partitions on the line.

For n = m(t+2)-1 points the construction puts every m-th point (by
rank) into part 0 and deals the m-1 points of each remaining gap to
parts 1..m-1 in ascending order.  Part 0 then has t+1 points, every
other part t+2, and the heavy interleaving makes the partition
t-tolerant — which is tight: no smaller point set admits one.

The ranks come from one sort by ``lex_key`` (coordinate, then id),
so rank r simply goes to part r mod m.
"""

from __future__ import annotations

from .core import Partition, PointSet, TverbergError, lex_key, short_repr


def max_tolerance_1d(n: int, m: int) -> int | None:
    """Largest t >= 0 with m(t+2)-1 <= n, or None when no tolerance is
    achievable (n < 2m-1)."""
    if m < 1:
        raise TverbergError(f"m must be at least 1, got m={short_repr(m)}")
    if n < 1:
        raise TverbergError(f"too few points: n={short_repr(n)}, m={short_repr(m)}")
    t = (n + 1) // m - 2
    return t if t >= 0 else None


def tolerant_tverberg_1d(point_set: PointSet, m: int) -> Partition:
    """Partition a 1-D point set into m parts tolerant to
    max_tolerance_1d(|P|, m) removals.

    When |P| exceeds m(t+2)-1 the highest-ranked surplus points are
    dealt round-robin onto parts 1..m-1; growing a hull never lowers
    tolerance, so the guarantee carries over.
    """
    if point_set.dim != 1:
        raise TverbergError(f"dimension: expected 1-D input, got {point_set.dim}-D")
    n = len(point_set)
    t = max_tolerance_1d(n, m)
    if t is None:
        raise TverbergError(f"too few points: need {short_repr(2 * m - 1)}, got {n}")
    core_size = m * (t + 2) - 1

    ordered = sorted(point_set.points, key=lex_key)
    parts: list[list[int]] = [[] for _ in range(m)]
    for rank, p in enumerate(ordered[:core_size], start=1):
        parts[rank % m].append(p.id)
    # m = 1 never has surplus: core_size = 1*(t+2)-1 = n there.
    for i, p in enumerate(ordered[core_size:]):
        parts[1 + i % (m - 1)].append(p.id)

    return tuple(frozenset(part) for part in parts)
