"""Dimension reduction by halving and pairing.

A point set in d dimensions is split by a hyperplane orthogonal to the
last axis, the lower half is paired with the upper half, and each pair
is replaced by the exact intersection of its connecting segment with
the hyperplane.  ``tolerant_tverberg_lifted`` solves the projected set
one dimension down and substitutes both endpoints for every projected
point: deleting an original point destroys at most its own pair, so
tolerance survives the round trip.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Partition, Point, PointSet, TverbergError, lex_key, short_repr
from .one_d import tolerant_tverberg_1d

_HALF = Fraction(1, 2)


def halve_and_pair(
    point_set: PointSet,
) -> tuple[PointSet, tuple[tuple[int, int], ...], int | None]:
    """Split by the last coordinate and project rank-matched pairs.

    Points are ordered by (last coordinate, ..., first coordinate, id),
    an exact symbolic perturbation standing in for "all last coordinates
    distinct".  The i-th point below the median pairs with the i-th
    above it.  Returns ``(projected, pairs, dropped)``: projected point i
    has id i and is the image of ``pairs[i]`` = (lower id, upper id);
    ``dropped`` is the id of the middle point of an odd-sized input,
    else None.
    """
    d = point_set.dim
    if d < 2:
        raise TverbergError(f"dimension: halve_and_pair needs d >= 2, got {d}")
    n = len(point_set)
    if n < 2:
        raise TverbergError(f"too few points: need 2, got {n}")

    ordered = sorted(point_set.points, key=lex_key)
    half = n // 2
    if n % 2 == 1:
        dropped = ordered[half].id
        level = ordered[half].coords[-1]
    else:
        dropped = None
        level = (ordered[half - 1].coords[-1] + ordered[half].coords[-1]) * _HALF

    matched = list(zip(ordered[:half], ordered[-half:]))
    projected = tuple(
        Point(i, _cross_section(lo, hi, level)) for i, (lo, hi) in enumerate(matched)
    )
    pairs = tuple((lo.id, hi.id) for lo, hi in matched)
    return PointSet(d - 1, projected), pairs, dropped


def _cross_section(lo: Point, hi: Point, level: Fraction) -> tuple[Fraction, ...]:
    """First d-1 coordinates of segment(lo, hi) at last coordinate == level.

    When both endpoints share the level the whole segment lies in the
    hyperplane; the midpoint is as good as any point of it for lifting.
    Each coordinate a + lam (b - a) is one Fraction built from integers.
    """
    y0, y1 = lo.coords[-1], hi.coords[-1]
    # lam = p/q = (level - y0) / (y1 - y0), unreduced; q == 0 exactly when y1 == y0
    p = (level.numerator * y0.denominator - y0.numerator * level.denominator) * y1.denominator
    q = (y1.numerator * y0.denominator - y0.numerator * y1.denominator) * level.denominator
    if q == 0:
        p, q = 1, 2
    section = []
    for a, b in zip(lo.coords[:-1], hi.coords[:-1]):
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        section.append(Fraction(an * bd * q + p * (bn * ad - an * bd), ad * bd * q))
    return tuple(section)


def lifted_points_needed(dim: int, m: int, t: int) -> int:
    """2^(d-1) (m(t+2)-1), the fewest points ``tolerant_tverberg_lifted`` takes."""
    return 2 ** (dim - 1) * (m * (t + 2) - 1)


def tolerant_tverberg_lifted(point_set: PointSet, m: int, t: int) -> Partition:
    """A t-tolerant Tverberg m-partition in any dimension.

    Needs 2^(d-1) (m(t+2)-1) points: the set halves once per lost
    dimension until the tight 1-D construction applies.  Each projected
    point is replaced by both ids of its pair, and an odd input's middle
    point joins part 1 (part 0 when m = 1); extra points only grow a
    hull.
    """
    if m < 1:
        raise TverbergError(f"m must be at least 1, got m={short_repr(m)}")
    if t < 0:
        raise TverbergError(f"t must be nonnegative, got t={short_repr(t)}")
    d = point_set.dim
    need = lifted_points_needed(d, m, t)
    if len(point_set) < need:
        raise TverbergError(
            f"too few points: need 2^(d-1)(m(t+2)-1) = {short_repr(need)}, got {len(point_set)}"
        )
    if d == 1:
        return tolerant_tverberg_1d(point_set, m)
    projected, pairs, dropped = halve_and_pair(point_set)
    lifted = [
        [pid for q in part for pid in pairs[q]]
        for part in tolerant_tverberg_lifted(projected, m, t)
    ]
    if dropped is not None:
        lifted[1 if m > 1 else 0].append(dropped)
    return tuple(frozenset(ids) for ids in lifted)
