"""Short constructors for the point sets and partitions the tests write out."""

from tolerant_tverberg import Point, PointSet, to_scalar


def from_coords(rows, start_id=1):
    """A PointSet from coordinate rows, with ids start_id, start_id+1, ..."""
    points = tuple(
        Point(start_id + i, tuple(to_scalar(c) for c in row)) for i, row in enumerate(rows)
    )
    return PointSet(len(rows[0]), points)


def from_iterables(parts):
    """A partition from any iterables of ids, in part order."""
    return tuple(frozenset(part) for part in parts)
