"""Short constructors for the point sets and partitions the tests write out."""

from fractions import Fraction

from hypothesis import strategies as st

from tolerant_tverberg import Point, PointSet, random_point_set, to_scalar
from tolerant_tverberg.solvers import restricted_growth_strings


def from_coords(rows, start_id=1):
    """A PointSet from coordinate rows, with ids start_id, start_id+1, ..."""
    points = tuple(
        Point(start_id + i, tuple(to_scalar(c) for c in row)) for i, row in enumerate(rows)
    )
    return PointSet(len(rows[0]), points)


def from_iterables(parts):
    """A partition from any iterables of ids, in part order."""
    return tuple(frozenset(part) for part in parts)


def big_denominators(rng, k):
    """k random rationals with distinct denominators of about 300 digits."""
    dens = set()
    while len(dens) < k:
        dens.add(rng.randrange(10**299, 10**300))
    return [Fraction(rng.randrange(-10**300, 10**300), d) for d in sorted(dens)]


def line(*values, start_id=1):
    """A 1-D PointSet with the given coordinates, ids from start_id."""
    return from_coords([[v] for v in values], start_id=start_id)


def integer_line(n):
    """ids equal coordinates 1..n, handy for reading partitions."""
    return line(*range(1, n + 1))


def pt(pid, *coords):
    """A Point with id ``pid`` and exact coordinates."""
    return Point(pid, tuple(to_scalar(c) for c in coords))


def query(*coords):
    """A query point, id 0."""
    return pt(0, *coords)


def all_m_partitions(values, m):
    """Every split of ``values`` into m nonempty lists, in restricted-growth order."""
    for rgs in restricted_growth_strings(len(values), m):
        parts = [[] for _ in range(m)]
        for v, block in zip(values, rgs):
            parts[block].append(v)
        yield parts


@st.composite
def spatial_inputs(draw, n):
    """n points in 3-D: a generated set in general position, or points on
    the 0..3 grid with duplicates and runs in one axis-parallel plane."""
    if draw(st.booleans()):
        return random_point_set(n, 3, seed=draw(st.integers(0, 10**6)))
    cell = st.integers(0, 3)
    coords = []
    while len(coords) < n:
        kind = draw(st.sampled_from(["fresh", "duplicate", "coplanar"]))
        if kind == "duplicate" and coords:
            coords.append(draw(st.sampled_from(coords)))
        elif kind == "coplanar":
            axis, level = draw(st.integers(0, 2)), draw(cell)
            for _ in range(draw(st.integers(3, 6))):
                p = [draw(cell), draw(cell)]
                p.insert(axis, level)
                coords.append(tuple(p))
        else:
            coords.append((draw(cell), draw(cell), draw(cell)))
    return from_coords(coords[:n])
