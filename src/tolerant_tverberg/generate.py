"""Seeded random instances in general position.

Coordinates are integers drawn uniformly from [0, grid]; offending
points are redrawn until no d+1 points are affinely dependent (for
d = 1: until all coordinates are distinct).  The same seed always
yields the same set.  A request that no draw on the grid can satisfy is
refused before drawing, and so is one of more than MAX_COORDS coordinates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from .core import Point, PointSet, TverbergError, short_repr

DEFAULT_GRID = 1000
_MAX_REDRAWS = 10000
MAX_COORDS = 10**6  # n * dim; the largest bench input holds 3 * 10^4


def random_point_set(n: int, dim: int, grid: int = DEFAULT_GRID, seed: int = 0) -> PointSet:
    given = f"n={short_repr(n)}, dim={short_repr(dim)}, grid={short_repr(grid)}"
    if n < 1 or dim < 1 or grid < 1:
        raise TverbergError(f"bad generator parameters: {given}")
    failed = f"could not reach general position for {given}"
    # Pigeonhole: d = 1 needs n <= grid+1; in d >= 2 three points on one of the
    # (grid+1)^(d-1) axis-parallel lines and any d-2 others are dependent.
    cap, axes = (1, 1) if dim == 1 else (2, dim - 1)
    while axes and cap < n:
        cap, axes = cap * (grid + 1), axes - 1
    if cap < n:
        raise TverbergError(failed)
    if n * dim > MAX_COORDS:
        raise TverbergError(f"too many coordinates: n*dim = {short_repr(n * dim)} > {MAX_COORDS}")
    rng = random.Random(seed)
    coords = [[rng.randint(0, grid) for _ in range(dim)] for _ in range(n)]

    for _ in range(_MAX_REDRAWS):
        bad = _degenerate_index(coords, dim)
        if bad is None:
            break
        coords[bad] = [rng.randint(0, grid) for _ in range(dim)]
    else:
        raise TverbergError(failed)

    points = tuple(
        Point(i + 1, tuple(Fraction(c) for c in row)) for i, row in enumerate(coords)
    )
    return PointSet(dim, points)


def _degenerate_index(coords: list[list[int]], dim: int) -> int | None:
    """Index of a point taking part in a degeneracy, or None if clean."""
    seen: dict[tuple, int] = {}
    for i, row in enumerate(coords):
        key = tuple(row)
        if key in seen:
            return i
        seen[key] = i
    if dim == 1:
        return None  # distinctness is all 1-D needs
    if dim == 2:
        return _collinear_index(coords)
    if dim == 3:
        return _coplanar_index(coords)
    for subset in combinations(range(len(coords)), dim + 1):
        base = coords[subset[0]]
        mat = [
            [coords[j][k] - base[k] for k in range(dim)] for j in subset[1:]
        ]
        if _det(mat) == 0:
            return subset[-1]
    return None


def _collinear_index(coords: list[list[int]]) -> int | None:
    """Last index of the lex-first collinear triple of distinct planar
    points, or None, in O(n^2): from each anchor, the group of later points
    in one reduced direction with the smallest first member holds it."""
    for i, (x0, y0) in enumerate(coords):
        lines: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, len(coords)):
            dx, dy = coords[j][0] - x0, coords[j][1] - y0
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            lines.setdefault((dx // g, dy // g), []).append(j)
        runs = [js for js in lines.values() if len(js) > 1]
        if runs:
            return min(runs)[1]
    return None


def _coplanar_index(coords: list[list[int]]) -> int | None:
    """Last index of the lex-first coplanar quadruple of distinct spatial
    points, or None, in O(n^3).  For an anchor pair (a, b), a later point c
    on line ab (zero normal: "flat") closes a quadruple with any later e;
    any other c with the later flat points and those sharing its reduced
    plane normal.  Scanning c downward keeps the next of each, so the last
    partner found belongs to the smallest c."""
    n = len(coords)
    for a, (ax, ay, az) in enumerate(coords):
        for b in range(a + 1, n):
            ux, uy, uz = coords[b][0] - ax, coords[b][1] - ay, coords[b][2] - az
            mates: dict[tuple[int, int, int], int] = {}
            flat = first = n
            for c in range(n - 1, b, -1):
                vx, vy, vz = coords[c][0] - ax, coords[c][1] - ay, coords[c][2] - az
                nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
                if nx == ny == nz == 0:
                    e, flat = c + 1, c
                else:
                    g = gcd(nx, ny, nz)
                    if (nx or ny or nz) < 0:
                        g = -g
                    key = (nx // g, ny // g, nz // g)
                    e = min(mates.get(key, n), flat)
                    mates[key] = c
                if e < n:
                    first = e
            if first < n:
                return first
    return None


def _det(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    After step k every entry below the pivot rows is a (k+1)-minor of the
    input, so each division by the previous pivot is exact.
    """
    m = [list(row) for row in mat]
    size = len(m)
    sign, prev = 1, 1
    for col in range(size - 1):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot, prow = m[col][col], m[col]
        for row in m[col + 1 :]:
            factor = row[col]
            for k in range(col + 1, size):
                row[k] = (row[k] * pivot - factor * prow[k]) // prev
        prev = pivot
    return sign * m[-1][-1]
