"""Regular (tolerance-0) Tverberg solvers behind one contract.

Every contract here solves the tolerance-0 problem: the merge driver
raises tolerance by merging blocks, so it only needs to know how many
points a solver requires per m-partition.  Anything honoring that
contract plugs in.  Known deterministic approximation algorithms from
the literature would slot in the same way:

    Miller & Sheehy (2010):  n_A(m) = 2m(d+1)^2,  time m^O(log d) d^O(log d) n
    Mulzer & Werner (2013):  n_A(m) = 4m(d+1)^3,  time d^O(log d) n

Neither is implemented here; the rows above document what the driver
would guarantee on top of them (tolerance floor(n / n_A(m)) - 1).

The exact brute-force solver enumerates every partition, so it refuses
inputs of more than the constant ``BRUTE_FORCE_CAP`` = 12 points.  A
partition with one part wholly above another along an axis (or, in the
plane, a line's normal) is never Tverberg; ranks refute it with no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm
from typing import Callable

from .core import Partition, PointSet, TverbergError, short_repr
from .lifting import lifted_points_needed, tolerant_tverberg_lifted
from .lp import intersection_judge

BRUTE_FORCE_CAP = 12


@dataclass(frozen=True)
class SolverContract:
    """A tolerance-0 solver with its minimum input size per part count.

    For any point set with at least points_needed(m) points in the
    dimension the contract was built for, solve(P, m) returns a valid
    Tverberg m-partition.
    """

    points_needed: Callable[[int], int]
    solve: Callable[[PointSet, int], Partition]


def restricted_growth_strings(n: int, blocks: int):
    """All partitions of n items into exactly ``blocks`` nonempty blocks,
    encoded as restricted growth strings, in lexicographic order."""
    if blocks < 1 or blocks > n:
        return
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:  # the pruning below has opened every block by now
            yield tuple(a)
            return
        top = min(mx + 1, blocks - 1)
        for v in range(top + 1):
            new_mx = mx if v <= mx else v
            if new_mx + 1 + (n - i - 1) >= blocks:  # can still open enough blocks
                a[i] = v
                yield from rec(i + 1, new_mx)

    yield from rec(0, -1)


def _rank_lists(point_set: PointSet, lines: bool) -> list[tuple[int, ...]]:
    """Dense ranks of the points along each axis and, if ``lines``, along
    the normal (p_y - q_y, q_x - p_x) of the line through each pair of
    planar points: one tuple per distinct order, axes first, zero normals
    left out.  Each axis is scaled to ints by the lcm of its denominators,
    a positive diagonal map that keeps all these orders."""
    columns = []
    for k in range(point_set.dim):
        column = [p.coords[k] for p in point_set.points]
        scale = lcm(*(c.denominator for c in column))
        columns.append([c.numerator * (scale // c.denominator) for c in column])
    if lines:
        coords = list(zip(*columns))
        for (px, py), (qx, qy) in combinations(coords, 2):
            a, b = py - qy, qx - px
            if a or b:
                columns.append([a * x + b * y for x, y in coords])
    orders: dict[tuple[int, ...], None] = {}
    for v in columns:
        index = {x: i for i, x in enumerate(sorted(set(v)))}
        orders[tuple(map(index.__getitem__, v))] = None
    return list(orders)


def _separated(rank_lists: list[tuple[int, ...]], rgs: tuple[int, ...], m: int) -> bool:
    """True when along some direction one part lies wholly above another.

    Along a direction u, a common point x of the part hulls has u.x in
    every part's interval [min u.P_i, max u.P_i], so the largest lower end
    is at most the smallest upper end; hulls meeting where they are equal pass.
    """
    for ranks in rank_lists:
        lo = [len(ranks)] * m
        hi = [-1] * m
        for r, block in zip(ranks, rgs):
            if r < lo[block]:
                lo[block] = r
            if r > hi[block]:
                hi[block] = r
        if max(lo) > min(hi):
            return True
    return False


def brute_force_tverberg(point_set: PointSet, m: int) -> Partition | None:
    """First partition (in canonical restricted-growth order) whose part
    hulls share a point, or None after exhausting all of them.

    A partition with one part wholly above another along an axis is never
    Tverberg and is skipped without an LP; in d = 2, once an LP refutes,
    the normals of the lines through two points join the axes (they cost
    about one LP).  Every other partition is judged cold by
    ``intersection_judge``.  Bell-number many, hence ``BRUTE_FORCE_CAP``.
    """
    if m < 1:
        raise TverbergError(f"m must be at least 1, got m={short_repr(m)}")
    n = len(point_set)
    if n > BRUTE_FORCE_CAP:
        raise TverbergError(f"instance too large for brute force: {n} > cap {BRUTE_FORCE_CAP}")
    points = list(point_set.points)
    rank_lists, lines = _rank_lists(point_set, False), point_set.dim == 2
    for rgs in restricted_growth_strings(n, m):
        if _separated(rank_lists, rgs, m):
            continue
        sets: list[list] = [[] for _ in range(m)]
        for p, block in zip(points, rgs):
            sets[block].append(p)
        if intersection_judge(sets, point_set.dim)(()) is not None:
            return tuple(frozenset(p.id for p in s) for s in sets)
        if lines:
            rank_lists, lines = _rank_lists(point_set, True), False
    return None


def _brute_points_needed(dim: int, m: int) -> int:
    """(d+1)(m-1)+1, the Tverberg number: enough points for an m-partition.
    Refused when over the cap, before any block is solved."""
    n = (dim + 1) * (m - 1) + 1
    if n > BRUTE_FORCE_CAP:
        raise TverbergError(
            f"instance too large for brute force: blocks of {short_repr(n)} points > cap {BRUTE_FORCE_CAP}"
        )
    return n


def _solve_brute(point_set: PointSet, m: int) -> Partition:
    """Brute-force the first (d+1)(m-1)+1 points, then put the rest in
    part 0: extra points only grow a hull, so the partition stays Tverberg
    and a block larger than its contract asks stays under the cap."""
    head = point_set.points[: _brute_points_needed(point_set.dim, m)]
    partition = brute_force_tverberg(PointSet(point_set.dim, head), m)
    if partition is None:
        raise TverbergError(
            f"no Tverberg {short_repr(m)}-partition exists for this {len(point_set)}-point set"
        )
    rest = frozenset(p.id for p in point_set.points[len(head) :])
    return (partition[0] | rest, *partition[1:])


def get_solver(name: str, dim: int) -> SolverContract:
    """Look up a solver by CLI name for a given ambient dimension."""
    if name == "brute":
        return SolverContract(lambda m: _brute_points_needed(dim, m), _solve_brute)
    if name == "1d" and dim != 1:
        raise TverbergError("solver '1d' only applies to 1-D point sets")
    if name in ("1d", "lift"):
        return SolverContract(
            lambda m: lifted_points_needed(dim, m, 0),
            lambda point_set, m: tolerant_tverberg_lifted(point_set, m, 0),
        )
    raise TverbergError(f"unknown solver {short_repr(name)} (choose from: brute, 1d, lift)")
