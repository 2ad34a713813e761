"""Independent oracles used to cross-check the library.

Everything here is deliberately written against different mathematics
than the code under test: interval arithmetic instead of LPs, direct
half-space counting instead of removal enumeration, closed-form
recurrences instead of generators.  The exceptions are
``check_solver_output``, a sanity predicate on solver results that
re-checks them with the library's own LP, and the ``*_exhaustive``
functions, which judge every removal set or partition with that LP:
they are the unpruned enumerations the library must agree with.
``lex_key_plain``, ``cross_section_fraction``,
``degenerate_index_exhaustive``, ``point_set_from_obj_per_value``,
``to_scalar_fraction_first`` and ``first_refutation_walk`` are the plain
forms of code the library runs faster: the coordinate tuple as sort key,
the segment's cross section in Fraction arithmetic, the scan of every
(d+1)-subset, a point set read with one ``to_scalar`` call per
coordinate, ``to_scalar`` testing Fraction before str, and the
support-pruned walk of every level with no disjoint-support certificate.

``_phase1``/``_pivot`` are the reference LP engine: the phase-1 simplex
under Bland's rule on a plain Fraction tableau, on a sign-flipped copy
of the rows, with one artificial column per row.  On its first, cold
solve the library's fraction-free integer tableau, which has no
artificial columns, must take the same pivots up to the first one that
enters an artificial column, and its integer witness, numerators over
d, must equal this engine's Fraction witness; a warm solve must reach
this engine's verdict on the system with the removed columns deleted.  ``hulls_intersect_fraction`` re-decides
hull intersection on it with a differently chained formulation; the
tests use it to check that a support returned by the library still
carries a common point.
"""

from fractions import Fraction
from itertools import combinations

from tolerant_tverberg import (
    Point, PointSet, TverbergError, check_partition, hull_judge, intersection_judge, to_scalar,
)
from tolerant_tverberg.core import short_repr
from tolerant_tverberg.solvers import restricted_growth_strings
from tolerant_tverberg.verification import _charge

_ZERO = Fraction(0)
_ONE = Fraction(1)


def intervals_intersect(sets_of_values):
    """1-D Helly oracle: hulls share a point iff max(min_i) <= min(max_i)."""
    if any(not s for s in sets_of_values):
        return False
    return max(min(s) for s in sets_of_values) <= min(max(s) for s in sets_of_values)


def separable_1d(parts, t):
    """True iff some removal of at most t values separates the hulls of a
    1-D partition (given as lists of distinct numbers).

    Exhaustive in effect but O(m^2 t) in work: if a removal R separates
    some pair with one survivor hull entirely below the other, then
    shifting R's budget onto the top of the low part and the bottom of
    the high part separates them too.  So trying every (pair, direction,
    split of t) is complete, and Helly reduces the m-wise question to
    pairs.
    """
    sorted_parts = [sorted(p) for p in parts]
    for part in sorted_parts:
        if len(part) <= t:
            return True  # wiping out one part empties its hull
    for a in sorted_parts:
        for b in sorted_parts:
            if a is b:
                continue
            for k in range(t + 1):
                # remove k largest of a, t-k smallest of b
                if a[len(a) - k - 1] < b[t - k]:
                    return True
    return False


def tolerant_1d(parts, t):
    return not separable_1d(parts, t)


def separable_1d_naive(values, parts, t):
    """Reference decider: enumerate every removal set of size t."""
    parts = [list(p) for p in parts]
    if min(len(p) for p in parts) <= t:
        return True
    for removal in combinations(sorted(values), t):
        gone = set(removal)
        if not intervals_intersect([[v for v in p if v not in gone] for p in parts]):
            return True
    return False


def halfspace_depth_1d(c, values):
    """Closed-form 1-D Tukey depth."""
    return min(
        sum(1 for v in values if v <= c),
        sum(1 for v in values if v >= c),
    )


def halfspace_depth_2d(c, points):
    """Exact 2-D Tukey depth by direct half-plane counting.

    A minimizing closed half-plane can be translated until its boundary
    passes through c and rotated until it touches a point, so it is
    enough to score every normal perpendicular to some (p - c), plus a
    symbolic nudge to either side to cover the open sectors between
    touching positions.
    """
    cx, cy = c
    diffs = [(px - cx, py - cy) for px, py in points]
    if all(dx == 0 and dy == 0 for dx, dy in diffs):
        return len(points)

    def count(u, side):
        # side=0: exact boundary; else sign of an infinitesimal rotation
        ux, uy = u
        vx, vy = -uy, ux
        total = 0
        for dx, dy in diffs:
            a = dx * ux + dy * uy
            if a > 0 or (a == 0 and side * (dx * vx + dy * vy) >= 0):
                total += 1
        return total

    best = len(points)
    for dx, dy in diffs:
        if dx == 0 and dy == 0:
            continue
        for u in ((-dy, dx), (dy, -dx)):
            for side in (0, 1, -1):
                best = min(best, count(u, side))
    return best


def stirling2(n, k):
    """Stirling numbers of the second kind by the standard recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def lex_key_plain(p):
    """The symbolic order as a plain tuple: coordinates from the last
    axis down to the first, then the id."""
    return tuple(reversed(p.coords)) + (p.id,)


def cross_section_fraction(lo, hi, level):
    """First d-1 coordinates of segment(lo, hi) at last coordinate
    ``level``, in Fraction arithmetic; the midpoint when the segment lies
    in that hyperplane.  Coordinates may be ints, so ``level`` and the
    span enter as Fractions: ``/`` on two ints would give a float."""
    level = Fraction(level)
    span = Fraction(hi.coords[-1] - lo.coords[-1])
    lam = Fraction(1, 2) if span == 0 else (level - lo.coords[-1]) / span
    return tuple(a + lam * (b - a) for a, b in zip(lo.coords[:-1], hi.coords[:-1]))


def det_by_fractions(mat):
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            for k in range(col, size):
                m[r][k] -= factor * m[col][k]
    return det


def degenerate_index_exhaustive(coords, dim):
    """The generator's offender, by a scan from the start: the later copy
    of the first repeated point, else the last index of the lex-first
    affinely dependent (d+1)-subset, else None."""
    seen = set()
    for i, row in enumerate(coords):
        if tuple(row) in seen:
            return i
        seen.add(tuple(row))
    for subset in combinations(range(len(coords)), dim + 1):
        base = coords[subset[0]]
        mat = [[coords[j][k] - base[k] for k in range(dim)] for j in subset[1:]]
        if det_by_fractions(mat) == 0:
            return subset[-1]
    return None


def to_scalar_fraction_first(value):
    """``to_scalar`` with its type tests in the order bool, int, Fraction,
    str; strings go to ``to_scalar`` itself."""
    if isinstance(value, bool):
        raise TverbergError(f"not an exact scalar: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return to_scalar(value)
    raise TverbergError(
        f"not an exact scalar: {short_repr(value)} (floats are not accepted)"
    )


def first_refutation_walk(ids, sizes, judge, budget):
    """``verification._first_refutation`` with no family of disjoint
    supports: each size charged as it is reached, then every removal of
    it in lexicographic order, skipping those that miss a known support;
    the first refuted removal, or None."""
    supports = []
    for size in sizes:
        budget -= _charge(len(ids), size, budget)
        for combo in combinations(ids, size):
            removed = frozenset(combo)
            if any(removed.isdisjoint(s) for s in supports):
                continue
            support = judge(removed)
            if support is None:
                return removed
            supports.append(support)
    return None


def point_set_from_obj_per_value(obj):
    """``jsonio.point_set_from_obj`` with every coordinate, int or not,
    converted by its own ``to_scalar`` call."""
    if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
        raise TverbergError("point set JSON must have 'dim' and 'points'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TverbergError("'dim' must be an integer")
    if not isinstance(obj["points"], list):
        raise TverbergError("'points' must be a list")
    if not obj["points"]:
        raise TverbergError("'points' must not be empty")
    points = []
    for entry in obj["points"]:
        if not isinstance(entry, dict) or "id" not in entry or "coords" not in entry:
            raise TverbergError("each point needs 'id' and 'coords'")
        pid = entry["id"]
        if not isinstance(pid, int) or isinstance(pid, bool):
            raise TverbergError(f"point id must be an integer, got {short_repr(pid)}")
        if not isinstance(entry["coords"], list):
            raise TverbergError(f"coords of point {pid} must be a list")
        points.append(Point(pid, tuple(to_scalar(c) for c in entry["coords"])))
    return PointSet(dim, tuple(points))


def check_solver_output(point_set, partition) -> bool:
    """Intersecting hulls; a partition that does not partition the point
    set raises from ``check_partition``."""
    check_partition(partition, point_set.ids())
    by_id = point_set.by_id()
    sets = [[by_id[pid] for pid in sorted(part)] for part in partition]
    return intersection_judge(sets, point_set.dim)(()) is not None


def brute_force_tverberg_exhaustive(point_set, m):
    """Unfiltered ``brute_force_tverberg``: one LP for every partition in
    restricted-growth order, the first whose hulls share a point, or None."""
    points = list(point_set.points)
    for rgs in restricted_growth_strings(len(points), m):
        sets = [[p for p, block in zip(points, rgs) if block == i] for i in range(m)]
        if intersection_judge(sets, point_set.dim)(()) is not None:
            return tuple(frozenset(p.id for p in s) for s in sets)
    return None


def verify_tolerance_exhaustive(point_set, partition, t):
    """Unpruned ``verify_tolerance``: the witness removal, or None when tolerant.

    Judges every removal of size min(t, n) in lexicographic order; a part
    of at most t points is reported whole, padded with the smallest other
    ids, as the library does.
    """
    ids = sorted(point_set.ids())
    size = min(t, len(ids))
    smallest = min(partition, key=len)
    if t >= len(smallest):
        pad = [pid for pid in ids if pid not in smallest][: size - len(smallest)]
        return frozenset(smallest) | frozenset(pad)
    by_id = point_set.by_id()
    for removal in combinations(ids, size):
        sets = [
            [by_id[pid] for pid in sorted(part) if pid not in removal]
            for part in partition
        ]
        if intersection_judge(sets, point_set.dim)(()) is None:
            return frozenset(removal)
    return None


def exact_tolerance_exhaustive(point_set, partition):
    """Unpruned ``exact_tolerance``: the last t before the first refuted level."""
    t = 0
    while verify_tolerance_exhaustive(point_set, partition, t) is None:
        t += 1
    return t - 1


def tukey_depth_exhaustive(c, point_set):
    """Unpruned ``tukey_depth``: the smallest removal that evicts c."""
    ids = sorted(point_set.ids())
    by_id = point_set.by_id()
    for r in range(len(ids) + 1):
        for removal in combinations(ids, r):
            if hull_judge(c, [by_id[pid] for pid in ids if pid not in removal])(()) is None:
                return r
    return len(ids)


def fraction_lp_feasible(rows, rhs):
    """``lp.lp_feasible`` of a new tableau, on the reference engine and
    without its re-check: an exact w >= 0 with rows . w = rhs, or None.
    Entries may be ints; they become Fractions, so the ratio test's ``/``
    stays exact."""
    signed = [
        [Fraction(c) if b >= 0 else -Fraction(c) for c in row] for row, b in zip(rows, rhs)
    ]
    values, art_total = _phase1(signed, [abs(Fraction(b)) for b in rhs], len(rows[0]))
    return None if art_total != 0 else tuple(values)


def hulls_intersect_fraction(sets, dim):
    """True iff the convex hulls of the point lists share a point, decided
    on the reference engine.  Each set's barycentric combination is tied
    to the previous set's, where the library ties every set to set 0's."""
    if any(not s for s in sets):
        return False
    if not sets:
        return True
    ncols = sum(len(s) for s in sets)
    rows, rhs = [], []
    offset = 0
    for i, s in enumerate(sets):
        row = [_ZERO] * ncols
        row[offset : offset + len(s)] = [_ONE] * len(s)
        rows.append(row)
        rhs.append(_ONE)
        if i > 0:
            prev = offset - len(sets[i - 1])
            for k in range(dim):
                row = [_ZERO] * ncols
                for j, p in enumerate(sets[i - 1]):
                    row[prev + j] = p.coords[k]
                for j, p in enumerate(s):
                    row[offset + j] = -p.coords[k]
                rows.append(row)
                rhs.append(_ZERO)
        offset += len(s)
    return fraction_lp_feasible(rows, rhs) is not None


def _phase1(rows: list[list[Fraction]], rhs: list[Fraction], ncols: int):
    """Minimize the sum of one artificial variable per row, Bland's rule.

    Returns (structural values, residual artificial sum).  rhs must be
    nonnegative on entry.
    """
    m = len(rows)
    width = ncols + m + 1  # structural | artificial | rhs
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = rows[i] + [_ZERO] * m + [rhs[i]]
        row[ncols + i] = _ONE
        tab.append(row)
    basis = [ncols + i for i in range(m)]

    # reduced costs for min sum(artificials): cbar_j = -sum_i a_ij on
    # structural columns, 0 on artificials; last entry tracks -objective
    cost = [_ZERO] * width
    for j in range(ncols):
        s = _ZERO
        for i in range(m):
            s += tab[i][j]
        cost[j] = -s
    total = _ZERO
    for b in rhs:
        total += b
    cost[-1] = -total

    while True:
        enter = -1
        for j in range(ncols + m):
            if cost[j] < 0:
                enter = j  # Bland: lowest eligible index
                break
        if enter < 0:
            break

        leave = -1
        best: Fraction | None = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 unbounded, but its objective is bounded below by 0")

        _pivot(tab, cost, leave, enter)
        basis[leave] = enter

    values = [_ZERO] * ncols
    art_total = _ZERO
    for i in range(m):
        if basis[i] < ncols:
            values[basis[i]] = tab[i][-1]
        else:
            art_total += tab[i][-1]
    return values, art_total


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], leave: int, enter: int) -> None:
    prow = tab[leave]
    pval = prow[enter]
    if pval != 1:
        inv = _ONE / pval
        tab[leave] = prow = [c * inv for c in prow]
    for row in tab:
        if row is prow:
            continue
        factor = row[enter]
        if factor != 0:
            for j, pj in enumerate(prow):
                if pj != 0:
                    row[j] -= factor * pj
    factor = cost[enter]
    if factor != 0:
        for j, pj in enumerate(prow):
            if pj != 0:
                cost[j] -= factor * pj
