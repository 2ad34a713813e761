"""Independent oracles used to cross-check the library.

Everything here is deliberately written against different mathematics
than the code under test: interval arithmetic instead of LPs, direct
half-space counting instead of removal enumeration, closed-form
recurrences instead of generators.  The exceptions are
``check_solver_output``, a sanity predicate on solver results that
re-checks them with the library's own LP, and the ``*_exhaustive``
verifiers, which judge every removal set with that LP: they are the
unpruned enumeration the library's verifiers must agree with.
"""

from fractions import Fraction
from itertools import combinations

from tolerant_tverberg import common_intersection_point, point_in_hull, validate_partition


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


def frac(value) -> Fraction:
    return Fraction(value)


def check_solver_output(point_set, partition) -> bool:
    """Valid cover and intersecting hulls."""
    if not validate_partition(point_set, partition):
        return False
    by_id = point_set.by_id()
    sets = [[by_id[pid] for pid in sorted(part)] for part in partition.parts]
    return common_intersection_point(sets, point_set.dim) is not None


def verify_tolerance_exhaustive(point_set, partition, t):
    """Unpruned ``verify_tolerance``: (tolerant, witness removal or None).

    Judges every removal of size min(t, n) in lexicographic order; a part
    of at most t points is reported whole, padded with the smallest other
    ids, as the library does.
    """
    ids = sorted(point_set.ids())
    size = min(t, len(ids))
    smallest = min(partition.parts, key=len)
    if t >= len(smallest):
        pad = [pid for pid in ids if pid not in smallest][: size - len(smallest)]
        return False, frozenset(smallest) | frozenset(pad)
    by_id = point_set.by_id()
    for removal in combinations(ids, size):
        sets = [
            [by_id[pid] for pid in sorted(part) if pid not in removal]
            for part in partition.parts
        ]
        if common_intersection_point(sets, point_set.dim) is None:
            return False, frozenset(removal)
    return True, None


def exact_tolerance_exhaustive(point_set, partition):
    """Unpruned ``exact_tolerance``: the last t before the first refuted level."""
    t = 0
    while verify_tolerance_exhaustive(point_set, partition, t)[0]:
        t += 1
    return t - 1


def tukey_depth_exhaustive(c, point_set):
    """Unpruned ``tukey_depth``: the smallest removal that evicts c."""
    ids = sorted(point_set.ids())
    by_id = point_set.by_id()
    for r in range(len(ids) + 1):
        for removal in combinations(ids, r):
            if not point_in_hull(c, [by_id[pid] for pid in ids if pid not in removal]):
                return r
    return len(ids)
