"""Acceptance suite: one test per headline guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Everything is checked exactly: integer arithmetic,
exhaustive enumeration, and the rational LP engine; no tolerances are
involved anywhere.  The full suite takes about half a minute, dominated
by the 10^4-case oracle batteries and the lifting matrix.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import oracles
from helpers import all_m_partitions, integer_line, line, query
from tolerant_tverberg import (
    MergeBlock,
    Point,
    PointSet,
    brute_force_tverberg,
    center_to_tolerant_instance,
    centerpoint_depth,
    chunk_and_merge,
    exact_tolerance,
    get_solver,
    hull_judge,
    intersection_judge,
    max_tolerance_1d,
    merge_partitions,
    random_point_set,
    tolerant_tverberg_1d,
    tolerant_tverberg_lifted,
    tukey_depth,
    verify_tolerance,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_c01_one_dimensional_tight_bound():
    """m(t+2)-1 points always admit the construction; one fewer never does."""
    with criterion("criterion 1: 1-D bound is achieved and tight"):
        for m in (2, 3):
            for t in (1, 2, 3):
                n = m * (t + 2) - 1
                P = integer_line(n)
                assert max_tolerance_1d(n, m) == t
                assert verify_tolerance(P, tolerant_tverberg_1d(P, m), t) is None

                short = list(range(1, n))  # n-1 points
                tolerant_count = sum(
                    1
                    for parts in all_m_partitions(short, m)
                    if oracles.tolerant_1d(parts, t)
                )
                assert tolerant_count == 0, (m, t)


def test_c02_improvement_over_general_bound_on_the_line():
    """The 1-D construction needs t(m-2) fewer points than 2(t+1)(m-1)+1."""
    with criterion("criterion 2: 1-D saving equals t(m-2) exactly"):
        for m in range(1, 11):
            for t in range(0, 11):
                general = 2 * (t + 1) * (m - 1) + 1
                ours = m * (t + 2) - 1
                assert general - ours == t * (m - 2)


def test_c03_size_constraints_of_tolerant_partitions():
    """Every tolerant partition found exhaustively obeys the size bounds."""
    with criterion("criterion 3: |T_i| >= t+1 and |T_i u T_j| >= 2t+3, no exceptions"):
        found = 0
        for m in (2, 3):
            for n in range(m, 12):
                values = list(range(1, n + 1))
                for parts in all_m_partitions(values, m):
                    for t in (0, 1, 2):
                        if not oracles.tolerant_1d(parts, t):
                            continue
                        found += 1
                        assert all(len(p) >= t + 1 for p in parts)
                        for a, b in combinations(parts, 2):
                            assert len(a) + len(b) >= 2 * t + 3
        assert found > 0


def test_c04_lifting_matrix():
    """Twenty seeds per (m,t) case in the plane and ten in space, each
    verified exhaustively."""
    with criterion("criterion 4: lifted partitions verify on 20/20 planar and 10/10 spatial seeds"):
        for dim, seeds, cases in ((2, 20, ((2, 1), (3, 2))), (3, 10, ((2, 1), (2, 2)))):
            for m, t in cases:
                n = 2 ** (dim - 1) * (m * (t + 2) - 1)
                for seed in range(seeds):
                    P = random_point_set(n, dim, grid=1000, seed=seed)
                    T = tolerant_tverberg_lifted(P, m, t)
                    assert verify_tolerance(P, T, t) is None, (dim, m, t, seed)


def test_c05_two_dimensional_bound_comparison():
    with criterion("criterion 5: planar input size beats 3(m-1)(t+1)+1 at (4,5), (7,2)"):
        for m, t in ((4, 5), (7, 2)):
            assert 2 * (m * (t + 2) - 1) < 3 * (m - 1) * (t + 1) + 1


def test_c06_merge_lemma_lower_bound():
    """Fifty seeded merge inputs reach tolerance sum(t_i) + k - 1.

    Block tolerances are confirmed by exact_tolerance first; the merged
    bound is checked with verify_tolerance at exactly that level, which
    by monotonicity is the same statement as exact_tolerance >= bound.
    """
    with criterion("criterion 6: merged tolerance >= sum(t_i) + k - 1 on 50/50 inputs"):
        rng = random.Random(606)
        checked = 0
        while checked < 50:
            dim = rng.choice([1, 2])
            k = rng.choice([2, 3])
            blocks = []
            union = []
            next_id = 1
            ok = True
            for _ in range(k):
                n = rng.randint(3, 4)
                if dim == 1:
                    values = rng.sample(range(-100, 100), n)
                    pts = line(*values, start_id=next_id)
                else:
                    base = random_point_set(n, 2, grid=60, seed=rng.randrange(10**6))
                    pts = PointSet(
                        2,
                        tuple(
                            Point(next_id + i, p.coords)
                            for i, p in enumerate(base.points)
                        ),
                    )
                next_id += n
                union += pts.points
                partition = brute_force_tverberg(pts, 2)
                if partition is None:
                    ok = False
                    break
                blocks.append(MergeBlock(partition, exact_tolerance(pts, partition)))
            if not ok:
                continue
            merged = merge_partitions(blocks)
            bound = sum(b.tolerance for b in blocks) + k - 1
            assert merged.tolerance == bound
            P = PointSet(dim, tuple(union))
            assert verify_tolerance(P, merged.partition, bound) is None
            checked += 1


def test_c07_chunk_and_merge_driver():
    with criterion("criterion 7: chunking {1..12} into 1-D blocks yields tolerance 3"):
        P = integer_line(12)
        merged = chunk_and_merge(P, 2, get_solver("1d", 1))
        assert merged.tolerance == 3
        assert verify_tolerance(P, merged.partition, 3) is None


def _centerpoint_equals_reduction(P, c):
    inst = center_to_tolerant_instance(P, c)
    reduced = verify_tolerance(inst.lifted_points, inst.partition, inst.t) is None
    return (tukey_depth(c, P) >= centerpoint_depth(len(P), P.dim)) == reduced


def _centroid(P):
    n = len(P)
    return Point(
        0,
        tuple(
            sum((p.coords[k] for p in P.points), Fraction(0)) / n
            for k in range(P.dim)
        ),
    )


def test_c08_reduction_equivalence():
    """Centerpoint truth and reduced-instance tolerance agree on 100% of cases."""
    with criterion("criterion 8: centerpoint <=> tolerant reduced instance"):
        for size in range(3, 8):
            for values in combinations(range(1, 8), size):
                P = line(*values)
                candidates = [query(v) for v in values] + [_centroid(P)]
                for c in candidates:
                    assert _centerpoint_equals_reduction(P, c), (values, c)
        for seed in range(10):
            n = 3 + seed % 4  # sizes 3..6
            P = random_point_set(n, 2, grid=40, seed=800 + seed)
            candidates = [Point(0, p.coords) for p in P.points] + [_centroid(P)]
            for c in candidates:
                assert _centerpoint_equals_reduction(P, c), (seed, c)


def test_c09_depth_removal_lemma():
    """Depth t+1 is equivalent to surviving every removal of size <= t."""
    with criterion("criterion 9: depth lemma bidirectional + closed-form agreement"):
        # 1-D, exhaustive over removals, against the half-space closed form
        def stays_inside_1d(c, values, removal):
            rest = [v for v in values if v not in removal]
            return bool(rest) and min(rest) <= c <= max(rest)

        for n in range(1, 9):
            values = list(range(1, n + 1))
            P = line(*values)
            candidates = (
                [Fraction(v) for v in range(0, n + 2)]
                + [Fraction(1, 2), Fraction(2 * n + 1, 2)]
            )
            for c in candidates:
                depth = oracles.halfspace_depth_1d(c, values)
                assert tukey_depth(query(c), P) == depth
                for t in range(0, n + 1):
                    survives = all(
                        stays_inside_1d(c, values, set(R))
                        for r in range(0, t + 1)
                        for R in combinations(values, r)
                    )
                    assert (depth >= t + 1) == survives, (n, c, t)

        # 2-D, exhaustive over removals, against direct half-plane counting
        for seed in range(4):
            n = 3 + seed
            P = random_point_set(n, 2, grid=30, seed=900 + seed)
            coords = [(p.coords[0], p.coords[1]) for p in P.points]
            pts = list(P.points)
            candidates = [Point(0, p.coords) for p in P.points] + [
                _centroid(P),
                query(-5, -5),
            ]
            for c in candidates:
                depth = oracles.halfspace_depth_2d(c.coords, coords)
                assert tukey_depth(c, P) == depth
                for t in range(0, n + 1):
                    survives = all(
                        hull_judge(c, [p for p in pts if p.id not in set(R)])(()) is not None
                        for r in range(0, t + 1)
                        for R in combinations([p.id for p in pts], r)
                    )
                    assert (depth >= t + 1) == survives, (seed, c.coords, t)

        # closed-form agreement on 10^4 random 1-D cases
        rng = random.Random(909)
        for _ in range(10**4):
            n = rng.randint(1, 7)
            values = [rng.randint(-10, 10) for _ in range(n)]
            P = line(*values)
            c = rng.randint(-12, 12)
            assert tukey_depth(query(c), P) == oracles.halfspace_depth_1d(c, values)


def test_c10_lp_oracle_equivalence():
    """The LP route and interval arithmetic agree on 10^4 random 1-D instances."""
    with criterion("criterion 10: LP vs interval oracle, witnesses re-verified"):
        rng = random.Random(1010)
        for _ in range(10**4):
            k = rng.randint(1, 4)
            value_sets = [
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                for _ in range(k)
            ]
            sets = []
            nid = 0
            for vs in value_sets:
                sets.append(
                    [Point(nid + i, (Fraction(v),)) for i, v in enumerate(vs)]
                )
                nid += len(vs)
            got = intersection_judge(sets, 1)(())
            assert (got is not None) == oracles.intervals_intersect(value_sets)
            if got is not None:
                # the witness support alone must still carry a common point
                assert oracles.intervals_intersect(
                    [[p.coords[0] for p in s if p.id in got] for s in sets])
