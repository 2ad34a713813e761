import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import (
    big_denominators, from_coords, from_iterables, integer_line, line, pt, query, spatial_inputs,
)
from tolerant_tverberg import (
    PointSet,
    TverbergError,
    centerpoint_depth,
    exact_tolerance,
    hull_judge,
    intersection_judge,
    lp,
    max_tolerance_1d,
    random_point_set,
    tolerant_tverberg_1d,
    tolerant_tverberg_lifted,
    tukey_depth,
    verification,
    verify_tolerance,
)


FOUR = integer_line(4)
SPLIT = from_iterables([{1, 3}, {2, 4}])


def removal_separates(point_set, partition, removed):
    by_id = point_set.by_id()
    sets = [
        [by_id[pid] for pid in part if pid not in removed]
        for part in partition
    ]
    return intersection_judge(sets, point_set.dim)(()) is None


# (x, y) -> (-x/7 + 1/3, 5y/3 - 2/9): an affine map with new coprime
# denominators that reverses orientation; tolerance and depth are invariant
AFFINE = ((Fraction(-1, 7), Fraction(1, 3)), (Fraction(5, 3), Fraction(-2, 9)))


def affine_image(p):
    """The point p, or every point of a PointSet, under ``AFFINE``."""
    if isinstance(p, PointSet):
        return PointSet(p.dim, tuple(map(affine_image, p.points)))
    return pt(p.id, *(a * x + b for (a, b), x in zip(AFFINE, p.coords)))


def forbid_the_count(monkeypatch):
    """Fail the test if the verifier counts the fewest refuting deletions."""
    def no_count(parts, dim):
        pytest.fail("the count ran")

    monkeypatch.setattr(verification, "_fewest_refuting", no_count)


class TestVerifyTolerance:
    def test_tolerant_at_zero(self):
        assert verify_tolerance(FOUR, SPLIT, 0) is None
        by_id = FOUR.by_id()
        sets = [[by_id[pid] for pid in sorted(part)] for part in SPLIT]
        support = intersection_judge(sets, 1)(())
        # the support alone still carries a common point
        assert support is not None and oracles.intervals_intersect(
            [[p.coords[0] for p in s if p.id in support] for s in sets])

    def test_refuted_at_one_with_lex_first_witness(self):
        removal = verify_tolerance(FOUR, SPLIT, 1)
        # {2} and {3} both separate; the enumeration reports the first
        assert removal == frozenset({2})
        assert removal_separates(FOUR, SPLIT, removal)

    def test_interleaved_eleven_points(self):
        P = integer_line(11)
        T = tolerant_tverberg_1d(P, 3)
        assert verify_tolerance(P, T, 2) is None
        assert verify_tolerance(P, T, 3) is not None

    def test_small_part_shortcut(self):
        P = integer_line(6)
        T = from_iterables([{3}, {1, 2, 4, 5, 6}])
        removal = verify_tolerance(P, T, 2)
        assert removal is not None
        assert len(removal) == 2
        assert 3 in removal
        assert removal_separates(P, T, removal)

    def test_small_part_shortcut_charges_no_budget(self):
        # deleting the smallest part refutes at once and enumerates no
        # removal set, so no budget is charged for it
        P = random_point_set(30, 3, seed=0)
        T = from_iterables([{1, 2, 3}, set(range(4, 31))])
        assert verify_tolerance(P, T, 10) == frozenset(range(1, 11))  # C(30,10) > 10^6
        single = from_iterables([P.ids()])
        for t in (30, 31):
            assert verify_tolerance(P, single, t, budget=0) == P.ids()

    def test_smallest_part_is_asked_before_the_count(self, monkeypatch):
        # the count is never above the smallest part's size, so it is not
        # asked when t reaches that size
        forbid_the_count(monkeypatch)
        P = integer_line(9)
        T = tolerant_tverberg_1d(P, 3)
        assert min(T, key=len) == {3, 6}
        assert verify_tolerance(P, T, 2) == {3, 6}
        assert verify_tolerance(P, T, 4) == {1, 2, 3, 6}
        Q = random_point_set(12, 2, seed=0)
        L = tolerant_tverberg_lifted(Q, 2, 1)
        assert min(L, key=len) == {2, 6, 9, 12}
        assert verify_tolerance(Q, L, 6) == {1, 2, 3, 6, 9, 12}
        assert verify_tolerance(Q, from_iterables([Q.ids()]), 12) == Q.ids()

    def test_partition_rule_is_asked_before_the_count(self, monkeypatch):
        forbid_the_count(monkeypatch)
        for verifier in (lambda T: verify_tolerance(FOUR, T, 0), lambda T: exact_tolerance(FOUR, T)):
            with pytest.raises(TverbergError, match="^invalid partition: does not cover the point set$"):
                verifier(from_iterables([{1, 2}]))
            with pytest.raises(TverbergError, match="^invalid partition: id 2 in two parts$"):
                verifier(from_iterables([{1, 2}, {2, 3, 4}]))

    def test_invalid_partition_rejected(self):
        with pytest.raises(TverbergError, match="^invalid partition: does not cover the point set$"):
            verify_tolerance(FOUR, from_iterables([{1, 2}]), 0)
        with pytest.raises(TverbergError, match="^invalid partition: id 2 in two parts$"):
            verify_tolerance(FOUR, from_iterables([{1, 2}, {2, 3, 4}]), 0)
        with pytest.raises(TverbergError, match="^invalid partition: empty part$"):
            exact_tolerance(FOUR, from_iterables([{1, 2, 3, 4}, set()]))
        with pytest.raises(TverbergError, match="^t must be nonnegative, got t=-1$"):
            verify_tolerance(FOUR, SPLIT, -1)
        empty = PointSet(1, ())
        with pytest.raises(TverbergError, match="invalid partition: no parts"):
            verify_tolerance(empty, (), 0)
        with pytest.raises(TverbergError, match="invalid partition: no parts"):
            exact_tolerance(empty, ())

    def test_budget_guard(self):
        P = integer_line(30)
        T = from_iterables([set(range(1, 16)), set(range(16, 31))])
        with pytest.raises(TverbergError, match="instance too large"):
            verify_tolerance(P, T, 10, budget=1000)

    def test_budget_is_charged_for_one_level(self):
        # a planar 3-partition is enumerated, and verify charges only the
        # C(11,2) = 55 removals of size t = 2, not the smaller levels
        P = from_coords([(i, i % 2) for i in range(1, 12)])
        T = from_iterables([{3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}])
        with pytest.raises(TverbergError, match=r"^instance too large: C\(11,2\) .*, 54$"):
            verify_tolerance(P, T, 2, budget=54)
        witness = verify_tolerance(P, T, 2)
        assert witness is not None
        assert verify_tolerance(P, T, 2, budget=55) == witness

    def test_monotone_in_t(self):
        P = integer_line(8)
        T = tolerant_tverberg_1d(P, 2)  # guaranteed t = 2
        statuses = [verify_tolerance(P, T, t) is None for t in range(0, 6)]
        # once refuted, refuted forever after
        assert statuses == sorted(statuses, reverse=True)
        assert statuses[2] is True

    def test_removal_monotonicity(self):
        rng = random.Random(17)
        P = integer_line(7)
        T = from_iterables([{1, 4, 6}, {2, 5, 7}, {3}])
        for _ in range(40):
            base = set(rng.sample(range(1, 8), rng.randint(1, 3)))
            if removal_separates(P, T, base):
                extra = set(rng.sample(range(1, 8), rng.randint(1, 3)))
                assert removal_separates(P, T, base | extra)

    def test_every_refutation_witness_reverifies(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(4, 8)
            values = rng.sample(range(-40, 40), n)
            P = line(*values)
            m = rng.randint(2, 3)
            assignment = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
            rng.shuffle(assignment)
            while len(set(assignment)) < m:
                assignment[rng.randrange(n)] = rng.randrange(m)
            parts = [[] for _ in range(m)]
            for p, b in zip(P.points, assignment):
                parts[b].append(p.id)
            T = from_iterables(parts)
            t = rng.randint(0, 3)
            removal = verify_tolerance(P, T, t)
            if removal is not None:
                assert len(removal) <= t
                assert removal_separates(P, T, removal)


class TestExactTolerance:
    def test_single_part(self):
        P = integer_line(6)
        T = from_iterables([{1, 2, 3, 4, 5, 6}])
        assert exact_tolerance(P, T) == 5

    def test_alternating_four(self):
        assert exact_tolerance(FOUR, SPLIT) == 0

    def test_merged_pair_instance(self):
        P = integer_line(6)
        T = from_iterables([{2, 5}, {1, 3, 4, 6}])
        assert exact_tolerance(P, T) == 1

    def test_non_tverberg_partition(self):
        P = integer_line(4)
        T = from_iterables([{1, 2}, {3, 4}])
        assert exact_tolerance(P, T) == -1

    def test_smallest_part_level_is_not_charged(self):
        # a one-point part at the centroid of 20 points in 3-D: level 0
        # is judged (one LP) and tolerant, and level 1, which deletes the
        # part, refutes unjudged and uncharged
        P = random_point_set(20, 3, seed=0)
        centroid = tuple(sum((p.coords[k] for p in P.points), Fraction(0)) / len(P)
                         for k in range(3))
        Q = PointSet(3, (*P.points, pt(99, *centroid)))
        assert exact_tolerance(Q, from_iterables([{99}, P.ids()]), budget=1) == 0

    def test_agrees_with_interval_oracle(self):
        rng = random.Random(2718)
        for _ in range(30):
            n = rng.randint(4, 9)
            values = rng.sample(range(-60, 60), n)
            P = line(*values)
            m = rng.randint(2, 3)
            assignment = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
            rng.shuffle(assignment)
            while len(set(assignment)) < m:
                assignment[rng.randrange(n)] = rng.randrange(m)
            parts_ids = [[] for _ in range(m)]
            parts_vals = [[] for _ in range(m)]
            for p, v, b in zip(P.points, values, assignment):
                parts_ids[b].append(p.id)
                parts_vals[b].append(v)
            T = from_iterables(parts_ids)
            got = exact_tolerance(P, T)
            expect = -1
            for t in range(0, n + 1):
                if oracles.tolerant_1d(parts_vals, t):
                    expect = t
                else:
                    break
            assert got == expect


class TestTukeyDepth:
    def test_median_of_five(self):
        assert tukey_depth(query(3), integer_line(5)) == 3

    def test_outside_hull(self):
        assert tukey_depth(query(0), integer_line(5)) == 0

    def test_triangle_centroid(self):
        tri = from_coords([[0, 0], [3, 0], [0, 3]])
        assert tukey_depth(query(1, 1), tri) == 1

    def test_query_of_another_dimension_rejected(self):
        with pytest.raises(TverbergError, match="^dimension: query has dim 2, point set has 1$"):
            tukey_depth(query(0, 0), integer_line(3))

    def test_budget_is_a_total_over_sizes(self):
        # the cube's center has depth 4: sizes 0..4 enumerate
        # sum C(8, r) = 163 removal sets
        cube = from_coords([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        assert tukey_depth(query(0, 0, 0), cube, budget=163) == 4
        with pytest.raises(TverbergError, match="instance too large"):
            tukey_depth(query(0, 0, 0), cube, budget=162)
        # n copies of c: depth n, and size n itself, never judged, is not
        # charged: sizes 0..n-1 take 2^n - 1 removal sets
        P = from_coords([[7, 7, 7]] * 5)
        assert tukey_depth(query(7, 7, 7), P, budget=2**5 - 1) == 5
        with pytest.raises(TverbergError, match="instance too large"):
            tukey_depth(query(7, 7, 7), P, budget=2**5 - 2)

    def test_negative_budget_refused_before_any_other_work(self):
        # each call is also malformed otherwise: the budget is checked first
        with pytest.raises(TverbergError, match=r"^invalid budget: -1$"):
            verify_tolerance(FOUR, SPLIT, -1, budget=-1)
        with pytest.raises(TverbergError, match=r"^invalid budget: -1$"):
            exact_tolerance(FOUR, from_iterables([{1, 2}]), budget=-1)
        for c in (query(0), query(1, 1), query(0, 0, 0, 0)):
            with pytest.raises(TverbergError, match=r"^invalid budget: -5$"):
                tukey_depth(c, integer_line(3), budget=-5)

    def test_line_and_plane_charge_no_budget(self):
        assert tukey_depth(query(6), integer_line(11), budget=0) == 6
        square = from_coords([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]])
        assert tukey_depth(query(1, 1), square, budget=0) == 3

    def test_line_and_plane_solve_no_lp(self, monkeypatch):
        solved = []
        solve = lp.lp_feasible
        monkeypatch.setattr(lp, "lp_feasible", lambda *args: solved.append(1) or solve(*args))
        assert tukey_depth(query(3), integer_line(5)) == 3
        P = random_point_set(12, 2, seed=0)
        for c in [query(0, 0), query("1/2", "-1/3"), P.points[0]._replace(id=0)]:
            tukey_depth(c, P)
        # every point at c: no direction to sweep, and the depth is n
        assert tukey_depth(query("1/2", 3), from_coords([["1/2", 3]] * 4)) == 4
        assert solved == []
        assert tukey_depth(query(0, 0, 0), from_coords([[1, 0, 0], [-1, 0, 0]])) == 1
        assert solved  # the 3-D ascent does solve LPs

    def test_antipodal_pairs_closed_form(self):
        # k pairs c +- v_i in distinct directions: every closed half-plane
        # through c keeps one of each pair, and a generic one no more
        k = 1000
        c = (Fraction(1, 3), Fraction(-2, 5))
        coords = [(c[0] + s, c[1] + s * i) for i in range(k) for s in (1, -1)]
        assert tukey_depth(query(*c), from_coords(coords)) == k
        # k more points at c lie in every such half-plane
        assert tukey_depth(query(*c), from_coords(coords + [c] * k)) == 2 * k

    def test_matches_closed_form_on_random_lines(self):
        rng = random.Random(31415)
        for _ in range(150):
            n = rng.randint(1, 7)
            values = [rng.randint(-10, 10) for _ in range(n)]  # duplicates allowed
            P = line(*values)
            c = rng.randint(-12, 12)
            assert tukey_depth(query(c), P) == oracles.halfspace_depth_1d(c, values)

    def test_large_denominators_2d(self):
        # each v = p - c is scaled by its own denominators, not by one lcm
        rng = random.Random(60)
        c = (Fraction(1, 3), Fraction(-2, 7))
        coords = list(zip(big_denominators(rng, 60), big_denominators(rng, 60)))
        coords += coords[:3] + [c] * 2  # duplicates, and points at c
        assert tukey_depth(query(*c), from_coords(coords)) == oracles.halfspace_depth_2d(c, coords)

    def test_matches_halfspace_oracle_2d(self):
        rng = random.Random(27)
        for _ in range(8):
            n = rng.randint(3, 6)
            coords = set()
            while len(coords) < n:
                coords.add((rng.randint(0, 8), rng.randint(0, 8)))
            coords = sorted(coords)
            P = from_coords(coords)
            for c in coords + [(4, 4), (20, 20)]:
                got = tukey_depth(query(*c), P)
                assert got == oracles.halfspace_depth_2d(c, coords)


@st.composite
def line_and_plane_depth_instances(draw):
    """A query point and 1..9 points in the line or the plane, on a
    half-integer grid with negative values: duplicates are common, a
    collinear run is added on request, and the query is an input point,
    a point of a wider grid (often outside the hull), or the only
    location of every point."""
    dim = draw(st.sampled_from([1, 2]))
    coord = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
    coords = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=6))
    if draw(st.booleans()):
        base = draw(st.lists(coord, min_size=dim, max_size=dim))
        step = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        coords += [[b + j * s for b, s in zip(base, step)] for j in range(draw(st.integers(2, 3)))]
    kind = draw(st.sampled_from(["input", "free", "all at c"]))
    if kind == "input":
        c = draw(st.sampled_from(coords))
    else:
        c = draw(st.lists(st.integers(-12, 12).map(lambda k: Fraction(k, 3)),
                          min_size=dim, max_size=dim))
        if kind == "all at c":
            coords = [c] * len(coords)
    return from_coords(coords), query(*c)


class TestLineAndPlaneSweep:
    """Depth in d <= 2 is counted directly; it must equal both the
    closed-form half-space count and the unpruned removal ascent."""

    @given(line_and_plane_depth_instances())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_halfspace_and_exhaustive_oracles(self, instance):
        P, c = instance
        coords = [p.coords for p in P.points]
        if P.dim == 1:
            expect = oracles.halfspace_depth_1d(c.coords[0], [x for x, in coords])
        else:
            expect = oracles.halfspace_depth_2d(c.coords, coords)
        assert tukey_depth(c, P) == expect
        assert oracles.tukey_depth_exhaustive(c, P) == expect
        assert tukey_depth(affine_image(c), affine_image(P)) == expect


def reaches_centerpoint_depth(c, point_set):
    """The CLI's centerpoint test: depth against ceil(n / (d+1))."""
    return tukey_depth(c, point_set) >= centerpoint_depth(len(point_set), point_set.dim)


class TestCenterpoint:
    def test_median_is_centerpoint(self):
        assert reaches_centerpoint_depth(query(3), integer_line(5))

    def test_extreme_point_is_not(self):
        assert not reaches_centerpoint_depth(query(1), integer_line(5))

    def test_single_point(self):
        P = line(42)
        assert reaches_centerpoint_depth(query(42), P)


class TestDepthRemovalEquivalence:
    """Depth t+1 is the same as surviving every removal of size <= t."""

    def test_exhaustive_small_lines(self):
        for n in range(1, 7):
            P = integer_line(n)
            pts = list(P.points)
            for c in [query(v) for v in (0, 1, (n + 1) // 2, n, n + 1)]:
                depth = tukey_depth(c, P)
                for t in range(0, n + 1):
                    survives = all(
                        hull_judge(c, [p for p in pts if p.id not in set(R)])(()) is not None
                        for r in range(0, t + 1)
                        for R in combinations(range(1, n + 1), r)
                    )
                    assert (depth >= t + 1) == survives


@st.composite
def small_instances(draw):
    """1-D or 2-D integer points on a 4-wide grid (ties and collinear
    triples are common), a partition of them into 1..3 parts, and a
    query point on a slightly wider grid."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 9))
    coords = draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    m = draw(st.integers(1, min(3, n)))
    labels = list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    labels = draw(st.permutations(labels))
    P = from_coords(coords)
    T = from_iterables(
        [[p.id for p, b in zip(P.points, labels) if b == j] for j in range(m)])
    c = query(*draw(st.lists(st.integers(-1, 4), min_size=dim, max_size=dim)))
    return P, T, c


@st.composite
def spatial_depth_instances(draw):
    """Up to 7 points in 3-D on a narrow grid, so ties and coplanar
    points are common, and a query that is an input point or a grid
    point (sometimes outside the hull)."""
    coord = st.integers(-2, 2)
    coords = draw(st.lists(st.lists(coord, min_size=3, max_size=3), min_size=1, max_size=7))
    if draw(st.booleans()):
        c = draw(st.sampled_from(coords))
    else:
        c = draw(st.lists(st.integers(-3, 3).map(lambda k: Fraction(k, 2)),
                          min_size=3, max_size=3))
    return from_coords(coords), query(*c)


@st.composite
def spatial_partitions(draw):
    """(P, T, t): 4..7 points in 3-D from ``spatial_inputs`` (general
    position, or a grid with duplicates and coplanar runs) in 2..3 parts,
    which often do not intersect, and a t."""
    P = draw(spatial_inputs(draw(st.integers(4, 7))))
    m = draw(st.integers(2, 3))
    labels = list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=len(P) - m, max_size=len(P) - m))
    labels = draw(st.permutations(labels))
    T = from_iterables(
        [[p.id for p, b in zip(P.points, labels) if b == j] for j in range(m)])
    return P, T, draw(st.integers(0, 3))


# One instance for each way ``_first_refutation`` ends.  Six points at
# one place: every level of all three verifiers is certified unwalked.
SIX = from_coords([[0, 0, 0]] * 6)
# Parts apart, c outside: in all three the empty union refutes, one LP.
APART = from_coords([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]])
# A duplicate: verify and depth walk to a refutation after a union
# refutes; exact_tolerance stops at the empty union.
TWIN = from_coords([[0, 0, 1], [1, 3, 1], [1, 3, 1], [1, 1, 1]])
# A coplanar run with a duplicate: verify walks and finds no refutation;
# exact_tolerance and depth walk to one.
FLAT = from_coords([[2, 0, 3], [2, 2, 2], [2, 1, 3], [2, 0, 1], [2, 0, 0], [2, 0, 1]])
HALVES = from_iterables([{1, 2, 3}, {4, 5, 6}])


class TestPrunedAgreesWithExhaustive:
    """Witness-support pruning and the disjoint-support certificate change
    how many LPs run, never an answer."""

    @given(small_instances(), st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_verify_tolerance(self, instance, t):
        P, T, _ = instance
        assert verify_tolerance(P, T, t) == oracles.verify_tolerance_exhaustive(P, T, t)

    @given(small_instances())
    @settings(max_examples=100, deadline=None)
    def test_exact_tolerance(self, instance):
        P, T, _ = instance
        assert exact_tolerance(P, T) == oracles.exact_tolerance_exhaustive(P, T)

    @given(small_instances())
    @settings(max_examples=100, deadline=None)
    def test_tukey_depth(self, instance):
        P, _, c = instance
        assert tukey_depth(c, P) == oracles.tukey_depth_exhaustive(c, P)

    @given(spatial_partitions())
    @example((SIX, HALVES, 2))
    @example((APART, HALVES, 0))
    @example((TWIN, from_iterables([{2, 3}, {1, 4}]), 1))
    @example((FLAT, from_iterables([{3, 4, 5}, {1, 2, 6}]), 1))
    @settings(max_examples=100, deadline=None)
    def test_verify_tolerance_3d(self, instance):
        P, T, t = instance
        assert verify_tolerance(P, T, t) == oracles.verify_tolerance_exhaustive(P, T, t)

    @given(spatial_partitions())
    @example((SIX, HALVES, 0))
    @example((APART, HALVES, 0))
    @example((TWIN, from_iterables([{2, 3}, {1, 4}]), 0))
    @example((FLAT, from_iterables([{3, 4, 5}, {1, 2, 6}]), 0))
    @settings(max_examples=60, deadline=None)
    def test_exact_tolerance_3d(self, instance):
        P, T, _ = instance
        assert exact_tolerance(P, T) == oracles.exact_tolerance_exhaustive(P, T)

    @given(spatial_depth_instances())
    @example((SIX, query(0, 0, 0)))
    @example((APART, query(9, 9, 9)))
    @example((TWIN, query(1, 2, 1)))
    @example((FLAT, query(2, 0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_tukey_depth_3d(self, instance):
        P, c = instance
        assert tukey_depth(c, P) == oracles.tukey_depth_exhaustive(c, P)


def list_judge(supports, judged):
    """A judge that answers the first of ``supports`` a removal misses, or
    None, and appends every removal it is asked to ``judged``."""
    def judge(removed):
        judged.append(frozenset(removed))
        return next((s for s in supports if s.isdisjoint(removed)), None)
    return judge


@st.composite
def support_lists(draw):
    """Ids 1..n, a list of supports over them (some pairwise disjoint
    runs, some overlapping), and one level or an ascent of levels."""
    n = draw(st.integers(1, 7))
    ids = list(range(1, n + 1))
    support = st.frozensets(st.sampled_from(ids), min_size=1, max_size=3)
    supports = draw(st.lists(support, max_size=6))
    if draw(st.booleans()):
        sizes = [draw(st.integers(0, n))]
    else:
        sizes = range(draw(st.integers(1, n + 1)))
    return ids, supports, sizes


class TestDisjointSupportCertificate:
    """``_first_refutation`` certifies a level of size s by s + 1 pairwise
    disjoint supports and otherwise walks as the plain walk does."""

    @pytest.mark.parametrize("s", range(5))
    def test_s_plus_1_disjoint_supports_end_the_walk(self, s):
        disjoint = [frozenset({2 * k + 1, 2 * k + 2}) for k in range(s + 1)]
        supports = [*disjoint, frozenset({1, 3, 5, 7, 9})]
        for sizes in ([s], range(s + 1)):
            judged = []
            assert verification._first_refutation(
                list(range(1, 13)), sizes, list_judge(supports, judged), 10**6) is None
            # each call judges the union of the family so far
            assert judged == [frozenset(range(1, 2 * k + 1)) for k in range(s + 1)]

    def test_a_level_0_refutation_is_one_judge_call(self):
        judged = []
        removal = verification._first_refutation([1, 2, 3], range(3), list_judge([], judged), 10)
        assert removal == frozenset() and judged == [frozenset()]

    def test_each_level_is_charged_before_any_judge(self):
        def judge(removed):
            pytest.fail("judged before the level was charged")

        with pytest.raises(TverbergError, match=r"^instance too large: C\(6,2\) .*, 14$"):
            verification._first_refutation(list(range(1, 7)), [2], judge, 14)
        # two disjoint supports cover levels 0 and 1; level 2 is still
        # charged, before the family's next union is judged
        judged = []
        supports = [frozenset({1}), frozenset({2}), frozenset({3})]
        with pytest.raises(TverbergError, match=r"^instance too large: C\(6,2\) .*, 14$"):
            verification._first_refutation(list(range(1, 7)), range(6),
                                           list_judge(supports, judged), 1 + 6 + 14)
        assert judged == [frozenset(), frozenset({1})]

    @given(support_lists(), st.integers(0, 200))
    @example(([1, 2, 3], [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})], [1]), 10**6)
    @example(([1, 2, 3], [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})], [2]), 10**6)
    @example(([1, 2, 3, 4], [frozenset({1}), frozenset({2}), frozenset({3, 4})], range(5)), 10**6)
    @example(([1, 2, 3, 4], [frozenset({1}), frozenset({2}), frozenset({3, 4})], range(5)), 10)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_plain_walk(self, instance, budget):
        ids, supports, sizes = instance

        def outcome(walk):
            judged = []
            try:
                return walk(list_judge(supports, judged)), judged
            except TverbergError as exc:
                return str(exc), judged

        got, judged = outcome(lambda judge: verification._first_refutation(ids, sizes, judge, budget))
        expected, _ = outcome(lambda judge: oracles.first_refutation_walk(ids, sizes, judge, budget))
        assert got == expected
        assert len(set(judged)) == len(judged)  # no removal is judged twice


@st.composite
def spatial_instances(draw):
    """Planar or 3-D points with integer and half-integer coordinates,
    partitioned into 2..3 parts; a narrow grid makes coincident points,
    and with them tolerant partitions, common."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 9 if dim == 2 else 8))
    spread = draw(st.integers(1, 6))
    coord = st.integers(-spread, spread).map(lambda k: Fraction(k, 2))
    coords = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    m = draw(st.integers(2, 3))
    labels = list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    labels = draw(st.permutations(labels))
    P = from_coords(coords)
    T = from_iterables(
        [[p.id for p, b in zip(P.points, labels) if b == j] for j in range(m)])
    return P, T


class TestVerdictsRecheck:
    """verify's verdicts re-checked outside the library's LP: every
    refutation on the reference Fraction engine, every tolerant verdict
    against the unpruned enumeration."""

    @given(spatial_instances(), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_verify_tolerance_at_t_and_t_plus_1(self, instance, t):
        P, T = instance
        by_id = P.by_id()
        for level in (t, t + 1):
            removed = verify_tolerance(P, T, level)
            if removed is None:
                assert oracles.verify_tolerance_exhaustive(P, T, level) is None
                continue
            assert len(removed) == min(level, len(P))
            sets = [[by_id[pid] for pid in sorted(part) if pid not in removed]
                    for part in T]
            assert not oracles.hulls_intersect_fraction(sets, P.dim)


@st.composite
def line_and_plane_partitions(draw):
    """2..4 parts in the line or 2 in the plane, over at most 8 points
    with distinct, non-contiguous ids; coordinates in halves, thirds and
    sevenths on a narrow grid (duplicates are common), and in the plane sometimes
    a collinear run or every point on one line."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, min(4, n))) if dim == 1 else 2
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 7]))
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
    if dim == 2 and draw(st.booleans()):
        (ax, ay), (ux, uy) = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=2))
        on_line = draw(st.integers(3, n)) if n > 3 else n
        for i in range(on_line):
            s = draw(st.integers(-3, 3))
            rows[i] = [ax + s * ux, ay + s * uy]
    ids = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    labels = list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    labels = draw(st.permutations(labels))
    P = PointSet(dim, tuple(pt(pid, *row) for pid, row in zip(ids, rows)))
    T = from_iterables([[pid for pid, b in zip(ids, labels) if b == j] for j in range(m)])
    return P, T


@st.composite
def single_parts(draw):
    """Up to 7 points in 1..4 dimensions on a narrow grid (duplicates are
    common), sometimes with a collinear or coplanar run, as one part."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    coord = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
    if dim >= 2 and draw(st.booleans()):
        base, *spans = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                     min_size=2, max_size=min(dim, 3)))
        for i in range(draw(st.integers(1, n))):
            steps = draw(st.lists(st.integers(-2, 2), min_size=len(spans), max_size=len(spans)))
            rows[i] = [x + sum(k * u[j] for k, u in zip(steps, spans)) for j, x in enumerate(base)]
    P = from_coords(rows)
    return P, (P.ids(),)


class TestSinglePart:
    """One part survives until all of it goes, in every dimension: it is
    counted with no removal set enumerated and no budget charged."""

    @given(single_parts())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_unpruned_enumeration(self, instance):
        P, T = instance
        n = len(P)
        assert exact_tolerance(P, T, budget=0) == oracles.exact_tolerance_exhaustive(P, T)
        for t in range(n + 2):
            got = verify_tolerance(P, T, t, budget=0 if t < n else 1)
            assert got == oracles.verify_tolerance_exhaustive(P, T, t)


class TestSeparatingLines:
    """In the line (any m) and the plane (m = 2) the fewest deletions
    that refute a partition are counted over separating lines, with no
    LP and no budget; exit-1 witnesses still come from the enumeration."""

    @given(line_and_plane_partitions())
    @example((from_coords([(0, 0), (0, 2), (0, 1), (0, 3)]), from_iterables([{1, 2}, {3, 4}])))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_unpruned_enumeration(self, instance):
        P, T = instance
        exact = exact_tolerance(P, T)
        assert exact == oracles.exact_tolerance_exhaustive(P, T)
        assert exact_tolerance(affine_image(P), T) == exact
        for t in range(max(exact - 1, 0), exact + 3):  # tolerant, then refuted
            assert verify_tolerance(P, T, t) == oracles.verify_tolerance_exhaustive(P, T, t)

    def test_tolerant_verdicts_solve_no_lp_and_charge_no_budget(self, monkeypatch):
        solved = []
        solve = lp.lp_feasible
        monkeypatch.setattr(lp, "lp_feasible", lambda *args: solved.append(1) or solve(*args))
        P = random_point_set(22, 2, seed=0)
        T = tolerant_tverberg_lifted(P, 2, 4)
        L = integer_line(11)
        S = tolerant_tverberg_1d(L, 3)
        assert exact_tolerance(L, S, budget=0) == 2
        assert verify_tolerance(L, S, 2, budget=0) is None
        exact = exact_tolerance(P, T, budget=0)
        assert exact >= 4
        assert verify_tolerance(P, T, exact, budget=0) is None
        # a single part survives until all of it goes
        assert exact_tolerance(L, from_iterables([L.ids()]), budget=0) == 10
        assert solved == []
        # a refutation is the enumeration's lexicographically first
        assert verify_tolerance(P, T, exact + 1) is not None
        assert solved

    def test_large_denominators(self):
        # each point is read in integers by its own denominators, so the
        # count's integers never carry all n distinct 300-digit denominators
        rng = random.Random(20)
        P = from_coords(list(zip(big_denominators(rng, 20), big_denominators(rng, 20))))
        T = tolerant_tverberg_lifted(P, 2, 0)
        assert exact_tolerance(P, T, budget=0) == 4
        assert verify_tolerance(P, T, 4, budget=0) is None


@st.composite
def line_partitions(draw):
    """2..8 parts of at most 30 points in the line, with distinct,
    non-contiguous ids; values in halves and thirds on a narrow grid, so
    ties within and across parts are common."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(m, 30))
    values = draw(st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                           min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n, unique=True))
    labels = draw(st.permutations(list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))))
    P = PointSet(1, tuple(pt(pid, v) for pid, v in zip(ids, values)))
    parts = [[v for v, b in zip(values, labels) if b == j] for j in range(m)]
    T = from_iterables([[pid for pid, b in zip(ids, labels) if b == j] for j in range(m)])
    return P, T, parts


class TestLineRule:
    """In the line the fewest refuting deletions come from one walk over
    every part's sorted values at once, for any number of parts."""

    @given(line_partitions())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_interval_oracle(self, instance):
        P, T, parts = instance
        expect = -1
        while oracles.tolerant_1d(parts, expect + 1):
            expect += 1
        assert exact_tolerance(P, T, budget=0) == expect
        if len(P) <= 9:
            assert expect == oracles.exact_tolerance_exhaustive(P, T)

    def test_many_parts(self):
        P = integer_line(4000)
        T = tolerant_tverberg_1d(P, 1333)
        assert exact_tolerance(P, T, budget=0) == max_tolerance_1d(4000, 1333) == 1

    def test_large_denominators(self):
        # the count compares values only, so 300-digit denominators cost
        # no more than the ranks they sort into
        P = line(*big_denominators(random.Random(5), 400))
        T = tolerant_tverberg_1d(P, 3)
        assert exact_tolerance(P, T, budget=0) == max_tolerance_1d(400, 3) == 131
