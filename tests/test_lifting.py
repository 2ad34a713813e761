import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import from_coords, spatial_inputs
from oracles import cross_section_fraction
from tolerant_tverberg import (
    TverbergError,
    check_partition,
    exact_tolerance,
    halve_and_pair,
    lex_key,
    random_point_set,
    tolerant_tverberg_1d,
    tolerant_tverberg_lifted,
    verify_tolerance,
)


def plane(*rows, start_id=1):
    return from_coords(list(rows), start_id=start_id)


def halves_gap(P, pairs):
    """The highest last coordinate among lower endpoints and the lowest
    among upper ones."""
    by_id = P.by_id()
    return (max(by_id[lo].coords[-1] for lo, _ in pairs),
            min(by_id[hi].coords[-1] for _, hi in pairs))


def halving_level(P, pairs, dropped):
    """The halving hyperplane's level, recomputed: the odd middle point's
    last coordinate, else the midpoint of the gap between the halves."""
    if dropped is not None:
        return P.by_id()[dropped].coords[-1]
    return Fraction(sum(halves_gap(P, pairs)), 2)


@st.composite
def sliced_sets(draw):
    """d = 2..4 and 2..12 points with fractional and negative coordinates;
    last coordinates are often tied, so segments lying in the halving
    hyperplane (span 0) occur."""
    d = draw(st.integers(2, 4))
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    last = st.sampled_from([Fraction(-3, 2), Fraction(0), Fraction(1, 3)]) | coord
    row = st.tuples(*[coord] * (d - 1), last).map(list)
    return from_coords(draw(st.lists(row, min_size=2, max_size=12)))


class TestHalveAndPair:
    def test_symmetric_vertical_pair(self):
        P = plane([0, -1], [0, 1])
        projected, pairs, dropped = halve_and_pair(P)
        assert pairs == ((1, 2),)
        assert dropped is None
        assert halving_level(P, pairs, dropped) == 0
        assert projected.points[0].coords == (Fraction(0),)
        assert projected.points[0].id == 0

    def test_slanted_pair_crosses_at_midpoint(self):
        P = plane([0, -1], [2, 1])
        projected, pairs, dropped = halve_and_pair(P)
        assert halving_level(P, pairs, dropped) == 0
        assert projected.points[0].coords == (Fraction(1),)

    def test_odd_size_drops_the_middle(self):
        P = plane([0, 0], [1, 1], [2, 2], [3, 3], [4, 4])
        projected, pairs, dropped = halve_and_pair(P)
        assert len(pairs) == len(projected) == 2
        assert dropped == 3
        top, bottom = halves_gap(P, pairs)
        assert top < 2 < bottom
        assert 3 not in {pid for pair in pairs for pid in pair}

    def test_pairs_straddle_strictly_in_general_position(self):
        P = random_point_set(12, 2, grid=200, seed=5)
        _, pairs, dropped = halve_and_pair(P)
        assert dropped is None
        top, bottom = halves_gap(P, pairs)
        assert top < bottom

    def test_last_coordinate_ties_fall_back_to_symbolic_order(self):
        P = plane([0, 5], [1, 5], [2, 5], [3, 5])
        projected, pairs, _ = halve_and_pair(P)
        assert len(pairs) == 2
        top, bottom = halves_gap(P, pairs)
        assert top <= bottom
        by_id = P.by_id()
        for lo, hi in pairs:
            assert lex_key(by_id[lo]) < lex_key(by_id[hi])
        # a whole segment inside the hyperplane projects to its midpoint
        for (lo, hi), q in zip(pairs, projected.points):
            mid = Fraction(by_id[lo].coords[0] + by_id[hi].coords[0], 2)
            assert q.coords == (mid,)

    def test_projection_is_exact_and_reproducible(self):
        for n in (9, 10):  # the level is a point's coordinate, then a midpoint
            P = random_point_set(n, 3, grid=50, seed=8)
            result = halve_and_pair(P)
            assert result == halve_and_pair(P)
            projected, pairs, dropped = result
            top, bottom = halves_gap(P, pairs)
            assert top < bottom
            level = halving_level(P, pairs, dropped)
            by_id = P.by_id()
            for i, ((lo_id, hi_id), q) in enumerate(zip(pairs, projected.points)):
                lo, hi = by_id[lo_id], by_id[hi_id]
                lam = Fraction(level - lo.coords[-1]) / (hi.coords[-1] - lo.coords[-1])
                expect = tuple(
                    a + lam * (b - a) for a, b in zip(lo.coords[:-1], hi.coords[:-1])
                )
                assert q.id == i
                assert q.coords == expect
                assert all(isinstance(c, Fraction) for c in q.coords)

    @settings(max_examples=200, deadline=None)
    @given(sliced_sets())
    @example(plane([1, 2], [-1, 2], ["1/2", 2], [3, 2]))  # span 0 in every pair
    def test_projection_matches_fraction_formula(self, P):
        projected, pairs, dropped = halve_and_pair(P)
        level = halving_level(P, pairs, dropped)
        by_id = P.by_id()
        assert [q.coords for q in projected.points] == [
            cross_section_fraction(by_id[lo], by_id[hi], level) for lo, hi in pairs
        ]

    def test_dimension_one_rejected(self):
        with pytest.raises(TverbergError, match="dimension"):
            halve_and_pair(from_coords([[1], [2]]))

    def test_one_point_rejected(self):
        with pytest.raises(TverbergError, match="^too few points: need 2, got 1$"):
            halve_and_pair(from_coords([[1, 2]]))


class TestLiftPartition:
    """Substitution back through the pairs, seen from the lifted solver."""

    def test_direct_substitution(self):
        P = plane([0, -1], [1, -2], [2, -3], [0, 1], [1, 2], [2, 3])
        projected, pairs, _ = halve_and_pair(P)
        expect = tuple(
            frozenset(pid for q in part for pid in pairs[q])
            for part in tolerant_tverberg_1d(projected, 2)
        )
        assert tolerant_tverberg_lifted(P, 2, 0) == expect

    def test_single_part_collects_all_endpoints(self):
        for n in (4, 5):  # the odd middle point joins part 0 when m = 1
            P = random_point_set(n, 2, grid=100, seed=n)
            assert tolerant_tverberg_lifted(P, 1, 0) == (P.ids(),)

    def test_dropped_point_lands_in_second_part(self):
        P = plane(*([i, i] for i in range(7)))
        _, _, dropped = halve_and_pair(P)
        assert dropped == 4
        T = tolerant_tverberg_lifted(P, 2, 0)
        assert dropped in T[1]
        check_partition(T, P.ids())


class TestLiftedSolver:
    def test_one_dimensional_input_delegates(self):
        P = from_coords([[v] for v in (3, 1, 4, 5, 9, 2, 6)])
        assert tolerant_tverberg_lifted(P, 2, 2) == tolerant_tverberg_1d(P, 2)

    def test_too_few_points(self):
        P = random_point_set(9, 2, seed=1)
        with pytest.raises(TverbergError, match="too few points"):
            tolerant_tverberg_lifted(P, 2, 1)  # needs 2 * 5 = 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plane_two_parts_one_tolerant(self, seed):
        P = random_point_set(10, 2, grid=400, seed=seed)
        T = tolerant_tverberg_lifted(P, 2, 1)
        check_partition(T, P.ids())
        assert verify_tolerance(P, T, 1) is None

    def test_plane_three_parts_two_tolerant(self):
        P = random_point_set(22, 2, grid=400, seed=12)
        T = tolerant_tverberg_lifted(P, 3, 2)
        check_partition(T, P.ids())
        assert verify_tolerance(P, T, 2) is None

    def test_three_dimensions(self):
        P = random_point_set(12, 3, grid=300, seed=4)  # 2^2 * 3 points
        T = tolerant_tverberg_lifted(P, 2, 0)
        check_partition(T, P.ids())
        assert verify_tolerance(P, T, 0) is None

    def test_point_conservation(self):
        P = random_point_set(13, 2, grid=300, seed=6)  # odd: one drop absorbed
        T = tolerant_tverberg_lifted(P, 2, 1)
        assert frozenset().union(*T) == P.ids()
        check_partition(T, P.ids())

    def test_lift_preserves_projected_tolerance(self):
        rng = random.Random(44)
        for seed in range(3):
            P = random_point_set(rng.choice([8, 9, 10]), 2, grid=150, seed=seed + 50)
            projected, _, _ = halve_and_pair(P)
            t_projected = exact_tolerance(projected, tolerant_tverberg_1d(projected, 2))
            t_lift = exact_tolerance(P, tolerant_tverberg_lifted(P, 2, 0))
            assert t_lift >= t_projected


@st.composite
def degenerate_instances(draw):
    """d in {2, 3}, m and t up to 3 and 2 with 2^(d-1)(m(t+2)-1) <= 24,
    up to 3 surplus points, coordinates on a half-integer grid of radius
    at most 3: ties, duplicate points and odd halves at several levels
    all occur."""
    d = draw(st.sampled_from([2, 3]))
    m, t = draw(
        st.sampled_from(
            [(m, t) for m in (1, 2, 3) for t in (0, 1, 2)
             if 2 ** (d - 1) * (m * (t + 2) - 1) <= 24]
        )
    )
    n = 2 ** (d - 1) * (m * (t + 2) - 1) + draw(st.integers(0, 3))
    radius = draw(st.integers(1, 6))
    coord = st.integers(-radius, radius).map(lambda k: Fraction(k, 2))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    return from_coords(rows), m, t


@settings(max_examples=150, deadline=None)
@given(degenerate_instances())
def test_lifted_partition_is_tolerant_on_degenerate_inputs(instance):
    P, m, t = instance
    T = tolerant_tverberg_lifted(P, m, t)
    check_partition(T, P.ids())
    assert verify_tolerance(P, T, t) is None


@st.composite
def lifted_spatial_instances(draw):
    """A 3-D target, m = 2 with t <= 3 or m = 3 with t <= 2, and
    4(m(t+2) - 1) points for it plus up to 3 surplus."""
    m, t = draw(st.sampled_from([(2, t) for t in range(4)] + [(3, t) for t in range(3)]))
    n = 4 * (m * (t + 2) - 1) + draw(st.integers(0, 3))
    return draw(spatial_inputs(n)), m, t


@settings(max_examples=100, deadline=None)
@given(lifted_spatial_instances())
@example((random_point_set(44, 3, seed=0), 2, 4))
def test_lifted_spatial_partition_reaches_its_t(instance):
    # degenerate_instances stops at 24 points, so at t = 1 in 3-D
    P, m, t = instance
    assert verify_tolerance(P, tolerant_tverberg_lifted(P, m, t), t) is None


@st.composite
def lifted_planar_pairs(draw):
    """A planar 2-partition target t <= 8 and 4t + 6 points for it, up to
    38: seeded general position, or a half-integer grid of radius at most
    4 with ties, duplicate points and collinear runs."""
    t = draw(st.integers(0, 8))
    n = 2 * (2 * (t + 2) - 1)
    if draw(st.booleans()):
        return random_point_set(n, 2, seed=draw(st.integers(0, 10**6))), t
    radius = draw(st.integers(1, 8))
    coord = st.integers(-radius, radius).map(lambda k: Fraction(k, 2))
    rows = draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=n, max_size=n))
    return from_coords(rows), t


@settings(max_examples=60, deadline=None)
@given(lifted_planar_pairs())
def test_lifted_planar_pairs_reach_their_t(instance):
    # exact planar 2-partition tolerance counts separating lines, so the
    # paper's guarantee is checked up to t = 8, where enumeration took minutes
    P, t = instance
    assert exact_tolerance(P, tolerant_tverberg_lifted(P, 2, t)) >= t
