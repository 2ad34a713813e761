import random
from fractions import Fraction

import pytest

from tolerant_tverberg import (
    DimensionError,
    IndexedPartition,
    InvalidPartitionError,
    PointSet,
    TooFewPointsError,
    exact_tolerance,
    halve_and_pair,
    lex_key,
    lift_partition,
    random_point_set,
    tolerant_tverberg_1d,
    tolerant_tverberg_lifted,
    validate_partition,
    verify_tolerance,
)


def plane(*rows, start_id=1):
    return PointSet.from_coords(list(rows), start_id=start_id)


class TestHalveAndPair:
    def test_symmetric_vertical_pair(self):
        P = plane([0, -1], [0, 1])
        pp = halve_and_pair(P)
        assert pp.pairs == ((1, 2),)
        assert pp.halving_value == 0
        assert pp.dropped_ids == frozenset()
        assert pp.projected.points[0].coords == (Fraction(0),)

    def test_slanted_pair_crosses_at_midpoint(self):
        P = plane([0, -1], [2, 1])
        pp = halve_and_pair(P)
        assert pp.halving_value == 0
        assert pp.projected.points[0].coords == (Fraction(1),)

    def test_odd_size_drops_the_middle(self):
        P = plane([0, 0], [1, 1], [2, 2], [3, 3], [4, 4])
        pp = halve_and_pair(P)
        assert len(pp.pairs) == 2
        assert pp.dropped_ids == frozenset({3})
        assert pp.halving_value == 2

    def test_pairs_straddle_strictly_in_general_position(self):
        P = random_point_set(12, 2, grid=200, seed=5)
        pp = halve_and_pair(P)
        by_id = P.by_id()
        for lo, hi in pp.pairs:
            assert by_id[lo].coords[-1] < pp.halving_value < by_id[hi].coords[-1]

    def test_last_coordinate_ties_fall_back_to_symbolic_order(self):
        P = plane([0, 5], [1, 5], [2, 5], [3, 5])
        pp = halve_and_pair(P)
        assert len(pp.pairs) == 2
        by_id = P.by_id()
        for lo, hi in pp.pairs:
            assert lex_key(by_id[lo]) < lex_key(by_id[hi])
        # a whole segment inside the hyperplane projects to its midpoint
        for (lo, hi), q in zip(pp.pairs, pp.projected.points):
            mid = (by_id[lo].coords[0] + by_id[hi].coords[0]) / 2
            assert q.coords == (mid,)

    def test_projection_is_exact_and_reproducible(self):
        P = random_point_set(9, 3, grid=50, seed=8)
        pp1 = halve_and_pair(P)
        pp2 = halve_and_pair(P)
        assert pp1 == pp2
        by_id = P.by_id()
        for (lo_id, hi_id), q in zip(pp1.pairs, pp1.projected.points):
            lo, hi = by_id[lo_id], by_id[hi_id]
            lam = (pp1.halving_value - lo.coords[-1]) / (hi.coords[-1] - lo.coords[-1])
            expect = tuple(
                a + lam * (b - a) for a, b in zip(lo.coords[:-1], hi.coords[:-1])
            )
            assert q.coords == expect
            assert all(isinstance(c, Fraction) for c in q.coords)

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionError):
            halve_and_pair(PointSet.from_coords([[1], [2]]))


class TestLiftPartition:
    def test_direct_substitution(self):
        P = plane([0, -1], [1, -2], [0, 1], [1, 2])
        pp = halve_and_pair(P)
        T = IndexedPartition.from_iterables([{0}, {1}])
        lifted = lift_partition(pp, T)
        assert set(lifted.parts) == {
            frozenset(pp.pairs[0]),
            frozenset(pp.pairs[1]),
        }

    def test_single_part_collects_all_endpoints(self):
        P = plane([0, -1], [1, -2], [0, 1], [1, 2])
        pp = halve_and_pair(P)
        lifted = lift_partition(pp, IndexedPartition.from_iterables([{0, 1}]))
        assert lifted.parts == (frozenset({1, 2, 3, 4}),)

    def test_dropped_point_lands_in_second_part(self):
        P = plane([0, 0], [1, 1], [2, 2], [3, 3], [4, 4])
        pp = halve_and_pair(P)
        T = IndexedPartition.from_iterables([{0}, {1}])
        lifted = lift_partition(pp, T)
        assert 3 in lifted.parts[1]
        assert validate_partition(P, lifted)

    def test_invalid_projected_partition_rejected(self):
        P = plane([0, -1], [0, 1])
        pp = halve_and_pair(P)
        with pytest.raises(InvalidPartitionError):
            lift_partition(pp, IndexedPartition.from_iterables([{7}]))


class TestLiftedSolver:
    def test_one_dimensional_input_delegates(self):
        P = PointSet.from_coords([[v] for v in (3, 1, 4, 5, 9, 2, 6)])
        assert tolerant_tverberg_lifted(P, 2, 2) == tolerant_tverberg_1d(P, 2)

    def test_too_few_points(self):
        P = random_point_set(9, 2, seed=1)
        with pytest.raises(TooFewPointsError):
            tolerant_tverberg_lifted(P, 2, 1)  # needs 2 * 5 = 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plane_two_parts_one_tolerant(self, seed):
        P = random_point_set(10, 2, grid=400, seed=seed)
        T = tolerant_tverberg_lifted(P, 2, 1)
        assert validate_partition(P, T)
        assert verify_tolerance(P, T, 1) is None

    def test_plane_three_parts_two_tolerant(self):
        P = random_point_set(22, 2, grid=400, seed=12)
        T = tolerant_tverberg_lifted(P, 3, 2)
        assert validate_partition(P, T)
        assert verify_tolerance(P, T, 2) is None

    def test_three_dimensions(self):
        P = random_point_set(12, 3, grid=300, seed=4)  # 2^2 * 3 points
        T = tolerant_tverberg_lifted(P, 2, 0)
        assert validate_partition(P, T)
        assert verify_tolerance(P, T, 0) is None

    def test_point_conservation(self):
        P = random_point_set(13, 2, grid=300, seed=6)  # odd: one drop absorbed
        T = tolerant_tverberg_lifted(P, 2, 1)
        assert frozenset().union(*T.parts) == P.ids()
        assert validate_partition(P, T)

    def test_lift_preserves_projected_tolerance(self):
        rng = random.Random(44)
        for seed in range(3):
            P = random_point_set(rng.choice([8, 9, 10]), 2, grid=150, seed=seed + 50)
            pp = halve_and_pair(P)
            sub = tolerant_tverberg_1d(pp.projected, 2)
            lifted = lift_partition(pp, sub)
            t_env = exact_tolerance(pp.projected, sub)
            t_lift = exact_tolerance(P, lifted)
            assert t_lift >= t_env
