import random
from itertools import combinations

import pytest

import oracles
from helpers import all_m_partitions, from_coords, from_iterables, integer_line, line
from tolerant_tverberg import (
    Point,
    PointSet,
    TverbergError,
    check_partition,
    max_tolerance_1d,
    to_scalar,
    tolerant_tverberg_1d,
    verify_tolerance,
)
from tolerant_tverberg.solvers import restricted_growth_strings


class TestMaxTolerance:
    def test_eleven_points_three_parts(self):
        assert max_tolerance_1d(11, 3) == 2

    def test_radon_case(self):
        assert max_tolerance_1d(3, 2) == 0

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_below_threshold_impossible(self, m):
        assert max_tolerance_1d(2 * m - 2, m) is None

    def test_formula_against_inequality(self):
        # largest t with m(t+2) - 1 <= n, by direct search
        for n in range(1, 40):
            for m in range(1, 10):
                best = None
                for t in range(0, n + 2):
                    if m * (t + 2) - 1 <= n:
                        best = t
                assert max_tolerance_1d(n, m) == best


class TestConstruction:
    def test_eleven_point_instance(self):
        P = integer_line(11)
        res = tolerant_tverberg_1d(P, 3)
        assert max_tolerance_1d(11, 3) == 2
        assert sorted(res[0]) == [3, 6, 9]
        # every other part takes one point from each gap
        for part in res[1:]:
            for gap in ({1, 2}, {4, 5}, {7, 8}, {10, 11}):
                assert len(part & gap) == 1
        assert verify_tolerance(P, res, 2) is None

    def test_radon_partition(self):
        P = integer_line(3)
        res = tolerant_tverberg_1d(P, 2)
        assert sorted(res[0]) == [2]
        assert sorted(res[1]) == [1, 3]
        assert max_tolerance_1d(3, 2) == 0

    def test_single_part_takes_everything(self):
        P = integer_line(5)
        res = tolerant_tverberg_1d(P, 1)
        assert res == (frozenset({1, 2, 3, 4, 5}),)
        # a lone part survives until all its points are gone
        assert max_tolerance_1d(5, 1) == 4
        assert verify_tolerance(P, res, 4) is None
        assert verify_tolerance(P, res, 5) is not None

    def test_part0_ranks_are_multiples_of_m(self):
        """The partition is the rank rule: core rank r goes to part r mod m,
        and the surplus ranks are dealt to parts 1..m-1 in order.  Ranks
        come from sorting by coordinate with ties broken by id, and ids
        are shuffled so that id order is not input order."""
        rng = random.Random(11)
        draws = [
            lambda n: rng.sample(range(-500, 500), n),  # distinct
            lambda n: [rng.randint(0, 3) for _ in range(n)],  # heavy ties
            lambda n: [f"{rng.randint(-20, 20)}/{rng.randint(1, 6)}" for _ in range(n)],
        ]
        for m in range(1, 8):
            for t in range(3):
                core = m * (t + 2) - 1
                for n in range(core, core + m):  # every surplus that keeps t
                    for draw in draws:
                        ids = rng.sample(range(1, 10 * n + 1), n)
                        P = PointSet(1, tuple(
                            Point(pid, (to_scalar(v),)) for pid, v in zip(ids, draw(n))
                        ))
                        res = tolerant_tverberg_1d(P, m)
                        assert max_tolerance_1d(n, m) == t
                        ordered = sorted(P.points, key=lambda p: (p.coords[0], p.id))
                        rank_of = {p.id: r for r, p in enumerate(ordered, start=1)}
                        ranks = [sorted(rank_of[pid] for pid in part)
                                 for part in res]
                        assert ranks[0] == [m * (i + 1) for i in range(t + 1)]
                        for j in range(1, m):
                            assert ranks[j] == (
                                [k * m + j for k in range(t + 2)]
                                + list(range(core + j, n + 1, m - 1))
                            )

    def test_surplus_never_touches_part0(self):
        P = integer_line(13)  # core is 11 points, two surplus
        res = tolerant_tverberg_1d(P, 3)
        assert max_tolerance_1d(13, 3) == 2
        assert sorted(res[0]) == [3, 6, 9]
        assert 12 in res[1]
        assert 13 in res[2]
        assert verify_tolerance(P, res, 2) is None

    def test_errors(self):
        with pytest.raises(TverbergError, match="too few points"):
            tolerant_tverberg_1d(integer_line(4), 3)
        with pytest.raises(TverbergError, match="too few points: n=0, m=2"):
            tolerant_tverberg_1d(PointSet(1, ()), 2)
        with pytest.raises(TverbergError, match="dimension"):
            tolerant_tverberg_1d(from_coords([[0, 0], [1, 1], [2, 0]]), 2)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_is_refused(self, m):
        message = f"m must be at least 1, got m={m}"
        with pytest.raises(TverbergError) as excinfo:
            tolerant_tverberg_1d(integer_line(4), m)
        assert str(excinfo.value) == message
        with pytest.raises(TverbergError) as excinfo:
            max_tolerance_1d(4, m)
        assert str(excinfo.value) == message

    def test_duplicate_coordinates_are_fine(self):
        P = line(5, 5, 5, 5, 5, 1, 2)  # ids break the ties
        res = tolerant_tverberg_1d(P, 2)
        check_partition(res, P.ids())
        assert verify_tolerance(P, res, max_tolerance_1d(7, 2)) is None


class TestToleranceSoundness:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_exact_size_random_rational_sets(self, m, t):
        rng = random.Random(1000 * m + t)
        n = m * (t + 2) - 1
        for trial in range(4):
            coords = rng.sample(range(-300, 300), n)
            dens = [rng.randint(1, 7) for _ in range(n)]
            P = line(*(f"{c}/{d}" for c, d in zip(coords, dens)))
            res = tolerant_tverberg_1d(P, m)
            assert max_tolerance_1d(n, m) == t
            check_partition(res, P.ids())
            assert verify_tolerance(P, res, t) is None

    @pytest.mark.parametrize("m,n", [(2, 6), (2, 9), (3, 12), (3, 13)])
    def test_surplus_sizes_still_verify(self, m, n):
        rng = random.Random(n * 31 + m)
        values = rng.sample(range(-99, 99), n)
        P = line(*values)
        res = tolerant_tverberg_1d(P, m)
        check_partition(res, P.ids())
        assert verify_tolerance(P, res, max_tolerance_1d(n, m)) is None

    def test_monotone_under_augmentation(self):
        P = integer_line(7)
        res = tolerant_tverberg_1d(P, 2)  # t = 2
        bigger = line(*range(1, 8), 100)
        for j in range(2):
            parts = [set(part) for part in res]
            parts[j].add(8)  # id of the appended coordinate 100
            grown = from_iterables(parts)
            assert verify_tolerance(bigger, grown, 2) is None


class TestTightnessAndSizes:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("t", [1, 2])
    def test_no_tolerant_partition_below_bound(self, m, t):
        values = list(range(1, m * (t + 2) - 1))  # one point short
        hits = sum(
            1 for parts in all_m_partitions(values, m) if oracles.tolerant_1d(parts, t)
        )
        assert hits == 0

    @pytest.mark.parametrize("m,t,n", [(2, 1, 5), (2, 1, 7), (3, 1, 8), (2, 2, 8)])
    def test_found_tolerant_partitions_obey_size_lemma(self, m, t, n):
        values = list(range(1, n + 1))
        found = 0
        for parts in all_m_partitions(values, m):
            if not oracles.tolerant_1d(parts, t):
                continue
            found += 1
            assert all(len(p) >= t + 1 for p in parts)
            for a, b in combinations(parts, 2):
                assert len(a) + len(b) >= 2 * t + 3
        assert found > 0  # the lemma check must actually see witnesses


class TestFastOracle:
    """The O(m^2 t) separation oracle is itself double-checked here."""

    def test_matches_naive_enumeration(self):
        rng = random.Random(5150)
        for _ in range(300):
            n = rng.randint(3, 9)
            m = rng.randint(2, min(4, n))
            t = rng.randint(0, 3)
            values = rng.sample(range(-30, 30), n)
            rgs = [0] * m + [rng.randrange(m) for _ in range(n - m)]
            rng.shuffle(rgs)
            rgs[: m] = range(m)  # force all parts nonempty
            parts = [[] for _ in range(m)]
            for v, b in zip(values, rgs):
                parts[b].append(v)
            if t > n:
                continue
            assert oracles.separable_1d(parts, t) == oracles.separable_1d_naive(
                values, parts, t
            )

    def test_matches_lp_verifier(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(4, 8)
            m = rng.randint(2, 3)
            t = rng.randint(0, 2)
            values = rng.sample(range(-50, 50), n)
            P = line(*values)
            ids = [p.id for p in P.points]
            assignment = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
            rng.shuffle(assignment)
            while len(set(assignment)) < m:
                assignment[rng.randrange(n)] = rng.randrange(m)
            parts_ids = [[] for _ in range(m)]
            parts_vals = [[] for _ in range(m)]
            for pid, v, b in zip(ids, values, assignment):
                parts_ids[b].append(pid)
                parts_vals[b].append(v)
            T = from_iterables(parts_ids)
            tolerant = verify_tolerance(P, T, t) is None
            assert tolerant == oracles.tolerant_1d(parts_vals, t)

    def test_rgs_counts_match_stirling(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                count = sum(1 for _ in restricted_growth_strings(n, k))
                assert count == oracles.stirling2(n, k)
