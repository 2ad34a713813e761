import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import from_coords, line
from oracles import brute_force_tverberg_exhaustive, check_solver_output
from tolerant_tverberg import (
    BRUTE_FORCE_CAP,
    PointSet,
    TverbergError,
    brute_force_tverberg,
    get_solver,
    intersection_judge,
    random_point_set,
    solvers,
    tolerant_tverberg_1d,
)


class TestBruteForce:
    def test_radon_on_the_line(self):
        P = line(1, 2, 3)
        T = brute_force_tverberg(P, 2)
        assert T is not None
        assert set(T) == {frozenset({1, 3}), frozenset({2})}

    def test_convex_quadrilateral_crosses_diagonals(self):
        P = from_coords([[0, 0], [2, 0], [2, 2], [0, 2]])
        T = brute_force_tverberg(P, 2)
        assert set(T) == {frozenset({1, 3}), frozenset({2, 4})}
        assert check_solver_output(P, T)

    def test_more_parts_than_points(self):
        assert brute_force_tverberg(line(1, 2), 3) is None

    def test_cap_enforced(self):
        assert BRUTE_FORCE_CAP == 12
        assert brute_force_tverberg(line(*range(12)), 2) is not None
        with pytest.raises(TverbergError) as excinfo:
            brute_force_tverberg(line(*range(13)), 2)
        assert str(excinfo.value) == "instance too large for brute force: 13 > cap 12"

    def test_is_deterministic_canonical_first(self):
        P = line(4, 8, 15, 16, 23)
        assert brute_force_tverberg(P, 2) == brute_force_tverberg(P, 2)

    @pytest.mark.parametrize("dim,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_never_none_at_tverberg_bound(self, dim, m):
        n = (dim + 1) * (m - 1) + 1
        for seed in range(4):
            P = random_point_set(n, dim, grid=60, seed=seed)
            T = brute_force_tverberg(P, m)
            assert T is not None
            assert check_solver_output(P, T)


def count_lps(monkeypatch, module):
    """Record every ``intersection_judge`` built through ``module``: each
    judge there is called once, cold, so one build is one LP."""
    calls = []
    build = module.intersection_judge
    monkeypatch.setattr(module, "intersection_judge",
                        lambda sets, dim: calls.append(1) or build(sets, dim))
    return calls


@st.composite
def brute_instances(draw):
    """Up to 8 points in d = 1..3 on a narrow half-integer grid, so ties,
    coincident points and more parts than points all occur."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    spread = draw(st.integers(1, 3))
    coord = st.integers(-spread, spread).map(lambda k: Fraction(k, 2))
    coords = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    return from_coords(coords), draw(st.integers(1, 4))


# Segment 1-2 on the x axis; point 3 lies on it, point 4 above it.  The
# first Tverberg partition {1, 2, 4} | {3} meets only at y = 0, where the
# triangle's lowest y equals the point's: equal box ends are not skipped.
TOUCHING = from_coords([[0, 0], [2, 0], [1, 0], [1, 1]])
# Degenerate directions: a run on one line with a repeated point, whose
# normals are zero or repeat one order; four points in the plane z = 0,
# refuted along the axes alone; and coordinates with two denominators,
# scaled to ints before the normals are taken.
COLLINEAR_RUN = from_coords([[0, 0], [1, 1], [2, 2], [3, 3], [2, 0], [0, 3], [1, 1]])
COPLANAR_QUADRUPLE = from_coords(
    [[0, 0, 0], [2, 0, 0], [0, 2, 0], [1, 1, 0], [1, 0, 1], [0, 1, -1]])
THIRDS_AND_SEVENTHS = from_coords(
    [["1/3", "2/7"], ["-2/3", "1/7"], ["4/7", "-1/3"], ["0", "5/7"], ["2/3", "2/3"],
     ["-1/7", "-3/7"], ["1/3", "-5/7"]])


class TestBoxFilter:
    @settings(max_examples=100, deadline=None)
    @given(brute_instances())
    @example((TOUCHING, 2))
    def test_agrees_with_the_unfiltered_enumeration(self, instance):
        P, m = instance
        assert brute_force_tverberg(P, m) == brute_force_tverberg_exhaustive(P, m)

    def test_touching_boxes_go_to_the_lp(self, monkeypatch):
        lps = count_lps(monkeypatch, solvers)
        T = brute_force_tverberg(TOUCHING, 2)
        assert T == (frozenset({1, 2, 4}), frozenset({3}))
        assert len(lps) == 1  # (0, 0, 0, 1) is refuted by the boxes

    @settings(max_examples=50, deadline=None)
    @given(brute_instances())
    @example((COLLINEAR_RUN, 3))
    @example((COPLANAR_QUADRUPLE, 2))
    @example((THIRDS_AND_SEVENTHS, 3))
    def test_every_refuted_partition_is_infeasible(self, instance):
        # refutation is exact: each string skipped without an LP has part
        # hulls with no common point, whatever the direction that refutes it
        P, m = instance
        rank_lists = solvers._rank_lists(P, P.dim == 2)
        for rgs in solvers.restricted_growth_strings(len(P), m):
            if solvers._separated(rank_lists, rgs, m):
                sets = [[p for p, block in zip(P.points, rgs) if block == i] for i in range(m)]
                assert intersection_judge(sets, P.dim)(()) is None, rgs

    def test_lp_count(self, monkeypatch):
        # the unfiltered enumeration solves 171 LPs before the same answer
        P = random_point_set(7, 2, seed=0)
        lps = count_lps(monkeypatch, solvers)
        oracle_lps = count_lps(monkeypatch, oracles)
        T = brute_force_tverberg(P, 3)
        assert T == brute_force_tverberg_exhaustive(P, 3)
        assert len(lps) == 3  # the first refuting LP brings in the normals
        assert len(oracle_lps) == 171

    @pytest.mark.parametrize("n,dim,seed,m,lp_count",
                             [(9, 2, 1, 4, 15), (9, 2, 0, 4, 1), (8, 3, 0, 3, 117)])
    def test_no_tverberg_partition(self, monkeypatch, n, dim, seed, m, lp_count):
        # every string is walked; the axes alone leave 224, 152 and 117 to
        # the LP, and in space they are all the filter has
        lps = count_lps(monkeypatch, solvers)
        assert brute_force_tverberg(random_point_set(n, dim, seed=seed), m) is None
        assert len(lps) == lp_count


# points_needed(m) for m = 1..5: brute (d+1)(m-1)+1, lift 2^(d-1)(2m-1)
POINTS_NEEDED = {
    ("brute", 1): [1, 3, 5, 7, 9],
    ("brute", 2): [1, 4, 7, 10, 13],
    ("brute", 3): [1, 5, 9, 13, 17],
    ("brute", 4): [1, 6, 11, 16, 21],
    ("1d", 1): [1, 3, 5, 7, 9],
    ("lift", 1): [1, 3, 5, 7, 9],
    ("lift", 2): [2, 6, 10, 14, 18],
    ("lift", 3): [4, 12, 20, 28, 36],
    ("lift", 4): [8, 24, 40, 56, 72],
}


class TestContracts:
    def test_both_1d_routes_verify_at_minimum_size(self):
        rng = random.Random(6)
        for m in (2, 3):
            values = rng.sample(range(-40, 40), 2 * m - 1)
            P = line(*values)
            brute = brute_force_tverberg(P, m)
            structured = tolerant_tverberg_1d(P, m)
            assert check_solver_output(P, brute)
            assert check_solver_output(P, structured)

    @pytest.mark.parametrize("name,dim,n,m", [
        ("brute", 2, 7, 3),
        ("1d", 1, 9, 2),
        ("lift", 2, 10, 2),
    ])
    def test_registered_solvers_meet_contract(self, name, dim, n, m):
        solver = get_solver(name, dim)
        assert n >= solver.points_needed(m)
        P = random_point_set(n, dim, grid=80, seed=21)
        T = solver.solve(P, m)
        assert check_solver_output(P, T)

    @pytest.mark.parametrize("dim,n,m", [(1, 9, 3), (2, 13, 3), (2, 11, 2), (3, 12, 2)])
    def test_brute_solves_more_points_than_it_needs(self, dim, n, m):
        # the first (d+1)(m-1)+1 points are brute-forced, the rest join part 0
        solver = get_solver("brute", dim)
        P = random_point_set(n, dim, grid=80, seed=n)
        T = solver.solve(P, m)
        assert check_solver_output(P, T)
        head = PointSet(dim, P.points[: solver.points_needed(m)])
        assert T[1:] == brute_force_tverberg(head, m)[1:]

    def test_points_needed_formulas(self):
        assert get_solver("brute", 2).points_needed(3) == 7
        assert get_solver("1d", 1).points_needed(2) == 3
        assert get_solver("lift", 2).points_needed(2) == 6
        assert get_solver("lift", 3).points_needed(2) == 12
        for (name, dim), needed in POINTS_NEEDED.items():
            solver = get_solver(name, dim)
            if name == "brute":
                # blocks over the cap are refused before any is solved
                for m, n in enumerate(needed, start=1):
                    if n <= BRUTE_FORCE_CAP:
                        assert solver.points_needed(m) == n
                        continue
                    with pytest.raises(TverbergError) as excinfo:
                        solver.points_needed(m)
                    assert str(excinfo.value) == (
                        f"instance too large for brute force: blocks of {n} points > cap 12")
                continue
            assert [solver.points_needed(m) for m in range(1, 6)] == needed
            # the lifted solver takes exactly as few points as its contract names
            for m, n in enumerate(needed, start=1):
                P = from_coords([[i] * dim for i in range(n)])
                assert len(solver.solve(P, m)) == m
                with pytest.raises(TverbergError, match="^too few points"):
                    solver.solve(PointSet(dim, P.points[:-1]), m)

    def test_1d_solver_requires_1d(self):
        with pytest.raises(TverbergError):
            get_solver("1d", 2)

    def test_unknown_name(self):
        with pytest.raises(TverbergError):
            get_solver("simplex-pivot", 1)
