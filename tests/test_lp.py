import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import from_coords, pt, query
from tolerant_tverberg import (
    Point,
    TverbergError,
    brute_force_tverberg,
    common_intersection,
    hull_support,
    lp,
    random_point_set,
    tolerant_tverberg_lifted,
    tukey_depth,
    verify_tolerance,
)
from tolerant_tverberg.lp import lp_feasible


def F(*args):
    return Fraction(*args)


def pts_1d(values, start_id=0):
    return [pt(start_id + i, v) for i, v in enumerate(values)]


def witness(rows, rhs):
    """The phase-1 witness as Fractions, or None when infeasible."""
    found = lp._phase1(rows, rhs, len(rows[0]))
    return None if found is None else [F(x, found[1]) for x in found[0]]


class TestLpFeasible:
    def test_sign_conflict_infeasible(self):
        assert lp_feasible([[F(1)]], [F(-1)]) is None

    def test_symmetric_split(self):
        rows = [[F(1), F(1)], [F(1), F(-1)]]
        assert witness(rows, [F(1), F(0)]) == [F(1, 2), F(1, 2)]
        assert lp_feasible(rows, [F(1), F(0)]) == [0, 1]

    def test_negative_rhs_row_is_negated(self):
        assert witness([[F(-2)]], [F(-3)]) == [F(3, 2)]
        assert lp_feasible([[F(-2)]], [F(-3)]) == [0]

    def test_zero_row_consistent(self):
        assert lp_feasible([[F(0)]], [F(0)]) == []

    def test_zero_row_inconsistent(self):
        assert lp_feasible([[F(0)]], [F(5)]) is None

    def test_degenerate_suite_terminates(self):
        # redundant rows, duplicated columns, zero rhs everywhere:
        # classic food for cycling if the pivot rule were naive
        rows = [
            [F(1), F(-1), F(1), F(-1)],
            [F(2), F(-2), F(2), F(-2)],
            [F(1), F(-1), F(-1), F(1)],
            [F(3), F(1), F(0), F(0)],
        ]
        assert witness(rows, [F(0)] * 4) == [F(0)] * 4
        assert lp_feasible(rows, [F(0)] * 4) == []

    def test_redundant_equalities(self):
        rows = [[F(1), F(1)], [F(2), F(2)], [F(3), F(3)]]
        w = witness(rows, [F(2), F(4), F(6)])
        assert w is not None and w[0] + w[1] == 2 and min(w) >= 0
        assert lp_feasible(rows, [F(2), F(4), F(6)]) == [j for j in (0, 1) if w[j]]

    def test_wrong_witness_rejected_under_optimize(self):
        # A solver bug that returns a wrong witness must still be caught
        # when asserts are stripped: run the check under ``python -O``.
        # c = 1 gets w = 0, which breaks every equality; c = 3 gets
        # w = (-1/2, 3/2), which meets them but is negative.
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from tolerant_tverberg import Point, lp
            hull = [Point(1, (Fraction(0),)), Point(2, (Fraction(2),))]
            print("optimize", sys.flags.optimize)
            for c, stub in ((1, lambda rows, rhs, ncols: ([0] * ncols, 1)),
                            (3, lambda rows, rhs, ncols: ([-1, 3], 2))):
                lp._phase1 = stub
                try:
                    lp.hull_support(Point(0, (Fraction(c),)), hull)
                except AssertionError as exc:
                    print("raised", exc)
                else:
                    print("accepted")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "optimize 1", "raised witness failed exact re-substitution",
            "raised witness violates nonnegativity"]


# zero, small and negative integers, small fractions, and huge coprime
# denominators 1/(10**30 + k)
_ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.builds(lambda k, sign: F(sign, 10**30 + k), st.integers(0, 40), st.sampled_from([-1, 1])),
)


@st.composite
def _lp_systems(draw):
    """(rows, rhs): feasible by construction or not, with redundant,
    degenerate (zero rhs) and all-zero rows mixed in."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        w = draw(st.lists(_ENTRIES.map(abs), min_size=ncols, max_size=ncols))
        rhs = [sum((c * x for c, x in zip(row, w)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
    for kind in draw(st.lists(st.sampled_from(["redundant", "zero", "zero-rhs"]), max_size=2)):
        if kind == "redundant":
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            k = draw(_ENTRIES)
            rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
            rhs.append(rhs[i] + k * rhs[j])
        elif kind == "zero":
            rows.append([F(0)] * ncols)
            rhs.append(draw(_ENTRIES))
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols)))
            rhs.append(F(0))
    return rows, rhs


def _pivots_of(module, solve):
    """solve()'s result with the (leave, enter) pivots ``module._pivot`` took."""
    taken = []
    real = module._pivot

    def spy(tab, cost, leave, enter, *rest):
        taken.append((leave, enter))
        return real(tab, cost, leave, enter, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_pivot", spy)
        return solve(), taken


def _check_prefix_of_fraction_engine(rows, rhs):
    """The integer tableau takes the Fraction tableau's pivots, one by one,
    up to the first one that would enter an artificial column, and returns
    the same witness, numerators over d; ``lp_feasible`` reports that
    witness's support.  Returns both pivot sequences and that witness."""
    ncols = len(rows[0])
    got, pivots = _pivots_of(lp, lambda: witness(rows, rhs))
    want, ref_pivots = _pivots_of(oracles, lambda: oracles.fraction_lp_feasible(rows, rhs))
    assert ref_pivots[: len(pivots)] == pivots
    assert len(ref_pivots) == len(pivots) or ref_pivots[len(pivots)][1] >= ncols
    assert got == (None if want is None else list(want))
    support = None if want is None else [j for j, x in enumerate(want) if x != 0]
    assert lp_feasible(rows, rhs) == support
    return pivots, ref_pivots, want


class TestSamePivotsAsFractionEngine:
    """The artificial columns are implicit in the integer tableau, so it
    stops where the Fraction tableau, which carries them, would next enter
    one; until then the pivots are the same, and so are the verdict and
    the witness."""

    @given(_lp_systems())
    @example(([[F(-2), F(1)], [F(2), F(0)], [F(0), F(3)]], [F(-1), F(1), F(0)]))
    @example(([[F(2), F(0)], [F(3), F(3)], [F(-1), F(3)]], [F(0), F(1), F(3)]))
    @settings(max_examples=400, deadline=None)
    def test_witness_and_pivot_sequence(self, system):
        _check_prefix_of_fraction_engine(*system)

    @pytest.mark.parametrize("rows, rhs, ref_tail", [
        # feasible: the Fraction engine goes on with a degenerate pivot
        ([[-2, 1], [2, 0], [0, 3]], [-1, 1, 0], (2, 2)),
        # infeasible: it goes on with a pivot that cannot reach 0
        ([[2, 0], [3, 3], [-1, 3]], [0, 1, 3], (0, 2)),
    ])
    def test_stops_before_an_artificial_pivot(self, rows, rhs, ref_tail):
        rows, rhs = [[F(c) for c in row] for row in rows], [F(b) for b in rhs]
        pivots, ref_pivots, _ = _check_prefix_of_fraction_engine(rows, rhs)
        assert pivots == [(0, 0), (1, 1)] and ref_pivots == [*pivots, ref_tail]


def _recorded_systems(run):
    """The (rows, rhs) of every LP that ``run()`` hands to ``lp_feasible``."""
    systems = []
    real = lp.lp_feasible

    def spy(rows, rhs):
        systems.append((rows, rhs))
        return real(rows, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "lp_feasible", spy)
        run()
    return systems


class TestCallersLpShapes:
    """The prefix-and-witness check on the LPs the callers really build:
    up to 7 rows by 20 columns, which ``_lp_systems`` never draws."""

    def test_prefix_of_fraction_engine_on_recorded_systems(self):
        def run():
            ps = random_point_set(22, 2, seed=0)
            partition = tolerant_tverberg_lifted(ps, 3, 2)
            for t in (2, 3):  # tolerant, then refuted
                verify_tolerance(ps, partition, t)
            brute_force_tverberg(random_point_set(7, 2, seed=0), 3)
            # 3-D, with a duplicate, a collinear run and c on an input point
            coords = [[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4], [4, 4, 4],
                      [1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 0, 0], ["1/2", 3, "5/2"]]
            tukey_depth(query(1, 1, 1), from_coords(coords))

        systems = _recorded_systems(run)
        assert max(len(rows) for rows, _ in systems) == 7
        assert max(len(rows[0]) for rows, _ in systems) >= 20
        witnesses = [_check_prefix_of_fraction_engine(*system)[2] for system in systems]
        assert None in witnesses and witnesses.count(None) < len(witnesses)


class TestWorkCounters:
    """Deterministic work: LPs solved (``_phase1`` calls) and pivots
    (``_pivot`` calls) on two fixed instances, and every tableau row the
    pivot rewrites holds the structural columns and the rhs, nothing
    else.  An empty part or hull is refuted by exactly one LP."""

    def _count(self, run):
        counts = {"lps": 0, "pivots": 0}
        widths = set()
        real_phase1, real_pivot = lp._phase1, lp._pivot

        def phase1(rows, rhs, ncols):
            counts["lps"] += 1
            counts["ncols"] = ncols
            return real_phase1(rows, rhs, ncols)

        def pivot(tab, cost, *rest):
            counts["pivots"] += 1
            widths.update(len(row) - counts["ncols"] for row in [*tab, cost])
            return real_pivot(tab, cost, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_phase1", phase1)
            mp.setattr(lp, "_pivot", pivot)
            result = run()
        assert widths == {1}
        return result, counts["lps"], counts["pivots"]

    def test_lifted_planar_verify(self):
        ps = random_point_set(22, 2, seed=0)
        partition = tolerant_tverberg_lifted(ps, 3, 2)
        assert self._count(lambda: verify_tolerance(ps, partition, 2)) == (None, 11, 144)

    def test_brute_force(self):
        ps = random_point_set(7, 2, seed=0)
        partition, lps, pivots = self._count(lambda: brute_force_tverberg(ps, 3))
        assert partition is not None and (lps, pivots) == (21, 168)

    @pytest.mark.parametrize("run", [
        lambda: common_intersection([[pt(1, 0)], []], 1),
        lambda: common_intersection([[], []], 2),
        lambda: hull_support(pt(0, 1, "1/2"), []),
    ])
    def test_an_empty_hull_is_one_lp_verdict(self, monkeypatch, run):
        solved = []
        real = lp._phase1
        monkeypatch.setattr(lp, "_phase1", lambda *args: solved.append(1) or real(*args))
        assert run() is None
        assert len(solved) == 1


def _values_in(sets, support):
    """The 1-D coordinates of each set's points that lie in ``support``."""
    return [[p.coords[0] for p in s if p.id in support] for s in sets]


class TestCommonIntersection:
    def test_identical_singletons(self):
        sets = [[pt(1, 0)], [pt(2, 0)]]
        assert common_intersection(sets, 1) == frozenset({1, 2})

    def test_overlapping_intervals(self):
        sets = [pts_1d([1, 3]), pts_1d([2, 4], start_id=10)]
        found = common_intersection(sets, 1)
        assert found is not None
        assert oracles.intervals_intersect(_values_in(sets, found))

    def test_disjoint_triangles_empty(self):
        a = [pt(1, 0, 0), pt(2, 1, 0), pt(3, 0, 1)]
        b = [pt(4, 5, 5), pt(5, 6, 5), pt(6, 5, 6)]
        assert common_intersection([a, b], 2) is None

    def test_empty_set_forces_empty(self):
        assert common_intersection([pts_1d([1, 2]), []], 1) is None

    def test_dimension_mismatch(self):
        with pytest.raises(TverbergError, match="dimension"):
            common_intersection([[pt(1, 0, 0)], [pt(2, 1)]], 2)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_point_lies_in_every_hull(self, dim, m):
        # Re-decided on the Fraction engine, which chains each set to the
        # previous one rather than to set 0: the hulls meet, and the
        # support's points alone still carry a common point.
        rng = random.Random(10 * dim + m)
        found = 0
        for _ in range(10):
            sets = [
                [Point(100 * i + j, tuple(F(rng.randint(-9, 9)) for _ in range(dim)))
                 for j in range(2 * dim + 2)]
                for i in range(m)
            ]
            support = common_intersection(sets, dim)
            assert (support is not None) == oracles.hulls_intersect_fraction(sets, dim)
            if support is not None:
                found += 1
                kept = [[p for p in s if p.id in support] for s in sets]
                assert oracles.hulls_intersect_fraction(kept, dim)
        assert found > 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_support_keeps_the_point(self, dim):
        # A basic witness has at most one nonzero weight per row, and the
        # support's points alone still carry a common point.
        rng = random.Random(dim)
        found = 0
        for _ in range(30):
            m = rng.randint(1, 3)
            sets = [
                [Point(100 * i + j, tuple(F(rng.randint(-4, 4)) for _ in range(dim)))
                 for j in range(rng.randint(1, 2 * dim + 2))]
                for i in range(m)
            ]
            support = common_intersection(sets, dim)
            if support is None:
                continue
            found += 1
            assert len(support) <= (m - 1) * dim + m
            if dim == 1:
                assert oracles.intervals_intersect(_values_in(sets, support))
            else:
                kept = [[p for p in s if p.id in support] for s in sets]
                assert oracles.hulls_intersect_fraction(kept, dim)
        assert found > 0

    def test_no_sets_have_empty_support(self):
        for dim in (1, 2, 3):
            assert common_intersection([], dim) == frozenset()

    def test_agrees_with_interval_oracle_randomized(self):
        rng = random.Random(123)
        for _ in range(2000):
            k = rng.randint(1, 4)
            value_sets = [
                [rng.randint(-8, 8) for _ in range(rng.randint(1, 4))]
                for _ in range(k)
            ]
            sets = []
            nid = 0
            for vs in value_sets:
                sets.append(pts_1d(vs, start_id=nid))
                nid += len(vs)
            got = common_intersection(sets, 1)
            expect = oracles.intervals_intersect(value_sets)
            assert (got is not None) == expect
            if got is not None:
                assert oracles.intervals_intersect(_values_in(sets, got))

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=30)
    def test_scale_invariance(self, num, den):
        scale = F(num, den)
        a = [pt(1, 0, 0), pt(2, 4, 0), pt(3, 0, 4)]
        b = [pt(4, 1, 1), pt(5, 3, 1), pt(6, 1, 3)]
        c = [pt(7, 6, 6), pt(8, 7, 6), pt(9, 6, 7)]
        for sets in ([a, b], [a, c], [a, b, c]):
            plain = common_intersection(sets, 2) is not None
            scaled_sets = [
                [Point(p.id, tuple(scale * x for x in p.coords)) for p in s]
                for s in sets
            ]
            scaled = common_intersection(scaled_sets, 2) is not None
            assert plain == scaled


class TestPointInHull:
    def test_interval_membership(self):
        assert hull_support(pt(0, 1), pts_1d([0, 2])) is not None
        assert hull_support(pt(0, 3), pts_1d([0, 2])) is None

    def test_triangle_interior(self):
        tri = [pt(1, 0, 0), pt(2, 3, 0), pt(3, 0, 3)]
        assert hull_support(pt(0, 1, 1), tri) is not None
        assert hull_support(pt(0, 3, 3), tri) is None

    def test_vertex_and_edge_membership(self):
        tri = [pt(1, 0, 0), pt(2, 2, 0), pt(3, 0, 2)]
        assert hull_support(pt(0, 0, 0), tri) is not None
        assert hull_support(pt(0, 1, 0), tri) is not None

    def test_empty_hull(self):
        assert hull_support(pt(0, 1), []) is None

    def test_support_carries_the_point(self):
        square = [pt(1, 0, 0), pt(2, 2, 0), pt(3, 0, 2), pt(4, 2, 2), pt(5, 1, 1)]
        assert hull_support(pt(0, 3, 3), square) is None
        for c in (pt(0, 1, 1), pt(0, 0, 0), pt(0, 1, 0), pt(0, 1, "1/2")):
            support = hull_support(c, square)
            assert support is not None and 1 <= len(support) <= 3
            assert hull_support(c, [p for p in square if p.id in support]) is not None

    def test_dimension_mismatch(self):
        with pytest.raises(TverbergError, match="dimension"):
            hull_support(pt(0, 1, 2), pts_1d([0, 1]))
