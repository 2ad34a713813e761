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
from helpers import from_coords, from_iterables, pt, query
from tolerant_tverberg import (
    Point,
    TverbergError,
    brute_force_tverberg,
    exact_tolerance,
    hull_judge,
    intersection_judge,
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


def cold(rows, rhs):
    """``lp_feasible`` on a new tableau of rows . w = rhs, w >= 0, whose
    column j has id j."""
    return lp_feasible(lp.Tableau(rows, rhs, range(len(rows[0]))))


def witness(rows, rhs):
    """A new tableau's first witness as Fractions, or None when infeasible."""
    ncols = len(rows[0])
    tableau = lp.Tableau(rows, rhs, range(ncols))
    if lp_feasible(tableau) is None:
        return None
    found = [F(0)] * ncols
    for col, line in zip(tableau.basis, tableau.tab):
        if col < ncols:
            found[col] = F(line[-1], tableau.d)
    return found


class TestLpFeasible:
    def test_sign_conflict_infeasible(self):
        assert cold([[F(1)]], [F(-1)]) is None

    def test_symmetric_split(self):
        rows = [[F(1), F(1)], [F(1), F(-1)]]
        assert witness(rows, [F(1), F(0)]) == [F(1, 2), F(1, 2)]
        assert cold(rows, [F(1), F(0)]) == {0, 1}

    def test_negative_rhs_row_is_negated(self):
        assert witness([[F(-2)]], [F(-3)]) == [F(3, 2)]
        assert cold([[F(-2)]], [F(-3)]) == {0}

    def test_zero_row_consistent(self):
        assert cold([[F(0)]], [F(0)]) == set()

    def test_zero_row_inconsistent(self):
        assert cold([[F(0)]], [F(5)]) is None

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
        assert cold(rows, [F(0)] * 4) == set()

    def test_redundant_equalities(self):
        rows = [[F(1), F(1)], [F(2), F(2)], [F(3), F(3)]]
        w = witness(rows, [F(2), F(4), F(6)])
        assert w is not None and w[0] + w[1] == 2 and min(w) >= 0
        assert cold(rows, [F(2), F(4), F(6)]) == {j for j in (0, 1) if w[j]}

    def test_wrong_witness_rejected_under_optimize(self):
        # A solver bug that leaves a wrong witness in the tableau must
        # still be caught when asserts are stripped: run the check under
        # ``python -O``.  Each stub hands the first solve a basis of both
        # columns with nothing left to pivot.  c = 1 gets w = 0, which
        # breaks every equality; c = 3 gets w = (-1/2, 3/2), which meets
        # them but is negative.
        out = _run_optimized("""
            from fractions import Fraction
            from tolerant_tverberg import Point, lp
            hull = [Point(1, (Fraction(0),)), Point(2, (Fraction(2),))]
            init = lp.Tableau.__init__
            for c, tab, d in ((1, [[1, 0, 0], [0, 1, 0]], 1),
                              (3, [[2, 0, -1], [0, 2, 3]], 2)):
                def stub(self, rows, rhs, ids, tab=tab, d=d):
                    init(self, rows, rhs, ids)
                    self.tab, self.basis, self.d = tab, [0, 1], d
                lp.Tableau.__init__ = stub
                try:
                    lp.hull_judge(Point(0, (Fraction(c),)), hull)(())
                except AssertionError as exc:
                    print("raised", exc)
                else:
                    print("accepted")
        """)
        assert out == ["raised witness failed exact re-substitution",
                       "raised witness violates nonnegativity"]

    def test_corrupted_warm_tableau_rejected_under_optimize(self):
        # A warm solve reads its witness from the tableau the last solve
        # left; one wrong entry there must fail the re-substitution, with
        # asserts stripped.  The removal misses the basis, so the second
        # solve pivots nothing and reports the corrupted value.
        out = _run_optimized("""
            from tolerant_tverberg import lp
            rows, rhs = [[1, 1, 1, 1], [0, 1, 2, 3]], [1, 1]
            tableau = lp.Tableau(rows, rhs, range(4))
            support = lp.lp_feasible(tableau)
            print("support", sorted(support))
            removed = {j for j in range(4) if j not in tableau.basis}
            print("removed", sorted(removed))
            print("solve", sorted(lp.lp_feasible(tableau, removed)))
            tableau.tab[0][-1] += tableau.d
            try:
                lp.lp_feasible(tableau, removed)
            except AssertionError as exc:
                print("raised", exc)
            else:
                print("accepted")
        """)
        assert out == ["support [1]", "removed [0, 3]", "solve [1]",
                       "raised witness failed exact re-substitution"]


def _run_optimized(script):
    """stdout lines of ``script`` run under ``python -O``, after checking
    that asserts are really stripped there."""
    script = "import sys\nprint('optimize', sys.flags.optimize)\n" + textwrap.dedent(script)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    first, *rest = proc.stdout.splitlines()
    assert first == "optimize 1"
    return rest


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
    support = None if want is None else {j for j, x in enumerate(want) if x != 0}
    assert cold(rows, rhs) == support
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
    """The (rows, rhs) of every tableau that ``run()`` hands to
    ``lp_feasible``, once each, and the (rows, rhs, removed, support) of
    every solve, cold or warm, with the removed and support ids mapped
    back to the columns that carry them."""
    systems, solves, tableaus = [], [], []
    feasible = lp.lp_feasible

    def columns(tableau, ids):
        return None if ids is None else frozenset(
            j for j, pid in enumerate(tableau.ids) if pid in ids)

    def spy(tableau, removed=()):
        if not any(t is tableau for t in tableaus):
            tableaus.append(tableau)
            systems.append((tableau.rows, tableau.rhs))
        support = feasible(tableau, removed)
        solves.append((tableau.rows, tableau.rhs, columns(tableau, removed),
                       columns(tableau, support)))
        return support

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "lp_feasible", spy)
        run()
    return systems, solves


def _columns(rows, kept):
    return [[row[j] for j in kept] for row in rows]


def _check_against_reduced_system(rows, rhs, removed, support):
    """A solve with ``removed`` columns deleted has the Fraction engine's
    verdict on the reduced system, and its support alone is feasible."""
    kept = [j for j in range(len(rows[0])) if j not in removed]
    assert (support is None) == (oracles.fraction_lp_feasible(_columns(rows, kept), rhs) is None)
    if support is not None:
        assert removed.isdisjoint(support)
        assert oracles.fraction_lp_feasible(_columns(rows, support), rhs) is not None


class TestCallersLpShapes:
    """The prefix-and-witness check on the LPs the callers really build:
    up to 7 rows by 20 columns, which ``_lp_systems`` never draws; and
    every warm solve of a judge, checked on the system it reduces to."""

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

        systems, solves = _recorded_systems(run)
        shapes = [(len(rows), len(rows[0])) for rows, *_ in [*systems, *solves]]
        assert max(rows for rows, _ in shapes) == 7
        assert max(cols for _, cols in shapes) >= 20
        witnesses = [_check_prefix_of_fraction_engine(*system)[2] for system in systems]
        assert None in witnesses and witnesses.count(None) < len(witnesses)
        for solve in solves:
            _check_against_reduced_system(*solve)
        warm = [support for _, _, removed, support in solves if removed]
        assert None in warm and warm.count(None) < len(warm)


class TestWorkCounters:
    """Deterministic work: LPs solved (``lp_feasible`` calls, cold or
    warm) and pivots (``_pivot`` calls) on two fixed instances, and every
    tableau row the pivot rewrites holds the structural columns and the
    rhs, nothing else.  An empty part or hull is refuted by exactly one
    LP."""

    def _count(self, run):
        counts = {"lps": 0, "pivots": 0}
        widths = set()
        real_solve, real_pivot = lp.lp_feasible, lp._pivot

        def solve(tableau, removed=()):
            counts["lps"] += 1
            counts["ncols"] = len(tableau.ids)
            return real_solve(tableau, removed)

        def pivot(tab, cost, *rest):
            counts["pivots"] += 1
            widths.update(len(row) - counts["ncols"] for row in [*tab, cost])
            return real_pivot(tab, cost, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "lp_feasible", solve)
            mp.setattr(lp, "_pivot", pivot)
            result = run()
        assert widths == {1}
        return result, counts["lps"], counts["pivots"]

    def test_lifted_planar_verify(self):
        ps = random_point_set(22, 2, seed=0)
        partition = tolerant_tverberg_lifted(ps, 3, 2)
        # one warm tableau: 3 solves of 37 pivots, the greedy family's
        # unions and nothing walked (the walk alone: 12 solves of 49)
        assert self._count(lambda: verify_tolerance(ps, partition, 2)) == (None, 3, 37)

    def test_lifted_spatial_verify_past_its_tolerance(self):
        ps = random_point_set(36, 3, seed=1)
        partition = tolerant_tverberg_lifted(ps, 2, 3)
        # five pairwise disjoint supports certify t = 4 (the walk alone:
        # 16 solves of 54 pivots)
        assert self._count(lambda: verify_tolerance(ps, partition, 4)) == (None, 5, 46)

    def test_a_level_0_refutation_is_one_lp(self):
        # the family's first union, nothing removed, refutes; the walk
        # returns it without judging it again
        apart = from_coords([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]])
        T = from_iterables([{1, 2, 3}, {4, 5, 6}])
        assert self._count(lambda: exact_tolerance(apart, T))[:2] == (-1, 1)
        assert self._count(lambda: tukey_depth(query(9, 9, 9), apart))[:2] == (0, 1)

    def test_brute_force(self):
        ps = random_point_set(7, 2, seed=0)
        partition, lps, pivots = self._count(lambda: brute_force_tverberg(ps, 3))
        assert partition is not None and (lps, pivots) == (3, 27)

    @pytest.mark.parametrize("run", [
        lambda: intersection_judge([[pt(1, 0)], []], 1)(()),
        lambda: intersection_judge([[], []], 2)(()),
        lambda: hull_judge(pt(0, 1, "1/2"), [])(()),
    ])
    def test_an_empty_hull_is_one_lp_verdict(self, monkeypatch, run):
        solved = []
        real = lp.lp_feasible
        monkeypatch.setattr(lp, "lp_feasible", lambda *args: solved.append(1) or real(*args))
        assert run() is None
        assert len(solved) == 1

    def test_a_spy_installed_after_the_build_sees_every_solve(self, monkeypatch):
        # a judge looks ``lp.lp_feasible`` up on the module at each call,
        # so the bench tracer, which wraps it once the judges may exist,
        # counts every warm solve
        judges = [lp.intersection_judge([pts_1d([0, 2]), pts_1d([1, 3], start_id=2)], 1),
                  lp.hull_judge(pt(9, 1), pts_1d([0, 2]))]
        seen = []
        real = lp.lp_feasible
        monkeypatch.setattr(lp, "lp_feasible",
                            lambda tableau, removed=(): seen.append(removed) or real(tableau, removed))
        removals = [(), {0}, {1, 2}]
        for judge in judges:
            for removed in removals:
                judge(removed)
        assert seen == removals * 2


@st.composite
def _warm_instances(draw):
    """(points, dim, removals): 3-D or planar points in half-integers, with
    duplicates, runs on the line of two earlier points and, in 3-D, points
    in the plane of three; and a sequence of removal id sets, some of which
    empty a whole set and some of which hold ids of no point."""
    dim = draw(st.sampled_from([2, 3]))
    half = st.integers(-4, 6).map(lambda k: F(k, 2))
    coords = []
    for _ in range(draw(st.integers(3, 9))):
        kind = draw(st.sampled_from(["fresh", "fresh", "duplicate", "line", "plane"]))
        if kind == "fresh" or len(coords) < 3:
            coords.append(tuple(draw(half) for _ in range(dim)))
        elif kind == "duplicate":
            coords.append(draw(st.sampled_from(coords)))
        else:
            a, b, c = (draw(st.sampled_from(coords)) for _ in range(3))
            r, q = draw(half), draw(half) if kind == "plane" else 0
            coords.append(tuple(x + r * (y - x) + q * (z - x) for x, y, z in zip(a, b, c)))
    points = [Point(i + 1, c) for i, c in enumerate(coords)]
    ids = [p.id for p in points]
    removals = draw(st.lists(st.sets(st.sampled_from([*ids, -1, len(ids) + 1]),
                                     max_size=len(ids) + 2),
                             min_size=1, max_size=8))
    return points, dim, removals


class TestWarmTableau:
    """One judge, on one tableau, judges a sequence of removals, each from
    the basis the last one left: every verdict is the cold LP's on the
    reduced sets, and every support still carries the common point on its
    own."""

    @given(_warm_instances(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_removals_match_cold_common_intersection(self, instance, data):
        points, dim, removals = instance
        m = 3 if dim == 2 else 2
        owner = data.draw(st.lists(st.integers(0, m - 1), min_size=len(points),
                                   max_size=len(points)))
        sets = [[p for p, k in zip(points, owner) if k == i] for i in range(m)]
        # some points also join another set, or their own again: a removed
        # id leaves every set it is in
        for p, i in data.draw(st.lists(st.tuples(st.sampled_from(points),
                                                 st.integers(0, m - 1)), max_size=3)):
            sets[i].append(p)
        judge = lp.intersection_judge(sets, dim)
        for removed in removals:
            support = judge(removed)
            reduced = [[p for p in s if p.id not in removed] for s in sets]
            assert (support is None) == (intersection_judge(reduced, dim)(()) is None)
            assert (support is None) == (not oracles.hulls_intersect_fraction(reduced, dim))
            if support is not None:
                assert support.isdisjoint(removed)
                kept = [[p for p in s if p.id in support] for s in sets]
                assert oracles.hulls_intersect_fraction(kept, dim)

    @given(_warm_instances(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_removals_match_cold_hull_support(self, instance, data):
        # the LP of tukey_depth's ascent from d = 3 on
        points, dim, removals = instance
        c = data.draw(st.sampled_from([*points, Point(0, tuple(
            sum((p.coords[k] for p in points), F(0)) / len(points) for k in range(dim)))]))
        c = Point(0, c.coords)
        judge = lp.hull_judge(c, points)
        for removed in removals:
            support = judge(removed)
            rest = [p for p in points if p.id not in removed]
            assert (support is None) == (hull_judge(c, rest)(()) is None)
            if support is not None:
                kept = [p for p in rest if p.id in support]
                assert oracles.hulls_intersect_fraction([[c], kept], dim)

    def test_a_removed_id_leaves_every_set_it_is_in(self):
        # p is in both sets, so removing it empties set 0
        p, q = Point(1, (F(0), F(0))), Point(2, (F(0), F(0)))
        assert lp.intersection_judge([[p], [p, q]], 2)({p.id}) is None

    @pytest.mark.parametrize("build", [
        lambda: lp.intersection_judge([pts_1d([0, 2]), pts_1d([1, 3], start_id=2)], 1),
        lambda: lp.hull_judge(pt(9, 1), pts_1d([0, 2])),
    ])
    def test_an_id_of_no_point_removes_nothing(self, build):
        unremoved = build()(())
        assert unremoved is not None and build()({99}) == unremoved

    def test_depth_ascent_in_3d(self):
        # a cube's corners, its centre twice and a coplanar run through it:
        # the warm ascent gives the exhaustive oracle's depth at every query
        coords = [[x, y, z] for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)]
        coords += [[0, 0, 0], [0, 0, 0], [1, 1, 0], ["-1/2", "-1/2", 0]]
        P = from_coords(coords)
        for c in (query(0, 0, 0), query("1/2", "1/2", 0), query(2, 2, 2), query(3, 0, 0)):
            assert tukey_depth(c, P) == oracles.tukey_depth_exhaustive(c, P)


def _values_in(sets, support):
    """The 1-D coordinates of each set's points that lie in ``support``."""
    return [[p.coords[0] for p in s if p.id in support] for s in sets]


class TestCommonIntersection:
    def test_identical_singletons(self):
        sets = [[pt(1, 0)], [pt(2, 0)]]
        assert intersection_judge(sets, 1)(()) == frozenset({1, 2})

    def test_overlapping_intervals(self):
        sets = [pts_1d([1, 3]), pts_1d([2, 4], start_id=10)]
        found = intersection_judge(sets, 1)(())
        assert found is not None
        assert oracles.intervals_intersect(_values_in(sets, found))

    def test_disjoint_triangles_empty(self):
        a = [pt(1, 0, 0), pt(2, 1, 0), pt(3, 0, 1)]
        b = [pt(4, 5, 5), pt(5, 6, 5), pt(6, 5, 6)]
        assert intersection_judge([a, b], 2)(()) is None

    def test_empty_set_forces_empty(self):
        assert intersection_judge([pts_1d([1, 2]), []], 1)(()) is None

    def test_dimension_mismatch(self):
        with pytest.raises(TverbergError, match="dimension"):
            intersection_judge([[pt(1, 0, 0)], [pt(2, 1)]], 2)(())
        # an id past the interpreter's 4300-digit limit is echoed cut
        with pytest.raises(TverbergError, match=r"dimension: point 1000+\.\.\. has dim 1"):
            intersection_judge([[Point(10**5000, (1,))]], 2)

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
            support = intersection_judge(sets, dim)(())
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
            support = intersection_judge(sets, dim)(())
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
            assert intersection_judge([], dim)(()) == frozenset()

    def test_no_sets_judge_has_empty_support(self):
        judge = lp.intersection_judge([], 2)
        for removed in ((), {1}, {1, 2, 99}):
            assert judge(removed) == frozenset()

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
            got = intersection_judge(sets, 1)(())
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
            plain = intersection_judge(sets, 2)(()) is not None
            scaled_sets = [
                [Point(p.id, tuple(scale * x for x in p.coords)) for p in s]
                for s in sets
            ]
            scaled = intersection_judge(scaled_sets, 2)(()) is not None
            assert plain == scaled


class TestPointInHull:
    def test_interval_membership(self):
        assert hull_judge(pt(0, 1), pts_1d([0, 2]))(()) is not None
        assert hull_judge(pt(0, 3), pts_1d([0, 2]))(()) is None

    def test_triangle_interior(self):
        tri = [pt(1, 0, 0), pt(2, 3, 0), pt(3, 0, 3)]
        assert hull_judge(pt(0, 1, 1), tri)(()) is not None
        assert hull_judge(pt(0, 3, 3), tri)(()) is None

    def test_vertex_and_edge_membership(self):
        tri = [pt(1, 0, 0), pt(2, 2, 0), pt(3, 0, 2)]
        assert hull_judge(pt(0, 0, 0), tri)(()) is not None
        assert hull_judge(pt(0, 1, 0), tri)(()) is not None

    def test_empty_hull(self):
        assert hull_judge(pt(0, 1), [])(()) is None

    def test_support_carries_the_point(self):
        square = [pt(1, 0, 0), pt(2, 2, 0), pt(3, 0, 2), pt(4, 2, 2), pt(5, 1, 1)]
        assert hull_judge(pt(0, 3, 3), square)(()) is None
        for c in (pt(0, 1, 1), pt(0, 0, 0), pt(0, 1, 0), pt(0, 1, "1/2")):
            support = hull_judge(c, square)(())
            assert support is not None and 1 <= len(support) <= 3
            assert hull_judge(c, [p for p in square if p.id in support])(()) is not None

    def test_dimension_mismatch(self):
        with pytest.raises(TverbergError, match="dimension"):
            hull_judge(pt(0, 1, 2), pts_1d([0, 1]))(())
        with pytest.raises(TverbergError, match=r"dimension: point -1000+\.\.\. has dim 1"):
            hull_judge(Point(0, (1, 2)), [Point(-10**5000, (1,))])
