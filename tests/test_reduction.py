import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from helpers import from_coords, line, query
from tolerant_tverberg import (
    PointSet,
    TverbergError,
    center_to_tolerant_instance,
    centerpoint_depth,
    hull_judge,
    tukey_depth,
    verify_tolerance,
)


class TestConstruction:
    def test_shape_for_five_points(self):
        P = line(1, 2, 3, 4, 5)
        inst = center_to_tolerant_instance(P, query(3))
        assert inst.t == 2
        assert inst.lifted_points.dim == 2
        assert len(inst.gadget_minus_ids) == 3
        assert len(inst.gadget_plus_ids) == 3
        by_id = inst.lifted_points.by_id()
        for pid in P.ids():
            assert by_id[pid].coords == (Fraction(by_id[pid].coords[0]), Fraction(0))
        for pid in inst.gadget_minus_ids:
            assert by_id[pid].coords[0] == 3 and by_id[pid].coords[1] < 0
        for pid in inst.gadget_plus_ids:
            assert by_id[pid].coords[0] == 3 and by_id[pid].coords[1] > 0
        assert inst.partition[0] == P.ids()
        assert inst.partition[1] == inst.gadget_minus_ids | inst.gadget_plus_ids

    def test_single_point(self):
        P = line(7)
        inst = center_to_tolerant_instance(P, query(7))
        assert inst.t == 0
        assert len(inst.gadget_minus_ids) == len(inst.gadget_plus_ids) == 1
        assert verify_tolerance(inst.lifted_points, inst.partition, 0) is None

    def test_dimension_mismatch(self):
        with pytest.raises(TverbergError, match="dimension"):
            center_to_tolerant_instance(line(1, 2, 3), query(0, 0))

    def test_empty_point_set_is_too_few_points(self):
        with pytest.raises(TverbergError, match="too few points: empty point set"):
            center_to_tolerant_instance(PointSet(2, ()), query(0, 0))


class TestEquivalence:
    def test_median_of_five_reduces_tolerant(self):
        P = line(1, 2, 3, 4, 5)
        c = query(3)
        inst = center_to_tolerant_instance(P, c)
        assert tukey_depth(c, P) >= centerpoint_depth(len(P), P.dim)
        assert verify_tolerance(inst.lifted_points, inst.partition, inst.t) is None

    def test_extreme_of_five_reduces_refuted(self):
        P = line(1, 2, 3, 4, 5)
        c = query(1)
        inst = center_to_tolerant_instance(P, c)
        assert tukey_depth(c, P) < centerpoint_depth(len(P), P.dim)
        assert verify_tolerance(inst.lifted_points, inst.partition, inst.t) is not None

    def test_hulls_meet_exactly_at_the_candidate_when_inside(self):
        P = line(1, 2, 3, 4, 5)
        inst = center_to_tolerant_instance(P, query(3))
        by_id = inst.lifted_points.by_id()
        embedded = [by_id[pid] for pid in sorted(P.ids())]
        gadget = [by_id[pid] for pid in sorted(inst.partition[1])]
        # a horizontal and a vertical segment, crossing at (3, 0) only
        assert hull_judge(query(3, 0), embedded)(()) is not None
        assert hull_judge(query(3, 0), gadget)(()) is not None
        assert hull_judge(query(3, "1/2"), embedded)(()) is None
        assert hull_judge(query("5/2", 0), gadget)(()) is None

    def test_gadget_survives_any_t_removals(self):
        P = line(1, 2, 3, 4, 5)
        inst = center_to_tolerant_instance(P, query(3))
        by_id = inst.lifted_points.by_id()
        gadget_ids = sorted(inst.partition[1])
        c_lifted = query(3, 0)
        for removal in combinations(gadget_ids, inst.t):
            rest = [by_id[pid] for pid in gadget_ids if pid not in set(removal)]
            assert hull_judge(c_lifted, rest)(()) is not None


def planar_family(seed):
    """A seeded planar set of 9..15 points on a small grid, with a
    collinear run of 3 or 4, and for each of the depths ceil(n/3) and
    ceil(n/3) - 1 the first candidate c at exactly that depth: the input
    points first, then the half-integer grid over the box."""
    rng = random.Random(seed)
    n = 9 + seed % 7
    x0, y0, dx, dy = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 2), rng.choice([-1, 1])
    coords = [(x0 + j * dx, y0 + j * dy) for j in range(rng.randint(3, 4))]
    while len(coords) < n:
        coords.append((rng.randint(0, 8), rng.randint(0, 8)))
    P = from_coords(coords)
    grid = [(Fraction(i, 2), Fraction(j, 2)) for i in range(17) for j in range(17)]
    at_depth = {}
    for c in coords + grid:
        at_depth.setdefault(tukey_depth(query(*c), P), c)
    target = centerpoint_depth(n, 2)
    return P, {depth: at_depth[depth] for depth in (target, target - 1)}


class TestReducedInstancesWithKnownAnswers:
    """The reduction's answer is known from the planar depth: the lifted
    instance is t-tolerant exactly when depth(c) >= ceil(n/3)."""

    def test_verdicts_match_the_planar_depth(self):
        on_input = {True: 0, False: 0}
        for seed in range(7):
            P, queries = planar_family(seed)
            coords = [p.coords for p in P.points]
            for depth, c in queries.items():
                assert oracles.halfspace_depth_2d(c, coords) == depth
                tolerant = depth >= centerpoint_depth(len(P), 2)
                inst = center_to_tolerant_instance(P, query(*c))
                removal = verify_tolerance(inst.lifted_points, inst.partition, inst.t)
                assert (removal is None) == tolerant, (seed, c)
                on_input[tolerant] += c in coords
        # c sits on an input point for some instances of each verdict
        assert on_input[True] and on_input[False]
