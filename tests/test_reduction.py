from fractions import Fraction
from itertools import combinations

import pytest

from helpers import line, query
from tolerant_tverberg import (
    PointSet,
    TverbergError,
    center_to_tolerant_instance,
    centerpoint_depth,
    hull_support,
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
        assert hull_support(query(3, 0), embedded) is not None
        assert hull_support(query(3, 0), gadget) is not None
        assert hull_support(query(3, "1/2"), embedded) is None
        assert hull_support(query("5/2", 0), gadget) is None

    def test_gadget_survives_any_t_removals(self):
        P = line(1, 2, 3, 4, 5)
        inst = center_to_tolerant_instance(P, query(3))
        by_id = inst.lifted_points.by_id()
        gadget_ids = sorted(inst.partition[1])
        c_lifted = query(3, 0)
        for removal in combinations(gadget_ids, inst.t):
            rest = [by_id[pid] for pid in gadget_ids if pid not in set(removal)]
            assert hull_support(c_lifted, rest) is not None
