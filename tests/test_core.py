import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import tolerant_tverberg
from helpers import big_denominators, from_coords, from_iterables, line, pt
from oracles import lex_key_plain, point_set_from_obj_per_value
from tolerant_tverberg import (
    Point,
    PointSet,
    TverbergError,
    check_partition,
    jsonio,
    lex_key,
    to_scalar,
)
from tolerant_tverberg import core
from tolerant_tverberg.core import ECHO_LIMIT, homogeneous, short_repr


def test_export_list_resolves_without_duplicates():
    names = tolerant_tverberg.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(tolerant_tverberg, name)] == []
    namespace = {}
    exec("from tolerant_tverberg import *", namespace)
    assert set(names) <= set(namespace)


def test_public_names_are_pinned():
    assert sorted(tolerant_tverberg.__all__) == [
        "BRUTE_FORCE_CAP", "DEFAULT_BUDGET", "MergeBlock", "Partition", "Point",
        "PointSet", "ReducedInstance", "RemovalSet", "SolverContract", "TverbergError",
        "brute_force_tverberg", "center_to_tolerant_instance", "centerpoint_depth",
        "check_partition", "chunk_and_merge", "exact_tolerance", "get_solver",
        "halve_and_pair", "hull_judge", "intersection_judge", "lex_key", "max_tolerance_1d",
        "merge_partitions", "random_point_set", "render_svg", "to_scalar",
        "tolerant_tverberg_1d", "tolerant_tverberg_lifted", "tukey_depth",
        "verify_tolerance",
    ]


class TestScalar:
    def test_exact_string_forms(self):
        assert to_scalar("1/2") == Fraction(1, 2)
        assert to_scalar("0.25") == Fraction(1, 4)
        assert to_scalar(7) == Fraction(7)
        assert to_scalar("-3/9") == Fraction(-1, 3)

    def test_integral_values_are_ints(self):
        for raw, value in ((7, 7), ("6/2", 3), (Fraction(4, 2), 2), ("2.0", 2), ("1e2", 100)):
            scalar = to_scalar(raw)
            assert type(scalar) is int and scalar == value
        assert type(to_scalar("1/2")) is Fraction
        assert type(to_scalar(Fraction(-3, 9))) is Fraction

    def test_floats_rejected(self):
        with pytest.raises(TverbergError):
            to_scalar(0.5)

    def test_bools_rejected(self):
        for flag in (True, False):
            with pytest.raises(TverbergError, match="not an exact scalar"):
                to_scalar(flag)
        with pytest.raises(TverbergError):
            jsonio.point_set_from_obj({"dim": 2, "points": [{"id": 1, "coords": [1, True]}]})

    def test_bad_strings_rejected(self):
        with pytest.raises(TverbergError):
            to_scalar("1/0")
        with pytest.raises(TverbergError):
            to_scalar("abc")

    def test_huge_decimal_exponent_rejected_fast(self):
        # Fraction would compute 10**999999999 for these; the bound
        # rejects them before any arithmetic happens.
        for raw in ("1e999999999", "-2.5E-999999999", "1e4301"):
            with pytest.raises(TverbergError, match="exponent"):
                to_scalar(raw)
        # Fraction and int read every script's decimal digits, and so does
        # the bound: Arabic-Indic 10**7 and 4301, full-width -10001 and 10**8
        for raw in ("1e\u0661" + "\u0660" * 7, "1E-\uff11\uff10\uff10\uff10\uff11",
                    "2.5e\uff11" + "\uff10" * 8, "1e\u0664\u0663\u0660\u0661"):
            with pytest.raises(TverbergError, match="exponent"):
                to_scalar(raw)
        assert to_scalar("1e\u0664\u0662\u0669\u0669") == 10**4299
        # an exponent within the bound may still give more digits than
        # "num/den" output can print
        with pytest.raises(TverbergError, match="4300 digits"):
            to_scalar("1e4300")
        assert to_scalar("1e4299") == 10**4299
        assert to_scalar("25e-2") == Fraction(1, 4)

    # ASCII digits with leading zeros, zero itself, and other scripts' digits
    # (Arabic-Indic, full-width), which only Fraction's parser reads
    _digits = st.one_of(
        st.builds(str.__add__, st.text("0", max_size=3), st.text("0123456789", max_size=12)),
        st.text("0123456789\u0660\u0663\uff10\uff17_ ", max_size=6),
    )

    @given(st.builds(
        lambda *parts: "".join(parts),
        st.sampled_from(["", "-", "+", " ", "--"]),
        _digits,
        st.sampled_from(["/", "/", "", "//", " / ", "."]),
        _digits,
        st.sampled_from(["", "", " ", "\n", "e2", "/1"]),
    ))
    @example("9" * 4300 + "/" + "9" * 4300)
    @example("-" + "9" * 4301 + "/1")
    @example("1/" + "0" * 4301)
    @example("-0012/0034")
    @example("-5/000")
    @example("-0/7")
    def test_ratio_form_reads_as_fractions_parser_does(self, text):
        def outcome(parse):
            try:
                value = parse(text)
            except TverbergError as exc:
                return "error", str(exc)
            return type(value), value

        assert outcome(to_scalar) == outcome(core._parse_text)

    @given(st.one_of(
        st.booleans(), st.integers(), st.fractions(), st.floats(), st.none(),
        st.decimals(allow_nan=False), st.complex_numbers(), st.lists(st.integers(), max_size=2),
        st.builds("{}/{}".format, st.integers(), st.integers()), st.text(max_size=8),
    ))
    @example(True)
    @example(Fraction(-4, 2))
    @example("736/1")
    @example(10**100)
    def test_type_order_does_not_change_any_outcome(self, value):
        def outcome(convert):
            try:
                scalar = convert(value)
            except TverbergError as exc:
                return "error", str(exc)
            return type(scalar), scalar

        assert outcome(to_scalar) == outcome(oracles.to_scalar_fraction_first)

    def test_short_repr_cuts_ints_like_their_repr(self):
        # around the 4 * ECHO_LIMIT-bit switch to leading digits, at powers
        # of 2 and 10 and their neighbours, and past the digit limit
        tens = (58, 59, 60, 61, 72, 73, 4300, 6021, 30000)
        values = [10**k + e for k in tens for e in (-1, 0)]
        values += [2**b + e for b in (199, 200, 239, 240, 241, 14284, 99999) for e in (-1, 0)]
        got = [(short_repr(v), short_repr(-v)) for v in values]
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            for v, (pos, neg) in zip(values, got):
                for text, value in ((pos, v), (neg, -v)):
                    full = repr(value)
                    assert text == (full if len(full) <= ECHO_LIMIT else full[:ECHO_LIMIT] + "...")
        finally:
            sys.set_int_max_str_digits(previous)

    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6),
    )
    def test_arithmetic_round_trips(self, a, b):
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


class TestValidatePartition:
    """check_partition accepts a partition of the ids and names the first fault otherwise."""

    def test_disjoint_cover(self):
        P = line(10, 20, 30, 40)
        assert check_partition(from_iterables([{1, 3}, {2, 4}]), P.ids()) is None

    def test_overlap_rejected(self):
        P = line(10, 20, 30, 40)
        T = from_iterables([{1, 2}, {2, 4}])
        with pytest.raises(TverbergError, match="^invalid partition: id 2 in two parts$"):
            check_partition(T, P.ids())

    def test_uncovered_id_rejected(self):
        P = line(10, 20, 30, 40)
        T = from_iterables([{1, 2}, {4}])
        with pytest.raises(TverbergError, match="^invalid partition: does not cover the point set$"):
            check_partition(T, P.ids())

    def test_empty_part_rejected(self):
        P = line(10, 20)
        for T in (from_iterables([{1, 2}, set()]), from_iterables([set(), {1, 2}])):
            with pytest.raises(TverbergError, match="^invalid partition: empty part$"):
                check_partition(T, P.ids())

    def test_foreign_id_rejected(self):
        P = line(10, 20)
        T = from_iterables([{1, 2, 99}])
        with pytest.raises(TverbergError, match="^invalid partition: ids outside the point set$"):
            check_partition(T, P.ids())

    def test_no_parts_rejected(self):
        for ids in (frozenset(), line(10).ids()):
            with pytest.raises(TverbergError, match="^invalid partition: no parts$"):
                check_partition((), ids)

    def test_first_fault_is_named(self):
        # parts are read in order; membership is judged once all are read
        cases = [
            ([{1, 2}, {2, 3}, {99}], "id 2 in two parts"),
            ([{1, 3}, {3, 4}, {2, 4}], "id 3 in two parts"),
            ([{1, 99}, set()], "empty part"),
            ([{1}, {99}], "ids outside the point set"),
        ]
        for parts, fault in cases:
            with pytest.raises(TverbergError, match=f"^invalid partition: {fault}$"):
                check_partition(from_iterables(parts), line(10, 20, 30, 40).ids())


class TestParts:
    """PointSet.parts lists each part's points in id order, after check_partition."""

    def test_each_part_in_id_order(self):
        P = PointSet(1, (pt(9, 0), pt(2, 5), pt(5, 1), pt(1, 3)))
        assert P.parts(from_iterables([{9, 1, 5}, {2}])) == [[pt(1, 3), pt(5, 1), pt(9, 0)],
                                                             [pt(2, 5)]]

    def test_refuses_with_the_line_check_partition_raises(self):
        P = line(10, 20, 30, 40)
        cases = [
            [],
            [{1, 2}, {2, 3}, {99}],
            [{1, 3}, {3, 4}, {2, 4}],
            [{1, 99}, set()],
            [{1}, {99}],
            [{1, 2}, {4}],
            [{1, 2, 3, 4}, set()],
        ]
        for parts in cases:
            T = from_iterables(parts)
            with pytest.raises(TverbergError) as expected:
                check_partition(T, P.ids())
            assert str(expected.value).startswith("invalid partition: ")
            with pytest.raises(TverbergError, match=f"^{re.escape(str(expected.value))}$"):
                P.parts(T)


@st.composite
def rational_vectors(draw):
    """Ints, small fractions and negatives, with some ~300-digit denominators."""
    small = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=12))
    values = draw(st.lists(small, max_size=6))
    values += big_denominators(draw(st.randoms(use_true_random=False)), draw(st.integers(0, 3)))
    return draw(st.permutations(values))


class TestHomogeneous:
    """homogeneous(values) is the numerators over W, the lcm of the denominators, then W."""

    @settings(max_examples=300, deadline=None)
    @given(rational_vectors())
    @example([Fraction(1, 2), Fraction(-1, 3), 2])  # (3, -2, 12, 6)
    @example([4, -7])
    @example([Fraction(1, 6), Fraction(-1, 4)])  # (2, -3, 12): the lcm, not the product 24
    def test_canonical_integer_form(self, values):
        *numerators, w = homogeneous(values)
        assert [Fraction(x, w) for x in numerators] == values
        assert w == math.lcm(*(Fraction(v).denominator for v in values))
        assert math.gcd(*numerators, w) == 1


class TestTotalOrder1D:
    """lex_key on 1-D points is the strict total order the 1-D construction sorts by."""

    def test_by_coordinate(self):
        assert lex_key(pt(7, 3)) < lex_key(pt(2, 5))

    def test_tie_broken_by_id(self):
        assert lex_key(pt(7, 3)) > lex_key(pt(2, 3))
        assert lex_key(pt(2, 3)) < lex_key(pt(7, 3))

    @given(st.lists(st.tuples(st.integers(), st.fractions(max_denominator=100)),
                    min_size=3, max_size=3, unique_by=lambda t: t[0]))
    def test_strict_total_order_on_triples(self, triple):
        a, b, c = (lex_key(pt(i, v)) for i, v in triple)
        assert not a < a
        assert (a < b) != (b < a)  # totality: distinct ids never tie
        # transitivity
        if a < b and b < c:
            assert a < c


@st.composite
def keyed_points(draw):
    """Points in d = 1..3 with distinct ids in random order; coordinates
    negative, non-integral and often tied, on an axis or as a whole."""
    d = draw(st.integers(1, 3))
    values = st.sampled_from([Fraction(-7, 2), Fraction(-1), Fraction(-1, 3), Fraction(0),
                              Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(5, 2)])
    coord = values | st.fractions(min_value=-3, max_value=3, max_denominator=6)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=12))
    rows += rows[:1]  # the same coordinates under a second id
    ids = draw(st.permutations(range(len(rows))))
    return [Point(pid, tuple(row)) for pid, row in zip(ids, rows)]


@given(keyed_points())
def test_lex_key_orders_like_the_plain_tuple(points):
    assert sorted(points, key=lex_key) == sorted(points, key=lex_key_plain)
    for p in points:
        for q in points:
            assert (lex_key(p) < lex_key(q)) == (lex_key_plain(p) < lex_key_plain(q))


class TestPoint:
    def test_fields_are_read_only(self):
        p = Point(3, (Fraction(1), Fraction(2)))
        with pytest.raises(AttributeError):
            p.id = 2
        with pytest.raises(AttributeError):
            p.coords = ()
        assert p == Point(3, (Fraction(1), Fraction(2)))

    def test_dim_counts_coords(self):
        assert Point(3, (Fraction(1), Fraction(2))).dim == 2
        assert Point(1, ()).dim == 0


class TestPointSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(TverbergError, match=r"^duplicate point id 1$"):
            PointSet(1, (pt(1, 0), pt(1, 1)))

    def test_coord_length_checked(self):
        with pytest.raises(TverbergError, match=r"^point 1 has 1 coords, expected 2$"):
            PointSet(2, (pt(1, 0),))


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),  # bools among ints
        st.lists(st.text(), max_size=4),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans(), st.none()), inner,
                        max_size=4),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)

coordinates = st.one_of(
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.floats(allow_nan=False),
    st.fractions().map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["1/0", "abc", "", " 2 ", "6/2", "1e3", "-0.0"]),
)
point_entries = st.fixed_dictionaries({
    "id": st.one_of(st.integers(0, 12), st.booleans()),
    "coords": st.one_of(
        st.lists(st.integers(-9, 9), min_size=2, max_size=2),  # the common shape
        st.lists(coordinates, max_size=3),
        st.just("1/2"),
    ),
})
point_set_docs = st.fixed_dictionaries(
    {"dim": st.integers(0, 3), "points": st.lists(point_entries, max_size=6)})


class TestJson:
    def test_round_trip(self):
        P = from_coords([["1/2", 3], ["0.25", "-2/6"]])
        obj = jsonio.point_set_to_obj(P)
        again = jsonio.point_set_from_obj(obj)
        assert again == P

    def test_output_is_num_den_strings(self):
        P = line(3)
        obj = jsonio.point_set_to_obj(P)
        assert obj["points"][0]["coords"] == ["3/1"]

    def test_partition_round_trip(self):
        T = from_iterables([{3, 1}, {2}])
        obj = jsonio.partition_to_obj(T)
        assert obj == {"parts": [[1, 3], [2]]}
        assert jsonio.partition_from_obj(obj) == T

    def test_mixed_coordinate_forms_parse(self):
        raw = {"dim": 1, "points": [{"id": 1, "coords": [2]},
                                    {"id": 2, "coords": ["0.5"]},
                                    {"id": 3, "coords": ["7/2"]}]}
        P = jsonio.point_set_from_obj(raw)
        assert [p.coords[0] for p in P.points] == [
            Fraction(2), Fraction(1, 2), Fraction(7, 2)]

    def test_float_coordinates_rejected(self):
        raw = {"dim": 1, "points": [{"id": 1, "coords": [0.5]}]}
        with pytest.raises(TverbergError):
            jsonio.point_set_from_obj(raw)

    def test_dumps_stable(self):
        P = line(1, 2)
        text = jsonio.dumps(jsonio.point_set_to_obj(P))
        assert text == jsonio.dumps(jsonio.point_set_to_obj(P))
        json.loads(text)  # well-formed

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    @example({"parts": [[3, True, 1], (2, False)], 5: [], None: {}, True: "\u00e9\n\"", "": 1.5})
    @example([10**100, -(10**40), (), [[]], {"\x00": [None, float("nan")]}])
    def test_dumps_writes_exactly_json_dumps(self, value):
        assert jsonio.dumps(value) == json.dumps(value, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(point_set_docs)
    @example({"dim": 2, "points": [{"id": 1, "coords": [1, 2]}, {"id": 2, "coords": [3, True]}]})
    @example({"dim": 1, "points": [{"id": 1, "coords": [4]}, {"id": 1, "coords": ["8/2"]}]})
    @example({"dim": 2, "points": [{"id": 1, "coords": [1]}, {"id": 2, "coords": ["x", 0.5]}]})
    def test_point_set_read_matches_a_to_scalar_call_per_value(self, doc):
        # the same PointSet, int and Fraction coordinates alike, or the same first error
        def outcome(read):
            try:
                return repr(read(doc))
            except TverbergError as exc:
                return f"error: {exc}"

        assert outcome(jsonio.point_set_from_obj) == outcome(point_set_from_obj_per_value)


def test_every_export_resolves():
    missing = [name for name in tolerant_tverberg.__all__
               if not hasattr(tolerant_tverberg, name)]
    assert missing == []
