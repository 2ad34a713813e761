"""Integral coordinates are held as Python ints, others as Fractions.

The two are interchangeable only while nothing divides a coordinate with
``/``: on two ints that gives a float.  One test pins that the library
never does; the property checks that an instance gives the same answers
whether its integers arrive as ints, as Fractions or as "n/1" strings.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import settings, given, strategies as st

import tolerant_tverberg
from tolerant_tverberg import (
    Point,
    PointSet,
    brute_force_tverberg,
    center_to_tolerant_instance,
    chunk_and_merge,
    exact_tolerance,
    get_solver,
    halve_and_pair,
    jsonio,
    tolerant_tverberg_1d,
    tolerant_tverberg_lifted,
    tukey_depth,
    verify_tolerance,
)


def test_library_never_divides_with_a_slash():
    """Plotting converts to floats on purpose and is the one exception."""
    package = Path(tolerant_tverberg.__file__).parent
    checked, offenders = set(), []
    for path in sorted(package.glob("*.py")):
        if path.name == "svgplot.py":
            continue
        checked.add(path.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offenders.append(f"{path.name}:{node.lineno}")
    assert {"core.py", "jsonio.py", "lifting.py", "lp.py", "reduction.py"} <= checked
    assert offenders == []


def test_library_never_asserts():
    """Every re-check must survive ``python -O``, which strips ``assert``."""
    paths = sorted(Path(tolerant_tverberg.__file__).parent.glob("*.py"))
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert {"lp.py", "svgplot.py", "verification.py"} <= {path.name for path in paths}
    assert offenders == []


@st.composite
def integer_instances(draw):
    """d = 1..3, 2..9 points on a small grid, so ties and duplicate
    points are common; m = 1..3 and a query row for depth."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=2, max_size=9))
    return rows, draw(st.integers(1, 3)), draw(row)


def three_ways(rows, query):
    """The point set and the query point built from ints, from Fractions
    and from "n/1" strings read through jsonio."""
    d = len(query)
    as_int = PointSet(d, tuple(Point(i + 1, tuple(r)) for i, r in enumerate(rows)))
    as_fraction = PointSet(
        d, tuple(Point(i + 1, tuple(map(Fraction, r))) for i, r in enumerate(rows))
    )
    doc = {"dim": d, "points": [{"id": 0, "coords": [f"{c}/1" for c in query]}] + [
        {"id": i + 1, "coords": [f"{c}/1" for c in r]} for i, r in enumerate(rows)
    ]}
    read = jsonio.point_set_from_obj(doc)
    as_text = PointSet(d, read.points[1:])
    return [
        (as_int, Point(0, tuple(query))),
        (as_fraction, Point(0, tuple(map(Fraction, query)))),
        (as_text, read.points[0]),
    ]


def answers(P, m, c):
    """What the library computes for P, m and the query point c."""
    d, n = P.dim, len(P)
    out = {"brute": brute_force_tverberg(P, m)}
    if d == 1 and n >= 2 * m - 1:
        out["one_d"] = tolerant_tverberg_1d(P, m)
    t = (n // 2 ** (d - 1) + 1) // m - 2
    if t >= 0:
        out["lifted"] = tolerant_tverberg_lifted(P, m, t)
    for name in ("lift", "brute"):
        solver = get_solver(name, d)
        if n >= solver.points_needed(m):
            merged = chunk_and_merge(P, m, solver)
            out["merge_" + name] = (merged.partition, merged.tolerance)
    ids = sorted(P.ids())
    dealt = tuple(frozenset(ids[j::m]) for j in range(min(m, n)))
    out["witness"] = verify_tolerance(P, dealt, 1)
    out["exact"] = exact_tolerance(P, dealt)
    out["depth"] = tukey_depth(c, P)
    reduced = center_to_tolerant_instance(P, c)
    out["reduced"] = reduced
    out["dumps"] = jsonio.dumps(jsonio.point_set_to_obj(P))
    out["reduced_dumps"] = jsonio.dumps(jsonio.point_set_to_obj(reduced.lifted_points))
    projections = []
    while P.dim >= 2 and len(P) >= 2:
        P = halve_and_pair(P)[0]
        assert all(type(x) in (int, Fraction) for p in P.points for x in p.coords)
        projections.append(jsonio.dumps(jsonio.point_set_to_obj(P)))
    out["projections"] = projections
    return out


@settings(max_examples=100, deadline=None)
@given(integer_instances())
def test_answers_do_not_depend_on_the_representation(instance):
    rows, m, query = instance
    ways = three_ways(rows, query)
    for P, c in (ways[0], ways[2]):  # from ints, and parsed from "n/1"
        assert all(type(x) is int for p in (*P.points, c) for x in p.coords)
    first, *rest = [answers(P, m, c) for P, c in ways]
    for other in rest:
        assert other == first
