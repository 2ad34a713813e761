import argparse
import contextlib
import io
import json
import random
import shlex
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tolerant_tverberg import (
    cli, centerpoint_depth, generate, lp, random_point_set, render_svg, tukey_depth,
)
from tolerant_tverberg.cli import main
from tolerant_tverberg.jsonio import dumps, load_point_set, point_set_to_obj


@pytest.fixture
def line11(tmp_path):
    path = tmp_path / "pts.json"
    obj = {
        "dim": 1,
        "points": [{"id": i, "coords": [i]} for i in range(1, 12)],
    }
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def line4(tmp_path):
    path = tmp_path / "four.json"
    obj = {"dim": 1, "points": [{"id": i, "coords": [i]} for i in range(1, 5)]}
    path.write_text(json.dumps(obj))
    return str(path)


def test_compute_one_d(line11, tmp_path, capsys):
    out = tmp_path / "part.json"
    code = main(["compute", "--input", line11, "--algorithm", "one_d",
                 "--m", "3", "--output", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["guaranteed_tolerance"] == 2
    assert result["algorithm"] == "one_d"
    assert sorted(result["parts"][0]) == [3, 6, 9]
    assert result["stats"]["n"] == 11


def test_compute_then_verify_round_trip(line11, tmp_path):
    part = tmp_path / "part.json"
    assert main(["compute", "--input", line11, "--algorithm", "one_d",
                 "--m", "3", "--output", str(part)]) == 0
    t = json.loads(part.read_text())["guaranteed_tolerance"]
    assert main(["verify", "--input", line11, "--partition", str(part),
                 "--t", str(t)]) == 0
    assert main(["verify", "--input", line11, "--partition", str(part),
                 "--t", str(t + 1)]) == 1


def test_verify_refuted_writes_witness(line4, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"parts": [[1, 3], [2, 4]]}))
    witness = tmp_path / "w.json"
    code = main(["verify", "--input", line4, "--partition", str(part),
                 "--t", "1", "--output", str(witness)])
    assert code == 1
    ids = json.loads(witness.read_text())["removal_ids"]
    assert ids == [2]


def test_tolerance_prints_exact_value(line4, tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"parts": [[1, 3], [2, 4]]}))
    assert main(["tolerance", "--input", line4, "--partition", str(part)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_single_part_tolerance_is_counted(tmp_path, capsys, monkeypatch):
    """One 3-D part of 22 points: n - 1 with no LP and no budget."""
    monkeypatch.setattr(lp, "lp_feasible", lambda *args: pytest.fail("an LP was solved"))
    pts, part = tmp_path / "pts.json", tmp_path / "part.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(22, 3, seed=0))))
    part.write_text(json.dumps({"parts": [list(range(1, 23))]}))
    argv = ["tolerance", "--input", str(pts), "--partition", str(part), "--budget", "0"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("21\n", "")


def test_depth_output_format(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(
        {"dim": 1, "points": [{"id": i, "coords": [i]} for i in range(1, 6)]}))
    assert main(["depth", "--input", str(pts), "--point", "3"]) == 0
    assert capsys.readouterr().out.strip() == "depth=3 centerpoint=true"
    assert main(["depth", "--input", str(pts), "--point", "1"]) == 0
    assert capsys.readouterr().out.strip() == "depth=1 centerpoint=false"


def test_reduce_center(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(
        {"dim": 1, "points": [{"id": i, "coords": [i]} for i in range(1, 6)]}))
    out = tmp_path / "reduced.json"
    assert main(["reduce-center", "--input", str(pts), "--point", "3",
                 "--output", str(out)]) == 0
    reduced = json.loads(out.read_text())
    assert reduced["dim"] == 2
    assert reduced["t"] == 2
    assert len(reduced["points"]) == 5 + 6
    assert len(reduced["parts"]) == 2
    assert len(reduced["gadget_minus_ids"]) == 3


@pytest.mark.parametrize("dim,rows,point,lifted,parts,t,minus,plus", [
    (1, [(10, [4]), (3, [-1]), (7, ["1/2"]), (42, [9]), (5, [2])], "3/2",
     [(10, ["4/1", "0/1"]), (3, ["-1/1", "0/1"]), (7, ["1/2", "0/1"]),
      (42, ["9/1", "0/1"]), (5, ["2/1", "0/1"]),
      (43, ["3/2", "-1/1"]), (44, ["3/2", "-2/1"]), (45, ["3/2", "-3/1"]),
      (46, ["3/2", "1/1"]), (47, ["3/2", "2/1"]), (48, ["3/2", "3/1"])],
     [[3, 5, 7, 10, 42], [43, 44, 45, 46, 47, 48]], 2, [43, 44, 45], [46, 47, 48]),
    (2, [(8, [0, 0]), (2, [6, "1/3"]), (31, ["5/2", 4]), (17, [-3, 1]), (4, [1, -2]),
         (9, [2, 2])], "1/3,1",
     [(8, ["0/1", "0/1", "0/1"]), (2, ["6/1", "1/3", "0/1"]), (31, ["5/2", "4/1", "0/1"]),
      (17, ["-3/1", "1/1", "0/1"]), (4, ["1/1", "-2/1", "0/1"]), (9, ["2/1", "2/1", "0/1"]),
      (32, ["1/3", "1/1", "-1/1"]), (33, ["1/3", "1/1", "-2/1"]),
      (34, ["1/3", "1/1", "1/1"]), (35, ["1/3", "1/1", "2/1"])],
     [[2, 4, 8, 9, 17, 31], [32, 33, 34, 35]], 1, [32, 33], [34, 35]),
])
def test_reduce_center_output_bytes(tmp_path, capsys, dim, rows, point, lifted, parts, t,
                                    minus, plus):
    # input order kept, then the minus tower downward and the plus tower
    # upward, with ids counting on from the largest input id
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(
        {"dim": dim, "points": [{"id": i, "coords": c} for i, c in rows]}))
    assert main(["reduce-center", "--input", str(pts), "--point", point]) == 0
    expected = {
        "dim": dim + 1,
        "points": [{"id": i, "coords": c} for i, c in lifted],
        "parts": parts,
        "t": t,
        "gadget_minus_ids": minus,
        "gadget_plus_ids": plus,
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_gen_is_seed_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    for path in (a, b):
        assert main(["gen", "--n", "8", "--dim", "2", "--grid", "50",
                     "--seed", "7", "--output", str(path)]) == 0
    assert main(["gen", "--n", "8", "--dim", "2", "--grid", "50",
                 "--seed", "8", "--output", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_general_position(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--n", "12", "--dim", "2", "--grid", "30",
                 "--seed", "3", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    coords = [
        (Fraction(p["coords"][0]), Fraction(p["coords"][1])) for p in obj["points"]
    ]
    assert len(set(coords)) == len(coords)
    for a, b, c in combinations(coords, 3):
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert area2 != 0


def test_compute_outputs_byte_identical(line11, tmp_path):
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        main(["compute", "--input", line11, "--algorithm", "chunk_merge",
              "--m", "2", "--solver", "1d", "--output", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_compute_lift_requires_t(tmp_path, capsys):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(10, 2, seed=0))))
    code = main(["compute", "--input", str(pts), "--algorithm", "lift", "--m", "2"])
    assert code == 2
    assert "requires --t" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--algorithm", "lift", "--m", "3", "--t", "-5"], "t must be nonnegative, got t=-5"),
    (["--algorithm", "lift", "--m", "0", "--t", "1"], "m must be at least 1, got m=0"),
    (["--algorithm", "chunk_merge", "--solver", "brute", "--m", "0"],
     "m must be at least 1, got m=0"),
    (["--algorithm", "chunk_merge", "--solver", "lift", "--m", "-2"],
     "m must be at least 1, got m=-2"),
    (["--algorithm", "brute", "--m", "0"], "m must be at least 1, got m=0"),
    (["--algorithm", "brute", "--m", "-1"], "m must be at least 1, got m=-1"),
    (["--algorithm", "one_d", "--m", "0"], "m must be at least 1, got m=0"),
])
def test_bad_m_or_t_is_exit_2(tmp_path, capsys, flags, message):
    dim = 1 if flags[1] == "one_d" else 2
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(20, dim, seed=1))))
    assert main(["compute", "--input", str(pts), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


TEN_4000 = "1" + "0" * 4000  # printable, but a product of two is not
NINES_4300 = "9" * 4300  # the longest int argparse reads


@pytest.mark.parametrize("argv,message", [
    (["compute", "--input", "planar.json", "--algorithm", "one_d", "--m", "2"],
     "dimension: expected 1-D input, got 2-D"),
    (["compute", "--input", "planar.json", "--algorithm", "lift", "--m", "3", "--t", "4"],
     "too few points: need 2^(d-1)(m(t+2)-1) = 34, got 7"),
    (["verify", "--input", "planar.json", "--partition", "partial.json", "--t", "0"],
     "invalid partition: does not cover the point set"),
    (["verify", "--input", "planar.json", "--partition", "split.json", "--t", "2",
      "--budget", "5"],
     "instance too large: C(7,2) removal sets exceed the budget left, 5"),
    (["depth", "--input", "short.json", "--point", "0,0"],
     "point 1 has 1 coords, expected 2"),
    (["plot", "--input", "planar.json", "--removal", "99", "--output", "o.svg"],
     "invalid removal: ids outside the point set"),
    (["verify", "--input", "planar.json", "--partition", "overlap.json", "--t", "0"],
     "invalid partition: id 4 in two parts"),
    (["tolerance", "--input", "planar.json", "--partition", "empty_part.json"],
     "invalid partition: empty part"),
    (["verify", "--input", "planar.json", "--partition", "no_parts.json", "--t", "0"],
     "invalid partition: no parts"),
    (["verify", "--input", "planar.json", "--partition", "foreign.json", "--t", "0"],
     "invalid partition: ids outside the point set"),
    (["plot", "--input", "planar.json", "--partition", "overlap.json", "--output", "o.svg"],
     "invalid partition: id 4 in two parts"),
    (["plot", "--input", "planar.json", "--partition", "partial.json", "--output", "o.svg"],
     "invalid partition: does not cover the point set"),
    (["plot", "--input", "planar.json", "--partition", "empty_part.json", "--output", "o.svg"],
     "invalid partition: empty part"),
    (["depth", "--input", "points_not_list.json", "--point", "0"], "'points' must be a list"),
    (["depth", "--input", "text_id.json", "--point", "0"],
     "point id must be an integer, got 'x'"),
    (["depth", "--input", "coords_not_list.json", "--point", "0"],
     "coords of point 1 must be a list"),
    (["depth", "--input", "dim_0.json", "--point", "0"], "dimension must be positive, got 0"),
    (["tolerance", "--input", "planar.json", "--partition", "no_key.json"],
     "partition JSON must have 'parts'"),
    (["tolerance", "--input", "planar.json", "--partition", "parts_not_list.json"],
     "'parts' must be a list"),
    (["tolerance", "--input", "planar.json", "--partition", "text_part_id.json"],
     "each part must be a list of integer ids"),
    (["compute", "--input", "planar.json", "--algorithm", "chunk_merge", "--m", "2"],
     "algorithm 'chunk_merge' requires --solver"),
    (["gen", "--n", "0", "--dim", "2"], "bad generator parameters: n=0, dim=2, grid=1000"),
    (["gen", "--n", "10", "--dim", "1", "--grid", "3"],
     "could not reach general position for n=10, dim=1, grid=3"),
    (["plot", "--input", "planar.json", "--removal", "1,x", "--output", "o.svg"],
     "invalid removal: not an integer id: 'x'"),
    (["plot", "--input", "planar.json", "--removal", "9" * 5000, "--output", "o.svg"],
     "invalid removal: not an integer id: '" + "9" * 59 + "..."),
    (["depth", "--input", "planar.json", "--point", "1,2,3"],
     "dimension: query has dim 3, point set has 2"),
    (["reduce-center", "--input", "planar.json", "--point", "1,2,3"],
     "dimension: query has dim 3, point set has 2"),
    (["depth", "--input", "list.json", "--point", "0"],
     "point set JSON must have 'dim' and 'points'"),
    (["depth", "--input", "dim_only.json", "--point", "0,0"],
     "point set JSON must have 'dim' and 'points'"),
    (["verify", "--input", "planar.json", "--partition", "split.json", "--t", "0",
      "--budget", "-1"], "invalid budget: -1"),
    (["tolerance", "--input", "planar.json", "--partition", "split.json", "--budget", "-1"],
     "invalid budget: -1"),
    (["depth", "--input", "planar.json", "--point", "0,0", "--budget", "-5"],
     "invalid budget: -5"),
    (["verify", "--input", "planar.json", "--partition", "split3.json", "--t", "0",
      "--budget", "0"], "instance too large: C(7,0) removal sets exceed the budget left, 0"),
    (["verify", "--input", "planar.json", "--partition", "split.json", "--t", "0",
      "--budget", "-" + NINES_4300], "invalid budget: -" + "9" * 59 + "..."),
    (["tolerance", "--input", "planar.json", "--partition", "split3.json",
      "--budget", "-" + NINES_4300], "invalid budget: -" + "9" * 59 + "..."),
    (["verify", "--input", "planar.json", "--partition", "split.json", "--t",
      "-" + NINES_4300], "t must be nonnegative, got t=-" + "9" * 59 + "..."),
    (["compute", "--input", "planar.json", "--algorithm", "lift", "--m", "-" + NINES_4300,
      "--t", "0"], "m must be at least 1, got m=-" + "9" * 59 + "..."),
    (["compute", "--input", "planar.json", "--algorithm", "lift", "--m", "2",
      "--t", "-" + NINES_4300], "t must be nonnegative, got t=-" + "9" * 59 + "..."),
    (["compute", "--input", "planar.json", "--algorithm", "brute", "--m", NINES_4300],
     "no Tverberg " + "9" * 60 + "...-partition exists"),
    (["compute", "--input", "line.json", "--algorithm", "one_d", "--m", "-" + NINES_4300],
     "m must be at least 1, got m=-" + "9" * 59 + "..."),
    (["compute", "--input", "planar.json", "--algorithm", "chunk_merge", "--solver", "brute",
      "--m", "-" + NINES_4300], "m must be at least 1, got m=-" + "9" * 59 + "..."),
    (["depth", "--input", "dim_text.json", "--point", "0,0"], "'dim' must be an integer"),
    (["depth", "--input", "dim_bool.json", "--point", "0"], "'dim' must be an integer"),
    (["depth", "--input", "dim_big.json", "--point", "0"],
     "point 1 has 1 coords, expected " + "9" * 60 + "..."),
    (["depth", "--input", "dim_neg.json", "--point", "0"],
     "dimension must be positive, got -" + "9" * 59 + "..."),
    (["compute", "--input", "planar.json", "--algorithm", "chunk_merge", "--solver", "x" * 5000,
      "--m", "2"], "unknown solver '" + "x" * 59 + "... (choose from: brute, 1d, lift)"),
    (["depth", "--input", "no_coords.json", "--point", "0"], "each point needs 'id' and 'coords'"),
    (["depth", "--input", "no_id.json", "--point", "0"], "each point needs 'id' and 'coords'"),
])
def test_each_error_kind_is_one_exact_line(tmp_path, capsys, argv, message):
    docs = {
        "planar.json": point_set_to_obj(random_point_set(7, 2, seed=0)),
        "short.json": {"dim": 2, "points": [{"id": 1, "coords": [0]}]},
        "line.json": {"dim": 1, "points": [{"id": i, "coords": [i]} for i in (1, 2, 3)]},
        "points_not_list.json": {"dim": 1, "points": {}},
        "text_id.json": {"dim": 1, "points": [{"id": "x", "coords": [0]}]},
        "coords_not_list.json": {"dim": 1, "points": [{"id": 1, "coords": 0}]},
        "no_coords.json": {"dim": 1, "points": [{"id": 1}]},
        "no_id.json": {"dim": 1, "points": [{"coords": [0]}]},
        "dim_0.json": {"dim": 0, "points": [{"id": 1, "coords": []}]},
        "dim_text.json": {"dim": "2", "points": [{"id": 1, "coords": [0, 0]}]},
        "dim_bool.json": {"dim": True, "points": [{"id": 1, "coords": [0]}]},
        "dim_big.json": {"dim": int("9" * 4000), "points": [{"id": 1, "coords": [0]}]},
        "dim_neg.json": {"dim": -int("9" * 4000), "points": [{"id": 1, "coords": [0]}]},
        "partial.json": {"parts": [[1, 2], [3]]},
        "split.json": {"parts": [[1, 2, 3], [4, 5, 6, 7]]},
        "split3.json": {"parts": [[1, 2], [3, 4, 5], [6, 7]]},
        "overlap.json": {"parts": [[1, 2, 3, 4], [4, 5, 6, 7]]},
        "empty_part.json": {"parts": [[1, 2, 3, 4, 5, 6, 7], []]},
        "no_parts.json": {"parts": []},
        "foreign.json": {"parts": [[1, 2, 3], [4, 5, 6, 7, 99]]},
        "no_key.json": {"part": [[1, 2, 3, 4, 5, 6, 7]]},
        "parts_not_list.json": {"parts": {}},
        "text_part_id.json": {"parts": [[1, 2, 3], [4, 5, 6, "7"]]},
        "list.json": [],
        "dim_only.json": {"dim": 2},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / arg) if arg.endswith((".json", ".svg")) else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("argv,message", [
    (["depth", "--input", "big_coord.json", "--point", "0"], "JSON integer beyond 4300 digits"),
    (["depth", "--input", "big_id.json", "--point", "0"], "JSON integer beyond 4300 digits"),
    (["depth", "--input", "cut.json", "--point", "0"],
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["depth", "--input", "latin1.json", "--point", "0"],
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["gen", "--n", TEN_4000, "--dim", TEN_4000],
     "too many coordinates: n*dim = 1" + "0" * 59 + "... > 1000000"),
    (["gen", "--n", "5", "--dim", TEN_4000],
     "too many coordinates: n*dim = 5" + "0" * 59 + "... > 1000000"),
    (["gen", "--n", TEN_4000, "--dim", "2"],
     "could not reach general position for n=1" + "0" * 59 + "..., dim=2, grid=1000"),
    (["gen", "--n", "-" + TEN_4000, "--dim", "2"],
     "bad generator parameters: n=-1" + "0" * 58 + "..., dim=2, grid=1000"),
    (["compute", "--input", "tall.json", "--algorithm", "lift", "--m", "2", "--t", "0"],
     "too few points: need 2^(d-1)(m(t+2)-1) = "
     "597041526050694988853146080928680368055715917073863890807014..., got 2"),
    (["compute", "--input", "tall.json", "--algorithm", "chunk_merge", "--solver", "lift",
      "--m", "2"],
     "too few points for one block: need "
     "597041526050694988853146080928680368055715917073863890807014..., got 2"),
    (["compute", "--input", "line.json", "--algorithm", "lift", "--m", NINES_4300,
      "--t", NINES_4300], "too few points: need 2^(d-1)(m(t+2)-1) = 9" + "9" * 59 + "..., got 3"),
    (["compute", "--input", "line.json", "--algorithm", "one_d", "--m", NINES_4300],
     "too few points: need 1" + "9" * 59 + "..., got 3"),
    (["compute", "--input", "line.json", "--algorithm", "chunk_merge", "--solver", "brute",
      "--m", NINES_4300], "instance too large for brute force: blocks of 1" + "9" * 59
     + "... points > cap 12"),
])
def test_oversized_integers_are_one_exact_line(tmp_path, capsys, argv, message):
    # integers past the interpreter's 4300-digit limit for str() and int()
    texts = {
        "big_coord.json": '{"dim": 1, "points": [{"id": 1, "coords": [%s]}]}' % ("9" * 5000),
        "big_id.json": '{"dim": 1, "points": [{"id": %s, "coords": [1]}]}' % ("9" * 5000),
        "cut.json": "{",
        "tall.json": json.dumps({"dim": 20000, "points": [
            {"id": i, "coords": [0] * 19999 + [i]} for i in (1, 2)]}),
        "line.json": json.dumps({"dim": 1, "points": [
            {"id": i, "coords": [i]} for i in (1, 2, 3)]}),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "latin1.json").write_bytes(b"\xff")
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("n,dim", [(2003, 2), (1002, 1)])
def test_gen_refuses_a_pigeonholed_request_before_drawing(capsys, monkeypatch, n, dim):
    # 2 * 1001 points fill the 1001 vertical lines of the default planar
    # grid with no three on one; 1001 values fill the 1-D grid
    def scan(*args):
        raise AssertionError("the general-position scan ran")

    monkeypatch.setattr(generate, "_degenerate_index", scan)
    assert main(["gen", "--n", str(n), "--dim", str(dim)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: could not reach general position for n={n}, dim={dim}, grid=1000\n")


def test_gen_refuses_too_many_coordinates_before_drawing(capsys, monkeypatch):
    # 3 * 10^8 coordinates pass the pigeonhole test and would fill memory
    def randint(*args):
        raise AssertionError("a coordinate was drawn")

    monkeypatch.setattr(random.Random, "randint", randint)
    assert main(["gen", "--n", "1", "--dim", "300000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: too many coordinates: n*dim = 300000000 > 1000000\n"


def test_depth_runs_tukey_depth_once(tmp_path, capsys, monkeypatch):
    P = random_point_set(9, 2, seed=3)
    pts = tmp_path / "pts.json"
    pts.write_text(dumps(point_set_to_obj(P)))
    centroid = [Fraction(sum(p.coords[k] for p in P.points), len(P)) for k in range(2)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return tukey_depth(*args, **kwargs)

    monkeypatch.setattr(cli, "tukey_depth", counting)
    assert main(["depth", "--input", str(pts), "--point", ",".join(map(str, centroid))]) == 0
    assert len(calls) == 1
    c = calls[0][0]
    depth = tukey_depth(c, P)
    center = "true" if depth >= centerpoint_depth(len(P), P.dim) else "false"
    assert capsys.readouterr().out == f"depth={depth} centerpoint={center}\n"


def test_missing_file_is_exit_2(capsys):
    assert main(["depth", "--input", "/nonexistent.json", "--point", "1"]) == 2


def test_budget_exceeded_is_exit_2(tmp_path, capsys):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps(
        {"dim": 1, "points": [{"id": i, "coords": [i]} for i in range(1, 31)]}))
    part = tmp_path / "t.json"
    part.write_text(json.dumps(
        {"parts": [list(range(1, 16)), list(range(16, 31))]}))
    code = main(["verify", "--input", str(pts), "--partition", str(part),
                 "--t", "10", "--budget", "100"])
    assert code == 2


def test_smallest_part_refutation_charges_no_budget(tmp_path, capsys):
    """Deleting the 3-point part refutes t = 3 with no removal set
    enumerated, so it is the exit-1 witness under a budget of 5."""
    pts, part, witness = tmp_path / "p.json", tmp_path / "t.json", tmp_path / "w.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(7, 2, seed=0))))
    part.write_text(json.dumps({"parts": [[1, 2, 3], [4, 5, 6, 7]]}))
    code = main(["verify", "--input", str(pts), "--partition", str(part), "--t", "3",
                 "--budget", "5", "--output", str(witness)])
    assert code == 1
    assert json.loads(witness.read_text())["removal_ids"] == [1, 2, 3]


def test_verify_budget_is_charged_for_one_level(tmp_path, capsys):
    # the zigzag below at t = 2: verify charges the C(11,2) = 55 removals
    # of its one level, so 54 exits 2 and 55 gives the unbudgeted witness
    pts, part = tmp_path / "zigzag.json", tmp_path / "part.json"
    pts.write_text(json.dumps(
        {"dim": 2, "points": [{"id": i, "coords": [i, i % 2]} for i in range(1, 12)]}))
    part.write_text(json.dumps({"parts": [[3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]}))

    def verify(*budget):
        witness = tmp_path / "w.json"
        witness.unlink(missing_ok=True)
        code = main(["verify", "--input", str(pts), "--partition", str(part), "--t", "2",
                     *budget, "--output", str(witness)])
        out, err = capsys.readouterr()
        return code, out, err, witness.read_bytes() if witness.exists() else None

    code, out, err, witness = verify("--budget", "54")
    assert (code, out, witness) == (2, "", None)
    assert err.startswith("error: instance too large: C(11,2) removal sets")
    refuted = verify("--budget", "55")
    assert refuted[0] == 1 and refuted[3] is not None
    assert refuted == verify()


@pytest.mark.parametrize("budget,code,out", [("66", 2, ""), ("67", 0, "1\n")])
def test_tolerance_budget_is_a_total_over_levels(tmp_path, capsys, budget, code, out):
    # a planar 3-partition is enumerated: levels t = 0..2 take
    # 1 + 11 + 55 = 67 removal sets, and level 2 refutes
    pts = tmp_path / "zigzag.json"
    pts.write_text(json.dumps(
        {"dim": 2, "points": [{"id": i, "coords": [i, i % 2]} for i in range(1, 12)]}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"parts": [[3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]}))
    assert main(["tolerance", "--input", str(pts), "--partition", str(part),
                 "--budget", budget]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert "Traceback" not in captured.err


def test_depth_huge_exponent_is_exit_2(tmp_path, capsys):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps(
        {"dim": 2, "points": [{"id": 1, "coords": [0, 0]}, {"id": 2, "coords": [1, 1]}]}))
    assert main(["depth", "--input", str(pts), "--point", "1e999999999,0"]) == 2
    assert "exponent" in capsys.readouterr().err


def test_non_ascii_huge_exponent_is_exit_2(tmp_path, capsys):
    # Arabic-Indic 10**6 in --point, full-width 10**5 in a JSON coordinate:
    # the exponent bound refuses both before Fraction computes 10**exponent
    huge = "1e\uff11" + "\uff10" * 5
    for name, coord in (("p.json", 1), ("q.json", huge)):
        (tmp_path / name).write_text(json.dumps(
            {"dim": 2, "points": [{"id": 1, "coords": [0, 0]}, {"id": 2, "coords": [coord, 1]}]}))
    assert main(["depth", "--input", str(tmp_path / "p.json"), "--point",
                 "1e\u0661" + "\u0660" * 6 + ",0"]) == 2
    assert main(["depth", "--input", str(tmp_path / "q.json"), "--point", "0,0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("decimal exponent beyond +-4300" in line for line in err)


@pytest.mark.parametrize("kind", ["exponent", "digits", "letters"])
def test_depth_huge_coordinate_is_cut_short(tmp_path, capsys, kind):
    coord = {"exponent": "1e" + "9" * 100_000, "digits": "7" * 100_000,
             "letters": "x" * 100_000}[kind]
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps(
        {"dim": 2, "points": [{"id": 1, "coords": [0, 0]}, {"id": 2, "coords": [1, 1]}]}))
    for point in (f"{coord},0", f"0,0,{coord.replace('x', '1')}"):
        assert main(["depth", "--input", str(pts), "--point", point]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert all(len(line) < 200 for line in err.splitlines())


def test_chunk_merge_brute_solves_an_oversized_last_block(tmp_path, capsys):
    # 20 points make two blocks of n_A(3) = 7 in the plane; the last one has
    # 13 points, beyond the brute-force cap of 12
    pts = tmp_path / "p.json"
    assert main(["gen", "--n", "20", "--dim", "2", "--seed", "1",
                 "--output", str(pts)]) == 0
    part = tmp_path / "part.json"
    assert main(["compute", "--input", str(pts), "--algorithm", "chunk_merge",
                 "--m", "3", "--solver", "brute", "--output", str(part)]) == 0
    result = json.loads(part.read_text())
    assert result["guaranteed_tolerance"] == 1
    assert result["stats"]["blocks"] == 2
    assert main(["verify", "--input", str(pts), "--partition", str(part),
                 "--t", "1"]) == 0


def test_brute_beyond_the_cap_is_exit_2(tmp_path, capsys):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps(
        {"dim": 1, "points": [{"id": i, "coords": [i]} for i in range(1, 14)]}))
    assert main(["compute", "--input", str(pts), "--algorithm", "brute", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance too large for brute force: 13 > cap 12\n"


def test_chunk_merge_brute_blocks_over_the_cap_is_exit_2(tmp_path, capsys):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(40, 3, seed=1))))
    assert main(["compute", "--input", str(pts), "--algorithm", "chunk_merge",
                 "--m", "5", "--solver", "brute"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance too large for brute force: blocks of 17 points > cap 12\n"


def _run_main(argv, tmp_path):
    """Exit code, stdout, stderr and the bytes of o.svg/o.json after main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = {}
    for name in ("o.svg", "o.json"):
        path = tmp_path / name
        if path.exists():
            written[name] = path.read_bytes()
            path.unlink()
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("command,flag,value", [
    ("depth", "--point", "-1,2"),
    ("depth", "--point", "-1/2,-3"),
    ("reduce-center", "--point", "-1,2"),
    ("plot", "--removal", "-3,4"),
    ("plot", "--removal", "-x"),
])
def test_value_flag_accepts_a_leading_minus_when_spaced(tmp_path, command, flag, value):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(6, 2, seed=0))))
    argv = [command, "--input", str(pts)]
    if command != "depth":
        argv += ["--output", str(tmp_path / ("o.svg" if command == "plot" else "o.json"))]
    spaced = _run_main([*argv, flag, value], tmp_path)
    assert spaced == _run_main([*argv, f"{flag}={value}"], tmp_path)
    assert spaced[0] in (0, 2) and "Traceback" not in spaced[2]


@pytest.mark.parametrize("argv", [
    ["depth", "--point"],
    ["depth", "--point", "--budget", "5"],
    ["plot", "--removal"],
])
def test_value_flag_without_a_value_is_exit_2(tmp_path, capsys, argv):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(4, 2, seed=0))))
    with pytest.raises(SystemExit) as excinfo:
        main([argv[0], "--input", str(pts), *argv[1:]])
    assert excinfo.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# -- one parser per process --------------------------------------------------
# main reuses the parser that build_parser caches; build_parser.__wrapped__
# builds a fresh one, as every call did before the cache.

def _outcome(argv):
    """Exit code, from a return or a SystemExit, and stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pts, part = tmp_path / "p.json", tmp_path / "t.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(6, 2, seed=0))))
    part.write_text(json.dumps({"parts": [[1, 2, 3], [4, 5, 6]]}))
    calls = [
        ["verify", "--input", str(pts), "--partition", str(part), "--t", "0"],
        ["verify", "--input", str(pts), "--partition", str(part), "--t", "x"],
        ["--help"],
        ["depth", "--help"],
        [],
        ["depth", "--input", str(pts), "--point", "-1,2"],
        ["depth", "--input", str(pts), "--point", "1,2,3"],
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        expected = [_outcome(argv) for argv in calls]
    assert [code for code, _, _ in expected] == [1, 2, 0, 0, 2, 0, 2]
    assert expected[1][2].startswith("usage: tverberg verify ")
    assert expected[2][1].startswith("usage: tverberg ") and expected[2][2] == ""
    assert expected[4][2].endswith("the following arguments are required: command\n")
    assert expected[6][2].startswith("error: ")
    cli.build_parser()
    assert [_outcome(argv) for argv in calls] == expected
    assert [_outcome(argv) for argv in reversed(calls)] == expected[::-1]


def test_main_builds_no_parser_after_the_first_call(tmp_path, monkeypatch):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(4, 2, seed=0))))
    cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["depth", "--input", str(pts), "--point", "0,0"], ["gen", "--n", "3", "--dim", "2"],
                 ["verify"], ["--help"]):
        _outcome(argv)
    assert built == []
    cli.build_parser.__wrapped__()
    assert len(built) == 8  # the counter sees a build: the parser and its 7 subparsers


def test_usage_width_follows_columns_set_after_the_parser_is_built(monkeypatch):
    cli.build_parser()
    widths = {}
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = _outcome(["verify"])
        assert code == 2 and out == ""
        fresh = io.StringIO()  # what a parser built under these COLUMNS prints
        with contextlib.redirect_stderr(fresh), pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(["verify"])
        assert err == fresh.getvalue()
        widths[columns] = [len(line) for line in err.splitlines()[:-1]]  # the usage lines
    assert len(widths["200"]) == 1
    assert len(widths["40"]) > 1


def test_monkeypatched_library_name_is_reached_by_a_built_parser(tmp_path, monkeypatch):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(4, 2, seed=0))))
    argv = ["depth", "--input", str(pts), "--point", "0,0"]
    assert _outcome(argv)[0] == 0  # builds the parser, if no earlier test did
    monkeypatch.setattr(cli, "tukey_depth", lambda *args, **kwargs: 7)
    assert _outcome(argv) == (0, "depth=7 centerpoint=true\n", "")


def test_plot_emits_wellformed_svg(tmp_path):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(10, 2, seed=2))))
    part = tmp_path / "t.json"
    main(["compute", "--input", str(pts), "--algorithm", "lift", "--m", "2",
          "--t", "1", "--output", str(part)])
    svg = tmp_path / "out.svg"
    assert main(["plot", "--input", str(pts), "--partition", str(part),
                 "--removal", "1,5", "--output", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    body = svg.read_text()
    assert body.count("<circle") == 10
    assert body.count("<path") == 2  # one cross per removed point


def test_plot_rejects_1d(line11, tmp_path, capsys):
    svg = tmp_path / "o.svg"
    assert main(["plot", "--input", line11, "--output", str(svg)]) == 2


def test_render_svg_library_level():
    P = random_point_set(6, 2, seed=11)
    text = render_svg(P)
    ET.fromstring(text)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tolerant_tverberg.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "compute" in proc.stdout


def assert_one_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def command_argv(command, pts, part, svg):
    """One call per subcommand that reads a point set, and a partition
    where the subcommand takes one."""
    return {
        "verify": ["verify", "--input", pts, "--partition", part, "--t", "0"],
        "tolerance": ["tolerance", "--input", pts, "--partition", part],
        "depth": ["depth", "--input", pts, "--point", "1,1"],
        "compute": ["compute", "--input", pts, "--algorithm", "lift", "--m", "2", "--t", "0"],
        "reduce-center": ["reduce-center", "--input", pts, "--point", "1,1"],
        "plot": ["plot", "--input", pts, "--partition", part, "--output", svg],
    }[command]


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command,deep", [
    *((command, "input") for command in
      ("verify", "tolerance", "depth", "compute", "reduce-center", "plot")),
    *((command, "partition") for command in ("verify", "tolerance", "plot")),
])
def test_deeply_nested_json_is_exit_2(tmp_path, capsys, command, deep):
    pts, part = tmp_path / "p.json", tmp_path / "t.json"
    pts.write_text(json.dumps({"dim": 2, "points": [
        {"id": i, "coords": [i, i * i]} for i in range(1, 5)]}))
    part.write_text(json.dumps({"parts": [[1, 3], [2, 4]]}))
    (pts if deep == "input" else part).write_text(DEEP)
    assert main(command_argv(command, str(pts), str(part), str(tmp_path / "o.svg"))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("low,high", [("0", "1e400"), ("-1e308", "1e308")])
def test_plot_coordinate_beyond_float_is_exit_2(tmp_path, capsys, low, high):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps(
        {"dim": 2, "points": [{"id": 1, "coords": [low, 0]}, {"id": 2, "coords": [high, 1]}]}))
    assert main(["plot", "--input", str(pts), "--output", str(tmp_path / "o.svg")]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "o.svg").exists()


def test_plot_partition_with_unknown_ids_is_exit_2(tmp_path, capsys):
    pts, part = tmp_path / "p.json", tmp_path / "t.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(4, 2, seed=0))))
    part.write_text(json.dumps({"parts": [[1, 2], [3, 99]]}))
    assert main(["plot", "--input", str(pts), "--partition", str(part),
                 "--output", str(tmp_path / "o.svg")]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("flags", [
    ["compute", "--algorithm", "lift", "--m", "2", "--t", "0"],
    ["compute", "--algorithm", "chunk_merge", "--solver", "lift", "--m", "2"],
    ["depth", "--point", "0"],
])
def test_empty_point_list_is_exit_2(tmp_path, capsys, flags):
    # with no points, nothing bounds dim; lift would build 2 ** (dim - 1)
    pts = tmp_path / "p.json"
    pts.write_text('{"dim": 100000000, "points": []}')
    assert main([*flags, "--input", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'points' must not be empty\n"


def _two_point_line(tmp_path, coord):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"dim": 1, "points": [{"id": 1, "coords": [coord]}, {"id": 2, "coords": ["0"]}]}))
    return str(path)


@pytest.mark.parametrize("coord", ["1e4300", "0." + "0" * 4299 + "1", "1e-4300"],
                         ids=["1e4300", "1e-4300 as decimal", "1e-4300"])
@pytest.mark.parametrize("command", ["depth", "reduce-center"])
def test_scalar_beyond_printable_digits_is_exit_2(tmp_path, capsys, command, coord):
    # "num/den" output cannot print an int of more than 4300 digits, so
    # such a coordinate is refused on input, by every command alike
    assert main([command, "--input", _two_point_line(tmp_path, coord), "--point", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "beyond 4300 digits" in captured.err


def test_largest_printable_scalar_round_trips(tmp_path):
    out = tmp_path / "r.json"
    assert main(["reduce-center", "--input", _two_point_line(tmp_path, "1e4299"),
                 "--point", "0", "--output", str(out)]) == 0
    assert load_point_set(str(out)).by_id()[1].coords == (10**4299, 0)


def _assert_exit_contract(argv):
    """main(argv) returns: 2 with exactly one ``error:`` line, or 0/1 with
    nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert_one_error_line(err.getvalue())
    else:
        assert code in (0, 1) and err.getvalue() == "", (argv, err.getvalue())


# -- malformed documents, drawn by Hypothesis ------------------------------
# A valid point set and a partition of it, each given at most one flaw
# (often none), so that the commands also run on documents they accept.

_junk = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_scalars = st.integers(-4, 4) | st.sampled_from(["1/2", "-3/7", "0.25", "2e-3"])
_huge_scalars = st.sampled_from(["1e400", "-1e-400", "1e4300", 10**40, "9" * 5000])
_bad_scalars = st.sampled_from(["1/0", "nan", "x", "", 1.5]) | _junk
_bad_ids = st.sampled_from([-1, 10**30, -(10**40), "1", 1.0, True, None]) | _junk
_RAW = {"deep": DEEP, "empty": "", "open": "{", "huge exponent": "[1e999999]",
        "huge int": "9" * 5000}
_FLAWLESS = [None] * 3  # weight of the unflawed document among the flaws


def _point_set_text(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True))
    points = [{"id": pid, "coords": draw(st.lists(_scalars, min_size=dim, max_size=dim))}
              for pid in ids]
    doc = {"dim": dim, "points": points}
    point = draw(st.sampled_from(points))
    flaw = draw(st.sampled_from([*_FLAWLESS, "raw", "dim", "no points", "missing key",
                                 "point key", "id", "duplicate id", "coord", "huge coord",
                                 "coord count", "junk"]))
    if flaw == "raw":
        return ids, _RAW[draw(st.sampled_from(sorted(_RAW)))]
    if flaw == "dim":
        doc["dim"] = draw(st.sampled_from([0, -1, 10**8, "2", 2.0, True, None]))
    elif flaw == "no points":
        doc["points"] = []
    elif flaw == "missing key":
        doc = draw(st.sampled_from([{"dim": dim}, {"points": points}, points]))
    elif flaw == "point key":
        del point[draw(st.sampled_from(["id", "coords"]))]
    elif flaw == "id":
        point["id"] = draw(_bad_ids)
    elif flaw == "duplicate id":
        points.append(dict(points[0]))
    elif flaw == "coord":
        point["coords"][0] = draw(_bad_scalars)
    elif flaw == "huge coord":
        point["coords"][0] = draw(_huge_scalars)
    elif flaw == "coord count":
        point["coords"].append(0)
    elif flaw == "junk":
        doc = draw(_junk)
    return ids, json.dumps(doc)


def _partition_text(draw, ids):
    m = draw(st.integers(1, 3))
    parts = [[] for _ in range(m)]
    for pid in ids:
        parts[draw(st.integers(0, m - 1))].append(pid)
    doc = {"parts": parts}
    part = draw(st.sampled_from(parts))
    flaw = draw(st.sampled_from([*_FLAWLESS, "raw", "unknown id", "repeated id", "empty part",
                                 "id", "missing key", "junk"]))
    if flaw == "raw":
        return _RAW[draw(st.sampled_from(sorted(_RAW)))]
    if flaw == "unknown id":
        part.append(99)
    elif flaw == "repeated id":
        part.append(ids[0])
    elif flaw == "empty part":
        parts.append([])
    elif flaw == "id":
        part.append(draw(_bad_ids))
    elif flaw == "missing key":
        doc = parts
    elif flaw == "junk":
        doc["parts"] = draw(_junk)
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_malformed_documents_never_escape_main(data):
    ids, pts_text = _point_set_text(data.draw)
    part_text = _partition_text(data.draw, ids)
    with tempfile.TemporaryDirectory() as tmp:
        pts, part, svg = (str(Path(tmp, name)) for name in ("p.json", "t.json", "o.svg"))
        Path(pts).write_text(pts_text)
        Path(part).write_text(part_text)
        calls = [command_argv(name, pts, part, svg) for name in ("verify", "tolerance", "plot")]
        calls += [["verify", "--input", pts, "--partition", part, "--t", "2"]]
        calls += [[command, "--input", pts, "--point", point]
                  for command in ("depth", "reduce-center") for point in ("1/2", "1,1", "0,1,2")]
        calls += [["compute", "--input", pts, "--algorithm", algorithm, "--m", "2", "--t", "0"]
                  for algorithm in ("one_d", "lift", "brute")]
        for argv in calls:
            _assert_exit_contract(argv)


# -- malformed flags, drawn by Hypothesis ----------------------------------
# Comma-separated --point coordinates and --removal ids, each field valid
# or flawed, at any arity; passed both as --flag=value and as --flag value,
# where a leading "-" must reach the program rather than argparse.

_point_fields = st.sampled_from([
    "0", "1", "-1/2", "0.25", "2e-3", "", " ", "nan", "inf", "1/0", "x", "1.5.2",
    "1e999999", "1e4300", "-1e-4300", "0." + "0" * 4299 + "1", "9" * 5000])
_removal_fields = st.sampled_from([
    "1", "2", " 3", "-4", "99", "", " ", "1.5", "x", "1e3", "0x1", "9" * 5000])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(_point_fields, min_size=1, max_size=4),
       st.lists(_removal_fields, min_size=1, max_size=4))
def test_malformed_flags_never_escape_main(dim, coords, removal_ids):
    with tempfile.TemporaryDirectory() as tmp:
        pts, planar, svg = (str(Path(tmp, name)) for name in ("p.json", "q.json", "o.svg"))
        Path(pts).write_text(dumps(point_set_to_obj(random_point_set(4, dim, seed=0))))
        Path(planar).write_text(dumps(point_set_to_obj(random_point_set(4, 2, seed=0))))
        point, removal = ",".join(coords), ",".join(removal_ids)
        for form in (lambda flag, value: [f"{flag}={value}"], lambda flag, value: [flag, value]):
            _assert_exit_contract(["depth", "--input", pts, *form("--point", point)])
            _assert_exit_contract(["reduce-center", "--input", pts, *form("--point", point)])
            _assert_exit_contract(["plot", "--input", planar, "--output", svg,
                                   *form("--removal", removal)])


def test_readme_session_runs_as_written(tmp_path, monkeypatch):
    """Every ``tverberg`` line of the README's CLI session exits 0, in order,
    in an empty directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```")[1::2] if "tverberg gen" in b)
    lines = [line for line in block.splitlines() if line.startswith("tverberg ")]
    assert len(lines) > 1
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
