import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations

import pytest

from tolerant_tverberg import cli, is_centerpoint, random_point_set, render_svg, tukey_depth
from tolerant_tverberg.cli import main
from tolerant_tverberg.jsonio import dumps, point_set_to_obj


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
])
def test_bad_m_or_t_is_exit_2(tmp_path, capsys, flags, message):
    pts = tmp_path / "p.json"
    pts.write_text(dumps(point_set_to_obj(random_point_set(20, 2, seed=1))))
    assert main(["compute", "--input", str(pts), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_depth_runs_tukey_depth_once(tmp_path, capsys, monkeypatch):
    P = random_point_set(9, 2, seed=3)
    pts = tmp_path / "pts.json"
    pts.write_text(dumps(point_set_to_obj(P)))
    centroid = [sum(p.coords[k] for p in P.points) / len(P) for k in range(2)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return tukey_depth(*args, **kwargs)

    monkeypatch.setattr(cli, "tukey_depth", counting)
    assert main(["depth", "--input", str(pts), "--point", ",".join(map(str, centroid))]) == 0
    assert len(calls) == 1
    c = calls[0][0]
    center = "true" if is_centerpoint(c, P) else "false"
    assert capsys.readouterr().out == f"depth={tukey_depth(c, P)} centerpoint={center}\n"


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


@pytest.mark.parametrize("budget,code,out", [("231", 2, ""), ("232", 0, "2\n")])
def test_tolerance_budget_is_a_total_over_levels(line11, tmp_path, capsys, budget, code, out):
    # levels t = 0..3 enumerate 1 + 11 + 55 + 165 = 232 removal sets
    part = tmp_path / "part.json"
    assert main(["compute", "--input", line11, "--algorithm", "one_d",
                 "--m", "3", "--output", str(part)]) == 0
    assert main(["tolerance", "--input", line11, "--partition", str(part),
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
