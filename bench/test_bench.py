"""Tests of the benchmark itself: its checks, its exact counts, its refusals.

Run from the root of the repository (the traced runs take a few minutes):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, python: tuple[str, ...] = (sys.executable,)):
    return subprocess.run([*python, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)


def _oracle_tolerance(parts: list[list[int]]) -> int:
    """Largest t such that every removal of t points leaves the parts'
    intervals with a common point, by trying every removal."""
    points = [(c, k) for k, part in enumerate(parts) for c in part]
    for t in range(len(points) + 1):
        for removed in combinations(range(len(points)), t):
            kept = [[] for _ in parts]
            for idx, (c, k) in enumerate(points):
                if idx not in removed:
                    kept[k].append(c)
            if any(not part for part in kept) or max(map(min, kept)) > min(map(max, kept)):
                return t - 1
    raise AssertionError("removing every point always separates")


def test_interval_rule_matches_exhaustive_removal():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(2, 4)
        n = rng.randint(m, 9)
        coords = [rng.randint(0, 6) for _ in range(n)]  # ties on purpose
        labels = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(labels)
        parts = [[c for c, k in zip(coords, labels) if k == j] for j in range(m)]
        assert workloads.interval_tolerance(parts) == _oracle_tolerance(parts), parts


def test_error_exit_is_wrong_unless_a_known_defect():
    def check(code, out):
        return None if code == 0 else f"exit {code}"

    calls = [workloads.Call("new", ("compute",), check),
             workloads.Call("old", ("compute",), check, known_defect="ROADMAP 5(a)")]
    result = run.Pass(len(calls))
    result.codes = [2, 2]
    result.problems = [check(2, ""), check(2, "")]
    failed, wrong = run._judge(calls, [result], None)
    assert failed == [True, True]
    assert wrong == ["new: exit 2"]


def test_reference_error_exits_are_the_known_defects(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        calls = workloads.build(workload, run.DEFAULT_SEED, workdir)
        expected = {label for label, entry in reference[workload].items()
                    if entry.startswith("2:")}
        assert {c.label for c in calls if c.known_defect} == expected, workload


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    results = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    assert set(first) == set(tracing.METRICS)
    for name in tracing.EXACT_COUNTS:
        assert isinstance(first[name]["value"], int), name
        assert first[name]["value"] == second[name]["value"], name
    assert all(r["correct"] for r in results)
    if workload == "construct":
        assert first["lp.calls"]["value"] == 0
    else:
        assert first["lp.calls"]["value"] > 0


def test_refuses_python_O():
    proc = _run("--workload", "verify", python=(sys.executable, "-O"))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
