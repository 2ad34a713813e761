"""The benchmark's workloads: seeded inputs, the call list of one pass, and
the checks each call's output must pass.

A workload is built once per set-up. Building it writes every input file
into the work directory and returns the fixed list of CLI calls that make
up one pass. Every call carries a check, which needs no LP: it tests the
output against the paper's guarantees and against what the benchmark
knows about the input. The reasons for each workload are in NOTES.md.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from tolerant_tverberg import generate, jsonio

# A check gets (exit code, stdout) and returns a problem, or None when the
# output is right. A check may record facts in the workload's shared state
# for a later call of the same pass to use.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Call:
    label: str  # unique within the workload, e.g. "A1.verify"
    argv: tuple[str, ...]
    check: Check
    save: Path | None = None  # stdout is written here, as a later call's input
    known_defect: str = ""  # a defect that makes this call exit 2 today

    @property
    def command(self) -> str:
        return self.argv[0]


WORKLOADS = ("verify", "search", "construct")


def build(name: str, seed: int, workdir: Path) -> list[Call]:
    """Write the inputs of workload ``name`` for ``seed`` and return its calls."""
    builders = {"verify": _verify, "search": _search, "construct": _construct}
    # str seeds hash with SHA-512, so the inputs do not depend on PYTHONHASHSEED
    rng = random.Random(f"{name}:{seed}")
    return _spread(builders[name](rng, workdir))


def _spread(groups: list[tuple[str, list[Call]]]) -> list[Call]:
    """Order the call groups so that each family's groups are spread evenly
    over the pass.

    The machine's speed drifts over seconds, so a family whose calls ran
    back to back would report the speed of one stretch of time. A group
    (say compute, then verify of its partition) stays together.
    """
    size = Counter(family for family, _ in groups)
    seen: Counter[str] = Counter()
    keyed = []
    for order, (family, group) in enumerate(groups):
        keyed.append(((seen[family] + 0.5) / size[family], order, group))
        seen[family] += 1
    return [call for _, _, group in sorted(keyed, key=lambda x: x[:2]) for call in group]


# --- verify: lifted partitions judged by the exhaustive verifier ----------

VERIFY_FAMILIES = (
    # (prefix, instances, n, dim, m, t, checks after the compute call)
    ("A", 6, 22, 2, 3, 2, ("verify",)),
    ("B", 24, 10, 2, 2, 1, ("verify", "tolerance")),
    ("C", 4, 20, 3, 2, 1, ("verify",)),
)


def _verify(rng: random.Random, workdir: Path):
    groups = []
    for prefix, count, n, dim, m, t, checks in VERIFY_FAMILIES:
        for i in range(count):
            tag = f"{prefix}{i}"
            path, _ = _library_points(workdir / f"{tag}.json", n, dim, rng)
            part = workdir / f"{tag}.part.json"
            calls = []
            groups.append((prefix, calls))
            calls.append(Call(
                f"{tag}.compute",
                ("compute", "--input", str(path), "--algorithm", "lift",
                 "--m", str(m), "--t", str(t)),
                _partition_check(n, m, t),
                save=part,
            ))
            for sub in checks:
                if sub == "verify":
                    # the paper guarantees every lifted partition at its t
                    calls.append(Call(
                        f"{tag}.verify",
                        ("verify", "--input", str(path), "--partition", str(part),
                         "--t", str(t)),
                        _exit_check(0),
                    ))
                else:
                    calls.append(Call(
                        f"{tag}.tolerance",
                        ("tolerance", "--input", str(path), "--partition", str(part)),
                        _tolerance_check(t),
                    ))
    return groups


# --- search: depth, centerpoint reduction and brute-force solving ----------

DEPTH_SETS = 6  # n alternates 11, 12
REDUCED_SETS = 12  # n = 9
BRUTE_SETS = 10  # n = 7, m = 3
CHUNK_SIZES = (20, 21) * 2
DEFECT_5A_SIZE = 20  # chunk_merge --solver brute exits 2 here: "13 > cap 12"


def _search(rng: random.Random, workdir: Path):
    groups = []
    state: dict[str, bool] = {}
    for i in range(DEPTH_SETS):
        n = 11 + i % 2
        path, pts = _library_points(workdir / f"D{i}.json", n, 2, rng)
        centroid = _centroid(pts)
        vertex = min(pts)  # the lexicographic minimum is a hull vertex
        calls = []
        groups.append(("D", calls))
        calls.append(Call(
            f"D{i}.depth_center",
            ("depth", "--input", str(path), "--point", _point_arg(centroid)),
            _depth_check(n, 2),
        ))
        calls.append(Call(
            f"D{i}.depth_vertex",
            ("depth", "--input", str(path), "--point", _point_arg(vertex)),
            _depth_check(n, 2, exact=1),
        ))
    for i in range(REDUCED_SETS):
        n, dim = 9, 2
        path, pts = _library_points(workdir / f"R{i}.json", n, dim, rng)
        query = _point_arg(_centroid(pts))
        reduced = workdir / f"R{i}.reduced.json"
        t = -(-n // (dim + 1)) - 1
        key = f"R{i}"
        calls = []
        groups.append(("R", calls))
        calls.append(Call(
            f"R{i}.depth",
            ("depth", "--input", str(path), "--point", query),
            _depth_check(n, dim, state=state, key=key),
        ))
        calls.append(Call(
            f"R{i}.reduce_center",
            ("reduce-center", "--input", str(path), "--point", query),
            _reduced_check(pts, t),
            save=reduced,
        ))
        calls.append(Call(
            f"R{i}.verify",
            ("verify", "--input", str(reduced), "--partition", str(reduced), "--t", str(t)),
            _paired_verify_check(state, key, t),
        ))
    for i in range(BRUTE_SETS):
        path, _ = _library_points(workdir / f"F{i}.json", 7, 2, rng)
        groups.append(("F", [Call(
            f"F{i}.brute",
            ("compute", "--input", str(path), "--algorithm", "brute", "--m", "3"),
            _partition_check(7, 3, 0),
        )]))
    for i, n in enumerate(CHUNK_SIZES):
        path, _ = _library_points(workdir / f"M{i}.json", n, 2, rng)
        per_block = (2 + 1) * (3 - 1) + 1  # brute solver's n_A(m) in the plane
        groups.append((f"M{n}", [Call(
            f"M{i}.chunk_merge_{n}",
            ("compute", "--input", str(path), "--algorithm", "chunk_merge", "--m", "3",
             "--solver", "brute"),
            _partition_check(n, 3, n // per_block - 1, blocks=n // per_block),
            known_defect="ROADMAP 5(a)" if n == DEFECT_5A_SIZE else "",
        )]))
    return groups


# --- construct: the paper's constructions on large inputs, no LP ----------

LINE_POINTS = 20_000
SPACE_POINTS = 10_000
GRID = 10**6
CHUNK_MS = (2, 3, 4, 5)
GEN_CALLS = ((2, 60),) * 3 + ((3, 24),) * 3 + ((2, 30),) * 6 + ((3, 16),) * 6


def _construct(rng: random.Random, workdir: Path):
    groups = []
    # distinct coordinates on the line, so the interval rule's exact
    # tolerance must equal the construction's guarantee
    line = [(c,) for c in rng.sample(range(GRID), LINE_POINTS)]
    plane = [(rng.randint(0, GRID), rng.randint(0, GRID)) for _ in range(SPACE_POINTS)]
    space = [tuple(rng.randint(0, GRID) for _ in range(3)) for _ in range(SPACE_POINTS)]
    inputs = {}
    for dim, rows in ((1, line), (2, plane), (3, space)):
        path = workdir / f"P{dim}.json"
        _write_rows(path, rows)
        inputs[dim] = (path, rows)

    path, rows = inputs[1]
    groups.append(("one_d", [Call(
        "P1.one_d",
        ("compute", "--input", str(path), "--algorithm", "one_d", "--m", "3"),
        _one_d_check(rows, 3, exact=True),
    )]))
    for dim in (2, 3):
        path, rows = inputs[dim]
        t = (len(rows) // 2 ** (dim - 1) + 1) // 3 - 2
        groups.append(("lift", [Call(
            f"P{dim}.lift",
            ("compute", "--input", str(path), "--algorithm", "lift", "--m", "3",
             "--t", str(t)),
            _partition_check(len(rows), 3, t),
        )]))
    for dim in (1, 2, 3):
        path, rows = inputs[dim]
        solver = "1d" if dim == 1 else "lift"
        for m in CHUNK_MS:
            per_block = 2 ** (dim - 1) * (2 * m - 1)
            blocks = len(rows) // per_block
            check = (_one_d_check(rows, m, exact=False, tolerance=blocks - 1, blocks=blocks)
                     if dim == 1 else
                     _partition_check(len(rows), m, blocks - 1, blocks=blocks))
            groups.append(("chunk_merge", [Call(
                f"P{dim}.chunk_merge_{m}",
                ("compute", "--input", str(path), "--algorithm", "chunk_merge",
                 "--m", str(m), "--solver", solver),
                check,
            )]))
    for i, (dim, n) in enumerate(GEN_CALLS):
        gen_seed = rng.randrange(2**31)
        groups.append((f"gen_{dim}d_{n}", [Call(
            f"G{i}.gen_{dim}d_{n}",
            ("gen", "--n", str(n), "--dim", str(dim), "--seed", str(gen_seed)),
            _gen_check(n, dim),
        )]))
    return groups


# --- inputs ------------------------------------------------------------------

def _library_points(path: Path, n: int, dim: int, rng: random.Random):
    """A general-position set from the library's generator, written to path.

    Returns the path and the points as tuples of Fractions, ids 1..n.
    """
    point_set = generate.random_point_set(n, dim, seed=rng.randrange(2**31))
    path.write_text(jsonio.dumps(jsonio.point_set_to_obj(point_set)), encoding="utf-8")
    return path, [p.coords for p in point_set.points]


def _write_rows(path: Path, rows: list[tuple[int, ...]]) -> None:
    obj = {"dim": len(rows[0]),
           "points": [{"id": i + 1, "coords": list(r)} for i, r in enumerate(rows)]}
    path.write_text(json.dumps(obj), encoding="utf-8")


def _centroid(pts) -> tuple[Fraction, ...]:
    return tuple(sum(p[k] for p in pts) / len(pts) for k in range(len(pts[0])))


def _point_arg(coords) -> str:
    return ",".join(f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in coords)


# --- checks ------------------------------------------------------------------

def _exit_check(expected: int) -> Check:
    def check(code: int, out: str) -> str | None:
        return None if code == expected else f"exit {code}, expected {expected}"
    return check


def _parse_parts(out: str, m: int, ids) -> tuple[dict | None, str | None]:
    try:
        obj = json.loads(out)
        parts = obj["parts"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable partition: {exc}"
    if len(parts) != m or any(not part for part in parts):
        return None, f"expected {m} nonempty parts"
    flat = [pid for part in parts for pid in part]
    if len(flat) != len(set(flat)) or set(flat) != set(ids):
        return None, "parts do not partition the input ids"
    return obj, None


def _partition_check(n: int, m: int, tolerance: int, blocks: int | None = None) -> Check:
    """The partition covers the input ids 1..n and reports the expected
    tolerance (and, for chunk_merge, floor(n / n_A(m)) blocks)."""
    ids = range(1, n + 1)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        obj, problem = _parse_parts(out, m, ids)
        if problem:
            return problem
        if obj.get("guaranteed_tolerance") != tolerance:
            return f"guaranteed_tolerance {obj.get('guaranteed_tolerance')}, expected {tolerance}"
        if blocks is not None and obj.get("stats", {}).get("blocks") != blocks:
            return f"blocks {obj.get('stats', {}).get('blocks')}, expected {blocks}"
        return None
    return check


def _one_d_check(rows, m: int, exact: bool, tolerance: int | None = None,
                 blocks: int | None = None) -> Check:
    """1-D partitions: the interval rule's exact tolerance equals (one_d) or
    is at least (chunk_merge) the reported guarantee."""
    coords = {i + 1: r[0] for i, r in enumerate(rows)}
    if tolerance is None:
        tolerance = (len(rows) + 1) // m - 2  # m(t+2)-1 <= n, the tight 1-D bound
    base = _partition_check(len(rows), m, tolerance, blocks)

    def check(code: int, out: str) -> str | None:
        problem = base(code, out)
        if problem:
            return problem
        actual = interval_tolerance([[coords[i] for i in part]
                                     for part in json.loads(out)["parts"]])
        if actual < tolerance or (exact and actual != tolerance):
            return f"interval-rule tolerance {actual}, guaranteed {tolerance}"
        return None
    return check


def interval_tolerance(parts: list[list[int]]) -> int:
    """Exact tolerance of a partition of points on the line.

    On the line every hull is an interval, and the intervals lose their
    common point exactly when some part is emptied, or when some part i
    ends strictly left of where some part j starts. For a cut after value
    v that costs the points of i right of v plus the points of j at or
    left of v. The tolerance is the cheapest such removal, minus one.
    """
    best = min(len(part) for part in parts)
    sizes = [len(part) for part in parts]
    events = sorted((c, k) for k, part in enumerate(parts) for c in part)
    left = [0] * len(parts)
    for idx, (c, k) in enumerate(events):
        left[k] += 1
        if idx + 1 < len(events) and events[idx + 1][0] == c:
            continue  # a cut must fall strictly between two values
        for i in range(len(parts)):
            for j in range(len(parts)):
                if i != j:
                    best = min(best, sizes[i] - left[i] + left[j])
    return best - 1


def _tolerance_check(at_least: int) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if not out.strip().lstrip("-").isdigit() or int(out) < at_least:
            return f"tolerance {out.strip()!r}, guaranteed at least {at_least}"
        return None
    return check


def _depth_check(n: int, dim: int, exact: int | None = None,
                 state: dict | None = None, key: str = "") -> Check:
    """centerpoint= agrees with depth >= ceil(n/(d+1))."""
    required = -(-n // (dim + 1))

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        fields = dict(f.split("=", 1) for f in out.split() if "=" in f)
        if set(fields) != {"depth", "centerpoint"} or not fields["depth"].isdigit():
            return f"unreadable depth line {out.strip()!r}"
        depth, center = int(fields["depth"]), fields["centerpoint"] == "true"
        if center != (depth >= required):
            return f"centerpoint={fields['centerpoint']} disagrees with depth {depth}"
        if exact is not None and depth != exact:
            return f"depth {depth}, expected {exact}"
        if state is not None:
            state[key] = center
        return None
    return check


def _reduced_check(pts, t: int) -> Check:
    n, dim = len(pts), len(pts[0])

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            obj = json.loads(out)
        except ValueError as exc:
            return f"unreadable reduced instance: {exc}"
        ids = [p["id"] for p in obj.get("points", [])]
        if obj.get("t") != t or obj.get("dim") != dim + 1 or len(ids) != n + 2 * (t + 1):
            return "reduced instance has the wrong t, dimension or size"
        _, problem = _parse_parts(json.dumps({"parts": obj.get("parts")}), 2, ids)
        return problem
    return check


def _paired_verify_check(state: dict, key: str, t: int) -> Check:
    """The reduced instance is t-tolerant exactly when depth said centerpoint."""
    def check(code: int, out: str) -> str | None:
        if key not in state:
            return "paired depth call gave no verdict"
        expected = 0 if state[key] else 1
        if code != expected:
            return f"exit {code}, but the paired depth call says exit {expected}"
        if code == 1:
            try:
                removal = json.loads(out)["removal_ids"]
            except (ValueError, KeyError, TypeError):
                return "unreadable refutation witness"
            if len(removal) != t:
                return f"witness removes {len(removal)} points, expected {t}"
        return None
    return check


def _gen_check(n: int, dim: int) -> Check:
    """gen's output: n distinct integer grid points in general position."""
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            obj = json.loads(out)
            rows = [tuple(Fraction(c) for c in p["coords"]) for p in obj["points"]]
            if any(c.denominator != 1 for r in rows for c in r):
                return "coordinate off the integer grid"
            rows = [tuple(int(c) for c in r) for r in rows]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable point set: {exc}"
        if obj.get("dim") != dim or len(rows) != n or any(len(r) != dim for r in rows):
            return "wrong size or dimension"
        if any(not 0 <= c <= generate.DEFAULT_GRID for r in rows for c in r):
            return "coordinate off the integer grid"
        if len(set(rows)) != n:
            return "repeated point"
        for subset in combinations(rows, dim + 1):
            base = subset[0]
            if _det([[p[k] - base[k] for k in range(dim)] for p in subset[1:]]) == 0:
                return "points not in general position"
        return None
    return check


def _det(mat: list[list[int]]) -> int:
    if len(mat) == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))
