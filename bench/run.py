"""Benchmark of the tverberg command-line program.

Run from the root of the repository:

    python3 bench/run.py --workload verify --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

One process runs one workload, single-threaded, and drives the public CLI
in-process: it calls ``tolerant_tverberg.cli.main(argv)`` with stdout
captured, so interpreter start-up is not measured. The workload's inputs
are made from ``--seed``; one pass runs its fixed list of calls, and
passes repeat while the next one fits in ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see tracing.py). The last line of stdout is one JSON
object; the lines above it give every metric by name and unit. NOTES.md
says why each workload exists and what the benchmark leaves out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it
# The host's speed drifts by tens of percent, over seconds and between
# runs, for every process alike. So each timed piece of work is bracketed
# by a fixed calibration kernel, and its time is scaled to a host on which
# the kernel takes REFERENCE_KERNEL_S. Times are reported in those seconds.
REFERENCE_KERNEL_S = 0.0025

# Gated end-to-end metrics: every workload reports them, and they stay
# steady from seed to seed. The report lines also give the median and
# tail latency and each subcommand's median (see NOTES.md for why those
# are not gated).
END_TO_END = {
    "setup_s": "s",
    "ok_calls_per_s": "1/s",
    "call_s.geomean": "s",
    "peak_rss_mb": "MB",
}
SUBCOMMANDS = ("compute", "verify", "tolerance", "depth", "reduce-center", "gen")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="verify, search, construct or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the outputs of seed {DEFAULT_SEED} as the reference")
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        # -O strips the witness re-substitution asserts in lp.lp_feasible,
        # so it would measure a different program than the one shipped
        print("error: run without python -O; it removes the program's checks", file=sys.stderr)
        return 2
    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import workloads  # needs the program on sys.path

    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.write_reference:
        args.seed = DEFAULT_SEED
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return _run(cli, workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import_program():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tolerant_tverberg.cli as cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"found the package at {cli.__file__} instead")
    return cli


def _kernel() -> None:
    """Exact rational arithmetic and sorting, the program's own staples."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    sorted(((i * 7919) % 1009, i) for i in range(2000))


def _kernel_seconds() -> float:
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _speed_scale(before: float, after: float) -> float:
    """Factor from this host's seconds to reference seconds."""
    return REFERENCE_KERNEL_S / ((before + after) / 2)


class Pass:
    """The outcome of running every call of a workload once."""

    def __init__(self, size: int) -> None:
        self.seconds = [0.0] * size  # reference seconds
        self.scales = [1.0] * size
        self.codes = [0] * size
        self.digests = [""] * size
        self.problems: list[str | None] = [None] * size
        self.spans: list[list] = []  # filled by a traced pass

    @property
    def call_seconds(self) -> float:
        return sum(self.seconds)


def _run_pass(cli, calls, checked: dict, tracer=None) -> Pass:
    result = Pass(len(calls))
    if tracer:
        tracer.install()
    try:
        _run_calls(cli, calls, checked, tracer, result)
    finally:
        if tracer:
            result.spans = _scale_spans(tracer.take(), result.scales)
            tracer.remove()
    return result


def _scale_spans(spans: list[list], scales: list[float]) -> list[list]:
    """Scale each span by the factor of the root span it ran in; scales[k]
    belongs to the k-th root span (the k-th call of a pass)."""
    root_of: list[int] = []
    roots = 0
    for span in spans:
        if span[3] < 0:
            root_of.append(roots)
            roots += 1
        else:
            root_of.append(root_of[span[3]])
    for span, k in zip(spans, root_of):
        span[2] = span[1] + round((span[2] - span[1]) * scales[k])
    return spans


def _run_calls(cli, calls, checked: dict, tracer, result: Pass) -> None:
    for i, call in enumerate(calls):
        gc.collect()  # garbage of earlier calls is not this call's cost
        before = _kernel_seconds()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.open("cli.main") if tracer else None  # the root span
            start = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:  # argparse rejects a call
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a traceback is a defect to report
                code = -1
                print(f"{type(exc).__name__}: {exc}", file=err)
            wall = time.perf_counter() - start
            if tracer:
                tracer.close(span)
        result.scales[i] = _speed_scale(before, _kernel_seconds())
        result.seconds[i] = wall * result.scales[i]
        text = out.getvalue()
        if call.save is not None:
            call.save.write_text(text, encoding="utf-8")
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]
        key = (call.label, digest)
        if key not in checked:
            try:
                problem = call.check(code, text)
            except Exception as exc:  # noqa: BLE001 - a broken check is reported, not fatal
                problem = f"check raised {type(exc).__name__}: {exc}"
            if code == -1:
                problem = f"traceback: {err.getvalue().strip()}"
            checked[key] = problem
        result.codes[i], result.digests[i], result.problems[i] = code, digest, checked[key]


def _judge(calls, passes: list[Pass], reference: dict | None) -> tuple[list[bool], list[str]]:
    """Which calls failed in which pass, and the problems that make the
    run incorrect: every failure except the exit 2 of a call that is a
    known defect (the reference records the same calls as exit 2)."""
    failed: list[bool] = []
    wrong: list[str] = []
    first = passes[0]
    for p in passes:
        for i, call in enumerate(calls):
            problem = p.problems[i]
            if p.digests[i] != first.digests[i]:
                problem = "output differs between passes"
            elif reference is not None and call.label in reference:
                want = reference[call.label]
                fixed = want.startswith("2:") and p.codes[i] == 0  # only the checks apply
                if want != f"{p.codes[i]}:{p.digests[i]}" and not fixed:
                    problem = f"output differs from the reference ({want})"
            bad = problem is not None or p.codes[i] not in (0, 1)
            failed.append(bad)
            if bad and not (p.codes[i] == 2 and call.known_defect):
                wrong.append(f"{call.label}: {problem or f'exit {p.codes[i]}'}")
    return failed, sorted(set(wrong))


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return values[max(0, math.ceil(p / 100 * len(values)) - 1)]


def _tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return 50


def _timed_setup(workloads, args, workdir: Path):
    """Build the workload afresh; return its calls, the set-up time in
    reference seconds, and the speed factor."""
    before = _kernel_seconds()
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calls = workloads.build(args.workload, args.seed, workdir)
    wall = time.perf_counter() - start
    scale = _speed_scale(before, _kernel_seconds())
    return calls, wall * scale, scale


def _measure(cli, calls, seconds: float, kinds: list, checked: dict):
    """Run passes of each kind in turn while one more round fits."""
    start = time.perf_counter()
    rounds: list[list[Pass]] = []
    while True:
        began = time.perf_counter()
        rounds.append([_run_pass(cli, calls, checked, tracer) for tracer in kinds])
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return rounds


def _run(cli, workloads, args, workdir: Path) -> int:
    reference = None
    if args.seed == DEFAULT_SEED and REFERENCE.exists() and not args.write_reference:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)
    checked: dict = {}

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            calls, _, scale = _timed_setup(workloads, args, workdir)
        finally:
            setup_spans = tracer.take()
            tracer.remove()
        setup_spans = _scale_spans(setup_spans, [scale] * len(setup_spans))
        rounds = _measure(cli, calls, args.seconds, [None, tracer], checked)
        untraced = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        failed, wrong = _judge(calls, untraced + traced, reference)
        per_pass = [tracing.layer_metrics(p.spans) for p in traced]
        metrics, count_drift = _layer_summary(tracing, per_pass, setup_spans, untraced, traced)
        if count_drift:
            wrong.append(f"exact counts differ between traced passes: {count_drift}")
        if tracer.missing:
            print(f"note: the program has no {', '.join(tracer.missing)}; not traced")
        if tracer.attr_errors:
            print(f"note: {tracer.attr_errors} spans without attributes")
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracing.write_spans(trace_file, [p.spans for p in traced])
        units = tracing.METRICS
        print(f"workload {args.workload}, seed {args.seed}: {len(calls)} calls per pass, "
              f"{len(untraced)} untraced and {len(traced)} traced passes; spans in {trace_file.name}")
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            calls, seconds, _ = _timed_setup(workloads, args, workdir)
            setup_times.append(seconds)
        rounds = _measure(cli, calls, args.seconds, [None], checked)
        passes = [r[0] for r in rounds]
        failed, wrong = _judge(calls, passes, reference)
        metrics, extra = _end_to_end(calls, passes, failed, setup_times)
        units = END_TO_END
        print(f"workload {args.workload}, seed {args.seed}: {len(calls)} calls per pass, "
              f"{len(passes)} passes, {sum(p.call_seconds for p in passes):.1f} s of calls; "
              f"host time x {statistics.median(s for p in passes for s in p.scales):.3f} "
              f"= reference time")
        for line in extra:
            print(line)

    if args.write_reference:
        first = rounds[0][0]
        _write_reference(args.workload, {c.label: f"{code}:{d}" for c, code, d
                                         in zip(calls, first.codes, first.digests)})
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in wrong:
        print(f"WRONG {problem}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _end_to_end(calls, passes: list[Pass], failed: list[bool], setup_times: list[float]):
    """End-to-end metrics from untraced passes, and the report lines that
    go with them.

    Each call's latency is its median over the passes; a failed call
    counts as slower than any success. A statistic that lands on a
    failure reads as the mean call time of one pass, a penalty that does
    not grow with the number of passes that fit in the run.
    """
    size = len(calls)
    latency = []
    for i in range(size):
        samples = [math.inf if failed[k * size + i] else p.seconds[i]
                   for k, p in enumerate(passes)]
        latency.append(statistics.median(samples))
    measured = sum(p.call_seconds for p in passes)

    def finite(value: float) -> float:
        return value if math.isfinite(value) else measured / len(passes)

    ok = len(failed) - sum(failed)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ok_calls_per_s": ok / measured,
        "call_s.geomean": math.exp(statistics.fmean(math.log(finite(x)) for x in latency)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ordered = sorted(latency)
    tail_p = _tail_percentile(size)
    lines = [
        f"  call_s.p50 = {finite(_percentile(ordered, 50)):.6g} s",
        f"  call_s.tail = {finite(_percentile(ordered, tail_p)):.6g} s "
        f"(p{tail_p} of {size} calls, each its median over {len(passes)} passes)",
        f"  failed_frac = {sum(failed) / len(failed):.6g} ({sum(failed)} of {len(failed)} calls)",
    ]
    for command in SUBCOMMANDS:
        values = sorted(x for x, c in zip(latency, calls) if c.command == command)
        if values:
            name = command.replace("-", "_") + "_s"
            lines.append(f"  {name} = {finite(_percentile(values, 50)):.6g} s "
                         f"(median of {len(values)} calls)")
    return metrics, lines


def _layer_summary(tracing, per_pass: list[dict], setup_spans, untraced, traced):
    """Counts from the first traced pass (they must repeat in the others),
    times as medians over traced passes."""
    first = per_pass[0]
    drift = sorted(name for name in tracing.EXACT_COUNTS
                   if any(m[name] != first[name] for m in per_pass[1:]))
    metrics = {}
    for name in tracing.METRICS:
        if name == "trace.overhead_frac":
            base = statistics.median(p.call_seconds for p in untraced)
            metrics[name] = statistics.median(p.call_seconds for p in traced) / base - 1
        elif name in tracing.EXACT_COUNTS:
            metrics[name] = int(first[name])
        else:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    # the set-up's generator time belongs to the generate layer too
    metrics["generate.s"] += tracing.layer_metrics(setup_spans)["generate.s"]
    return metrics, ", ".join(drift)


def _write_reference(workload: str, entries: dict) -> None:
    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    data[workload] = entries
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} reference outputs for {workload}")


def _run_all(args, names) -> int:
    """Run every workload in its own process and print its report."""
    status = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.write_reference:
            argv.append("--write-reference")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
