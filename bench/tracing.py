"""Spans around the package's public functions, installed from outside it.

A module calls a function through the name it looks up at call time: its
own global, or an attribute of an imported module. The tracer replaces
each such name with a wrapper that records a span (name, start, end,
parent) in memory, and puts the originals back when it is removed. The
program's own files are not changed, so an untraced run executes exactly
the shipped code.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from pathlib import Path

PACKAGE = "tolerant_tverberg"

# span name -> (module, attribute) pairs where callers look the function up
TARGETS = {
    "lp.lp_feasible": [("lp", "lp_feasible")],
    "lp.common_intersection_point": [("verification", "common_intersection_point"),
                                     ("solvers", "common_intersection_point")],
    "lp.point_in_hull": [("verification", "point_in_hull")],
    "verification.verify_tolerance": [("cli", "verify_tolerance"),
                                      ("verification", "verify_tolerance")],
    "verification.exact_tolerance": [("cli", "exact_tolerance")],
    "verification.tukey_depth": [("cli", "tukey_depth"), ("verification", "tukey_depth")],
    "verification.is_centerpoint": [("cli", "is_centerpoint")],
    "one_d.tolerant_tverberg_1d": [("cli", "tolerant_tverberg_1d"),
                                   ("lifting", "tolerant_tverberg_1d"),
                                   ("solvers", "tolerant_tverberg_1d")],
    "selection.select": [("one_d", "select")],
    "lifting.tolerant_tverberg_lifted": [("cli", "tolerant_tverberg_lifted"),
                                         ("lifting", "tolerant_tverberg_lifted"),
                                         ("solvers", "tolerant_tverberg_lifted")],
    "lifting.halve_and_pair": [("lifting", "halve_and_pair")],
    "lifting.lift_partition": [("lifting", "lift_partition")],
    "merging.chunk_and_merge": [("cli", "chunk_and_merge")],
    "merging.merge_partitions": [("merging", "merge_partitions")],
    "solvers.brute_force_tverberg": [("cli", "brute_force_tverberg"),
                                     ("solvers", "brute_force_tverberg")],
    "reduction.center_to_tolerant_instance": [("cli", "center_to_tolerant_instance")],
    "generate.random_point_set": [("cli", "random_point_set"),
                                  ("generate", "random_point_set")],
    "jsonio.load_point_set": [("jsonio", "load_point_set")],
    "jsonio.load_partition": [("jsonio", "load_partition")],
    "jsonio.dumps": [("jsonio", "dumps")],
    "jsonio.point_set_to_obj": [("jsonio", "point_set_to_obj")],
}

# The root span of each call, cli.main, is opened by the benchmark itself.
VERIFIERS = {"verification.verify_tolerance", "verification.exact_tolerance",
             "verification.tukey_depth", "verification.is_centerpoint"}

# Per-layer metrics: name -> unit. Counts are exact integers per pass.
METRICS = {
    "lp.calls": "count", "lp.feasible": "count", "lp.infeasible": "count",
    "lp.cip.calls": "count", "lp.pih.calls": "count", "lp.cells": "count",
    "lp.self_s": "s", "lp.s_per_call": "s",
    "verification.removals_space": "count", "verification.removals_judged": "count",
    "verification.judged_ratio": "ratio", "verification.self_s": "s",
    "one_d.self_s": "s", "selection.calls": "count", "selection.s": "s",
    "lifting.halve_and_pair.calls": "count", "lifting.halve_and_pair.s": "s",
    "lifting.lift_partition.s": "s",
    "merging.blocks": "count", "merging.merge_partitions.s": "s",
    "solvers.brute.s": "s", "solvers.brute.lp_calls": "count",
    "reduction.s": "s", "generate.s": "s",
    "jsonio.load_s": "s", "jsonio.dump_s": "s",
    "cli.self_s": "s", "trace.overhead_frac": "ratio",
}
EXACT_COUNTS = [name for name, unit in METRICS.items() if unit == "count"]


def _arguments(func, args, kwargs) -> dict:
    return inspect.signature(func).bind(*args, **kwargs).arguments


def _lp_attrs(func, args, kwargs, result) -> dict:
    problem = _arguments(func, args, kwargs)["problem"]
    return {"cells": len(problem.equalities) * problem.num_vars,
            "feasible": bool(result.feasible)}


def _verify_attrs(func, args, kwargs, result) -> dict:
    a = _arguments(func, args, kwargs)
    n = len(a["point_set"])
    return {"space": math.comb(n, min(a["t"], n))}


def _depth_attrs(func, args, kwargs, result) -> dict:
    # the ascent judges every removal of size < depth, and some of size depth
    n = len(_arguments(func, args, kwargs)["point_set"])
    return {"space": sum(math.comb(n, r) for r in range(result + 1))}


def _merge_attrs(func, args, kwargs, result) -> dict:
    return {"blocks": len(_arguments(func, args, kwargs)["blocks"])}


ATTRS = {
    "lp.lp_feasible": _lp_attrs,
    "verification.verify_tolerance": _verify_attrs,
    "verification.tukey_depth": _depth_attrs,
    "merging.merge_partitions": _merge_attrs,
}


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []  # targets the program no longer has
        self.attr_errors = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, original):
        attrs = ATTRS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                try:
                    self.spans[idx][4] = attrs(original, args, kwargs, result)
                except (TypeError, KeyError, AttributeError):
                    self.attr_errors += 1
            return result

        return wrapper


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """Write the spans of every traced pass, one JSON array per line:
    [pass, span index, name, start ns, end ns, parent index, attrs]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for idx, span in enumerate(spans):
                fh.write(json.dumps([number, idx, *span]) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass (trace.overhead_frac is the caller's)."""
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[idx]

    def ancestors(idx: int):
        parent = spans[idx][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    lp = {"feasible": 0, "cells": 0, "judged": 0, "brute": 0}
    space = blocks = 0
    for idx, (name, _start, _end, _parent, attrs) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[idx]
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[idx] - child[idx]
        attrs = attrs or {}
        space += attrs.get("space", 0)
        blocks += attrs.get("blocks", 0)
        if name == "lp.lp_feasible":
            lp["feasible"] += attrs.get("feasible", False)
            lp["cells"] += attrs.get("cells", 0)
            above = set(ancestors(idx))
            lp["judged"] += bool(above & VERIFIERS)
            lp["brute"] += "solvers.brute_force_tverberg" in above

    lp_calls = count.get("lp.lp_feasible", 0)
    lp_self = self_by_layer.get("lp", 0.0)
    return {
        "lp.calls": lp_calls,
        "lp.feasible": lp["feasible"],
        "lp.infeasible": lp_calls - lp["feasible"],
        "lp.cip.calls": count.get("lp.common_intersection_point", 0),
        "lp.pih.calls": count.get("lp.point_in_hull", 0),
        "lp.cells": lp["cells"],
        "lp.self_s": lp_self,
        "lp.s_per_call": lp_self / lp_calls if lp_calls else 0.0,
        "verification.removals_space": space,
        "verification.removals_judged": lp["judged"],
        "verification.judged_ratio": lp["judged"] / space if space else 0.0,
        "verification.self_s": self_by_layer.get("verification", 0.0),
        "one_d.self_s": self_by_layer.get("one_d", 0.0),
        "selection.calls": count.get("selection.select", 0),
        "selection.s": total.get("selection.select", 0.0),
        "lifting.halve_and_pair.calls": count.get("lifting.halve_and_pair", 0),
        "lifting.halve_and_pair.s": total.get("lifting.halve_and_pair", 0.0),
        "lifting.lift_partition.s": total.get("lifting.lift_partition", 0.0),
        "merging.blocks": blocks,
        "merging.merge_partitions.s": total.get("merging.merge_partitions", 0.0),
        # brute force is entered once per call or block, never nested
        "solvers.brute.s": total.get("solvers.brute_force_tverberg", 0.0),
        "solvers.brute.lp_calls": lp["brute"],
        "reduction.s": total.get("reduction.center_to_tolerant_instance", 0.0),
        "generate.s": total.get("generate.random_point_set", 0.0),
        "jsonio.load_s": total.get("jsonio.load_point_set", 0.0)
        + total.get("jsonio.load_partition", 0.0),
        "jsonio.dump_s": total.get("jsonio.dumps", 0.0)
        + total.get("jsonio.point_set_to_obj", 0.0),
        "cli.self_s": self_by_layer.get("cli", 0.0),
    }
