"""Command-line front end.

Exit codes: 0 success (and "tolerant" for verify), 1 refuted (verify
only), 2 any error.  All numeric JSON output uses exact "num/den"
strings, and identical inputs, seeds and flags produce byte-identical
files.  ``main`` may be called any number of times in one process; the
parser is built once, on the first call.  A value flag whose value
starts with "-", such as ``--point -1,2``, is read as that value, the
same as ``--point=-1,2``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any

from . import jsonio
from .core import Point, TverbergError, short_repr, to_scalar
from .generate import DEFAULT_GRID, random_point_set
from .lifting import tolerant_tverberg_lifted
from .merging import chunk_and_merge
from .one_d import max_tolerance_1d, tolerant_tverberg_1d
from .reduction import center_to_tolerant_instance
from .solvers import brute_force_tverberg, get_solver
from .svgplot import render_svg
from .verification import DEFAULT_BUDGET, centerpoint_depth, exact_tolerance, tukey_depth, verify_tolerance

DEFAULT_SEED = 0


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(raw: str) -> Point:
    return Point(0, tuple(to_scalar(part.strip()) for part in raw.split(",")))


def _cmd_compute(args: argparse.Namespace) -> int:
    points = jsonio.load_point_set(args.input)
    stats: dict[str, Any] = {"n": len(points), "dim": points.dim, "m": args.m}

    if args.algorithm == "one_d":
        partition = tolerant_tverberg_1d(points, args.m)
        tolerance = max_tolerance_1d(len(points), args.m)
    elif args.algorithm == "lift":
        if args.t is None:
            raise TverbergError("algorithm 'lift' requires --t")
        partition = tolerant_tverberg_lifted(points, args.m, args.t)
        tolerance = args.t
    elif args.algorithm == "chunk_merge":
        if args.solver is None:
            raise TverbergError("algorithm 'chunk_merge' requires --solver")
        solver = get_solver(args.solver, points.dim)
        merged = chunk_and_merge(points, args.m, solver)
        partition, tolerance = merged.partition, merged.tolerance
        stats["blocks"] = merged.tolerance + 1  # k tolerance-0 blocks merge to k - 1
        stats["solver"] = args.solver
    elif args.algorithm == "brute":
        maybe = brute_force_tverberg(points, args.m)
        if maybe is None:
            raise TverbergError(f"no Tverberg {short_repr(args.m)}-partition exists")
        partition, tolerance = maybe, 0

    out = {
        **jsonio.partition_to_obj(partition),
        "guaranteed_tolerance": tolerance,
        "algorithm": args.algorithm,
        "stats": stats,
    }
    _write(args.output, jsonio.dumps(out))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    points = jsonio.load_point_set(args.input)
    partition = jsonio.load_partition(args.partition)
    removal = verify_tolerance(points, partition, args.t, budget=args.budget)
    if removal is None:
        return 0
    _write(args.output, jsonio.dumps({"removal_ids": sorted(removal)}))
    return 1


def _cmd_tolerance(args: argparse.Namespace) -> int:
    points = jsonio.load_point_set(args.input)
    partition = jsonio.load_partition(args.partition)
    print(exact_tolerance(points, partition, budget=args.budget))
    return 0


def _cmd_depth(args: argparse.Namespace) -> int:
    points = jsonio.load_point_set(args.input)
    c = _parse_point(args.point)
    depth = tukey_depth(c, points, budget=args.budget)
    center = depth >= centerpoint_depth(len(points), points.dim)
    print(f"depth={depth} centerpoint={'true' if center else 'false'}")
    return 0


def _cmd_reduce_center(args: argparse.Namespace) -> int:
    points = jsonio.load_point_set(args.input)
    c = _parse_point(args.point)
    instance = center_to_tolerant_instance(points, c)
    obj = jsonio.point_set_to_obj(instance.lifted_points)
    obj.update(jsonio.partition_to_obj(instance.partition))
    obj["t"] = instance.t
    obj["gadget_minus_ids"] = sorted(instance.gadget_minus_ids)
    obj["gadget_plus_ids"] = sorted(instance.gadget_plus_ids)
    _write(args.output, jsonio.dumps(obj))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    points = random_point_set(args.n, args.dim, grid=args.grid, seed=args.seed)
    _write(args.output, jsonio.dumps(jsonio.point_set_to_obj(points)))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    points = jsonio.load_point_set(args.input)
    partition = jsonio.load_partition(args.partition) if args.partition else None
    removed = []
    for tok in args.removal.split(",") if args.removal else ():
        try:
            removed.append(int(tok))
        except ValueError:
            raise TverbergError(f"invalid removal: not an integer id: {short_repr(tok)}") from None
    _write(args.output, render_svg(points, partition, frozenset(removed)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser.  ``parse_args`` never writes to it and
    help is formatted at print time, so every call of ``main`` shares it;
    change it and every later call sees the change."""
    parser = argparse.ArgumentParser(
        prog="tverberg",
        description="Tolerant Tverberg partitions with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a tolerant Tverberg partition")
    p.add_argument("--input", required=True, help="point set JSON")
    p.add_argument(
        "--algorithm",
        required=True,
        choices=["one_d", "lift", "chunk_merge", "brute"],
    )
    p.add_argument("--m", type=int, required=True, help="number of parts")
    p.add_argument("--t", type=int, default=None, help="tolerance target (lift)")
    p.add_argument("--solver", default=None, help="block solver: brute, 1d, lift")
    p.add_argument("--output", default=None, help="partition JSON (default stdout)")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="test a claimed tolerance; exit 1 with witness if refuted")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output", default=None, help="witness JSON on refutation")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tolerance", help="print the exact tolerance of a partition")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_tolerance)

    p = sub.add_parser("depth", help="Tukey depth and centerpoint test for a query point")
    p.add_argument("--input", required=True)
    p.add_argument("--point", required=True, help="comma-separated exact coordinates")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("reduce-center", help="emit the tolerance instance encoding a centerpoint test")
    p.add_argument("--input", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_reduce_center)

    p = sub.add_parser("gen", help="generate a seeded random general-position instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("plot", help="render a 2-D instance to SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", default=None)
    p.add_argument("--removal", default=None, help="comma-separated removed ids")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


# joined to the next token, unless it is a "--" flag, so "-1,2" reads as a value
VALUE_FLAGS = ("--point", "--removal")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in VALUE_FLAGS and not argv[i].startswith("--"):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TverbergError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
