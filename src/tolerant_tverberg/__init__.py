"""Tolerant Tverberg partitions with exact rational verification.

Compute partitions whose part hulls keep a common point even after a
bounded number of adversarial deletions (tight interleaving on the
line, halve-pair-project lifting above it, chunk-and-merge on top of
regular solvers), and verify tolerance, Tukey depth and centerpoint
claims exactly via rational LP feasibility and exhaustive search.
"""

from .core import (
    Partition,
    Point,
    PointSet,
    RemovalSet,
    TverbergError,
    check_partition,
    lex_key,
    to_scalar,
)
from .generate import random_point_set
from .lifting import halve_and_pair, tolerant_tverberg_lifted
from .lp import hull_judge, intersection_judge
from .merging import MergeBlock, chunk_and_merge, merge_partitions
from .one_d import max_tolerance_1d, tolerant_tverberg_1d
from .reduction import ReducedInstance, center_to_tolerant_instance
from .solvers import (
    BRUTE_FORCE_CAP,
    SolverContract,
    brute_force_tverberg,
    get_solver,
)
from .svgplot import render_svg
from .verification import (
    DEFAULT_BUDGET,
    centerpoint_depth,
    exact_tolerance,
    tukey_depth,
    verify_tolerance,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_CAP",
    "DEFAULT_BUDGET",
    "MergeBlock",
    "Partition",
    "Point",
    "PointSet",
    "ReducedInstance",
    "RemovalSet",
    "SolverContract",
    "TverbergError",
    "brute_force_tverberg",
    "center_to_tolerant_instance",
    "centerpoint_depth",
    "check_partition",
    "chunk_and_merge",
    "exact_tolerance",
    "get_solver",
    "halve_and_pair",
    "hull_judge",
    "intersection_judge",
    "lex_key",
    "max_tolerance_1d",
    "merge_partitions",
    "random_point_set",
    "render_svg",
    "to_scalar",
    "tolerant_tverberg_1d",
    "tolerant_tverberg_lifted",
    "tukey_depth",
    "verify_tolerance",
]
