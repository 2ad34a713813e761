"""Raising tolerance by merging partitions of disjoint point sets.

If k disjoint sets each carry an m-partition with tolerances t_1..t_k,
taking part-wise unions yields an m-partition of the union with
tolerance sum(t_i) + k - 1: any removal of that many points must leave
some block with at most t_i of its points gone, and that block's hulls
keep a common point on their own.  Chunking one set into blocks, in
input order, and solving each with a regular solver turns this into a
simple tolerance-approximation driver.  A merge returns a block itself,
so a merged result can be merged again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, PointSet, TverbergError, validate_partition
from .solvers import SolverContract


@dataclass(frozen=True)
class MergeBlock:
    points: PointSet
    partition: Partition
    tolerance: int


def merge_partitions(blocks: list[MergeBlock]) -> MergeBlock:
    """Part-wise union of the blocks' partitions.

    Blocks must agree on part count and dimension and have disjoint ids.
    """
    if not blocks:
        raise TverbergError("incompatible blocks: no blocks given")
    m = len(blocks[0].partition)
    dim = blocks[0].points.dim
    seen: set[int] = set()
    for block in blocks:
        if len(block.partition) != m:
            raise TverbergError(
                f"incompatible blocks: part counts {m} vs {len(block.partition)}"
            )
        if block.points.dim != dim:
            raise TverbergError(
                f"incompatible blocks: dims {dim} vs {block.points.dim}"
            )
        if block.tolerance < 0:
            raise TverbergError("incompatible blocks: negative tolerance")
        if not validate_partition(block.points, block.partition):
            raise TverbergError("incompatible blocks: invalid partition")
        ids = block.points.ids()
        if ids & seen:
            raise TverbergError("incompatible blocks: overlapping ids")
        seen |= ids

    parts = []
    for j in range(m):
        merged: set[int] = set()
        for block in blocks:
            merged |= block.partition[j]
        parts.append(frozenset(merged))

    all_points = tuple(p for block in blocks for p in block.points.points)
    tolerance = sum(block.tolerance for block in blocks) + len(blocks) - 1
    return MergeBlock(
        points=PointSet(dim, all_points),
        partition=tuple(parts),
        tolerance=tolerance,
    )


def chunk_and_merge(
    point_set: PointSet,
    m: int,
    solver: SolverContract,
) -> MergeBlock:
    """Split into k = floor(n / n_A(m)) tolerance-0 blocks; merge to tolerance k-1.

    Blocks follow input order: the first k-1 have exactly n_A(m) points
    and the last absorbs the remainder, which any solver tolerates since
    extra points only grow hulls.
    """
    if m < 1:
        raise TverbergError(f"m must be at least 1, got m={m}")
    per_block = solver.points_needed(m)
    n = len(point_set)
    if n < per_block:
        raise TverbergError(
            f"too few points for one block: need {per_block}, got {n}"
        )

    k = n // per_block
    blocks: list[MergeBlock] = []
    for i in range(k):
        lo = i * per_block
        hi = lo + per_block if i < k - 1 else n
        sub = PointSet(point_set.dim, point_set.points[lo:hi])
        blocks.append(MergeBlock(sub, solver.solve(sub, m), tolerance=0))
    return merge_partitions(blocks)
