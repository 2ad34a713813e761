"""Raising tolerance by merging partitions of disjoint point sets.

If k disjoint sets each carry an m-partition with tolerances t_1..t_k,
taking part-wise unions yields an m-partition of the union with
tolerance sum(t_i) + k - 1: any removal of that many points must leave
some block with at most t_i of its points gone, and that block's hulls
keep a common point on their own.  The lemma speaks of ids only, so a
block is its partition and tolerance, and a merge checks ids alone.
Chunking one set into blocks, in input order, and solving each with a
regular solver turns this into a simple tolerance-approximation driver.
A merge returns a block itself, so a merged result can be merged again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, PointSet, TverbergError, check_partition, short_repr
from .solvers import SolverContract


@dataclass(frozen=True)
class MergeBlock:
    partition: Partition
    tolerance: int


def merge_partitions(blocks: list[MergeBlock]) -> MergeBlock:
    """Part-wise union of the blocks' partitions, tolerant to
    sum(t_i) + k - 1.

    Blocks must agree on part count and claim no negative tolerance, and
    all their parts together must partition their union: no empty part,
    and no id in two parts, within a block or across blocks.
    """
    if not blocks:
        raise TverbergError("incompatible blocks: no blocks given")
    m = len(blocks[0].partition)
    for block in blocks:
        if len(block.partition) != m:
            raise TverbergError(
                f"incompatible blocks: part counts {m} vs {len(block.partition)}"
            )
        if block.tolerance < 0:
            raise TverbergError("incompatible blocks: negative tolerance")

    parts = tuple(
        frozenset().union(*(block.partition[j] for block in blocks)) for j in range(m)
    )
    every_part = tuple(part for block in blocks for part in block.partition)
    check_partition(every_part, frozenset().union(*parts))
    tolerance = sum(block.tolerance for block in blocks) + len(blocks) - 1
    return MergeBlock(parts, tolerance)


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
        raise TverbergError(f"m must be at least 1, got m={short_repr(m)}")
    per_block = solver.points_needed(m)
    n = len(point_set)
    if n < per_block:
        raise TverbergError(
            f"too few points for one block: need {short_repr(per_block)}, got {n}"
        )

    k = n // per_block
    blocks: list[MergeBlock] = []
    for i in range(k):
        lo = i * per_block
        hi = lo + per_block if i < k - 1 else n
        sub = PointSet(point_set.dim, point_set.points[lo:hi])
        blocks.append(MergeBlock(solver.solve(sub, m), 0))
    return merge_partitions(blocks)
