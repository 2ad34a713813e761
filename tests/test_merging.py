import pytest
from hypothesis import given, settings, strategies as st

from helpers import from_coords, from_iterables, line, spatial_inputs
from tolerant_tverberg import (
    MergeBlock,
    PointSet,
    TverbergError,
    brute_force_tverberg,
    check_partition,
    chunk_and_merge,
    exact_tolerance,
    get_solver,
    merge_partitions,
    random_point_set,
    solvers,
    verify_tolerance,
)


def block(parts, tolerance):
    return MergeBlock(from_iterables(parts), tolerance)


class TestMergePartitions:
    def test_single_block_is_identity(self):
        b = block([{2}, {1, 3}], 0)
        assert merge_partitions([b]) == b

    def test_merged_result_merges_again(self):
        b1 = block([{2}, {1, 3}], 0)
        b2 = block([{5}, {4, 6}], 0)
        b3 = block([{8}, {7, 9}], 0)
        nested = merge_partitions([merge_partitions([b1, b2]), b3])
        assert nested == merge_partitions([b1, b2, b3])
        assert nested.tolerance == 2

    def test_two_radon_blocks_gain_one(self):
        # blocks on the points 1, 2, 3 and 4, 5, 6 of the line, id = value
        P = line(1, 2, 3, 4, 5, 6)
        b1 = block([{2}, {1, 3}], 0)
        b2 = block([{5}, {4, 6}], 0)
        merged = merge_partitions([b1, b2])
        assert merged.partition == from_iterables(
            [{2, 5}, {1, 3, 4, 6}]
        )
        assert merged.tolerance == 1
        check_partition(merged.partition, P.ids())
        assert verify_tolerance(P, merged.partition, 1) is None

    def test_three_blocks_claim_two(self):
        P = line(*range(1, 10))
        blocks = [
            block([{2}, {1, 3}], 0),
            block([{5}, {4, 6}], 0),
            block([{8}, {7, 9}], 0),
        ]
        merged = merge_partitions(blocks)
        assert merged.tolerance == 2
        assert verify_tolerance(P, merged.partition, 2) is None

    def test_part_sizes_add_up(self):
        b1 = block([{2, 4}, {1, 3, 5}], 0)
        b2 = block([{7}, {6, 8}], 0)
        merged = merge_partitions([b1, b2])
        assert sorted(len(p) for p in merged.partition) == [3, 5]

    def test_mismatched_part_count_rejected(self):
        b1 = block([{2}, {1, 3}], 0)
        b2 = block([{4}, {5}, {6}], 0)
        with pytest.raises(TverbergError, match="^incompatible blocks:"):
            merge_partitions([b1, b2])

    def test_overlapping_ids_rejected(self):
        b1 = block([{2}, {1, 3}], 0)
        b2 = block([{2}, {1, 3}], 0)  # same ids 1..3
        with pytest.raises(TverbergError, match="^invalid partition: id 2 in two parts$"):
            merge_partitions([b1, b2])


# mismatched m and overlap across blocks are the two tests above
REFUSED = {
    "no blocks": ([], "incompatible blocks: no blocks given"),
    "no parts": ([block([], 0), block([], 1)], "invalid partition: no parts"),
    "empty part": ([block([{1}, set()], 0)], "invalid partition: empty part"),
    "overlap within a block": (
        [block([{1, 2}, {2, 3}], 0)], "invalid partition: id 2 in two parts"
    ),
    "negative t": (
        [block([{1}, {2, 3}], 0), block([{4}, {5, 6}], -1)],
        "incompatible blocks: negative tolerance",
    ),
}


@pytest.mark.parametrize("blocks,message", REFUSED.values(), ids=REFUSED.keys())
def test_refusals(blocks, message):
    with pytest.raises(TverbergError, match=f"^{message}$"):
        merge_partitions(blocks)


@st.composite
def disjoint_blocks(draw):
    """Blocks cut from a shuffled id range, each an m-partition with
    nonempty parts and a tolerance drawn at random."""
    m = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(m, m + 4), min_size=1, max_size=5))
    ids = draw(st.permutations(range(1, sum(sizes) + 1)))
    blocks = []
    start = 0
    for size in sizes:
        chunk = ids[start : start + size]
        start += size
        # the first m ids seed the parts, so none is empty
        labels = list(range(m)) + draw(
            st.lists(st.integers(0, m - 1), min_size=size - m, max_size=size - m)
        )
        parts = [[pid for pid, j in zip(chunk, labels) if j == i] for i in range(m)]
        blocks.append(block(parts, draw(st.integers(0, 5))))
    return blocks


@settings(max_examples=100, deadline=None)
@given(disjoint_blocks())
def test_merge_is_the_partwise_union(blocks):
    merged = merge_partitions(blocks)
    m = len(blocks[0].partition)
    assert merged.partition == tuple(
        frozenset(pid for b in blocks for pid in b.partition[j]) for j in range(m)
    )
    assert merged.tolerance == sum(b.tolerance for b in blocks) + len(blocks) - 1


class TestChunkAndMerge:
    def test_twelve_points_two_parts(self):
        P = line(*range(1, 13))
        solver = get_solver("1d", 1)
        merged = chunk_and_merge(P, 2, solver)
        assert merged.tolerance == 3
        check_partition(merged.partition, P.ids())
        assert verify_tolerance(P, merged.partition, 3) is None

    def test_exact_single_block(self):
        P = line(5, 1, 9)
        merged = chunk_and_merge(P, 2, get_solver("1d", 1))
        assert merged.tolerance == 0
        check_partition(merged.partition, P.ids())

    def test_remainder_goes_to_last_block(self):
        P = line(*range(1, 12))  # 11 points, block size 3 -> 3 blocks of 3,3,5
        merged = chunk_and_merge(P, 2, get_solver("1d", 1))
        assert merged.tolerance == 2
        check_partition(merged.partition, P.ids())
        assert verify_tolerance(P, merged.partition, 2) is None

    def test_two_blocks_of_six_with_brute_solver(self):
        # twelve points, three parts via two brute-solved halves
        P = line(*range(1, 13))
        solver = get_solver("brute", 1)
        assert solver.points_needed(3) == 5
        merged = chunk_and_merge(P, 3, solver)
        # floor(12/5) = 2 blocks
        assert merged.tolerance == 1
        assert verify_tolerance(P, merged.partition, 1) is None

    def test_brute_blocks_over_the_cap_refused_before_solving(self, monkeypatch):
        # d = 3, m = 5: the Tverberg number is 17, over the cap of 12
        monkeypatch.setattr(solvers, "brute_force_tverberg",
                            lambda *args: pytest.fail("a block was solved"))
        with pytest.raises(TverbergError) as excinfo:
            chunk_and_merge(random_point_set(40, 3, seed=1), 5, get_solver("brute", 3))
        assert str(excinfo.value) == "instance too large for brute force: blocks of 17 points > cap 12"

    def test_brute_blocks_under_the_cap_merge_in_3d(self):
        # d = 3, m = 2: eight blocks of 5 points merge to tolerance 7
        P = random_point_set(40, 3, seed=1)
        merged = chunk_and_merge(P, 2, get_solver("brute", 3))
        assert merged.tolerance == 7
        check_partition(merged.partition, P.ids())
        assert verify_tolerance(P, merged.partition, 1) is None

    def test_blocks_follow_input_order(self):
        P = line(7, 2, 9, 4, 1, 8, 3)  # blocks of 3, 4 in input order
        solver = get_solver("1d", 1)
        halves = [PointSet(1, P.points[:3]), PointSet(1, P.points[3:])]
        blocks = [MergeBlock(solver.solve(h, 2), 0) for h in halves]
        assert chunk_and_merge(P, 2, solver) == merge_partitions(blocks)

    def test_too_few_points(self):
        with pytest.raises(TverbergError, match="too few points"):
            chunk_and_merge(line(1, 2), 2, get_solver("1d", 1))


@st.composite
def planar_inputs(draw):
    """12-40 planar points: a generated set in general position, or points
    on the 0..3 grid with duplicates and collinear runs."""
    n = draw(st.integers(12, 40))
    if draw(st.booleans()):
        return random_point_set(n, 2, seed=draw(st.integers(0, 10**6)))
    cell = st.integers(0, 3)
    coords = []
    while len(coords) < n:
        kind = draw(st.sampled_from(["fresh", "duplicate", "run"]))
        if kind == "duplicate" and coords:
            coords.append(draw(st.sampled_from(coords)))
        elif kind == "run":  # part of a row, a column or a diagonal of the grid
            c = draw(cell)
            lines = [[(k, c) for k in range(4)], [(c, k) for k in range(4)],
                     [(k, k) for k in range(4)], [(k, 3 - k) for k in range(4)]]
            run = draw(st.sampled_from(lines))
            start = draw(st.integers(0, 2))
            coords += run[start : draw(st.integers(start + 2, 4))]
        else:
            coords.append((draw(cell), draw(cell)))
    return from_coords(coords[:n])


@settings(max_examples=60, deadline=None)
@given(planar_inputs(), st.sampled_from(["brute", "lift"]))
def test_planar_chunk_and_merge_reaches_its_guarantee(P, solver):
    # two parts in the plane: exact_tolerance counts over separating lines
    merged = chunk_and_merge(P, 2, get_solver(solver, 2))
    assert exact_tolerance(P, merged.partition) >= merged.tolerance


@st.composite
def spatial_chunk_inputs(draw):
    """A 3-D block solver and points for m = 2: 10-25 for ``brute``,
    which takes 5 a block, and 12-36 for ``lift``, which takes 12."""
    solver = draw(st.sampled_from(["brute", "lift"]))
    n = draw(st.integers(10, 25) if solver == "brute" else st.integers(12, 36))
    return draw(spatial_inputs(n)), solver


@settings(max_examples=60, deadline=None)
@given(spatial_chunk_inputs())
def test_spatial_chunk_and_merge_reaches_its_guarantee(instance):
    # brute stops at 25 points: C(36, 6) removal sets exceed the default budget
    P, solver = instance
    merged = chunk_and_merge(P, 2, get_solver(solver, 3))
    assert verify_tolerance(P, merged.partition, merged.tolerance) is None


class TestManualBlockSplit:
    def test_two_six_point_blocks_give_one_tolerant_three_partition(self):
        # split twelve points into t+1 = 2 halves by hand, solve each for
        # m = ceil(6/2) = 3 parts, and merge
        P = line(*range(1, 13))
        halves = [PointSet(1, P.points[:6]), PointSet(1, P.points[6:])]
        blocks = []
        for half in halves:
            partition = brute_force_tverberg(half, 3)
            assert partition is not None
            blocks.append(MergeBlock(partition, 0))
        merged = merge_partitions(blocks)
        assert len(merged.partition) == 3
        assert merged.tolerance == 1
        assert verify_tolerance(P, merged.partition, 1) is None


class TestMergeToleranceLowerBound:
    def test_confirmed_blocks_reach_the_bound(self):
        # block tolerances established by exhaustive search first
        P = line(1, 2, 3, 4, 5, 6, 10, 20, 30)
        b1_points = PointSet(1, P.points[:6])
        b1_parts = brute_force_tverberg(b1_points, 2)
        t1 = exact_tolerance(b1_points, b1_parts)
        b2_points = PointSet(1, P.points[6:])
        b2_parts = brute_force_tverberg(b2_points, 2)
        t2 = exact_tolerance(b2_points, b2_parts)
        merged = merge_partitions(
            [
                MergeBlock(b1_parts, t1),
                MergeBlock(b2_parts, t2),
            ]
        )
        assert merged.tolerance == t1 + t2 + 1
        assert exact_tolerance(P, merged.partition) >= merged.tolerance
