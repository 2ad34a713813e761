import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import degenerate_index_exhaustive, det_by_fractions
from tolerant_tverberg import TverbergError, generate, jsonio, random_point_set
from tolerant_tverberg.cli import main
from tolerant_tverberg.generate import _degenerate_index, _det


@pytest.mark.parametrize("n,dim,grid", [(4, 1, 3), (4, 2, 1), (5, 3, 1)])
def test_pigeonhole_refusal_spares_what_the_grid_holds(n, dim, grid):
    # the line's 4 values, the square's 4 corners; in the unit cube two
    # points may share one of the 4 vertical lines, so 5 points fit
    assert len(random_point_set(n, dim, grid=grid)) == n


def test_coordinate_cap_is_on_n_times_dim(monkeypatch):
    monkeypatch.setattr(generate, "MAX_COORDS", 12)
    assert len(random_point_set(4, 3)) == 4
    assert len(random_point_set(12, 1)) == 12
    for n, dim in [(13, 1), (5, 3), (1, 13)]:
        with pytest.raises(TverbergError, match=rf"^too many coordinates: n\*dim = {n * dim} > 12$"):
            random_point_set(n, dim)


def test_running_out_of_redraws_is_refused(monkeypatch, capsys):
    # a scan that always finds an offender uses up every redraw
    monkeypatch.setattr(generate, "_degenerate_index", lambda coords, dim: 0)
    with pytest.raises(TverbergError) as info:
        random_point_set(5, 2, grid=10, seed=3)
    assert str(info.value) == "could not reach general position for n=5, dim=2, grid=10"
    assert main(["gen", "--n", "5", "--dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: could not reach general position for n=5, dim=2, grid=1000\n"


@pytest.mark.parametrize("size", [2, 3, 4])
def test_det_matches_fraction_elimination(size):
    rng = random.Random(size)
    singular = 0
    for trial in range(400):
        # small entries make zero pivots, row swaps and singular matrices common
        mat = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if trial % 3 == 0:  # last row a combination of two others: singular
            j, k = rng.randint(-3, 3), rng.randint(-3, 3)
            mat[-1] = [j * x + k * y for x, y in zip(mat[0], mat[-2])]
        expect = det_by_fractions(mat)
        got = _det(mat)
        assert type(got) is int
        assert got == expect
        singular += expect == 0
    assert singular >= 50


def test_general_position():
    P = random_point_set(12, 2, grid=20, seed=5)
    coords = [p.coords for p in P.points]
    for a, b, c in combinations(coords, 3):
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross != 0


@pytest.mark.parametrize("n,dim,grid,seed,digest", [
    (22, 2, 1000, 0, "96a0c8b3880f9fb65191c0b1176bffee3b80d44a4f985fd6b80bfc5bb1ebd396"),
    (20, 3, 1000, 0, "cc0be8fecbe9b0d8707f503318bd9c312abc265490ac11a045fb0b733b06c8f1"),
    # these two redraw degenerate points before they are clean
    (12, 2, 20, 5, "7f6779ab4e694172cd07aaeb820e176f699a26bce8c269e35c7e8bcdc960eb38"),
    (9, 3, 8, 1, "543a01e638e4682bbbadbf448e2114d684ae112f30528d3cf5bae637589dca75"),
])
def test_seeded_output_is_pinned(n, dim, grid, seed, digest):
    text = jsonio.dumps(jsonio.point_set_to_obj(random_point_set(n, dim, grid=grid, seed=seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def planar_grids(draw):
    """Up to 14 points with coordinates in 0..g, g = 2..8: duplicates, and
    at times a run of collinear points spliced in at random places."""
    g = draw(st.integers(2, 8))
    cell = st.lists(st.integers(0, g), min_size=2, max_size=2)
    coords = draw(st.lists(cell, min_size=1, max_size=14))
    (x, y), (dx, dy) = draw(cell), draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]))
    run = [[x + k * dx, y + k * dy] for k in range(draw(st.integers(0, 5)))]
    for row in run[: 14 - len(coords)]:
        if 0 <= min(row) and max(row) <= g:
            coords.insert(draw(st.integers(0, len(coords))), row)
    return coords


@settings(max_examples=300, deadline=None)
@given(planar_grids())
# from point 0 the run {1, 4} holds the lex-first triple, though {2, 3} closes first
@example([[0, 0], [1, 0], [0, 1], [0, 2], [2, 0]])
@example([[1, 1], [2, 2], [1, 1]])
def test_planar_scan_matches_every_triple(coords):
    assert _degenerate_index(coords, 2) == degenerate_index_exhaustive(coords, 2)



@st.composite
def spatial_grids(draw):
    """Up to 12 points with coordinates in 0..g, g = 1..6: duplicates, and
    at times a collinear run or a coplanar patch spliced in at random places."""
    g = draw(st.integers(1, 6))
    cell = st.lists(st.integers(0, g), min_size=3, max_size=3)
    coords = draw(st.lists(cell, min_size=1, max_size=12))
    steps = st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, -1), (1, 1, 1), (2, 1, 0)])
    base, u, v = draw(cell), draw(steps), draw(steps)
    if draw(st.booleans()):  # a run along u
        offsets = [(k, 0) for k in range(draw(st.integers(0, 5)))]
    else:  # a patch of the plane spanned by u and v
        offsets = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6))
    for i, j in offsets[: 12 - len(coords)]:
        row = [x + i * a + j * b for x, a, b in zip(base, u, v)]
        if 0 <= min(row) and max(row) <= g:
            coords.insert(draw(st.integers(0, len(coords))), row)
    return coords


@settings(max_examples=300, deadline=None)
@given(spatial_grids())
# point 4 lies on the anchor line 0-1 and closes (0, 1, 2, 4)
@example([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]])
# point 2 lies on the anchor line 0-1, so any later point closes the quadruple
@example([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
# the last point lies on the anchor line 0-1 and has no point after it
@example([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
# from anchors 0-1, (3, 4) closes at 4, before the lex-first (2, 5)
@example([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 2], [0, 2, 0]])
@example([[1, 1, 1], [2, 0, 1], [0, 2, 2], [1, 1, 1]])
def test_spatial_scan_matches_every_quadruple(coords):
    assert _degenerate_index(coords, 3) == degenerate_index_exhaustive(coords, 3)


def test_scan_in_four_dimensions_matches_every_quintuple():
    rng = random.Random(4)
    found = 0
    for _ in range(40):
        coords = [[rng.randint(0, 2) for _ in range(4)] for _ in range(rng.randint(1, 8))]
        expect = degenerate_index_exhaustive(coords, 4)
        assert _degenerate_index(coords, 4) == expect
        found += expect is not None
    assert 0 < found < 40
