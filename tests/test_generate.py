import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from tolerant_tverberg import jsonio, random_point_set
from tolerant_tverberg.generate import _det


def det_by_fractions(mat):
    """Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            for k in range(col, size):
                m[r][k] -= factor * m[col][k]
    return det


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
