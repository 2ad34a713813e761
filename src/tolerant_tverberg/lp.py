"""Exact LP feasibility over the rationals, and the hull queries built on it.

Both hull questions the package asks (do the parts' hulls share a
point? does c lie in a hull?) are feasibility questions of one form:
is there a w with rows . w = rhs and w >= 0?  ``lp_feasible`` answers it
with a phase-1 simplex under Bland's anti-cycling rule on an integer
tableau: row i is scaled by +-den_i, the lcm of its denominators signed
so that its rhs is nonnegative, the phase-1 objective weighs row i's
artificial by L/den_i, and every pivot is fraction-free,
(a*p - f*b) // d with d the previous pivot, as in Edmonds-Bareiss
elimination.  Every reduced-cost sign and ratio comparison is the one a
Fraction tableau would see.  The artificials are only basis labels,
with no columns, so one that leaves never re-enters, and the engine
stops where the Fraction tableau would first enter one.  Bland's rule
does that only when no structural reduced cost is negative: the basis
then decides feasibility with the departed artificials held at 0, and
at optimum 0 each further pivot is degenerate (a positive step would
push the objective below 0), so verdict and witness are the same.  Then

  * a feasible answer comes with an integer witness w = numerators / d
    that re-checks by exact substitution into the caller's rows, and
  * an infeasible answer means the phase-1 optimum is provably > 0.

No floating point is involved anywhere, which is what makes the hull
intersection and hull membership predicates below exact decisions.
What the callers read is the witness's support: the columns, and for
the hull queries the ids of the points, with nonzero weight.  A basic
witness has at most one per row, and deleting only points outside it
leaves the witness valid.  Only feasibility is supported; there is no
objective to optimize.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import Point, TverbergError


def lp_feasible(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[int] | None:
    """The columns j with w_j > 0 in an exact w >= 0 with rows . w = rhs,
    or None when there is no such w.

    ``rows`` is a nonempty list of coefficient rows of equal length.
    """
    witness = _phase1(rows, rhs, len(rows[0]))
    if witness is None:
        return None
    numerators, d = witness
    support = [j for j, x in enumerate(numerators) if x != 0]

    # Exact re-substitution of every constraint, scaled by d; columns
    # outside the support add exactly 0.  A failure here would be a
    # solver bug, never an input problem.  Explicit raises, not asserts,
    # so the check also runs under ``python -O``.
    for row, b in zip(rows, rhs):
        if sum(row[j] * numerators[j] for j in support) != b * d:
            raise AssertionError("witness failed exact re-substitution")
    if d <= 0 or any(numerators[j] < 0 for j in support):
        raise AssertionError("witness violates nonnegativity")
    return support


def _phase1(rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction], ncols: int):
    """Minimize the sum of one artificial variable per row, Bland's rule.

    Returns the witness as integers (numerators, d), w_j = numerators[j] / d
    with d > 0, or None when the optimum is positive.  Row i is scaled to
    integers by den_i, the lcm of its denominators, negated when rhs_i < 0,
    and has an artificial with coefficient 1, weighed by L/den_i in the
    objective, L = lcm(den_i), and kept only as the basis label ncols + i:
    a row holds its ncols structural entries and the rhs.  Every tableau
    entry is d times its true value, d the last pivot.
    """
    m = len(rows)
    dens = [math.lcm(b.denominator, *(c.denominator for c in row)) for row, b in zip(rows, rhs)]
    tab: list[list[int]] = []
    for row, b, den in zip(rows, rhs, dens):
        scale = den if b >= 0 else -den
        line = [c.numerator * (scale // c.denominator) for c in row]
        line.append(b.numerator * (scale // b.denominator))
        tab.append(line)
    basis = [ncols + i for i in range(m)]

    # reduced costs for min sum(weight_i * artificial_i): -sum_i weight_i
    # a_ij on structural columns; last entry tracks -objective
    lcm = math.lcm(*dens)
    weights = [lcm // den for den in dens]
    cost = [-sum(w * line[j] for w, line in zip(weights, tab)) for j in range(ncols + 1)]
    d = 1

    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j  # Bland: lowest eligible structural index
                break
        if enter < 0:
            break

        # least ratio rhs_i / a_i over a_i > 0, compared cross-multiplied
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, best = tab[i][-1] * tab[leave][enter], tab[leave][-1] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 unbounded, but its objective is bounded below by 0")

        d = _pivot(tab, cost, leave, enter, d)
        basis[leave] = enter

    if cost[-1] != 0:  # d * L times the negated optimum
        return None
    numerators = [0] * ncols
    for i, col in enumerate(basis):
        if col < ncols:
            numerators[col] = tab[i][-1]
    return numerators, d


def _pivot(tab: list[list[int]], cost: list[int], leave: int, enter: int, d: int) -> int:
    """Fraction-free pivot on p = tab[leave][enter]: every other row, the
    cost row included, becomes (row * p - row[enter] * tab[leave]) // d,
    an exact division.  Returns p, the next d."""
    prow = tab[leave]
    p = prow[enter]
    for row in [*tab, cost]:
        f = row[enter]
        if row is not prow and (f != 0 or p != d):
            row[:] = [(a * p - f * b) // d for a, b in zip(row, prow)]
    return p


def _check_dims(points: Sequence[Point], dim: int) -> None:
    for p in points:
        if p.dim != dim:
            raise TverbergError(
                f"dimension: point {p.id} has dim {p.dim}, expected {dim}"
            )


def common_intersection(sets: Sequence[Sequence[Point]], dim: int) -> frozenset[int] | None:
    """The ids of points that carry a common point of the sets' convex
    hulls, or None when the hulls do not meet.

    For each set i with points p_{i,1..n_i} the LP carries barycentric
    weights a_{i,j} >= 0 with sum_j a_{i,j} = 1, and every set's
    combination sum_j a_{i,j} p_{i,j} equals set 0's, axis by axis.  The
    ids returned are the witness's support, the points with nonzero
    weight, so the same point stays common to the hulls of any subsets
    that keep the support.  Every None is the LP's verdict: an empty set's
    convexity row reads 0 = 1.  An empty list of sets constrains nothing,
    needs no points and solves no LP.
    """
    if not sets:
        return frozenset()
    for s in sets:
        _check_dims(s, dim)

    first = sets[0]
    ncols = sum(len(s) for s in sets)
    rows: list[list[int | Fraction]] = []
    rhs: list[int | Fraction] = []
    offset = 0
    for i, s in enumerate(sets):
        n = len(s)
        if i > 0:
            # sum_j a_{i,j} p_{i,j,k} - sum_j a_{0,j} p_{0,j,k} = 0
            for k in range(dim):
                row = [0] * ncols
                for j, p in enumerate(first):
                    row[j] = -p.coords[k]
                for j, p in enumerate(s):
                    row[offset + j] = p.coords[k]
                rows.append(row)
                rhs.append(0)
        row = [0] * ncols
        row[offset : offset + n] = [1] * n
        rows.append(row)
        rhs.append(1)
        offset += n

    support = lp_feasible(rows, rhs)
    points = [p for s in sets for p in s]
    return None if support is None else frozenset(points[j].id for j in support)


def hull_support(c: Point, hull_points: Sequence[Point]) -> frozenset[int] | None:
    """Ids of hull points that carry c as a convex combination, or None
    when c is outside the hull of ``hull_points``.  Every None is the LP's
    verdict: with no hull points the convexity row reads 0 = 1."""
    _check_dims(hull_points, c.dim)
    rows = [[p.coords[k] for p in hull_points] for k in range(c.dim)]
    rows.append([1] * len(hull_points))
    support = lp_feasible(rows, [*c.coords, 1])
    return None if support is None else frozenset(hull_points[j].id for j in support)
