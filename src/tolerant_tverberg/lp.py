"""Exact LP feasibility over the rationals, and the hull queries built on it.

Both hull questions the package asks (do the parts' hulls share a point?
does c lie in a hull?) are feasibility questions of one form: is there a
w with rows . w = rhs and w >= 0?  ``lp_feasible`` answers it with a
phase-1 simplex under Bland's anti-cycling rule on an integer tableau, a
``Tableau``: row i is its ``core.homogeneous`` form, numerators over
den_i, negated when its rhs is negative, and every pivot is fraction-free,
(a*p - f*b) // d with d the previous pivot, as in Edmonds-Bareiss
elimination.  Every reduced-cost sign and ratio comparison is the one a
Fraction tableau would see.  The artificials are only basis labels, with
no columns, so one that leaves never re-enters.

The tableau is kept between solves.  ``lp_feasible(tableau, removed)``
decides the LP with the removed ids' columns deleted: they may not enter,
and the phase-1 objective is the weighted sum of the bad basic
variables, an artificial of row i weighing L/den_i (L = lcm(den_i)) and
a removed column L, so the cost row, d times the reduced costs, stays
integer like the tableau.  Each pivot keeps the rhs nonnegative, so
every basis on the way is a feasible basis of the full LP with its
artificials, and the last one is the next solve's start: the verifier
builds the LP of every point once and judges each removal set from where
the previous one ended, in a few pivots.  A removed column or an
artificial that leaves cannot come back, so within a solve the LP only
shrinks and Bland's rule cannot cycle.  When no allowed column has a
negative reduced cost, the basis is optimal for the LP restricted to the
allowed columns and the bad basic variables, which is feasible at 0
exactly when the LP without the removed columns is.

The first solve starts from the artificials with every row bad, so it
minimizes their sum weighted by L/den_i: ``lp_feasible`` on a new
``Tableau`` is the cold solve.  It takes the Fraction tableau's pivots
up to the first one that would enter an artificial column, and stops
there.  Bland's rule does that only when no structural reduced cost is
negative: the basis then decides feasibility with the departed
artificials held at 0, and at optimum 0 each further pivot is degenerate
(a positive step would push the objective below 0), so verdict and
witness are the same.  Then

  * a feasible answer comes with an integer witness w = numerators / d
    that re-checks by exact substitution into the caller's rows, and
    no removed column or artificial is nonzero in it, and
  * an infeasible answer means the phase-1 optimum is provably > 0.

No floating point is involved anywhere, which is what makes the hull
intersection and hull membership predicates below exact decisions.
Only feasibility is supported; there is no objective to optimize.

Every column carries the id of its point, and ``lp_feasible`` reads and
returns ids, never columns: it deletes each column whose id is removed,
so a removed point leaves every set it is in and an id outside the LP
removes nothing, and it reports the witness's support as the ids of the
points with nonzero weight.  ``intersection_judge`` and ``hull_judge``
build a hull query's LP and one ``Tableau`` and return a judge, one
``lp_feasible`` call per removal.  Deleting only points outside a
support leaves its witness valid.  A cold query is a judge's first call,
``judge(())``, with nothing removed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Collection, Sequence

from .core import Point, TverbergError, homogeneous, short_repr

# removed ids -> the ids of the surviving witness's support, or None
Judge = Callable[[Collection[int]], frozenset[int] | None]


class Tableau:
    """The integer phase-1 tableau of rows . w = rhs, w >= 0, kept from
    one ``lp_feasible`` call to the next; column j is the weight of the
    point with id ``ids[j]``, and an id may head several columns.  Row i
    is scaled by +-den_i and has an artificial with coefficient 1, kept
    only as the basis label ncols + i: a row holds its ncols structural
    entries and the rhs.  Every tableau entry is d times its true value,
    d the last pivot.
    """

    def __init__(self, rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction],
                 ids: Sequence[int]):
        self.rows, self.rhs, self.ids = rows, rhs, ids
        self.tab: list[list[int]] = []
        dens = []
        for row, b in zip(rows, rhs):
            *line, den = homogeneous([*row, b])
            self.tab.append(line if b >= 0 else [-v for v in line])
            dens.append(den)
        self.basis = [len(ids) + i for i in range(len(rows))]
        self.lcm = math.lcm(*dens)
        self.weights = [self.lcm // den for den in dens]
        self.d = 1


def lp_feasible(tableau: Tableau, removed: Collection[int] = ()) -> frozenset[int] | None:
    """The ids of the columns j with w_j > 0 in an exact w >= 0 with
    rows . w = rhs and w = 0 on every column whose id is in ``removed``,
    or None when there is none.

    Solved from the basis the tableau's last solve left, or from the
    artificials on a new tableau, minimizing the weighted sum of the bad
    basic variables (an artificial L/den_i, a removed column L); the
    final basis stays in ``tableau`` for the next solve.  Every LP the
    package decides, cold or warm, is one call of this function.
    """
    tab, basis, ids = tableau.tab, tableau.basis, tableau.ids
    ncols = len(ids)
    bad = [
        (tableau.weights[i] if col >= ncols else tableau.lcm, line)
        for i, (col, line) in enumerate(zip(basis, tab))
        if col >= ncols or ids[col] in removed
    ]
    # reduced costs -sum(weight * row) over the bad rows, exact on every
    # column that may enter; the last entry tracks -d * objective
    cost = [-sum(w * line[j] for w, line in bad) for j in range(ncols + 1)]
    columns = [j for j, pid in enumerate(ids) if pid not in removed]
    d = tableau.d

    while True:
        enter = -1
        for j in columns:
            if cost[j] < 0:
                enter = j  # Bland: lowest eligible structural index
                break
        if enter < 0:
            break

        # least ratio rhs_i / a_i over a_i > 0, compared cross-multiplied
        leave = -1
        for i in range(len(tab)):
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
    tableau.d = d

    if cost[-1] != 0:  # the optimum is positive
        return None
    values = {col: line[-1] for col, line in zip(basis, tab) if line[-1] != 0}
    # A failure below would be a solver bug, never an input problem.
    # Explicit raises, not asserts, so the checks also run under
    # ``python -O``.  At optimum 0 every bad variable is 0.
    if any(col >= ncols or ids[col] in removed for col in values):
        raise AssertionError("a removed or artificial variable is nonzero at optimum 0")
    # Exact re-substitution of every constraint, scaled by d; columns
    # outside the support add exactly 0.
    for row, b in zip(tableau.rows, tableau.rhs):
        if sum(row[j] * w for j, w in values.items()) != b * d:
            raise AssertionError("witness failed exact re-substitution")
    if d <= 0 or any(w < 0 for w in values.values()):
        raise AssertionError("witness violates nonnegativity")
    return frozenset(ids[j] for j in values)


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
                f"dimension: point {short_repr(p.id)} has dim {p.dim}, expected {dim}"
            )


def intersection_judge(sets: Sequence[Sequence[Point]], dim: int) -> Judge:
    """The judge of a list of sets: do the hulls of the sets, less the
    removed ids, share a point?

    For each set i with points p_{i,1..n_i} the LP carries barycentric
    weights a_{i,j} >= 0 with sum_j a_{i,j} = 1, and every set's
    combination sum_j a_{i,j} p_{i,j} equals set 0's, axis by axis.  The
    support is the points with nonzero weight, so the same point stays
    common to the hulls of any subsets that keep it.  Every None is the
    LP's verdict: an emptied set's convexity row reads 0 = 1.  An empty
    list of sets constrains nothing, needs no points and solves no LP:
    its judge answers the empty support.
    """
    for s in sets:
        _check_dims(s, dim)
    if not sets:
        return lambda removed: frozenset()

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
    tableau = Tableau(rows, rhs, [p.id for s in sets for p in s])
    return lambda removed: lp_feasible(tableau, removed)


def hull_judge(c: Point, hull_points: Sequence[Point]) -> Judge:
    """The judge of c's membership in the hull of ``hull_points`` less
    the removed ids.  Every None is the LP's verdict: with no hull points
    left the convexity row reads 0 = 1."""
    _check_dims(hull_points, c.dim)
    rows = [[p.coords[k] for p in hull_points] for k in range(c.dim)]
    rows.append([1] * len(hull_points))
    tableau = Tableau(rows, [*c.coords, 1], [p.id for p in hull_points])
    return lambda removed: lp_feasible(tableau, removed)
