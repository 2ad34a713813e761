"""Exact LP feasibility over the rationals, and the hull queries built on it.

The engine answers one question: does an equality system A x = b with
nonnegativity on a chosen subset of variables have a solution?  It runs
a phase-1 simplex on Fractions with Bland's anti-cycling rule, so

  * a "feasible" answer always comes with a witness that re-checks by
    exact substitution, and
  * an "infeasible" answer means the phase-1 optimum is provably > 0.

No floating point is involved anywhere, which is what makes the hull
intersection and hull membership predicates below exact decisions.
Only feasibility is supported; there is no objective to optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import DimensionError, Point, ShapeError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPProblem:
    """Equality constraints over rationals with optional x_i >= 0 signs.

    Variables not listed in ``nonneg_vars`` are free.
    """

    num_vars: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    nonneg_vars: frozenset[int]

    def validate(self) -> None:
        for row, _rhs in self.equalities:
            if len(row) != self.num_vars:
                raise ShapeError(
                    f"shape: row has {len(row)} coefficients, expected {self.num_vars}"
                )
        for idx in self.nonneg_vars:
            if not 0 <= idx < self.num_vars:
                raise ShapeError(f"shape: nonneg index {idx} out of range")


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "feasible" | "infeasible"
    witness: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def lp_feasible(problem: LPProblem) -> LPOutcome:
    """Decide feasibility of ``problem``; witnesses are exact."""
    problem.validate()

    # Free variables are split x = u - v with u, v >= 0 so the tableau
    # only ever holds nonnegative variables.
    col_of: list[tuple[int, int]] = []  # var -> (plus column, minus column or -1)
    ncols = 0
    for j in range(problem.num_vars):
        if j in problem.nonneg_vars:
            col_of.append((ncols, -1))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    nrows = len(problem.equalities)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row, b in problem.equalities:
        expanded = [_ZERO] * ncols
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            plus, minus = col_of[j]
            expanded[plus] = coeff
            if minus >= 0:
                expanded[minus] = -coeff
        if b < 0:
            expanded = [-c for c in expanded]
            b = -b
        rows.append(expanded)
        rhs.append(b)

    values, art_total = _phase1(rows, rhs, ncols)
    if art_total != 0:
        return LPOutcome("infeasible", None)

    witness = []
    for j in range(problem.num_vars):
        plus, minus = col_of[j]
        witness.append(values[plus] - (values[minus] if minus >= 0 else _ZERO))

    # Exact re-substitution of every constraint; a failure here would be
    # a solver bug, never an input problem.  Explicit raises, not
    # asserts, so the check also runs under ``python -O``.
    for row, b in problem.equalities:
        acc = _ZERO
        for coeff, x in zip(row, witness):
            acc += coeff * x
        if acc != b:
            raise AssertionError("witness failed exact re-substitution")
    for idx in problem.nonneg_vars:
        if witness[idx] < 0:
            raise AssertionError("witness violates nonnegativity")

    return LPOutcome("feasible", tuple(witness))


def _phase1(rows: list[list[Fraction]], rhs: list[Fraction], ncols: int):
    """Minimize the sum of one artificial variable per row, Bland's rule.

    Returns (structural values, residual artificial sum).  rhs must be
    nonnegative on entry.
    """
    m = len(rows)
    width = ncols + m + 1  # structural | artificial | rhs
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = rows[i] + [_ZERO] * m + [rhs[i]]
        row[ncols + i] = _ONE
        tab.append(row)
    basis = [ncols + i for i in range(m)]

    # reduced costs for min sum(artificials): cbar_j = -sum_i a_ij on
    # structural columns, 0 on artificials; last entry tracks -objective
    cost = [_ZERO] * width
    for j in range(ncols):
        s = _ZERO
        for i in range(m):
            s += tab[i][j]
        cost[j] = -s
    total = _ZERO
    for b in rhs:
        total += b
    cost[-1] = -total

    while True:
        enter = -1
        for j in range(ncols + m):
            if cost[j] < 0:
                enter = j  # Bland: lowest eligible index
                break
        if enter < 0:
            break

        leave = -1
        best: Fraction | None = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # cannot happen: the phase-1 objective is bounded below by 0
            raise ShapeError("shape: phase-1 unbounded")

        _pivot(tab, cost, leave, enter)
        basis[leave] = enter

    values = [_ZERO] * ncols
    art_total = _ZERO
    for i in range(m):
        if basis[i] < ncols:
            values[basis[i]] = tab[i][-1]
        else:
            art_total += tab[i][-1]
    return values, art_total


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], leave: int, enter: int) -> None:
    prow = tab[leave]
    pval = prow[enter]
    if pval != 1:
        inv = _ONE / pval
        tab[leave] = prow = [c * inv for c in prow]
    for row in tab:
        if row is prow:
            continue
        factor = row[enter]
        if factor != 0:
            for j, pj in enumerate(prow):
                if pj != 0:
                    row[j] -= factor * pj
    factor = cost[enter]
    if factor != 0:
        for j, pj in enumerate(prow):
            if pj != 0:
                cost[j] -= factor * pj


def common_intersection_point(
    sets: Sequence[Sequence[Point]], dim: int
) -> tuple[Fraction, ...] | None:
    """A point in the intersection of the sets' convex hulls, or None.

    For each set i with points p_{i,1..n_i} the LP carries barycentric
    weights a_{i,j} >= 0 with sum_j a_{i,j} = 1 and
    sum_j a_{i,j} p_{i,j} = x for one shared free point x.  An empty set
    has an empty hull, so the intersection is immediately empty.
    """
    for s in sets:
        if not s:
            return None
        for p in s:
            if p.dim != dim:
                raise DimensionError(
                    f"dimension: point {p.id} has dim {p.dim}, expected {dim}"
                )

    weight_count = sum(len(s) for s in sets)
    num_vars = weight_count + dim  # weights then the free point x
    x0 = weight_count

    equalities: list[tuple[tuple[Fraction, ...], Fraction]] = []
    offset = 0
    for s in sets:
        n = len(s)
        for k in range(dim):
            row = [_ZERO] * num_vars
            for j, p in enumerate(s):
                row[offset + j] = p.coords[k]
            row[x0 + k] = -_ONE
            equalities.append((tuple(row), _ZERO))
        row = [_ZERO] * num_vars
        for j in range(n):
            row[offset + j] = _ONE
        equalities.append((tuple(row), _ONE))
        offset += n

    problem = LPProblem(
        num_vars=num_vars,
        equalities=tuple(equalities),
        nonneg_vars=frozenset(range(weight_count)),
    )
    outcome = lp_feasible(problem)
    if not outcome.feasible:
        return None
    assert outcome.witness is not None
    return outcome.witness[x0 : x0 + dim]


def point_in_hull(c: Point, hull_points: Sequence[Point]) -> bool:
    """True iff c is a convex combination of ``hull_points``."""
    if not hull_points:
        return False
    dim = c.dim
    for p in hull_points:
        if p.dim != dim:
            raise DimensionError(
                f"dimension: point {p.id} has dim {p.dim}, expected {dim}"
            )

    n = len(hull_points)
    equalities: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for k in range(dim):
        row = tuple(p.coords[k] for p in hull_points)
        equalities.append((row, c.coords[k]))
    equalities.append((tuple([_ONE] * n), _ONE))

    problem = LPProblem(
        num_vars=n,
        equalities=tuple(equalities),
        nonneg_vars=frozenset(range(n)),
    )
    return lp_feasible(problem).feasible
