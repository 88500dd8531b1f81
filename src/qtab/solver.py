"""Exact determination of constants forced by toggle symmetry.

A statistic f on the order ideals has the same expectation c under every
toggle-symmetric distribution exactly when f - c is a pointwise linear
combination of the signed toggle statistics tin_p - q * tout_p.  This module
builds that linear system -- one equation per order ideal, unknowns c and one
coefficient per element -- and solves it exactly over polynomials; when no
solution exists it reports a witness ideal whose equation breaks.  On graded
posets the rank-chain distribution predicts the constant independently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .distributions import (
    PosetMismatch,
    Statistic,
    _maximal_count,
    ensemble_rank,
    expectation,
    statistic_ddeg,
)
from .posets import Poset, UnsupportedPoset, box_coords, order_ideals
from .qpoly import (
    LinearSystemResult,
    QPoly,
    RatFunc,
    Row,
    _fractions,
    _solve_on_basis,
    solve_linear_system,
)

ROW_LIMIT = 100_000  # most order ideals, hence equations, a system may have


class RowLimitExceeded(ValueError):
    """The poset has more order ideals than the system's row limit."""


@dataclass(frozen=True)
class ToggleSolveResult:
    """Outcome of the toggle-constant system for one statistic.

    A consistent answer keeps the certified ``numerators`` y = d * (c, a_0,
    ..., a_(n-1)) over the ``denominator`` d, as ``solve_linear_system``
    gives them.  ``constant`` is c = y_0 / d, reduced; ``coefficients``, the
    a_p = y_(p+1) / d, are reduced when first read.  An inconsistent answer
    has only ``witness_mask``, an order ideal whose equation cannot hold.
    """

    consistent: bool
    constant: RatFunc | None
    numerators: tuple[QPoly, ...] | None
    denominator: QPoly | None
    witness_mask: int | None

    @cached_property
    def coefficients(self) -> tuple[RatFunc, ...] | None:
        """The reduced a_p, one per element; None when inconsistent."""
        if not self.consistent:
            return None
        return _fractions(self.numerators[1:], self.denominator)


@dataclass(frozen=True)
class RefinementReport:
    """The toggle constant of one refinement statistic, None if it has none."""

    label: str
    consistent: bool
    constant: RatFunc | None


def build_system(
    poset: Poset, statistic: Statistic, q_value: int | Fraction | None = None
) -> tuple[list[Row], list[QPoly]]:
    """One row per order ideal: c + sum_p a_p * (tin_p - q*tout_p) = f.

    Each row is sparse (``Row``): its nonzero cells, c in column 0 and the
    coefficient a_p in column p + 1.  With ``q_value`` = a/b every row is
    specialised at q = a/b and multiplied by s = b^max(1, deg f), which
    makes every entry an integer constant; one nonzero scale for all rows
    changes no solution and no zero pattern.
    """
    if statistic.poset != poset:
        raise PosetMismatch("statistic and system posets differ")
    ideals = order_ideals(poset)
    if len(ideals) > ROW_LIMIT:
        raise RowLimitExceeded(f"{len(ideals)} ideals exceed the row limit {ROW_LIMIT}")
    rhs = list(statistic.values)
    # The toggle entry of p at I is 1 on the edge I -> I + p (tin), -q on the
    # edge I - p -> I (tout) and 0 otherwise; the rows share one QPoly each.
    one, minus_q = QPoly.of([1]), QPoly.of([0, -1])
    if q_value is not None:
        q = Fraction(q_value)
        s = q.denominator ** max(1, *(f.degree for f in rhs))
        one, minus_q = QPoly.of([s]), QPoly.of([int(-q * s)])
        rhs = [QPoly.of([int(f.evaluate(q) * s)]) for f in rhs]
    rows = [{0: one} for _ in ideals]
    for column, edges in enumerate(poset.ideal_edges, 1):
        for lower, upper in edges:
            rows[lower][column] = one
            rows[upper][column] = minus_q
    if not minus_q:  # q = 0 leaves the tout cells zero
        rows = [{j: entry for j, entry in row.items() if entry} for row in rows]
    return rows, rhs


def toggle_solve(
    poset: Poset, statistic: Statistic, q_value: int | Fraction | None = None
) -> ToggleSolveResult:
    """Solve for the forced expectation of the statistic, exactly."""
    rows, rhs = build_system(poset, statistic, q_value)
    ideals = order_ideals(poset)
    result = solve_linear_system(
        rows, rhs, basis=_prefix_rows(poset, ideals), _columns=_c_last(poset.n)
    )
    return _toggle_result(result, ideals)


def _prefix_rows(poset: Poset, ideals: tuple[int, ...]) -> list[int]:
    """Rows of the n + 1 prefix ideals {0..k-1}, a nonsingular minor of A.

    Under the natural labeling every prefix is an order ideal.  At q = 0 the
    -q entries vanish: with the unknown c taken last (``_c_last``), row k < n
    has its leading 1 at the column of element k, which {0..k-1} can always
    add, and the full ideal's row is a single 1 at c.  The minor is unit
    upper triangular there, so its determinant is +-1 at q = 0 and is not
    the zero polynomial.  A given q_value can still make it singular; then
    all rows are eliminated.
    """
    return [bisect_left(ideals, (1 << k) - 1) for k in range(poset.n + 1)]


def _c_last(n: int) -> list[int]:
    """The columns of the elements in order, then the column of c."""
    return [*range(1, n + 1), 0]


def _toggle_result(result: LinearSystemResult, ideals: tuple[int, ...]) -> ToggleSolveResult:
    if not result.consistent:
        return ToggleSolveResult(False, None, None, None, ideals[result.witness_row])
    ys, d = result.numerators, result.denominator
    return ToggleSolveResult(True, RatFunc(ys[0], d), ys, d, None)


def _toggle_solve_all(poset: Poset, statistics: Sequence[Statistic]) -> list[ToggleSolveResult]:
    """``toggle_solve`` for several statistics of one poset: the matrix A is
    built once and its prefix rows are eliminated once, with every
    statistic's right-hand side attached.  A statistic whose answer from
    those rows is not certified on every row is solved on all rows alone."""
    rows, _ = build_system(poset, statistics[0])
    if any(statistic.poset != poset for statistic in statistics):
        raise PosetMismatch("statistic and system posets differ")
    rhss = [list(statistic.values) for statistic in statistics]
    ideals = order_ideals(poset)
    answers = _solve_on_basis(rows, rhss, _prefix_rows(poset, ideals), _c_last(poset.n))
    return [
        _toggle_result(answer or solve_linear_system(rows, rhs), ideals)
        for rhs, answer in zip(rhss, answers)
    ]


def predict_constant(poset: Poset) -> RatFunc:
    """Expected ddeg under the rank-chain distribution (graded posets only)."""
    return expectation(ensemble_rank(poset), statistic_ddeg(poset))


# ---------------------------------------------------------------------------
# refinement statistics for box shapes


def statistic_row(poset: Poset, row: int) -> Statistic:
    """Number of maximal elements of the ideal lying in the given row."""
    members = [e for e, (r, _) in enumerate(box_coords(poset)) if r == row]
    if not members:
        raise ValueError(f"no row {row} in this shape")
    return _maximal_count(poset, members, f"row:{row}")


def statistic_diagonal(poset: Poset, on_diagonal: bool = True) -> Statistic:
    """Number of maximal elements on (or off) the main diagonal."""
    members = [e for e, (r, c) in enumerate(box_coords(poset)) if (r == c) == on_diagonal]
    return _maximal_count(poset, members, "diagonal" if on_diagonal else "off-diagonal")


def verify_refinements(poset: Poset) -> tuple[RefinementReport, ...]:
    """Solve each refinement statistic of a rectangle or a staircase.

    Rectangles split the maximal-element count by row; staircases split it
    on and off the diagonal.  All statistics share one elimination.
    """
    coords = set(box_coords(poset))
    a = max(r for r, _ in coords)
    b = max(c for _, c in coords)
    if coords == {(r, c) for r in range(1, a + 1) for c in range(1, b + 1)}:
        statistics = [statistic_row(poset, row) for row in range(1, a + 1)]
    elif coords == {(r, c) for r in range(1, a + 1) for c in range(r, a + 1)}:
        statistics = [statistic_diagonal(poset, True), statistic_diagonal(poset, False)]
    else:
        raise UnsupportedPoset("refinements cover rectangles and staircases only")
    results = _toggle_solve_all(poset, statistics)
    return tuple(
        RefinementReport(statistic.label, result.consistent, result.constant)
        for statistic, result in zip(statistics, results)
    )
