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
from fractions import Fraction
from typing import Sequence

from .distributions import (
    PosetMismatch,
    Statistic,
    _maximal_count,
    ensemble_rank,
    expectation,
    statistic_ddeg,
)
from .frozen import _Frozen, cached
from .kronecker import pack
from .posets import Poset, UnsupportedPoset, box_coords, order_ideals
from .qpoly import (
    QPoly,
    RatFunc,
    Row,
    _certificate_step,
    _eliminate,
    _fractions,
    _norm,
    _widths,
    solve_linear_system,
)

ROW_LIMIT = 100_000  # most order ideals, hence equations, the full system may have


class RowLimitExceeded(ValueError):
    """The poset has more order ideals than the system's row limit."""


class ToggleSolveResult(_Frozen):
    """Outcome of the toggle-constant system for one statistic.

    A consistent answer keeps the certified ``numerators`` y = d * (c, a_0,
    ..., a_(n-1)) over the ``denominator`` d, as the elimination that
    answered gives them, of the prefix rows or of all rows (``toggle_solve``).
    ``constant`` is c = y_0 / d, reduced; ``coefficients``, the
    a_p = y_(p+1) / d, are reduced when first read.  An inconsistent answer
    has only ``witness_mask``, an order ideal whose equation cannot hold.
    """

    __match_args__ = ("consistent", "constant", "numerators", "denominator", "witness_mask")

    def __init__(
        self,
        consistent: bool,
        constant: RatFunc | None,
        numerators: tuple[QPoly, ...] | None,
        denominator: QPoly | None,
        witness_mask: int | None,
    ) -> None:
        self._set(consistent, constant, numerators, denominator, witness_mask)

    @cached
    def coefficients(self) -> tuple[RatFunc, ...] | None:
        """The reduced a_p, one per element; None when inconsistent."""
        if not self.consistent:
            return None
        return _fractions(self.numerators[1:], self.denominator)


class RefinementReport(_Frozen):
    """The toggle constant of one refinement statistic, None if it has none."""

    __match_args__ = ("label", "consistent", "constant")

    def __init__(self, label: str, consistent: bool, constant: RatFunc | None) -> None:
        self._set(label, consistent, constant)


_System = tuple[QPoly, QPoly, list[QPoly]]  # the entries 1 and -q, and f(I) per order ideal


def _specialise(poset: Poset, statistic: Statistic, q_value: int | Fraction | None) -> _System:
    """The entries 1 and -q of the toggle system and its right-hand sides
    f(I), one per order ideal.  With ``q_value`` = a/b each is specialised
    at q = a/b and scaled by s = b^max(1, deg f) into an integer constant;
    one nonzero scale for all rows changes no solution and no zero pattern."""
    if statistic.poset != poset:
        raise PosetMismatch("statistic and system posets differ")
    rhs = list(statistic.values)  # one per order ideal
    one, minus_q = QPoly.of([1]), QPoly.of([0, -1])
    if q_value is not None:
        q = Fraction(q_value)
        s = q.denominator ** max(1, *(f.degree for f in rhs))
        one, minus_q = QPoly.of([s]), QPoly.of([int(-q * s)])
        scaled = {f: QPoly.of([int(f.evaluate(q) * s)]) for f in set(rhs)}  # once per value
        rhs = [scaled[f] for f in rhs]
    return one, minus_q, rhs


def build_system(
    poset: Poset, statistic: Statistic, q_value: int | Fraction | None = None
) -> tuple[list[Row], list[QPoly]]:
    """One row per order ideal: c + sum_p a_p * (tin_p - q*tout_p) = f.

    Each row is sparse (``Row``): its nonzero cells, c in column 0 and the
    coefficient a_p in column p + 1, specialised as ``_specialise`` says.
    More than ``ROW_LIMIT`` ideals raise ``RowLimitExceeded``."""
    one, minus_q, rhs = _specialise(poset, statistic, q_value)
    if len(rhs) > ROW_LIMIT:
        raise RowLimitExceeded(f"{len(rhs)} ideals exceed the row limit {ROW_LIMIT}")
    # The toggle entry of p at I is 1 on the edge I -> I + p (tin), -q on the
    # edge I - p -> I (tout) and 0 otherwise; the rows share one QPoly each.
    rows = [{0: one} for _ in rhs]
    for column, edges in enumerate(poset.ideal_edges, 1):
        for lower, upper in edges:
            rows[lower][column] = one
            rows[upper][column] = minus_q
    if not minus_q:  # q = 0 leaves the tout cells zero
        rows = [{j: entry for j, entry in row.items() if entry} for row in rows]
    return rows, rhs


def _prefix_system(poset: Poset, systems: Sequence[_System]) -> tuple[list[Row], list[list[QPoly]]]:
    """The rows of the prefix ideals {0..k-1}, k = 0..n, and their entries in
    each right-hand side of ``systems``; element p is in column p, c in n.
    Lower covers come first, so {0..k-1} can add p (entry 1) for k from the
    bit length of its lower-cover mask up to p, and remove it (entry -q) for
    k from p + 1 up to its lowest upper cover, or n; c has 1 in every row.

    Every prefix is an order ideal.  At q = 0 the -q entries vanish: row
    k < n has its leading 1 at element k, which {0..k-1} can always add, and
    the full ideal's row is a single 1 at c.  The minor is unit upper
    triangular there, so its determinant is not the zero polynomial; a given
    q_value can still make it singular.
    """
    (one, minus_q, _), ideals, n = systems[0], order_ideals(poset), poset.n
    rows = [{n: one} for _ in range(n + 1)]
    for p, (low, up) in enumerate(zip(poset.low_masks, poset.up_masks)):
        for k in range(low.bit_length(), p + 1):
            rows[k][p] = one
        if minus_q:  # q = 0 leaves the -q cells zero
            for k in range(p + 1, (up & -up).bit_length() if up else n + 1):
                rows[k][p] = minus_q
    at = [bisect_left(ideals, (1 << k) - 1) for k in range(n + 1)]
    return rows, [[rhs[i] for i in at] for _, _, rhs in systems]


def _certified(
    poset: Poset, system: _System, numerators: Sequence[QPoly], d: QPoly
) -> ToggleSolveResult | None:
    """The answer y = ``numerators`` (c last) over d if A y = d b holds on
    every order ideal's row of the ``system`` (1, -q, b) of ``_specialise``.

    One walk over J(P)'s cover edges at q = 2^K checks it: every row starts
    at v(1) y_c, the edge I -> I + p adds v(1) y_p at I and v(-q) y_p at
    I + p, and each total is compared with d f(I).  No row of [A|b], with
    its n + 1 cells at most, has a 1-norm above N = (n + 1) * (the larger
    entry 1-norm) + (the largest 1-norm in b), so at K = 8 *
    ``_certificate_step`` each residual is zero exactly when its value is.
    """
    one, minus_q, rhs = system
    fs = [f.coeffs for f in rhs]
    entry_norm = max(_norm(one.coeffs), _norm(minus_q.coeffs))
    row_norm = (poset.n + 1) * entry_norm + max(map(_norm, set(fs)))
    step = _certificate_step(row_norm, numerators, d)
    tin, tout, d_value = (pack(x.coeffs, step) for x in (one, minus_q, d))
    *values, c = [pack(y.coeffs, step) for y in numerators]
    totals = [tin * c] * len(rhs)
    for y, edges in zip(values, poset.ideal_edges):
        at_lower, at_upper = tin * y, tout * y
        for lower, upper in edges:
            totals[lower] += at_lower
            totals[upper] += at_upper
    targets = {f: d_value * pack(f, step) for f in set(fs)}
    if totals != [targets[f] for f in fs]:
        return None
    ys = (numerators[-1], *numerators[:-1])
    return ToggleSolveResult(True, RatFunc(ys[0], d), ys, d, None)


def toggle_solve(
    poset: Poset, statistic: Statistic, q_value: int | Fraction | None = None
) -> ToggleSolveResult:
    """Solve for the forced expectation of the statistic, exactly.

    The n + 1 prefix rows are solved first (``solve_linear_system``, which
    retries a short first width at Hadamard's), and their answer is taken
    when it leaves no free column and holds on every row (``_certified``).
    Otherwise -- as always for an inconsistent system -- every row of
    ``build_system`` is solved, c in column 0, which also gives the witness.
    """
    system = _specialise(poset, statistic, q_value)
    rows, (rhs,) = _prefix_system(poset, [system])
    result = solve_linear_system(rows, rhs)
    unique = result.consistent and not result.free_columns
    answer = unique and _certified(poset, system, result.numerators, result.denominator)
    if answer:
        return answer
    result = solve_linear_system(*build_system(poset, statistic, q_value))
    if not result.consistent:
        return ToggleSolveResult(False, None, None, None, order_ideals(poset)[result.witness_row])
    ys, d = result.numerators, result.denominator
    return ToggleSolveResult(True, RatFunc(ys[0], d), ys, d, None)


def _toggle_solve_all(poset: Poset, statistics: Sequence[Statistic]) -> list[ToggleSolveResult]:
    """``toggle_solve`` for several statistics, with one elimination of the
    prefix rows for all of them, at the first width of ``_widths``.

    Each answer that leaves no free column and passes ``_certified`` is
    taken as it is.  Every other statistic, whether its system is
    inconsistent or the width too narrow for its answer, is solved by
    ``toggle_solve``.
    """
    systems = [_specialise(poset, statistic, None) for statistic in statistics]
    rows, rhss = _prefix_system(poset, systems)
    ncols = poset.n + 1
    answers, d, free = _eliminate(rows, rhss, ncols, _widths(rows, rhss, ncols)[0])
    return [
        witness is None and not free and _certified(poset, system, ys, d)
        or toggle_solve(poset, statistic)
        for statistic, system, (witness, ys) in zip(statistics, systems, answers)
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
