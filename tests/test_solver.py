"""Tests for the toggle-constant solver and refinement checks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    all_partitions,
    densify,
    naturally_labeled_posets,
    partition_strategy,
    strict_partition_strategy,
)
from qtab import qpoly, solver
from qtab.distributions import PosetMismatch, ddeg, statistic_ddeg, tin, tout
from qtab.posets import (
    NotGraded,
    Poset,
    UnsupportedPoset,
    build_minuscule,
    build_propeller,
    build_rectangle,
    build_shape,
    build_shifted,
    order_ideals,
)
from qtab.qpoly import QPoly, RatFunc, parse_poly, qbinom, qnum
from qtab.solver import (
    RefinementReport,
    build_system,
    predict_constant,
    statistic_diagonal,
    statistic_row,
    toggle_solve,
    verify_refinements,
)


def staircase(k: int):
    return build_shifted(tuple(range(k, 0, -1)))


def test_singleton_golden():
    poset = build_shape((1,))
    result = toggle_solve(poset, statistic_ddeg(poset))
    assert result.consistent
    assert result.constant == RatFunc(QPoly.of([1]), parse_poly("1 + q"))
    assert result.coefficients == (RatFunc(QPoly.of([-1]), parse_poly("1 + q")),)
    assert result.witness_mask is None


def test_build_system_shape(monkeypatch):
    poset = build_rectangle(2, 2)
    rows, rhs = build_system(poset, statistic_ddeg(poset))
    assert len(rows) == 6 and len(rhs) == 6
    # Sparse rows: only nonzero cells, in the 5 columns, and every column used.
    assert all(set(row) <= set(range(5)) and all(row.values()) for row in rows)
    assert set().union(*rows) == set(range(5))
    assert rows[0][0] == QPoly.of([1])
    monkeypatch.setattr(solver, "ROW_LIMIT", 3)
    with pytest.raises(ValueError):
        build_system(poset, statistic_ddeg(poset))


def test_statistic_from_another_poset_is_refused():
    # The antichain's ddeg looked up on the chain's ideals would solve to
    # (3 + 2q + q^2) / [4] instead of the chain's [3] / [4].
    chain = Poset(3, [(0, 1), (1, 2)])
    with pytest.raises(PosetMismatch):
        toggle_solve(chain, statistic_ddeg(Poset(3, [])))


def test_statistic_from_another_box_layout_is_refused():
    # Both are three incomparable boxes: a row and a column.  The column's
    # row-1 statistic read on the row would solve to 1 / (1 + q) instead of
    # the row's 3 / (1 + q).
    row = Poset(3, [], coords=((1, 1), (1, 2), (1, 3)))
    column = Poset(3, [], coords=((1, 1), (2, 1), (3, 1)))
    assert row != column and hash(row) != hash(column)
    with pytest.raises(PosetMismatch):
        toggle_solve(row, statistic_row(column, 1))
    assert toggle_solve(row, statistic_row(row, 1)).constant == RatFunc(QPoly.of([3]), qnum(2))


def reference_system(poset, statistic):
    """The toggle system built cell by cell from tin and tout."""
    zero, one, minus_q = QPoly.of([]), QPoly.of([1]), QPoly.of([0, -1])
    matrix = []
    rhs = []
    for mask, value in zip(order_ideals(poset), statistic.values, strict=True):
        row = [one]
        row.extend(
            one if tin(poset, p, mask) else minus_q if tout(poset, p, mask) else zero
            for p in range(poset.n)
        )
        matrix.append(row)
        rhs.append(value)
    return matrix, rhs


@given(st.one_of(naturally_labeled_posets(), partition_strategy(8).map(build_shape)))
def test_build_system_matches_toggle_statistics(poset):
    statistic = statistic_ddeg(poset)
    rows, rhs = build_system(poset, statistic)
    assert all(set(row) <= set(range(poset.n + 1)) and all(row.values()) for row in rows)
    assert (densify(rows, poset.n + 1), rhs) == reference_system(poset, statistic)


@pytest.mark.parametrize(
    "a,b", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (5, 6)]
)
def test_rectangle_constants(a, b):
    rect = build_rectangle(a, b)
    result = toggle_solve(rect, statistic_ddeg(rect))
    assert result.consistent
    expected = RatFunc(qnum(a) * qnum(b), qnum(a + b))
    assert result.constant == expected
    assert predict_constant(rect) == expected


@pytest.mark.parametrize("k", [2, 3])
def test_staircase_constants(k):
    poset = staircase(k)
    result = toggle_solve(poset, statistic_ddeg(poset))
    assert result.consistent
    expected = RatFunc(qbinom(k + 1, 2), qnum(2 * k))
    assert result.constant == expected
    assert predict_constant(poset) == expected


def test_propeller_constants():
    for k, expected in [
        (2, RatFunc(parse_poly("1 + q"), parse_poly("1 + q^2"))),
        (3, RatFunc(qnum(5) + QPoly.monomial(1, 2), qnum(6))),
    ]:
        poset = build_propeller(k)
        result = toggle_solve(poset, statistic_ddeg(poset))
        assert result.consistent
        assert result.constant == expected
        assert predict_constant(poset) == expected


def test_exceptional_minuscule_constant():
    poset = build_minuscule("E6")
    result = toggle_solve(poset, statistic_ddeg(poset))
    assert result.consistent
    assert result.constant == predict_constant(poset)


def test_consistency_on_shapes_matches_rectangularity():
    for lam in all_partitions(7):
        poset = build_shape(lam)
        result = toggle_solve(poset, statistic_ddeg(poset))
        is_rectangle = len(set(lam)) == 1
        assert result.consistent == is_rectangle
        if not result.consistent:
            assert result.witness_mask in order_ideals(poset)
            assert result.constant is None


@pytest.mark.parametrize(
    "lam,mask",
    [((5, 4, 3, 2, 1), 4079), ((4, 3, 2, 1), 503), ((3, 2, 1), 41), ((2, 1), 7)],
    ids=["54321", "4321", "321", "21"],
)
def test_inconsistent_witness_masks(lam, mask):
    # The witness is the first row left nonzero after elimination, so it
    # pins the column order, the pivot rule and the row swaps.
    poset = build_shape(lam)
    result = toggle_solve(poset, statistic_ddeg(poset))
    assert not result.consistent
    assert result.witness_mask == mask


@pytest.mark.parametrize(
    "poset,rows",
    [(build_rectangle(4, 4), [17]), (build_shape((4, 3, 2, 1)), [11, 42])],
    ids=["rect4x4", "4321"],
)
def test_elimination_sees_a_row_basis(monkeypatch, poset, rows):
    # Rect 4x4 has 70 equations in 17 unknowns: only the 17 prefix-ideal
    # rows are eliminated.  Shape 4,3,2,1 is inconsistent: its 11 prefix
    # rows solve, the certificate fails, and all 42 rows are eliminated to
    # find the witness.
    seen = []
    eliminate = qpoly._eliminate

    def spy(matrix, rhss, ncols):
        seen.append(len(matrix))
        return eliminate(matrix, rhss, ncols)

    monkeypatch.setattr(qpoly, "_eliminate", spy)
    toggle_solve(poset, statistic_ddeg(poset))
    assert seen == rows


def test_hook_shape_is_consistent_at_one():
    poset = build_shape((2, 1))
    generic = toggle_solve(poset, statistic_ddeg(poset))
    assert not generic.consistent
    at_one = toggle_solve(poset, statistic_ddeg(poset), q_value=1)
    assert at_one.consistent
    assert at_one.constant == RatFunc.from_int(1)


def test_rational_specialization():
    rect = build_rectangle(2, 2)
    result = toggle_solve(rect, statistic_ddeg(rect), q_value=Fraction(1, 2))
    assert result.consistent
    # [2][2]/[4] at q = 1/2 is (3/2)^2 / (15/8) = 6/5
    assert result.constant == RatFunc(QPoly.of([6]), QPoly.of([5]))


def test_predict_constant_requires_grading():
    with pytest.raises(NotGraded):
        predict_constant(build_shape((3, 1)))


def maximal_counts(poset, members):
    """Per ideal, in ``order_ideals`` order, the number of members that tout
    marks maximal."""
    return tuple(
        QPoly.of([sum(tout(poset, p, mask) for p in members)])
        for mask in order_ideals(poset)
    )


@given(naturally_labeled_posets())
def test_ddeg_counts_maximal_elements(poset):
    assert statistic_ddeg(poset).values == maximal_counts(poset, range(poset.n))


@given(
    st.one_of(
        partition_strategy(8).map(build_shape),
        strict_partition_strategy(8).map(build_shifted),
    )
)
def test_box_statistics_count_maximal_elements(poset):
    for row in sorted({r for r, _ in poset.coords}):
        members = [e for e, (r, _) in enumerate(poset.coords) if r == row]
        assert statistic_row(poset, row).values == maximal_counts(poset, members)
    for on_diagonal in (True, False):
        members = [e for e, (r, c) in enumerate(poset.coords) if (r == c) == on_diagonal]
        expected = maximal_counts(poset, members)
        assert statistic_diagonal(poset, on_diagonal).values == expected


def test_row_statistics_sum_to_ddeg():
    rect = build_rectangle(2, 3)
    rows = [statistic_row(rect, i) for i in (1, 2)]
    for j, mask in enumerate(order_ideals(rect)):
        total = sum((stat.values[j] for stat in rows), QPoly.of([]))
        assert total == QPoly.of([ddeg(rect, mask)])
    with pytest.raises(ValueError):
        statistic_row(rect, 3)
    with pytest.raises(UnsupportedPoset):
        statistic_row(build_propeller(2), 1)


def test_diagonal_statistics_split_ddeg():
    poset = staircase(3)
    on = statistic_diagonal(poset)
    off = statistic_diagonal(poset, on_diagonal=False)
    for j, mask in enumerate(order_ideals(poset)):
        total = on.values[j] + off.values[j]
        assert total == QPoly.of([ddeg(poset, mask)])


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3)])
def test_rectangle_row_refinements(a, b):
    reports = verify_refinements(build_rectangle(a, b))
    assert [r.label for r in reports] == [f"row:{i}" for i in range(1, a + 1)]
    assert all(r.ok for r in reports)
    total = sum(
        (r.constant for r in reports), RatFunc(QPoly.of([]), QPoly.of([1]))
    )
    assert total == RatFunc(qnum(a) * qnum(b), qnum(a + b))


@pytest.mark.parametrize("k", [2, 3])
def test_staircase_diagonal_refinements(k):
    reports = verify_refinements(staircase(k))
    assert [r.label for r in reports] == ["diagonal", "off-diagonal"]
    assert all(r.ok for r in reports)
    total = sum(
        (r.constant for r in reports), RatFunc(QPoly.of([]), QPoly.of([1]))
    )
    assert total == RatFunc(qbinom(k + 1, 2), qnum(2 * k))


def test_refinements_reject_other_posets():
    with pytest.raises(UnsupportedPoset):
        verify_refinements(build_shape((2, 1)))
    with pytest.raises(UnsupportedPoset):
        verify_refinements(build_propeller(2))


def test_report_ok_semantics():
    bad = RefinementReport("x", False, None, RatFunc.from_int(1))
    assert not bad.ok
    good = RefinementReport("x", True, RatFunc.from_int(1), RatFunc.from_int(1))
    assert good.ok
