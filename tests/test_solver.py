"""Tests for the toggle-constant solver and refinement checks."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    all_partitions,
    densify,
    hadamard_eliminate,
    naturally_labeled_posets,
    partition_strategy,
    strict_partition_strategy,
)
from qtab import qpoly, solver
from qtab.distributions import PosetMismatch, Statistic, ddeg, statistic_ddeg, tin, tout
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
from qtab.qpoly import ONE, ZERO, QPoly, RatFunc, parse_poly, qbinom, qnum
from qtab.solver import (
    _toggle_solve_all,
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
    "poset,rows,steps",
    [(build_rectangle(4, 4), [17], [2]), (build_shape((4, 3, 2, 1)), [11, 42], [2, 4])],
    ids=["rect4x4", "4321"],
)
def test_elimination_sees_a_row_basis(monkeypatch, eliminations, poset, rows, steps):
    # Rect 4x4 has 70 equations in 17 unknowns: only the 17 prefix-ideal
    # rows are built and eliminated, and no row of the full system is built.
    # Shape 4,3,2,1 is inconsistent: its 11 prefix rows solve, the edge
    # certificate fails, and all 42 rows are built and eliminated to find
    # the witness.  The prefix rows are eliminated once, at their first
    # width of 2 bytes (Hadamard's is 3); the full rows, a tall system, at
    # Hadamard's width of 4 bytes.
    built = []
    build = solver.build_system

    def spy_build(*args):
        system = build(*args)
        built.append(len(system[0]))
        return system

    monkeypatch.setattr(solver, "build_system", spy_build)
    toggle_solve(poset, statistic_ddeg(poset))
    assert [(call.rows, call.step) for call in eliminations] == list(zip(rows, steps))
    assert built == rows[1:]


# ---------------------------------------------------------------------------
# the edge certificate against the row-by-row one


_BOX_AND_RANDOM_POSETS = st.one_of(
    naturally_labeled_posets(),
    partition_strategy(8).map(build_shape),
    strict_partition_strategy(8).map(build_shifted),
)


def _prefix_answer(poset, system):
    """The prefix rows' unique (y, d), c last, or None."""
    rows, (rhs,) = solver._prefix_system(poset, [system])
    [(witness, ys)], d, free = hadamard_eliminate(rows, [rhs], poset.n + 1)
    if witness is not None or free:
        return None
    return ys, d


@settings(max_examples=120, deadline=None)
@given(
    _BOX_AND_RANDOM_POSETS,
    st.sampled_from([None, 0, 1, -1, Fraction(1, 2), 2]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)
@example(build_rectangle(2, 3), None, 0, 0)
def test_edge_certificate_accepts_what_check_solution_accepts(poset, q_value, column, ideal):
    # For the prefix rows' (y, d), true or with one planted error -- in one
    # y_j, in d times 1 + q, or in f(I) at an ideal that is not a prefix --
    # the walk over J(P)'s edges and the row-by-row check on build_system's
    # rows agree.
    statistic = statistic_ddeg(poset)
    one, minus_q, rhs = system = solver._specialise(poset, statistic, q_value)
    answer = _prefix_answer(poset, system)
    assume(answer is not None)
    ys, d = answer
    rows, _ = build_system(poset, statistic, q_value)

    def agree(ys, d, rhs):
        try:
            qpoly.check_solution(rows, rhs, (ys[-1], *ys[:-1]), d)
        except qpoly.ResidualMismatch:
            accepted = False
        else:
            accepted = True
        answer = solver._certified(poset, (one, minus_q, rhs), ys, d)
        assert (answer is not None) == accepted
        return accepted

    agree(ys, d, rhs)
    j = column % (poset.n + 1)
    assert not agree((*ys[:j], ys[j] + ONE, *ys[j + 1 :]), d, rhs)
    agree(ys, d * qnum(2), rhs)
    prefixes = {(1 << k) - 1 for k in range(poset.n + 1)}
    others = [i for i, mask in enumerate(order_ideals(poset)) if mask not in prefixes]
    if others:
        i = others[ideal % len(others)]
        agree(ys, d, [*rhs[:i], rhs[i] + ONE, *rhs[i + 1 :]])


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize(
    "poset", [build_rectangle(1, 1), build_rectangle(2, 3), staircase(3)], ids=["1x1", "2x3", "st3"]
)
def test_edge_certificate_rejects_a_residual_vanishing_just_below_its_bound(monkeypatch, poset, s):
    # Adding 2^(8s) - q to the true y_c leaves the residual 2^(8s) - q at
    # every ideal.  The certificate evaluates at 2^(8(s+1)), one byte above
    # that root, and rejects; one byte lower it would be fooled.
    statistic = statistic_ddeg(poset)
    result = toggle_solve(poset, statistic)
    root = QPoly.of([1 << 8 * s, -1])
    ys = (*result.numerators[1:], result.numerators[0] + root)
    system = solver._specialise(poset, statistic, None)
    steps = []
    certificate_step = solver._certificate_step

    def spy(*args):
        steps.append(certificate_step(*args))
        return steps[-1]

    monkeypatch.setattr(solver, "_certificate_step", spy)
    assert solver._certified(poset, system, ys, result.denominator) is None
    assert steps == [s + 1]
    monkeypatch.setattr(solver, "_certificate_step", lambda *args: certificate_step(*args) - 1)
    assert solver._certified(poset, system, ys, result.denominator) is not None


def test_edge_certificate_bound_counts_the_right_hand_side():
    # y = 0 and d = 1 against f = 256 - q on both ideals of one element
    # leave the residual q - 256.  A bound without the 1-norm 257 of b would
    # be N = 2 and Y = 1, so 2^K = 256, its root; with it the walk evaluates
    # at 2^16 and rejects.
    poset = Poset(1, [])
    statistic = Statistic.from_function(poset, lambda mask: QPoly.of([256, -1]))
    system = solver._specialise(poset, statistic, None)
    assert solver._certified(poset, system, (ZERO, ZERO), ONE) is None
    assert solver._certified(poset, system, (ZERO, QPoly.of([256, -1])), ONE) is not None


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
    # row i: q^(a-i) [b] / [a+b]
    assert [(r.label, r.consistent, r.constant) for r in reports] == [
        (f"row:{i}", True, RatFunc(QPoly.monomial(1, a - i) * qnum(b), qnum(a + b))) for i in range(1, a + 1)
    ]
    total = sum(
        (r.constant for r in reports), RatFunc(QPoly.of([]), QPoly.of([1]))
    )
    assert total == RatFunc(qnum(a) * qnum(b), qnum(a + b))


@pytest.mark.parametrize("k", [2, 3])
def test_staircase_diagonal_refinements(k):
    reports = verify_refinements(staircase(k))
    # [k]_(q^2) / [2k] on the diagonal, q [k choose 2] / [2k] off it
    assert [(r.label, r.consistent, r.constant) for r in reports] == [
        ("diagonal", True, RatFunc(qnum(k).substitute(2), qnum(2 * k))),
        ("off-diagonal", True, RatFunc(qbinom(k, 2).shift(1), qnum(2 * k))),
    ]
    total = sum(
        (r.constant for r in reports), RatFunc(QPoly.of([]), QPoly.of([1]))
    )
    assert total == RatFunc(qbinom(k + 1, 2), qnum(2 * k))


def test_refinements_reject_other_posets():
    with pytest.raises(UnsupportedPoset):
        verify_refinements(build_shape((2, 1)))
    with pytest.raises(UnsupportedPoset):
        verify_refinements(build_propeller(2))



# ---------------------------------------------------------------------------
# answers keep the certified y = d x and reduce a fraction when it is read


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        naturally_labeled_posets(),
        partition_strategy(8).map(build_shape),
        strict_partition_strategy(8).map(build_shifted),
    ),
    st.sampled_from([None, 1, -1]),
)
def test_answers_reduce_their_certified_fractions(poset, q_value):
    # The eager reduction of every y_j / d is the oracle for the constant and
    # for the coefficients; at q = 1 and -1 some prefix minors are singular,
    # and the answer comes from all rows.
    statistic = statistic_ddeg(poset)
    result = toggle_solve(poset, statistic, q_value)
    if not result.consistent:
        assert (result.constant, result.coefficients) == (None, None)
        assert (result.numerators, result.denominator) == (None, None)
        return
    rows, rhs = build_system(poset, statistic, q_value)
    qpoly.check_solution(rows, rhs, result.numerators, result.denominator)
    assert (result.constant, *result.coefficients) == qpoly._fractions(
        result.numerators, result.denominator
    )
    assert len(result.coefficients) == poset.n


@pytest.mark.parametrize(
    "poset", [build_rectangle(3, 4), staircase(4)], ids=["rect:3x4", "staircase:4"]
)
def test_refinement_constants_reduce_their_certified_fractions(poset):
    statistics = (
        [statistic_row(poset, row) for row in (1, 2, 3)]
        if poset.n == 12
        else [statistic_diagonal(poset, True), statistic_diagonal(poset, False)]
    )
    results = _toggle_solve_all(poset, statistics)
    for report, result in zip(verify_refinements(poset), results):
        fractions = qpoly._fractions(result.numerators, result.denominator)
        assert report.constant == result.constant == fractions[0]
        assert result.coefficients == fractions[1:]


@pytest.fixture
def reductions(monkeypatch):
    """Counts of ``_fractions`` calls and of gcds, the work of a reduction."""
    calls = Counter()
    fractions, gcd = qpoly._fractions, qpoly.poly_gcd

    def spy_fractions(*args):
        calls["fractions"] += 1
        return fractions(*args)

    def spy_gcd(*args):
        calls["gcd"] += 1
        return gcd(*args)

    monkeypatch.setattr(qpoly, "_fractions", spy_fractions)
    monkeypatch.setattr(solver, "_fractions", spy_fractions)
    monkeypatch.setattr(qpoly, "poly_gcd", spy_gcd)
    return calls


def test_answers_reduce_one_fraction_until_more_are_read(reductions):
    rect = build_rectangle(3, 4)
    verify_refinements(rect)
    assert reductions == {"gcd": 3}  # one constant per row statistic
    reductions.clear()
    result = toggle_solve(rect, statistic_ddeg(rect))
    assert reductions == {"gcd": 1}
    reductions.clear()
    coefficients = result.coefficients
    assert reductions["fractions"] == 1
    assert result.coefficients is coefficients
    assert reductions["fractions"] == 1

    rows, rhs = build_system(rect, statistic_ddeg(rect))
    reductions.clear()
    system = qpoly.solve_linear_system(rows, rhs)
    assert reductions == {}
    assert system.solution == (result.constant, *coefficients)
    assert system.solution is system.solution
    assert reductions["fractions"] == 1


_REPRS = """
from qtab.distributions import statistic_ddeg
from qtab.posets import build_rectangle, build_shape
from qtab.qpoly import solve_linear_system
from qtab.solver import build_system, toggle_solve

for poset in (build_rectangle(2, 3), build_shape((2, 1))):
    statistic = statistic_ddeg(poset)
    rows, rhs = build_system(poset, statistic)
    for answer, reduced in (
        (toggle_solve(poset, statistic), "coefficients"),
        (solve_linear_system(rows, rhs), "solution"),
    ):
        print(repr(answer))
        getattr(answer, reduced)
        print(repr(answer))
"""


def test_answer_reprs_are_the_same_in_every_process():
    # perfbench compares passes by a hash of each answer's repr, so the repr
    # holds no address and does not change when a fraction is first read.
    src = str(Path(solver.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        run = subprocess.run(
            [sys.executable, "-c", _REPRS], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 8 and lines[0::2] == lines[1::2]
    assert " at 0x" not in outputs[0]
    assert lines[0].startswith("ToggleSolveResult(consistent=True, ")
    assert lines[4].startswith("ToggleSolveResult(consistent=False, ")
