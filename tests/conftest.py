"""Shared strategies and small-poset corpora for the test suite."""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from qtab import qpoly, solver
from qtab.posets import Poset, build_propeller, build_rectangle, build_shape, build_shifted
from qtab.qpoly import ZERO


def all_partitions(max_boxes: int, min_boxes: int = 1) -> list[tuple[int, ...]]:
    """Every partition with min_boxes..max_boxes boxes, largest part first."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if prefix and min_boxes <= sum(prefix):
            out.append(prefix)
        for part in range(1, min(cap, remaining) + 1):
            rec(remaining - part, part, prefix + (part,))

    rec(max_boxes, max_boxes, ())
    return sorted(set(out))


def strict_partitions(max_boxes: int, min_boxes: int = 1) -> list[tuple[int, ...]]:
    """Every strictly decreasing partition with min_boxes..max_boxes boxes."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if prefix and min_boxes <= sum(prefix):
            out.append(prefix)
        for part in range(1, min(cap, remaining) + 1):
            rec(remaining - part, part - 1, prefix + (part,))

    rec(max_boxes, max_boxes, ())
    return sorted(set(out))


def densify(rows: list[dict], ncols: int) -> list[list]:
    """Sparse rows {column: entry}, as ``build_system`` returns them, written
    out as dense rows of ``ncols`` cells."""
    return [[row.get(j, ZERO) for j in range(ncols)] for row in rows]


def hadamard_eliminate(rows: list[dict], rhss: list[list], ncols: int) -> tuple:
    """``qpoly._eliminate`` at Hadamard's width, the last of ``qpoly._widths``,
    which gives the Bareiss pair."""
    return qpoly._eliminate(rows, rhss, ncols, qpoly._widths(rows, rhss, ncols)[-1])


class Elimination(NamedTuple):
    """One ``qpoly._eliminate`` call: its numbers of rows and of right-hand
    sides, its step and what it returned."""

    rows: int
    rhss: int
    step: int
    result: tuple


@pytest.fixture
def eliminations(monkeypatch) -> list[Elimination]:
    """Every ``qpoly._eliminate`` call of the test, in order, whether from
    ``solve_linear_system`` or from the solver's shared elimination.  A
    hypothesis test clears the list at the start of each example."""
    calls: list[Elimination] = []
    eliminate = qpoly._eliminate

    def spy(matrix, rhss, ncols, step):
        result = eliminate(matrix, rhss, ncols, step)
        calls.append(Elimination(len(matrix), len(rhss), step, result))
        return result

    monkeypatch.setattr(qpoly, "_eliminate", spy)
    monkeypatch.setattr(solver, "_eliminate", spy)
    return calls


def divmod_digits(value: int, bits: int) -> list[int]:
    """The base-2^bits digits of value >= 0, least significant first."""
    out = []
    while value:
        value, digit = divmod(value, 1 << bits)
        out.append(digit)
    return out


def balanced_divmod_digits(value: int, bits: int) -> list[int]:
    """The digits in [-2^(bits-1), 2^(bits-1)) of value, least significant
    first, with no zero at the end."""
    half, out = 1 << bits - 1, []
    while value:
        value, digit = divmod(value + half, 1 << bits)
        out.append(digit - half)
    return out


def partition_strategy(max_boxes: int = 8) -> st.SearchStrategy[tuple[int, ...]]:
    return st.sampled_from(all_partitions(max_boxes))


def strict_partition_strategy(max_boxes: int = 8) -> st.SearchStrategy[tuple[int, ...]]:
    return st.sampled_from(strict_partitions(max_boxes))


@st.composite
def naturally_labeled_posets(draw, max_n: int = 8) -> Poset:
    """Random relations i < j on 0..n-1, closed transitively, kept as covers."""
    n = draw(st.integers(0, max_n))
    above = [0] * n  # elements strictly above each element
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                above[i] |= (1 << j) | above[j]
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if above[i] >> j & 1 and not any(above[i] >> k & 1 and above[k] >> j & 1 for k in range(n))
    ]
    return Poset(n, covers)


def small_poset_corpus(max_shape_boxes: int = 7) -> list[Poset]:
    """Shapes up to max_shape_boxes boxes, small staircases, small propellers."""
    posets = [build_shape(lam) for lam in all_partitions(max_shape_boxes)]
    posets.append(build_shifted((2, 1)))
    posets.append(build_shifted((3, 2, 1)))
    posets.append(build_propeller(2))
    posets.append(build_propeller(3))
    return posets


def small_shape_corpus(max_boxes: int = 7) -> list[Poset]:
    posets = [build_shape(lam) for lam in all_partitions(max_boxes)]
    posets.append(build_shifted((2, 1)))
    posets.append(build_shifted((3, 2, 1)))
    return posets


def rectangle_corpus(max_side: int = 3) -> list[Poset]:
    return [
        build_rectangle(a, b)
        for a in range(1, max_side + 1)
        for b in range(a, max_side + 1)
    ]
