"""Dyck paths, restricted bicolored Motzkin paths, and the bijections
carrying two-row (set-valued) tableaux to paths.

Paths are step sequences; heights are derived.  Bicolored Motzkin paths
take steps U/D and red and blue horizontal steps (Hr/Hb), restricted so that
a red horizontal step never occurs at height zero and a blue one never
strictly precedes the first down step (a path with no down step admits no
blue step at all).  Dyck paths are the restricted paths with no horizontal
step.  Text format: the steps concatenated, e.g. ``"UHrDUUDD"``.

A two-row set-valued tableau fills a 2 x b rectangle with disjoint nonempty
sets partitioning 1..2b+k (k entries beyond the minimum), increasing along
rows and columns in the strong sense max(cell) < min(next).  Values map to
steps: a cell minimum becomes U (top row) or D (bottom row), every other
entry becomes a horizontal step, red on top and blue on bottom.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator

from .extensions import BsvLinearExtension, LinearExtension
from .frozen import _Frozen
from .posets import Poset, UnsupportedPoset, box_coords, build_rectangle
from .qpoly import QPoly, QTPoly, _from_map, qbinom, qnum


# ---------------------------------------------------------------------------
# restricted bicolored Motzkin paths, and Dyck paths among them


class RbMotzkinPath(_Frozen):
    """Motzkin path with red/blue horizontal steps under the two restrictions."""

    __match_args__ = ("steps",)

    def __init__(self, steps: tuple[str, ...]) -> None:
        height = 0
        seen_down = False
        for step in steps:
            if step == "U":
                height += 1
            elif step == "D":
                height -= 1
                seen_down = True
            elif step == "Hr":
                if height == 0:
                    raise ValueError("red horizontal step at height zero")
            elif step == "Hb":
                if not seen_down:
                    raise ValueError("blue horizontal step before the first down step")
            else:
                raise ValueError(f"unknown step {step!r}")
            if height < 0:
                raise ValueError("path dips below the axis")
        if height:
            raise ValueError("path does not return to the axis")
        object.__setattr__(self, "steps", steps)

    @property
    def horizontal_count(self) -> int:
        """Steps that are neither U nor D; a valid path has as many D as U."""
        return len(self.steps) - 2 * self.steps.count("U")

    def hor(self) -> frozenset[int]:
        """1-based indices of the horizontal steps."""
        return frozenset(
            i for i, step in enumerate(self.steps, start=1) if step in ("Hr", "Hb")
        )

    def valleys(self) -> frozenset[int]:
        """1-based indices of down steps immediately followed by up steps."""
        return frozenset(
            i
            for i in range(1, len(self.steps))
            if self.steps[i - 1] == "D" and self.steps[i] == "U"
        )

    def comaj_plus(self) -> int:
        """Sum of (length - i) over valleys and horizontal steps."""
        length = len(self.steps)
        return sum(length - i for i in self.valleys() | self.hor())

    def blue_count(self) -> int:
        """The color statistic: number of blue horizontal steps."""
        return sum(1 for step in self.steps if step == "Hb")


def enumerate_rbmotz(length: int, k: int | None = None) -> Iterator[RbMotzkinPath]:
    """All restricted paths of the given length (k horizontal steps if given),
    depth first from a stack of (steps, height, seen a down step, horizontal
    steps) entries, pushed so that they pop as U, D, Hr, Hb.  The walk takes
    only allowed steps, so its paths are built without the check of
    ``__init__``."""
    stack: list[tuple[tuple[str, ...], int, bool, int]] = [((), 0, False, 0)]
    while stack:
        steps, height, seen_down, hcount = stack.pop()
        remaining = length - len(steps)
        if height > remaining:
            continue
        if k is not None and (hcount > k or hcount + remaining < k):
            continue
        if not remaining:
            yield _unchecked(RbMotzkinPath, steps=steps)
            continue
        if seen_down:
            stack.append((steps + ("Hb",), height, seen_down, hcount + 1))
        if height > 0:
            stack.append((steps + ("Hr",), height, seen_down, hcount + 1))
            stack.append((steps + ("D",), height - 1, True, hcount))
        stack.append((steps + ("U",), height + 1, seen_down, hcount))


def _unchecked(cls: type, **fields: object) -> object:
    """An instance of ``cls`` with the given fields, set straight into its
    ``__dict__`` without the checks of ``__init__``, for walks that yield
    only valid objects."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


class DyckPath(RbMotzkinPath):
    """A restricted Motzkin path with no horizontal step: a balanced U/D step
    sequence that never goes below the axis."""

    def __init__(self, steps: tuple[str, ...]) -> None:
        for step in steps:
            if step not in ("U", "D"):
                raise ValueError(f"step {step!r} is not U or D")
        super().__init__(steps)

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    def comaj(self) -> int:
        """Sum of 2b - i over the valleys (``comaj_plus`` with no horizontal step)."""
        return self.comaj_plus()


def enumerate_dyck(b: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength b, in lex order (U before D)."""
    return (DyckPath(p.steps) for p in enumerate_rbmotz(2 * b, k=0))


def format_path(path: RbMotzkinPath) -> str:
    return "".join(path.steps)


def _tokenize(text: str) -> tuple[str, ...]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i] == "H":
            tokens.append(text[i : i + 2])
            i += 2
        else:
            tokens.append(text[i])
            i += 1
    return tuple(tokens)


def parse_dyck(text: str) -> DyckPath:
    return DyckPath(_tokenize(text.strip()))


def parse_rbmotz(text: str) -> RbMotzkinPath:
    return RbMotzkinPath(_tokenize(text.strip()))


def catalan_number(b: int) -> int:
    return math.comb(2 * b, b) // (b + 1)


def q_catalan(b: int) -> QPoly:
    """qbinom(2b, b) / [b+1], an exact polynomial."""
    return qbinom(2 * b, b).exact_div(qnum(b + 1))


def gf_comaj_dyck(b: int) -> QPoly:
    """Generating function of comaj over Dyck paths of semilength b."""
    return _from_map(Counter(path.comaj() for path in enumerate_dyck(b))) or QPoly.of([1])


# ---------------------------------------------------------------------------
# two-row tableaux <-> paths


def _two_row_layout(poset: Poset) -> tuple[int, list[int]]:
    """Width b and the element of each (row, col) for a 2 x b rectangle."""
    coords = box_coords(poset)
    b = poset.n // 2
    if set(coords) != {(r, c) for r in (1, 2) for c in range(1, b + 1)}:
        raise UnsupportedPoset("not a two-row rectangle")
    by_coord = {rc: e for e, rc in enumerate(coords)}
    order = [by_coord[(r, c)] for r in (1, 2) for c in range(1, b + 1)]
    return b, order


def dyck_from_syt(ext: LinearExtension) -> DyckPath:
    """U at top-row values, D at bottom-row values; valleys match descents."""
    _two_row_layout(ext.poset)
    rows = ext.poset.coords
    steps = tuple("U" if rows[e][0] == 1 else "D" for e in ext.positions)
    return DyckPath(steps)


def syt_from_dyck(path: DyckPath) -> LinearExtension:
    """Inverse of ``dyck_from_syt`` onto the 2 x b rectangle."""
    b = path.semilength
    poset = build_rectangle(2, b)
    values = [0] * poset.n
    seen = {"U": 0, "D": 0}
    for v, step in enumerate(path.steps, start=1):
        e = seen[step] if step == "U" else b + seen[step]
        values[e] = v
        seen[step] += 1
    return LinearExtension(poset, tuple(values))


# ---------------------------------------------------------------------------
# two-row set-valued tableaux


class TwoRowSetValued(_Frozen):
    """Two rows of b cells holding disjoint sets that partition 1..2b+k."""

    __match_args__ = ("rows",)

    def __init__(
        self, rows: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
    ) -> None:
        top, bottom = rows
        if len(top) != len(bottom):
            raise ValueError("rows must have equal length")
        flat = sorted(v for row in rows for cell in row for v in cell)
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError("entries must partition 1..total")
        for row in rows:
            for cell in row:
                if not cell or list(cell) != sorted(set(cell)):
                    raise ValueError("cells must be nonempty sorted sets")
            for left, right in zip(row, row[1:]):
                if max(left) > min(right):
                    raise ValueError("row entries must increase")
        for upper, lower in zip(top, bottom):
            if max(upper) > min(lower):
                raise ValueError("column entries must increase")
        object.__setattr__(self, "rows", rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def extras(self) -> int:
        """Number of entries beyond one per cell."""
        return sum(len(cell) - 1 for row in self.rows for cell in row)

    @property
    def top_entry_count(self) -> int:
        return sum(len(cell) for cell in self.rows[0])


def enumerate_two_row_set_valued(b: int, k: int) -> Iterator[TwoRowSetValued]:
    """All tableaux of width b with k extra entries, by placing the values
    1..2b+k in order, depth first.

    A value opens a top cell while the top row has fewer than b cells.  It
    joins the last top cell, or opens a bottom cell, while the bottom row is
    shorter than the top row, so no column is closed below a larger top
    entry.  It joins the last bottom cell whenever there is one.  Each value
    of a tableau is placed by exactly one of these moves, so the walk yields
    every tableau once and nothing else, built without the check of
    ``__init__``.
    """
    if b < 1 or k < 0:
        return
    total = 2 * b + k
    stack: list[tuple[int, tuple, tuple]] = [(1, (), ())]
    while stack:
        v, top, bottom = stack.pop()
        if 2 * b - len(top) - len(bottom) > total + 1 - v:
            continue  # too few values left to open the missing cells
        if v > total:
            yield _unchecked(TwoRowSetValued, rows=(top, bottom))
            continue
        if bottom:
            stack.append((v + 1, top, (*bottom[:-1], (*bottom[-1], v))))
        if len(bottom) < len(top):
            stack.append((v + 1, top, (*bottom, (v,))))
            stack.append((v + 1, (*top[:-1], (*top[-1], v)), bottom))
        if len(top) < b:
            stack.append((v + 1, (*top, (v,)), bottom))


def motzkin_from_set_valued(tableau: TwoRowSetValued) -> RbMotzkinPath:
    """Cell minima become U/D by row; other entries become Hr/Hb by row."""
    total = 2 * tableau.width + tableau.extras
    steps = [""] * total
    for row_index, row in enumerate(tableau.rows):
        for cell in row:
            steps[cell[0] - 1] = "U" if row_index == 0 else "D"
            for v in cell[1:]:
                steps[v - 1] = "Hr" if row_index == 0 else "Hb"
    return RbMotzkinPath(tuple(steps))


def set_valued_from_motzkin(path: RbMotzkinPath) -> TwoRowSetValued:
    """Inverse of ``motzkin_from_set_valued``: horizontal steps rejoin the
    newest cell of their row."""
    top: list[list[int]] = []
    bottom: list[list[int]] = []
    for i, step in enumerate(path.steps, start=1):
        if step == "U":
            top.append([i])
        elif step == "D":
            bottom.append([i])
        elif step == "Hr":
            if not top:
                raise ValueError("red horizontal step before any up step")
            top[-1].append(i)
        else:
            bottom[-1].append(i)
    if len(top) != len(bottom):
        raise ValueError("unbalanced path")
    return TwoRowSetValued(
        (
            tuple(tuple(cell) for cell in top),
            tuple(tuple(cell) for cell in bottom),
        )
    )


def motzkin_from_bsv(bsv: BsvLinearExtension) -> RbMotzkinPath:
    """The width-b path of a barely set-valued two-row extension."""
    b, order = _two_row_layout(bsv.poset)
    rows = (
        tuple(bsv.entries[e] for e in order[:b]),
        tuple(bsv.entries[e] for e in order[b:]),
    )
    return motzkin_from_set_valued(TwoRowSetValued(rows))


def bsv_from_motzkin(path: RbMotzkinPath) -> BsvLinearExtension:
    """Inverse of ``motzkin_from_bsv`` onto the 2 x b rectangle."""
    if path.horizontal_count != 1:
        raise ValueError("exactly one horizontal step required")
    tableau = set_valued_from_motzkin(path)
    b = tableau.width
    poset = build_rectangle(2, b)
    entries = tuple(tableau.rows[0]) + tuple(tableau.rows[1])
    p_star = next(e for e, cell in enumerate(entries) if len(cell) == 2)
    return BsvLinearExtension(poset, entries, p_star, max(entries[p_star]))


# ---------------------------------------------------------------------------
# identities


def gf_rbmotz(b: int) -> QTPoly:
    """Sum of q^comaj+ t^color over RBMotz(2b+1; 1), the paths of length 2b+1
    with one horizontal step."""
    paths = enumerate_rbmotz(2 * b + 1, k=1)
    return QTPoly.of(Counter((path.comaj_plus(), path.blue_count()) for path in paths))


def two_row_tally(length: int) -> tuple[Counter, Counter]:
    """Counts of the two-row set-valued tableaux with 2b+k = length entries,
    by width b and by number of top-row entries."""
    by_width: Counter = Counter()
    by_top: Counter = Counter()
    for b in range(1, length // 2 + 1):
        for tableau in enumerate_two_row_set_valued(b, length - 2 * b):
            by_width[b] += 1
            by_top[tableau.top_entry_count] += 1
    return by_width, by_top


def rbmotz_counts(length: int) -> Counter:
    """Counts of the restricted paths of the given length by number of
    horizontal steps: a transfer-matrix walk over (height, seen a down step,
    horizontal steps) states, each with its number of prefixes.  A state too
    high to return to the axis in the steps left is dropped, so every state
    left at the end has height 0."""
    states = Counter({(0, False, 0): 1})
    for left in reversed(range(length)):
        step: Counter = Counter()
        for (height, seen_down, hcount), count in states.items():
            if height < left:
                step[height + 1, seen_down, hcount] += count
            if height:
                step[height - 1, True, hcount] += count
            if height <= left and (height or seen_down):
                # a red step needs height > 0, a blue one a down step before it
                step[height, seen_down, hcount + 1] += count * ((height > 0) + seen_down)
        states = step
    counts: Counter = Counter()
    for (_, _, hcount), count in states.items():
        counts[hcount] += count
    return counts


def narayana_row(m: int) -> dict[int, int]:
    """The Narayana numbers N(m, j) = C(m, j) C(m, j-1) / m for j = 1..m."""
    return {j: math.comb(m, j) * math.comb(m, j - 1) // m for j in range(1, m + 1)}
