"""Linear extensions of a naturally labeled poset, their barely set-valued
relatives, and descent generating functions.

A linear extension assigns the values ``1..n`` to the elements so that values
increase upward; ``values[e]`` is the value of element ``e``.  Its word is
``w_1 .. w_n`` where ``w_k`` is the label (element index plus one) of the
element holding value ``k``; enumeration is in ascending lexicographic order
of this word.  A descent is a position ``k`` with ``w_k > w_(k+1)``.

A barely set-valued extension assigns disjoint nonempty sets partitioning
``1..n+1``, increasing along covers, with exactly one doubleton cell.  Its
descents are read off the filling the same way -- the position of value ``u``
against that of ``u+1`` -- except that ``i* - 1`` never counts and ``i*``
always counts, where ``i*`` is the larger entry of the doubleton.

The generating functions are path sums over the order ideals, computed by
``engine``; the enumerators are the reference they are tested against and
the route behind ``ensemble_rpp(mode="via_theta_m")``.

Tableau text format (for posets with box coordinates): one line per row,
entries comma-separated, a doubled cell written ``a|b`` -- e.g. ``"1,3\\n2,4|5"``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import engine
from .frozen import _Frozen, cached
from .posets import Poset, box_coords
from .qpoly import QPoly, QTPoly, _qt_rows, bracket_ratio


class InvalidTriple(Exception):
    """A (T, i, p) triple that does not define a barely set-valued filling."""


class LinearExtension(_Frozen):
    """A linear extension; ``values[e]`` is the value (1..n) of element e."""

    __match_args__ = ("poset", "values")

    def __init__(self, poset: Poset, values: tuple[int, ...]) -> None:
        if sorted(values) != list(range(1, poset.n + 1)):
            raise ValueError("values must be a bijection onto 1..n")
        for lo, hi in poset.covers:
            if values[lo] > values[hi]:
                raise ValueError(f"values decrease along cover ({lo}, {hi})")
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.poset, self.values) == (other.poset, other.values)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.poset, self.values))

    @cached
    def positions(self) -> tuple[int, ...]:
        """``positions[k]`` is the element holding value k+1."""
        out = [0] * self.poset.n
        for e, v in enumerate(self.values):
            out[v - 1] = e
        return tuple(out)

    @cached
    def _descents(self) -> frozenset[int]:
        pos = self.positions
        return frozenset(k for k in range(1, self.poset.n) if pos[k - 1] > pos[k])

    @cached
    def theta_exponents(self) -> tuple[int, ...]:
        """Per i = 0..n, comaj(T, i) + #{descents below i}, the exponent of
        theta(T, i)."""
        n = self.poset.n
        base = sum(n - k for k in self._descents)
        return tuple(base + f for f in f_x_permutation(n, self._descents))

    def word(self) -> tuple[int, ...]:
        """The label word w_1 .. w_n."""
        return tuple(e + 1 for e in self.positions)

    @cached
    def prefix_masks(self) -> tuple[int, ...]:
        """Per i = 0..n, the mask of the elements holding values 1..i."""
        masks = [0]
        for e in self.positions:
            masks.append(masks[-1] | 1 << e)
        return tuple(masks)

    @cached
    def dual_positions(self) -> tuple[int, ...]:
        """``positions`` of the same order read backwards on the order dual
        (element e -> n-1-e, value v -> n+1-v)."""
        n = self.poset.n
        return tuple([n - 1 - e for e in reversed(self.positions)])

    @cached
    def dual_values(self) -> tuple[int, ...]:
        """``values`` of the same order read backwards on the order dual."""
        n = self.poset.n
        return tuple([n + 1 - v for v in reversed(self.values)])

    def prefix_ideal(self, i: int) -> int:
        """Mask of the elements holding values 1..i."""
        if not 0 <= i <= self.poset.n:
            raise ValueError(f"prefix length {i} out of range")
        return self.prefix_masks[i]


def _extension_positions(poset: Poset) -> Iterator[tuple[int, ...]]:
    """Positions arrays of all linear extensions, in lex word order: a
    depth-first walk in which ``start`` is the next element to try at depth
    ``len(prefix)``."""
    n = poset.n
    indegree = [len(poset.lower_covers[e]) for e in range(n)]
    placed = [False] * n
    prefix: list[int] = []
    start = 0
    while True:
        if len(prefix) == n:
            yield tuple(prefix)
        e = start
        while e < n and (placed[e] or indegree[e]):
            e += 1
        if e < n:
            placed[e] = True
            for u in poset.upper_covers[e]:
                indegree[u] -= 1
            prefix.append(e)
            start = 0
        elif prefix:
            e = prefix.pop()
            for u in poset.upper_covers[e]:
                indegree[u] += 1
            placed[e] = False
            start = e + 1
        else:
            return


def _from_positions(poset: Poset, pos: Sequence[int]) -> LinearExtension:
    """The extension whose element at value k+1 is ``pos[k]``.  The walk
    yields only linear extensions, so it is built without the check of
    ``__init__``, with ``positions`` already cached."""
    values = [0] * poset.n
    for k, e in enumerate(pos):
        values[e] = k + 1
    ext = object.__new__(LinearExtension)
    vars(ext).update(poset=poset, values=tuple(values), positions=tuple(pos))
    return ext


def enumerate_linear_extensions(poset: Poset) -> Iterator[LinearExtension]:
    """All linear extensions in ascending lexicographic word order."""
    for pos in _extension_positions(poset):
        yield _from_positions(poset, pos)


def descents(ext: LinearExtension) -> frozenset[int]:
    """Positions k with w_k > w_(k+1)."""
    return ext._descents


def maj(ext: LinearExtension) -> int:
    return sum(descents(ext))


def comaj(ext: LinearExtension) -> int:
    n = ext.poset.n
    return sum(n - k for k in descents(ext))


def comaj_at(ext: LinearExtension, i: int) -> int:
    """comaj over the descents with position i adjoined (0 <= i <= n)."""
    n = ext.poset.n
    if not 0 <= i <= n:
        raise ValueError(f"descent position {i} out of range")
    return sum(n - k for k in descents(ext) | {i})


def gf_comaj(poset: Poset) -> QPoly:
    """Generating function of comaj over all linear extensions."""
    return QPoly.of(engine.comaj_gf(poset))


def gf_comaj_hook_formula(partition: Sequence[int], shifted: bool = False) -> QPoly:
    """The q-hook-length product [1]...[n] / prod [h(u)] for a (shifted) shape."""
    from .posets import hook_lengths, shifted_hook_lengths

    hooks = (shifted_hook_lengths if shifted else hook_lengths)(partition)
    return bracket_ratio(range(1, len(hooks) + 1), hooks.values())


def f_x_permutation(n: int, xset: Sequence[int]) -> tuple[int, ...]:
    """The permutation i -> #{j in X : j < i} + (n - i if i not in X else 0).

    Defined on 0..n; for any X within 1..n it is a bijection onto 0..n, and
    for X = Des(T) it gives the exponent offsets comaj(T, i) + #{j in X, j < i}
    minus comaj(T).
    """
    xs = set(xset)
    if not all(1 <= x <= n for x in xs):
        raise ValueError("X must lie within 1..n")
    out = []
    below = 0  # #{j in X : j < i}
    for i in range(n + 1):
        if i in xs:
            out.append(below)
            below += 1
        else:
            out.append(below + n - i)
    return tuple(out)


# ---------------------------------------------------------------------------
# barely set-valued linear extensions


class BsvLinearExtension(_Frozen):
    """Barely set-valued extension: per-element sorted value tuples."""

    __match_args__ = ("poset", "entries", "p_star", "i_star")

    def __init__(
        self, poset: Poset, entries: tuple[tuple[int, ...], ...], p_star: int, i_star: int
    ) -> None:
        n = poset.n
        if len(entries) != n:
            raise ValueError("one cell per element required")
        for cell in entries:
            if len(cell) not in (1, 2) or list(cell) != sorted(set(cell)):
                raise ValueError("cells must be sorted 1- or 2-element sets")
        flat = sorted(v for cell in entries for v in cell)
        if flat != list(range(1, n + 2)):
            raise ValueError("entries must partition 1..n+1")
        doubles = [e for e, cell in enumerate(entries) if len(cell) == 2]
        if doubles != [p_star]:
            raise ValueError("exactly the doubled cell must be p_star")
        if max(entries[p_star]) != i_star:
            raise ValueError("i_star must be the larger doubleton entry")
        for lo, hi in poset.covers:
            if max(entries[lo]) > min(entries[hi]):
                raise ValueError(f"entries decrease along cover ({lo}, {hi})")
        self._set(poset, entries, p_star, i_star)


def bsv_from_triple(ext: LinearExtension, i: int, p: int) -> BsvLinearExtension:
    """Insert value i+1 into the cell of p; p must be maximal among values <= i."""
    poset = ext.poset
    n = poset.n
    if not 0 <= i <= n:
        raise InvalidTriple(f"index {i} out of 0..{n}")
    if not 0 <= p < n:
        raise InvalidTriple(f"element {p} out of range")
    if ext.values[p] > i:
        raise InvalidTriple(f"element {p} is outside the first {i} values")
    for u in poset.upper_covers[p]:
        if ext.values[u] <= i:
            raise InvalidTriple(f"element {p} is not maximal among the first {i}")
    entries = []
    for e, v in enumerate(ext.values):
        if e == p:
            entries.append((v, i + 1))
        else:
            entries.append((v,) if v <= i else (v + 1,))
    return BsvLinearExtension(poset, tuple(entries), p, i + 1)


def triple_from_bsv(bsv: BsvLinearExtension) -> tuple[LinearExtension, int, int]:
    """Inverse of ``bsv_from_triple``."""
    i_star = bsv.i_star
    values = []
    for e, cell in enumerate(bsv.entries):
        v = min(cell)
        values.append(v if v < i_star else v - 1)
    return LinearExtension(bsv.poset, tuple(values)), i_star - 1, bsv.p_star


def bsv_descents(bsv: BsvLinearExtension) -> frozenset[int]:
    """Descents of the filling, with i*-1 never and i* always a descent."""
    n = bsv.poset.n
    holder = [0] * (n + 2)
    for e, cell in enumerate(bsv.entries):
        for v in cell:
            holder[v] = e
    out = []
    for u in range(1, n + 2):
        if u == bsv.i_star - 1:
            continue
        if u == bsv.i_star:
            out.append(u)
        elif u <= n and holder[u + 1] < holder[u]:
            out.append(u)
    return frozenset(out)


def comaj_plus(bsv: BsvLinearExtension) -> int:
    """Sum of n+1-u over the barely set-valued descents."""
    n = bsv.poset.n
    return sum(n + 1 - u for u in bsv_descents(bsv))


def r_star(bsv: BsvLinearExtension) -> int:
    """Row of the doubled cell (1-based)."""
    return box_coords(bsv.poset)[bsv.p_star][0]


def d_star(bsv: BsvLinearExtension) -> int:
    """1 when the doubled cell lies on the main diagonal, else 0."""
    row, col = box_coords(bsv.poset)[bsv.p_star]
    return int(row == col)


def enumerate_bsv(poset: Poset) -> Iterator[BsvLinearExtension]:
    """All barely set-valued extensions, ordered by (word of T, i, p)."""
    for ext in enumerate_linear_extensions(poset):
        maximal: list[int] = []
        for i in range(1, poset.n + 1):
            e = ext.positions[i - 1]
            maximal = [p for p in maximal if e not in poset.upper_covers[p]]
            maximal.append(e)
            for p in sorted(maximal):
                yield bsv_from_triple(ext, i, p)


def gf_bsv(poset: Poset) -> QTPoly:
    """Generating function q^(comaj+1) * t^(row of doubled cell - 1).

    The t exponent is tracked when the poset carries box coordinates and is 0
    otherwise.  A barely set-valued extension is a triple (T, i, p) with p
    maximal in the prefix ideal I of size i, weighing theta(T, i), so the sum
    runs over the ideals of P.
    """
    return _qt_rows(QPoly.of(row) for row in engine.bsv_rows(poset))


# ---------------------------------------------------------------------------
# tableau text format


def _row_layout(poset: Poset) -> list[list[int]]:
    by_row: dict[int, list[tuple[int, int]]] = {}
    for e, (r, c) in enumerate(box_coords(poset)):
        by_row.setdefault(r, []).append((c, e))
    return [[e for _, e in sorted(cells)] for _, cells in sorted(by_row.items())]


def format_tableau(obj: LinearExtension | BsvLinearExtension) -> str:
    """Render as comma-separated rows; a doubled cell prints as ``a|b``."""
    if isinstance(obj, LinearExtension):
        cells = [(v,) for v in obj.values]
    else:
        cells = list(obj.entries)
    lines = []
    for row in _row_layout(obj.poset):
        lines.append(",".join("|".join(str(v) for v in cells[e]) for e in row))
    return "\n".join(lines)


def parse_tableau(text: str, poset: Poset) -> LinearExtension | BsvLinearExtension:
    """Parse the tableau text format against the poset's box layout."""
    layout = _row_layout(poset)
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != len(layout):
        raise ValueError(f"expected {len(layout)} rows, got {len(lines)}")
    cells: list[tuple[int, ...] | None] = [None] * poset.n
    for row, line in zip(layout, lines):
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != len(row):
            raise ValueError(f"row length mismatch: {line!r}")
        for e, part in zip(row, parts):
            values = part.split("|")
            if len(values) > 2:
                raise ValueError(f"cell {part!r} holds more than two values")
            cells[e] = tuple(sorted(int(x) for x in values))
    filled = [cell for cell in cells if cell is not None]
    if len(filled) != poset.n:
        raise ValueError("incomplete tableau")
    doubles = [e for e, cell in enumerate(filled) if len(cell) == 2]
    if not doubles:
        return LinearExtension(poset, tuple(cell[0] for cell in filled))
    if len(doubles) > 1:
        raise ValueError("more than one doubled cell")
    p = doubles[0]
    return BsvLinearExtension(poset, tuple(filled), p, max(filled[p]))
