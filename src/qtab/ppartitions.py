"""Weakly increasing fillings of a naturally labeled poset and their
barely set-valued variants, with size generating functions.

A filling assigns each element an entry in ``0..m``, weakly increasing along
covers; its size is the sum of all entries.  The level-k ideal of a filling
is the set of elements with entry at most k, so a filling is the same thing
as a multichain of order ideals ``I_0 <= I_1 <= ... <= I_(m-1)``.

The barely set-valued variant doubles exactly one cell: the doubled cell
holds ``{x, y}`` with ``x < y``, every other cell a single entry, weak
increase read through cell minima and maxima.  Such fillings correspond to
triples ``(pi, i, p)`` with ``0 <= i <= m-1`` and ``p`` maximal in the
level-i ideal of ``pi``: the doubled cell is ``p`` with ``y = i + 1``.

The generating functions are multichain sums over the order ideals, computed
by ``engine``; the enumerators are the reference they are tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import engine
from .extensions import InvalidTriple
from .posets import Poset, box_coords, hook_lengths, rank_data
from .qpoly import QPoly, QTPoly, _qt_rows, qnum


@dataclass(frozen=True)
class Rpp:
    """A weakly increasing filling with entries in 0..m."""

    poset: Poset
    m: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("entry bound must be nonnegative")
        if len(self.entries) != self.poset.n:
            raise ValueError("one entry per element required")
        if any(not 0 <= v <= self.m for v in self.entries):
            raise ValueError(f"entries must lie in 0..{self.m}")
        for lo, hi in self.poset.covers:
            if self.entries[lo] > self.entries[hi]:
                raise ValueError(f"entries decrease along cover ({lo}, {hi})")

    @property
    def size(self) -> int:
        return sum(self.entries)


def enumerate_rpp(poset: Poset, m: int) -> Iterator[Rpp]:
    """All fillings with entries in 0..m, in lex order of the entry tuples."""
    n = poset.n
    entries = [0] * n

    def rec(e: int) -> Iterator[Rpp]:
        if e == n:
            yield Rpp(poset, m, tuple(entries))
            return
        lo = max((entries[c] for c in poset.lower_covers[e]), default=0)
        for v in range(lo, m + 1):
            entries[e] = v
            yield from rec(e + 1)

    return rec(0)


def ideal_at_level(rpp: Rpp, k: int) -> int:
    """Mask of the elements with entry at most k."""
    mask = 0
    for e, v in enumerate(rpp.entries):
        if v <= k:
            mask |= 1 << e
    return mask


def w_decompose(rpp: Rpp) -> tuple[int, ...]:
    """The multichain of level ideals (I_0, ..., I_(m-1))."""
    return tuple(ideal_at_level(rpp, k) for k in range(rpp.m))


def rpp_from_chain(poset: Poset, m: int, masks: Sequence[int]) -> Rpp:
    """Inverse of ``w_decompose``: entry of e is the number of levels missing e."""
    if len(masks) != m:
        raise ValueError(f"expected {m} levels, got {len(masks)}")
    entries = tuple(
        sum(1 for mask in masks if not mask >> e & 1) for e in range(poset.n)
    )
    rpp = Rpp(poset, m, entries)
    if w_decompose(rpp) != tuple(masks):
        raise ValueError("masks do not form a multichain of order ideals")
    return rpp


def rpp_size_gf(poset: Poset, m: int) -> QPoly:
    """Generating function of size over fillings with entries in 0..m."""
    return QPoly.of(engine.filling_gf(poset, m))


def rpp_size_series(poset: Poset, cap: int) -> QPoly:
    """Size series of unbounded weakly increasing fillings, truncated at cap.

    A filling of size at most cap has entries at most cap, so this is the
    bounded series at m = cap, truncated.
    """
    if cap < 0:
        raise ValueError("degree cap must be nonnegative")
    return QPoly.of(engine.filling_gf(poset, cap, cap))


# ---------------------------------------------------------------------------
# product formulas


def _bracket_ratio_product(pairs: Sequence[tuple[int, int]]) -> QPoly:
    """prod [num]/[den] over the given pairs, computed exactly.

    Equal q-integers [k], k >= 1, cancel between the two sides before any
    product is formed; [0] = 0 never cancels, so a zero factor still gives 0
    or a division by zero.
    """
    nums = Counter(num for num, _ in pairs)
    dens = Counter(den for _, den in pairs)
    common = nums & dens
    del common[0]
    nums -= common
    dens -= common
    numerator = QPoly.of([1])
    denominator = QPoly.of([1])
    for k in nums.elements():
        numerator = numerator * qnum(k)
    for k in dens.elements():
        denominator = denominator * qnum(k)
    return numerator.exact_div(denominator)


def macmahon_gf(a: int, b: int, m: int) -> QPoly:
    """Size generating function of a*b box fillings bounded by m:
    prod [i+j+m-1]/[i+j-1]."""
    return _bracket_ratio_product(
        [
            (i + j + m - 1, i + j - 1)
            for i in range(1, a + 1)
            for j in range(1, b + 1)
        ]
    )


def bender_knuth_gf(k: int, m: int) -> QPoly:
    """Size generating function for the shifted staircase with k rows:
    prod over 1 <= i <= j <= k of [i+j+m-1]/[i+j-1]."""
    return _bracket_ratio_product(
        [(i + j + m - 1, i + j - 1) for i in range(1, k + 1) for j in range(i, k + 1)]
    )


def minuscule_gf(poset: Poset, m: int) -> QPoly:
    """Size generating function via ranks: prod [rk(p)+m+1]/[rk(p)+1]."""
    ranks = rank_data(poset).ranks
    return _bracket_ratio_product([(r + m + 1, r + 1) for r in ranks])


def gansner_series(partition: Sequence[int], cap: int) -> QPoly:
    """Unbounded size series for a shape: prod 1/(1-q^h(u)), truncated at cap."""
    coeffs = [0] * (cap + 1)
    coeffs[0] = 1
    for h in hook_lengths(partition).values():
        for e in range(h, cap + 1):
            coeffs[e] += coeffs[e - h]
    return QPoly.of(coeffs)


# ---------------------------------------------------------------------------
# barely set-valued fillings


@dataclass(frozen=True)
class BsvRpp:
    """A weakly increasing filling with exactly one doubled cell."""

    poset: Poset
    m: int
    entries: tuple[tuple[int, ...], ...]
    p_star: int

    def __post_init__(self) -> None:
        if len(self.entries) != self.poset.n:
            raise ValueError("one cell per element required")
        doubles = [e for e, cell in enumerate(self.entries) if len(cell) == 2]
        if doubles != [self.p_star]:
            raise ValueError("exactly the doubled cell must be p_star")
        for cell in self.entries:
            if len(cell) not in (1, 2) or list(cell) != sorted(set(cell)):
                raise ValueError("cells must be sorted 1- or 2-element sets")
            if any(not 0 <= v <= self.m for v in cell):
                raise ValueError(f"entries must lie in 0..{self.m}")
        for lo, hi in self.poset.covers:
            if max(self.entries[lo]) > min(self.entries[hi]):
                raise ValueError(f"entries decrease along cover ({lo}, {hi})")

    @property
    def i_star(self) -> int:
        """The larger entry of the doubled cell."""
        return self.entries[self.p_star][1]

    @property
    def size(self) -> int:
        return sum(v for cell in self.entries for v in cell)


def bsv_rpp_from_triple(rpp: Rpp, i: int, p: int) -> BsvRpp:
    """Add entry i+1 to the cell of p; p must be maximal at level i."""
    m = rpp.m
    if not 0 <= i <= m - 1:
        raise InvalidTriple(f"level {i} out of 0..{m - 1}")
    if not 0 <= p < rpp.poset.n:
        raise InvalidTriple(f"element {p} out of range")
    if rpp.entries[p] > i:
        raise InvalidTriple(f"element {p} is outside level {i}")
    for u in rpp.poset.upper_covers[p]:
        if rpp.entries[u] <= i:
            raise InvalidTriple(f"element {p} is not maximal at level {i}")
    cells = tuple(
        (v, i + 1) if e == p else (v,) for e, v in enumerate(rpp.entries)
    )
    return BsvRpp(rpp.poset, m, cells, p)


def triple_from_bsv_rpp(bsv: BsvRpp) -> tuple[Rpp, int, int]:
    """Inverse of ``bsv_rpp_from_triple``."""
    entries = tuple(cell[0] for cell in bsv.entries)
    return Rpp(bsv.poset, bsv.m, entries), bsv.i_star - 1, bsv.p_star


def enumerate_bsv_rpp(poset: Poset, m: int) -> Iterator[BsvRpp]:
    """All barely set-valued fillings bounded by m."""
    for rpp in enumerate_rpp(poset, m):
        for i in range(m):
            mask = ideal_at_level(rpp, i)
            for p in range(poset.n):
                if mask >> p & 1 and not poset.up_masks[p] & mask:
                    yield bsv_rpp_from_triple(rpp, i, p)


def gf_bsv_rpp(poset: Poset, m: int, refined: bool = False) -> QTPoly:
    """Generating function q^(size - 1) * t^(row of doubled cell - 1).

    The t exponent is tracked when the poset carries box coordinates and is 0
    otherwise; ``refined=True`` insists on coordinates.  A triple (pi, i, p)
    weighs q^(size(pi) + i) and p is maximal in the level-i ideal of pi, so the
    sum runs over the ideals of P with the weights of ``ensemble_rpp``.
    """
    if refined:
        box_coords(poset)
    return _qt_rows(QPoly.of(row) for row in engine.bsv_rpp_rows(poset, m))
