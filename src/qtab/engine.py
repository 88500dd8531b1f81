"""Path and multichain sums over the lattice J(P) of order ideals.

Every counting generating function in qtab is a sum over paths or
multichains in J(P), the transfer-matrix method of Stanley's *Enumerative
Combinatorics I* (ch. 3 and 4):

* A linear extension is a maximal chain ``0 = I_0 < ... < I_n = P`` whose
  step k adds the k-th letter of its word; a path DP over (ideal, element
  added last) sees every descent.
* A filling with entries in ``0..m`` is the multichain
  ``I_0 <= ... <= I_(m-1)`` of its level ideals, weighing
  ``prod q^(n - |I_k|)``.

The engine reads the poset's own J(P), ``order_ideals`` in ascending mask
order with the addable masks and per-element edges ``Poset.ideal_edges``
(``qtab.posets``), so per-ideal values come out in ``order_ideals`` order.
``_Lattice`` adds what the DPs read on top: each ideal's size for the
shifts, the indices of each size for the level-by-level path DP, and for
the backward path sum the upper ends per ideal, read off the masks with the
paths to the top counted on the way.  The lattice stays with the poset,
with the whole-poset totals (``comaj_gf``, ``filling_gf``) computed on it,
so a repeated call is a lookup.

The work is a few int operations per edge of J(P), not per extension or
filling.  Inside the DPs a polynomial is one int, its value at q = 2^k
(``kronecker``).  No coefficient is negative, so none exceeds the
polynomial's value at q = 1.  ``_exact`` runs the DP at the width
``step_above`` gives for the largest of those values and reads the unsigned
digits.  For comaj that value is the number of paths to the top, counted
with the upper ends; the other DPs get theirs from the same DP at k = 0,
where every shift is 0: the path DP is then a plain path count in index
order, and the multichain weights are the bare counts.  The path DP keeps
the prefix sums of two levels only; the backward walk reads each step's
descents by its position among the steps out of its ideal, with no search.
Results are coefficient lists (index = exponent of q), per-ideal values in
``order_ideals`` order.
"""

from __future__ import annotations

from bisect import bisect
from itertools import count, repeat
from operator import and_, lshift
from typing import Callable, Iterator, Sequence

from .frozen import cached
from .kronecker import digits, step_above
from .posets import Poset, order_ideals


class _Lattice:
    """The poset's J(P): ``masks``, its ideals in ascending mask order
    (``order_ideals``), and ``addable[j]`` the mask of the elements that can
    be added to ``masks[j]`` (``Poset._addable``).  ``sizes[j]`` is the size
    of ``masks[j]``, and ``levels[s]`` lists the indices of the ideals with s
    elements, ascending.  The cover edges ``I -> I + e`` are read per element
    (``by_element``, the poset's ``ideal_edges`` itself, set by ``_lattice``)
    or per ideal (``out_of``, read off the masks on first use).  ``totals``
    keeps the whole-poset sums computed on it."""

    def __init__(self, poset: Poset) -> None:
        self.n = poset.n
        self.masks = order_ideals(poset)
        self.addable = poset._addable
        self.totals: dict[object, tuple[int, ...]] = {}

    @cached
    def sizes(self) -> list[int]:
        return list(map(int.bit_count, self.masks))

    @cached
    def levels(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        for j, size in enumerate(self.sizes):
            out[size].append(j)
        return out

    @cached
    def out_of(self) -> list[list[int]]:
        """Per ideal, the upper ends of the edges out of it, the elements they
        add ascending, found by mask.  Every end has the larger mask, so the
        larger index: in index order the paths from the empty ideal into each
        ideal are counted before they are handed on, and the count at P is
        kept as ``extension_count``."""
        index = dict(zip(self.masks, count()))
        paths = [0] * len(self.masks)
        paths[0] = 1
        out = []
        for i, (mask, rest) in enumerate(zip(self.masks, self.addable)):
            ends, through = [], paths[i]
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = index[mask | bit]
                ends.append(j)
                paths[j] += through
            out.append(ends)
        self.extension_count = paths[-1]
        return out

    @cached
    def extension_count(self) -> int:
        """The paths from the empty ideal to P, P's linear extensions, which
        ``out_of`` counts."""
        self.out_of
        return self.__dict__["extension_count"]

    @cached
    def into(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per ideal, the edges into it: the elements they add and their
        lower ends, elements ascending."""
        es: list[list[int]] = [[] for _ in self.masks]
        ends: list[list[int]] = [[] for _ in self.masks]
        for e, edges in enumerate(self.by_element):
            for lower, upper in edges:
                es[upper].append(e)
                ends[upper].append(lower)
        return es, ends

    def sum_below(self, values: list[int]) -> list[int]:
        """``out[I] = sum of values[J] over ideals J <= I``, one addition per
        edge: J reaches I once, adding the elements of I - J in ascending order
        (a natural labeling keeps every step an ideal), one pass per element."""
        out = list(values)
        for edges in self.by_element:
            for lower, upper in edges:
                out[upper] += out[lower]
        return out

    def sum_above(self, values: list[int]) -> list[int]:
        """As ``sum_below`` over the ideals J >= I, with the passes in
        descending order: the one for the least element of J - I comes last."""
        out = list(values)
        for edges in reversed(self.by_element):
            for lower, upper in edges:
                out[lower] += out[upper]
        return out

    def corank_powers(self, k: int, cap: int | None = None) -> list[int]:
        """``q^(n - |I|)`` per ideal, truncated above degree cap if given
        and k > 0, read from one power per size."""
        if not k:
            return [1] * len(self.masks)
        # by size, so by corank n, n - 1, ..., 0
        powers = [1 << k * c if cap is None or c <= cap else 0 for c in range(self.n, -1, -1)]
        return list(map(powers.__getitem__, self.sizes))

    def complement_weights(self, values: list[int], k: int, cap: int | None = None) -> list[int]:
        """``q^(n - |I|) * values[I]``, truncated above degree cap if given and
        k > 0: at k = 0 every factor is 1 and the whole sums bound every digit
        the mask reads, so the values come back as they are."""
        if not k:
            return values
        shifts = [k * c for c in range(self.n, -1, -1)]
        out = map(lshift, values, map(shifts.__getitem__, self.sizes))
        return list(out if cap is None else map(and_, out, repeat((1 << k * (cap + 1)) - 1)))


def _lattice(poset: Poset, edges: bool = True) -> _Lattice:
    """The poset's J(P), built on the first call and kept in the poset's
    ``__dict__`` beside its cached attributes, so it is freed with it; with
    ``edges``, also its per-element edges, ``Poset.ideal_edges``."""
    lat = vars(poset).get("_lattice")
    if lat is None:
        lat = vars(poset)["_lattice"] = _Lattice(poset)
    if edges:
        lat.by_element = poset.ideal_edges
    return lat


_DP = Callable[[_Lattice, int], list[int]]


def _exact(lat: _Lattice, dp: _DP, bound: int | None = None) -> list[list[int]]:
    """The polynomials ``dp(lat, k)`` returns, read as unsigned digits of
    whole bytes above bound, by default their largest value at q = 1."""
    if bound is None:
        bound = max(dp(lat, 0), default=0)
    step = step_above(bound)
    return [digits(v, step) for v in dp(lat, 8 * step)]


def _total(lat: _Lattice, key: object, dp: _DP, bound: int | None = None) -> list[int]:
    """The one polynomial ``dp`` gives, computed once per lattice and key."""
    total = lat.totals.get(key)
    if total is None:
        total = lat.totals[key] = tuple(_exact(lat, dp, bound)[0])
    return list(total)


# ---------------------------------------------------------------------------
# linear extensions


def _paths(lat: _Lattice, k: int, forward: bool) -> Iterator[tuple[Sequence[int], list[int]]]:
    """Batches of J(P)'s ideals and their paths, away from the start: at
    k = 0 one batch of every ideal in index order, else one per level, its
    indices ascending.
    Forward: paths 0 -> I, a descent at step i < |I| weighing q^(n + 1 - i).
    Backward: paths I -> P, a descent at i > |I| weighing q^(n - i), leaving
    out the descent at |I|, which also needs the last element before I."""
    if forward:
        es, ends = lat.into
    else:
        ends = lat.out_of
    if not k:
        # every shift is 0 and the descents cancel: a plain path count.  An
        # edge's upper end has the larger mask, so the larger index: in
        # ascending (descending) index order every ideal comes after the
        # other ends of its steps.
        counts = [1] * len(ends)
        for j in range(1, len(ends)) if forward else range(len(ends) - 2, -1, -1):
            counts[j] = sum(map(counts.__getitem__, ends[j]))
        yield range(len(ends)), counts
        return
    levels = lat.levels if forward else lat.levels[::-1]
    sizes = range(1, lat.n + 1) if forward else range(lat.n - 1, -1, -1)
    yield levels[0], [1]
    # sums[j][i]: paths to (from) ideal j whose last (first) step adds one of
    # the i lowest elements j's steps add, for j in the last two levels.  A
    # step adding e after (before) them makes a descent with the elements
    # above (below) e.  Forward, bisection of the ascending es[other] counts
    # those below e.  Backward, i steps out of j precede j -> other = j + e,
    # and the elements addable to j + e below e are the i addable to j below
    # e: a read by position.  The start adds nothing, so its sums [1]
    # ([0, 1]) count the empty path as below (not below) every e: no descent.
    sums: list[list[int] | None] = [None] * len(ends)
    (start,) = levels[0]
    sums[start] = [1] if forward else [0, 1]
    for size, done, level in zip(sizes, levels, levels[1:]):
        shift = k * (lat.n + 2 - size if forward else lat.n - 1 - size)
        totals = []
        for j in level:
            acc, pre = 0, [0]
            if forward:
                steps = ends[j]
                for i, other in zip(map(bisect, map(es.__getitem__, steps), es[j]), steps):
                    paths = sums[other]
                    below = paths[i]
                    acc += below + (paths[-1] - below << shift)
                    pre.append(acc)
            else:
                for i, other in enumerate(ends[j]):
                    paths = sums[other]
                    above = paths[i]
                    acc += paths[-1] - above + (above << shift)
                    pre.append(acc)
            sums[j] = pre
            totals.append(acc)
        for j in done:
            sums[j] = None
        yield level, totals


def _lin(lat: _Lattice, k: int) -> list[int]:
    """``q^(n - |I|) * forward[I] * backward[I]``."""
    out = [0] * len(lat.masks)
    for level, totals in _paths(lat, k, True):
        for j, f in zip(level, totals):
            out[j] = f
    # backward, the batches come down from P; at k = 0 there is one, shift 0
    for size, (level, totals) in zip(count(lat.n, -1), _paths(lat, k, False)):
        shift = k * (lat.n - size)
        for j, b in zip(level, totals):
            out[j] = out[j] * b << shift
    return out


def _comaj(lat: _Lattice, k: int) -> list[int]:
    """The backward paths from the empty ideal, index 0, which heads the
    last batch."""
    for _, totals in _paths(lat, k, False):
        pass
    return totals[:1]


def comaj_gf(poset: Poset) -> list[int]:
    """Sum of q^comaj over all linear extensions, whose number bounds every
    coefficient."""
    lat = _lattice(poset, edges=False)
    return _total(lat, "comaj", _comaj, lat.extension_count)


def lin_weights(poset: Poset) -> list[list[int]]:
    """Per ideal I: the sum of theta(T, |I|) over extensions T with prefix I."""
    return _exact(_lattice(poset), _lin)


# ---------------------------------------------------------------------------
# multichains


def _chains_ending(lat: _Lattice, m: int, k: int, cap: int | None = None) -> Iterator[list[int]]:
    """``F[k][I]``: multichains I_0 <= ... <= I_k = I, for k in 0..m-1.
    Every ideal holds the empty one, so ``F[0][I]`` is q^(n - |I|), written
    without an edge pass."""
    if m < 1:
        return
    level = lat.corank_powers(k, cap)
    yield level
    for _ in range(m - 1):
        level = lat.complement_weights(lat.sum_below(level), k, cap)
        yield level


def _fillings(lat: _Lattice, m: int, k: int, cap: int | None = None) -> list[int]:
    """The sum of ``F[m-1]``, holding one level at a time; 1 when m = 0."""
    level = [1]
    for level in _chains_ending(lat, m, k, cap):
        pass
    return [sum(level)]


def filling_gf(poset: Poset, m: int, cap: int | None = None) -> list[int]:
    """Size series of the fillings with entries in 0..m, truncated above
    degree cap if given.  A chain ending at I is one filling once I is
    repeated, so the number of fillings bounds every F[k][I] at q = 1."""
    if m < 0:
        raise ValueError("entry bound must be nonnegative")
    return _total(_lattice(poset), (m, cap), lambda lat, k: _fillings(lat, m, k, cap))


def _rpp(lat: _Lattice, m: int, k: int) -> list[int]:
    """``sum_k q^k * F[k][I] * B[k][I]``, ``B[k][I]`` counting the multichains
    I <= I_(k+1) <= ... <= I_(m-1)."""
    out, starting = [0] * len(lat.masks), [1] * len(lat.masks)
    for level, ending in reversed(list(enumerate(_chains_ending(lat, m, k)))):
        out = [w + (f * b << k * level) for w, f, b in zip(out, ending, starting)]
        starting = lat.sum_above(lat.complement_weights(starting, k))
    return out


def rpp_weights(poset: Poset, m: int) -> list[list[int]]:
    """Per ideal I: the sum of q^(size + k) over fillings bounded by m whose
    level-k ideal is I."""
    return _exact(_lattice(poset), lambda lat, k: _rpp(lat, m, k))


# ---------------------------------------------------------------------------
# the doubled cell


def _mark_maximal(poset: Poset, weights: list[int]) -> list[int]:
    """``sum over I and p maximal in I of weights[I] * t^(row(p) - 1)``, one
    int per power of t; everything lands in t^0 without box coordinates."""
    rows = [r - 1 for r, _ in poset.coords] if poset.coords is not None else [0] * poset.n
    by_row = [0] * (max(rows, default=-1) + 1)
    # p is maximal in I exactly when the edge I - p -> I adds p
    for p, edges in enumerate(poset.ideal_edges):
        by_row[rows[p]] += sum(weights[upper] for _, upper in edges)
    return by_row


def bsv_rows(poset: Poset) -> list[list[int]]:
    """``_mark_maximal`` of the lin weights."""
    return _exact(_lattice(poset), lambda lat, k: _mark_maximal(poset, _lin(lat, k)))


def bsv_rpp_rows(poset: Poset, m: int) -> list[list[int]]:
    """``_mark_maximal`` of the rpp weights."""
    return _exact(_lattice(poset), lambda lat, k: _mark_maximal(poset, _rpp(lat, m, k)))
