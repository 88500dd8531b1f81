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

The work is a few int operations per edge of J(P), not per extension or
filling.  Inside the DPs a polynomial is one int, its value at q = 2^k
(``kronecker``).  No coefficient is negative, so none exceeds the
polynomial's value at q = 1.  ``_exact`` gets those values from the same DP
at k = 0, where every shift is 0: the path DP is then a plain path count,
one loop over the ideals in index order (an edge's upper end has the larger
mask, so the larger index), and the multichain weights are the bare counts.
It then runs the DP at the width ``step_above`` gives for the largest of
them and reads the unsigned digits.  The path DP walks J(P) level by level
and keeps the prefix sums of two levels only; the backward walk reads each
step's descents by its position among the steps out of its ideal, with no
search.  Results are coefficient lists (index = exponent of q), per-ideal
values in ``order_ideals`` order.
"""

from __future__ import annotations

from bisect import bisect
from itertools import count
from typing import Callable, Iterator, Sequence

from .frozen import cached
from .kronecker import digits, step_above
from .posets import Poset, ideal_steps, order_ideals


class _Lattice:
    """J(P) as ideal sizes plus its cover edges ``I -> I + e``: per ideal
    (``out_of``, their upper ends from ``ideal_steps``) and per element
    (``Poset.ideal_edges``, which ``into``, ``sum_below`` and ``sum_above``
    read).  A backward path sum alone never builds the per-element edges."""

    def __init__(self, poset: Poset) -> None:
        self.poset = poset
        self.n = poset.n
        self.sizes = [mask.bit_count() for mask in order_ideals(poset)]

    @cached
    def levels(self) -> list[list[int]]:
        """``levels[s]``: the indices of the ideals with s elements."""
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        for j, size in enumerate(self.sizes):
            out[size].append(j)
        return out

    @cached
    def out_of(self) -> list[list[int]]:
        """Per ideal, the upper ends of the edges out of it, the elements they
        add ascending."""
        return ideal_steps(self.poset)

    @cached
    def into(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per ideal, the edges into it: the elements they add and their
        lower ends, elements ascending."""
        es: list[list[int]] = [[] for _ in self.sizes]
        ends: list[list[int]] = [[] for _ in self.sizes]
        for e, edges in enumerate(self.poset.ideal_edges):
            for lower, upper in edges:
                es[upper].append(e)
                ends[upper].append(lower)
        return es, ends

    def sum_below(self, values: list[int]) -> list[int]:
        """``out[I] = sum of values[J] over ideals J <= I``, one addition per
        edge: J reaches I once, adding the elements of I - J in ascending order
        (a natural labeling keeps every step an ideal), one pass per element."""
        out = list(values)
        for edges in self.poset.ideal_edges:
            for lower, upper in edges:
                out[upper] += out[lower]
        return out

    def sum_above(self, values: list[int]) -> list[int]:
        """As ``sum_below`` over the ideals J >= I, with the passes in
        descending order: the one for the least element of J - I comes last."""
        out = list(values)
        for edges in reversed(self.poset.ideal_edges):
            for lower, upper in edges:
                out[lower] += out[upper]
        return out

    def complement_weights(self, values: list[int], k: int, cap: int | None = None) -> list[int]:
        """``q^(n - |I|) * values[I]``, truncated above degree cap if given and
        k > 0: at k = 0 every factor is 1 and the whole sums bound every digit
        the mask reads, so the values come back as they are."""
        if not k:
            return values
        out = [v << k * (self.n - size) for size, v in zip(self.sizes, values)]
        return out if cap is None else [v & (1 << k * (cap + 1)) - 1 for v in out]


def _exact(poset: Poset, dp: Callable[[_Lattice, int], list[int]]) -> list[list[int]]:
    """The polynomials ``dp(lattice, k)`` returns, read as unsigned digits
    of whole bytes above their values at q = 1."""
    lat = _Lattice(poset)
    step = step_above(max(dp(lat, 0), default=0))
    return [digits(v, step) for v in dp(lat, 8 * step)]


# ---------------------------------------------------------------------------
# linear extensions


def _paths(lat: _Lattice, k: int, forward: bool) -> Iterator[tuple[Sequence[int], list[int]]]:
    """Batches of J(P)'s ideals and their paths, away from the start: at
    k = 0 one batch of every ideal in index order, else one per level.
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
    for done, level in zip(levels, levels[1:]):
        size = lat.sizes[level[0]]
        shift = k * (lat.n + 2 - size if forward else lat.n - 1 - size)
        totals = []
        for j in level:
            steps = ends[j]
            below = map(bisect, map(es.__getitem__, steps), es[j]) if forward else count()
            acc, pre = 0, [0]
            for i, other in zip(below, steps):
                paths = sums[other]
                descents = paths[-1] - paths[i] if forward else paths[i]
                acc += paths[-1] + (descents << shift) - descents
                pre.append(acc)
            sums[j] = pre
            totals.append(acc)
        for j in done:
            sums[j] = None
        yield level, totals


def _lin(lat: _Lattice, k: int) -> list[int]:
    """``q^(n - |I|) * forward[I] * backward[I]``."""
    out = [0] * len(lat.sizes)
    for level, totals in _paths(lat, k, True):
        for j, f in zip(level, totals):
            out[j] = f
    for level, totals in _paths(lat, k, False):
        shift = k * (lat.n - lat.sizes[level[0]])
        for j, b in zip(level, totals):
            out[j] = out[j] * b << shift
    return out


def _comaj(lat: _Lattice, k: int) -> list[int]:
    """The backward paths from the empty ideal, index 0, which heads the
    walk's last batch."""
    for _, totals in _paths(lat, k, False):
        pass
    return totals[:1]


def comaj_gf(poset: Poset) -> list[int]:
    """Sum of q^comaj over all linear extensions."""
    return _exact(poset, _comaj)[0]


def lin_weights(poset: Poset) -> list[list[int]]:
    """Per ideal I: the sum of theta(T, |I|) over extensions T with prefix I."""
    return _exact(poset, _lin)


# ---------------------------------------------------------------------------
# multichains


def _chains_ending(lat: _Lattice, m: int, k: int, cap: int | None = None) -> Iterator[list[int]]:
    """``F[k][I]``: multichains I_0 <= ... <= I_k = I, for k in 0..m-1.
    Every ideal holds the empty one, so ``F[0][I]`` is q^(n - |I|), written
    without an edge pass."""
    if m < 1:
        return
    level = lat.complement_weights([1] * len(lat.sizes), k, cap)
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
    return _exact(poset, lambda lat, k: _fillings(lat, m, k, cap))[0]


def _rpp(lat: _Lattice, m: int, k: int) -> list[int]:
    """``sum_k q^k * F[k][I] * B[k][I]``, ``B[k][I]`` counting the multichains
    I <= I_(k+1) <= ... <= I_(m-1)."""
    out, starting = [0] * len(lat.sizes), [1] * len(lat.sizes)
    for level, ending in reversed(list(enumerate(_chains_ending(lat, m, k)))):
        out = [w + (f * b << k * level) for w, f, b in zip(out, ending, starting)]
        starting = lat.sum_above(lat.complement_weights(starting, k))
    return out


def rpp_weights(poset: Poset, m: int) -> list[list[int]]:
    """Per ideal I: the sum of q^(size + k) over fillings bounded by m whose
    level-k ideal is I."""
    return _exact(poset, lambda lat, k: _rpp(lat, m, k))


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
    return _exact(poset, lambda lat, k: _mark_maximal(poset, _lin(lat, k)))


def bsv_rpp_rows(poset: Poset, m: int) -> list[list[int]]:
    """``_mark_maximal`` of the rpp weights."""
    return _exact(poset, lambda lat, k: _mark_maximal(poset, _rpp(lat, m, k)))
