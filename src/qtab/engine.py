"""Path and multichain sums over the lattice J(P) of order ideals.

Every counting generating function in qtab is a sum over paths or
multichains in J(P), the transfer-matrix method of Stanley's *Enumerative
Combinatorics I* (ch. 3 and 4):

* A linear extension is a maximal chain ``0 = I_0 < I_1 < ... < I_n = P``
  in which step k adds the k-th letter of its word.  A descent at k compares
  the elements added at steps k and k+1, so a path DP over (ideal, element
  added last) sees every descent.
* A filling with entries in ``0..m`` is the multichain
  ``I_0 <= ... <= I_(m-1)`` of its level ideals, weighing
  ``prod q^(n - |I_k|)``.

The work grows with |J(P)| times the number of elements, not with the
number of extensions or fillings.  Polynomials are plain coefficient lists
(index = exponent of q) inside the DPs; every function here returns lists,
one per ideal in ``order_ideals`` order where it returns per-ideal values.
They are added and multiplied by the list kernel in ``qpoly`` (``_add`` and
``_mul``), the same one ``QPoly`` arithmetic runs on.
"""

from __future__ import annotations

from .posets import Poset, order_ideals
from .qpoly import _add, _mul

Poly = list[int]


class _Lattice:
    """J(P) as ideal masks plus its cover edges ``I -> I + e``."""

    def __init__(self, poset: Poset) -> None:
        self.n = poset.n
        self.masks = order_ideals(poset)
        self.sizes = [mask.bit_count() for mask in self.masks]
        # by_element[e]: (lower, upper) index pairs of the edges adding e;
        # up[j]: (e, upper) for every edge leaving masks[j], e ascending
        self.by_element = poset.ideal_edges
        self.up: list[list[tuple[int, int]]] = [[] for _ in self.masks]
        for e, edges in enumerate(self.by_element):
            for lower, upper in edges:
                self.up[lower].append((e, upper))

    def sum_below(self, values: list[Poly]) -> list[Poly]:
        """``out[I] = sum of values[J] over ideals J <= I``.

        Each pair J <= I is counted once, along the path from J to I that
        adds the elements of I - J in ascending label order; a natural
        labeling keeps every step an ideal.  One pass per element, ascending,
        so the cost is one addition per edge of J(P).
        """
        out = [list(v) for v in values]
        for edges in self.by_element:
            for lower, upper in edges:
                _add(out[upper], out[lower])
        return out

    def sum_above(self, values: list[Poly]) -> list[Poly]:
        """``out[I] = sum of values[J] over ideals J >= I``.

        As ``sum_below`` with the passes in descending element order: the
        path from I to J still adds the elements of J - I in ascending order,
        and the pass for the smallest of them comes last.
        """
        out = [list(v) for v in values]
        for edges in reversed(self.by_element):
            for lower, upper in edges:
                _add(out[lower], out[upper])
        return out

    def complement_weights(self, values: list[Poly], cap: int | None = None) -> list[Poly]:
        """``q^(n - |I|) * values[I]``, truncated above degree cap if given."""
        out = [[0] * (self.n - size) + v for size, v in zip(self.sizes, values)]
        if cap is not None:
            out = [v[: cap + 1] for v in out]
        return out


# ---------------------------------------------------------------------------
# linear extensions


def _total(polys) -> Poly:
    out: Poly = []
    for poly in polys:
        _add(out, poly)
    return out


def _forward(lat: _Lattice) -> list[Poly]:
    """Paths 0 -> I, a descent at k < |I| weighing q^(n + 1 - k)."""
    n = lat.n
    # ends[j][e]: paths to masks[j] whose last step added e (-1: empty path)
    ends: list[dict[int, Poly]] = [{} for _ in lat.masks]
    ends[0][-1] = [1]
    for j, edges in enumerate(lat.up):
        k = lat.sizes[j]
        for e, upper in edges:
            step: Poly = []
            for last, poly in ends[j].items():
                _add(step, poly, n + 1 - k if last > e else 0)
            ends[upper][e] = step
    return [_total(by_last.values()) for by_last in ends]


def _backward(lat: _Lattice) -> list[Poly]:
    """Paths I -> P, a descent at k > |I| weighing q^(n - k); the descent at
    |I| itself, which also needs the last element before I, is left out."""
    n = lat.n
    # starts[j][e]: paths from masks[j] whose first step adds e (n: empty path)
    starts: list[dict[int, Poly]] = [{} for _ in lat.masks]
    starts[-1][n] = [1]
    for j in reversed(range(len(lat.masks))):
        k = lat.sizes[j]
        for e, upper in lat.up[j]:
            step: Poly = []
            for first, poly in starts[upper].items():
                _add(step, poly, n - k - 1 if e > first else 0)
            starts[j][e] = step
    return [_total(by_first.values()) for by_first in starts]


def comaj_gf(poset: Poset) -> Poly:
    """Sum of q^comaj over all linear extensions."""
    return _backward(_Lattice(poset))[0]


def lin_weights(poset: Poset) -> list[Poly]:
    """Per ideal I: the sum of theta(T, |I|) over extensions T with prefix I,
    ``q^(n - |I|) * forward[I] * backward[I]``."""
    lat = _Lattice(poset)
    products = [_mul(f, g) for f, g in zip(_forward(lat), _backward(lat))]
    return lat.complement_weights(products)


# ---------------------------------------------------------------------------
# multichains


def _chains_ending(lat: _Lattice, m: int, cap: int | None = None) -> list[list[Poly]]:
    """``F[k][I]``: multichains I_0 <= ... <= I_k = I, for k in 0..m-1."""
    level: list[Poly] = [[1]] + [[] for _ in lat.masks[1:]]
    out = []
    for _ in range(m):
        level = lat.complement_weights(lat.sum_below(level), cap)
        out.append(level)
    return out


def filling_gf(poset: Poset, m: int, cap: int | None = None) -> Poly:
    """Size series of the fillings with entries in 0..m, truncated above
    degree cap if given."""
    if m < 0:
        raise ValueError("entry bound must be nonnegative")
    if m == 0:
        return [1]
    return _total(_chains_ending(_Lattice(poset), m, cap)[-1])


def rpp_weights(poset: Poset, m: int) -> list[Poly]:
    """Per ideal I: the sum of q^(size + k) over fillings bounded by m whose
    level-k ideal is I, ``sum_k q^k * F[k][I] * B[k][I]`` with ``B[k][I]``
    counting the multichains I <= I_(k+1) <= ... <= I_(m-1)."""
    lat = _Lattice(poset)
    ending = _chains_ending(lat, m)
    out: list[Poly] = [[] for _ in lat.masks]
    starting: list[Poly] = [[1] for _ in lat.masks]
    for k in range(m - 1, -1, -1):
        for j, (f, b) in enumerate(zip(ending[k], starting)):
            _add(out[j], _mul(f, b), k)
        starting = lat.sum_above(lat.complement_weights(starting))
    return out


# ---------------------------------------------------------------------------
# the doubled cell


def mark_maximal(poset: Poset, weights: list[Poly]) -> list[Poly]:
    """``sum over I and p maximal in I of weights[I] * t^(row(p) - 1)`` as one
    list per power of t; everything lands in t^0 without box coordinates."""
    rows = [r - 1 for r, _ in poset.coords] if poset.coords is not None else [0] * poset.n
    by_row: list[Poly] = [[] for _ in range(max(rows, default=-1) + 1)]
    # p is maximal in I exactly when the edge I - p -> I adds p
    for p, edges in enumerate(poset.ideal_edges):
        acc = by_row[rows[p]]
        for _, upper in edges:
            _add(acc, weights[upper])
    return by_row
