"""Exact q-weighted distributions on the order ideals of a poset, toggle
statistics, and the weight functions behind them.

A distribution is stored as a ``WeightedEnsemble``: one polynomial weight per
order ideal, in ``order_ideals`` order, plus a polynomial normalizer equal to
their sum, so every probability is an exact rational function.  A
``Statistic`` holds its values in the same order.  The toggle statistic at p is
``tin - q * tout`` where tin marks ideals to which p can be added and tout
marks ideals from which p can be removed; a distribution is toggle-symmetric
when this statistic has expectation zero at every element.

Four families are provided: the corank weighting, the level-ideal weighting
of bounded fillings (computable two independent ways), the prefix weighting
of linear extensions, and the rank-chain weighting of a graded poset.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from . import engine
from .extensions import (
    LinearExtension,
    descents,
    enumerate_linear_extensions,
    gf_comaj,
)
from .posets import Poset, order_ideals, rank_data
from .ppartitions import Rpp, rpp_size_gf
from .qpoly import (
    ONE,
    ZERO,
    QPoly,
    RatFunc,
    _add,
    _mul,
    qbinom,
    qnum,
)


class PosetMismatch(Exception):
    """An ensemble and a statistic over different posets were combined."""


# ---------------------------------------------------------------------------
# toggles


def tin(poset: Poset, p: int, mask: int) -> int:
    """1 when p can be toggled into the ideal: p absent, lower covers present."""
    if mask >> p & 1:
        return 0
    return int(poset.low_masks[p] & mask == poset.low_masks[p])


def tout(poset: Poset, p: int, mask: int) -> int:
    """1 when p can be toggled out of the ideal: p present and maximal."""
    if not mask >> p & 1:
        return 0
    return int(not poset.up_masks[p] & mask)


def toggle_statistic_value(poset: Poset, p: int, mask: int) -> QPoly:
    """The signed toggle statistic tin - q * tout at one ideal."""
    return QPoly.of([tin(poset, p, mask), -tout(poset, p, mask)])


def ddeg(poset: Poset, mask: int) -> int:
    """Number of maximal elements of the ideal (its down-degree in J(P))."""
    return sum(tout(poset, p, mask) for p in range(poset.n))


# ---------------------------------------------------------------------------
# ensembles and statistics


@dataclass(frozen=True)
class WeightedEnsemble:
    """Polynomial ideal weights summing to a polynomial normalizer.

    ``weights[j]`` is the weight of the ideal ``order_ideals(poset)[j]``: one
    entry per order ideal, in the order of the engine's outputs and of the
    indices in ``Poset.ideal_edges``.  ``from_weights`` builds an ensemble
    from weights keyed by ideal mask, and ``weight(mask)`` reads one back.
    """

    poset: Poset
    weights: tuple[QPoly, ...]
    normalizer: QPoly

    def __post_init__(self) -> None:
        ideals = order_ideals(self.poset)
        if len(self.weights) != len(ideals):
            raise ValueError("weights must cover exactly the order ideals")
        total: list[int] = []
        for mask, weight in zip(ideals, self.weights):
            if weight and min(weight.coeffs) < 0:
                raise ValueError(f"negative weight at ideal {mask:#x}")
            _add(total, weight.coeffs)
        if QPoly.of(total) != self.normalizer:
            raise ValueError("weights do not sum to the normalizer")
        if not self.normalizer:
            raise ValueError("normalizer must be nonzero")

    @classmethod
    def from_weights(
        cls, poset: Poset, weights: Mapping[int, QPoly], normalizer: QPoly
    ) -> "WeightedEnsemble":
        """The ensemble weighing each ideal mask as ``weights`` does; an ideal
        without a key weighs zero, and a key that is no ideal is an error."""
        ideals = order_ideals(poset)
        if strays := sorted(set(weights).difference(ideals)):
            raise ValueError("not order ideals: " + ", ".join(f"{mask:#x}" for mask in strays))
        return cls(poset, tuple(weights.get(mask, ZERO) for mask in ideals), normalizer)

    @cached_property
    def _by_mask(self) -> dict[int, QPoly]:
        return dict(zip(order_ideals(self.poset), self.weights))

    def weight(self, mask: int) -> QPoly:
        return self._by_mask[mask]

    def probability(self, mask: int) -> RatFunc:
        return RatFunc(self.weight(mask), self.normalizer)


@dataclass(frozen=True, eq=False)
class Statistic:
    """An exact polynomial-valued function of the order ideals: ``values[j]``
    is its value at ``order_ideals(poset)[j]``, in the layout of
    ``WeightedEnsemble.weights``."""

    poset: Poset
    values: tuple[QPoly, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.values) != len(order_ideals(self.poset)):
            raise ValueError("values must cover exactly the order ideals")

    @classmethod
    def from_function(
        cls, poset: Poset, fn: Callable[[int], QPoly | int], label: str = ""
    ) -> "Statistic":
        values = [fn(mask) for mask in order_ideals(poset)]
        return cls(poset, tuple(v if isinstance(v, QPoly) else QPoly.of([v]) for v in values), label)


def _maximal_count(poset: Poset, members: Iterable[int], label: str) -> Statistic:
    """Per ideal, how many of ``members`` are maximal in it; p is maximal in I
    exactly when the edge I - p -> I of J(P) adds p."""
    counts = [0] * len(order_ideals(poset))
    for p in members:
        for _, upper in poset.ideal_edges[p]:
            counts[upper] += 1
    shared = [QPoly.of([k]) for k in range(max(counts) + 1)]
    return Statistic(poset, tuple(shared[k] for k in counts), label)


def statistic_ddeg(poset: Poset) -> Statistic:
    return _maximal_count(poset, range(poset.n), "ddeg")


_MINUS_Q = QPoly.of([0, -1])


def statistic_toggle(poset: Poset, p: int) -> Statistic:
    """The toggle statistic tin - q * tout at p, read off J(P)'s edges: each
    edge I -> I + p puts 1 at I (p can enter) and -q at I + p (p can leave);
    every other ideal gets zero.  The three values are shared constants."""
    values = [ZERO] * len(order_ideals(poset))
    for lower, upper in poset.ideal_edges[p]:
        values[lower] = ONE
        values[upper] = _MINUS_Q
    return Statistic(poset, tuple(values), f"toggle:{p}")


def expectation(ensemble: WeightedEnsemble, statistic: Statistic) -> RatFunc:
    """Exact expected value of the statistic under the ensemble; ideals where
    the statistic is zero add nothing and are skipped."""
    if ensemble.poset != statistic.poset:
        raise PosetMismatch("ensemble and statistic posets differ")
    numerator: list[int] = []
    for weight, value in zip(ensemble.weights, statistic.values):
        if value:
            _add(numerator, _mul(weight.coeffs, value.coeffs))
    return RatFunc(QPoly.of(numerator), ensemble.normalizer)


def check_toggle_symmetry(ensemble: WeightedEnsemble) -> bool:
    """Whether every toggle statistic has expectation zero.

    The normalizer is nonzero, so at each element p this is whether the
    weights of the ideals p can enter sum to q times the weights of the
    ideals p can leave.  Those are the lower and the upper ends of the edges
    I -> I + p of J(P), so both sums run over ``ideal_edges[p]``, whose
    indices are the positions in ``ensemble.weights``.
    """
    weights = ensemble.weights
    for edges in ensemble.poset.ideal_edges:
        into: list[int] = []
        out: list[int] = []
        for lower, upper in edges:
            _add(into, weights[lower].coeffs)
            _add(out, weights[upper].coeffs)
        if QPoly.of(into) != QPoly.of(out).shift(1):
            return False
    return True


# ---------------------------------------------------------------------------
# weight functions on linear extensions


def _check_position(ext: LinearExtension, i: int) -> None:
    if not 0 <= i <= ext.poset.n:
        raise ValueError(f"descent position {i} out of range")


def _theta_exponent(ext: LinearExtension, i: int) -> int:
    _check_position(ext, i)
    return ext.theta_exponents[i]


def theta(ext: LinearExtension, i: int) -> QPoly:
    """q^(comaj(T, i) + #{descents below i}); summing over i gives
    [n+1] * q^comaj(T)."""
    return QPoly.monomial(1, _theta_exponent(ext, i))


def theta_m(ext: LinearExtension, i: int, m: int) -> QPoly:
    """theta(T, i) times the bounded-filling multiplicity
    qbinom(m + n - #(Des \\ {i}), n + 1)."""
    n = ext.poset.n
    des = descents(ext)
    others = len(des) - (i in des)
    return qbinom(m + n - others, n + 1).shift(_theta_exponent(ext, i))


def theta_star_exponent(ext: LinearExtension, i: int) -> int:
    """The exponent e <= 0 of the dual weight theta*(T, i) = q^e, with
    e = -i - sum of j [j in Des, j < i] - sum of j+1 [j in Des, j > i];
    summing q^e over i gives [n+1] at 1/q times q^(-maj(T))."""
    _check_position(ext, i)
    des = descents(ext)
    return -i - sum(j for j in des if j < i) - sum(j + 1 for j in des if j > i)


# ---------------------------------------------------------------------------
# the four ensemble families


def ensemble_uniform(poset: Poset) -> WeightedEnsemble:
    """Weight q^(size of complement); the bounded-filling weighting at m=1."""
    n = poset.n
    weights = tuple(QPoly.monomial(1, n - mask.bit_count()) for mask in order_ideals(poset))
    return WeightedEnsemble(poset, weights, rpp_size_gf(poset, 1))


def ensemble_rpp(poset: Poset, m: int, mode: str = "direct") -> WeightedEnsemble:
    """Weight of I: sum of q^(size + k) over fillings whose level-k ideal is I.

    ``mode="direct"`` sums over multichains of ideals; ``mode="via_theta_m"``
    enumerates linear extensions and assembles the same weights from their
    prefix ideals carrying theta_m, an independent route to the distribution.
    """
    if m < 1:
        raise ValueError("level bound must be at least 1")
    if mode == "direct":
        weights = engine.rpp_weights(poset, m)
    elif mode == "via_theta_m":
        # theta_m(T, i) is q^theta(T, i) times a q-binomial that depends only
        # on d = #(Des \ {i}): tally the theta exponents per (prefix, d) and
        # multiply each class by its q-binomial once
        ideals = order_ideals(poset)
        tally: dict[tuple[int, int], list[int]] = {}
        for ext in enumerate_linear_extensions(poset):
            des = descents(ext)
            for i, (mask, e) in enumerate(zip(ext.prefix_masks, ext.theta_exponents)):
                row = tally.setdefault((bisect_left(ideals, mask), len(des) - (i in des)), [])
                if len(row) <= e:
                    row.extend([0] * (e + 1 - len(row)))
                row[e] += 1
        weights = [[] for _ in ideals]
        while tally:  # popping frees each class once it is added
            (j, d), row = tally.popitem()
            _add(weights[j], _mul(row, qbinom(m + poset.n - d, poset.n + 1).coeffs))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    normalizer = qnum(m) * rpp_size_gf(poset, m)
    return WeightedEnsemble(poset, tuple(map(QPoly.of, weights)), normalizer)


def ensemble_lin(poset: Poset) -> WeightedEnsemble:
    """Weight of I: sum of theta(T, |I|) over extensions whose prefix is I."""
    weights = tuple(map(QPoly.of, engine.lin_weights(poset)))
    return WeightedEnsemble(poset, weights, qnum(poset.n + 1) * gf_comaj(poset))


def ensemble_rank(poset: Poset) -> WeightedEnsemble:
    """Rank-chain weighting of a graded poset: the empty ideal and the rank
    levels carry q^(rank+1), q^rank, ..., q, 1; other ideals weight zero.
    The empty poset has no levels: its one ideal weighs 1."""
    data = rank_data(poset)
    levels = data.rank + 1 if poset.n else 0
    weights: dict[int, QPoly] = {0: QPoly.monomial(1, levels)}
    mask = 0
    for level in range(levels):
        mask |= sum(1 << e for e, r in enumerate(data.ranks) if r == level)
        weights[mask] = QPoly.monomial(1, levels - 1 - level)
    return WeightedEnsemble.from_weights(poset, weights, qnum(levels + 1))


# ---------------------------------------------------------------------------
# the toggle-pairing involution on bounded fillings


def involution_rpp(rpp: Rpp, k: int, p: int) -> tuple[Rpp, int]:
    """Pair (filling, level) instances of tin at p with instances of tout.

    Writing x for the largest entry below p (0 with no lower covers) and y
    for the smallest entry above p (the bound m with no upper covers):
    pairs with k < x or k >= y are fixed; x <= k < entry(p) moves the entry
    down to k and the level to entry(p) - 1, and entry(p) <= k < y moves the
    entry up to k + 1 and the level to entry(p), shifting size + level by -1
    and +1 respectively.
    """
    poset = rpp.poset
    if not 0 <= k < rpp.m:
        raise ValueError(f"level {k} out of 0..{rpp.m - 1}")
    if not 0 <= p < poset.n:
        raise ValueError(f"element {p} out of range")
    x = max((rpp.entries[c] for c in poset.lower_covers[p]), default=0)
    y = min((rpp.entries[c] for c in poset.upper_covers[p]), default=rpp.m)
    v = rpp.entries[p]
    if k < x or k >= y:
        return rpp, k
    entries = list(rpp.entries)
    if k < v:
        entries[p] = k
        return Rpp(poset, rpp.m, tuple(entries)), v - 1
    entries[p] = k + 1
    return Rpp(poset, rpp.m, tuple(entries)), v
