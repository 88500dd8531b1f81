"""Differential tests: the J(P) path and multichain sums against the
enumeration oracles, on random naturally labeled posets and on shapes."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import naturally_labeled_posets, partition_strategy, strict_partition_strategy
from qtab import engine
from qtab.distributions import ensemble_lin, ensemble_rpp, ensemble_uniform, theta
from qtab.extensions import (
    comaj,
    comaj_plus,
    enumerate_bsv,
    enumerate_linear_extensions,
    gf_bsv,
    gf_comaj,
    gf_comaj_hook_formula,
)
from qtab.posets import Poset, build_rectangle, build_shape, build_shifted, order_ideals
from qtab.ppartitions import (
    enumerate_bsv_rpp,
    enumerate_rpp,
    gansner_series,
    gf_bsv_rpp,
    ideal_at_level,
    macmahon_gf,
    rpp_size_gf,
    rpp_size_series,
)
from qtab.qpoly import QPoly, QTPoly, qnum, qt_num

EXTENSION_LIMIT = 300  # larger posets are skipped: the oracles enumerate
FILLING_LIMIT = 400


def at_most(items, limit: int) -> list | None:
    """All items, or None when there are more than limit."""
    out = list(itertools.islice(items, limit + 1))
    return out if len(out) <= limit else None


def poly_sum(exponents) -> QPoly:
    acc: dict[int, int] = {}
    for e in exponents:
        acc[e] = acc.get(e, 0) + 1
    return QPoly.of(acc.get(e, 0) for e in range(max(acc, default=-1) + 1))


def qt_sum(keys) -> QTPoly:
    acc: dict[tuple[int, int], int] = {}
    for key in keys:
        acc[key] = acc.get(key, 0) + 1
    return QTPoly.of(acc)


def row(poset: Poset, p: int) -> int:
    return poset.coords[p][0] - 1 if poset.coords is not None else 0


def weights_by_ideal(poset: Poset, terms) -> tuple[QPoly, ...]:
    """Ideal weights of an ensemble, in ``order_ideals`` order, from (mask,
    monomial or QPoly) terms."""
    acc = {mask: QPoly.of([]) for mask in order_ideals(poset)}
    for mask, term in terms:
        acc[mask] = acc[mask] + term
    return tuple(acc.values())


def check_extension_sums(poset: Poset, extensions: list) -> None:
    assert gf_comaj(poset) == poly_sum(comaj(ext) for ext in extensions)
    assert gf_bsv(poset) == qt_sum(
        (comaj_plus(bsv), row(poset, bsv.p_star)) for bsv in enumerate_bsv(poset)
    )
    assert ensemble_lin(poset).weights == weights_by_ideal(
        poset,
        ((ext.prefix_ideal(i), theta(ext, i)) for ext in extensions for i in range(poset.n + 1)),
    )


def check_filling_sums(poset: Poset, m: int, fillings: list) -> None:
    assert rpp_size_gf(poset, m) == poly_sum(rpp.size for rpp in fillings)
    assert rpp_size_series(poset, m) == poly_sum(rpp.size for rpp in fillings if rpp.size <= m)
    assert gf_bsv_rpp(poset, m) == qt_sum(
        (bsv.size - 1, row(poset, bsv.p_star)) for bsv in enumerate_bsv_rpp(poset, m)
    )
    if m >= 1:
        assert ensemble_rpp(poset, m).weights == weights_by_ideal(
            poset,
            (
                (ideal_at_level(rpp, k), QPoly.monomial(1, rpp.size + k))
                for rpp in fillings
                for k in range(m)
            ),
        )
    if m == 1:
        assert ensemble_uniform(poset).normalizer == poly_sum(rpp.size for rpp in fillings)


def extension_case(poset: Poset) -> None:
    extensions = at_most(enumerate_linear_extensions(poset), EXTENSION_LIMIT)
    assume(extensions is not None)
    check_extension_sums(poset, extensions)


def filling_case(poset: Poset, m: int) -> None:
    fillings = at_most(enumerate_rpp(poset, m), FILLING_LIMIT)
    assume(fillings is not None)
    check_filling_sums(poset, m, fillings)


@given(naturally_labeled_posets())
@settings(max_examples=100, deadline=None)
def test_extension_sums_on_random_posets(poset):
    extension_case(poset)


@given(naturally_labeled_posets(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_filling_sums_on_random_posets(poset, m):
    filling_case(poset, m)


@given(st.one_of(partition_strategy(6).map(build_shape), strict_partition_strategy(7).map(build_shifted)))
@settings(max_examples=30, deadline=None)
def test_row_refinement_on_shapes(poset):
    extension_case(poset)
    filling_case(poset, 2)


def test_edge_posets():
    empty = Poset(0, [])
    chain = Poset(5, [(i, i + 1) for i in range(4)])
    antichain = Poset(5, [])
    for poset in (empty, Poset(1, []), chain, antichain):
        check_extension_sums(poset, list(enumerate_linear_extensions(poset)))
        for m in (0, 1, 2):
            check_filling_sums(poset, m, list(enumerate_rpp(poset, m)))
    assert gf_comaj(empty) == QPoly.of([1])
    assert gf_bsv(empty) == QTPoly.of({})
    assert rpp_size_series(chain, 0) == QPoly.of([1])


# Past the oracles' limits the engine packs wide coefficients (72 bits for
# comaj on rect 7x7), so the product formulas check it there.


@pytest.mark.parametrize("a", [6, 7])
def test_comaj_on_large_rectangles(a):
    assert gf_comaj(build_rectangle(a, a)) == gf_comaj_hook_formula((a,) * a)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(a, 37) if a * b <= 36])
def test_bsv_on_rectangles(a, b):
    lhs = gf_bsv(build_rectangle(a, b), refined=True) * qnum(a + b)
    assert lhs == qt_num(a) * qnum(b) * qnum(a * b + 1) * gf_comaj_hook_formula((b,) * a)


@pytest.mark.parametrize("a,b", [(3, 3), (3, 4)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_bsv_rpp_on_rectangles(a, b, m):
    lhs = gf_bsv_rpp(build_rectangle(a, b), m, refined=True) * qnum(a + b)
    assert lhs == qt_num(a) * qnum(b) * qnum(m) * macmahon_gf(a, b, m)


def test_size_series_past_the_fillings_oracle():
    assert rpp_size_series(build_rectangle(3, 3), 40) == gansner_series((3, 3, 3), 40)


# The digit width: the DPs at k = 0 give each polynomial's value at q = 1,
# the number of objects it counts, and ``_exact`` reads the packed ints in
# base 2^(8 * step) with step = that value's bit length // 8 + 1 bytes.


def divmod_digits(value: int, bits: int) -> list[int]:
    """The base-2^bits digits of value, least significant first."""
    out = []
    while value:
        value, digit = divmod(value, 1 << bits)
        out.append(digit)
    return out


# two disjoint 30-element chains: binomial(60, 30) extensions, 57 bits
TWO_CHAINS = Poset(60, [(i, i + 1) for i in range(59) if i != 29])


def fillings_dp(m: int):
    return lambda lat, k: engine._fillings(lat, m, k)


@given(naturally_labeled_posets(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_width_pass_counts_the_objects(poset, m):
    extensions = at_most(enumerate_linear_extensions(poset), EXTENSION_LIMIT)
    fillings = at_most(enumerate_rpp(poset, m), FILLING_LIMIT)
    assume(extensions is not None or fillings is not None)
    lat = engine._Lattice(poset)
    if extensions is not None:
        assert engine._comaj(lat, 0) == [len(extensions)]
        # forward times backward paths: the extensions with prefix I
        prefixes = [ext.prefix_ideal(size) for ext in extensions for size in range(poset.n + 1)]
        assert engine._lin(lat, 0) == [prefixes.count(mask) for mask in order_ideals(poset)]
    if fillings is not None:
        assert fillings_dp(m)(lat, 0) == [len(fillings)]
        # each filling has one level-k ideal for every k < m
        assert sum(engine._rpp(lat, m, 0)) == m * len(fillings)


@pytest.mark.parametrize(
    "step,poset,dp",
    [
        (1, build_rectangle(2, 2), engine._comaj),
        (2, build_rectangle(3, 4), engine._comaj),
        (3, build_rectangle(4, 5), engine._comaj),
        (4, build_rectangle(5, 5), engine._comaj),
        (5, build_rectangle(3, 3), fillings_dp(30)),
        (8, TWO_CHAINS, engine._comaj),
        (10, build_rectangle(7, 7), engine._comaj),
        (3, build_rectangle(4, 5), engine._lin),
    ],
)
def test_digits_at_every_width(step, poset, dp):
    """Byte casts (1, 2, 4, 8) and slices (3, 5, 10) against divmod."""
    lat = engine._Lattice(poset)
    assert max(dp(lat, 0)).bit_length() // 8 + 1 == step
    expected = [divmod_digits(v, 8 * step) for v in dp(lat, 8 * step)]
    assert engine._exact(poset, dp) == expected


@pytest.mark.parametrize("step", range(1, 18))
def test_digit_reader_on_random_ints(step):
    rng = random.Random(step)
    for bits in (0, 1, 8 * step - 1, 8 * step, 8 * step + 1, 1000):
        value = rng.getrandbits(bits) | (1 << bits >> 1)
        assert engine._digits(value, step) == divmod_digits(value, 8 * step)
