"""Differential tests: the J(P) path and multichain sums against the
enumeration oracles, on random naturally labeled posets and on shapes."""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    balanced_divmod_digits,
    divmod_digits,
    naturally_labeled_posets,
    partition_strategy,
    strict_partition_strategy,
)
from qtab import engine, kronecker
from qtab.distributions import ensemble_lin, ensemble_rpp, ensemble_uniform, statistic_ddeg, theta
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
from qtab.frozen import cached
from qtab.qpoly import QPoly, QTPoly, qnum, qt_num
from qtab.solver import toggle_solve

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


@given(naturally_labeled_posets(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_chains_ending_on_random_posets(poset, m):
    """Level l < m of ``_chains_ending`` weighs each ideal I by the fillings
    bounded by l + 1 whose level-l ideal is I, by size, truncated above the
    cap when one is given; m = 0 yields no level."""
    fillings = [at_most(enumerate_rpp(poset, level + 1), FILLING_LIMIT) for level in range(m)]
    assume(None not in fillings)
    lat = engine._lattice(poset)
    for cap in (None, 0, 1):
        levels = list(engine._chains_ending(lat, m, 16, cap))
        assert len(levels) == m
        for level, (weights, bounded) in enumerate(zip(levels, fillings)):
            assert tuple(QPoly.of(kronecker.digits(v, 2)) for v in weights) == weights_by_ideal(
                poset,
                (
                    (ideal_at_level(rpp, level), QPoly.monomial(1, rpp.size))
                    for rpp in bounded
                    if cap is None or rpp.size <= cap
                ),
            )
    for cap in (0, 1):
        series = rpp_size_series(poset, cap)
        assert series == poly_sum(rpp.size for rpp in enumerate_rpp(poset, cap) if rpp.size <= cap)


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


# The engine's J(P) is the poset's: ``order_ideals``, ``Poset._addable`` and
# ``Poset.ideal_edges``, with the indices of each size and the edges per ideal.

LATTICE_EXAMPLES = (
    Poset(0, []),
    Poset(1, []),
    Poset(10, [(i, i + 1) for i in range(9)]),
    Poset(5, []),
    Poset(6, []),
    build_rectangle(5, 6),
    build_shape((5, 4, 3, 2, 1)),
    build_shifted((4, 3, 2, 1)),
)


def with_examples(test):
    for poset in LATTICE_EXAMPLES:
        test = example(poset)(test)
    return test


def rpp_size_gf_2(poset: Poset) -> QPoly:
    return rpp_size_gf(poset, 2)


@given(naturally_labeled_posets())
@settings(max_examples=100, deadline=None)
@with_examples
def test_lattice_is_the_posets_ideal_lattice(poset):
    """Whichever of ``gf_comaj`` and ``rpp_size_gf`` runs first on a fresh
    poset, the engine's lattice holds ``order_ideals`` and ``Poset._addable``
    themselves, its levels split the ideals by size with indices ascending,
    and ``extension_count`` is the number of extensions."""
    extensions = at_most(enumerate_linear_extensions(poset), EXTENSION_LIMIT)
    ideals = order_ideals(poset)
    levels = [[j for j, mask in enumerate(ideals) if mask.bit_count() == s] for s in range(poset.n + 1)]
    for calls in ((gf_comaj, rpp_size_gf_2), (rpp_size_gf_2, gf_comaj)):
        fresh = Poset(poset.n, poset.covers)
        calls[0](fresh)
        lat = engine._lattice(fresh, edges=False)
        if extensions is not None:
            assert lat.extension_count == len(extensions)
        calls[1](fresh)
        assert lat is engine._lattice(fresh, edges=False)
        assert lat.masks is order_ideals(fresh) and lat.masks == ideals
        assert lat.addable is fresh._addable
        assert lat.levels == levels
        assert lat.sizes == [mask.bit_count() for mask in ideals]


@given(naturally_labeled_posets())
@with_examples
def test_lattice_steps_are_the_ideal_edges(poset):
    """``by_element`` is ``Poset.ideal_edges`` itself, and ``out_of`` and
    ``into`` are its edges grouped by lower and by upper end, elements
    ascending.  ``gf_comaj`` alone reads the upper ends off the masks and
    leaves ``ideal_edges`` unbuilt."""
    poset = Poset(poset.n, poset.covers)
    gf_comaj(poset)
    assert "ideal_edges" not in vars(poset)
    lat = engine._lattice(poset)
    assert lat.by_element is poset.ideal_edges
    out_of = [[] for _ in lat.masks]
    es = [[] for _ in lat.masks]
    ends = [[] for _ in lat.masks]
    for e, edges in enumerate(poset.ideal_edges):
        for lower, upper in edges:
            out_of[lower].append(upper)
            es[upper].append(e)
            ends[upper].append(lower)
    assert lat.out_of == out_of
    assert lat.into == (es, ends)


def test_each_poset_builds_its_ideals_once(monkeypatch):
    """The engine, the ensembles and the toggle solver share one J(P) per
    poset, whatever order they run in."""
    build = Poset.__dict__["_ideals"].fn
    built = []

    def _ideals(poset):
        built.append(poset)
        return build(poset)

    monkeypatch.setattr(Poset, "_ideals", cached(_ideals))
    calls = [
        gf_comaj,
        rpp_size_gf_2,
        lambda poset: ensemble_rpp(poset, 1),
        lambda poset: toggle_solve(poset, statistic_ddeg(poset)),
    ]
    for order in (calls, calls[::-1]):
        for poset in (build_rectangle(3, 3), Poset(6, [(0, 2), (1, 2), (1, 3), (2, 4), (3, 5)])):
            built.clear()
            for call in order:
                call(poset)
            assert built == [poset]
            assert vars(poset)["_lattice"].by_element is poset.ideal_edges


def test_lattice_holds_no_reference_to_its_poset():
    """With the cyclic collector off, a poset that ran ``gf_comaj`` and
    ``rpp_size_gf`` is freed as soon as its last reference goes: the lattice
    kept in its ``__dict__`` refers to nothing that refers back to it."""
    gc.disable()
    try:
        poset = build_rectangle(3, 4)
        gf_comaj(poset)
        rpp_size_gf(poset, 2)
        ref = weakref.ref(poset)
        del poset
        assert ref() is None
    finally:
        gc.enable()


# Past the oracles' limits the engine packs wide coefficients (72 bits for
# comaj on rect 7x7), so the product formulas check it there.


@pytest.mark.parametrize("a", [6, 7])
def test_comaj_on_large_rectangles(a):
    assert gf_comaj(build_rectangle(a, a)) == gf_comaj_hook_formula((a,) * a)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(a, 37) if a * b <= 36])
def test_bsv_on_rectangles(a, b):
    lhs = gf_bsv(build_rectangle(a, b)) * qnum(a + b)
    assert lhs == qt_num(a) * qnum(b) * qnum(a * b + 1) * gf_comaj_hook_formula((b,) * a)


@pytest.mark.parametrize("a,b", [(3, 3), (3, 4)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_bsv_rpp_on_rectangles(a, b, m):
    lhs = gf_bsv_rpp(build_rectangle(a, b), m) * qnum(a + b)
    assert lhs == qt_num(a) * qnum(b) * qnum(m) * macmahon_gf(a, b, m)


def test_size_series_past_the_fillings_oracle():
    assert rpp_size_series(build_rectangle(3, 3), 40) == gansner_series((3, 3, 3), 40)


# The digit width: the DPs at k = 0 give each polynomial's value at q = 1,
# the number of objects it counts, and ``_exact`` reads the packed ints in
# base 2^(8 * step) with step the fewest bytes above that value.


# two disjoint 30-element chains: binomial(60, 30) extensions, 57 bits
TWO_CHAINS = Poset(60, [(i, i + 1) for i in range(59) if i != 29])


def fillings_dp(m: int):
    return lambda lat, k: engine._fillings(lat, m, k)


@given(naturally_labeled_posets(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
@example(Poset(0, []), 1)  # one ideal
@example(Poset(1, []), 2)
@example(Poset(10, [(i, i + 1) for i in range(9)]), 3)  # one ideal per level
@example(Poset(5, []), 1)  # Boolean lattices: 120 extensions, and 720, past
@example(Poset(6, []), 1)  # the extension limit, so fillings only
def test_width_pass_counts_the_objects(poset, m):
    extensions = at_most(enumerate_linear_extensions(poset), EXTENSION_LIMIT)
    fillings = at_most(enumerate_rpp(poset, m), FILLING_LIMIT)
    assume(extensions is not None or fillings is not None)
    lat = engine._lattice(poset)
    if extensions is not None:
        assert engine._comaj(lat, 0) == [len(extensions)] == [lat.extension_count]
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
    lat = engine._lattice(poset)
    assert max(dp(lat, 0)).bit_length() // 8 + 1 == step
    expected = [divmod_digits(v, 8 * step) for v in dp(lat, 8 * step)]
    assert engine._exact(lat, dp) == expected
    if dp is engine._comaj:
        # the production route: the width from the count of paths to P
        assert engine._exact(lat, dp, lat.extension_count) == expected


# ---------------------------------------------------------------------------
# the packed format: casts up to 8 bytes per digit (3, 5, 6 and 7 padded to
# a native word), struct reads past 8


@pytest.mark.parametrize("step", range(1, 18))
def test_digit_reader_on_random_ints(step):
    rng = random.Random(step)
    for bits in (0, 1, 8 * step - 1, 8 * step, 8 * step + 1, 1000):
        value = rng.getrandbits(bits) | (1 << bits >> 1)
        assert kronecker.digits(value, step) == divmod_digits(value, 8 * step)


def edge_coefficients(step: int) -> st.SearchStrategy[int]:
    """Signed coefficients, the balanced range's ends and -1 drawn often."""
    half = 1 << 8 * step - 1
    return st.one_of(st.sampled_from([-half, half - 1, half, -1, 0, 1]), st.integers(-half, half))


def trimmed(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


@pytest.mark.parametrize("step", range(1, 18))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packing_round_trip(step, data):
    """``pack`` is evaluation at 2^(8*step) for any coefficients; within
    [-2^(8*step-1), 2^(8*step-1)) ``balanced`` reads them back, and within
    [0, 2^(8*step)) so does ``digits``.  2^(8*step-1) itself is outside the
    balanced range: it reads back as -2^(8*step-1) plus a carry."""
    bits, half = 8 * step, 1 << 8 * step - 1
    coeffs = data.draw(st.lists(edge_coefficients(step), max_size=12))
    value = sum(c << bits * e for e, c in enumerate(coeffs))
    assert kronecker.pack(coeffs, step) == value
    assert trimmed(kronecker.balanced(value, step)) == balanced_divmod_digits(value, bits)
    if all(-half <= c < half for c in coeffs):
        assert balanced_divmod_digits(value, bits) == trimmed(coeffs)
    unsigned = [c % (1 << bits) for c in coeffs]
    value = sum(c << bits * e for e, c in enumerate(unsigned))
    assert kronecker.pack(unsigned, step) == value
    assert kronecker.digits(value, step) == divmod_digits(value, bits) == trimmed(unsigned)


def test_step_above_is_the_fewest_bytes():
    assert [kronecker.step_above(b) for b in (0, 1, 255, 256, 2**64 - 1, 2**64)] == [1, 1, 1, 2, 8, 9]
