"""Tests for weakly increasing fillings, product formulas, and their
barely set-valued variants."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partition_strategy, small_shape_corpus
from qtab.extensions import InvalidTriple, gf_comaj, r_star
from qtab.posets import (
    UnsupportedPoset,
    build_minuscule,
    build_propeller,
    build_rectangle,
    build_shape,
    build_shifted,
    order_ideals,
)
from qtab.ppartitions import (
    BsvRpp,
    Rpp,
    _bracket_ratio_product,
    bender_knuth_gf,
    bsv_rpp_from_triple,
    enumerate_bsv_rpp,
    enumerate_rpp,
    gansner_series,
    gf_bsv_rpp,
    ideal_at_level,
    macmahon_gf,
    minuscule_gf,
    rpp_from_chain,
    rpp_size_gf,
    rpp_size_series,
    triple_from_bsv_rpp,
    w_decompose,
)
from qtab.qpoly import QPoly, QTPoly, parse_poly, qbinom, qnum, qt_num

RECT22 = build_rectangle(2, 2)
RECT33 = build_rectangle(3, 3)


def truncated(poly: QPoly, cap: int) -> QPoly:
    return QPoly.of(poly.coeffs[: cap + 1])


def partition_series(moduli, cap: int) -> QPoly:
    """prod 1/(1-q^h) over the given moduli, truncated at cap."""
    coeffs = [0] * (cap + 1)
    coeffs[0] = 1
    for h in moduli:
        for e in range(h, cap + 1):
            coeffs[e] += coeffs[e - h]
    return QPoly.of(coeffs)


def bsv_rpp_sum(poset, m: int) -> QTPoly:
    """Explicit object-level generating function q^(size-1) t^(row-1)."""
    acc: dict[tuple[int, int], int] = {}
    for bsv in enumerate_bsv_rpp(poset, m):
        t_exp = r_star(bsv) - 1 if poset.coords is not None else 0
        key = (bsv.size - 1, t_exp)
        acc[key] = acc.get(key, 0) + 1
    return QTPoly.of(acc)


# ---------------------------------------------------------------------------
# fillings and their level ideals


def test_rpp_golden_2x2():
    fillings = list(enumerate_rpp(RECT22, 1))
    assert sorted(f.size for f in fillings) == [0, 1, 2, 2, 3, 4]
    assert rpp_size_gf(RECT22, 1) == parse_poly("1 + q + 2*q^2 + q^3 + q^4")


def test_rpp_validation():
    with pytest.raises(ValueError):
        Rpp(RECT22, 1, (0, 0, 0, 2))
    with pytest.raises(ValueError):
        Rpp(RECT22, 1, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        Rpp(RECT22, 1, (0, 0, 0))
    with pytest.raises(ValueError):
        Rpp(RECT22, -1, ())


def test_enumerate_rpp_is_lex_and_complete():
    for poset in small_shape_corpus(5):
        for m in (0, 1, 2):
            seen = [f.entries for f in enumerate_rpp(poset, m)]
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen)
            brute = [
                entries
                for entries in itertools.product(range(m + 1), repeat=poset.n)
                if all(entries[lo] <= entries[hi] for lo, hi in poset.covers)
            ]
            assert len(seen) == len(brute)


def test_level_ideals_are_ideals():
    for poset in small_shape_corpus(5):
        ideals = set(order_ideals(poset))
        for rpp in enumerate_rpp(poset, 2):
            for k in range(3):
                assert ideal_at_level(rpp, k) in ideals


def test_chain_decomposition_roundtrip():
    for poset in small_shape_corpus(5):
        for m in (1, 2, 3):
            for rpp in enumerate_rpp(poset, m):
                masks = w_decompose(rpp)
                assert len(masks) == m
                assert all(a & b == a for a, b in zip(masks, masks[1:]))
                assert rpp_from_chain(poset, m, masks) == rpp


def test_chain_decomposition_rejects_non_chains():
    with pytest.raises(ValueError):
        rpp_from_chain(RECT22, 2, (0b0011, 0b0101))
    with pytest.raises(ValueError):
        rpp_from_chain(RECT22, 1, (0b0100,))
    with pytest.raises(ValueError):
        rpp_from_chain(RECT22, 2, (0,))


# ---------------------------------------------------------------------------
# product formulas


@pytest.mark.parametrize("a,b,m", [(1, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 3, 2), (1, 4, 3)])
def test_macmahon_matches_enumeration(a, b, m):
    assert macmahon_gf(a, b, m) == rpp_size_gf(build_rectangle(a, b), m)


def test_macmahon_golden():
    assert macmahon_gf(2, 2, 1) == parse_poly("1 + q + 2*q^2 + q^3 + q^4")
    assert macmahon_gf(1, 1, 0) == parse_poly("1")
    assert macmahon_gf(3, 3, 1).evaluate(1) == 20  # ideals of the 3x3 grid


def _uncancelled_ratio(pairs):
    """prod [num] exactly divided by prod [den], or the type of the error."""
    numerator = QPoly.of([1])
    denominator = QPoly.of([1])
    for num, den in pairs:
        numerator = numerator * qnum(num)
        denominator = denominator * qnum(den)
    try:
        return numerator.exact_div(denominator)
    except Exception as exc:
        return type(exc)


# [k*d] / [d] is a polynomial, so lists of such pairs divide exactly however
# their numerators are shuffled; free pairs mostly do not
_FREE_PAIRS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6)
_EXACT_PAIRS = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 5)).map(lambda kd: (kd[0] * kd[1], kd[1])),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_FREE_PAIRS, _EXACT_PAIRS), st.randoms(use_true_random=False))
def test_bracket_ratio_cancellation_is_exact(pairs, rng):
    nums = [num for num, _ in pairs]
    rng.shuffle(nums)
    pairs = [(num, den) for num, (_, den) in zip(nums, pairs)]
    try:
        cancelled = _bracket_ratio_product(pairs)
    except Exception as exc:
        cancelled = type(exc)
    assert cancelled == _uncancelled_ratio(pairs)


@pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_bender_knuth_matches_enumeration(k, m):
    staircase = build_shifted(tuple(range(k, 0, -1)))
    assert bender_knuth_gf(k, m) == rpp_size_gf(staircase, m)


@pytest.mark.parametrize(
    "poset",
    [
        build_rectangle(2, 2),
        build_rectangle(2, 3),
        build_propeller(2),
        build_propeller(3),
        build_shifted((3, 2, 1)),
        build_minuscule("E6"),
        build_minuscule("E7"),
    ],
    ids=lambda p: repr(p),
)
def test_minuscule_gf_matches_enumeration(poset):
    for m in (1, 2):
        assert minuscule_gf(poset, m) == rpp_size_gf(poset, m)


def test_rectangle_fillings_match_their_rotations():
    """Weakly decreasing fillings of a box are counted by the same sizes."""
    for a, b, m in [(2, 2, 2), (2, 3, 2), (1, 4, 3)]:
        rect = build_rectangle(a, b)
        increasing = sorted(f.size for f in enumerate_rpp(rect, m))
        decreasing = sorted(
            sum(entries)
            for entries in itertools.product(range(m + 1), repeat=rect.n)
            if all(entries[lo] >= entries[hi] for lo, hi in rect.covers)
        )
        assert increasing == decreasing
        gf = macmahon_gf(a, b, m)
        assert gf.reverse(a * b * m) == gf


@given(partition_strategy(7), st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_unbounded_series_matches_hook_product(lam, cap):
    assert rpp_size_series(build_shape(lam), cap) == gansner_series(lam, cap)


@given(partition_strategy(7))
@settings(max_examples=30, deadline=None)
def test_unbounded_series_matches_descent_route(lam):
    """The size series equals gf_comaj spread by prod 1/(1-q^i)."""
    cap = 12
    poset = build_shape(lam)
    spread = partition_series(range(1, poset.n + 1), cap)
    expected = truncated(gf_comaj(poset) * spread, cap)
    assert rpp_size_series(poset, cap) == expected


def test_bounded_series_stabilizes():
    cap = 6
    series = rpp_size_series(RECT22, cap)
    assert truncated(rpp_size_gf(RECT22, cap), cap) == series


# ---------------------------------------------------------------------------
# barely set-valued fillings


def test_bsv_rpp_golden_2x2():
    objects = list(enumerate_bsv_rpp(RECT22, 1))
    assert sorted(o.size for o in objects) == [1, 2, 2, 3, 3, 4]
    assert gf_bsv_rpp(RECT22, 1).at_t1() == parse_poly("1 + 2*q + 2*q^2 + q^3")


def test_bsv_rpp_refined_golden_2x2():
    poly = gf_bsv_rpp(RECT22, 1)
    assert poly.coefficient_of_t(0) == parse_poly("q + q^2 + q^3")
    assert poly.coefficient_of_t(1) == parse_poly("1 + q + q^2")


def test_bsv_rpp_triple_golden():
    entries = ((1,), (1,), (2,), (3,), (4, 5), (5,), (3,), (5,), (6,))
    bsv = BsvRpp(RECT33, 6, entries, 4)
    assert bsv.i_star == 5
    assert bsv.size == 35
    rpp, i, p = triple_from_bsv_rpp(bsv)
    assert rpp.entries == (1, 1, 2, 3, 4, 5, 3, 5, 6)
    assert i == 4
    assert p == 4
    assert bsv_rpp_from_triple(rpp, i, p) == bsv


def test_bsv_rpp_validation():
    with pytest.raises(ValueError):
        BsvRpp(RECT22, 1, ((0,), (0,), (0,), (0,)), 3)
    with pytest.raises(ValueError):
        BsvRpp(RECT22, 1, ((0, 1), (0,), (0,), (0, 1)), 0)
    with pytest.raises(ValueError):
        BsvRpp(RECT22, 1, ((0, 1), (0,), (1,), (0,)), 0)
    with pytest.raises(ValueError):
        BsvRpp(RECT22, 2, ((0,), (0,), (0,), (2, 1)), 3)


def test_bsv_rpp_invalid_triples():
    rpp = Rpp(RECT22, 2, (0, 1, 1, 2))
    with pytest.raises(InvalidTriple):
        bsv_rpp_from_triple(rpp, 2, 3)  # level beyond m-1
    with pytest.raises(InvalidTriple):
        bsv_rpp_from_triple(rpp, 0, 1)  # entry above the level
    with pytest.raises(InvalidTriple):
        bsv_rpp_from_triple(rpp, 1, 0)  # not maximal at the level
    with pytest.raises(InvalidTriple):
        bsv_rpp_from_triple(rpp, 0, 4)


def test_bsv_rpp_triple_roundtrip():
    for poset in small_shape_corpus(5) + [build_propeller(2)]:
        for m in (1, 2, 3):
            count = 0
            for bsv in enumerate_bsv_rpp(poset, m):
                rpp, i, p = triple_from_bsv_rpp(bsv)
                assert bsv_rpp_from_triple(rpp, i, p) == bsv
                assert bsv.size == rpp.size + i + 1
                count += 1
            assert count == len(set(enumerate_bsv_rpp(poset, m)))


def test_gf_bsv_rpp_matches_object_level_sum():
    for poset in small_shape_corpus(5) + [build_propeller(2)]:
        for m in (0, 1, 2, 3):
            assert gf_bsv_rpp(poset, m) == bsv_rpp_sum(poset, m)


def test_gf_bsv_rpp_refinement_requires_coordinates():
    propeller = build_propeller(2)
    assert gf_bsv_rpp(propeller, 2).t_degree <= 0
    with pytest.raises(UnsupportedPoset):
        gf_bsv_rpp(propeller, 2, refined=True)


@pytest.mark.parametrize("a,b,m", [(1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 3, 2)])
def test_rectangle_bounded_product_identity(a, b, m):
    """[a+b] * gf = [a][b][m] * (bounded size gf), with rows refining [a]."""
    rect = build_rectangle(a, b)
    lhs = gf_bsv_rpp(rect, m) * qnum(a + b)
    rhs = qt_num(a) * qnum(b) * qnum(m) * macmahon_gf(a, b, m)
    assert lhs == rhs


@pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_staircase_bounded_product_identity(k, m):
    """[2k] * gf = qbinom(k+1, 2) * [m] * (bounded size gf) on staircases."""
    staircase = build_shifted(tuple(range(k, 0, -1)))
    lhs = gf_bsv_rpp(staircase, m).at_t1() * qnum(2 * k)
    rhs = qbinom(k + 1, 2) * qnum(m) * bender_knuth_gf(k, m)
    assert lhs == rhs


def test_zero_bound_edge_cases():
    assert rpp_size_gf(RECT22, 0) == parse_poly("1")
    assert rpp_size_series(RECT22, 0) == parse_poly("1")
    with pytest.raises(ValueError):
        rpp_size_series(RECT22, -1)
    with pytest.raises(ValueError):
        rpp_size_gf(RECT22, -1)
    assert not list(enumerate_bsv_rpp(RECT22, 0))
    assert gf_bsv_rpp(RECT22, 0) == QTPoly.of({})
