"""Tests for linear extensions, descent statistics, and barely set-valued fillings."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naturally_labeled_posets,
    partition_strategy,
    small_shape_corpus,
    strict_partition_strategy,
)
from qtab.extensions import (
    BsvLinearExtension,
    InvalidTriple,
    LinearExtension,
    _from_positions,
    bsv_descents,
    bsv_from_triple,
    comaj,
    comaj_at,
    comaj_plus,
    d_star,
    descents,
    enumerate_bsv,
    enumerate_linear_extensions,
    f_x_permutation,
    format_tableau,
    gf_bsv,
    gf_comaj,
    gf_comaj_hook_formula,
    maj,
    parse_tableau,
    r_star,
    triple_from_bsv,
)
from qtab.posets import (
    Poset,
    UnsupportedPoset,
    build_minuscule,
    build_propeller,
    build_rectangle,
    build_shape,
    build_shifted,
    relabel,
)
from qtab.qpoly import QPoly, QTPoly, parse_poly, qbinom, qnum, qt_num

RECT22 = build_rectangle(2, 2)
STAIRCASE3 = build_shifted((3, 2, 1))


def bsv_sum(poset, statistic=None) -> QTPoly:
    """Explicit object-level generating function over all barely set-valued fillings."""
    acc: dict[tuple[int, int], int] = {}
    for bsv in enumerate_bsv(poset):
        t_exp = statistic(bsv) if statistic else 0
        key = (comaj_plus(bsv), t_exp)
        acc[key] = acc.get(key, 0) + 1
    return QTPoly.of(acc)


# ---------------------------------------------------------------------------
# linear extensions and descents


def test_two_by_two_extensions_golden():
    exts = list(enumerate_linear_extensions(RECT22))
    assert [e.values for e in exts] == [(1, 2, 3, 4), (1, 3, 2, 4)]
    assert descents(exts[0]) == frozenset()
    assert comaj(exts[0]) == 0
    assert descents(exts[1]) == frozenset({2})
    assert comaj(exts[1]) == 2
    assert maj(exts[1]) == 2
    assert gf_comaj(RECT22) == parse_poly("1 + q^2")


def test_extension_counts_golden():
    assert sum(1 for _ in enumerate_linear_extensions(build_rectangle(3, 3))) == 42
    assert sum(1 for _ in enumerate_linear_extensions(build_rectangle(2, 4))) == 14
    assert sum(1 for _ in enumerate_linear_extensions(build_shifted((4, 3, 1)))) == 12


def test_extension_validation():
    with pytest.raises(ValueError):
        LinearExtension(RECT22, (1, 2, 3, 3))
    with pytest.raises(ValueError):
        LinearExtension(RECT22, (2, 1, 3, 4))


def test_word_and_positions():
    ext = LinearExtension(RECT22, (1, 3, 2, 4))
    assert ext.positions == (0, 2, 1, 3)
    assert ext.word() == (1, 3, 2, 4)
    assert ext.prefix_ideal(2) == 0b0101
    assert ext.prefix_ideal(0) == 0
    assert ext.prefix_ideal(4) == 0b1111


@pytest.mark.parametrize("i", [-1, 5, 9])
def test_prefix_ideal_rejects_lengths_outside_0_to_n(i):
    ext = LinearExtension(RECT22, (1, 3, 2, 4))
    with pytest.raises(ValueError):
        ext.prefix_ideal(i)


@settings(max_examples=60, deadline=None)
@given(naturally_labeled_posets(max_n=6))
def test_prefix_masks_are_the_prefix_ideals(poset):
    for ext in enumerate_linear_extensions(poset):
        assert len(ext.prefix_masks) == poset.n + 1
        for i, mask in enumerate(ext.prefix_masks):
            expected = 0
            for e in ext.positions[:i]:
                expected |= 1 << e
            assert mask == expected
            assert ext.prefix_ideal(i) == mask


def test_enumeration_is_lex_by_word():
    for poset in small_shape_corpus(6):
        words = [e.word() for e in enumerate_linear_extensions(poset)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def _recursive_positions(poset):
    """The recursive enumerator the explicit-stack walk replaced: the
    reference for its order."""
    n = poset.n
    indegree = [len(poset.lower_covers[e]) for e in range(n)]
    placed = [False] * n
    prefix: list[int] = []

    def rec():
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for e in range(n):
            if not placed[e] and indegree[e] == 0:
                placed[e] = True
                for u in poset.upper_covers[e]:
                    indegree[u] -= 1
                prefix.append(e)
                yield from rec()
                prefix.pop()
                for u in poset.upper_covers[e]:
                    indegree[u] += 1
                placed[e] = False

    return rec()


def _assert_recursive_order(poset):
    expected = [_from_positions(poset, pos) for pos in _recursive_positions(poset)]
    assert list(enumerate_linear_extensions(poset)) == expected


def test_enumeration_order_matches_the_recursive_walk():
    posets = small_shape_corpus(8) + [
        Poset(0, []),
        build_shifted((4, 3, 2, 1)),
        build_minuscule("E6"),
    ]
    for poset in posets:
        _assert_recursive_order(poset)


@settings(max_examples=60, deadline=None)
@given(naturally_labeled_posets(max_n=7))
def test_enumeration_order_matches_the_recursive_walk_on_random_posets(poset):
    _assert_recursive_order(poset)


@settings(max_examples=60, deadline=None)
@given(naturally_labeled_posets(max_n=7))
def test_walked_extensions_equal_validated_ones(poset):
    # The walk builds each extension without the check of __post_init__ and
    # presets its positions; the checked constructor must accept each one
    # and agree on every field, the positions and the hash.
    for ext in enumerate_linear_extensions(poset):
        checked = LinearExtension(poset, ext.values)
        assert ext == checked and hash(ext) == hash(checked)
        assert (ext.poset, ext.values) == (checked.poset, checked.values)
        assert ext.positions == checked.positions
        assert ext.prefix_masks == checked.prefix_masks


def test_comaj_at_golden():
    ext = parse_tableau("1,3,6\n2,5,8\n4,7,9", build_rectangle(3, 3))
    assert isinstance(ext, LinearExtension)
    assert descents(ext) == frozenset({2, 4, 5, 7})
    assert comaj(ext) == 18
    assert comaj_at(ext, 3) == 24
    assert comaj_at(ext, 0) == comaj(ext) + 9
    assert comaj_at(ext, 9) == comaj(ext)
    with pytest.raises(ValueError):
        comaj_at(ext, 10)


def test_comaj_at_matches_descent_adjunction():
    for poset in small_shape_corpus(5):
        n = poset.n
        for ext in enumerate_linear_extensions(poset):
            des = descents(ext)
            for i in range(n + 1):
                expected = comaj(ext) + (0 if i in des else n - i)
                assert comaj_at(ext, i) == expected


@given(partition_strategy(8))
@settings(max_examples=40, deadline=None)
def test_hook_formula_matches_enumeration(lam):
    assert gf_comaj(build_shape(lam)) == gf_comaj_hook_formula(lam)


@given(strict_partition_strategy(8))
@settings(max_examples=30, deadline=None)
def test_shifted_hook_formula_matches_enumeration(lam):
    assert gf_comaj(build_shifted(lam)) == gf_comaj_hook_formula(lam, shifted=True)


def test_hook_formula_past_enumeration():
    """rect 5x5 has 701,149,020 linear extensions; the J(P) sum has 252 ideals."""
    assert gf_comaj(build_rectangle(5, 5)) == gf_comaj_hook_formula((5, 5, 5, 5, 5))


def test_hook_formula_golden():
    assert gf_comaj_hook_formula((2, 2)) == parse_poly("1 + q^2")
    assert gf_comaj_hook_formula((3, 2, 1), shifted=True) == parse_poly("1 + q^3")


def test_gf_comaj_is_labeling_independent():
    base = build_shape((3, 2))
    for order in [(0, 3, 1, 4, 2), (0, 1, 3, 2, 4), (0, 3, 1, 2, 4)]:
        relabeled = relabel(base, order)
        assert gf_comaj(relabeled) == gf_comaj(base)
        assert gf_bsv(relabeled) == gf_bsv(base)


# ---------------------------------------------------------------------------
# the auxiliary permutation f_X


def test_f_x_golden():
    assert f_x_permutation(6, []) == (6, 5, 4, 3, 2, 1, 0)
    assert f_x_permutation(6, [2, 4]) == (6, 5, 0, 4, 1, 3, 2)
    assert f_x_permutation(6, [2, 4, 5]) == (6, 5, 0, 4, 1, 2, 3)
    with pytest.raises(ValueError):
        f_x_permutation(6, [0])


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
def test_f_x_is_a_permutation(args):
    n, xset = args
    assert sorted(f_x_permutation(n, sorted(xset))) == list(range(n + 1))


def test_descent_adjunction_exponents_are_permuted_comaj():
    """comaj(T, i) + #{j in Des, j < i} sweeps comaj(T) + (0..n) bijectively."""
    for poset in small_shape_corpus(5):
        n = poset.n
        for ext in enumerate_linear_extensions(poset):
            des = descents(ext)
            exps = [
                comaj_at(ext, i) + sum(1 for j in des if j < i) for i in range(n + 1)
            ]
            offsets = f_x_permutation(n, sorted(des))
            assert sorted(exps) == sorted(comaj(ext) + f for f in offsets)
            total = sum((QPoly.monomial(1, e) for e in exps), QPoly.of([]))
            assert total == qnum(n + 1) * QPoly.monomial(1, comaj(ext))


# ---------------------------------------------------------------------------
# barely set-valued fillings

TABLE_2X2_BSV = [
    ("1,2\n3,4|5", {5}, 0),
    ("1,3\n2,4|5", {2, 5}, 3),
    ("1,2\n3|4,5", {4}, 1),
    ("1,3\n2|4,5", {2, 4}, 4),
    ("1,4\n2|3,5", {3}, 2),
    ("1,2|3\n4,5", {3}, 2),
    ("1,2|4\n3,5", {4}, 1),
    ("1,3|4\n2,5", {2, 4}, 4),
    ("1|2,3\n4,5", {2}, 3),
    ("1|2,4\n3,5", {2, 3}, 5),
]

TABLE_STAIRCASE3_BSV = [
    ("1|2,3,4\n5,6\n7", {2}, 5),
    ("1|2,3,5\n4,6\n7", {2, 4}, 8),
    ("1,2|3,4\n5,6\n7", {3}, 4),
    ("1,2|3,5\n4,6\n7", {3, 4}, 7),
    ("1,2,3|4\n5,6\n7", {4}, 3),
    ("1,2,3|5\n4,6\n7", {5}, 2),
    ("1,2,4|5\n3,6\n7", {3, 5}, 6),
    ("1,2,5\n3|4,6\n7", {4}, 3),
    ("1,2,4\n3|5,6\n7", {3, 5}, 6),
    ("1,2,3\n4|5,6\n7", {5}, 2),
    ("1,2,3\n4,5|6\n7", {6}, 1),
    ("1,2,4\n3,5|6\n7", {3, 6}, 5),
    ("1,2,3\n4,5\n6|7", {7}, 0),
    ("1,2,4\n3,5\n6|7", {3, 7}, 4),
]


def test_bsv_descents_golden_2x2():
    for text, des, cp in TABLE_2X2_BSV:
        bsv = parse_tableau(text, RECT22)
        assert isinstance(bsv, BsvLinearExtension)
        assert bsv_descents(bsv) == frozenset(des)
        assert comaj_plus(bsv) == cp


def test_bsv_descents_golden_staircase():
    for text, des, cp in TABLE_STAIRCASE3_BSV:
        bsv = parse_tableau(text, STAIRCASE3)
        assert isinstance(bsv, BsvLinearExtension)
        assert bsv_descents(bsv) == frozenset(des)
        assert comaj_plus(bsv) == cp


def test_enumerate_bsv_matches_table():
    expected = {parse_tableau(text, RECT22) for text, _, _ in TABLE_2X2_BSV}
    assert set(enumerate_bsv(RECT22)) == expected
    expected = {parse_tableau(text, STAIRCASE3) for text, _, _ in TABLE_STAIRCASE3_BSV}
    assert set(enumerate_bsv(STAIRCASE3)) == expected


def test_bsv_validation():
    with pytest.raises(ValueError):
        BsvLinearExtension(RECT22, ((1,), (2,), (3,), (4,)), 3, 4)
    with pytest.raises(ValueError):
        BsvLinearExtension(RECT22, ((1, 2), (3,), (4,), (5,)), 0, 1)
    with pytest.raises(ValueError):
        BsvLinearExtension(RECT22, ((1,), (2, 3), (4,), (5,)), 1, 2)


def test_bsv_cells_hold_one_or_two_sorted_values():
    # every entries tuple below partitions 1..6 and doubles only element 0
    # with larger entry 2, so the cell checks alone reject them
    antichain = Poset(5, [])
    bsv = BsvLinearExtension(antichain, ((1, 2), (3,), (4,), (5,), (6,)), 0, 2)
    assert triple_from_bsv(bsv) == (LinearExtension(antichain, (1, 2, 3, 4, 5)), 1, 0)
    for entries in (
        ((1, 2), (3, 4, 5), (), (), (6,)),  # a cell of three values, two empty
        ((1, 2), (3, 4, 5), (6,), (), ()),
        ((1, 2), (5, 4), (3,), (), (6,)),  # an unsorted doubled cell
    ):
        with pytest.raises(ValueError, match="^cells must be sorted 1- or 2-element sets$"):
            BsvLinearExtension(antichain, entries, 0, 2)
    with pytest.raises(ValueError, match="^one cell per element required$"):
        BsvLinearExtension(antichain, ((1, 2), (3,), (4,), (5,), (6,), ()), 0, 2)


def test_triple_golden():
    rect33 = build_rectangle(3, 3)
    bsv = parse_tableau("1,2,5\n3,4|6,8\n7,9,10", rect33)
    ext, i, p = triple_from_bsv(bsv)
    assert format_tableau(ext) == "1,2,5\n3,4,7\n6,8,9"
    assert i == 5
    assert p == 4
    assert bsv_from_triple(ext, i, p) == bsv


def test_invalid_triples():
    ext = LinearExtension(RECT22, (1, 2, 3, 4))
    with pytest.raises(InvalidTriple):
        bsv_from_triple(ext, 5, 0)
    with pytest.raises(InvalidTriple):
        bsv_from_triple(ext, 1, 1)  # value 2 is outside the first 1
    with pytest.raises(InvalidTriple):
        bsv_from_triple(ext, 3, 0)  # (1,1) is covered by a placed element
    with pytest.raises(InvalidTriple):
        bsv_from_triple(ext, 2, 4)


def test_triple_roundtrip_and_counts():
    for poset in small_shape_corpus(6) + [build_propeller(2)]:
        seen = set()
        for bsv in enumerate_bsv(poset):
            ext, i, p = triple_from_bsv(bsv)
            assert bsv_from_triple(ext, i, p) == bsv
            seen.add(bsv)
        # triples (T, i, p) with p maximal among the first i values are exactly
        # the fillings, so the enumeration never repeats an object
        assert len(seen) == sum(1 for _ in enumerate_bsv(poset))


def test_bsv_descent_closed_form():
    """Descents of the filling match the descent surgery on (T, i)."""
    for poset in small_shape_corpus(6):
        n = poset.n
        for bsv in enumerate_bsv(poset):
            ext, i, _ = triple_from_bsv(bsv)
            des = descents(ext)
            expected = (
                {l for l in des if l < i} | {i + 1} | {j + 1 for j in des if j > i}
            )
            assert bsv_descents(bsv) == frozenset(expected)
            assert comaj_plus(bsv) == comaj_at(ext, i) + sum(1 for j in des if j < i)


def test_gf_bsv_golden_2x2():
    poly = gf_bsv(RECT22)
    assert poly.at_t1() == parse_poly("1 + 2*q + 2*q^2 + 2*q^3 + 2*q^4 + q^5")
    assert poly.coefficient_of_t(0) == parse_poly("q + q^2 + q^3 + q^4 + q^5")
    assert poly.coefficient_of_t(1) == parse_poly("1 + q + q^2 + q^3 + q^4")


def test_gf_bsv_golden_staircase():
    poly = gf_bsv(STAIRCASE3).at_t1()
    assert poly == parse_poly(
        "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + 2*q^5 + 2*q^6 + q^7 + q^8"
    )


def test_gf_bsv_matches_object_level_sum():
    for poset in small_shape_corpus(6) + [build_propeller(2), build_propeller(3)]:
        if poset.coords is not None:
            expected = bsv_sum(poset, lambda b: r_star(b) - 1)
        else:
            expected = bsv_sum(poset)
        assert gf_bsv(poset) == expected


def test_gf_bsv_refinement_requires_coordinates():
    propeller = build_propeller(2)
    assert gf_bsv(propeller).t_degree <= 0
    with pytest.raises(UnsupportedPoset):
        gf_bsv(propeller, refined=True)
    bsv = next(enumerate_bsv(propeller))
    with pytest.raises(UnsupportedPoset):
        r_star(bsv)
    with pytest.raises(UnsupportedPoset):
        d_star(bsv)


@pytest.mark.parametrize(
    "a,b", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (1, 4), (2, 4), (5, 5), (4, 6)]
)
def test_rectangle_product_identity(a, b):
    """[a+b] * gf = [a][b][ab+1] * gf_comaj, with rows refining [a]."""
    rect = build_rectangle(a, b)
    lhs = gf_bsv(rect) * qnum(a + b)
    rhs = qt_num(a) * qnum(b) * qnum(a * b + 1) * gf_comaj(rect)
    assert lhs == rhs
    assert lhs.at_t1() == gf_bsv(rect).at_t1() * qnum(a + b)


@pytest.mark.parametrize("k", [2, 3])
def test_staircase_product_identity(k):
    """[2k] * gf = qbinom(k+1, 2) * [n+1] * gf_comaj on staircases."""
    staircase = build_shifted(tuple(range(k, 0, -1)))
    n = staircase.n
    lhs = gf_bsv(staircase).at_t1() * qnum(2 * k)
    rhs = qbinom(k + 1, 2) * qnum(n + 1) * gf_comaj(staircase)
    assert lhs == rhs


@pytest.mark.parametrize("k", [2, 3])
def test_staircase_diagonal_refinement(k):
    """[2k] * gf with t marking a diagonal doubled cell splits as
    q * qbinom(k, 2) + t * [k]_(q^2)."""
    staircase = build_shifted(tuple(range(k, 0, -1)))
    n = staircase.n
    lhs = bsv_sum(staircase, d_star) * qnum(2 * k)
    bracket_k_q2 = qnum(k).substitute(2)
    refinement = QTPoly.from_qpoly(qbinom(k, 2).shift(1)) + QTPoly.of(
        {(e, 1): c for e, c in enumerate(bracket_k_q2.coeffs) if c}
    )
    rhs = refinement * qnum(n + 1) * gf_comaj(staircase)
    assert lhs == rhs


def test_staircase_refinement_identity():
    """qbinom(k+1, 2) - [k]_(q^2) = q * qbinom(k, 2)."""
    for k in (2, 3, 4, 5):
        assert qbinom(k + 1, 2) - qnum(k).substitute(2) == qbinom(k, 2).shift(1)


# ---------------------------------------------------------------------------
# tableau text format


def test_format_parse_roundtrip():
    for poset in [RECT22, STAIRCASE3, build_shape((3, 1))]:
        for ext in enumerate_linear_extensions(poset):
            assert parse_tableau(format_tableau(ext), poset) == ext
        for bsv in itertools.islice(enumerate_bsv(poset), 10):
            assert parse_tableau(format_tableau(bsv), poset) == bsv


def test_format_golden():
    bsv = parse_tableau("1,3\n2,4|5", RECT22)
    assert format_tableau(bsv) == "1,3\n2,4|5"
    assert bsv.p_star == 3 and bsv.i_star == 5


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_tableau("1,2\n3,4\n5", RECT22)
    with pytest.raises(ValueError):
        parse_tableau("1,2,3\n4,5", RECT22)
    with pytest.raises(ValueError):
        parse_tableau("1,2|3\n4|5,6", RECT22)
    with pytest.raises(UnsupportedPoset):
        parse_tableau("1,2,3,4,5", build_propeller(2))


def test_parse_rejects_cells_of_more_than_two_values():
    # with no doubled cell, a cell of three values once parsed as its smallest
    with pytest.raises(ValueError, match=r"^cell '1\|8\|9' holds more than two values$"):
        parse_tableau("1|8|9,2\n3,4", RECT22)
    with pytest.raises(ValueError, match=r"^cell '1\|2\|3' holds more than two values$"):
        parse_tableau("1|2|3,4|5\n6,7", RECT22)
    with pytest.raises(ValueError, match="^cells must be sorted 1- or 2-element sets$"):
        parse_tableau("1|1,2\n3,4", RECT22)
