"""Dyck/Motzkin path bijections, q-Catalan identities, and counting checks."""

from collections import Counter

import pytest

from qtab.extensions import (
    LinearExtension,
    comaj_plus,
    descents,
    enumerate_bsv,
    enumerate_linear_extensions,
    gf_bsv,
    gf_comaj,
    parse_tableau,
    r_star,
)
from qtab.paths import (
    DyckPath,
    RbMotzkinPath,
    TwoRowSetValued,
    bsv_from_motzkin,
    catalan_number,
    catalan_sum_check,
    dyck_from_syt,
    enumerate_dyck,
    enumerate_rbmotz,
    enumerate_two_row_set_valued,
    format_path,
    gf_comaj_dyck,
    motzkin_from_bsv,
    motzkin_from_set_valued,
    narayana_check,
    parse_dyck,
    parse_rbmotz,
    q_catalan,
    rbmotz_counts,
    set_valued_from_motzkin,
    syt_from_dyck,
    two_row_tally,
    verify_cor_dyck_gen_fun,
)
from qtab.posets import UnsupportedPoset, build_rectangle, build_shape
from qtab.qpoly import QPoly, QTPoly, qbinom, qnum, qt_num


def _cor_lhs(b: int) -> QTPoly:
    """q^comaj+1 t^color over the width-b paths with one horizontal step."""
    acc: dict[tuple[int, int], int] = {}
    for path in enumerate_rbmotz(2 * b + 1, k=1):
        key = (path.comaj_plus(), path.blue_count())
        acc[key] = acc.get(key, 0) + 1
    return QTPoly.of(acc)


# ---------------------------------------------------------------------------
# Dyck paths


def test_dyck_goldens():
    poset = build_rectangle(2, 2)
    table = [
        ((1, 2, 3, 4), "UUDD", frozenset(), 0),
        ((1, 3, 2, 4), "UDUD", frozenset({2}), 2),
    ]
    for values, text, valleys, comaj in table:
        path = dyck_from_syt(LinearExtension(poset, values))
        assert format_path(path) == text
        assert path.valleys() == valleys
        assert path.comaj() == comaj
    chain = build_rectangle(2, 1)
    assert format_path(dyck_from_syt(LinearExtension(chain, (1, 2)))) == "UD"


def test_dyck_validation():
    with pytest.raises(ValueError):
        DyckPath(("U",))
    with pytest.raises(ValueError):
        DyckPath(("D", "U"))
    with pytest.raises(ValueError):
        DyckPath(("U", "X"))
    assert parse_dyck("UUDD").steps == ("U", "U", "D", "D")
    assert format_path(parse_dyck("UDUD")) == "UDUD"


def test_dyck_path_rejects_horizontal_steps():
    # Both are restricted Motzkin paths, the class DyckPath extends.
    for steps in (("U", "Hr", "D"), ("U", "D", "Hb")):
        RbMotzkinPath(steps)
        with pytest.raises(ValueError):
            DyckPath(steps)


def test_dyck_enumeration_is_lex_order():
    assert [format_path(p) for p in enumerate_dyck(3)] == [
        "UUUDDD", "UUDUDD", "UUDDUD", "UDUUDD", "UDUDUD"
    ]
    assert list(enumerate_dyck(0)) == [DyckPath(())]


@pytest.mark.parametrize("b", range(5))
def test_dyck_count(b):
    paths = list(enumerate_dyck(b))
    assert len(paths) == len(set(paths)) == catalan_number(b)


@pytest.mark.parametrize("b", range(1, 5))
def test_dyck_syt_bijection(b):
    poset = build_rectangle(2, b)
    images = set()
    for ext in enumerate_linear_extensions(poset):
        path = dyck_from_syt(ext)
        assert syt_from_dyck(path) == ext
        images.add(path)
    assert images == set(enumerate_dyck(b))


@pytest.mark.parametrize("b", range(1, 6))
def test_valleys_match_descents(b):
    for ext in enumerate_linear_extensions(build_rectangle(2, b)):
        assert dyck_from_syt(ext).valleys() == descents(ext)


def test_wrong_shape():
    hook = build_shape((2, 1))
    with pytest.raises(UnsupportedPoset):
        dyck_from_syt(LinearExtension(hook, (1, 2, 3)))
    with pytest.raises(UnsupportedPoset):
        dyck_from_syt(next(enumerate_linear_extensions(build_rectangle(3, 2))))
    with pytest.raises(UnsupportedPoset):
        motzkin_from_bsv(next(enumerate_bsv(hook)))


def test_gf_comaj_dyck_goldens():
    assert gf_comaj_dyck(2) == QPoly.of([1, 0, 1])
    assert gf_comaj_dyck(0) == QPoly.of([1])
    assert gf_comaj_dyck(3) == qbinom(6, 3).exact_div(qnum(4))


@pytest.mark.parametrize("b", range(6))
def test_gf_comaj_dyck_is_q_catalan(b):
    assert gf_comaj_dyck(b) == q_catalan(b)


@pytest.mark.parametrize("b", range(1, 5))
def test_gf_comaj_dyck_matches_tableaux(b):
    assert gf_comaj_dyck(b) == gf_comaj(build_rectangle(2, b))


# ---------------------------------------------------------------------------
# restricted bicolored Motzkin paths


def test_rbmotz_validation():
    assert RbMotzkinPath(("U", "Hr", "D")).hor() == frozenset({2})
    assert RbMotzkinPath(("U", "D", "Hb")).blue_count() == 1
    with pytest.raises(ValueError):
        RbMotzkinPath(("U", "Hb", "D"))  # blue strictly before the first D
    with pytest.raises(ValueError):
        RbMotzkinPath(("Hr",))  # red at height zero
    with pytest.raises(ValueError):
        RbMotzkinPath(("Hb",))  # no down step at all
    with pytest.raises(ValueError):
        RbMotzkinPath(("U", "D", "Hr"))
    with pytest.raises(ValueError):
        RbMotzkinPath(("U", "U", "D"))
    assert format_path(parse_rbmotz("UHrDUUDD")) == "UHrDUUDD"


def test_rbmotz_count_goldens():
    assert sum(1 for _ in enumerate_rbmotz(2)) == 1
    assert sum(1 for _ in enumerate_rbmotz(4)) == 5
    assert sum(1 for _ in enumerate_rbmotz(5, k=1)) == 10
    assert set(enumerate_rbmotz(3)) == {
        parse_rbmotz("UHrD"),
        parse_rbmotz("UDHb"),
    }


def _recursive_rbmotz(length, k=None):
    """The recursive enumerator the explicit-stack walk replaced: the
    reference for its order."""
    steps: list[str] = []

    def rec(height, seen_down, hcount):
        remaining = length - len(steps)
        if height > remaining:
            return
        if k is not None and (hcount > k or hcount + remaining < k):
            return
        if not remaining:
            yield RbMotzkinPath(tuple(steps))
            return
        steps.append("U")
        yield from rec(height + 1, seen_down, hcount)
        steps.pop()
        if height > 0:
            steps.append("D")
            yield from rec(height - 1, True, hcount)
            steps.pop()
            steps.append("Hr")
            yield from rec(height, seen_down, hcount + 1)
            steps.pop()
        if seen_down:
            steps.append("Hb")
            yield from rec(height, seen_down, hcount + 1)
            steps.pop()

    return rec(0, False, 0)


def test_rbmotz_order_matches_the_recursive_walk():
    total = 0
    for length in range(11):
        for k in (None, 0, 1, 2, 3):
            paths = list(enumerate_rbmotz(length, k))
            assert paths == list(_recursive_rbmotz(length, k))
            total += len(paths)
    assert total == 9506


@pytest.mark.parametrize("length", range(2, 11))
def test_rbmotz_catalan_count(length):
    # a single step cannot both leave and return to the axis, so the
    # Catalan pattern starts at length 2
    paths = list(enumerate_rbmotz(length))
    assert len(paths) == len(set(paths)) == catalan_number(length - 1)


# ---------------------------------------------------------------------------
# tableau <-> Motzkin bijection


def test_motzkin_goldens():
    poset = build_rectangle(2, 3)
    left = parse_tableau("1|2,4,5\n3,6,7", poset)
    path = motzkin_from_bsv(left)
    assert format_path(path) == "UHrDUUDD"
    assert path.hor() == frozenset({2})
    assert path.valleys() == frozenset({3})
    assert path.comaj_plus() == 9 == comaj_plus(left)
    assert path.blue_count() == 0 == r_star(left) - 1
    assert bsv_from_motzkin(path) == left

    right = parse_tableau("1,4,5\n2|3,6,7", poset)
    rpath = motzkin_from_bsv(right)
    assert format_path(rpath) == "UDHbUUDD"
    assert rpath.hor() == frozenset({3})
    assert rpath.valleys() == frozenset()
    assert rpath.comaj_plus() == 4 == comaj_plus(right)
    assert rpath.blue_count() == 1 == r_star(right) - 1
    assert bsv_from_motzkin(rpath) == right


@pytest.mark.parametrize("b", range(1, 4))
def test_motzkin_roundtrip(b):
    poset = build_rectangle(2, b)
    images = set()
    for bsv in enumerate_bsv(poset):
        path = motzkin_from_bsv(bsv)
        assert len(path.steps) == 2 * b + 1
        assert path.horizontal_count == 1
        assert bsv_from_motzkin(path) == bsv
        assert path.comaj_plus() == comaj_plus(bsv)
        assert path.blue_count() == r_star(bsv) - 1
        images.add(path)
    assert images == set(enumerate_rbmotz(2 * b + 1, k=1))


def test_bsv_from_motzkin_errors():
    with pytest.raises(ValueError):
        bsv_from_motzkin(parse_rbmotz("UD"))
    with pytest.raises(ValueError):
        bsv_from_motzkin(parse_rbmotz("UHrDHb"))


# ---------------------------------------------------------------------------
# two-row set-valued tableaux


def test_two_row_set_valued_validation():
    tab = TwoRowSetValued((((1, 2), (4,)), ((3,), (5,))))
    assert tab.width == 2
    assert tab.extras == 1
    assert tab.top_entry_count == 3
    with pytest.raises(ValueError):
        TwoRowSetValued((((1,),), ((2,), (3,))))  # unequal rows
    with pytest.raises(ValueError):
        TwoRowSetValued((((1, 3), (2,)), ((4,), (5,))))  # row decrease
    with pytest.raises(ValueError):
        TwoRowSetValued((((2,),), ((1,),)))  # column decrease
    with pytest.raises(ValueError):
        TwoRowSetValued((((1,), (1,)), ((2,), (3,))))  # reused entry
    with pytest.raises(ValueError):
        TwoRowSetValued((((), (1,)), ((2,), (3,))))  # empty cell


@pytest.mark.parametrize("b", range(1, 5))
def test_set_valued_no_extras_is_syt(b):
    tableaux = list(enumerate_two_row_set_valued(b, 0))
    assert len(tableaux) == catalan_number(b)
    assert all(t.extras == 0 for t in tableaux)


@pytest.mark.parametrize("b", range(1, 4))
def test_set_valued_one_extra_matches_bsv(b):
    poset = build_rectangle(2, b)

    def rows_of(bsv):
        cells = {poset.coords[e]: bsv.entries[e] for e in range(poset.n)}
        return tuple(
            tuple(cells[(r, c)] for c in range(1, b + 1)) for r in (1, 2)
        )

    direct = set(enumerate_two_row_set_valued(b, 1))
    assert {TwoRowSetValued(rows_of(s)) for s in enumerate_bsv(poset)} == direct


@pytest.mark.parametrize(
    "b,k", [(b, k) for b in range(1, 4) for k in range(0, 9 - 2 * b)]
)
def test_set_valued_path_bijection(b, k):
    tableaux = list(enumerate_two_row_set_valued(b, k))
    paths = list(enumerate_rbmotz(2 * b + k, k=k))
    assert len(tableaux) == len(set(tableaux)) == len(paths)
    images = set()
    for tableau in tableaux:
        path = motzkin_from_set_valued(tableau)
        assert set_valued_from_motzkin(path) == tableau
        images.add(path)
    assert images == set(paths)


# ---------------------------------------------------------------------------
# generating-function and counting identities


def test_cor_dyck_gen_fun_b1_golden():
    paths = list(enumerate_rbmotz(3, k=1))
    assert len(paths) == 2
    assert _cor_lhs(1) == qt_num(2)  # t + q


def test_cor_dyck_gen_fun_b2_golden():
    lhs = _cor_lhs(2) * qnum(4)
    rhs = qt_num(2) * qnum(2) * qnum(5) * QPoly.of([1, 0, 1])
    assert lhs == rhs


@pytest.mark.parametrize("b", range(1, 5))
def test_cor_dyck_gen_fun(b):
    assert verify_cor_dyck_gen_fun(b)


@pytest.mark.parametrize("b", range(1, 5))
def test_cor_matches_gf_bsv(b):
    assert _cor_lhs(b) == gf_bsv(build_rectangle(2, b))


def test_catalan_sum_goldens():
    assert sum(1 for _ in enumerate_rbmotz(5)) == 14
    assert (
        sum(
            1
            for b in (1, 2)
            for _ in enumerate_two_row_set_valued(b, 5 - 2 * b)
        )
        == 14
    )
    assert sum(1 for _ in enumerate_rbmotz(7)) == 132


@pytest.mark.parametrize("length", range(2, 11))
def test_rbmotz_counts_match_the_walk_per_horizontal_count(length):
    counts = rbmotz_counts(length)
    assert sum(counts.values()) == catalan_number(length - 1)
    for k in range(length + 1):
        assert counts[k] == sum(1 for _ in enumerate_rbmotz(length, k=k))


@pytest.mark.parametrize("length", range(2, 9))
def test_catalan_sum_check(length):
    tally, paths = two_row_tally(length), rbmotz_counts(length)
    assert catalan_sum_check(length, tally, paths)
    # an extra path with the widest width's k fails the per-width match; one
    # with a k of the wrong parity, which no width uses, fails the direct total
    assert not catalan_sum_check(length, tally, paths + Counter({length % 2: 1}))
    assert not catalan_sum_check(length, tally, paths + Counter({length % 2 + 1: 1}))


def test_narayana_golden():
    counts = Counter(
        t.top_entry_count
        for b in (1, 2)
        for t in enumerate_two_row_set_valued(b, 4 - 2 * b)
    )
    assert counts == {1: 1, 2: 3, 3: 1}


@pytest.mark.parametrize("length", range(2, 9))
def test_narayana_check(length):
    assert narayana_check(length, two_row_tally(length))


@pytest.mark.parametrize("b", range(1, 7))
def test_rbmotz_one_horizontal_count(b):
    count = sum(1 for _ in enumerate_rbmotz(2 * b + 1, k=1))
    assert count * (b + 2) == 2 * b * (2 * b + 1) * catalan_number(b)
