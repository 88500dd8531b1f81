"""Tests for exact q-polynomial arithmetic, gcd, rational functions, solver."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import (
    balanced_divmod_digits,
    densify,
    hadamard_eliminate,
    naturally_labeled_posets,
    partition_strategy,
    strict_partition_strategy,
)
from qtab import qpoly, solver
from qtab.distributions import Statistic, _maximal_count, statistic_ddeg, statistic_toggle
from qtab.kronecker import step_above
from qtab.posets import Poset, build_rectangle, build_shape, build_shifted, order_ideals
from qtab.qpoly import (
    ONE,
    Q,
    RAT_ZERO,
    ZERO,
    DimensionMismatch,
    DivisionByZero,
    InexactDivision,
    QAlgebraError,
    QPoly,
    QTPoly,
    RatFunc,
    ResidualMismatch,
    check_solution,
    coeff_vector,
    format_poly,
    format_qt_poly,
    parse_poly,
    parse_qt_poly,
    poly_gcd,
    qbinom,
    qfact,
    qnum,
    qt_coeff_vector,
    qt_num,
    solve_linear_system,
)
from qtab.solver import _toggle_solve_all, build_system, toggle_solve

polys = st.lists(st.integers(-9, 9), max_size=6).map(QPoly.of)
nonzero_polys = polys.filter(bool)
points = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 9)
).filter(lambda x: x != 0)


# ---------------------------------------------------------------------------
# q-numbers


def test_qnum_golden():
    assert qnum(0) == ZERO
    assert qnum(1) == ONE
    assert qnum(4) == QPoly.of([1, 1, 1, 1])
    assert qnum(3).substitute(2) == QPoly.of([1, 0, 1, 0, 1])


def test_qfact_golden():
    assert qfact(0) == ONE
    assert qfact(3) == QPoly.of([1, 2, 2, 1])


def test_qbinom_golden():
    assert qbinom(4, 2) == QPoly.of([1, 1, 2, 1, 1])
    assert qbinom(3, 5) == ZERO
    assert qbinom(3, -1) == ZERO
    assert qbinom(5, 0) == ONE


@given(st.integers(0, 12), st.integers(0, 12))
def test_qbinom_counts_at_one(n, k):
    assert qbinom(n, k).evaluate(1) == (math.comb(n, k) if k <= n else 0)


@given(st.integers(1, 10), st.integers(0, 10))
def test_qbinom_pascal(n, k):
    recurrence = qbinom(n - 1, k - 1) + QPoly.monomial(1, k) * qbinom(n - 1, k)
    assert qbinom(n, k) == recurrence


@given(st.integers(0, 10), st.integers(0, 10))
def test_qbinom_palindromic(n, k):
    p = qbinom(n, k)
    if p:
        assert p.reverse() == p


@given(st.integers(0, 30), st.integers(0, 30))
def test_qbinom_matches_the_factorial_formula(n, k):
    # the oracle is the quotient of q-factorials qbinom was first defined by
    expected = qfact(n).exact_div(qfact(k) * qfact(n - k)) if k <= n else ZERO
    assert qbinom(n, k) == expected


@given(st.integers(1, 30))
def test_qfact_steps_by_one_q_integer(n):
    assert qfact(n) == qfact(n - 1) * qnum(n)
    assert qfact(n).evaluate(1) == math.factorial(n)


def test_qbinom_of_a_large_n_needs_no_large_factorial():
    # [800 choose 2] through [800]! took minutes and passed the recursion limit
    p = qbinom(800, 2)
    assert p.evaluate(1) == math.comb(800, 2)
    assert p.degree == 1596


# ---------------------------------------------------------------------------
# QPoly arithmetic


@given(polys, polys, polys)
def test_ring_identities(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    assert a * ONE == a


@given(polys, nonzero_polys)
def test_exact_div_roundtrip(a, b):
    assert (a * b).exact_div(b) == a


def test_exact_div_failures():
    with pytest.raises(InexactDivision):
        (Q + ONE).exact_div(Q)
    with pytest.raises(InexactDivision):
        QPoly.of([0, 2]).exact_div(QPoly.of([0, 0, 1]))
    with pytest.raises(DivisionByZero):
        ONE.exact_div(ZERO)


@given(polys, polys, points)
def test_evaluate_is_ring_homomorphism(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


@given(polys, polys, st.integers(1, 4))
def test_substitute_is_ring_homomorphism(a, b, r):
    assert (a * b).substitute(r) == a.substitute(r) * b.substitute(r)
    assert (a + b).substitute(r) == a.substitute(r) + b.substitute(r)


@given(nonzero_polys, st.integers(0, 3))
def test_reverse_involution(p, pad):
    d = p.degree + pad
    assert p.reverse(d).reverse(d) == p


def test_reverse_golden():
    assert QPoly.of([1, 2, 0, 5]).reverse() == QPoly.of([5, 0, 2, 1])
    assert Q.reverse(3) == QPoly.of([0, 0, 1])


def test_power_and_shift():
    assert (Q + ONE) ** 3 == QPoly.of([1, 3, 3, 1])
    assert qnum(2).shift(2) == QPoly.of([0, 0, 1, 1])
    assert ZERO.shift(3) == ZERO


# ---------------------------------------------------------------------------
# text format


def test_format_golden():
    assert format_poly(QPoly.of([1, 2, 1])) == "1 + 2*q + q^2"
    assert format_poly(ZERO) == "0"
    assert format_poly(QPoly.of([0, -1, 0, 3])) == "-q + 3*q^3"


def test_parse_accepts_variants():
    expected = QPoly.of([1, 2, 2, 1])
    assert parse_poly("1 + 2*q + 2*q^2 + q^3") == expected
    assert parse_poly("1 + 2q + 2q^2 + q^3") == expected
    assert parse_poly("1+2q+2q**2+q**3") == expected
    assert parse_poly("0") == ZERO
    assert parse_poly("q - q") == ZERO


@given(polys)
def test_parse_format_roundtrip(p):
    assert parse_poly(format_poly(p)) == p


def test_coeff_vector():
    assert coeff_vector(QPoly.of([1, 0, 5])) == [1, 0, 5]
    assert coeff_vector(ZERO) == []


# ---------------------------------------------------------------------------
# QTPoly


def test_qt_num_golden():
    assert qt_num(1) == QTPoly.of({(0, 0): 1})
    assert qt_num(2) == QTPoly.of({(0, 1): 1, (1, 0): 1})
    assert qt_num(3).at_t1() == qnum(3)


@given(st.integers(0, 8))
def test_qt_num_specializes_to_qnum(k):
    assert qt_num(k).at_t1() == qnum(k)


def test_qt_arithmetic():
    t = QTPoly.of({(0, 1): 1})
    p = (t + qnum(2)) * (t + qnum(2))
    assert p.coefficient_of_t(2) == ONE
    assert p.coefficient_of_t(1) == QPoly.of([2, 2])
    assert p.coefficient_of_t(0) == qnum(2) * qnum(2)
    assert p.at_t1() == (qnum(2) + ONE) * (qnum(2) + ONE)
    assert p.t_degree == 2
    assert (p - p).t_degree == -1


qt_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=6,
).map(QTPoly.of)


@given(qt_polys)
def test_qt_parse_format_roundtrip(p):
    assert parse_qt_poly(format_qt_poly(p)) == p


def test_qt_format_golden():
    p = QTPoly.of({(1, 0): 1, (1, 1): 2, (0, 2): 1})
    assert format_qt_poly(p) == "q + 2*q*t + t^2"
    assert qt_coeff_vector(p) == [[1, 0, 1], [1, 1, 2], [0, 2, 1]]


@given(qt_polys, qt_polys)
def test_qt_t1_is_ring_homomorphism(a, b):
    assert (a * b).at_t1() == a.at_t1() * b.at_t1()
    assert (a + b).at_t1() == a.at_t1() + b.at_t1()


def qt_map(x) -> dict[tuple[int, int], int]:
    """{(q_exp, t_exp): coeff} of a QTPoly, QPoly or int, zeros kept out."""
    if isinstance(x, QTPoly):
        return {(qe, te): c for qe, te, c in x.terms}
    if isinstance(x, QPoly):
        return {(e, 0): c for e, c in enumerate(x.coeffs) if c}
    return {(0, 0): x} if x else {}


def map_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return out


def map_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (qa, ta), ca in a.items():
        for (qb, tb), cb in b.items():
            key = (qa + qb, ta + tb)
            out[key] = out.get(key, 0) + ca * cb
    return out


qt_operands = st.one_of(qt_polys, polys, st.integers(-9, 9))


@given(qt_polys, qt_operands)
def test_qt_arithmetic_matches_dict_convolution(a, b):
    ma, mb = qt_map(a), qt_map(b)
    assert a + b == b + a == QTPoly.of(map_add(ma, mb))
    assert a - b == QTPoly.of(map_add(ma, mb, -1))
    assert b - a == QTPoly.of(map_add(mb, ma, -1))
    assert a * b == b * a == QTPoly.of(map_mul(ma, mb))


@given(qt_polys)
def test_qt_rows_agree_with_terms(p):
    assert QTPoly.of(qt_map(p)) == p
    assert p.t_degree == max((te for _, te, _ in p.terms), default=-1)
    for te in range(-1, p.t_degree + 2):
        row = {qe: c for qe, t, c in p.terms if t == te}
        assert p.coefficient_of_t(te) == QPoly.of(row.get(e, 0) for e in range(max(row, default=-1) + 1))


def test_qt_canonical_form():
    p = QTPoly.of({(1, 0): 2, (0, 3): 0, (2, 1): 0, (0, 1): 5})
    assert p.terms == ((1, 0, 2), (0, 1, 5))
    assert p.t_degree == 1
    assert QTPoly.of({(0, 0): 0}) == QTPoly.of({}) and not QTPoly.of({(4, 2): 0})
    assert p - p == QTPoly.of({})
    assert (p - p).terms == ()
    assert QTPoly.from_qpoly(QPoly.of([0, 3, 0, -1]), 2).terms == ((1, 2, 3), (3, 2, -1))
    assert QTPoly.from_qpoly(ZERO, 2) == QTPoly.of({})
    same = QTPoly.of({(0, 1): 5, (1, 0): 2})
    assert same == p and hash(same) == hash(p)
    assert hash(p * p) == hash(QTPoly.of(map_mul(qt_map(p), qt_map(p))))
    assert p.coefficient_of_t(-1) == ZERO and p.coefficient_of_t(5) == ZERO


def naive_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out if a and b else []


coefficient_lists = st.lists(st.integers(-50, 50), max_size=12)


@given(coefficient_lists, coefficient_lists)
def test_list_kernel_mul_matches_double_loop(a, b):
    assert qpoly._mul(a, b) == naive_mul(a, b)
    assert qpoly._mul(tuple(a), tuple(b)) == naive_mul(a, b)


@given(coefficient_lists, coefficient_lists)
def test_list_kernel_add_is_elementwise_sum(a, b):
    acc = list(a)
    qpoly._add(acc, b)
    want = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        want[i] += x
    for j, y in enumerate(b):
        want[j] += y
    assert acc == want


# ---------------------------------------------------------------------------
# gcd and RatFunc


def test_gcd_golden():
    assert poly_gcd(QPoly.of([-1, 0, 1]), QPoly.of([-1, 1])) == QPoly.of([-1, 1])
    assert poly_gcd(2 * qnum(2), 4 * (qnum(2) * qnum(2))) == 2 * qnum(2)
    assert poly_gcd(ZERO, QPoly.of([0, -2])) == QPoly.of([0, 2])
    assert poly_gcd(qnum(4), qnum(6)) == qnum(2)
    # constants, content alone (1 + q and 1 + q^2 are coprime) and content
    # with a factor, and negative leading coefficients
    assert poly_gcd(QPoly.of([6]), QPoly.of([-4])) == QPoly.of([2])
    assert poly_gcd(QPoly.of([6]), QPoly.of([4, 4])) == QPoly.of([2])
    assert poly_gcd(QPoly.of([6, 6]), QPoly.of([4, 0, 4])) == QPoly.of([2])
    assert poly_gcd(QPoly.of([-6, -6]), QPoly.of([-4, 0, -4])) == QPoly.of([2])
    assert poly_gcd(QPoly.of([6, 6]), QPoly.of([4, 4])) == QPoly.of([2, 2])


@given(polys, polys, nonzero_polys)
def test_gcd_divides_common_multiples(a, b, c):
    g = poly_gcd(a * c, b * c)
    if a or b:
        (a * c).exact_div(g)
        (b * c).exact_div(g)
        g.exact_div(poly_gcd(c, g))  # c divides the gcd


def _pseudo_rem(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b, computed without fractions."""
    rem = list(a.coeffs)
    db, lead = b.degree, b.lc
    for k in range(a.degree - db, -1, -1):
        top = rem[db + k]
        rem = [lead * x for x in rem]
        if top:
            for e, c in enumerate(b.coeffs):
                rem[e + k] -= top * c
    return QPoly.of(rem[:db] if len(rem) > db else rem)


def _subresultant_gcd(a, b):
    """The oracle for ``poly_gcd``: the subresultant pseudo-remainder
    sequence, whose divisions are exact by the subresultant theorem."""
    if not a:
        return qpoly._primitive(b) * b.content() if b else ZERO
    if not b:
        return qpoly._primitive(a) * a.content()
    c = math.gcd(a.content(), b.content())
    fa, fb = qpoly._primitive(a), qpoly._primitive(b)
    if fa.degree < fb.degree:
        fa, fb = fb, fa
    g = h = 1
    while True:
        d = fa.degree - fb.degree
        rem = _pseudo_rem(fa, fb)
        if not rem:
            return qpoly._primitive(fb) * c
        if rem.degree == 0:
            return QPoly((c,))
        scale = g * h**d
        assert not any(x % scale for x in rem.coeffs)
        fa, fb = fb, QPoly.of(x // scale for x in rem.coeffs)
        g = fa.lc
        if d > 0:
            assert g**d % h ** (d - 1) == 0
            h = g**d // h ** (d - 1)


def _first_point(a, b):
    """The first point x = 2^(8*step) > 2 min(|a|_inf, |b|_inf) + 1 of the
    heuristic gcd."""
    bound = min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs)))
    return 1 << 8 * step_above(2 * bound + 1)


def _candidate(a, b, x):
    """The primitive part of the balanced base-x digits of gcd(a(x), b(x)):
    the heuristic gcd's candidate at x."""
    value = math.gcd(a.evaluate(x), b.evaluate(x))
    return qpoly._primitive(QPoly.of(balanced_divmod_digits(value, x.bit_length() - 1)))


def _assert_canonical(r, num, den):
    """r is num / den in canonical form: reduced, content-free, den.lc > 0."""
    assert r.num * den == r.den * num
    assert r.den.lc > 0
    if r.num:
        assert _subresultant_gcd(r.num, r.den) == ONE
    else:
        assert r.den == ONE


wide_polys = st.lists(st.integers(-(10**6), 10**6), max_size=5).map(QPoly.of)


@settings(max_examples=200, deadline=None)
@given(st.one_of(polys, wide_polys), st.one_of(polys, wide_polys), st.one_of(polys, wide_polys))
# content only: 1 + q and 1 + q^2 are coprime, so the gcd is 2
@example(QPoly.of([6, 6]), QPoly.of([4, 0, 4]), ONE)
# content and a factor: both are multiples of 2 + 2q
@example(QPoly.of([6, 6]), QPoly.of([4, 4]), ONE)
# constants and negative leading coefficients
@example(QPoly.of([6]), QPoly.of([-4, -4]), QPoly.of([-3]))
@example(QPoly.of([1, -1]), QPoly.of([-1, 0, 1]), QPoly.of([2, -5]))
# the shared factor q - t has its root t at or next to a power of two
@example(QPoly.of([-7, 1]), QPoly.of([-8, 1]), QPoly.of([-9, 1]))
@example(QPoly.of([1, 1]), QPoly.of([-15, 0, 1]), QPoly.of([-16, 1]))
@example(QPoly.of([1, 1]), QPoly.of([-255, 0, 1]), QPoly.of([-256, 1]))
def test_gcd_matches_the_subresultant_route(a, b, c):
    for x, y in ((a, b), (a * c, b * c), (-(a * c), b * c)):
        assert poly_gcd(x, y) == _subresultant_gcd(x, y)
        if y:
            _assert_canonical(RatFunc(x, y), x, y)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("shared", [True, False])
def test_gcd_with_a_root_at_the_test_point(delta, shared):
    # b = (q + 1)(q + 2) has the smaller norm, 3, so the first point is
    # x = 2^8.  a = (q - 256 - delta) times (q + 1) or (q + 3): at delta = 0
    # a vanishes at x, the values have gcd b(x), the candidate b does not
    # divide a, and the loop retries at 2^16.
    b = QPoly.of([2, 3, 1])
    x = 256
    a = QPoly.of([-(x + delta), 1]) * QPoly.of([1 if shared else 3, 1])
    assert _first_point(a, b) == x
    if delta == 0:
        assert _candidate(a, b, x) == b
    want = QPoly.of([1, 1]) if shared else ONE
    assert poly_gcd(a, b) == poly_gcd(b, a) == want
    assert _subresultant_gcd(a, b) == want
    _assert_canonical(RatFunc(a, b), a, b)
    _assert_canonical(RatFunc(-b, a), -b, a)


@pytest.mark.parametrize(
    "t", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257]
)
def test_gcd_finds_a_shared_root_near_a_power_of_two(t):
    # (q - t)(q + 1) against (q - t)(q^2 + 2): the values at every point
    # share the factor x - t > 1.
    shared = QPoly.of([-t, 1])
    a, b = shared * QPoly.of([1, 1]), shared * QPoly.of([2, 0, 1])
    x = _first_point(a, b)
    assert math.gcd(a.evaluate(x), b.evaluate(x)) > 1
    assert poly_gcd(a, b) == poly_gcd(-a, b) == shared
    r = RatFunc(a, -b)
    _assert_canonical(r, a, -b)
    assert (r.num, r.den) == (QPoly.of([-1, -1]), QPoly.of([2, 0, 1]))


@pytest.mark.parametrize(
    "a, b, first",
    [
        # at 2^8 the values share 148, read back as -108 + q
        (QPoly.of([188, 1]), QPoly.of([12, 122, -66, 15, 3]), QPoly.of([-108, 1])),
        # at 2^8 the values share 501, read back as -11 + 2q
        (QPoly.of([-1, -3, 2, 2]), QPoly.of([-2, -2, -3, 1]), QPoly.of([-11, 2])),
    ],
)
def test_gcd_retries_at_a_wider_point(a, b, first):
    # the first candidate divides neither input; at 2^16 the candidate is 1
    x = _first_point(a, b)
    assert x == 256
    assert _candidate(a, b, x) == first
    for p in (a, b):
        with pytest.raises(InexactDivision):
            p.exact_div(first)
    assert _candidate(a, b, x * x) == ONE
    assert poly_gcd(a, b) == poly_gcd(b, a) == _subresultant_gcd(a, b) == ONE


def test_gcd_point_is_above_twice_the_norm():
    # (q - 129)(q + 1) against (q - 129)(q + 2): M = 129 puts the first point
    # at 2^16.  At 2^8 > M + 3 the values would share only 127 = 256 - 129,
    # and the loop would answer 1.
    a, b = QPoly.of([-129, -128, 1]), QPoly.of([-258, -127, 1])
    assert _first_point(a, b) == 1 << 16
    assert _candidate(a, b, 256) == ONE
    assert poly_gcd(a, b) == poly_gcd(b, a) == QPoly.of([-129, 1])


def test_gcd_matches_the_oracle_at_high_degree():
    # [40 choose 20] (degree 400) against [40 choose 10] * [21] (degree 320)
    a, b = qbinom(40, 20), qbinom(40, 10) * qnum(21)
    assert (a.degree, b.degree) == (400, 320)
    g = poly_gcd(a, b)
    assert g == _subresultant_gcd(a, b)
    assert g.degree > 0


def test_gcd_loop_stops_at_its_termination_bound(monkeypatch):
    # Every candidate read back as 1 + q + q^2 divides neither 1 + q nor
    # 2 + q.  Their bound is B = 1 + 1 + 1*(1 + 2) + 1*(1 + 2) + 1 + 2 = 11
    # bits (contents, the two resultant factors, |G|_inf), so the loop tries
    # x = 2^8 and x = 2^16 > 2^12 and raises.  A loop without the bound
    # would square x until memory runs out; the pack spy stops it after 16
    # packs, at x = 2^1024, as each further square doubles every packed int.
    monkeypatch.setattr(qpoly, "balanced", lambda value, step: [1, 1, 1])
    steps = []
    pack = qpoly.pack

    def spy(coeffs, step):
        steps.append(step)
        if len(steps) > 16:
            raise RuntimeError("poly_gcd squared x 8 times")
        return pack(coeffs, step)

    monkeypatch.setattr(qpoly, "pack", spy)
    with pytest.raises(QAlgebraError, match="termination bound"):
        poly_gcd(QPoly.of([1, 1]), QPoly.of([2, 1]))
    assert steps == [1, 1, 2, 2]


def test_ratfunc_canonical():
    assert RatFunc(QPoly.of([-1, 0, 1]), QPoly.of([-1, 1])) == RatFunc(QPoly.of([1, 1]))
    assert RatFunc(qnum(2) * qnum(2), qnum(4)) == RatFunc(qnum(2), QPoly.of([1, 0, 1]))
    assert RatFunc(2 * ONE, 4 * ONE) == RatFunc(ONE, 2 * ONE)
    assert RatFunc(ZERO, qnum(5)) == RAT_ZERO
    r = RatFunc(QPoly.of([6, 6]), QPoly.of([4, 0, 4]))
    assert (r.num, r.den) == (QPoly.of([3, 3]), QPoly.of([2, 0, 2]))
    r = RatFunc(QPoly.of([6, 6]), QPoly.of([-4, -4]))
    assert (r.num, r.den) == (QPoly.of([-3]), QPoly.of([2]))
    with pytest.raises(DivisionByZero):
        RatFunc(ONE, ZERO)


def test_ratfunc_negative_denominator_normalized():
    assert RatFunc(ONE, -qnum(2)) == RatFunc(-ONE, qnum(2))
    assert RatFunc(ONE, -qnum(2)).den.lc > 0


def test_ratfunc_equality_and_hash_agree():
    two = RatFunc.from_int(2)
    assert two == 2 and hash(two) == hash(2) and len({two, 2}) == 1
    assert RAT_ZERO == 0 and hash(RAT_ZERO) == hash(0)
    assert RatFunc(ONE, qnum(2)) != 1 and RatFunc(qnum(2)) != 2
    # a RatFunc never equals a QPoly, as 2 does not: == stays transitive
    assert two != QPoly.of([2]) and QPoly.of([2]) != 2
    assert RatFunc(qnum(2)) != qnum(2)


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_ratfunc_field_identities(an, ad, bn, bd):
    a, b = RatFunc(an, ad), RatFunc(bn, bd)
    assert a + b == b + a
    assert a - b == -(b - a)
    assert a * b == b * a
    if b:
        assert (a / b) * b == a


def test_ratfunc_evaluate():
    half = RatFunc(ONE, qnum(2))
    assert half.evaluate(1) == Fraction(1, 2)
    assert half.evaluate(Fraction(1, 2)) == Fraction(2, 3)


# ---------------------------------------------------------------------------
# linear solver


def test_solver_two_equation_golden():
    # c + c_p = 0 and c - q*c_p = 1 force c = 1/(1+q).
    res = solve_linear_system([[ONE, ONE], [ONE, -Q]], [ZERO, ONE])
    assert res.consistent
    assert res.solution[0] == RatFunc(ONE, qnum(2))
    assert res.solution[1] == RatFunc(-ONE, qnum(2))
    assert res.free_columns == ()


def test_solver_inconsistent_witness():
    res = solve_linear_system([[ONE], [ONE]], [ZERO, ONE])
    assert not res.consistent
    assert res.witness_row == 1
    assert res.solution is None


def test_solver_free_column_zeroed():
    res = solve_linear_system([[ONE, ZERO]], [Q])
    assert res.consistent
    assert res.solution == (RatFunc(Q), RAT_ZERO)
    assert res.free_columns == (1,)


def test_solver_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear_system([[ONE]], [ONE, ZERO])
    with pytest.raises(DimensionMismatch):
        solve_linear_system([[ONE], [ONE, Q]], [ZERO, ZERO])


@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=5),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
def test_solver_recovers_planted_solution(rows, x0):
    # The rhs is manufactured from a planted solution, so the system is
    # consistent by construction; singular matrices may solve differently,
    # hence the check is on residuals.
    matrix = [[QPoly.of([c]) for c in row] for row in rows]
    rhs = [QPoly.of([sum(rc * xc for rc, xc in zip(row, x0))]) for row in rows]
    res = solve_linear_system(matrix, rhs)
    assert res.consistent
    for row, want in zip(matrix, rhs):
        got = RAT_ZERO
        for entry, val in zip(row, res.solution):
            got = got + RatFunc(entry) * val
        assert got == RatFunc(want)


def test_solver_with_polynomial_entries():
    # (1+q) x + q y = 1 + 2q + q^2 ; x - y = 0 has x = y = [2]/(1+2q... ) check residual
    matrix = [[qnum(2), Q], [ONE, -ONE]]
    rhs = [QPoly.of([1, 2, 1]), ZERO]
    res = solve_linear_system(matrix, rhs)
    assert res.consistent
    x, y = res.solution
    assert x == y
    assert x == RatFunc(QPoly.of([1, 2, 1]), QPoly.of([1, 2]))


class Answer(NamedTuple):
    """What a solve answers, with the solution as reduced fractions."""

    consistent: bool
    solution: tuple[RatFunc, ...] | None
    free_columns: tuple[int, ...]
    witness_row: int | None


def _answer(result):
    """The ``Answer`` of a ``LinearSystemResult``, after checking that its
    reduced solution is its certified y_j / d, one column at a time."""
    if result.consistent:
        assert len(result.numerators) == len(result.solution)
        for y, x in zip(result.numerators, result.solution):
            assert RatFunc(y, result.denominator) == x
    else:
        assert (result.numerators, result.denominator, result.solution) == (None, None, None)
    return Answer(result.consistent, result.solution, result.free_columns, result.witness_row)


def _reference_solve(matrix, rhs):
    """The Bareiss elimination on QPoly cells that the packed solver replaced."""
    m = len(matrix)
    ncols = len(matrix[0]) if m else 0
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    origin = list(range(m))

    prev = ONE
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        origin[r], origin[pivot_row] = origin[pivot_row], origin[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            fi = rows[i][c]
            for j in range(c + 1, ncols + 1):
                rows[i][j] = (piv * rows[i][j] - fi * rows[r][j]).exact_div(prev)
            rows[i][c] = ZERO
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if rows[i][ncols]:
            return Answer(False, None, (), origin[i])

    xs = [RAT_ZERO] * ncols
    pivot_cols = {c for _, c in pivots}
    for pr, pc in reversed(pivots):
        acc = RatFunc(rows[pr][ncols])
        for j in range(pc + 1, ncols):
            if rows[pr][j] and xs[j]:
                acc = acc - RatFunc(rows[pr][j]) * xs[j]
        xs[pc] = acc / RatFunc(rows[pr][pc])
    free = tuple(c for c in range(ncols) if c not in pivot_cols)
    return Answer(True, tuple(xs), free, None)


def _matmul(a, b):
    """Product of two matrices of QPoly."""
    return [
        [sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a
    ]


def _poly_matrix(rows, cols, max_degree, bound):
    entry = st.one_of(
        st.just(ZERO),
        st.lists(st.integers(-bound, bound), max_size=max_degree + 1).map(QPoly.of),
    )
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def linear_systems(draw):
    """Tall (up to 12 x 5), square and wide systems of degree <= 4, of full
    or deficient rank, consistent by construction or with a free rhs."""
    shape = draw(st.sampled_from(["tall", "square", "wide"]))
    if shape == "tall":
        n = draw(st.integers(1, 5))
        m = draw(st.integers(n + 1, 12))
    elif shape == "square":
        m = n = draw(st.integers(1, 6))
    else:
        m = draw(st.integers(1, 5))
        n = draw(st.integers(m + 1, 7))
    if min(m, n) > 1 and draw(st.booleans()):
        # A product through an inner dimension below min(m, n) has that rank
        # at most; factors of degree <= 2 keep the entries at degree <= 4.
        inner = draw(st.integers(1, min(m, n) - 1))
        left = draw(_poly_matrix(m, inner, 2, 500))
        right = draw(_poly_matrix(inner, n, 2, 500))
        matrix = _matmul(left, right)
    else:
        matrix = draw(_poly_matrix(m, n, 4, 10**6))
    if draw(st.booleans()):
        planted = draw(_poly_matrix(n, 1, 2, 50))
        rhs = [row[0] for row in _matmul(matrix, planted)]
        if draw(st.booleans()):
            # Break one equation: inconsistent whenever that row is dependent.
            i = draw(st.integers(0, m - 1))
            rhs[i] = rhs[i] + QPoly.of(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)))
    else:
        rhs = [row[0] for row in draw(_poly_matrix(m, 1, 4, 10**6))]
    return matrix, rhs


@settings(max_examples=150, deadline=None)
@given(linear_systems())
# A all zero with b zero and ncols > 0: no row is kept modulo the prime.
@example(([[ZERO, ZERO], [ZERO, ZERO], [ZERO, ZERO]], [ZERO, ZERO, ZERO]))
# Row 1 is the first row inconsistent with the rows before it, but the row
# swaps of the full elimination make row 0 the witness.
@example(([[ZERO, ONE], [ZERO, ONE], [ONE, ZERO]], [ONE, ZERO, ZERO]))
def test_solver_matches_reference_elimination(system):
    matrix, rhs = system
    assert _answer(solve_linear_system(matrix, rhs)) == _reference_solve(matrix, rhs)


def test_solver_certifies_the_square_path(eliminations):
    # The prefix rows of the 2-element antichain (ideals 0, 1 and 3) solve to
    # y = 0, which the row of ideal 2, with f = q - 5, breaks.  Only the
    # certificate on every ideal's row sends the system to the elimination
    # of all rows.  That finds it inconsistent: rows 0 to 2 are its pivots,
    # so the witness is the last row, ideal 3.
    poset = Poset(2, [])
    statistic = Statistic.from_function(poset, lambda mask: QPoly.of([-5, 1]) if mask == 2 else ZERO)
    res = toggle_solve(poset, statistic)
    (prefix, _, prefix_step, ([(witness, ys)], _, free)), (full, _, full_step, _) = eliminations
    assert (prefix, witness, ys, free) == (3, None, [ZERO] * 3, ())
    sparse, rhs = build_system(poset, statistic)
    # each system is eliminated once, at Hadamard's width: the first width
    # of the 3 x 3 prefix rows is no narrower, and the full rows are tall
    rows, (prefix_rhs,) = solver._prefix_system(poset, [solver._specialise(poset, statistic, None)])
    assert qpoly._widths(rows, [prefix_rhs], 3) == (prefix_step,)
    assert qpoly._widths(sparse, [rhs], 3) == (full_step,)
    want = _reference_solve(densify(sparse, 3), rhs)
    assert full == 4 and not res.consistent and not want.consistent
    assert res.witness_mask == order_ideals(poset)[want.witness_row] == 3


def _prefix_rows(poset):
    """Row indices of the prefix ideals {0..k-1}, k = 0..n."""
    ideals = order_ideals(poset)
    return [ideals.index((1 << k) - 1) for k in range(poset.n + 1)]


_TOGGLE_POSETS = st.one_of(
    naturally_labeled_posets(),
    partition_strategy(8).map(build_shape),
    strict_partition_strategy(8).map(build_shifted),
)


@settings(max_examples=60, deadline=None)
@given(_TOGGLE_POSETS)
def test_prefix_ideal_rows_leave_no_free_column(poset):
    sparse, rhs = build_system(poset, statistic_ddeg(poset))
    matrix = densify(sparse, poset.n + 1)
    rows = _prefix_rows(poset)
    result = solve_linear_system([matrix[i] for i in rows], [rhs[i] for i in rows])
    assert result.consistent and result.free_columns == ()


def _specialised_rows(matrix, rhs, q_value):
    """The system at q = q_value, each equation rescaled by the lcm of its
    denominators; independent of the one scale ``build_system`` uses."""
    out_matrix, out_rhs = [], []
    for row, target in zip(matrix, rhs):
        values = [entry.evaluate(q_value) for entry in (*row, target)]
        scale = math.lcm(*(Fraction(v).denominator for v in values))
        ints = [int(v * scale) for v in values]
        out_matrix.append([QPoly.of([v]) for v in ints[:-1]])
        out_rhs.append(QPoly.of([ints[-1]]))
    return out_matrix, out_rhs


def _statistic_quadratic(poset):
    """1 + |I| q^2: degree 2, so a specialisation at a/b scales by b^2."""
    return Statistic.from_function(poset, lambda mask: QPoly.of([1, 0, mask.bit_count()]))


@settings(max_examples=120, deadline=None)
@given(
    _TOGGLE_POSETS,
    st.sampled_from([None, 0, 1, 2, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]),
    st.sampled_from([statistic_ddeg, _statistic_quadratic]),
)
def test_toggle_solve_matches_reference_elimination(poset, q_value, make_statistic):
    statistic = make_statistic(poset)
    sparse, rhs = build_system(poset, statistic)
    matrix = densify(sparse, poset.n + 1)
    if q_value is not None:
        matrix, rhs = _specialised_rows(matrix, rhs, q_value)
    want = _reference_solve(matrix, rhs)
    got = toggle_solve(poset, statistic, q_value)
    assert got.consistent == want.consistent
    if want.consistent:
        assert (got.constant, got.coefficients) == (want.solution[0], want.solution[1:])
    else:
        assert got.witness_mask == order_ideals(poset)[want.witness_row]


@st.composite
def _statistic_mixes(draw):
    """One poset and one to four statistics of it: ddeg, the maximal count of
    a random subset of elements, the quadratic 1 + |I| q^2, or a signed
    toggle statistic, which is always consistent (c = 0)."""
    poset = draw(_TOGGLE_POSETS)
    kinds = ["ddeg", "subset", "quadratic"] + (["toggle"] if poset.n else [])
    statistics = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "ddeg":
            statistics.append(statistic_ddeg(poset))
        elif kind == "subset":
            members = draw(st.sets(st.integers(0, max(poset.n - 1, 0)))) if poset.n else set()
            statistics.append(_maximal_count(poset, sorted(members), "subset"))
        elif kind == "quadratic":
            statistics.append(_statistic_quadratic(poset))
        else:
            statistics.append(statistic_toggle(poset, draw(st.integers(0, poset.n - 1))))
    return poset, statistics


def _hook_mix():
    poset = build_shape((2, 1))
    return poset, [statistic_ddeg(poset), statistic_toggle(poset, 1)]


def _rect_4x4_mix():
    poset = build_rectangle(4, 4)
    return poset, [statistic_ddeg(poset), solver.statistic_row(poset, 1), statistic_toggle(poset, 8)]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_statistic_mixes())
# ddeg is inconsistent on shape 2,1 and the toggle statistic consistent, so
# only ddeg leaves the shared elimination for toggle_solve.
@example(_hook_mix())
def test_several_statistics_share_one_elimination(eliminations, mix):
    # At generic q the prefix minor is nonsingular, so every consistent
    # statistic is answered by the one shared elimination, and only each
    # inconsistent one goes to toggle_solve: its own prefix rows, then all
    # rows.  Every prefix elimination runs at the first width of its rows:
    # on every prefix system drawn so far that width has held every entry,
    # so no prefix rows are eliminated again at Hadamard's width (a short
    # first width is test_a_short_first_width_retries_the_prefix_rows).  Each
    # full system is tall and runs at Hadamard's width.
    eliminations.clear()
    poset, statistics = mix
    results = _toggle_solve_all(poset, statistics)
    assert len(results) == len(statistics)
    systems = [solver._specialise(poset, statistic, None) for statistic in statistics]
    rows, rhss = solver._prefix_system(poset, systems)
    ncols = poset.n + 1
    alone = []
    for statistic, rhs, result in zip(statistics, rhss, results):
        if not result.consistent:
            sparse, full_rhs = build_system(poset, statistic)
            alone.append((1, qpoly._widths(rows, [rhs], ncols)[0]))
            alone.append((1, qpoly._widths(sparse, [full_rhs], ncols)[-1]))
    calls = [(call.rhss, call.step) for call in eliminations]
    assert calls == [(len(statistics), qpoly._widths(rows, rhss, ncols)[0])] + alone
    for statistic, got in zip(statistics, results):
        assert got == toggle_solve(poset, statistic)
        sparse, rhs = build_system(poset, statistic)
        want = _reference_solve(densify(sparse, poset.n + 1), rhs)
        assert got.consistent == want.consistent
        if want.consistent:
            assert (got.constant, got.coefficients) == (want.solution[0], want.solution[1:])
        else:
            assert got.witness_mask == order_ideals(poset)[want.witness_row]


def test_only_the_failing_statistic_takes_the_full_path(eliminations):
    # The prefix rows of shape 2,1 are eliminated once for both statistics;
    # ddeg fails its certificate there and alone goes to toggle_solve, which
    # eliminates its prefix rows again and then all 5 rows.  Every pass runs
    # at Hadamard's width: 1 byte already, and the full rows are tall.
    poset = build_shape((2, 1))
    ddeg, toggle = _toggle_solve_all(poset, [statistic_ddeg(poset), statistic_toggle(poset, 1)])
    calls = [(call.rows, call.rhss, call.step) for call in eliminations]
    assert calls == [(poset.n + 1, 2, 1), (poset.n + 1, 1, 1), (len(order_ideals(poset)), 1, 1)]
    assert (ddeg.consistent, ddeg.witness_mask) == (False, 7)
    assert toggle.consistent and toggle.constant == RAT_ZERO


def test_a_short_first_width_retries_the_prefix_rows(monkeypatch, eliminations):
    # No toggle prefix system has been found whose first width is short, so
    # the shared width is forced to 1 byte for the five row statistics of
    # rect 5x6, whose answers need 12 bits.  Every answer then fails its
    # certificate, so each statistic goes to toggle_solve, which eliminates
    # its own prefix rows at their first width and certifies the answer
    # there; no full system is eliminated.
    poset = build_rectangle(5, 6)
    statistics = [solver.statistic_row(poset, row) for row in range(1, 6)]
    want = _toggle_solve_all(poset, statistics)
    eliminations.clear()
    monkeypatch.setattr(solver, "_widths", lambda *args: (1,))
    got = _toggle_solve_all(poset, statistics)
    systems = [solver._specialise(poset, statistic, None) for statistic in statistics]
    rows, rhss = solver._prefix_system(poset, systems)
    ncols = poset.n + 1
    calls = [(call.rows, call.rhss, call.step) for call in eliminations]
    alone = [(ncols, 1, qpoly._widths(rows, [rhs], ncols)[0]) for rhs in rhss]
    assert calls == [(ncols, 5, 1)] + alone
    assert got == want == [toggle_solve(poset, statistic) for statistic in statistics]
    assert all(result.consistent for result in got)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_statistic_mixes())
@example(_hook_mix())
# rect 4x4's ddeg is consistent, but its y and d need more than 8 bits
@example(_rect_4x4_mix())
def test_a_one_byte_shared_width_gives_the_answers_of_toggle_solve(monkeypatch, mix):
    # With the shared elimination forced to 1 byte, a consistent answer that
    # decodes wrongly fails its certificate and goes to toggle_solve, as
    # every inconsistent statistic does.  One that decodes is the Bareiss
    # pair, as toggle_solve gives it: no prefix system of at most 8 elements
    # found so far has a d with a coefficient outside a byte (the largest is
    # 70, in the antichain's (1 + q)^8), and a wrong d is the one way a
    # wrong pair passes its certificate.
    poset, statistics = mix
    monkeypatch.setattr(solver, "_widths", lambda *args: (1,))
    results = _toggle_solve_all(poset, statistics)
    assert results == [toggle_solve(poset, statistic) for statistic in statistics]
    for statistic, got in zip(statistics, results):
        sparse, rhs = build_system(poset, statistic)
        want = _reference_solve(densify(sparse, poset.n + 1), rhs)
        assert got.consistent == want.consistent
        if want.consistent:
            assert (got.constant, got.coefficients) == (want.solution[0], want.solution[1:])
        else:
            assert got.witness_mask == order_ideals(poset)[want.witness_row]


@pytest.mark.parametrize(
    "lam,coefficients", [((2, 2), (0, 1, 0, 1)), ((2, 2, 1, 1), (0, 0, 1, 1, 0, 1))]
)
def test_singular_prefix_minor_falls_back(eliminations, lam, coefficients):
    # At q = -1 the prefix minor of these shapes is singular: its rows leave
    # a free column, and all rows are eliminated.  Shape 2,2,1,1 has a
    # narrower first width, where the free column sends the prefix rows to
    # Hadamard's width first: one more square elimination.
    poset = build_shape(lam)
    result = toggle_solve(poset, statistic_ddeg(poset), q_value=-1)
    system = solver._specialise(poset, statistic_ddeg(poset), -1)
    rows, (prefix_rhs,) = solver._prefix_system(poset, [system])
    prefix_steps = qpoly._widths(rows, [prefix_rhs], poset.n + 1)
    assert prefix_steps == {(2, 2): (1,), (2, 2, 1, 1): (1, 2)}[lam]
    sparse, rhs = build_system(poset, statistic_ddeg(poset), -1)
    full = (len(order_ideals(poset)), *qpoly._widths(sparse, [rhs], poset.n + 1))
    calls = [(call.rows, call.step) for call in eliminations]
    assert calls == [(poset.n + 1, step) for step in prefix_steps] + [full]
    assert result.consistent and result.constant == RAT_ZERO
    assert result.coefficients == tuple(RatFunc.from_int(c) for c in coefficients)


def test_solver_vandermonde_stress():
    # Rows (1, x, ..., x^4) at x = 101^i * q + 1 - i: the minors are
    # products of differences, and the solution has coefficients of over
    # 200 bits.
    xs = [QPoly.of([1 - i, 101**i]) for i in range(5)]
    matrix = [[x**j for j in range(5)] for x in xs]
    rhs = [qnum(i + 2) * 1000003 for i in range(5)]
    result = solve_linear_system(matrix, rhs)
    assert _answer(result) == _reference_solve(matrix, rhs)
    assert result.consistent and result.free_columns == ()
    assert _answer(solve_linear_system(matrix[:3], rhs[:3])) == _reference_solve(matrix[:3], rhs[:3])


def test_solver_packing_bound_is_attained():
    # Rows N*q^2 x = 0 and q^3 y = M*q: H^2 = N^2 * (1 + M^2), so H = N*M
    # (rounded down) and k = 61, and the pivot row (0, N*q^5, N*M*q^3) holds
    # N*M >= 2^59.  Balanced digits of one bit fewer stop below 2^59 and
    # would decode it wrongly.
    n_coef, m_coef = 999_983, 10**12 + 39
    matrix = [[QPoly.monomial(n_coef, 2), ZERO], [ZERO, QPoly.monomial(1, 3)]]
    rhs = [ZERO, QPoly.monomial(m_coef, 1)]
    result = solve_linear_system(matrix, rhs)
    assert _answer(result) == _reference_solve(matrix, rhs)
    assert result.solution == (RAT_ZERO, RatFunc(QPoly.of([m_coef]), QPoly.monomial(1, 2)))
    # 4x = q and x = 4 leave the witness entry 16 - q, a 2x2 minor of [A|b].
    # A bound over ncols = 1 rows (H = 4, k = 4) would pack it as 16 - 2^4 = 0.
    witness = solve_linear_system([[QPoly.of([4])], [ONE]], [Q, QPoly.of([4])])
    assert _answer(witness) == _reference_solve([[QPoly.of([4])], [ONE]], [Q, QPoly.of([4])])
    assert witness.witness_row == 1


def test_solver_packing_meets_hadamards_bound(monkeypatch):
    # The Sylvester matrix of order 4 (entries +-1, orthogonal rows) scaled
    # by q^(i+j) has determinant 16 q^12, whose value on |q| = 1 is the
    # product of its row 2-norms.  With b = (1, 0, 0, 0) the rows of [A|b]
    # give H^2 = 5 * 4^3 = 320, so H = 17 and the elimination packs at
    # step_above(2H): the last pivot 16 q^12 decodes, while balanced digits
    # of 5 bits, one short of the smallest k with 2^(k-1) > H, stop below 16.
    sylvester = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    matrix = [
        [QPoly.monomial(h, i + j) for j, h in enumerate(row)] for i, row in enumerate(sylvester)
    ]
    rhs = [ONE, ZERO, ZERO, ZERO]
    bounds = []
    step_above = qpoly.step_above

    def spy(bound):
        bounds.append(bound)
        return step_above(bound)

    monkeypatch.setattr(qpoly, "step_above", spy)
    result = solve_linear_system(matrix, rhs)
    assert _answer(result) == _reference_solve(matrix, rhs)
    assert result.solution == tuple(RatFunc(ONE, QPoly.monomial(4, j)) for j in range(4))
    # the widths are sized first, Hadamard's before the first width 2 * 4,
    # which is no narrower; then the certificate sizes its rows
    assert bounds[:2] == [2 * 17, 2 * 4]
    rows = [dict(enumerate(row)) for row in matrix]
    assert qpoly._widths(rows, [rhs], 4) == (1,)
    denominator = hadamard_eliminate(rows, [rhs], 4)[1]
    assert denominator == QPoly.monomial(16, 12)
    assert balanced_divmod_digits(16 << 5 * 12, 5) != list(denominator.coeffs)
    assert balanced_divmod_digits(16 << 6 * 12, 6) == list(denominator.coeffs)


def _sylvester(order):
    """Sylvester's Hadamard matrix of this order (a power of two), entries +-1."""
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-h for h in row] for row in rows]
    return rows


def test_first_width_retries_when_the_certificate_fails(eliminations):
    # 1000 x = 1: H = 1000, so Hadamard's width is 2 bytes and the first,
    # step_above(2 * 31), 1 byte.  There d = 1000 = 4 * 256 - 24 reads back
    # as 4q - 24, the residual 1000 - (4q - 24) is not zero, and the system
    # is eliminated again at 2 bytes.
    matrix, rhs = [[QPoly.of([1000])]], [ONE]
    result = solve_linear_system(matrix, rhs)
    assert [call.step for call in eliminations] == [1, 2]
    assert _answer(result) == _reference_solve(matrix, rhs)
    assert (result.numerators, result.denominator) == ((ONE,), QPoly.of([1000]))


def test_first_width_can_accept_a_multiple_of_the_bareiss_pair(eliminations):
    # The Sylvester system of order 8, entries +-q^(i+j) and b = e_0, has
    # H^2 = 9 * 8^7: Hadamard's width is 2 bytes, the first 1 byte.  Its
    # determinant 4096 q^56 is 2^460 = 16 * 256^57 at q = 2^8, so the first
    # width reads it back as 16 q^57, and every y_j as q/256 times the
    # Bareiss one.  That pair holds on every row, so it is accepted; the
    # fractions are the same.
    matrix = [
        [QPoly.monomial(h, i + j) for j, h in enumerate(row)] for i, row in enumerate(_sylvester(8))
    ]
    rhs = [ONE] + [ZERO] * 7
    rows = [dict(enumerate(row)) for row in matrix]
    assert qpoly._widths(rows, [rhs], 8) == (1, 2)
    result = solve_linear_system(matrix, rhs)
    assert [call.step for call in eliminations] == [1]
    assert _answer(result) == _reference_solve(matrix, rhs)
    assert result.denominator == QPoly.monomial(16, 57)
    assert hadamard_eliminate(rows, [rhs], 8)[1] == QPoly.monomial(4096, 56)
    assert result.solution == tuple(RatFunc(ONE, QPoly.monomial(8, j)) for j in range(8))


def _assert_certified_pair(matrix, rhs, result):
    """A y = d b on every row with d != 0, in QPoly arithmetic."""
    ys, d = result.numerators, result.denominator
    assert d
    for row, b in zip(matrix, rhs):
        assert sum((a * y for a, y in zip(row, ys)), ZERO) == d * b


@st.composite
def _square_sparse_systems(draw):
    """Square systems up to 7 x 7 whose cells are mostly zero, with entries
    of degree <= 3 and coefficients up to 2^40, and a random rhs."""
    n = draw(st.integers(1, 7))
    bound = draw(st.sampled_from([1, 3, 100, 2**40]))
    entry = st.one_of(
        st.just(ZERO),
        st.just(ZERO),
        st.lists(st.integers(-bound, bound), max_size=4).map(QPoly.of),
    )
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return matrix, rhs


def _toggle_prefix_system(poset):
    """The dense prefix rows of ddeg on the poset and their right-hand side."""
    system = solver._specialise(poset, statistic_ddeg(poset), None)
    rows, (rhs,) = solver._prefix_system(poset, [system])
    return densify(rows, poset.n + 1), rhs


@settings(max_examples=150, deadline=None)
@given(st.one_of(_square_sparse_systems(), _TOGGLE_POSETS.map(_toggle_prefix_system)))
def test_square_solves_match_the_reference_at_either_width(system):
    # Whichever width answers, the fractions are those of the polynomial
    # elimination, and the pair it keeps is certified: A y = d b, d != 0.
    matrix, rhs = system
    result = solve_linear_system(matrix, rhs)
    assert _answer(result) == _reference_solve(matrix, rhs)
    if result.consistent:
        _assert_certified_pair(matrix, rhs, result)


def test_check_solution_rejects_planted_error():
    # (1+q) x + q y = (1+q)^2 and x = y hold for x = y = (1+q)^2 / (1+2q).
    matrix = [{0: qnum(2), 1: Q}, {0: ONE, 1: -ONE}]
    rhs = [QPoly.of([1, 2, 1]), ZERO]
    y, d = QPoly.of([1, 2, 1]), QPoly.of([1, 2])
    check_solution(matrix, rhs, (y, y), d)
    with pytest.raises(ResidualMismatch, match="equation 0"):
        check_solution(matrix, rhs, (y, y + ONE), d)
    # Adding q * e to y_0 and -(1+q) * e to y_1 keeps equation 0.
    with pytest.raises(ResidualMismatch, match="equation 1"):
        check_solution(matrix, rhs, (y + Q, y - qnum(2)), d)


def test_check_solution_bound_counts_the_row_norm():
    # x_1 + ... + x_4 = q at x = 1 leaves 4 - q, zero at q = 4.  A bound from
    # the 1-norms of the y_j alone (Y = 1, so 2^K = 4) would miss it; with
    # the row 1-norm N = 5 the certificate evaluates at q = 8.
    with pytest.raises(ResidualMismatch, match="equation 0"):
        check_solution([{j: ONE for j in range(4)}], [Q], (ONE,) * 4, ONE)


def test_check_solution_bound_counts_the_right_hand_side():
    # x = 0 against x = 4 - q leaves q - 4.  Without the 1-norm 5 of b the
    # bound would be N = 1 and Y = 1, so 2^K = 4, a root of the residual.
    b = QPoly.of([4, -1])
    with pytest.raises(ResidualMismatch, match="equation 0"):
        check_solution([{0: ONE}], [b], (ZERO,), ONE)
    check_solution([{0: ONE}], [b], (b,), ONE)


def test_check_solution_reads_a_row_without_nonzero_cells():
    # Row 1 has no nonzero cell, so only its right-hand side is left to
    # read: 0 = q must fail there, and 0 = 0 must pass.
    matrix = [{0: ONE, 1: Q}, {}]
    with pytest.raises(ResidualMismatch, match="equation 1"):
        check_solution(matrix, [ONE, Q], (ONE, ZERO), ONE)
    check_solution(matrix, [ONE, ZERO], (ONE, ZERO), ONE)


@pytest.mark.parametrize("j", range(8))
def test_check_solution_rejects_residual_vanishing_at_a_power_of_two(j):
    # x = 2^j against x = q leaves the residual 2^j - q, zero at q = 2^j.
    with pytest.raises(ResidualMismatch, match="equation 0"):
        check_solution([{0: ONE}], [Q], (QPoly.of([2**j]),), ONE)
    # The same residual scaled by the denominator: d * x = 2^j * d.
    with pytest.raises(ResidualMismatch, match="equation 0"):
        check_solution([{0: ONE}], [Q], (QPoly.of([2**j]) * qnum(3),), qnum(3))
    check_solution([{0: ONE}], [QPoly.of([2**j])], (QPoly.of([2**j]),), ONE)


def test_check_solution_rejects_residual_vanishing_at_one_and_two():
    # Cells 1 and 3 give q^2 + 2 - 3q = (q - 1)(q - 2), zero at q = 1 and
    # q = 2 only.  Columns 0 and 2 hold no cell, so their large numerators
    # must not enter the residual.
    row = {1: ONE, 3: -Q}
    ys = (QPoly.of([10**9]), QPoly.of([2, 0, 1]), QPoly.of([-(10**9), 7]), QPoly.of([3]))
    with pytest.raises(ResidualMismatch, match="equation 0"):
        check_solution([row], [ZERO], ys, ONE)
    check_solution([row], [QPoly.of([2, -3, 1])], ys, ONE)


@pytest.mark.parametrize("q_value", [0, None])
def test_check_solution_rejects_an_error_in_the_full_ideals_row(q_value):
    # At q = 0 the full ideal's row of rect 2x3 is a single cell, c; at
    # generic q it also holds -q at the one maximal element.  An error
    # planted in that row's right-hand side or in its cell of c is found
    # there, and in no other row.
    poset = build_rectangle(2, 3)
    rows, rhs = build_system(poset, statistic_ddeg(poset), q_value)
    full = len(rows) - 1
    assert order_ideals(poset)[full] == (1 << poset.n) - 1
    assert len(rows[full]) == (1 if q_value == 0 else 2)
    [(witness, ys)], d, free = hadamard_eliminate(rows, [rhs], poset.n + 1)
    assert witness is None and free == ()
    check_solution(rows, rhs, ys, d)
    with pytest.raises(ResidualMismatch, match=f"equation {full}$"):
        check_solution(rows, [*rhs[:full], rhs[full] + ONE], ys, d)
    planted = [*rows[:full], {**rows[full], 0: rows[full][0] * 2}]
    with pytest.raises(ResidualMismatch, match=f"equation {full}$"):
        check_solution(planted, rhs, ys, d)


def test_solver_certifies_its_answer(monkeypatch):
    balanced = qpoly.balanced

    def plus_one(value, step):
        first, *rest = balanced(value, step)
        return [first + 1, *rest]

    monkeypatch.setattr(qpoly, "balanced", plus_one)
    with pytest.raises(ResidualMismatch):
        solve_linear_system([[qnum(2), Q], [ONE, -ONE]], [QPoly.of([1, 2, 1]), ZERO])
