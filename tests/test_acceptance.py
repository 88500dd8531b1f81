"""Acceptance gate: one test per primary criterion, all equalities exact.

Every check is an integer or polynomial identity with zero tolerance.  Each
test prints a single ``PASS criterion N`` line with its wall time (visible
under ``pytest tests/test_acceptance.py -v -s``); a failing criterion shows
up as the test's FAILED line instead.  The same battery is exposed on the
command line as ``qtab verify all``.
"""

from __future__ import annotations

import time

from conftest import all_partitions, small_poset_corpus, strict_partitions
from qtab.distributions import (
    check_toggle_symmetry,
    ensemble_lin,
    ensemble_rank,
    ensemble_rpp,
    ensemble_uniform,
    expectation,
    statistic_ddeg,
    statistic_toggle,
    theta,
    theta_m,
    tin,
    tout,
)
from qtab.extensions import (
    descents,
    enumerate_linear_extensions,
    gf_bsv,
    gf_comaj,
    gf_comaj_hook_formula,
)
from qtab.paths import (
    catalan_number,
    enumerate_rbmotz,
    gf_rbmotz,
    narayana_row,
    q_catalan,
    rbmotz_counts,
    two_row_tally,
)
from qtab.posets import (
    NotGraded,
    build_minuscule,
    build_propeller,
    build_rectangle,
    build_shape,
    build_shifted,
    order_ideals,
    rank_data,
)
from qtab.ppartitions import (
    gf_bsv_rpp,
    macmahon_gf,
    rpp_size_gf,
)
from qtab.qpoly import QPoly, RatFunc, parse_poly, qbinom, qnum, qt_num
from qtab.solver import (
    statistic_diagonal,
    toggle_solve,
    verify_refinements,
)
from qtab.togglebij import inverse_toggle_bijection, toggle_bijection

RECT22 = build_rectangle(2, 2)
STAIRCASE3 = build_shifted((3, 2, 1))
Q = QPoly.monomial(1, 1)


def staircase(k: int):
    return build_shifted(tuple(range(k, 0, -1)))


def report(number: int, label: str, start: float) -> None:
    print(f"PASS criterion {number}: {label} ({time.perf_counter() - start:.2f}s)", flush=True)


def test_criterion_1_table_goldens():
    start = time.perf_counter()
    assert gf_comaj(RECT22) == parse_poly("1 + q^2")
    assert gf_bsv(RECT22).at_t1() == parse_poly("1 + 2q + 2q^2 + 2q^3 + 2q^4 + q^5")
    assert rpp_size_gf(RECT22, 1) == parse_poly("1 + q + 2q^2 + q^3 + q^4")
    assert gf_bsv_rpp(RECT22, 1).at_t1() == parse_poly("1 + 2q + 2q^2 + q^3")
    assert gf_comaj(STAIRCASE3) == parse_poly("1 + q^3")
    assert gf_bsv(STAIRCASE3).at_t1() == parse_poly(
        "1 + q + 2q^2 + 2q^3 + 2q^4 + 2q^5 + 2q^6 + q^7 + q^8"
    )
    report(1, "table-level goldens", start)


def test_criterion_2_unbounded_rectangle_identity():
    start = time.perf_counter()
    assert gf_comaj(build_rectangle(4, 4)).evaluate(1) == 24024
    for a in range(1, 17):
        for b in range(a, 17):
            if a * b > 16:
                continue
            rect = build_rectangle(a, b)
            lhs = gf_bsv(rect) * qnum(a + b)
            rhs = qt_num(a) * qnum(b) * qnum(a * b + 1) * gf_comaj(rect)
            assert lhs == rhs, (a, b)
    report(2, "row-refined rectangle identity, all a*b <= 16", start)


def test_criterion_3_bounded_rectangle_identity():
    start = time.perf_counter()
    for a in range(1, 4):
        for b in range(1, 4):
            rect = build_rectangle(a, b)
            comaj_rhs = qt_num(a) * qnum(b) * qnum(a * b + 1) * gf_comaj(rect)
            assert gf_bsv(rect) * qnum(a + b) == comaj_rhs, (a, b)
            for m in range(1, 5):
                lhs = gf_bsv_rpp(rect, m).at_t1() * qnum(a + b)
                rhs = qnum(a) * qnum(b) * qnum(m) * macmahon_gf(a, b, m)
                assert lhs == rhs, (a, b, m)
    for a in range(1, 3):
        for b in range(1, 3):
            rect = build_rectangle(a, b)
            for m in range(1, 4):
                lhs = gf_bsv_rpp(rect, m) * qnum(a + b)
                rhs = qt_num(a) * qnum(b) * qnum(m) * macmahon_gf(a, b, m)
                assert lhs == rhs, (a, b, m)
    report(3, "bounded rectangle identity and refined variants", start)


def test_criterion_4_toggle_symmetry():
    start = time.perf_counter()
    for poset in small_poset_corpus(7):
        assert check_toggle_symmetry(ensemble_uniform(poset))
        assert check_toggle_symmetry(ensemble_lin(poset))
        try:
            rank_ensemble = ensemble_rank(poset)
        except NotGraded:
            pass
        else:
            assert check_toggle_symmetry(rank_ensemble)
        for m in (1, 2, 3):
            assert check_toggle_symmetry(ensemble_rpp(poset, m, mode="direct"))
            assert check_toggle_symmetry(ensemble_rpp(poset, m, mode="via_theta_m"))
    report(4, "toggle expectation zero for all four weight families", start)


def test_criterion_5_bounded_weights():
    start = time.perf_counter()
    for poset in small_poset_corpus(7):
        for m in (1, 2, 3):
            direct = ensemble_rpp(poset, m, mode="direct")
            via = ensemble_rpp(poset, m, mode="via_theta_m")
            assert direct.weights == via.weights
            assert direct.normalizer == via.normalizer
    for poset in small_poset_corpus(6):
        n = poset.n
        for m in (1, 2, 3, 4):
            total = QPoly.of([])
            for ext in enumerate_linear_extensions(poset):
                des = descents(ext)
                for i in range(n + 1):
                    value = theta_m(ext, i, m)
                    assert value == theta(ext, i) * qbinom(m + n - len(des - {i}), n + 1)
                    total = total + value
            assert total == qnum(m) * rpp_size_gf(poset, m)
    report(5, "bounded weights: two routes agree and factor through theta", start)


def test_criterion_6_toggle_solver():
    start = time.perf_counter()
    for lam in all_partitions(9):
        poset = build_shape(lam)
        result = toggle_solve(poset, statistic_ddeg(poset))
        is_rectangle = len(set(lam)) == 1
        assert result.consistent == is_rectangle, lam
        if is_rectangle:
            a, b = len(lam), lam[0]
            assert result.constant == RatFunc(qnum(a) * qnum(b), qnum(a + b)), lam
        else:
            assert result.witness_mask in order_ideals(poset), lam
    for a in range(1, 4):
        for b in range(a, 4):
            # row i: q^(a-i) [b] / [a+b]
            rows = [(f"row:{i}", True, RatFunc(qnum(b).shift(a - i), qnum(a + b))) for i in range(1, a + 1)]
            reports = verify_refinements(build_rectangle(a, b))
            assert [(r.label, r.consistent, r.constant) for r in reports] == rows
    for k in (1, 2, 3):
        poset = staircase(k)
        result = toggle_solve(poset, statistic_ddeg(poset))
        assert result.consistent
        assert result.constant == RatFunc(qbinom(k + 1, 2), qnum(2 * k))
        # [k]_(q^2) / [2k] on the diagonal, q [k choose 2] / [2k] off it; the
        # one-box staircase is the 1x1 rectangle, split by rows
        split = [
            ("diagonal", True, RatFunc(qnum(k).substitute(2), qnum(2 * k))),
            ("off-diagonal", True, RatFunc(qbinom(k, 2).shift(1), qnum(2 * k))),
        ]
        if k == 1:
            split = [("row:1", True, RatFunc(qnum(1), qnum(2)))]
        assert [(r.label, r.consistent, r.constant) for r in verify_refinements(poset)] == split
        diag = toggle_solve(poset, statistic_diagonal(poset, True))
        assert diag.consistent
        assert diag.constant == RatFunc(qnum(k).substitute(2), qnum(2 * k))
    for poset in (build_propeller(2), build_propeller(3), build_minuscule("E6")):
        rd = rank_data(poset)
        coeffs = [0] * (rd.rank + 1)
        for r in rd.ranks:
            coeffs[r] += 1
        result = toggle_solve(poset, statistic_ddeg(poset))
        assert result.consistent
        assert result.constant == RatFunc(QPoly.of(coeffs), qnum(rd.rank + 2))
    hook = build_shape((2, 1))
    assert not toggle_solve(hook, statistic_ddeg(hook)).consistent
    at_one = toggle_solve(hook, statistic_ddeg(hook), q_value=1)
    assert at_one.consistent
    assert at_one.constant == RatFunc.from_int(1)
    report(6, "toggle solver constants and rectangularity dichotomy", start)


def test_criterion_7_paths():
    start = time.perf_counter()
    for length in range(2, 11):
        assert sum(1 for _ in enumerate_rbmotz(length)) == catalan_number(length - 1)
    for b in range(1, 6):
        assert gf_rbmotz(b) * qnum(b + 2) == qt_num(2) * qnum(b) * qnum(2 * b + 1) * q_catalan(b)
    for length in range(2, 9):
        by_width, by_top = two_row_tally(length)
        paths = rbmotz_counts(length)
        tableaux = [by_width[b] for b in range(1, length // 2 + 1)]
        assert tableaux == [paths[length - 2 * b] for b in range(1, length // 2 + 1)]
        assert sum(tableaux) == catalan_number(length - 1) == sum(paths.values())
        assert dict(by_top) == narayana_row(length - 1)
    report(7, "path counts, colored generating function, Narayana rows", start)


def test_criterion_8_toggle_pairing():
    start = time.perf_counter()
    for poset in small_poset_corpus(7):
        n = poset.n
        extensions = list(enumerate_linear_extensions(poset))
        for p in range(n):
            out_pairs = []
            in_pairs = []
            for ext in extensions:
                for y in range(n + 1):
                    mask = ext.prefix_ideal(y)
                    if tout(poset, p, mask):
                        out_pairs.append((ext, y))
                    if tin(poset, p, mask):
                        in_pairs.append((ext, y))
            images = []
            for ext, y in out_pairs:
                image, y2 = toggle_bijection(p, ext, y)
                assert tin(poset, p, image.prefix_ideal(y2))
                assert theta(ext, y) * Q == theta(image, y2)
                assert len(descents(ext) - {y}) == len(descents(image) - {y2})
                assert inverse_toggle_bijection(p, image, y2) == (ext, y)
                images.append((image, y2))
            assert len(set(images)) == len(out_pairs)
            assert set(images) == set(in_pairs)
            lhs = sum((theta(ext, y) * Q for ext, y in out_pairs), QPoly.of([]))
            rhs = sum((theta(ext, y) for ext, y in in_pairs), QPoly.of([]))
            assert lhs == rhs
            assert expectation(ensemble_lin(poset), statistic_toggle(poset, p)) == RatFunc.from_int(0)
    report(8, "toggle pairing exhaustive with weight and descent laws", start)


def test_criterion_9_hook_formulas():
    start = time.perf_counter()
    for lam in all_partitions(8):
        assert gf_comaj(build_shape(lam)) == gf_comaj_hook_formula(lam), lam
    for lam in strict_partitions(8):
        assert gf_comaj(build_shifted(lam)) == gf_comaj_hook_formula(lam, shifted=True), lam
    report(9, "hook product formulas against direct enumeration", start)
