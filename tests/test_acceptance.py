"""Acceptance gate: one test per primary criterion, all equalities exact.

Criteria 2-9 read one ``qtab verify all --json`` report, which must pass as
a whole, and assert that each of their families of check ids is not empty
and passed.  Only what that battery does not check is asserted directly.
Each test prints a ``PASS criterion N`` line with its time: that of its own
asserts plus the seconds the report gives its families' checks (visible
under ``pytest tests/test_acceptance.py -v -s``).
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

from qtab.cli import main
from qtab.distributions import statistic_ddeg
from qtab.extensions import gf_bsv, gf_comaj
from qtab.posets import build_rectangle, build_shifted
from qtab.ppartitions import gf_bsv_rpp, macmahon_gf, rpp_size_gf
from qtab.qpoly import RatFunc, parse_poly, qnum, qt_num
from qtab.solver import statistic_diagonal, toggle_solve, verify_refinements

RECT22 = build_rectangle(2, 2)
STAIRCASE3 = build_shifted((3, 2, 1))


def report(number: int, label: str, seconds: float) -> None:
    print(f"PASS criterion {number}: {label} ({seconds:.2f}s)", flush=True)


@pytest.fixture(scope="module")
def battery() -> dict:
    """The ``verify all --json`` report, which must pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--json"])
    payload = json.loads(out.getvalue())
    failed = [check["id"] for check in payload["checks"] if check["status"] != "pass"]
    assert (code, payload["ok"], failed) == (0, True, [])
    return payload


def assert_families_pass(payload: dict, *prefixes: str) -> float:
    """Assert that each family, the checks whose id starts with a prefix, is
    not empty and passed; return the seconds its checks took."""
    seconds = 0.0
    for prefix in prefixes:
        family = [check for check in payload["checks"] if check["id"].startswith(prefix)]
        assert family, f"no {prefix} checks"
        assert [c["id"] for c in family if c["status"] != "pass"] == []
        seconds += sum(check["seconds"] for check in family)
    return seconds


def test_family_helper_rejects_a_failed_or_an_empty_family():
    payload = {"checks": [
        {"id": "paths:a", "status": "pass", "seconds": 0.5},
        {"id": "paths:b", "status": "fail", "seconds": 0.25},
    ]}
    with pytest.raises(AssertionError, match="paths:b"):
        assert_families_pass(payload, "paths:")
    with pytest.raises(AssertionError, match="no solver: checks"):
        assert_families_pass(payload, "solver:")
    assert assert_families_pass({"checks": payload["checks"][:1]}, "paths:") == 0.5


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
    report(1, "table-level goldens", time.perf_counter() - start)


def test_criterion_2_unbounded_rectangle_identity(battery):
    start = time.perf_counter()
    assert gf_comaj(build_rectangle(4, 4)).evaluate(1) == 24024
    seconds = assert_families_pass(battery, "thm-syt:rect:")
    report(2, "row-refined rectangle identity, all a*b <= 16", seconds + time.perf_counter() - start)


def test_criterion_3_bounded_rectangle_identity(battery):
    start = time.perf_counter()
    seconds = assert_families_pass(battery, "thm-pp:")
    # thm-pp takes a <= b; the transposed rectangles are checked here
    for a, b in ((2, 1), (3, 1), (3, 2)):
        rect = build_rectangle(a, b)
        comaj_rhs = qt_num(a) * qnum(b) * qnum(a * b + 1) * gf_comaj(rect)
        assert gf_bsv(rect) * qnum(a + b) == comaj_rhs, (a, b)
        for m in range(1, 5):
            lhs = gf_bsv_rpp(rect, m).at_t1() * qnum(a + b)
            assert lhs == qnum(a) * qnum(b) * qnum(m) * macmahon_gf(a, b, m), (a, b, m)
    rect = build_rectangle(2, 1)
    for m in range(1, 4):
        lhs = gf_bsv_rpp(rect, m) * qnum(3)
        assert lhs == qt_num(2) * qnum(1) * qnum(m) * macmahon_gf(2, 1, m), m
    report(3, "bounded rectangle identity and refined variants", seconds + time.perf_counter() - start)


def test_criterion_4_toggle_symmetry(battery):
    seconds = assert_families_pass(battery, "toggle-symmetry:")
    report(4, "toggle expectation zero for all four weight families", seconds)


def test_criterion_5_bounded_weights(battery):
    seconds = assert_families_pass(battery, "m-weight:")
    report(5, "bounded weights: two routes agree and factor through theta", seconds)


def test_criterion_6_toggle_solver(battery):
    start = time.perf_counter()
    seconds = assert_families_pass(battery, "solver:")
    # the one-box staircase is the 1x1 rectangle, split by rows
    one_box = build_shifted((1,))
    result = toggle_solve(one_box, statistic_ddeg(one_box))
    assert (result.consistent, result.constant) == (True, RatFunc(qnum(1), qnum(2)))
    split = [(r.label, r.consistent, r.constant) for r in verify_refinements(one_box)]
    assert split == [("row:1", True, RatFunc(qnum(1), qnum(2)))]
    for k in (1, 2, 3):
        poset = build_shifted(tuple(range(k, 0, -1)))
        diag = toggle_solve(poset, statistic_diagonal(poset, True))
        assert diag.consistent
        assert diag.constant == RatFunc(qnum(k).substitute(2), qnum(2 * k))
    report(6, "toggle solver constants and rectangularity dichotomy", seconds + time.perf_counter() - start)


def test_criterion_7_paths(battery):
    seconds = assert_families_pass(battery, "paths:")
    report(7, "path counts, colored generating function, Narayana rows", seconds)


def test_criterion_8_toggle_pairing(battery):
    seconds = assert_families_pass(battery, "appendix:bijection:")
    report(8, "toggle pairing exhaustive with weight and descent laws", seconds)


def test_criterion_9_hook_formulas(battery):
    seconds = assert_families_pass(battery, "thm-syt:hooks:", "shifted:hooks:")
    report(9, "hook product formulas against direct enumeration", seconds)
