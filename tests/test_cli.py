"""Tests for the command-line front end."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import naturally_labeled_posets
from qtab import cli, engine, posets, solver
from qtab.cli import Check, _run_checks, main
from qtab.distributions import WeightedEnsemble
from qtab.extensions import enumerate_linear_extensions, gf_bsv, gf_comaj
from qtab.paths import gf_rbmotz, narayana_row, rbmotz_counts, two_row_tally
from qtab.posets import Poset, build_minuscule, build_rectangle, build_shape
from qtab.ppartitions import rpp_size_series
from qtab.qpoly import (
    QPoly,
    RatFunc,
    coeff_vector,
    parse_poly,
    parse_qt_poly,
    qnum,
    qt_coeff_vector,
    qt_num,
)
from qtab.togglebij import inverse_toggle_bijection, toggle_bijection

RECT22 = build_rectangle(2, 2)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gf


def test_gf_comaj_golden(capsys):
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "comaj")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 + q^2"
    assert lines[1] == "coefficients: [1, 0, 1]"


def test_gf_bsv_rpp_golden(capsys):
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "bsv-rpp", "--m", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 + 2*q + 2*q^2 + q^3"
    assert parse_poly(out.splitlines()[0]) == parse_poly("1 + 2q + 2q^2 + q^3")


def test_gf_shifted_comaj_golden(capsys):
    code, out, _ = run_cli(capsys, "gf", "shifted:3,2,1", "comaj")
    assert code == 0
    assert out.splitlines()[0] == "1 + q^3"


def test_gf_bsv_comaj_t1(capsys):
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "bsv-comaj")
    assert code == 0
    expected = parse_poly("1 + 2q + 2q^2 + 2q^3 + 2q^4 + q^5")
    assert parse_poly(out.splitlines()[0]) == expected


def test_gf_output_roundtrips(capsys):
    cases = [
        ("rect:2x3", "comaj"),
        ("shape:3,1", "comaj"),
        ("shifted:3,2,1", "bsv-comaj"),
        ("minuscule:E6", "rpp", "--m", "2"),
        ("rect:2x2", "rpp", "--m", "3"),
    ]
    for argv in cases:
        code, out, _ = run_cli(capsys, "gf", *argv)
        assert code == 0
        text, coeff_line = out.splitlines()
        poly = parse_poly(text)
        assert coeff_line == f"coefficients: {coeff_vector(poly)}"


def test_gf_refined_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "gf", "rect:2x3", "bsv-comaj", "--refined")
    assert code == 0
    text = out.splitlines()[0]
    assert "t" in text
    plain = run_cli(capsys, "gf", "rect:2x3", "bsv-comaj")[1].splitlines()[0]
    assert parse_qt_poly(text).at_t1() == parse_poly(plain)
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "bsv-rpp", "--m", "2", "--refined")
    assert code == 0
    assert parse_qt_poly(out.splitlines()[0]).at_t1() == parse_poly(
        run_cli(capsys, "gf", "rect:2x2", "bsv-rpp", "--m", "2")[1].splitlines()[0]
    )


def test_gf_rpp_series_uses_degree_cap(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "rpp", "--degree-cap", "6")
    assert code == 0
    assert parse_poly(out.splitlines()[0]) == rpp_size_series(RECT22, 6)

    monkeypatch.setenv("QTAB_DEGREE_CAP", "4")
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "rpp")
    assert code == 0
    assert parse_poly(out.splitlines()[0]) == rpp_size_series(RECT22, 4)

    monkeypatch.setenv("QTAB_DEGREE_CAP", "many")
    code, _, err = run_cli(capsys, "gf", "rect:2x2", "rpp")
    assert code == 2
    assert "QTAB_DEGREE_CAP" in err

    monkeypatch.setenv("QTAB_DEGREE_CAP", "-1")
    code, out, err = run_cli(capsys, "gf", "rect:2x2", "rpp")
    assert (code, out) == (2, "")
    assert "QTAB_DEGREE_CAP" in err
    for argv in (("comaj",), ("rpp", "--m", "2"), ("bsv-rpp", "--m", "1")):
        assert run_cli(capsys, "gf", "rect:2x2", *argv)[0] == 0  # the cap does not apply

    monkeypatch.delenv("QTAB_DEGREE_CAP")
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "rpp")
    assert code == 0
    assert parse_poly(out.splitlines()[0]) == rpp_size_series(RECT22, 20)

    code, out, err = run_cli(capsys, "gf", "rect:2x2", "rpp", "--degree-cap", "-1")
    assert (code, out) == (2, "")
    assert "--degree-cap" in err


def test_gf_json(capsys):
    code, out, _ = run_cli(capsys, "gf", "rect:2x2", "comaj", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"report_version": 1, "poly": "1 + q^2", "coefficients": [1, 0, 1]}


def test_gf_error_exits(capsys):
    assert run_cli(capsys, "gf", "rect:2y3", "comaj")[0] == 2
    assert run_cli(capsys, "gf", "shape:", "comaj")[0] == 2
    assert run_cli(capsys, "gf", "rect:2x2", "bsv-rpp")[0] == 2
    assert run_cli(capsys, "gf", "rect:2x2", "comaj", "--m", "1")[0] == 2
    assert run_cli(capsys, "gf", "rect:2x2", "comaj", "--refined")[0] == 2
    assert run_cli(capsys, "gf", "minuscule:E6", "bsv-comaj", "--refined")[0] == 3
    assert run_cli(capsys, "gf", "minuscule:propeller:2", "bsv-rpp", "--m", "1", "--refined")[0] == 3
    for argv in (
        ("comaj", "--degree-cap", "5"),
        ("bsv-comaj", "--degree-cap", "5"),
        ("rpp", "--m", "2", "--degree-cap", "5"),
        ("rpp", "--m", "2", "--degree-cap", "-1"),
        ("bsv-rpp", "--m", "2", "--degree-cap", "5"),
    ):
        code, out, err = run_cli(capsys, "gf", "rect:2x2", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--degree-cap" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": -1, "covers": []},
        {"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]], "coords": [[1, 1], [1, 2]]},
        {"n": 2, "covers": [[0, 1]], "coords": [[1, 1], [1, 2], [1, 3]]},
        {"n": 2, "covers": [[0, 1]], "coords": [[1, 1], None]},
        {"n": 2, "covers": [[0, 1]], "coords": [[1, 1], [1, 1]]},
        # numbers must be JSON integers, not values int() would coerce
        {"n": 2.5, "covers": []},
        {"n": 2, "covers": [[0.9, 1.7]]},
        {"n": "3", "covers": []},
        {"n": True, "covers": []},
        {"n": 2, "covers": [[0, 1]], "labeling": [1.0, 2]},
        {"n": 2, "covers": [[0, True]]},
        # a labeling is absent, null or a list
        {"n": 2, "covers": [[0, 1]], "labeling": 0},
        {"n": 2, "covers": [[0, 1]], "labeling": False},
        {"n": 2, "covers": [[0, 1]], "labeling": ""},
        {"n": 2, "covers": [[0, 1]], "labeling": {}},
    ],
)
def test_gf_rejects_bad_poset_files(capsys, tmp_path, doc):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(doc))
    for argv in (("comaj",), ("bsv-comaj", "--refined")):
        code, out, err = run_cli(capsys, "gf", str(path), *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_gf_names_the_implied_cover(capsys, tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 2], [0, 2]]}))
    code, out, err = run_cli(capsys, "gf", str(path), "comaj")
    assert (code, out, err) == (2, "", "error: (0, 2) is implied by other covers\n")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe\x00\x01", "cannot read poset file"),  # not UTF-8
        (b"[" * 100_000, "malformed poset JSON"),  # nested past the recursion limit
    ],
)
def test_gf_reports_unreadable_poset_files(capsys, tmp_path, content, message):
    path = tmp_path / "poset.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "gf", str(path), "comaj")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# ---------------------------------------------------------------------------
# solve


def test_solve_rectangle(capsys):
    code, out, _ = run_cli(capsys, "solve", "rect:2x2", "ddeg")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "consistent: yes"
    num, den = lines[1][4:].split(" / ")
    constant = RatFunc(parse_poly(num.strip("()")), parse_poly(den.strip("()")))
    assert constant == RatFunc(qnum(2) * qnum(2), qnum(4))


def test_solve_rectangle_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "rect:2x2", "ddeg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report_version"] == 1
    assert payload["consistent"] is True
    assert payload["witness_mask"] is None
    # [2][2]/[4] reduces to (1 + q) / (1 + q^2)
    assert payload["c"] == {"num": [1, 1], "den": [1, 0, 1]}


def test_solve_row_statistic(capsys):
    code, out, _ = run_cli(capsys, "solve", "rect:2x3", "row:1", "--json")
    assert code == 0
    payload = json.loads(out)
    expected = RatFunc(QPoly.monomial(1, 1) * qnum(3), qnum(5))
    assert payload["c"] == {"num": coeff_vector(expected.num), "den": coeff_vector(expected.den)}


def test_solve_staircase_diagonal(capsys):
    code, out, _ = run_cli(capsys, "solve", "shifted:2,1", "diag", "--json")
    assert code == 0
    payload = json.loads(out)
    expected = RatFunc(qnum(2).substitute(2), qnum(4))
    assert payload["c"] == {"num": coeff_vector(expected.num), "den": coeff_vector(expected.den)}


def test_solve_inconsistent_shape(capsys):
    code, out, _ = run_cli(capsys, "solve", "shape:2,1", "ddeg")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "consistent: no"
    assert "witness ideal mask:" in lines[1]

    code, out, _ = run_cli(capsys, "solve", "shape:2,1", "ddeg", "--json")
    payload = json.loads(out)
    assert payload["consistent"] is False
    assert payload["c"] is None
    assert isinstance(payload["witness_mask"], int)


def test_solve_expect_consistent_exit(capsys):
    assert run_cli(capsys, "solve", "shape:2,1", "ddeg", "--expect-consistent")[0] == 1
    assert run_cli(capsys, "solve", "rect:2x2", "ddeg", "--expect-consistent")[0] == 0


def test_solve_statistic_errors(capsys):
    assert run_cli(capsys, "solve", "rect:2x2", "height")[0] == 2
    assert run_cli(capsys, "solve", "rect:2x2", "row:zero")[0] == 2
    assert run_cli(capsys, "solve", "rect:2x2", "row:9")[0] == 2
    assert run_cli(capsys, "solve", "minuscule:E6", "diag")[0] == 3
    assert run_cli(capsys, "solve", "minuscule:E6", "row:1")[0] == 3


def test_solve_row_limit_exit(capsys, monkeypatch):
    """Too many order ideals for the full system is a usage error, not a
    traceback; an answer certified without the full system meets no limit."""
    monkeypatch.setattr(solver, "ROW_LIMIT", 3)
    code, out, err = run_cli(capsys, "solve", "shape:2,1", "ddeg")
    assert code == 2
    assert out == ""
    assert err == "error: 5 ideals exceed the row limit 3\n"
    code, out, err = run_cli(capsys, "solve", "rect:2x2", "ddeg")
    assert code == 0
    assert out == "consistent: yes\nc = (1 + q) / (1 + q^2)\n"
    assert err == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_paths_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "paths", "--max-l", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report_version"] == 1
    assert payload["suite"] == "paths"
    assert payload["ok"] is True
    ids = [check["id"] for check in payload["checks"]]
    assert ids == sorted(ids)
    assert all(check["status"] == "pass" for check in payload["checks"])
    assert all("lhs" not in check for check in payload["checks"])


def test_verify_minuscule_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "minuscule", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 26
    assert all(check["status"] == "pass" for check in checks)
    assert {"minuscule:structure:E6", "minuscule:structure:E7"} <= {c["id"] for c in checks}


def test_verify_small_caps_pass(capsys):
    assert run_cli(capsys, "verify", "thm-syt", "--max-a", "2", "--max-b", "3", "--max-boxes", "6")[0] == 0
    assert run_cli(capsys, "verify", "thm-pp", "--max-a", "2", "--max-b", "2", "--max-m", "2")[0] == 0
    assert run_cli(capsys, "verify", "toggle-symmetry", "--max-boxes", "4", "--max-m", "1")[0] == 0
    assert run_cli(capsys, "verify", "m-weight", "--max-boxes", "4", "--max-m", "2")[0] == 0
    assert run_cli(capsys, "verify", "shifted", "--max-boxes", "5", "--max-m", "1")[0] == 0
    assert run_cli(capsys, "verify", "appendix", "--max-boxes", "4")[0] == 0
    assert run_cli(capsys, "verify", "solver", "--max-boxes", "5")[0] == 0


def test_verify_failing_check_exits_one(capsys, monkeypatch):
    failing = [
        Check("demo:equal", "demo", lambda: (False, qnum(2), qnum(3))),
        Check("demo:crash", "demo", lambda: 1 // 0),
    ]
    monkeypatch.setitem(cli.SUITES, "paths", lambda args: failing)
    code, out, _ = run_cli(capsys, "verify", "paths")
    assert code == 1
    assert "FAIL demo:equal" in out
    assert "lhs: [1, 1]" in out
    assert "FAIL demo:crash" in out
    assert "ZeroDivisionError" in out

    code, out, _ = run_cli(capsys, "verify", "paths", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    by_id = {check["id"]: check for check in payload["checks"]}
    assert by_id["demo:equal"]["lhs"] == [1, 1]
    assert by_id["demo:equal"]["rhs"] == [1, 1, 1]


def test_wrong_product_row_reports_both_sides(capsys, monkeypatch):
    # [a*b + 1] = [5] replaced by [4]: a QTPoly engine side against a product
    lhs = (cli._Call(gf_bsv, RECT22), qnum(4))
    rhs = (qt_num(2), qnum(2), qnum(4), cli._Call(gf_comaj, RECT22))
    [record] = _run_checks([cli._row("demo:product", "demo", lhs, rhs)])
    assert not record.ok
    assert record.lhs == gf_bsv(RECT22) * qnum(4)
    assert record.rhs == qt_num(2) * qnum(2) * qnum(4) * gf_comaj(RECT22)

    wrong_constant = RatFunc(qnum(2), qnum(3))
    failing = [
        cli._row("demo:product", "demo", lhs, rhs),
        cli._row(
            "demo:constant", "demo", (cli._Call(cli._ddeg_constant, build_shape((2, 1))),), (wrong_constant,)
        ),
    ]
    monkeypatch.setitem(cli.SUITES, "paths", lambda args: failing)
    code, out, _ = run_cli(capsys, "verify", "paths", "--json")
    assert code == 1
    by_id = {check["id"]: check for check in json.loads(out)["checks"]}
    assert by_id["demo:product"]["lhs"] == qt_coeff_vector(record.lhs)
    assert by_id["demo:product"]["rhs"] == qt_coeff_vector(record.rhs)
    # shape 2,1 has no toggle constant; the expected one is still reported
    assert by_id["demo:constant"]["lhs"] == "inconsistent"
    assert by_id["demo:constant"]["rhs"] == {"num": [1, 1], "den": [1, 1, 1]}


def test_tuple_factors_are_values(capsys, monkeypatch):
    # Only a ``_Call`` is called; a tuple, nested or not, is compared as it is.
    pairs = (("row:1", RatFunc(qnum(2), qnum(3))),)
    passing = cli._row("demo:same", "demo", (((1, 2),),), (((1, 2),),))
    failing = cli._row("demo:pairs", "demo", (pairs,), ((("row:1", RatFunc(QPoly.of([1]), qnum(3))),),))
    [differ, same] = _run_checks([passing, failing])  # in id order
    assert (same.ok, differ.ok) == (True, False)
    assert differ.lhs == pairs
    assert differ.rhs == (("row:1", RatFunc(QPoly.of([1]), qnum(3))),)
    monkeypatch.setitem(cli.SUITES, "paths", lambda args: [passing, failing])
    code, out, _ = run_cli(capsys, "verify", "paths", "--json")
    assert code == 1
    by_id = {check["id"]: check for check in json.loads(out)["checks"]}
    assert by_id["demo:same"]["status"] == "pass"
    assert by_id["demo:pairs"]["lhs"] == [["row:1", {"num": [1, 1], "den": [1, 1, 1]}]]
    assert by_id["demo:pairs"]["rhs"] == [["row:1", {"num": [1], "den": [1, 1, 1]}]]


def _wider_tally(length: int) -> tuple[Counter, Counter]:
    by_width, by_top = two_row_tally(length)
    return by_width + Counter({1: 1}), by_top


@pytest.mark.parametrize(
    "suite, name, wrong, family",
    [
        # a path with a horizontal-step count of the wrong parity for its length
        ("paths", "rbmotz_counts", lambda length: rbmotz_counts(length) + Counter({length % 2 + 1: 1}),
         "paths:rbmotz-count:"),
        ("paths", "gf_rbmotz", lambda b: gf_rbmotz(b) + 1, "paths:gen-fun:"),
        ("paths", "two_row_tally", _wider_tally, "paths:catalan-sum:"),
        ("paths", "narayana_row", lambda m: {**narayana_row(m), m + 1: 1}, "paths:narayana:"),
        ("shifted", "d_star", lambda bsv: 0, "shifted:diag-refinement:"),
    ],
)
def test_failing_identity_rows_report_both_sides(capsys, monkeypatch, suite, name, wrong, family):
    monkeypatch.setattr(cli, name, wrong)
    caps = ("--max-l", "6", "--max-b", "2", "--max-m", "1", "--max-boxes", "3")
    code, out, _ = run_cli(capsys, "verify", suite, *caps, "--json")
    assert code == 1
    checks = [check for check in json.loads(out)["checks"] if check["id"].startswith(family)]
    assert checks
    for check in checks:
        assert check["status"] == "fail", check["id"]
        assert check["lhs"] is not None and check["rhs"] is not None
        assert check["lhs"] != check["rhs"]


def test_failing_tally_row_reports_json_objects(capsys, monkeypatch):
    monkeypatch.setattr(cli, "narayana_row", lambda m: {**narayana_row(m), m + 1: 1})
    code, out, _ = run_cli(capsys, "verify", "paths", "--max-l", "4", "--json")
    assert code == 1
    by_id = {check["id"]: check for check in json.loads(out)["checks"]}
    assert by_id["paths:narayana:l2"]["lhs"] == {"1": 1}
    assert by_id["paths:narayana:l2"]["rhs"] == {"1": 1, "2": 1}


def test_failing_minuscule_structure_reports_both_sides(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_self_dual", lambda poset: False)
    code, out, _ = run_cli(capsys, "verify", "minuscule", "--max-m", "1", "--json")
    assert code == 1
    by_id = {check["id"]: check for check in json.loads(out)["checks"]}
    for name, ideals in (("E6", 27), ("E7", 56)):
        check = by_id[f"minuscule:structure:{name}"]
        assert check["status"] == "fail"
        assert check["lhs"] != check["rhs"]
        assert check["lhs"][:2] == [ideals, False] and check["rhs"][:2] == [ideals, True]


def test_verify_jobs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "paths", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_runs_are_deterministic(capsys):
    def stripped() -> list[str]:
        code, out, _ = run_cli(capsys, "verify", "paths", "--max-l", "6")
        assert code == 0
        # Timings differ between runs; ids, statuses, order and counts may not.
        return [re.sub(r"\d+\.\d+s", "", line) for line in out.splitlines()]

    assert stripped() == stripped()


class _Abort(BaseException):
    """Escapes ``_run_checks``, which turns only an ``Exception`` into a failure."""


def _crash(seen: list, error: BaseException) -> tuple[bool, object, object]:
    seen.append(len(cli._BUILT))
    raise error


@pytest.mark.parametrize("error", [ZeroDivisionError("boom"), _Abort()])
def test_verify_empties_its_memo(capsys, monkeypatch, error):
    seen: list[int] = []
    cli._clear_run_memo()  # building checks outside a run fills it too

    def suite(args):
        poset = cli._poset("rect:2x2")
        return [
            Check("demo:a", "demo", cli._check_symmetry, (poset, cli.ensemble_uniform)),
            Check("demo:b", "demo", _crash, (seen, error)),
        ]

    monkeypatch.setitem(cli.SUITES, "paths", suite)
    if isinstance(error, Exception):
        assert run_cli(capsys, "verify", "paths")[0] == 1
    else:
        with pytest.raises(_Abort):
            main(["verify", "paths"])
    assert seen == [3]  # the poset, its ensemble and the ensemble's verdict
    assert not cli._BUILT

    assert run_cli(capsys, "verify", "toggle-symmetry", "--max-boxes", "3", "--max-m", "1")[0] == 0
    assert not cli._BUILT


def test_verify_builds_each_shared_ensemble_once(capsys, monkeypatch):
    builds: list[tuple] = []

    def counted(builder):
        def build(poset, *args):
            builds.append((poset, builder.__name__, *args))
            return builder(poset, *args)

        return build

    for name in ("ensemble_lin", "ensemble_rpp", "ensemble_uniform", "ensemble_rank"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    monkeypatch.setattr(cli, "SUITE_NAMES", ("appendix", "m-weight", "toggle-symmetry"))
    corpus = [poset for _, poset in cli._labeled_corpus(4)]
    assert run_cli(capsys, "verify", "all", "--max-boxes", "4", "--max-m", "2")[0] == 0
    assert len(builds) == len(set(builds))
    # appendix and m-weight build these first; toggle-symmetry reads them again
    for poset in corpus:
        assert (poset, "ensemble_lin") in builds
        for m in (1, 2):
            assert (poset, "ensemble_rpp", m, "direct") in builds
            assert (poset, "ensemble_rpp", m, "via_theta_m") in builds


def test_verify_makes_each_call_factor_once_per_run(capsys, monkeypatch):
    made: list[Poset] = []

    def counted(poset):
        made.append(poset)
        return gf_bsv(poset)

    def suite(args):
        rect = cli._poset("rect:2x3")
        return [
            cli._row("demo:a", "demo", (cli._Call(counted, rect),), (cli._Call(gf_bsv, rect),)),
            cli._row("demo:b", "demo", (cli._Call(counted, rect), qnum(1)), (cli._Call(gf_bsv, rect),)),
            # the value at t = 1 reads the same call
            cli._row(
                "demo:c", "demo",
                (cli._Call(cli._at_t1, counted, rect),), (cli._Call(cli._at_t1, gf_bsv, rect),),
            ),
        ]

    monkeypatch.setitem(cli.SUITES, "paths", suite)
    assert run_cli(capsys, "verify", "paths")[0] == 0
    assert made == [cli._poset("rect:2x3")]
    assert run_cli(capsys, "verify", "paths")[0] == 0
    assert len(made) == 2  # the next run makes it again


def test_verify_computes_each_engine_total_once(capsys, monkeypatch):
    """The normalizers, oracle sides and product rows of a run ask for the
    same ``comaj_gf(P)`` and ``filling_gf(P, m)`` many times; only the first
    call on a poset runs a DP (``engine._exact``), the others read the total
    kept with the poset's J(P)."""
    runs: list[None] = []
    computed: list[tuple[Poset, tuple]] = []
    exact = engine._exact

    def counted_exact(*args):
        runs.append(None)
        return exact(*args)

    def spy(total):
        def call(poset, *args):
            before = len(runs)
            out = total(poset, *args)
            if len(runs) > before:
                computed.append((poset, args))
            return out

        return call

    monkeypatch.setattr(engine, "_exact", counted_exact)
    for name in ("comaj_gf", "filling_gf"):
        monkeypatch.setattr(engine, name, spy(getattr(engine, name)))
    assert run_cli(capsys, "verify", "all", "--json")[0] == 0
    keys = [(id(poset), args) for poset, args in computed]  # the posets stay alive in computed
    assert len(keys) == len(set(keys))
    assert {args for _, args in computed} >= {(), (1,), (2,), (3,), (4,)}


def test_verify_checks_each_ensemble_once(capsys, monkeypatch):
    checked: list[WeightedEnsemble] = []
    check_toggle_symmetry = cli.check_toggle_symmetry

    def counted(ensemble):
        checked.append(ensemble)
        return check_toggle_symmetry(ensemble)

    monkeypatch.setattr(cli, "check_toggle_symmetry", counted)
    code, out, _ = run_cli(capsys, "verify", "toggle-symmetry", "--max-boxes", "4", "--json")
    assert code == 0
    # the two routes to each bounded ensemble give equal ensembles, checked once
    assert len(checked) == len(set(checked)) < len(json.loads(out)["checks"])


def test_verify_repeats_in_process(capsys):
    def report() -> dict:
        code, out, _ = run_cli(capsys, "verify", "toggle-symmetry", "--max-boxes", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        for check in payload["checks"]:
            del check["seconds"]
        return payload

    assert report() == report()


def test_run_checks_sorted_by_id():
    order = []
    checks = [
        Check("b", "x", lambda: (order.append("b") or True, None, None)),
        Check("a", "x", lambda: (order.append("a") or True, None, None)),
    ]
    records = _run_checks(checks)
    assert [record.id for record in records] == ["a", "b"]
    assert order == ["a", "b"]


def all_checks() -> list[Check]:
    """Every check of ``verify all`` at default caps, built and not run."""
    args = cli.build_parser().parse_args(["verify", "all"])
    return [check for name in cli.SUITE_NAMES for check in cli.SUITES[name](args)]


def test_check_inventory_pinned():
    # A renamed, dropped or duplicated check changes the count or the digest.
    checks = all_checks()
    assert len(checks) == 1072
    assert len({check.id for check in checks}) == len(checks)
    lines = "\n".join(sorted(f"{check.id} {check.anchor}" for check in checks))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "dbde283c2df29d0a22dd1d10a01f08195de30b7c0d0308b6d29d2217ad615f5c"


def _callables(value: object):
    """Every callable in ``value``, searched through nested tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from _callables(item)
    elif callable(value):
        yield value


def test_checks_are_data():
    # product rows hold functions in their params too, so all are inspected
    checks = all_checks()
    found = 0
    for check in checks:
        assert isinstance(check.params, tuple), check.id
        for fn in _callables((check.fn, check.params)):
            found += 1
            assert inspect.isfunction(fn), (check.id, fn)
            assert fn.__closure__ is None, (check.id, fn)
            assert "<locals>" not in fn.__qualname__, (check.id, fn)
            assert getattr(sys.modules[fn.__module__], fn.__name__) is fn, (check.id, fn)
    assert found > len(checks)  # more than one per check: the search reaches into params


@pytest.mark.parametrize("flag", ["--max-a", "--max-b", "--max-m", "--max-boxes", "--max-l"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_caps_must_be_positive(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-syt", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "positive integer" in err


def test_rpp_modes_leave_one_ensemble_in_the_memo():
    cli._clear_run_memo()
    poset = cli._poset("shape:2,1")
    try:
        assert cli._check_rpp_modes(poset, 2) == (True, None, None)
        direct = cli._built(cli.ensemble_rpp, poset, 2, "direct")
        assert cli._built(cli.ensemble_rpp, poset, 2, "via_theta_m") is direct
    finally:
        cli._clear_run_memo()


def test_verify_lists_each_posets_extensions_once(capsys, monkeypatch):
    cli._clear_run_memo()  # building checks outside a run fills it too
    corpus = [poset for _, poset in cli._labeled_corpus(7)]
    cli._clear_run_memo()
    listed: list = []
    held: list[tuple[int, int]] = []
    enumerate_linear_extensions, clear_run_memo = cli.enumerate_linear_extensions, cli._clear_run_memo

    def counted(poset):
        listed.append(poset)
        return enumerate_linear_extensions(poset)

    def extension_lists_in_memo() -> int:
        return sum(key[0] is cli._extensions for key in cli._BUILT)

    def clear_counted():
        before = extension_lists_in_memo()
        clear_run_memo()
        held.append((before, extension_lists_in_memo()))

    monkeypatch.setattr(cli, "enumerate_linear_extensions", counted)
    monkeypatch.setattr(cli, "_clear_run_memo", clear_counted)
    assert run_cli(capsys, "verify", "all")[0] == 0
    # appendix:bijection and m-weight:factorization share one list per poset
    assert sorted(map(repr, listed)) == sorted(map(repr, corpus))
    assert len(set(listed)) == len(listed) == len(corpus)
    assert held == [(len(corpus), 0)]


def test_verify_takes_minuscule_posets_from_the_run_memo(capsys, monkeypatch):
    # the memo's posets are the ones build_minuscule gives, covers and boxes too
    for k in (2, 3):
        memo, built = cli._poset(cli._staircase(k)), build_minuscule("shifted_staircase", k)
        assert (memo.n, memo.covers, memo.coords) == (built.n, built.covers, built.coords)
    for name in ("E6", "E7"):
        memo, built = cli._poset(f"minuscule:{name}"), build_minuscule(name)
        assert (memo.n, memo.covers, memo.coords) == (built.n, built.covers, built.coords)
    cli._clear_run_memo()

    direct: list[tuple] = []
    built_args: list[tuple] = []

    def spy(*args):
        direct.append(args)
        return build_minuscule(*args)

    def counted(*args):
        built_args.append(args)
        return build_minuscule(*args)

    monkeypatch.setattr(cli, "build_minuscule", spy, raising=False)
    monkeypatch.setattr(posets, "build_minuscule", counted)
    assert run_cli(capsys, "verify", "all")[0] == 0
    assert direct == []
    # E6 and E7 come from parsing their specs, once each per run
    assert built_args.count(("E6",)) == built_args.count(("E7",)) == 1
    assert len(built_args) == len(set(built_args))


def test_failing_symmetry_reports_each_expectation_against_zero():
    # all weight on the empty ideal of the 2-chain: 0 can be toggled in there,
    # 1 cannot, so the toggle expectations are 1 and 0
    chain = Poset(2, [(0, 1)])

    def point_mass(poset):
        return WeightedEnsemble.from_weights(poset, {0: QPoly.of([1])}, QPoly.of([1]))

    try:
        ok, lhs, rhs = cli._check_symmetry(chain, point_mass)
    finally:
        cli._clear_run_memo()
    assert (ok, lhs, rhs) == (False, [RatFunc.from_int(1), RatFunc.from_int(0)], [RatFunc.from_int(0)] * 2)


def _answered(**fields):
    """``toggle_solve`` with these fields of its answer replaced."""

    def solve(*args, **kwargs):
        answer = solver.toggle_solve(*args, **kwargs)
        kept = {
            "consistent": answer.consistent,
            "constant": answer.constant,
            "numerators": answer.numerators,
            "denominator": answer.denominator,
            "witness_mask": answer.witness_mask,
        }
        return solver.ToggleSolveResult(**{**kept, **fields})

    return solve


@pytest.mark.parametrize(
    "fields, check, sides",
    [
        ({"witness_mask": 0b110}, (cli._check_shape_solve, (2, 1)), ((False, False), (False, True))),
        (
            {"consistent": True, "witness_mask": None},
            (cli._check_shape_solve, (2, 1)),
            ((True, False), (False, True)),
        ),
        (
            {"consistent": True},
            (cli._check_hook_at_one,),
            ((True, True, RatFunc.from_int(1)), (False, True, RatFunc.from_int(1))),
        ),
        (
            {"consistent": False, "constant": None},
            (cli._check_hook_at_one,),
            ((False, False, None), (False, True, RatFunc.from_int(1))),
        ),
    ],
    ids=["witness-outside-J(P)", "consistent-non-rectangle", "consistent-generic", "inconsistent-at-one"],
)
def test_failing_solver_answers_report_both_sides(monkeypatch, fields, check, sides):
    monkeypatch.setattr(cli, "toggle_solve", _answered(**fields))
    fn, *params = check
    try:
        assert fn(*params) == (False, *sides)
    finally:
        cli._clear_run_memo()


def test_failing_refinements_report_expected_constants_as_objects(capsys, monkeypatch):
    def failing_on_rect22(poset):
        reports = solver.verify_refinements(poset)
        if poset != RECT22:
            return reports
        return tuple(solver.RefinementReport(report.label, False, report.constant) for report in reports)

    monkeypatch.setattr(cli, "verify_refinements", failing_on_rect22)
    code, out, _ = run_cli(capsys, "verify", "solver", "--max-boxes", "2", "--json")
    assert code == 1
    by_id = {check["id"]: check for check in json.loads(out)["checks"]}
    assert [check_id for check_id, check in by_id.items() if check["status"] == "fail"] == [
        "solver:rows:rect:2x2"
    ]
    failed = by_id["solver:rows:rect:2x2"]
    # row i of the 2x2 rectangle: q^(2-i) [2] / [4]
    expected = [RatFunc(QPoly.monomial(1, 2 - i) * qnum(2), qnum(4)) for i in (1, 2)]
    assert failed["lhs"] == [["row:1", "inconsistent"], ["row:2", "inconsistent"]]
    assert failed["rhs"] == [
        [f"row:{i}", {"num": coeff_vector(constant.num), "den": coeff_vector(constant.den)}]
        for i, constant in enumerate(expected, 1)
    ]


def test_wrong_solver_constants_fail_every_constant_row(capsys, monkeypatch):
    def first_wrong(poset):
        first, *rest = solver.verify_refinements(poset)
        return (solver.RefinementReport(first.label, first.consistent, RatFunc.from_int(7)), *rest)

    monkeypatch.setattr(cli, "verify_refinements", first_wrong)
    monkeypatch.setattr(cli, "toggle_solve", _answered(constant=RatFunc.from_int(7)))
    code, out, _ = run_cli(capsys, "verify", "solver", "--max-boxes", "2", "--json")
    assert code == 1
    checks = json.loads(out)["checks"]
    for family in ("solver:rows:", "solver:diagonal:", "solver:staircase:", "solver:rank-constant:"):
        rows = [check for check in checks if check["id"].startswith(family)]
        assert rows, family
        for check in rows:
            assert check["status"] == "fail", check["id"]
            assert check["lhs"] is not None and check["rhs"] is not None
            assert check["lhs"] != check["rhs"]


def test_solver_rows_follow_the_rectangle_caps(capsys):
    code, out, _ = run_cli(capsys, "verify", "solver", "--max-a", "4", "--max-b", "5", "--max-boxes", "1", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    rows = {check["id"]: check["status"] for check in checks if check["id"].startswith("solver:rows:")}
    assert rows == {f"solver:rows:rect:{a}x{b}": "pass" for a in range(1, 5) for b in range(a, 6)}


# ---------------------------------------------------------------------------
# appendix:bijection under broken pairings


def _shifted_prefix(shift: int):
    def pairing(p, ext, y):
        image, y2 = toggle_bijection(p, ext, y)
        return image, y2 + shift

    return pairing


_IN_TOGGLABLE = (("p=0: image pair is in-togglable", False), ("p=0: image pair is in-togglable", True))


@pytest.mark.parametrize(
    "pairing, sides",
    [
        (_shifted_prefix(1), _IN_TOGGLABLE),
        (_shifted_prefix(-1), ("ValueError: prefix length -1 out of range", None)),
        (lambda p, ext, y: (ext, y), _IN_TOGGLABLE),
    ],
    ids=["y-plus-one", "y-minus-one", "out-togglable-pair"],
)
def test_bijection_check_fails_under_a_broken_pairing(monkeypatch, pairing, sides):
    """A broken step reports the two values it compared; a crash, its error."""
    monkeypatch.setattr(cli, "toggle_bijection", pairing)
    poset = cli._poset("shape:3,2,1")
    try:
        [record] = _run_checks([Check("demo", "demo", cli._check_bijection, (poset,))])
    finally:
        cli._clear_run_memo()
    assert (record.ok, record.lhs, record.rhs) == (False, *sides)


def test_bijection_check_fails_under_a_wrong_inverse(monkeypatch):
    def one_longer(p, ext, y):
        back, y3 = inverse_toggle_bijection(p, ext, y)
        return back, y3 + 1

    monkeypatch.setattr(cli, "inverse_toggle_bijection", one_longer)
    poset = cli._poset("shape:3,2,1")
    try:
        [record] = _run_checks([Check("demo", "demo", cli._check_bijection, (poset,))])
    finally:
        cli._clear_run_memo()
    assert not record.ok
    (label, (back, y3)), (expected_label, (values, y)) = record.lhs, record.rhs
    assert label == expected_label == "p=0: inverse image"
    assert (back, y3) == (values, y + 1)


def _toggle_pairs_by_element(poset: Poset, extensions: list) -> tuple[list, list]:
    """The reference for ``cli._toggle_pairs``: every element tested at
    every (T, y)."""
    out_pairs: list[list] = [[] for _ in range(poset.n)]
    in_pairs: list[list] = [[] for _ in range(poset.n)]
    for ext in extensions:
        for y, mask in enumerate(ext.prefix_masks):
            for p in range(poset.n):
                if mask >> p & 1:
                    if not poset.up_masks[p] & mask:
                        out_pairs[p].append((ext, y))
                elif poset.low_masks[p] & mask == poset.low_masks[p]:
                    in_pairs[p].append((ext, y))
    return out_pairs, in_pairs


def test_toggle_pairs_on_the_labeled_corpus():
    try:
        corpus = cli._labeled_corpus(7)
    finally:
        cli._clear_run_memo()
    for label, poset in corpus:
        extensions = list(enumerate_linear_extensions(poset))
        assert cli._toggle_pairs(poset, extensions) == _toggle_pairs_by_element(poset, extensions), label


@given(naturally_labeled_posets(max_n=7))
@settings(max_examples=50, deadline=None)
def test_toggle_pairs_on_random_posets(poset):
    extensions = list(enumerate_linear_extensions(poset))
    assert cli._toggle_pairs(poset, extensions) == _toggle_pairs_by_element(poset, extensions)


# ---------------------------------------------------------------------------
# bijection trace


def test_bijection_trace_forward(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "trace", "rect:2x2", "--tableau", "1,2/3,4", "--p", "3", "--y", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case: L1/R0"
    assert "y' = 3  z = 4" in lines
    assert "theta: 1 -> q" in lines


def test_bijection_trace_inverse(capsys):
    code, out, _ = run_cli(
        capsys,
        "bijection", "trace", "rect:2x2",
        "--tableau", "1,2/3,4", "--p", "3", "--y", "3", "--inverse",
    )
    assert code == 0
    assert out.splitlines()[0] == "inverse image: y = 4"
    assert "theta: q -> 1" in out.splitlines()


def test_bijection_trace_errors(capsys):
    bad_pair = run_cli(
        capsys, "bijection", "trace", "rect:2x2", "--tableau", "1,2/3,4", "--p", "3", "--y", "3"
    )
    assert bad_pair[0] == 2
    bad_shape = run_cli(
        capsys, "bijection", "trace", "rect:2x2", "--tableau", "1,2,3/4,5", "--p", "0", "--y", "1"
    )
    assert bad_shape[0] == 2
    for argv in (
        ("--tableau", "1,2|3/4,5", "--p", "1", "--y", "2"),
        ("--tableau", "1|2,3/4,5", "--p", "0", "--y", "1", "--inverse"),
    ):
        code, out, err = run_cli(capsys, "bijection", "trace", "rect:2x2", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "doubled cell" in err
    code, out, err = run_cli(
        capsys, "bijection", "trace", "rect:2x2", "--tableau", "1|8|9,2/3,4", "--p", "1", "--y", "2"
    )
    assert (code, out, err) == (2, "", "error: cell '1|8|9' holds more than two values\n")
    for argv in (("--p", "4", "--inverse"), ("--p", "-1"), ("--p", "4")):
        code, out, err = run_cli(
            capsys, "bijection", "trace", "rect:2x2", "--tableau", "1,2/3,4", "--y", "1", *argv
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "out of range" in err


# ---------------------------------------------------------------------------
# console script


def test_console_script_installed():
    """The `qtab` entry point in pyproject.toml runs as a command.

    The target is run the way an installer's launcher runs it, against the
    package this suite imported; an installed `qtab` on PATH must agree.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["qtab"]
    module, func = target.split(":")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [([sys.executable, "-c", launcher], env)]
    installed = shutil.which("qtab")
    if installed is not None:
        commands.append(([installed], None))

    for command, command_env in commands:
        result = subprocess.run(
            [*command, "gf", "rect:2x2", "comaj"], capture_output=True, text=True, env=command_env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "1 + q^2"
        # main()'s return code must reach the process exit status.
        bad = subprocess.run(
            [*command, "gf", "nonsense:1", "comaj"], capture_output=True, text=True, env=command_env
        )
        assert bad.returncode == 2, bad.stderr


@pytest.mark.parametrize(
    "doc",
    [{"n": 10**9, "covers": []}, {"n": 10**9, "covers": [], "labeling": [1]}],
    ids=["default-labeling", "short-labeling"],
)
def test_huge_json_poset_is_refused_before_it_is_built(tmp_path, doc):
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))

    def limit_memory():
        # 10^9 labels take tens of GB: a regression ends in MemoryError, not swap
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "qtab.cli", "gf", str(path), "comaj"],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: n = 1000000000 with 0 covers: ")
    assert "2^1000000000 order ideals" in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_closed_stdout_exits_quietly():
    """`qtab gf rect:6x6 comaj | head -c 50` ends without a traceback."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    read_fd, write_fd = os.pipe()
    # A one-page pipe holds less than the 14 kB output, so the writer is
    # still blocked when the reader goes away.
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtab.cli", "gf", "rect:6x6", "comaj"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    head = os.read(read_fd, 50)
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b"1 + q^2")
    assert err == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
