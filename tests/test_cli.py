"""Tests for the command-line front end."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qtab import cli, posets, solver
from qtab.cli import Check, _run_checks, main
from qtab.extensions import gf_bsv, gf_comaj
from qtab.posets import build_minuscule, build_rectangle, build_shape
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
from qtab.togglebij import toggle_bijection

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
    ],
)
def test_gf_rejects_bad_poset_files(capsys, tmp_path, doc):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(doc))
    for argv in (("comaj",), ("bsv-comaj", "--refined")):
        code, out, err = run_cli(capsys, "gf", str(path), *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


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
    """Too many order ideals for the system is a usage error, not a traceback."""
    monkeypatch.setattr(solver, "ROW_LIMIT", 3)
    code, out, err = run_cli(capsys, "solve", "rect:2x2", "ddeg")
    assert code == 2
    assert out == ""
    assert err == "error: 6 ideals exceed the row limit 3\n"


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
    lhs = ((gf_bsv, RECT22), qnum(4))
    rhs = (qt_num(2), qnum(2), qnum(4), (gf_comaj, RECT22))
    [record] = _run_checks([cli._row("demo:product", "demo", lhs, rhs)])
    assert not record.ok
    assert record.lhs == gf_bsv(RECT22) * qnum(4)
    assert record.rhs == qt_num(2) * qnum(2) * qnum(4) * gf_comaj(RECT22)

    wrong_constant = RatFunc(qnum(2), qnum(3))
    failing = [
        cli._row("demo:product", "demo", lhs, rhs),
        Check("demo:constant", "demo", cli._check_constant, (build_shape((2, 1)), wrong_constant)),
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


def _memo_sizes() -> tuple[int, int]:
    return len(cli._POSETS), len(cli._BUILT)


def _crash(seen: list, error: BaseException) -> tuple[bool, object, object]:
    seen.append(_memo_sizes())
    raise error


@pytest.mark.parametrize("error", [ZeroDivisionError("boom"), _Abort()])
def test_verify_empties_its_memo(capsys, monkeypatch, error):
    seen: list[tuple[int, int]] = []
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
    assert seen == [(1, 1)]
    assert _memo_sizes() == (0, 0)

    assert run_cli(capsys, "verify", "toggle-symmetry", "--max-boxes", "3", "--max-m", "1")[0] == 0
    assert _memo_sizes() == (0, 0)


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

    def lists_in_memo() -> int:
        return sum(isinstance(value, list) for value in cli._BUILT.values())

    def clear_counted():
        before = lists_in_memo()
        clear_run_memo()
        held.append((before, lists_in_memo()))

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


def test_failing_refinements_report_expected_constants_as_objects(capsys, monkeypatch):
    def failing_on_rect22(poset):
        reports = solver.verify_refinements(poset)
        if poset != RECT22:
            return reports
        return tuple(dataclasses.replace(report, consistent=False) for report in reports)

    monkeypatch.setattr(cli, "verify_refinements", failing_on_rect22)
    code, out, _ = run_cli(capsys, "verify", "solver", "--max-boxes", "2", "--json")
    assert code == 1
    by_id = {check["id"]: check for check in json.loads(out)["checks"]}
    assert [check_id for check_id, check in by_id.items() if check["status"] == "fail"] == [
        "solver:rows:rect:2x2"
    ]
    failed = by_id["solver:rows:rect:2x2"]
    expected = [report.expected for report in solver.verify_refinements(RECT22)]
    assert failed["lhs"] == ["row:1", "row:2"]
    assert failed["rhs"] == [
        {"num": coeff_vector(constant.num), "den": coeff_vector(constant.den)} for constant in expected
    ]


# ---------------------------------------------------------------------------
# appendix:bijection under broken pairings


def _shifted_prefix(shift: int):
    def pairing(p, ext, y):
        image, y2 = toggle_bijection(p, ext, y)
        return image, y2 + shift

    return pairing


@pytest.mark.parametrize(
    "pairing, message",
    [
        (_shifted_prefix(1), "p=0: image pair is not in-togglable"),
        (_shifted_prefix(-1), "ValueError: prefix length -1 out of range"),
        (lambda p, ext, y: (ext, y), "p=0: image pair is not in-togglable"),
    ],
    ids=["y-plus-one", "y-minus-one", "out-togglable-pair"],
)
def test_bijection_check_fails_under_a_broken_pairing(monkeypatch, pairing, message):
    monkeypatch.setattr(cli, "toggle_bijection", pairing)
    poset = cli._poset("shape:3,2,1")
    try:
        [record] = _run_checks([Check("demo", "demo", cli._check_bijection, (poset,))])
    finally:
        cli._clear_run_memo()
    assert (record.ok, record.lhs, record.rhs) == (False, message, None)


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
