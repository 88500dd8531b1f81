"""The jobs of each workload and the reference check of every answer.

Each job builds its own posets, so cached ideals and cover masks are paid for
inside the job, as a CLI user pays for them on every invocation.  The checks
run after the timed region and use an independent route to each answer: a
product formula, an identity with other generating functions, or the
counting oracle in ``inputs``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import qtab
import qtab.cli
from qtab import QPoly, RatFunc, qbinom, qnum, qt_num

import inputs


@dataclass(frozen=True)
class Job:
    """A timed call and its reference check, run after the timed region.

    ``check`` returns (checks attempted, checks failed) for the answer.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]


def one(ok: bool) -> tuple[int, int]:
    return 1, 0 if ok else 1


# ---------------------------------------------------------------------------
# count: enumeration-bound generating functions and ensembles


def rect(a: int, b: int) -> qtab.Poset:
    # looked up on each call, so a traced pass sees the wrapped builder
    return qtab.build_rectangle(a, b)


def hook(partition: tuple[int, ...]) -> QPoly:
    return qtab.gf_comaj_hook_formula(partition)


def bsv_rect_ok(gf: object, a: int, b: int) -> bool:
    """gf_bsv * [a+b] = [a]_(q,t) [b] [ab+1] gf_comaj on the a x b rectangle."""
    return gf * qnum(a + b) == qt_num(a) * qnum(b) * qnum(a * b + 1) * hook((b,) * a)


def bsv_rpp_rect_ok(gf: object, a: int, b: int, m: int) -> bool:
    """gf_bsv_rpp * [a+b] = [a]_(q,t) [b] [m] MacMahon(a, b, m)."""
    return gf * qnum(a + b) == qt_num(a) * qnum(b) * qnum(m) * qtab.macmahon_gf(a, b, m)


def symmetric(ensemble: object) -> tuple[int, int]:
    return one(qtab.check_toggle_symmetry(ensemble))


def count_jobs(drawn: list[dict]) -> list[Job]:
    jobs = [
        Job("gf_comaj rect:4x4", lambda: qtab.gf_comaj(rect(4, 4)),
            lambda gf: one(gf == hook((4, 4, 4, 4)))),
        Job("gf_comaj shape:5,4,3,2,1", lambda: qtab.gf_comaj(qtab.build_shape((5, 4, 3, 2, 1))),
            lambda gf: one(gf == hook((5, 4, 3, 2, 1)))),
        Job("gf_bsv rect:4x4", lambda: qtab.gf_bsv(rect(4, 4)),
            lambda gf: one(bsv_rect_ok(gf, 4, 4))),
        Job("rpp_size_gf E7 m=3", lambda: qtab.rpp_size_gf(qtab.build_minuscule("E7"), 3),
            lambda gf: one(gf == qtab.minuscule_gf(qtab.build_minuscule("E7"), 3))),
        Job("rpp_size_series rect:3x3 cap=30", lambda: qtab.rpp_size_series(rect(3, 3), 30),
            lambda gf: one(gf == qtab.gansner_series((3, 3, 3), 30))),
        Job("gf_bsv_rpp rect:3x3 m=3", lambda: qtab.gf_bsv_rpp(rect(3, 3), 3),
            lambda gf: one(bsv_rpp_rect_ok(gf, 3, 3, 3))),
        Job("ensemble_lin rect:3x4", lambda: qtab.ensemble_lin(rect(3, 4)), symmetric),
        Job("ensemble_rpp rect:3x3 m=2 direct", lambda: qtab.ensemble_rpp(rect(3, 3), 2), symmetric),
        Job("ensemble_rpp rect:3x3 m=2 via_theta_m",
            lambda: qtab.ensemble_rpp(rect(3, 3), 2, mode="via_theta_m"), symmetric),
    ]
    for k, spec in enumerate(drawn):
        covers = [tuple(c) for c in spec["covers"]]
        n = spec["n"]
        jobs.append(Job(
            f"gf_comaj random:{k}",
            lambda n=n, covers=covers: qtab.gf_comaj(qtab.Poset(n, covers)),
            lambda gf, want=spec["comaj"]: one(list(gf.coeffs) == want),
        ))
        jobs.append(Job(
            f"rpp_size_gf random:{k} m={inputs.FILLING_BOUND}",
            lambda n=n, covers=covers: qtab.rpp_size_gf(qtab.Poset(n, covers), inputs.FILLING_BOUND),
            lambda gf, want=spec["fillings"]: one(list(gf.coeffs) == want),
        ))
    return jobs


# ---------------------------------------------------------------------------
# solve: the polynomial kernel and the fraction-free solver


def ddeg_solve(poset: qtab.Poset) -> object:
    return qtab.toggle_solve(poset, qtab.statistic_ddeg(poset))


def rect_constant_ok(result: object, a: int, b: int) -> tuple[int, int]:
    return one(result.consistent and result.constant == RatFunc(qnum(a) * qnum(b), qnum(a + b)))


def refinements_ok(reports: tuple, expected: dict[str, RatFunc]) -> tuple[int, int]:
    got = {report.label: (report.consistent, report.constant) for report in reports}
    return one(got == {label: (True, constant) for label, constant in expected.items()})


def row_constants(a: int, b: int) -> dict[str, RatFunc]:
    """Row i of the a x b rectangle: q^(a-i) [b] / [a+b]."""
    return {
        f"row:{i}": RatFunc(QPoly.monomial(1, a - i) * qnum(b), qnum(a + b))
        for i in range(1, a + 1)
    }


def diagonal_constants(k: int) -> dict[str, RatFunc]:
    """Staircase k: [k]_(q^2) / [2k] on the diagonal, q [k choose 2] / [2k] off it."""
    on = QPoly.of([1 - e % 2 for e in range(2 * k - 1)])
    return {
        "diagonal": RatFunc(on, qnum(2 * k)),
        "off-diagonal": RatFunc(qbinom(k, 2) * QPoly.monomial(1, 1), qnum(2 * k)),
    }


def witness_ok(result: object, partition: tuple[int, ...]) -> tuple[int, int]:
    """Inconsistent, with a witness that is an order ideal of the shape."""
    poset = qtab.build_shape(partition)
    ideals = inputs.ideals(poset.n, list(poset.covers))
    return one(not result.consistent and result.witness_mask in ideals)


def solve_jobs() -> list[Job]:
    jobs = [
        Job(f"toggle_solve ddeg rect:{a}x{b}", lambda a=a, b=b: ddeg_solve(rect(a, b)),
            lambda result, a=a, b=b: rect_constant_ok(result, a, b))
        for a, b in ((4, 4), (5, 5), (5, 6))
    ]
    jobs += [
        Job("verify_refinements rect:4x4", lambda: qtab.verify_refinements(rect(4, 4)),
            lambda reports: refinements_ok(reports, row_constants(4, 4))),
        Job("verify_refinements shifted:4,3,2,1",
            lambda: qtab.verify_refinements(qtab.build_shifted((4, 3, 2, 1))),
            lambda reports: refinements_ok(reports, diagonal_constants(4))),
        Job("toggle_solve ddeg shape:4,3,2,1", lambda: ddeg_solve(qtab.build_shape((4, 3, 2, 1))),
            lambda result: witness_ok(result, (4, 3, 2, 1))),
    ]
    return jobs


# ---------------------------------------------------------------------------
# verify: the acceptance battery through the CLI entry point


@dataclass(frozen=True)
class VerifyRun:
    """The report of ``verify all --json``; check timings stay out of its repr."""

    code: int
    report: dict
    seconds: list[float] = field(repr=False)


def run_verify_all() -> VerifyRun:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qtab.cli.main(["verify", "all", "--json"])
    report = json.loads(out.getvalue())
    seconds = [check.pop("seconds") for check in report["checks"]]
    return VerifyRun(code, report, seconds)


def verify_ok(run: VerifyRun) -> tuple[int, int]:
    checks = run.report["checks"]
    failed = sum(1 for check in checks if check["status"] != "pass")
    if run.code != 0 or not run.report["ok"]:
        failed = max(failed, 1)
    return max(len(checks), 1), failed


WORKLOADS: dict[str, Callable[[list[dict]], list[Job]]] = {
    "count": count_jobs,
    "solve": lambda drawn: solve_jobs(),
    "verify": lambda drawn: [Job("verify all --json", run_verify_all, verify_ok)],
}


def digest(answers: list[object]) -> str:
    """Hash of the answers, to compare the passes of one run."""
    return hashlib.sha256("\n".join(map(repr, answers)).encode()).hexdigest()
