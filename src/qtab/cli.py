"""Command-line front end: generating functions, verification suites, solver.

Subcommands
-----------
``gf``        print a generating function for a poset spec
``verify``    run a named invariant suite and report per-check results
``solve``     solve the toggle-constant system for one statistic
``bijection`` trace the toggle pairing on one tableau

Every size cap defaults to the value used by the acceptance gate, so
``qtab verify all`` runs the full battery.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Any, Callable, Sequence

from .distributions import (
    Statistic,
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
)
from .extensions import (
    LinearExtension,
    d_star,
    descents,
    enumerate_bsv,
    comaj_plus,
    enumerate_linear_extensions,
    format_tableau,
    gf_bsv,
    gf_comaj,
    gf_comaj_hook_formula,
    parse_tableau,
)
from .paths import (
    catalan_number,
    catalan_sum_check,
    narayana_check,
    rbmotz_counts,
    two_row_tally,
    verify_cor_dyck_gen_fun,
)
from .posets import (
    NotGraded,
    Poset,
    PosetSpecError,
    UnsupportedPoset,
    build_shape,
    ideal_members,
    is_self_dual,
    order_ideals,
    parse_poset_spec,
    rank_data,
)
from .ppartitions import (
    bender_knuth_gf,
    gf_bsv_rpp,
    macmahon_gf,
    minuscule_gf,
    rpp_size_gf,
    rpp_size_series,
)
from .qpoly import (
    QPoly,
    QTPoly,
    RatFunc,
    _add,
    coeff_vector,
    format_poly,
    qbinom,
    qnum,
    qt_coeff_vector,
    qt_num,
)
from .solver import (
    RowLimitExceeded,
    statistic_diagonal,
    statistic_row,
    toggle_solve,
    verify_refinements,
)
from .togglebij import (
    PNotTogglableIn,
    PNotTogglableOut,
    classify,
    escalate,
    inverse_toggle_bijection,
    toggle_bijection,
)

REPORT_VERSION = 1
DEFAULT_DEGREE_CAP = 20

GF_KINDS = ("comaj", "bsv-comaj", "rpp", "bsv-rpp")


# Exit code when the reader closes stdout early, as a shell reports a process
# killed by SIGPIPE (128 + 13).
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    """A runtime argument problem reported with exit code 2."""


# ---------------------------------------------------------------------------
# check plumbing


@dataclass(frozen=True)
class Check:
    """One named verification: ``fn(*params)`` returns (ok, lhs, rhs).

    ``fn`` is a module-level function and ``params`` holds its arguments, so a
    check is plain data that can be listed, counted and compared unrun.
    """

    id: str
    anchor: str
    fn: Callable[..., tuple[bool, object, object]]
    params: tuple = ()


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check, with the mismatching sides kept on failure."""

    id: str
    anchor: str
    ok: bool
    seconds: float
    lhs: object
    rhs: object


def _vec(value: object) -> object:
    """JSON-ready rendering: polynomials become coefficient vectors."""
    if isinstance(value, QPoly):
        return coeff_vector(value)
    if isinstance(value, QTPoly):
        return qt_coeff_vector(value)
    if isinstance(value, RatFunc):
        return {"num": coeff_vector(value.num), "den": coeff_vector(value.den)}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_vec(item) for item in value]
    return str(value)


def _eq(lhs: object, rhs: object) -> tuple[bool, object, object]:
    return lhs == rhs, lhs, rhs


def _run_checks(checks: Sequence[Check]) -> list[CheckRecord]:
    """Run the checks one after another in id order; a crash is a failure."""
    records = []
    for check in sorted(checks, key=lambda check: check.id):
        start = time.perf_counter()
        try:
            ok, lhs, rhs = check.fn(*check.params)
        except Exception as exc:  # a crashing check is a failing check
            ok, lhs, rhs = False, f"{type(exc).__name__}: {exc}", None
        records.append(CheckRecord(check.id, check.anchor, ok, time.perf_counter() - start, lhs, rhs))
    return records


# ---------------------------------------------------------------------------
# run-scoped memo

# Filled while ``cmd_verify`` builds and runs its checks, and emptied as soon
# as they have run.  Until then the suites share one poset per spec, with the
# J(P), ideal edges and order dual cached on it, one list of linear extensions
# per poset, and one ensemble or tableau tally per (builder, *args).
_POSETS: dict[str, Poset] = {}
_BUILT: dict[tuple, object] = {}


def _poset(spec: str) -> Poset:
    """The poset a spec names, parsed once per run."""
    poset = _POSETS.get(spec)
    if poset is None:
        poset = _POSETS[spec] = parse_poset_spec(spec)
    return poset


def _built(builder: Callable, *args: object) -> Any:
    """``builder(*args)``, built once per run."""
    key = (builder, *args)
    value = _BUILT.get(key)
    if value is None:
        value = _BUILT[key] = builder(*args)
    return value


def _extension_list(poset: Poset) -> list[LinearExtension]:
    """The poset's linear extensions, enumerated once per run."""
    return _built(_extensions, poset)


def _extensions(poset: Poset) -> list[LinearExtension]:
    return list(enumerate_linear_extensions(poset))


def _clear_run_memo() -> None:
    _POSETS.clear()
    _BUILT.clear()


# ---------------------------------------------------------------------------
# corpora


def _partitions(max_boxes: int, strict: bool = False) -> list[tuple[int, ...]]:
    """Partitions of 1..max_boxes boxes, distinct parts only when ``strict``."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            rec(remaining - part, part - 1 if strict else part, prefix)
            prefix.pop()

    for total in range(1, max_boxes + 1):
        rec(total, total, [])
    return out


def _shape_label(lam: Sequence[int]) -> str:
    return "shape:" + ",".join(str(part) for part in lam)


def _members(*specs: str) -> list[tuple[str, Poset]]:
    """Each poset spec with the poset it names; the spec doubles as its label."""
    return [(spec, _poset(spec)) for spec in specs]


def _labeled_corpus(max_boxes: int) -> list[tuple[str, Poset]]:
    """Shapes up to the cap plus the staircase and propeller family members."""
    shapes = [_shape_label(lam) for lam in _partitions(max_boxes)]
    extras = ("shifted:2,1", "shifted:3,2,1", "minuscule:propeller:2", "minuscule:propeller:3")
    return [(label, poset) for label, poset in _members(*shapes, *extras) if poset.n <= max_boxes]


def _cap(value: int | None, default: int) -> int:
    return default if value is None else value


# ---------------------------------------------------------------------------
# verification suites
#
# Most product-formula checks are rows of one check, ``_check_product``.  The
# suites build their rows when they run, so a tracer that has swapped module
# functions for wrappers by then sees the wrapped calls.


def _check_product(lhs: tuple, rhs: tuple) -> tuple[bool, object, object]:
    """Each side's factors, multiplied from left to right, give equal products.

    A factor is a polynomial, used as it is, or a call ``(fn, *args)`` made
    when the check runs.
    """
    return _eq(reduce(mul, map(_factor, lhs)), reduce(mul, map(_factor, rhs)))


def _factor(factor: object) -> object:
    return factor[0](*factor[1:]) if isinstance(factor, tuple) else factor


def _at_t1(fn: Callable, *args: object) -> QPoly:
    """``fn(*args)`` at t = 1, as a call factor."""
    return fn(*args).at_t1()


def _row(check_id: str, anchor: str, lhs: tuple, rhs: tuple) -> Check:
    return Check(check_id, anchor, _check_product, (lhs, rhs))


def _rect_lin_row(check_id: str, a: int, b: int) -> Check:
    rect = _poset(f"rect:{a}x{b}")
    return _row(
        check_id, "rectangle-row-refined-identity",
        ((gf_bsv, rect), qnum(a + b)), (qt_num(a), qnum(b), qnum(a * b + 1), (gf_comaj, rect)),
    )


def _staircase(k: int) -> str:
    """The spec of the shifted staircase with k rows."""
    return "shifted:" + ",".join(str(part) for part in range(k, 0, -1))


def _suite_thm_syt(args: argparse.Namespace) -> list[Check]:
    max_boxes = _cap(args.max_boxes, 16)
    checks = [
        _rect_lin_row(f"thm-syt:rect:{a}x{b}", a, b)
        for a in range(1, _cap(args.max_a, 16) + 1)
        for b in range(a, _cap(args.max_b, 16) + 1)
        if a * b <= max_boxes
    ]
    for lam in _partitions(min(max_boxes, 8)):
        label = _shape_label(lam)
        checks.append(_row(
            f"thm-syt:hooks:{label}", "hook-product-q-count",
            ((gf_comaj, _poset(label)),), ((gf_comaj_hook_formula, lam, False),),
        ))
    return checks


def _suite_thm_pp(args: argparse.Namespace) -> list[Check]:
    max_m = _cap(args.max_m, 4)
    checks = []
    for a in range(1, _cap(args.max_a, 3) + 1):
        for b in range(a, _cap(args.max_b, 3) + 1):
            rect = _poset(f"rect:{a}x{b}")
            checks.append(_rect_lin_row(f"thm-pp:refined-lin:rect:{a}x{b}", a, b))
            for m in range(1, max_m + 1):
                checks.append(_row(
                    f"thm-pp:bounded:rect:{a}x{b}:m{m}", "rectangle-bounded-identity",
                    ((_at_t1, gf_bsv_rpp, rect, m), qnum(a + b)),
                    (qnum(a), qnum(b), qnum(m), (macmahon_gf, a, b, m)),
                ))
            if b > 2:  # the row-refined bounded rows stop at 2x2
                continue
            for m in range(1, min(max_m, 3) + 1):
                checks.append(_row(
                    f"thm-pp:refined-rpp:rect:{a}x{b}:m{m}", "rectangle-bounded-row-refined-identity",
                    ((gf_bsv_rpp, rect, m), qnum(a + b)),
                    (qt_num(a), qnum(b), qnum(m), (macmahon_gf, a, b, m)),
                ))
    return checks


def _check_symmetry(poset: Poset, make_ensemble: Callable, *extra: object) -> tuple[bool, object, object]:
    """``make_ensemble(poset, *extra)`` has toggle expectation zero at every element."""
    ensemble = _built(make_ensemble, poset, *extra)
    if check_toggle_symmetry(ensemble):
        return True, None, None
    failures = [_vec(expectation(ensemble, statistic_toggle(poset, p))) for p in range(poset.n)]
    return False, failures, None


def _suite_toggle_symmetry(args: argparse.Namespace) -> list[Check]:
    max_m = _cap(args.max_m, 3)
    checks = []
    for label, poset in _labeled_corpus(_cap(args.max_boxes, 7)):
        families: list[tuple[str, tuple]] = [
            ("uni", (ensemble_uniform,)),
            ("lin", (ensemble_lin,)),
        ]
        try:
            rank_data(poset)
        except NotGraded:
            pass
        else:
            families.append(("rank", (ensemble_rank,)))
        for m in range(1, max_m + 1):
            for mode in ("direct", "via_theta_m"):
                families.append((f"rpp:m{m}:{mode}", (ensemble_rpp, m, mode)))
        for family, make in families:
            checks.append(
                Check(
                    f"toggle-symmetry:{label}:{family}",
                    "toggle-expectation-zero",
                    _check_symmetry,
                    (poset, *make),
                )
            )
    return checks


def _check_rpp_modes(poset: Poset, m: int) -> tuple[bool, object, object]:
    direct = _built(ensemble_rpp, poset, m, "direct")
    via = _built(ensemble_rpp, poset, m, "via_theta_m")
    ok = direct.weights == via.weights and direct.normalizer == via.normalizer
    if ok:
        # later via-route checks read the equal direct ensemble; the via one is freed
        _BUILT[(ensemble_rpp, poset, m, "via_theta_m")] = direct
        return True, None, None
    return False, _vec(direct.weights), _vec(via.weights)


def _check_theta_m_factorization(poset: Poset, m: int) -> tuple[bool, object, object]:
    n = poset.n
    total: list[int] = []
    for ext in _extension_list(poset):
        des = descents(ext)
        for i in range(n + 1):
            value = theta_m(ext, i, m)
            product = theta(ext, i) * qbinom(m + n - len(des - {i}), n + 1)
            if value != product:
                return False, value, product
            _add(total, value.coeffs)
    return _eq(QPoly.of(total), qnum(m) * rpp_size_gf(poset, m))


def _suite_m_weight(args: argparse.Namespace) -> list[Check]:
    corpus = _labeled_corpus(_cap(args.max_boxes, 7))
    modes_max_m = _cap(args.max_m, 3)
    fact_max_m = _cap(args.max_m, 4)
    checks = []
    for label, poset in corpus:
        for m in range(1, modes_max_m + 1):
            checks.append(
                Check(
                    f"m-weight:modes:{label}:m{m}",
                    "bounded-ensemble-two-routes",
                    _check_rpp_modes,
                    (poset, m),
                )
            )
        if poset.n <= 6:
            for m in range(1, fact_max_m + 1):
                checks.append(
                    Check(
                        f"m-weight:factorization:{label}:m{m}",
                        "bounded-weight-factorization",
                        _check_theta_m_factorization,
                        (poset, m),
                    )
                )
    return checks


def _check_staircase_diag(k: int) -> tuple[bool, object, object]:
    poset = _poset(_staircase(k))
    acc: dict[tuple[int, int], int] = {}
    for bsv in enumerate_bsv(poset):
        key = (comaj_plus(bsv), d_star(bsv))
        acc[key] = acc.get(key, 0) + 1
    lhs = QTPoly.of(acc) * qnum(2 * k)
    bracket_k_q2 = qnum(k).substitute(2)
    split = QTPoly.from_qpoly(qbinom(k, 2).shift(1)) + QTPoly.of(
        {(e, 1): c for e, c in enumerate(bracket_k_q2.coeffs) if c}
    )
    rhs = split * qnum(poset.n + 1) * gf_comaj(poset)
    return _eq(lhs, rhs)


def _suite_shifted(args: argparse.Namespace) -> list[Check]:
    checks = []
    for k in (2, 3):
        staircase = _poset(_staircase(k))
        checks.append(_row(
            f"shifted:lin-identity:k{k}", "staircase-product-identity",
            ((_at_t1, gf_bsv, staircase), qnum(2 * k)),
            (qbinom(k + 1, 2), qnum(staircase.n + 1), (gf_comaj, staircase)),
        ))
        checks.append(Check(
            f"shifted:diag-refinement:k{k}", "staircase-diagonal-refined-identity", _check_staircase_diag, (k,)
        ))
        for m in range(1, _cap(args.max_m, 3) + 1):
            checks.append(_row(
                f"shifted:rpp-identity:k{k}:m{m}", "staircase-bounded-identity",
                ((_at_t1, gf_bsv_rpp, staircase, m), qnum(2 * k)),
                (qbinom(k + 1, 2), qnum(m), (bender_knuth_gf, k, m)),
            ))
            checks.append(_row(
                f"shifted:bounded-count:k{k}:m{m}", "staircase-bounded-product-formula",
                ((rpp_size_gf, staircase, m),), ((bender_knuth_gf, k, m),),
            ))
    for lam in _partitions(_cap(args.max_boxes, 8), strict=True):
        label = "shifted:" + ",".join(str(part) for part in lam)
        checks.append(_row(
            f"shifted:hooks:{label}", "shifted-hook-product-q-count",
            ((gf_comaj, _poset(label)),), ((gf_comaj_hook_formula, lam, True),),
        ))
    return checks


def _check_minuscule_structure(name: str, ideals: int) -> tuple[bool, object, object]:
    poset = _poset(f"minuscule:{name}")
    rd = rank_data(poset)
    sizes = [rd.ranks.count(r) for r in range(rd.rank + 1)]
    num = 1
    den = 1
    for r in rd.ranks:
        num *= r + 2
        den *= r + 1
    ok = (
        len(order_ideals(poset)) == ideals
        and is_self_dual(poset)
        and sizes == sizes[::-1]
        and num % den == 0
        and num // den == ideals
    )
    return ok, len(order_ideals(poset)), ideals


def _suite_minuscule(args: argparse.Namespace) -> list[Check]:
    max_m = _cap(args.max_m, 3)
    checks = [
        Check("minuscule:structure:E6", "rank-product-ideal-count", _check_minuscule_structure, ("E6", 27)),
        Check("minuscule:structure:E7", "rank-product-ideal-count", _check_minuscule_structure, ("E7", 56)),
    ]
    members = _members(
        "minuscule:E6", "minuscule:E7", "minuscule:propeller:2", "minuscule:propeller:3",
        "rect:2x2", "rect:2x3", "shifted:2,1", "shifted:3,2,1",
    )
    for label, poset in members:
        for m in range(1, max_m + 1):
            checks.append(_row(
                f"minuscule:gf:{label}:m{m}", "rank-product-bounded-count",
                ((minuscule_gf, poset, m),), ((rpp_size_gf, poset, m),),
            ))
    return checks


def _check_rbmotz_count(length: int) -> tuple[bool, object, object]:
    count = sum(_built(rbmotz_counts, length).values())
    return _eq(count, catalan_number(length - 1))


def _check_bool(fn: Callable[..., bool], value: int, *shared: Callable) -> tuple[bool, object, object]:
    """``fn(value, *(build(value) for build in shared))``, each build once per run."""
    return fn(value, *(_built(build, value) for build in shared)), None, None


def _suite_paths(args: argparse.Namespace) -> list[Check]:
    max_l = _cap(args.max_l, 10)
    max_b = _cap(args.max_b, 5)
    checks = [
        Check(f"paths:rbmotz-count:l{length}", "path-count-catalan", _check_rbmotz_count, (length,))
        for length in range(2, max_l + 1)
    ]
    checks += [
        Check(f"paths:gen-fun:b{b}", "colored-path-generating-function", _check_bool, (verify_cor_dyck_gen_fun, b))
        for b in range(1, max_b + 1)
    ]
    checks += [
        Check(f"paths:catalan-sum:l{length}", "tableau-count-catalan-sum", _check_bool, (catalan_sum_check, length, two_row_tally, rbmotz_counts))
        for length in range(2, min(max_l, 8) + 1)
    ]
    checks += [
        Check(f"paths:narayana:l{length}", "tableau-count-narayana-rows", _check_bool, (narayana_check, length, two_row_tally))
        for length in range(2, min(max_l, 8) + 1)
    ]
    return checks


def _check_bijection(poset: Poset) -> tuple[bool, object, object]:
    extensions = _extension_list(poset)
    by_values = {ext.values: ext for ext in extensions}
    ensemble = _built(ensemble_lin, poset)
    # one pass sorts every (T, y) into the out- and in-togglable pairs of each p
    out_pairs: list[list[tuple[LinearExtension, int]]] = [[] for _ in range(poset.n)]
    in_pairs: list[list[tuple[LinearExtension, int]]] = [[] for _ in range(poset.n)]
    for ext in extensions:
        for y, mask in enumerate(ext.prefix_masks):
            for p in range(poset.n):
                if mask >> p & 1:
                    if not poset.up_masks[p] & mask:
                        out_pairs[p].append((ext, y))
                elif poset.low_masks[p] & mask == poset.low_masks[p]:
                    in_pairs[p].append((ext, y))
    for p in range(poset.n):
        images = set()
        for ext, y in out_pairs[p]:
            image, y2 = toggle_bijection(p, ext, y)
            # the enumerated twin has its positions, descents and exponents cached
            twin = by_values[image.values]
            if not tin(poset, p, twin.prefix_ideal(y2)):
                return False, f"p={p}: image pair is not in-togglable", None
            # theta(T, y) * q == theta(T', y'), compared as exponents
            if ext.theta_exponents[y] + 1 != twin.theta_exponents[y2]:
                return False, f"p={p}: weight law broken", None
            if len(descents(ext) - {y}) != len(descents(twin) - {y2}):
                return False, f"p={p}: descent count changed", None
            if inverse_toggle_bijection(p, twin, y2) != (ext, y):
                return False, f"p={p}: inverse does not roundtrip", None
            images.add((image.values, y2))
        if len(images) != len(out_pairs[p]) or images != {(ext.values, y) for ext, y in in_pairs[p]}:
            return False, f"p={p}: images do not match the in-togglable pairs", None
        # two sums of monomials q^e agree exactly when their exponents agree
        # as multisets
        lhs_exps = sorted(ext.theta_exponents[y] + 1 for ext, y in out_pairs[p])
        rhs_exps = sorted(ext.theta_exponents[y] for ext, y in in_pairs[p])
        if lhs_exps != rhs_exps:
            lhs = sum((theta(ext, y).shift(1) for ext, y in out_pairs[p]), QPoly.of([]))
            rhs = sum((theta(ext, y) for ext, y in in_pairs[p]), QPoly.of([]))
            return False, lhs, rhs
        if expectation(ensemble, statistic_toggle(poset, p)) != RatFunc.from_int(0):
            return False, f"p={p}: extension-weight toggle expectation is nonzero", None
    return True, None, None


def _suite_appendix(args: argparse.Namespace) -> list[Check]:
    return [
        Check(f"appendix:bijection:{label}", "toggle-pairing-exhaustive", _check_bijection, (poset,))
        for label, poset in _labeled_corpus(_cap(args.max_boxes, 7))
    ]


def _check_shape_solve(lam: tuple[int, ...]) -> tuple[bool, object, object]:
    poset = build_shape(lam)
    result = toggle_solve(poset, statistic_ddeg(poset))
    is_rectangle = len(set(lam)) == 1
    if result.consistent != is_rectangle:
        return False, result.consistent, is_rectangle
    if is_rectangle:
        a, b = len(lam), lam[0]
        return _eq(result.constant, RatFunc(qnum(a) * qnum(b), qnum(a + b)))
    return result.witness_mask in order_ideals(poset), result.witness_mask, None


def _check_refinements(poset: Poset) -> tuple[bool, object, object]:
    reports = verify_refinements(poset)
    bad = [report for report in reports if not report.ok]
    if bad:
        return False, [report.label for report in bad], [report.expected for report in bad]
    return True, None, None


def _check_constant(poset: Poset, expected: RatFunc) -> tuple[bool, object, object]:
    """``toggle_solve(poset, ddeg)`` is consistent with the constant ``expected``."""
    result = toggle_solve(poset, statistic_ddeg(poset))
    if not result.consistent:
        return False, "inconsistent", expected
    return _eq(result.constant, expected)


def _check_hook_at_one() -> tuple[bool, object, object]:
    poset = build_shape((2, 1))
    generic = toggle_solve(poset, statistic_ddeg(poset))
    if generic.consistent:
        return False, "consistent at generic q", None
    at_one = toggle_solve(poset, statistic_ddeg(poset), q_value=1)
    if not at_one.consistent:
        return False, "inconsistent at q=1", None
    return _eq(at_one.constant, RatFunc.from_int(1))


def _suite_solver(args: argparse.Namespace) -> list[Check]:
    checks = [
        Check(f"solver:generic:{_shape_label(lam)}", "rectangularity-decides-consistency", _check_shape_solve, (lam,))
        for lam in _partitions(_cap(args.max_boxes, 9))
    ]
    for a in range(1, 4):
        for b in range(a, 4):
            rect = _poset(f"rect:{a}x{b}")
            checks.append(Check(f"solver:rows:rect:{a}x{b}", "row-refined-constants", _check_refinements, (rect,)))
    for k in (2, 3):
        staircase = _poset(_staircase(k))
        constant = RatFunc(qbinom(k + 1, 2), qnum(2 * k))
        checks.append(Check(f"solver:staircase:k{k}", "staircase-constant", _check_constant, (staircase, constant)))
        checks.append(Check(f"solver:diagonal:k{k}", "diagonal-refined-constants", _check_refinements, (staircase,)))
    for label, poset in _members("minuscule:propeller:2", "minuscule:propeller:3", "minuscule:E6"):
        rd = rank_data(poset)
        rank_sizes = QPoly.of([rd.ranks.count(r) for r in range(rd.rank + 1)])
        checks.append(Check(
            f"solver:rank-constant:{label}", "rank-polynomial-constant",
            _check_constant, (poset, RatFunc(rank_sizes, qnum(rd.rank + 2))),
        ))
    checks.append(Check("solver:q1:shape:2,1", "hook-shape-at-one", _check_hook_at_one))
    return checks


SUITES: dict[str, Callable[[argparse.Namespace], list[Check]]] = {
    "thm-syt": _suite_thm_syt,
    "thm-pp": _suite_thm_pp,
    "toggle-symmetry": _suite_toggle_symmetry,
    "m-weight": _suite_m_weight,
    "shifted": _suite_shifted,
    "minuscule": _suite_minuscule,
    "paths": _suite_paths,
    "appendix": _suite_appendix,
    "solver": _suite_solver,
}
SUITE_NAMES = tuple(SUITES)


# ---------------------------------------------------------------------------
# commands


def cmd_gf(args: argparse.Namespace) -> int:
    poset = parse_poset_spec(args.spec)
    if args.m is not None and args.kind not in ("rpp", "bsv-rpp"):
        raise UsageError(f"--m does not apply to kind {args.kind!r}")
    if args.m is not None and args.m < 0:
        raise UsageError("--m must be nonnegative")
    if args.refined and args.kind not in ("bsv-comaj", "bsv-rpp"):
        raise UsageError(f"--refined does not apply to kind {args.kind!r}")
    if args.degree_cap is not None and (args.kind != "rpp" or args.m is not None):
        raise UsageError("--degree-cap applies only to kind 'rpp' without --m")

    poly: QPoly | QTPoly
    if args.kind == "comaj":
        poly = gf_comaj(poset)
    elif args.kind == "bsv-comaj":
        full = gf_bsv(poset, refined=args.refined)
        poly = full if args.refined else full.at_t1()
    elif args.kind == "rpp":
        if args.m is None:
            poly = rpp_size_series(poset, _degree_cap(args))
        else:
            poly = rpp_size_gf(poset, args.m)
    else:
        if args.m is None:
            raise UsageError("kind bsv-rpp requires --m")
        full = gf_bsv_rpp(poset, args.m, refined=args.refined)
        poly = full if args.refined else full.at_t1()

    if args.json:
        print(json.dumps({"report_version": REPORT_VERSION, "poly": str(poly), "coefficients": _vec(poly)}))
    else:
        print(poly)
        print(f"coefficients: {_vec(poly)}")
    return 0


def _degree_cap(args: argparse.Namespace) -> int:
    if args.degree_cap is not None:
        cap, source = args.degree_cap, "--degree-cap"
    else:
        env = os.environ.get("QTAB_DEGREE_CAP")
        if env is None:
            return DEFAULT_DEGREE_CAP
        try:
            cap, source = int(env), "QTAB_DEGREE_CAP"
        except ValueError as exc:
            raise UsageError(f"QTAB_DEGREE_CAP must be an integer, got {env!r}") from exc
    if cap < 0:
        raise UsageError(f"{source} must be nonnegative, got {cap}")
    return cap


def cmd_verify(args: argparse.Namespace) -> int:
    suite_names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    try:
        records = _run_checks([check for name in suite_names for check in SUITES[name](args)])
    finally:
        _clear_run_memo()
    ok = all(record.ok for record in records)
    if args.json:
        payload = {
            "report_version": REPORT_VERSION,
            "suite": args.suite,
            "ok": ok,
            "checks": [
                {
                    "id": record.id,
                    "anchor": record.anchor,
                    "status": "pass" if record.ok else "fail",
                    "seconds": round(record.seconds, 4),
                    **({} if record.ok else {"lhs": _vec(record.lhs), "rhs": _vec(record.rhs)}),
                }
                for record in records
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for record in records:
            print(f"{'PASS' if record.ok else 'FAIL'} {record.id} ({record.seconds:.2f}s)")
            if not record.ok:
                print(f"  lhs: {_vec(record.lhs)}")
                print(f"  rhs: {_vec(record.rhs)}")
        passed = sum(1 for record in records if record.ok)
        total = sum(record.seconds for record in records)
        print(
            f"{'PASS' if ok else 'FAIL'} suite {args.suite}: "
            f"{passed}/{len(records)} checks passed in {total:.2f}s"
        )
    return 0 if ok else 1


def _parse_statistic(poset: Poset, name: str) -> Statistic:
    if name == "ddeg":
        return statistic_ddeg(poset)
    if name == "diag":
        return statistic_diagonal(poset, True)
    if name.startswith("row:"):
        try:
            row = int(name[4:])
        except ValueError as exc:
            raise UsageError(f"bad row statistic {name!r}") from exc
        try:
            return statistic_row(poset, row)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown statistic {name!r}; use ddeg, row:i, or diag")


def cmd_solve(args: argparse.Namespace) -> int:
    poset = parse_poset_spec(args.spec)
    statistic = _parse_statistic(poset, args.statistic)
    result = toggle_solve(poset, statistic)
    if args.json:
        payload = {
            "report_version": REPORT_VERSION,
            "consistent": result.consistent,
            "c": None if result.constant is None else _vec(result.constant),
            "witness_mask": result.witness_mask,
        }
        print(json.dumps(payload))
    else:
        print(f"consistent: {'yes' if result.consistent else 'no'}")
        if result.consistent:
            print(f"c = ({format_poly(result.constant.num)}) / ({format_poly(result.constant.den)})")
        else:
            members = ideal_members(result.witness_mask)
            shown = "{" + ", ".join(str(e) for e in members) + "}"
            print(f"witness ideal mask: {result.witness_mask} (elements {shown})")
    if args.expect_consistent and not result.consistent:
        return 1
    return 0


def cmd_bijection_trace(args: argparse.Namespace) -> int:
    poset = parse_poset_spec(args.spec)
    try:
        ext = parse_tableau(args.tableau.replace("/", "\n"), poset)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not isinstance(ext, LinearExtension):
        raise UsageError("the pairing acts on standard tableaux; this tableau has a doubled cell")
    try:
        if args.inverse:
            image, y2 = inverse_toggle_bijection(args.p, ext, args.y)
            print(f"inverse image: y = {y2}")
        else:
            case = classify(ext, args.p, args.y)
            x = ext.values[args.p]
            image = escalate(ext, x, case.z)
            y2 = case.y_prime
            blocks = " ".join(f"{kind}[{lo},{hi}]" for kind, lo, hi in case.blocks)
            print(f"case: {case.left}/{case.right}")
            print(f"x = {x}  y = {args.y}")
            print(f"blocks: {blocks}")
            parts = [f"f = {case.f}"]
            for name in ("e", "g", "h"):
                value = getattr(case, name)
                if value is not None:
                    parts.append(f"{name} = {value}")
            print("  ".join(parts))
            print(f"y' = {case.y_prime}  z = {case.z}")
    except (PNotTogglableOut, PNotTogglableIn, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    print("before:")
    print(format_tableau(ext))
    print("after:")
    print(format_tableau(image))
    before = theta(ext, args.y)
    after = theta(image, y2)
    print(f"theta: {format_poly(before)} -> {format_poly(after)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """argparse type of the verify caps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_verify_caps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-a", type=_positive_int, default=None, help="cap on the first rectangle side")
    parser.add_argument("--max-b", type=_positive_int, default=None, help="cap on the second rectangle side")
    parser.add_argument("--max-m", type=_positive_int, default=None, help="cap on the filling bound m")
    parser.add_argument("--max-boxes", type=_positive_int, default=None, help="cap on poset size")
    parser.add_argument("--max-l", type=_positive_int, default=None, help="cap on path length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtab",
        description="Exact q-enumeration of tableaux, order ideals, and toggle statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gf = sub.add_parser("gf", help="print a generating function")
    gf.add_argument("spec", help="poset spec, e.g. rect:2x3, shape:3,1, shifted:3,2,1, minuscule:E6, or a JSON file")
    gf.add_argument("kind", choices=GF_KINDS, help="which generating function")
    gf.add_argument("--m", type=int, default=None, help="filling bound (rpp and bsv-rpp)")
    gf.add_argument("--refined", action="store_true", help="keep the row-marking variable t")
    gf.add_argument("--degree-cap", type=int, default=None, help="truncation degree for unbounded series")
    gf.add_argument("--json", action="store_true", help="machine-readable output")
    gf.set_defaults(func=cmd_gf)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",), help="which suite")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    _add_verify_caps(verify)
    verify.set_defaults(func=cmd_verify)

    solve = sub.add_parser("solve", help="solve the toggle-constant system")
    solve.add_argument("spec", help="poset spec")
    solve.add_argument("statistic", help="ddeg, row:i, or diag")
    solve.add_argument("--expect-consistent", action="store_true", help="exit 1 when inconsistent")
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.set_defaults(func=cmd_solve)

    bijection = sub.add_parser("bijection", help="toggle pairing tools")
    bij_sub = bijection.add_subparsers(dest="bijection_command", required=True)
    trace = bij_sub.add_parser("trace", help="trace one application of the pairing")
    trace.add_argument("spec", help="poset spec with box coordinates")
    trace.add_argument("--tableau", required=True, help="rows separated by '/', cells by ','")
    trace.add_argument("--p", type=int, required=True, help="element index")
    trace.add_argument("--y", type=int, required=True, help="prefix length")
    trace.add_argument("--inverse", action="store_true", help="apply the inverse pairing")
    trace.set_defaults(func=cmd_bijection_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``qtab ... | head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, PosetSpecError, RowLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedPoset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
