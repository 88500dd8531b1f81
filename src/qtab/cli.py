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
from collections import Counter
from functools import reduce
from math import prod
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
from .frozen import _Frozen
from .paths import (
    catalan_number,
    gf_rbmotz,
    narayana_row,
    q_catalan,
    rbmotz_counts,
    two_row_tally,
)
from .posets import (
    NotGraded,
    Poset,
    PosetSpecError,
    UnsupportedPoset,
    box_coords,
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


class Check(_Frozen):
    """One named verification: ``fn(*params)`` returns (ok, lhs, rhs).

    ``fn`` is a module-level function and ``params`` holds its arguments, so a
    check is plain data that can be listed, counted and compared unrun.
    """

    __match_args__ = ("id", "anchor", "fn", "params")

    def __init__(
        self, id: str, anchor: str, fn: Callable[..., tuple[bool, object, object]], params: tuple = ()
    ) -> None:
        self._set(id, anchor, fn, params)


class CheckRecord(_Frozen):
    """Outcome of one check, with the mismatching sides kept on failure."""

    __match_args__ = ("id", "anchor", "ok", "seconds", "lhs", "rhs")

    def __init__(
        self, id: str, anchor: str, ok: bool, seconds: float, lhs: object, rhs: object
    ) -> None:
        self._set(id, anchor, ok, seconds, lhs, rhs)


def _vec(value: object) -> object:
    """JSON-ready rendering: polynomials become coefficient vectors, and
    dicts objects with string keys."""
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
    if isinstance(value, dict):
        return {str(key): _vec(item) for key, item in value.items()}
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
# J(P), ideal edges, order dual and theta classes cached on it, one list of
# linear extensions per poset, one ensemble or tableau tally per
# (builder, *args), one value per product-row call factor and one toggle
# symmetry verdict per ensemble, equal ensembles sharing it.
_BUILT: dict[tuple, object] = {}


def _poset(spec: str) -> Poset:
    """The poset a spec names, parsed once per run."""
    return _built(parse_poset_spec, spec)


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

    A factor is a call ``_Call(fn, *args)``, made when a check first needs
    it and then kept for the run, or any other value, used as it is.  A side
    of one factor is that factor's value, so a row also compares counts,
    tuples, lists and tallies.
    """
    return _eq(reduce(mul, map(_factor, lhs)), reduce(mul, map(_factor, rhs)))


class _Call(tuple):
    """A call factor ``(fn, *args)`` of a product row: ``fn(*args)`` is made
    when a check first needs it, once per run."""

    def __new__(cls, fn: Callable, *args: object) -> _Call:
        return super().__new__(cls, (fn, *args))


def _factor(factor: object) -> object:
    return _built(*factor) if isinstance(factor, _Call) else factor


def _at_t1(fn: Callable, *args: object) -> QPoly:
    """``fn(*args)`` at t = 1, as a call factor; ``fn(*args)`` itself is
    shared with the rows that read it whole."""
    return _built(fn, *args).at_t1()


def _row(check_id: str, anchor: str, lhs: tuple, rhs: tuple) -> Check:
    return Check(check_id, anchor, _check_product, (lhs, rhs))


def _rect_lin_row(check_id: str, a: int, b: int) -> Check:
    rect = _poset(f"rect:{a}x{b}")
    return _row(
        check_id, "rectangle-row-refined-identity",
        (_Call(gf_bsv, rect), qnum(a + b)),
        (qt_num(a), qnum(b), qnum(a * b + 1), _Call(gf_comaj, rect)),
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
            (_Call(gf_comaj, _poset(label)),), (_Call(gf_comaj_hook_formula, lam, False),),
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
                    (_Call(_at_t1, gf_bsv_rpp, rect, m), qnum(a + b)),
                    (qnum(a), qnum(b), qnum(m), _Call(macmahon_gf, a, b, m)),
                ))
            if b > 2:  # the row-refined bounded rows stop at 2x2
                continue
            for m in range(1, min(max_m, 3) + 1):
                checks.append(_row(
                    f"thm-pp:refined-rpp:rect:{a}x{b}:m{m}", "rectangle-bounded-row-refined-identity",
                    (_Call(gf_bsv_rpp, rect, m), qnum(a + b)),
                    (qt_num(a), qnum(b), qnum(m), _Call(macmahon_gf, a, b, m)),
                ))
    return checks


def _check_symmetry(poset: Poset, make_ensemble: Callable, *extra: object) -> tuple[bool, object, object]:
    """``make_ensemble(poset, *extra)`` has toggle expectation zero at every
    element; each ensemble, or any equal to it, is checked once per run."""
    ensemble = _built(make_ensemble, poset, *extra)
    if _built(check_toggle_symmetry, ensemble):
        return True, None, None
    expectations = [expectation(ensemble, statistic_toggle(poset, p)) for p in range(poset.n)]
    return False, expectations, [RatFunc.from_int(0)] * poset.n


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


def _diag_gf(poset: Poset) -> QTPoly:
    """Sum of q^comaj+ t^d* over the barely set-valued extensions."""
    return QTPoly.of(Counter((comaj_plus(bsv), d_star(bsv)) for bsv in enumerate_bsv(poset)))


def _suite_shifted(args: argparse.Namespace) -> list[Check]:
    checks = []
    for k in (2, 3):
        staircase = _poset(_staircase(k))
        checks.append(_row(
            f"shifted:lin-identity:k{k}", "staircase-product-identity",
            (_Call(_at_t1, gf_bsv, staircase), qnum(2 * k)),
            (qbinom(k + 1, 2), qnum(staircase.n + 1), _Call(gf_comaj, staircase)),
        ))
        # q [k choose 2] + t [k]_(q^2) splits [k+1 choose 2] by the diagonal
        split = QTPoly.from_qpoly(qbinom(k, 2).shift(1)) + QTPoly.from_qpoly(qnum(k).substitute(2), 1)
        checks.append(_row(
            f"shifted:diag-refinement:k{k}", "staircase-diagonal-refined-identity",
            (_Call(_diag_gf, staircase), qnum(2 * k)),
            (split, qnum(staircase.n + 1), _Call(gf_comaj, staircase)),
        ))
        for m in range(1, _cap(args.max_m, 3) + 1):
            checks.append(_row(
                f"shifted:rpp-identity:k{k}:m{m}", "staircase-bounded-identity",
                (_Call(_at_t1, gf_bsv_rpp, staircase, m), qnum(2 * k)),
                (qbinom(k + 1, 2), qnum(m), _Call(bender_knuth_gf, k, m)),
            ))
            checks.append(_row(
                f"shifted:bounded-count:k{k}:m{m}", "staircase-bounded-product-formula",
                (_Call(rpp_size_gf, staircase, m),), (_Call(bender_knuth_gf, k, m),),
            ))
    for lam in _partitions(_cap(args.max_boxes, 8), strict=True):
        label = "shifted:" + ",".join(str(part) for part in lam)
        checks.append(_row(
            f"shifted:hooks:{label}", "shifted-hook-product-q-count",
            (_Call(gf_comaj, _poset(label)),), (_Call(gf_comaj_hook_formula, lam, True),),
        ))
    return checks


def _check_minuscule_structure(name: str, ideals: int) -> tuple[bool, object, object]:
    """|J(P)|, self-duality, rank symmetry and the product of (r+2)/(r+1)
    over the elements' ranks r, with its denominator cleared."""
    poset = _poset(f"minuscule:{name}")
    rd = rank_data(poset)
    sizes = [rd.ranks.count(r) for r in range(rd.rank + 1)]
    return _eq(
        (len(order_ideals(poset)), is_self_dual(poset), sizes, prod(r + 2 for r in rd.ranks)),
        (ideals, True, sizes[::-1], ideals * prod(r + 1 for r in rd.ranks)),
    )


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
                (_Call(minuscule_gf, poset, m),), (_Call(rpp_size_gf, poset, m),),
            ))
    return checks


# The path tallies are shared, built once per run: all restricted paths of a
# length by horizontal steps, and the two-row tableaux by width and top row.


def _path_total(length: int) -> int:
    return sum(_built(rbmotz_counts, length).values())


def _tableau_counts(length: int) -> tuple[list[int], int, int]:
    """Tableaux with ``length`` entries of each width b, their total and Cat(length - 1)."""
    by_width = _built(two_row_tally, length)[0]
    counts = [by_width[b] for b in range(1, length // 2 + 1)]
    return counts, sum(counts), catalan_number(length - 1)


def _path_counts(length: int) -> tuple[list[int], int, int]:
    """Paths with length - 2b horizontal steps for each width b, Cat(length - 1) and all paths."""
    paths = _built(rbmotz_counts, length)
    counts = [paths[length - 2 * b] for b in range(1, length // 2 + 1)]
    return counts, catalan_number(length - 1), sum(paths.values())


def _tableaux_by_top(length: int) -> dict[int, int]:
    return dict(sorted(_built(two_row_tally, length)[1].items()))


def _suite_paths(args: argparse.Namespace) -> list[Check]:
    max_l = _cap(args.max_l, 10)
    max_b = _cap(args.max_b, 5)
    checks = [
        _row(
            f"paths:rbmotz-count:l{length}", "path-count-catalan",
            (_Call(_path_total, length),), (catalan_number(length - 1),),
        )
        for length in range(2, max_l + 1)
    ]
    checks += [
        _row(
            f"paths:gen-fun:b{b}", "colored-path-generating-function",
            (_Call(gf_rbmotz, b), qnum(b + 2)),
            (qt_num(2), qnum(b), qnum(2 * b + 1), _Call(q_catalan, b)),
        )
        for b in range(1, max_b + 1)
    ]
    for length in range(2, min(max_l, 8) + 1):
        checks.append(_row(
            f"paths:catalan-sum:l{length}", "tableau-count-catalan-sum",
            (_Call(_tableau_counts, length),), (_Call(_path_counts, length),),
        ))
        checks.append(_row(
            f"paths:narayana:l{length}", "tableau-count-narayana-rows",
            (_Call(_tableaux_by_top, length),), (_Call(narayana_row, length - 1),),
        ))
    return checks


def _broken(p: int, what: str, lhs: object, rhs: object) -> tuple[bool, object, object]:
    """A broken step of the toggle pairing at p: the two values it compared."""
    label = f"p={p}: {what}"
    return False, (label, lhs), (label, rhs)


_Pairs = list[list[tuple[LinearExtension, int]]]


def _toggle_pairs(poset: Poset, extensions: Sequence[LinearExtension]) -> tuple[_Pairs, _Pairs]:
    """Per element p, the pairs (T, y) in which p toggles out of the
    y-prefix of T, and those in which it toggles in, in the order of the
    extensions and then of y.  p leaves an ideal I when an edge I - p -> I
    of J(P) adds it and enters I when an edge I -> I + p does, so one pass
    over ``ideal_edges`` gives each ideal both masks, and each prefix reads
    the bits of its two."""
    ideals = order_ideals(poset)
    leaving, entering = dict.fromkeys(ideals, 0), dict.fromkeys(ideals, 0)
    for p, edges in enumerate(poset.ideal_edges):
        bit = 1 << p
        for lower, upper in edges:
            entering[ideals[lower]] |= bit
            leaving[ideals[upper]] |= bit
    out_pairs: _Pairs = [[] for _ in range(poset.n)]
    in_pairs: _Pairs = [[] for _ in range(poset.n)]
    for ext in extensions:
        for y, mask in enumerate(ext.prefix_masks):
            for pairs, bits in ((out_pairs, leaving[mask]), (in_pairs, entering[mask])):
                while bits:
                    low = bits & -bits
                    pairs[low.bit_length() - 1].append((ext, y))
                    bits ^= low
    return out_pairs, in_pairs


def _check_bijection(poset: Poset) -> tuple[bool, object, object]:
    extensions = _extension_list(poset)
    by_values = {ext.values: ext for ext in extensions}
    ensemble = _built(ensemble_lin, poset)
    out_pairs, in_pairs = _toggle_pairs(poset, extensions)
    for p in range(poset.n):
        images = []
        for ext, y in out_pairs[p]:
            image, y2 = toggle_bijection(p, ext, y)
            # the enumerated twin has its positions, descents and exponents cached
            twin = by_values[image.values]
            if not tin(poset, p, twin.prefix_ideal(y2)):
                return _broken(p, "image pair is in-togglable", False, True)
            # theta(T, y) * q == theta(T', y'), compared as exponents
            weights = ext.theta_exponents[y] + 1, twin.theta_exponents[y2]
            if weights[0] != weights[1]:
                return _broken(p, "theta exponent", *weights)
            des, twin_des = descents(ext), descents(twin)
            counts = len(des) - (y in des), len(twin_des) - (y2 in twin_des)
            if counts[0] != counts[1]:
                return _broken(p, "descents off y", *counts)
            back, y3 = inverse_toggle_bijection(p, twin, y2)
            if (back, y3) != (ext, y):
                return _broken(p, "inverse image", (back.values, y3), (ext.values, y))
            images.append((image.values, y2))
        # the images are the in-togglable pairs, each once
        images.sort()
        expected = sorted((ext.values, y) for ext, y in in_pairs[p])
        if images != expected:
            return _broken(p, "images", images, expected)
        # with each image's exponent its source's plus one, q times the theta
        # sum over the out-togglable pairs is the sum over the in-togglable ones
        value = expectation(ensemble, statistic_toggle(poset, p))
        if value != RatFunc.from_int(0):
            return _broken(p, "extension-weight toggle expectation", value, RatFunc.from_int(0))
    return True, None, None


def _suite_appendix(args: argparse.Namespace) -> list[Check]:
    return [
        Check(f"appendix:bijection:{label}", "toggle-pairing-exhaustive", _check_bijection, (poset,))
        for label, poset in _labeled_corpus(_cap(args.max_boxes, 7))
    ]


def _check_shape_solve(lam: tuple[int, ...]) -> tuple[bool, object, object]:
    poset = _poset(_shape_label(lam))
    result = toggle_solve(poset, statistic_ddeg(poset))
    if len(set(lam)) > 1:
        return _eq((result.consistent, result.witness_mask in order_ideals(poset)), (False, True))
    if not result.consistent:
        return False, result.consistent, True
    a, b = len(lam), lam[0]
    return _eq(result.constant, RatFunc(qnum(a) * qnum(b), qnum(a + b)))


def _refinement_constants(poset: Poset) -> list[tuple[str, object]]:
    """Each refinement statistic's label and toggle constant, or "inconsistent"."""
    return [
        (report.label, report.constant if report.consistent else "inconsistent")
        for report in verify_refinements(poset)
    ]


def _ddeg_constant(poset: Poset) -> object:
    """The toggle constant of ddeg, or "inconsistent"."""
    result = toggle_solve(poset, statistic_ddeg(poset))
    return result.constant if result.consistent else "inconsistent"


def _check_hook_at_one() -> tuple[bool, object, object]:
    poset = _poset("shape:2,1")
    generic = toggle_solve(poset, statistic_ddeg(poset))
    at_one = toggle_solve(poset, statistic_ddeg(poset), q_value=1)
    return _eq((generic.consistent, at_one.consistent, at_one.constant), (False, True, RatFunc.from_int(1)))


def _suite_solver(args: argparse.Namespace) -> list[Check]:
    checks = [
        Check(f"solver:generic:{_shape_label(lam)}", "rectangularity-decides-consistency", _check_shape_solve, (lam,))
        for lam in _partitions(_cap(args.max_boxes, 9))
    ]
    for a in range(1, _cap(args.max_a, 3) + 1):
        for b in range(a, _cap(args.max_b, 3) + 1):
            # row i of the a x b rectangle: q^(a-i) [b] / [a+b]
            rows = [(f"row:{i}", RatFunc(qnum(b).shift(a - i), qnum(a + b))) for i in range(1, a + 1)]
            checks.append(_row(
                f"solver:rows:rect:{a}x{b}", "row-refined-constants",
                (_Call(_refinement_constants, _poset(f"rect:{a}x{b}")),), (rows,),
            ))
    for k in (2, 3):
        staircase = _poset(_staircase(k))
        checks.append(_row(
            f"solver:staircase:k{k}", "staircase-constant",
            (_Call(_ddeg_constant, staircase),), (RatFunc(qbinom(k + 1, 2), qnum(2 * k)),),
        ))
        # [k]_(q^2) / [2k] on the diagonal, q [k choose 2] / [2k] off it
        split = [
            ("diagonal", RatFunc(qnum(k).substitute(2), qnum(2 * k))),
            ("off-diagonal", RatFunc(qbinom(k, 2).shift(1), qnum(2 * k))),
        ]
        checks.append(_row(
            f"solver:diagonal:k{k}", "diagonal-refined-constants",
            (_Call(_refinement_constants, staircase),), (split,),
        ))
    for label, poset in _members("minuscule:propeller:2", "minuscule:propeller:3", "minuscule:E6"):
        rd = rank_data(poset)
        rank_sizes = QPoly.of([rd.ranks.count(r) for r in range(rd.rank + 1)])
        checks.append(_row(
            f"solver:rank-constant:{label}", "rank-polynomial-constant",
            (_Call(_ddeg_constant, poset),), (RatFunc(rank_sizes, qnum(rd.rank + 2)),),
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

    if args.kind == "bsv-rpp" and args.m is None:
        raise UsageError("kind bsv-rpp requires --m")
    if args.refined:
        box_coords(poset)  # t marks rows, so a refined count needs box coordinates

    poly: QPoly | QTPoly
    if args.kind == "comaj":
        poly = gf_comaj(poset)
    elif args.kind == "rpp":
        if args.m is None:
            poly = rpp_size_series(poset, _degree_cap(args))
        else:
            poly = rpp_size_gf(poset, args.m)
    else:
        full = gf_bsv(poset) if args.kind == "bsv-comaj" else gf_bsv_rpp(poset, args.m)
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
