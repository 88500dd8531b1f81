"""The immutable value classes, one instance of each in one table.

Each row builds an instance afresh on every call of ``make``.  The pinned
reprs are the ``Name(field=value, ...)`` strings the classes have always
printed; ``bad`` builds the class from input its checks reject, or is None
for a class that checks nothing.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from qtab.cli import Check, CheckRecord
from qtab.distributions import Statistic, WeightedEnsemble, ensemble_uniform, statistic_ddeg
from qtab.extensions import BsvLinearExtension, LinearExtension
from qtab.paths import DyckPath, RbMotzkinPath, TwoRowSetValued
from qtab.posets import RankData, build_rectangle
from qtab.ppartitions import BsvRpp, Rpp
from qtab.qpoly import ONE, Q, LinearSystemResult, QPoly, QTPoly, RatFunc, qnum
from qtab.solver import RefinementReport, toggle_solve

CHAIN = build_rectangle(1, 2)

CASES = {
    "QPoly": (
        lambda: QPoly((1, 0, -2)),
        "QPoly(coeffs=(1, 0, -2))",
        lambda: QPoly((1, 0)),
    ),
    "QTPoly": (
        lambda: QTPoly((QPoly((1,)), QPoly((0, 2)))),
        "QTPoly(rows=(QPoly(coeffs=(1,)), QPoly(coeffs=(0, 2))))",
        lambda: QTPoly((ONE, QPoly(()))),
    ),
    "RatFunc": (
        lambda: RatFunc(ONE, qnum(2)),
        "(1) / (1 + q)",
        None,
    ),
    "LinearSystemResult": (
        lambda: LinearSystemResult(True, (ONE, Q), qnum(2), (), None),
        "LinearSystemResult(consistent=True, numerators=(QPoly(coeffs=(1,)), QPoly(coeffs=(0, 1))), "
        "denominator=QPoly(coeffs=(1, 1)), free_columns=(), witness_row=None)",
        None,
    ),
    "RankData": (
        lambda: RankData((0, 1), 1),
        "RankData(ranks=(0, 1), rank=1)",
        None,
    ),
    "LinearExtension": (
        lambda: LinearExtension(CHAIN, (1, 2)),
        "LinearExtension(poset=Poset(rect:1x2), values=(1, 2))",
        lambda: LinearExtension(CHAIN, (2, 1)),
    ),
    "BsvLinearExtension": (
        lambda: BsvLinearExtension(CHAIN, ((1,), (2, 3)), 1, 3),
        "BsvLinearExtension(poset=Poset(rect:1x2), entries=((1,), (2, 3)), p_star=1, i_star=3)",
        lambda: BsvLinearExtension(CHAIN, ((1,), (2, 3)), 1, 2),
    ),
    "Rpp": (
        lambda: Rpp(CHAIN, 2, (0, 1)),
        "Rpp(poset=Poset(rect:1x2), m=2, entries=(0, 1))",
        lambda: Rpp(CHAIN, 2, (1, 0)),
    ),
    "BsvRpp": (
        lambda: BsvRpp(CHAIN, 1, ((0,), (0, 1)), 1),
        "BsvRpp(poset=Poset(rect:1x2), m=1, entries=((0,), (0, 1)), p_star=1)",
        lambda: BsvRpp(CHAIN, 0, ((0,), (0, 1)), 1),
    ),
    "WeightedEnsemble": (
        lambda: ensemble_uniform(CHAIN),
        "WeightedEnsemble(poset=Poset(rect:1x2), weights=(QPoly(coeffs=(0, 0, 1)), "
        "QPoly(coeffs=(0, 1)), QPoly(coeffs=(1,))), normalizer=QPoly(coeffs=(1, 1, 1)))",
        lambda: WeightedEnsemble(CHAIN, (ONE,), ONE),
    ),
    "Statistic": (
        lambda: statistic_ddeg(CHAIN),
        "Statistic(poset=Poset(rect:1x2), values=(QPoly(coeffs=()), QPoly(coeffs=(1,)), "
        "QPoly(coeffs=(1,))), label='ddeg')",
        lambda: Statistic(CHAIN, ()),
    ),
    "RbMotzkinPath": (
        lambda: RbMotzkinPath(("U", "Hr", "D")),
        "RbMotzkinPath(steps=('U', 'Hr', 'D'))",
        lambda: RbMotzkinPath(("Hr",)),
    ),
    "DyckPath": (
        lambda: DyckPath(("U", "D")),
        "DyckPath(steps=('U', 'D'))",
        lambda: DyckPath(("U", "Hr", "D")),
    ),
    "TwoRowSetValued": (
        lambda: TwoRowSetValued((((1,), (2,)), ((3,), (4, 5)))),
        "TwoRowSetValued(rows=(((1,), (2,)), ((3,), (4, 5))))",
        lambda: TwoRowSetValued((((2,), (3,)), ((1,), (4, 5)))),
    ),
    "ToggleSolveResult": (
        lambda: toggle_solve(CHAIN, statistic_ddeg(CHAIN)),
        "ToggleSolveResult(consistent=True, constant=(1 + q) / (1 + q + q^2), "
        "numerators=(QPoly(coeffs=(1, 1)), QPoly(coeffs=(-1, -1)), QPoly(coeffs=(0, -1))), "
        "denominator=QPoly(coeffs=(1, 1, 1)), witness_mask=None)",
        None,
    ),
    "RefinementReport": (
        lambda: RefinementReport("row:1", True, RatFunc(Q, qnum(2))),
        "RefinementReport(label='row:1', consistent=True, constant=(q) / (1 + q))",
        None,
    ),
    "Check": (
        lambda: Check("demo", "anchor", max, (1, 2)),
        "Check(id='demo', anchor='anchor', fn=<built-in function max>, params=(1, 2))",
        None,
    ),
    "CheckRecord": (
        lambda: CheckRecord("demo", "anchor", False, 0.5, qnum(2), None),
        "CheckRecord(id='demo', anchor='anchor', ok=False, seconds=0.5, "
        "lhs=QPoly(coeffs=(1, 1)), rhs=None)",
        None,
    ),
}

COMPARED = [name for name in CASES if name != "Statistic"]


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    make, shown, _ = CASES[name]
    assert repr(make()) == shown


@pytest.mark.parametrize("name", COMPARED)
def test_equal_values_compare_equal_and_hash_alike(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if not isinstance(a, RatFunc):  # a constant RatFunc hashes as its int
        assert hash(a) == hash(tuple(getattr(a, field) for field in type(a).__match_args__))


def test_a_statistic_equals_only_itself():
    a, b = statistic_ddeg(CHAIN), statistic_ddeg(CHAIN)
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_dyck_and_motzkin_paths_with_the_same_steps_differ():
    dyck, motzkin = DyckPath(("U", "D")), RbMotzkinPath(("U", "D"))
    assert dyck != motzkin and motzkin != dyck
    assert len({dyck, motzkin}) == 2


@pytest.mark.parametrize("name", CASES)
def test_fields_can_be_neither_set_nor_deleted(name):
    value = CASES[name][0]()
    for field in type(value).__match_args__:
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is kept


@pytest.mark.parametrize("name", [name for name in CASES if CASES[name][2] is not None])
def test_bad_input_raises_value_error(name):
    with pytest.raises(ValueError):
        CASES[name][2]()


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_round_trip(name, round_trip):
    value = CASES[name][0]()
    again = round_trip(value)
    assert type(again) is type(value)
    if name == "Statistic":
        assert repr(again) == repr(value)
    else:
        assert again == value

