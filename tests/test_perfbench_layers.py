"""The perfbench tracer still finds the names it wraps.

``perfbench/layers.py`` wraps qtab functions by name, so deleting or renaming
one of them breaks a traced benchmark run.  This loads the tracer from its
file, leaving the file as it is, and runs one traced toggle solve and the
two counting calls of the ``count`` workload on a fresh poset.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qtab import extensions, ppartitions, solver
from qtab.distributions import statistic_ddeg
from qtab.posets import Poset, build_rectangle

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_tracer_counts_a_toggle_solve():
    layers = load_layers()
    original = solver.toggle_solve
    poset = build_rectangle(3, 3)
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert solver.toggle_solve is not original
        assert solver.toggle_solve(poset, statistic_ddeg(poset)).consistent
    finally:
        tracer.uninstall()
    assert solver.toggle_solve is original
    metrics = tracer.metrics()
    assert metrics["qpoly.solve.calls"] > 0
    assert metrics["solver.pivots"] > 0


def test_tracer_counts_the_ideals_of_a_counting_pass():
    """``count`` runs ``gf_comaj`` and ``rpp_size_gf(P, 2)`` on fresh random
    posets, which read the poset's J(P) through ``order_ideals``; its traced
    run requires both ideal counters to be nonzero, and those two calls alone
    make them so."""
    layers = load_layers()
    covers = [(0, 2), (1, 2), (1, 3), (2, 4), (3, 5)]
    expected = (extensions.gf_comaj(Poset(6, covers)), ppartitions.rpp_size_gf(Poset(6, covers), 2))
    poset = Poset(6, covers)
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert (extensions.gf_comaj(poset), ppartitions.rpp_size_gf(poset, 2)) == expected
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["posets.order_ideals.calls"] > 0
    assert metrics["posets.ideals"] > 0
    assert "_ideals" in vars(poset)
