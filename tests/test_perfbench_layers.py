"""The perfbench tracer still finds the names it wraps.

``perfbench/layers.py`` wraps qtab functions by name, so deleting or renaming
one of them breaks a traced benchmark run.  This loads the tracer from its
file, leaving the file as it is, and runs one traced toggle solve.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qtab import solver
from qtab.distributions import statistic_ddeg
from qtab.posets import build_rectangle

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_tracer_counts_a_toggle_solve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
