"""qtab benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {count,solve,verify} --seed N \\
        --seconds S --trace {0,1}

Every pass over a workload runs in a fresh worker process (``worker.py``),
one at a time, so caches start cold in each pass and nothing runs in
parallel.  ``--seed`` draws the random posets of ``count``; ``solve`` and
``verify`` have fixed inputs.

With ``--trace 0`` the runner repeats rounds of a few processes that only
set up and one timed pass, until the next round would end after
``--seconds``, and reports the median of each end-to-end metric.  With
``--trace 1`` it alternates plain and traced passes for the same time and
reports the per-layer metrics of the traced passes.

Diagnostics and the environment go to standard error; the last line of
standard output is the JSON result.  The runner exits with 1 when a worker
fails and with 2 when the checkout has no qtab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from worker import REFERENCE_S, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole run, warm-up included, must end within this
# Set-up-only processes before each timed pass.  They are spread over the run
# like the passes, so both sample the same stretch of a machine whose speed
# drifts from second to second.
SETUP_PROBES = 5
MIN_PASSES = 3  # timed passes per untraced run, whatever --seconds says

# Per-layer metrics that must read nonzero in a traced run of each workload.
# A zero means the tracer missed the layer, so the run is reported incorrect.
PREDICTED_NONZERO = {
    "count": (
        "qpoly.mul.calls", "posets.order_ideals.calls", "posets.ideals", "posets.build.s",
        "extensions.gf_comaj.calls", "extensions.gf_bsv.calls", "extensions.enumerate.s",
        "extensions.objects", "ppartitions.rpp_size_gf.calls", "ppartitions.rpp_size_series.s",
        "ppartitions.gf_bsv_rpp.s", "ppartitions.objects", "distributions.ensemble.calls",
    ),
    "solve": (
        "qpoly.mul.calls", "qpoly.mul.terms", "qpoly.exact_div.calls", "qpoly.gcd.calls",
        "qpoly.ratfunc.calls", "qpoly.solve.calls", "qpoly.solve.cells",
        "posets.order_ideals.calls", "posets.ideals", "distributions.statistic.s",
        "solver.toggle_solve.calls", "solver.build_system.s", "solver.system.rows",
        "solver.pivots", "solver.consistent_frac",
    ),
    "verify": (
        "qpoly.mul.calls", "qpoly.exact_div.calls", "qpoly.gcd.calls", "qpoly.ratfunc.calls",
        "qpoly.solve.calls", "posets.order_ideals.calls", "posets.ideals",
        "extensions.gf_comaj.calls", "extensions.gf_bsv.calls", "extensions.enumerate.s",
        "ppartitions.rpp_size_gf.calls", "distributions.ensemble.calls",
        "distributions.expectation.calls", "distributions.check_toggle_symmetry.s",
        "solver.toggle_solve.calls", "togglebij.calls", "paths.calls",
        "cli.checks", "cli.check_s.p50", "cli.self_s",
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, drawn: list[dict], deadline: float) -> None:
        self.workload = workload
        self.payload = json.dumps(drawn)
        self.deadline = deadline

    def spawn(self, mode: str) -> dict:
        """Run one worker to completion; ``setup_s`` is from spawn to its first job."""
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), self.workload, str(ROOT), mode]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("out of time before the next worker")
        before = reference_loop()
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, input=self.payload, capture_output=True, text=True, timeout=timeout, cwd=ROOT
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker still running at the deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - start
        # scaled like a job in worker.py, by the reference loop on either side
        out["setup_ref_s"] = out["setup_s"] * 2 * REFERENCE_S / (before + out["reference_s"])
        return out


def repeat(runner: Runner, modes: tuple[str, ...], seconds: float, minimum: int) -> list[dict]:
    """Rounds of ``modes`` until the next round would end after ``seconds``."""
    done: list[dict] = []
    rounds: list[float] = []
    start = time.monotonic()
    while len(rounds) < minimum or time.monotonic() - start + statistics.median(rounds) <= seconds:
        round_start = time.monotonic()
        done.extend(runner.spawn(mode) for mode in modes)
        rounds.append(time.monotonic() - round_start)
    return done


def outcome(passes: list[dict]) -> tuple[bool, int, int]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAIL {failure}", file=sys.stderr)
    same = len({p["digest"] for p in passes}) == 1
    if not same:
        print("FAIL answers differ between passes", file=sys.stderr)
    return failed == 0 and same, attempted, failed


def untraced(runner: Runner, seconds: float) -> dict:
    runner.spawn("setup")  # untimed: leaves compiled bytecode behind
    workers = repeat(runner, ("setup",) * SETUP_PROBES + ("pass",), seconds, MIN_PASSES)
    passes = [w for w in workers if "wall_s" in w]
    correct, attempted, failed = outcome(passes)
    metrics = {
        "setup_s": statistics.median(w["setup_ref_s"] for w in workers),
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
    }
    print(json.dumps({"passes": len(passes), "set_ups": len(workers), "raw_seconds": raw}), file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()},
    }


def traced(runner: Runner, seconds: float) -> dict:
    runner.spawn("setup")
    passes = repeat(runner, ("pass", "trace"), seconds, 1)
    plain = [p for p in passes if "layers" not in p]
    with_layers = [p for p in passes if "layers" in p]
    correct, attempted, failed = outcome(passes)
    names = with_layers[0]["layers"].keys()
    layers = {name: statistics.median(p["layers"][name] for p in with_layers) for name in names}
    traced_wall = statistics.median(p["wall_ref_s"] for p in with_layers)
    layers["trace.overhead_frac"] = traced_wall / statistics.median(p["wall_ref_s"] for p in plain) - 1
    layers["trace.covered_frac"] = statistics.median(p["layers"]["covered_s"] / p["wall_s"] for p in with_layers)
    del layers["covered_s"]
    # check timings come from the untraced passes, which the wrappers do not slow
    checks = [p["check_seconds"] for p in plain if "check_seconds" in p]
    layers["cli.checks"] = statistics.median(c["count"] for c in checks) if checks else 0
    layers["cli.check_s.p50"] = statistics.median(c["p50"] for c in checks) if checks else 0.0
    layers["cli.check_s.p90"] = statistics.median(c["p90"] for c in checks) if checks else 0.0
    missing = [name for name in PREDICTED_NONZERO[runner.workload] if not layers[name]]
    if missing:
        print(f"FAIL predicted nonzero but zero: {', '.join(missing)}", file=sys.stderr)
        correct = False
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in units},
    }


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "threads": "one worker process at a time, one thread each; verify runs with --jobs 1",
        "entry_point": "qtab.cli.main in-process (verify); library functions (count, solve)",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PREDICTED_NONZERO))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qtab" / "__init__.py").is_file():
        print(f"error: no qtab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), file=sys.stderr)
    drawn = inputs.draw_posets(args.seed) if args.workload == "count" else []
    runner = Runner(args.workload, drawn, deadline)
    try:
        result = (traced if args.trace else untraced)(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
