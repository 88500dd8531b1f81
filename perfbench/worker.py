"""One pass over a workload's jobs, in a fresh process.

Usage: python3 -I worker.py WORKLOAD ROOT MODE < inputs.json

MODE is ``setup`` (import, read the inputs and stop), ``pass`` (time the
jobs) or ``trace`` (time the jobs with every layer wrapped).  qtab is
imported from ROOT/src.  The worker prints one JSON object: the monotonic
clock when set-up ended, the pass's times, peak resident memory, the outcome
of the reference checks and a digest of the answers.

The speed of the machine this was written on (2 vCPUs of a shared Xeon) swings
by up to 1.6x for tens of seconds at a time, with no steal time and with CPU
time tracking wall time, so raw times of one code differ by 20-35% between
runs.  A short reference loop that does not use qtab is therefore timed
right before and after each job, and every ``SAMPLE_EVERY_S`` during it from
a SIGALRM handler.  The job's times are also given in reference seconds:
scaled by ``REFERENCE_S`` over the loop's mean time in and around the job,
with the handler's own time taken out.  The reference loop is slowed about
as much as qtab is, so the ratio keeps what the code costs and drops most of
what the machine was doing.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

REFERENCE_S = 0.002  # time of reference_loop() on an uncontended core of that Xeon
SAMPLE_EVERY_S = 0.2  # the samples inside a job cost about 1% of its time


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of small-integer polynomial products."""
    start = time.perf_counter()
    a, b = list(range(1, 40)), list(range(3, 30))
    products = {}
    for r in range(25):
        out = [0] * (len(a) + len(b) - 1)
        for e, c in enumerate(a):
            for f, d in enumerate(b):
                out[e + f] += c * d
        products[r] = tuple(out)
    return time.perf_counter() - start


class Gauge:
    """Times one call and the reference loop before, during and after it."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s  # 0 takes no samples inside the call
        self.inside: list[float] = []
        self.before = reference_loop()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.inside.append(reference_loop()))

    def run(self, fn: Callable[[], object]) -> tuple[object, float, float, float]:
        """(result or exception, wall s, CPU s, scale to reference seconds)."""
        self.inside.clear()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            result = fn()
        except Exception as exc:  # a crashing job is a failed job
            result = exc
        signal.setitimer(signal.ITIMER_REAL, 0)
        sampling = sum(self.inside)
        wall = time.perf_counter() - start - sampling
        cpu = cpu_seconds() - cpu0 - sampling
        after = reference_loop()
        scale = REFERENCE_S / statistics.mean([self.before, *self.inside, after])
        self.before = after
        return result, wall, cpu, scale


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    workload, root, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    src = root / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import jobs
    import qtab

    if not Path(qtab.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"qtab was imported from {qtab.__file__}, not from {src}")
    todo = jobs.WORKLOADS[workload](json.load(sys.stdin))
    ready = time.monotonic()
    reference = statistics.median(reference_loop() for _ in range(5))
    result: dict[str, object] = {"ready": ready, "reference_s": reference}
    if mode == "setup":
        print(json.dumps(result))
        return
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.install()

    answers: list[object] = []
    wall = cpu = wall_ref = cpu_ref = 0.0
    # a traced pass samples only around jobs, so the layers' self times hold
    # qtab's work alone
    gauge = Gauge(0.0 if tracer else SAMPLE_EVERY_S)
    for job in todo:
        answer, job_wall, job_cpu, scale = gauge.run(job.run)
        answers.append(answer)
        wall += job_wall
        cpu += job_cpu
        wall_ref += job_wall * scale
        cpu_ref += job_cpu * scale
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(wall_s=wall, cpu_s=cpu, wall_ref_s=wall_ref, cpu_ref_s=cpu_ref, peak_rss_mb=rss_mb)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()

    attempted = failed = 0
    failures = []
    for job, answer in zip(todo, answers):
        outcome = (1, 1)
        if not isinstance(answer, Exception):
            try:
                outcome = job.check(answer)
            except Exception:  # a reference that cannot be evaluated is a failure
                pass
        attempted += outcome[0]
        failed += outcome[1]
        if outcome[1]:
            failures.append(f"{job.name}: {answer!r}"[:300])
    result.update(attempted=attempted, failed=failed, failures=failures, digest=jobs.digest(answers))
    seconds = [s for answer in answers if isinstance(answer, jobs.VerifyRun) for s in answer.seconds]
    if seconds:
        result["check_seconds"] = {
            "count": len(seconds),
            "p50": statistics.median(seconds),
            "p90": statistics.quantiles(seconds, n=10)[-1],
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
