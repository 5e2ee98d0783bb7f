"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off: set-up runs several times (``setup_s`` is the
median), then whole iterations of the workload repeat for about
``--seconds`` seconds.  ``--trace 1`` makes one untraced pass (the
runners' own harness timings, the scaling probe), then one traced pass in
process with ``jobs=1``, and reports the per-layer metrics.  Every pair of
every pass is checked against ``perfbench/reference.json``.

Human-readable lines go first; the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from math import ceil
from pathlib import Path

from reference import count_failures, input_seed, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Worker processes of the pooled workloads' timed iterations.
JOBS = 2

END_TO_END = {
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pair_s_p50": "s",
    "pair_s_p90": "s",
}

WORKLOAD_NAMES = ("paper-matrix", "steady-replay", "contention", "saturation-sweep")


def nearest_rank(values, quantile: float) -> float:
    # Kept here rather than imported from the program, so the benchmark's
    # statistics do not depend on the code it measures.
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered), max(1, ceil(quantile * len(ordered)))) - 1]


def import_seconds(modules) -> float:
    """Host seconds a fresh interpreter takes to import ``modules``."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, 'src')\n"
        "started = time.perf_counter()\n"
        f"import {', '.join(modules)}\n"
        "print(time.perf_counter() - started)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(completed.stdout.split()[-1])


def timed_setup(workload, work_dir: Path, seed: int) -> float:
    """One set-up: imports in a fresh interpreter plus the in-process part
    (scenario or spec construction, trace generation, trace files)."""
    started = time.perf_counter()
    workload.setup(work_dir, seed)
    return time.perf_counter() - started + import_seconds(workload.modules)


class Tally:
    """Pairs attempted and failed across every pass of a run."""

    def __init__(self, expected) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, iteration) -> None:
        pairs = max(len(self.expected), len(iteration.pairs) + iteration.failures)
        self.attempted += pairs
        self.failed += min(pairs, count_failures(iteration, self.expected))

    def crashed(self) -> None:
        traceback.print_exc()
        pairs = max(1, len(self.expected))
        self.attempted += pairs
        self.failed += pairs


def measure(workload, seconds: float, tally: Tally):
    """Whole iterations for about ``seconds``: stop once the next one would
    end further past the target than stopping now falls short of it."""
    iterations = []
    started = time.perf_counter()
    while True:
        try:
            iteration = workload.iterate(JOBS)
        except Exception:  # noqa: BLE001 - counted as failed pairs
            tally.crashed()
            break
        tally.check(iteration)
        iterations.append(iteration)
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * iteration.seconds >= seconds:
            break
    return iterations


def peak_rss_mb() -> float:
    """The higher of this process's and its finished children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, args, work_dir: Path, seed: int, tally: Tally):
    from layers import model_report

    setups = [timed_setup(workload, work_dir, seed) for _ in range(SETUP_REPEATS)]
    iterations = measure(workload, args.seconds, tally)
    samples = [s for iteration in iterations for s in iteration.pair_seconds.values()]
    rates = [i.requests / i.seconds for i in iterations if i.seconds > 0]
    metrics = {
        "requests_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "pair_s_p50": statistics.median(samples) if samples else 0.0,
        "pair_s_p90": nearest_rank(samples, 0.90),
    }
    print(
        f"{workload.name}: {len(iterations)} iteration(s), "
        f"{sum(i.seconds for i in iterations):.2f} s timed, "
        f"{len(samples)} pair samples, setups "
        + ", ".join(f"{s:.3f}" for s in setups)
        + " s"
    )
    if iterations:
        print("model (informational, never gated):")
        for name, value in model_report(workload.name, iterations[-1].pairs).items():
            if value:
                print(f"  {name} = {value:.6g}")
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}


def traced(workload, args, work_dir: Path, seed: int, tally: Tally):
    from layers import PER_LAYER, coverage, coverage_table, layer_metrics, model_report
    from tracing import Tracer

    workload.setup(work_dir, seed)
    plain = workload.iterate(JOBS)
    tally.check(plain)
    growth = workload.cost_growth(plain)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(work_dir, seed)
        traced_pass = workload.iterate(1)
    finally:
        tracer.uninstall()
    tally.check(traced_pass)
    tracer.dump(OUT / f"spans-{workload.name}.bin")
    metrics = layer_metrics(
        tracer, plain.harness, growth, sum(plain.pair_seconds.values())
    )
    metrics.update(model_report(workload.name, plain.pairs))
    for line in coverage_table(
        workload.name, coverage(tracer, workload.pooled, workload.path)
    ):
        print(line)
    print(
        f"traced replay {metrics['core.replay.wall_s']:.3f} s vs untraced "
        f"{sum(plain.pair_seconds.values()):.3f} s: tracing overhead "
        f"{metrics['tracing.overhead_share']:.1%}"
    )
    return {name: (metrics[name], unit) for name, unit, _better in PER_LAYER}


def stop_children() -> None:
    """Stop and reap every process this run started.

    The program's pool joins its workers, but the shared-memory blocks it
    ships traces in start the multiprocessing resource tracker, a process
    that otherwise outlives the run until it notices the pipe close."""
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    seed = input_seed(args.seed)
    expected = load_reference().get(workload.name, {}).get(str(seed), {})
    if not expected:
        print(f"no reference digests for {workload.name} input seed {seed}",
              file=sys.stderr)
    tally = Tally(expected)
    work_dir = OUT / f"work-{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else end_to_end
        metrics = run(workload, args, work_dir, seed, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        stop_children()
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
