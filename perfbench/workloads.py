"""The benchmark's four workloads.

Each workload builds its inputs from an *input seed* in :meth:`setup`
(the part timed as ``setup_s``) and replays them in :meth:`iterate` (the
timed region), returning an :class:`Iteration` with every pair's result.
The program under test is used only through its public entry points:
``repro.api.run``, ``repro.sweeps.run_sweep``, ``SystemSimulator.run`` and
the trace I/O functions.

=================  ======  =====================================================
workload           loop    what one iteration replays
=================  ======  =====================================================
paper-matrix       closed  5 configurations x 17 workloads, 3,000 requests per
                           pair, ``repro.api.run`` with markdown/JSON/CSV sinks
steady-replay      closed  Water-Sp and Barnes, 50,000 requests each, read from
                           binary trace files, on XBar/OCM and LMesh/ECM
contention         closed  Hot Spot (5,000) and Uniform (2,000) with default
                           sharing and coherence on, on XBar/OCM and LMesh/ECM
saturation-sweep   open    the ``latency-throughput`` sweep at its full tier:
                           9 Poisson rates x 2 configurations, 20,000 requests
=================  ======  =====================================================
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api import (
    OutputSpec,
    ScaleSpec,
    Scenario,
    build_configuration,
    build_matrix,
    build_workload,
    run,
)
from repro.coherence import CoherenceConfig
from repro.core.results import WorkloadResult
from repro.core.system import SystemSimulator
from repro.harness.resilience import RetryPolicy
from repro.sweeps import TraceCache, build_sweep, run_sweep
from repro.sweeps.spec import expand
from repro.trace import io as trace_io
from repro.trace.file import truncate_packed
from repro.trace.packed import PackedTrace, generate_packed_trace

#: Failed pairs are recorded and counted instead of aborting the iteration.
POLICY = RetryPolicy(allow_failures=True)

#: The two fabric families every in-process workload replays on.
FABRIC_CONFIGURATIONS = ("XBar/OCM", "LMesh/ECM")


def pair_key(result: WorkloadResult, prefix: str = "") -> str:
    """How a pair is named in the reference file."""
    return f"{prefix}{result.configuration}|{result.workload}"


@dataclass
class Iteration:
    """One pass over a workload's inputs."""

    #: Host seconds of the timed region.
    seconds: float
    #: ``(pair key, result, trace length the result must report)``.
    pairs: List[Tuple[str, WorkloadResult, int]] = field(default_factory=list)
    #: Pairs that raised or ended as a ``PairFailure``.
    failures: int = 0
    #: Host replay seconds of each pair, by pair key.
    pair_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-layer harness numbers taken from the runners' own timings.
    harness: Dict[str, float] = field(default_factory=dict)
    #: In-process replays: ``(pair key, configuration, trace, window)``,
    #: kept for the scaling probe.
    replays: List[Tuple[str, str, PackedTrace, int]] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return sum(result.num_requests for _key, result, _n in self.pairs)


class Workload:
    """Base class: a named workload with set-up and one timed iteration."""

    name = ""
    why = ""
    #: Modules the import probe loads: what a user of this workload imports.
    modules: Tuple[str, ...] = ()
    #: True when iterations fan out over a worker pool.
    pooled = False
    #: The harness path the workload drives (coverage table): "matrix",
    #: "sweep", or "" for direct ``SystemSimulator.run`` calls.
    path = ""

    def setup(self, work_dir: Path, input_seed: int) -> None:
        raise NotImplementedError

    def iterate(self, jobs: int) -> Iteration:
        raise NotImplementedError

    def cost_growth(self, iteration: Iteration) -> Dict[str, float]:
        """Per-fabric scaling probe; only in-process replays have one."""
        return {}


class PaperMatrix(Workload):
    name = "paper-matrix"
    why = (
        "the Figures 8-11 run users make: 85 short pairs through repro.api.run "
        "and a worker pool, so generation, dispatch, shipping and sinks show"
    )
    modules = ("repro.api", "repro.harness.parallel")
    pooled = True
    path = "matrix"
    requests_per_pair = 3_000

    def setup(self, work_dir: Path, input_seed: int) -> None:
        n = self.requests_per_pair
        self.scenario = Scenario(
            name=self.name,
            scale=ScaleSpec(
                tier="quick",
                synthetic_requests=n,
                splash_min_requests=n,
                splash_max_requests=n,
                seed=input_seed,
            ),
            output=OutputSpec(
                report=str(work_dir / "report.md"),
                json=str(work_dir / "results.json"),
                csv=str(work_dir / "results.csv"),
            ),
        )
        matrix = build_matrix(self.scenario)
        self.expected = {
            workload.name: matrix.requests_for(workload)
            for workload in matrix.workloads()
        }

    def iterate(self, jobs: int) -> Iteration:
        started = time.perf_counter()
        outcome = run(self.scenario, jobs=jobs, policy=POLICY)
        seconds = time.perf_counter() - started
        phases = outcome.timings.get("phases", {})
        replay = phases.get("replay", 0.0)
        return Iteration(
            seconds=seconds,
            pairs=[
                (pair_key(result), result, self.expected.get(result.workload, -1))
                for result in outcome.results
            ],
            failures=len(outcome.failures),
            pair_seconds={
                f"{pair['configuration']}|{pair['workload']}": pair["seconds"]
                for pair in outcome.timings.get("pairs", [])
            },
            harness={
                "harness.dispatch_s": phases.get("dispatch", 0.0),
                "harness.shipping_s": phases.get("shipping", 0.0),
                "harness.trace_generation_s": phases.get("trace_generation", 0.0),
                "harness.worker_replay_s": replay,
                "harness.idle_share": max(0.0, 1.0 - replay / (jobs * seconds)),
                # api.run exposes retries only for pairs that finally failed.
                "harness.retries": float(
                    sum(failure.attempts - 1 for failure in outcome.failures)
                ),
                "api.sink_write_s": phases.get("sink_write", 0.0),
            },
        )


class _InProcess(Workload):
    """Closed-loop replays driven straight through ``SystemSimulator.run``."""

    coherence = None

    def inputs(self):
        """The ``(trace, window)`` pairs of one iteration."""
        raise NotImplementedError

    def iterate(self, jobs: int) -> Iteration:
        """Replay each input on both fabric configurations."""
        iteration = Iteration(seconds=0.0)
        started = time.perf_counter()
        for packed, window in self.inputs():
            for name in FABRIC_CONFIGURATIONS:
                result, seconds = _replay(name, window, self.coherence, packed)
                key = pair_key(result)
                iteration.pair_seconds[key] = seconds
                iteration.pairs.append((key, result, packed.total_requests))
                iteration.replays.append((key, name, packed, window))
        iteration.seconds = time.perf_counter() - started
        return iteration

    def cost_growth(self, iteration: Iteration) -> Dict[str, float]:
        """The scaling probe: per-request replay cost on each full trace over
        the cost on its first quarter (``truncate_packed``), per fabric
        family.  1.0 means the cost per request stays flat as traces grow.

        The quarters replay in process, three times each (the median
        counts); the full-trace seconds are the iteration's own pair
        seconds, measured the same way."""
        sums: Dict[str, List[float]] = {}
        for key, name, packed, window in iteration.replays:
            seconds = iteration.pair_seconds[key]
            quarter = truncate_packed(packed, max(1, packed.total_requests // 4))
            elapsed = statistics.median(
                _replay(name, window, self.coherence, quarter)[1]
                for _ in range(3)
            )
            fabric = "xbar" if name.startswith("XBar") else "mesh"
            total = sums.setdefault(fabric, [0.0, 0.0, 0.0, 0.0])
            total[0] += seconds
            total[1] += packed.total_requests
            total[2] += elapsed
            total[3] += quarter.total_requests
        return {
            fabric: (full_s / full_n) / (quarter_s / quarter_n)
            for fabric, (full_s, full_n, quarter_s, quarter_n) in sums.items()
        }


def _replay(
    name: str, window: int, coherence, packed: PackedTrace
) -> Tuple[WorkloadResult, float]:
    """Replay ``packed`` on configuration ``name``; the result and the host
    seconds of ``SystemSimulator.run``."""
    simulator = SystemSimulator(
        build_configuration(name), window_depth=window, coherence=coherence
    )
    started = time.perf_counter()
    result = simulator.run(packed)
    return result, time.perf_counter() - started


class SteadyReplay(_InProcess):
    name = "steady-replay"
    why = (
        "long SPLASH-2 traces read from binary files and replayed in process; "
        "controllers stay below capacity, so an admission change must not move it"
    )
    modules = ("repro.api", "repro.core.system", "repro.trace.io")
    benchmarks = ("Water-Sp", "Barnes")
    requests_per_trace = 50_000

    def setup(self, work_dir: Path, input_seed: int) -> None:
        self.files = []
        for name in self.benchmarks:
            workload = build_workload(name)
            packed = generate_packed_trace(
                workload, seed=input_seed, num_requests=self.requests_per_trace
            )
            path = work_dir / f"{name}.trace"
            trace_io.write_trace_binary(packed, path)
            self.files.append((path, getattr(workload, "window", 4)))

    def inputs(self):
        for path, window in self.files:
            yield trace_io.read_trace_packed(path), window


class Contention(_InProcess):
    name = "contention"
    why = (
        "oversubscribed controllers (Hot Spot) beside shared reads and writes "
        "with coherence on: admission, directory, broadcast and unicast invalidation"
    )
    modules = ("repro.api", "repro.core.system", "repro.coherence")
    sizes = (("Hot Spot", 5_000), ("Uniform", 2_000))
    coherence = CoherenceConfig()

    def setup(self, work_dir: Path, input_seed: int) -> None:
        self.traces = []
        for name, requests in self.sizes:
            workload = build_workload(name, sharing="default")
            packed = generate_packed_trace(
                workload, seed=input_seed, num_requests=requests
            )
            self.traces.append((packed, getattr(workload, "window", 4)))

    def inputs(self):
        return self.traces


class _TimedTraceCache(TraceCache):
    """A :class:`TraceCache` that also sums the host time spent in ``get``
    (trace generation; cache hits cost a dictionary lookup)."""

    def __init__(self) -> None:
        super().__init__()
        self.seconds = 0.0

    def get(self, *args, **kwargs) -> PackedTrace:
        started = time.perf_counter()
        try:
            return super().get(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - started


class SaturationSweep(Workload):
    name = "saturation-sweep"
    why = (
        "the only open-loop path: Poisson arrivals, past-knee backlogs and the "
        "sweeps engine with its trace cache, manifest and sinks"
    )
    modules = ("repro.sweeps", "repro.harness.parallel")
    pooled = True
    path = "sweep"

    def setup(self, work_dir: Path, input_seed: int) -> None:
        self.directory = work_dir / "sweep"
        self.spec = build_sweep("latency-throughput", scale="full", seed=input_seed)
        self.expected = {
            point.point_id: point.scenario.workloads[0].num_requests
            for point in expand(self.spec)
        }

    def iterate(self, jobs: int) -> Iteration:
        cache = _TimedTraceCache()
        started = time.perf_counter()
        outcome = run_sweep(
            self.spec,
            directory=self.directory,
            jobs=jobs,
            trace_cache=cache,
            resume=False,
            policy=POLICY,
        )
        seconds = time.perf_counter() - started
        manifest = json.loads(
            (self.directory / "manifest.json").read_text(encoding="utf-8")
        )
        point_seconds = manifest.get("timings", {}).get("points", {})
        replay = sum(sorted(point_seconds.values()))
        overhead = seconds - cache.seconds - replay / jobs
        return Iteration(
            seconds=seconds,
            pairs=[
                (
                    pair_key(record.result, prefix=f"{record.point_id}|"),
                    record.result,
                    self.expected.get(record.point_id, -1),
                )
                for record in outcome.records
            ],
            failures=sum(len(f) for f in outcome.failures.values()),
            # One pair per point: the point's replay seconds are the pair's.
            pair_seconds=dict(point_seconds),
            harness={
                "harness.trace_generation_s": cache.seconds,
                "harness.worker_replay_s": replay,
                "harness.idle_share": max(0.0, 1.0 - replay / (jobs * seconds)),
                "harness.retries": float(outcome.retried_pairs),
                "sweeps.points": float(len(outcome.points)),
                "sweeps.trace_cache.generations": float(cache.generations),
                "sweeps.overhead_s": max(0.0, overhead),
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PaperMatrix, SteadyReplay, Contention, SaturationSweep)
}

