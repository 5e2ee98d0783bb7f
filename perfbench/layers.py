"""Per-layer metrics, the coverage table and the informational model report.

Every metric here comes from the traced run (``--trace 1``), except the
``harness.*``, ``api.*`` and ``sweeps.*`` numbers, which are the runners'
own timings from the untraced pass of the same run.  A metric that does not
apply to a workload reads 0 (for instance ``sweeps.points`` outside
``saturation-sweep``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.harness.figures import PAPER_SPEEDUP_SUMMARY, speedup_summary
from repro.sweeps.saturation import saturation_rows

from tracing import REPLAY_LAYERS, Tracer

#: Section 5 ratios reported by ``harness.figures.speedup_summary``.
SPEEDUP_KEYS = (
    "synthetic_ocm_over_ecm",
    "synthetic_xbar_over_hmesh_ocm",
    "corona_over_baseline_synthetic",
    "splash_ocm_over_ecm",
    "splash_xbar_over_hmesh_ocm",
    "corona_over_baseline_splash",
)

#: Configurations of the stock latency-throughput sweep, by metric suffix.
KNEE_CONFIGURATIONS = (("xbar_ocm", "XBar/OCM"), ("lmesh_ecm", "LMesh/ECM"))

FABRICS = ("xbar", "mesh")

#: ``(name, unit, better)`` of every per-layer metric, in output order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.replay.wall_s", "s", "lower"),
    ("core.replay.self_s", "s", "lower"),
    ("core.events", "count", "lower"),
    ("core.ns_per_event", "ns", "lower"),
    ("core.cost_growth.xbar", "ratio", "lower"),
    ("core.cost_growth.mesh", "ratio", "lower"),
    ("core.hub.mshr_wait_ns_avg", "ns", "lower"),
    ("core.hub.injection_max_occupancy", "count", "lower"),
    *(
        (f"network.transfer.{kind}.{fabric}", unit, "lower")
        for fabric in FABRICS
        for kind, unit in (("calls", "count"), ("ns_per_call", "ns"), ("self_s", "s"))
    ),
    ("network.token_wait_ns_avg", "ns", "lower"),
    ("network.broadcast.calls", "count", "lower"),
    ("network.broadcast.self_s", "s", "lower"),
    ("memory.access.calls", "count", "lower"),
    ("memory.access.ns_per_call", "ns", "lower"),
    ("memory.access.self_s", "s", "lower"),
    ("memory.admit_overflow_share", "share", "lower"),
    ("memory.queue.max_occupancy", "count", "lower"),
    ("coherence.process_miss.calls", "count", "lower"),
    ("coherence.process_miss.ns_per_call", "ns", "lower"),
    ("coherence.process_miss.self_s", "s", "lower"),
    ("coherence.invalidations", "count", "lower"),
    ("coherence.broadcasts", "count", "lower"),
    ("trace.generate.ns_per_request.synthetic", "ns", "lower"),
    ("trace.generate.ns_per_request.splash2", "ns", "lower"),
    ("trace.generate.ns_per_request.poisson", "ns", "lower"),
    ("trace.read.ns_per_request", "ns", "lower"),
    ("trace.write.ns_per_request", "ns", "lower"),
    ("harness.dispatch_s", "s", "lower"),
    ("harness.shipping_s", "s", "lower"),
    ("harness.trace_generation_s", "s", "lower"),
    ("harness.worker_replay_s", "s", "lower"),
    ("harness.idle_share", "share", "lower"),
    ("harness.retries", "count", "lower"),
    ("api.sink_write_s", "s", "lower"),
    ("sweeps.points", "count", "higher"),
    ("sweeps.trace_cache.generations", "count", "lower"),
    ("sweeps.overhead_s", "s", "lower"),
    ("tracing.overhead_share", "share", "lower"),
    ("tracing.accounted_share", "share", "higher"),
    *((f"model.speedup.{key}", "ratio", "higher") for key in SPEEDUP_KEYS),
    *(
        (f"model.paper_gap.{key}", "share", "lower")
        for key in SPEEDUP_KEYS
        if key in PAPER_SPEEDUP_SUMMARY
    ),
    *((f"model.knee_rps.{slug}", "1/s", "higher") for slug, _ in KNEE_CONFIGURATIONS),
    ("model.saturated_points", "count", "lower"),
)

HARNESS_METRICS = tuple(
    name for name, _u, _b in PER_LAYER if name.split(".")[0] in ("harness", "api", "sweeps")
)


def _per(total: float, count: float, scale: float = 1e9) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(
    tracer: Tracer,
    harness: Dict[str, float],
    growth: Dict[str, float],
    untraced_replay_s: float,
) -> Dict[str, float]:
    """Every non-model per-layer metric of one traced run."""
    counters = tracer.counters
    replay_wall = tracer.inclusive_s("core.replay")
    metrics = {
        "core.replay.wall_s": replay_wall,
        "core.replay.self_s": tracer.self_s("core.replay"),
        "core.events": counters.get("core.events", 0.0),
        "core.ns_per_event": _per(
            tracer.self_s("core.replay"), counters.get("core.events", 0.0)
        ),
        "core.hub.mshr_wait_ns_avg": _per(
            counters.get("core.hub.mshr_wait_s", 0.0),
            counters.get("core.requests", 0.0),
        ),
        "core.hub.injection_max_occupancy": counters.get(
            "core.hub.injection_occupancy.max", 0.0
        ),
        "network.token_wait_ns_avg": _per(
            counters.get("network.token_wait_s", 0.0),
            counters.get("network.token_grants", 0.0),
        ),
        "memory.admit_overflow_share": _per(
            counters.get("memory.admit_overflow", 0.0),
            tracer.calls("memory.access"),
            scale=1.0,
        ),
        "memory.queue.max_occupancy": counters.get("memory.queue.occupancy.max", 0.0),
        "coherence.invalidations": counters.get("coherence.invalidations", 0.0),
        "coherence.broadcasts": counters.get("coherence.broadcasts", 0.0),
        "tracing.overhead_share": (
            replay_wall / untraced_replay_s - 1.0 if untraced_replay_s else 0.0
        ),
        "tracing.accounted_share": _per(
            sum(tracer.self_s(name) for name in REPLAY_LAYERS), replay_wall, 1.0
        ),
    }
    for fabric in FABRICS:
        metrics[f"core.cost_growth.{fabric}"] = growth.get(fabric, 0.0)
    for span, base, suffix in (
        *((f"network.transfer.{f}", "network.transfer", f".{f}") for f in FABRICS),
        ("network.broadcast", "network.broadcast", ""),
        ("memory.access", "memory.access", ""),
        ("coherence.process_miss", "coherence.process_miss", ""),
    ):
        calls = tracer.calls(span)
        metrics[f"{base}.calls{suffix}"] = float(calls)
        metrics[f"{base}.self_s{suffix}"] = tracer.self_s(span)
        metrics[f"{base}.ns_per_call{suffix}"] = _per(tracer.inclusive_s(span), calls)
    for kind in ("synthetic", "splash2", "poisson"):
        span = f"trace.generate.{kind}"
        metrics[f"trace.generate.ns_per_request.{kind}"] = _per(
            tracer.inclusive_s(span), counters.get(span + ".requests", 0.0)
        )
    for kind in ("read", "write"):
        span = f"trace.{kind}"
        metrics[f"trace.{kind}.ns_per_request"] = _per(
            tracer.inclusive_s(span), counters.get(span + ".requests", 0.0)
        )
    for name in HARNESS_METRICS:
        metrics[name] = float(harness.get(name, 0.0))
    return metrics


def model_report(workload: str, pairs) -> Dict[str, float]:
    """Simulated-model numbers beside the paper's, never gated.

    ``pairs`` are an iteration's ``(key, result, trace length)`` triples.
    Section 5 ratios come from ``paper-matrix`` and knees from
    ``saturation-sweep``; elsewhere they read 0.  Gating these would push
    the model's tuning parameters toward the paper's numbers, which the
    project's roadmap rules out: gaps are tracked and explained, never
    tuned away."""
    results = [result for _key, result, _n in pairs]
    summary = {}
    if workload == "paper-matrix":
        summary = speedup_summary(
            results,
            sorted({r.workload for r in results if r.is_synthetic}),
            sorted({r.workload for r in results if not r.is_synthetic}),
        )
    report = {}
    for key in SPEEDUP_KEYS:
        report[f"model.speedup.{key}"] = summary.get(key, 0.0)
        if key in PAPER_SPEEDUP_SUMMARY:
            measured = summary.get(key)
            report[f"model.paper_gap.{key}"] = (
                abs(measured / PAPER_SPEEDUP_SUMMARY[key] - 1.0)
                if measured is not None
                else 0.0
            )
    knees = {}
    if workload == "saturation-sweep":
        knees = {
            configuration: row
            for configuration, _workload, row in saturation_rows(
                [SimpleNamespace(result=result) for result in results]
            )
        }
    for slug, configuration in KNEE_CONFIGURATIONS:
        row = knees.get(configuration)
        knee = row["knee"] if row else None
        report[f"model.knee_rps.{slug}"] = (
            row["offered"][knee] if knee is not None else 0.0
        )
    report["model.saturated_points"] = float(
        sum(1 for result in results if result.saturated)
    )
    return report


#: Hot-path variants in coverage-table order.
VARIANTS = (
    "fabric XBar",
    "fabric LMesh",
    "fabric HMesh",
    "memory OCM",
    "memory ECM",
    "coherence off",
    "coherence on",
    "broadcast invalidation",
    "unicast invalidation",
    "closed loop",
    "open loop",
    "admission overflow",
    "worker pool",
    "in process",
    "matrix path",
    "sweep path",
    "faults",
    "observability",
)

#: Variants no workload covers, and why.
UNCOVERED = {
    "faults": "off by default; the fault-free path is bit-identical when off",
    "observability": "off by default; telemetry is bit-identical when off",
}


def coverage(tracer: Tracer, pooled: bool, path: str) -> List[str]:
    """The variants one traced run proves it exercised."""
    seen = {name for name, count in tracer.variants.items() if count}
    counters = tracer.counters
    if tracer.calls("network.broadcast"):
        seen.add("broadcast invalidation")
    if counters.get("coherence.unicasts", 0):
        seen.add("unicast invalidation")
    if counters.get("memory.admit_overflow", 0):
        seen.add("admission overflow")
    seen.add("worker pool" if pooled else "in process")
    if path:
        seen.add(f"{path} path")
    return [variant for variant in VARIANTS if variant in seen]


def coverage_table(workload: str, exercised: List[str]) -> List[str]:
    """Markdown lines: one row per variant, marked for this workload."""
    lines = [f"| variant | {workload} |", "|---|---|"]
    for variant in VARIANTS:
        mark = "yes" if variant in exercised else "-"
        if variant in UNCOVERED:
            mark = f"no workload: {UNCOVERED[variant]}"
        lines.append(f"| {variant} | {mark} |")
    return lines
