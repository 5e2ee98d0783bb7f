"""``run(scenario) -> ScenarioResult``: the one stable execution entry point.

Everything the CLI (and user code) runs goes through here: the scenario's
names are resolved against the registries, a matrix implementing the
:class:`~repro.harness.experiments.EvaluationMatrix` protocol is built, and
the pairs are replayed by the serial or parallel runner -- the *same*
runners the legacy ``evaluate`` path uses, so a scenario translated from
legacy flags reproduces its results bit-identically.

Per-pair :class:`~repro.core.results.WorkloadResult`\\ s stream to the
``on_result`` callback as they finish (serial order), and the finished run
is exported to every sink the scenario's ``output`` block names: the
markdown report plus JSON/CSV result files carrying every stored field.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import registry
from repro.api.scenario import OutputSpec, Scenario, ScenarioError, WorkloadSpec
from repro.core.config import CoronaConfig
from repro.core.results import (
    RESULT_CSV_COLUMNS,
    WorkloadResult,
    results_to_csv_rows,
)
from repro.faults import FaultSpec
from repro.harness.experiments import ExperimentScale
from repro.harness.parallel import ParallelEvaluationRunner
from repro.obs.spec import ObservabilitySpec
from repro.harness.report import ReproductionReport
from repro.harness.resilience import PairFailure, RetryPolicy

#: Format tag written into JSON result files.
RESULTS_FORMAT = "corona-results/1"


class ScenarioMatrix:
    """A scenario resolved into the evaluation-matrix protocol.

    Implements the interface
    :class:`~repro.harness.parallel.ParallelEvaluationRunner` and
    :class:`~repro.harness.report.ReproductionReport` consume (``scale``,
    ``coherence``, ``corona_config``, ``configuration_names``,
    ``workloads()``, ``configurations()``, ``requests_for()``...), so the
    scenario path exercises exactly the machinery the legacy matrix does.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.scale: ExperimentScale = scenario.scale.resolve()
        self.coherence = scenario.coherence
        #: ``None`` (fault-free, bit-identical path) or the scenario's
        #: :class:`~repro.faults.FaultSpec`, installed into every simulator.
        self.faults: Optional[FaultSpec] = scenario.faults
        #: ``None`` (zero-overhead path) or the scenario's telemetry spec;
        #: the runners resolve per-pair sink paths from it.
        self.observability: Optional[ObservabilitySpec] = scenario.observability
        #: None when the scenario carries no overrides, so the runners keep
        #: building from the CORONA_DEFAULT singleton (bit-identical path).
        self.corona_config: Optional[CoronaConfig] = (
            scenario.system.corona_config() if scenario.system.overrides else None
        )
        self.configuration_names: Sequence[str] = list(
            scenario.system.configurations
        )
        self._configurations = [
            self._build_configuration(index, name)
            for index, name in enumerate(self.configuration_names)
        ]
        specs = list(scenario.workloads) or [
            WorkloadSpec(name=name) for name in registry.WORKLOADS.default_names()
        ]
        self._workloads = [
            self._build_workload(index, spec) for index, spec in enumerate(specs)
        ]
        self._spec_by_name: Dict[str, WorkloadSpec] = {}
        for index, (spec, workload) in enumerate(zip(specs, self._workloads)):
            if workload.name in self._spec_by_name:
                raise ScenarioError(
                    f"workloads[{index}]",
                    f"duplicate workload name {workload.name!r}; rename one "
                    f"via its params ('name' for synthetic, 'label' for "
                    f"SPLASH-2 workloads)",
                )
            self._spec_by_name[workload.name] = spec

    def _build_configuration(self, index: int, name: str):
        try:
            configuration = registry.build_configuration(name)
        except registry.RegistryError as exc:
            raise ScenarioError(
                f"system.configurations[{index}]", str(exc)
            ) from None
        if configuration.name != name:
            raise ScenarioError(
                f"system.configurations[{index}]",
                f"registry entry {name!r} built a configuration named "
                f"{configuration.name!r}; the names must match so parallel "
                f"workers and report columns resolve consistently",
            )
        return configuration

    def _build_workload(self, index: int, spec: WorkloadSpec):
        if "num_requests" in spec.params:
            # A factory-level num_requests would be silently out-ranked by
            # requests_for's spec/scale logic; insist on the spec field.
            raise ScenarioError(
                f"workloads[{index}].params.num_requests",
                "set the workload's top-level \"num_requests\" field "
                "instead; params.num_requests would not scale the run",
            )
        try:
            workload = registry.build_workload(
                spec.name, **spec.factory_params()
            )
        except registry.RegistryError as exc:
            raise ScenarioError(f"workloads[{index}].name", str(exc)) from None
        except (TypeError, ValueError, KeyError) as exc:
            raise ScenarioError(f"workloads[{index}].params", str(exc)) from None
        expected_clusters = (
            self.corona_config.num_clusters if self.corona_config else None
        )
        actual_clusters = getattr(workload, "num_clusters", None)
        if (
            expected_clusters is not None
            and actual_clusters is not None
            and actual_clusters != expected_clusters
        ):
            raise ScenarioError(
                f"workloads[{index}].params",
                f"workload spans {actual_clusters} clusters but "
                f"system.overrides sets num_clusters={expected_clusters}; "
                f"add \"num_clusters\": {expected_clusters} to the "
                f"workload's params",
            )
        return workload

    # -- EvaluationMatrix protocol ------------------------------------------
    def workloads(self) -> List:
        return list(self._workloads)

    def workload_names(self) -> List[str]:
        return [w.name for w in self._workloads]

    def synthetic_names(self) -> List[str]:
        return [
            w.name for w in self._workloads if getattr(w, "is_synthetic", False)
        ]

    def splash_names(self) -> List[str]:
        return [
            w.name
            for w in self._workloads
            if not getattr(w, "is_synthetic", False)
        ]

    def configurations(self) -> List:
        return list(self._configurations)

    def requests_for(self, workload) -> int:
        spec = self._spec_by_name.get(workload.name)
        if spec is not None and spec.num_requests is not None:
            return spec.num_requests
        fixed = getattr(workload, "fixed_requests", None)
        if fixed is not None:
            # Trace-file workloads replay their whole file by default; the
            # scale tier cannot grow or shrink fixed on-disk data.
            return fixed
        if getattr(workload, "is_synthetic", False):
            return self.scale.synthetic_requests
        profile = getattr(workload, "profile", None)
        paper_requests = getattr(profile, "paper_requests", None)
        if paper_requests is not None:
            return self.scale.splash_requests(paper_requests)
        return self.scale.synthetic_requests

    def workload_spec(self, workload_name: str) -> Optional[WorkloadSpec]:
        """The spec an effective workload name was built from (None for
        names outside this matrix) -- the sweep engine keys its cross-point
        trace cache on the spec's canonical dict form."""
        return self._spec_by_name.get(workload_name)

    def run_count(self) -> int:
        return len(self._configurations) * len(self._workloads)


def build_matrix(scenario: Scenario) -> ScenarioMatrix:
    """Resolve ``scenario`` against the registries (imports its modules)."""
    scenario.import_modules()
    return ScenarioMatrix(scenario)


@dataclass
class ExperimentContext:
    """What a registered experiment factory gets to work with.

    ``written`` is shared with the enclosing :class:`ScenarioResult`:
    experiments that emit structured sinks (JSON/CSV files of their own, the
    sweep-backed ones do) record the paths here so they surface in the CLI's
    "written to" summary alongside the scenario's sinks.
    """

    scenario: Scenario
    matrix: ScenarioMatrix
    results: List[WorkloadResult]
    jobs: int = 1
    progress: Optional[Callable[[str], None]] = None
    written: Dict[str, Path] = field(default_factory=dict)

    @property
    def scale(self) -> ExperimentScale:
        return self.matrix.scale


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    results: List[WorkloadResult]
    report: ReproductionReport
    wall_clock_seconds: float = 0.0
    written: Dict[str, Path] = field(default_factory=dict)
    #: Pairs that failed after retries (``allow_failures`` runs only; a
    #: strict run raises instead of producing a result).
    failures: List[PairFailure] = field(default_factory=list)
    #: Wall-clock profiling: ``phases`` (seconds per harness phase),
    #: ``workers`` (replay seconds per worker process) and ``pairs``
    #: (per-pair replay seconds).  Collected on every run -- a handful of
    #: ``perf_counter`` reads -- and persisted into the JSON sink.
    timings: Dict[str, object] = field(default_factory=dict)

    def to_markdown(self) -> str:
        return self.report.to_markdown()

    def to_json_dict(self) -> Dict[str, object]:
        """The JSON result-sink payload (scenario + every result field)."""
        payload = {
            "format": RESULTS_FORMAT,
            "scenario": self.scenario.to_dict(),
            "wall_clock_seconds": self.wall_clock_seconds,
            "results": [result.to_dict() for result in self.results],
        }
        if self.failures:
            payload["failures"] = [f.to_dict() for f in self.failures]
        if self.timings:
            payload["timings"] = self.timings
        return payload


def _write_path(raw: str) -> Path:
    path = Path(raw)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_outputs(
    result: ScenarioResult, matrix: Optional[ScenarioMatrix] = None
) -> None:
    # The JSON sink is written last so its "timings" section can include the
    # report/CSV write time (it cannot contain its own).
    output = result.scenario.output
    started = time.perf_counter()
    if output.report:
        path = _write_path(output.report)
        path.write_text(result.to_markdown(), encoding="utf-8")
        result.written["report"] = path
    if output.csv:
        path = _write_path(output.csv)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RESULT_CSV_COLUMNS)
            writer.writerows(results_to_csv_rows(result.results))
        result.written["csv"] = path
    if result.timings and (output.report or output.csv):
        phases = result.timings.setdefault("phases", {})
        phases["sink_write"] = (
            phases.get("sink_write", 0.0) + time.perf_counter() - started
        )
    if output.json:
        path = _write_path(output.json)
        path.write_text(
            json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        result.written["json"] = path
        _write_artifact_manifest(result, matrix, path)


def _write_artifact_manifest(
    result: ScenarioResult, matrix: Optional[ScenarioMatrix], json_sink: Path
) -> None:
    """The ``corona-artifacts/1`` manifest of everything the run left behind:
    result sinks plus each pair's telemetry artifacts, resolved with the same
    slugging the runners write with -- how `corona-repro diff` finds the raw
    latency samples of a (configuration, workload) pair."""
    from repro.obs.artifacts import (
        DiffableArtifact,
        artifact_manifest_path,
        pair_artifacts,
        write_artifact_manifest,
    )

    artifacts = [
        DiffableArtifact(kind=kind, path=str(path))
        for kind, path in sorted(result.written.items())
    ]
    observability = matrix.observability if matrix is not None else None
    if observability is not None and observability.simulation_active:
        multi = matrix.run_count() > 1
        for replay in result.results:
            artifacts.extend(
                pair_artifacts(
                    observability, replay.configuration, replay.workload, multi
                )
            )
    manifest = write_artifact_manifest(
        artifact_manifest_path(json_sink),
        artifacts,
        run_name=result.scenario.name,
    )
    result.written["artifacts"] = manifest


def run(
    scenario: Scenario,
    *,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[WorkloadResult], None]] = None,
    policy: Optional[RetryPolicy] = None,
) -> ScenarioResult:
    """Execute ``scenario`` and return its results, report and sinks.

    ``jobs`` overrides the scenario's worker count (``1`` = serial in
    process, ``0`` = every CPU).  ``on_result`` receives each pair's
    :class:`WorkloadResult` the moment it completes, in serial order --
    the streaming hook for dashboards and long sweeps.  Results are
    bit-identical between serial and parallel execution.

    ``policy`` is the resilience contract
    (:class:`~repro.harness.resilience.RetryPolicy`): per-pair timeouts
    (parallel runs), bounded retries with backoff, and -- under
    ``allow_failures`` -- partial results with the failed pairs recorded
    on :attr:`ScenarioResult.failures` instead of an exception.  ``None``
    keeps the historical fail-fast behavior.
    """
    scenario.import_modules()
    # Experiment names are checked before the (long) matrix run so a typo
    # fails in milliseconds, not after the last pair finishes; everything
    # else is validated by the matrix construction itself, which fires each
    # registered factory exactly once.
    for index, spec in enumerate(scenario.experiments):
        if spec.name not in registry.EXPERIMENTS:
            raise ScenarioError(
                f"experiments[{index}].name",
                f"unknown experiment {spec.name!r}; registered: "
                f"{registry.EXPERIMENTS.names()}",
            )
    matrix = ScenarioMatrix(scenario)
    effective_jobs = scenario.jobs if jobs is None else jobs
    heartbeat = None
    obs_spec = matrix.observability
    if obs_spec is not None and obs_spec.progress:
        from repro.obs.progress import ProgressReporter

        heartbeat = ProgressReporter(
            matrix.run_count(),
            interval_s=obs_spec.progress_interval_s,
            label="run",
        )
    started = time.perf_counter()
    runner = ParallelEvaluationRunner(
        matrix=matrix,
        jobs=effective_jobs,
        progress=progress,
        on_result=on_result,
        setup_modules=tuple(scenario.modules),
        policy=policy,
        heartbeat=heartbeat,
    )
    try:
        runner.run()
    finally:
        if heartbeat is not None:
            heartbeat.finish()
    wall_clock = time.perf_counter() - started
    failures = list(runner.failures)
    report_results = list(runner.results)
    if failures:
        # Partial matrix: figures normalize per workload against a baseline
        # configuration, so workloads missing any configuration's result are
        # dropped from the *report* (the result list and sinks keep every
        # completed pair).
        expected = set(matrix.configuration_names)
        covered: Dict[str, set] = {}
        for res in report_results:
            covered.setdefault(res.workload, set()).add(res.configuration)
        report_results = [
            res
            for res in report_results
            if covered.get(res.workload, set()) >= expected
        ]
    report = ReproductionReport(
        matrix=matrix,
        results=report_results,
        wall_clock_seconds=runner.total_wall_clock_seconds(),
    )
    timings: Dict[str, object] = {}
    if runner.phase_seconds:
        timings["phases"] = dict(runner.phase_seconds)
    if runner.worker_seconds:
        timings["workers"] = dict(runner.worker_seconds)
    if runner.run_seconds:
        timings["pairs"] = [
            {"configuration": pair[0], "workload": pair[1], "seconds": seconds}
            for pair, seconds in runner.run_seconds.items()
        ]
    result = ScenarioResult(
        scenario=scenario,
        results=list(runner.results),
        report=report,
        wall_clock_seconds=wall_clock,
        failures=failures,
        timings=timings,
    )
    context = ExperimentContext(
        scenario=scenario,
        matrix=matrix,
        results=result.results,
        jobs=effective_jobs,
        progress=progress,
        written=result.written,
    )
    for index, spec in enumerate(scenario.experiments):
        try:
            factory = registry.EXPERIMENTS.get(spec.name)
        except registry.RegistryError as exc:
            raise ScenarioError(f"experiments[{index}].name", str(exc)) from None
        try:
            section = factory(context, **dict(spec.params))
        except TypeError as exc:
            raise ScenarioError(f"experiments[{index}].params", str(exc)) from None
        report.extra_sections.append(section)
    _write_outputs(result, matrix)
    return result


# ---------------------------------------------------------------------------
# Seed experiments
# ---------------------------------------------------------------------------

@registry.register_experiment("coherence-sweep")
def _coherence_sweep_experiment(
    context: ExperimentContext,
    fractions: Optional[Sequence[float]] = None,
    configurations: Optional[Sequence[str]] = None,
    num_requests: Optional[int] = None,
    sharing: Optional[Dict[str, object]] = None,
    json: Optional[str] = None,
    csv: Optional[str] = None,
):
    """The sharing-fraction sweep (photonic vs electrical coherence cost).

    Defaults mirror ``evaluate --coherence``: the LMesh/ECM / HMesh/ECM /
    XBar/OCM trio restricted to the scenario's configurations, at the
    scenario scale's synthetic request count and seed.  Re-expressed as a
    declarative sweep spec (:func:`repro.sweeps.coherence_sweep_spec`) and
    executed by the sweep engine -- the numbers are exactly the legacy
    :func:`~repro.harness.experiments.coherence_sweep` numbers
    (equivalence-tested), and ``json``/``csv`` params additionally emit the
    long-form per-point records the report section cannot carry.
    """
    from repro.harness.experiments import (
        COHERENCE_SWEEP_CONFIGURATIONS,
        COHERENCE_SWEEP_FRACTIONS,
        CoherenceSweepPoint,
        coherence_sweep_report,
    )
    from repro.sweeps import coherence_sweep_spec, run_sweep

    names = configurations
    if names is None:
        names = [
            name
            for name in COHERENCE_SWEEP_CONFIGURATIONS
            if name in context.matrix.configuration_names
        ] or list(context.matrix.configuration_names)
    fractions = tuple(fractions) if fractions else COHERENCE_SWEEP_FRACTIONS
    spec = coherence_sweep_spec(
        fractions=fractions,
        configurations=names,
        num_requests=num_requests or context.scale.synthetic_requests,
        seed=context.scale.seed,
        coherence=context.scenario.coherence,
        sharing_kwargs=sharing,
        # System overrides and user registrations apply to the sweep exactly
        # as to the matrix (same architecture, worker-importable modules).
        overrides=context.scenario.system.overrides,
        modules=context.scenario.modules,
        output=OutputSpec(json=json, csv=csv),
    )
    outcome = run_sweep(spec, jobs=context.jobs, progress=context.progress)
    for kind, path in outcome.written.items():
        context.written[f"coherence-sweep-{kind}"] = path
    points = [
        CoherenceSweepPoint(
            sharing_fraction=fraction,
            results=tuple(
                record.result
                for record in outcome.records
                if record.axis_values["fraction"] == fraction
            ),
        )
        for fraction in fractions
    ]
    return coherence_sweep_report(points)


@registry.register_experiment("sensitivity")
def _sensitivity_experiment(
    context: ExperimentContext,
    json: Optional[str] = None,
    csv: Optional[str] = None,
):
    """The photonic-design sensitivity sweeps as a report section.

    ``json``/``csv`` params additionally write the sweep points as
    structured records (one row per swept parameter value) -- the machine
    channel for the numbers the text tables render.
    """
    import csv as csv_module
    import json as json_module

    from repro.harness.sensitivity import (
        physical_design_sweep_records,
        physical_design_sweeps_text,
    )

    if json or csv:
        records = physical_design_sweep_records()
        if json:
            path = _write_path(json)
            path.write_text(
                json_module.dumps(
                    {"format": "corona-sensitivity/1", "records": records},
                    indent=2,
                )
                + "\n",
                encoding="utf-8",
            )
            context.written["sensitivity-json"] = path
        if csv:
            path = _write_path(csv)
            with path.open("w", encoding="utf-8", newline="") as handle:
                writer = csv_module.writer(handle)
                columns = list(records[0])
                writer.writerow(columns)
                writer.writerows(
                    [record[column] for column in columns] for record in records
                )
            context.written["sensitivity-csv"] = path
    return (
        "## Photonic design sensitivity\n\n```\n"
        + physical_design_sweeps_text()
        + "\n```"
    )
