"""Tests for the resilient execution harness: retry policies and failure
records, the chaos injection hooks, crash/hang/error recovery in the
supervised worker pool (bit-identical retried results), one failure
contract on the in-process and pooled paths, sweep failure checkpoints
with retry-only resume, `sweep status` resilience counters, the failure
CSV sink, and the CLI exit codes."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import pytest

from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec, run
from repro.cli import EXIT_FAILURES, main
from repro.faults.chaos import ChaosError, ChaosSpec, active_chaos
from repro.harness.resilience import (
    DEFAULT_POLICY,
    FAILURE_CSV_COLUMNS,
    PairFailure,
    PairFailureError,
    RetryPolicy,
    summarize_failures,
)
from repro.sweeps import SweepAxis, SweepSpec, run_sweep, sweep_status

#: Retries without wall-clock cost, failing the run on exhausted pairs.
FAST_STRICT = RetryPolicy(max_retries=1, backoff_s=0.0, retry_errors=True)
#: The same, but recording failures instead of aborting.
FAST_LENIENT = replace(FAST_STRICT, allow_failures=True)


def _scenario(num_requests: int = 400, seed: int = 2) -> Scenario:
    return Scenario(
        name="resilient",
        system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
        workloads=(WorkloadSpec(name="Uniform", num_requests=num_requests),),
        scale=ScaleSpec(seed=seed),
    )


def _sweep_spec(num_requests: int = 400) -> SweepSpec:
    return SweepSpec(
        name="chaos-grid",
        base=Scenario(
            system=SystemSpec(configurations=("LMesh/ECM",)),
            workloads=(
                WorkloadSpec(name="Uniform", num_requests=num_requests),
            ),
            scale=ScaleSpec(seed=1),
        ),
        axes=(
            SweepAxis(
                name="gap",
                path="workloads[0].params.mean_gap_cycles",
                values=(20.0, 40.0, 80.0, 160.0),
            ),
        ),
    )


@pytest.fixture(scope="module")
def clean_run():
    return run(_scenario(), jobs=1)


class TestRetryPolicy:
    def test_defaults_recover_but_abort_on_exhaustion(self):
        assert DEFAULT_POLICY.max_retries == 2
        assert DEFAULT_POLICY.timeout_s is None
        assert not DEFAULT_POLICY.allow_failures

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_factor=2.0)
        assert policy.retry_delay_s(1) == 0.5
        assert policy.retry_delay_s(2) == 1.0
        assert policy.retry_delay_s(3) == 2.0

    def test_retries_by_kind(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.retries_for("crash") == 3
        assert policy.retries_for("timeout") == 3
        assert policy.retries_for("error") == 0  # deterministic by default
        assert policy.retries_for("setup") == 0  # never heals
        assert replace(policy, retry_errors=True).retries_for("error") == 3


class TestPairFailure:
    def test_round_trip(self):
        failure = PairFailure(
            configuration="XBar/OCM",
            workload="Uniform",
            kind="crash",
            message="worker exited with status 86",
            attempts=3,
        )
        assert PairFailure.from_dict(failure.to_dict()) == failure
        assert failure.quarantined

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            PairFailure.from_dict({"bogus": 1})

    def test_error_message_lists_pairs(self):
        failure = PairFailure(
            configuration="XBar/OCM",
            workload="Uniform",
            kind="timeout",
            message="exceeded 3.0s",
            attempts=2,
        )
        error = PairFailureError([failure])
        assert "XBar/OCM x Uniform" in str(error)
        assert "--allow-failures" in str(error)
        assert error.failures == [failure]

    def test_summarize_counts_by_kind(self):
        failures = [
            PairFailure("a", "b", "crash", "", 1),
            PairFailure("a", "c", "crash", "", 1),
            PairFailure("a", "d", "timeout", "", 2),
        ]
        assert summarize_failures(failures) == {"crash": 2, "timeout": 1}

    def test_csv_columns_cover_every_field(self):
        assert set(FAILURE_CSV_COLUMNS) == {
            f.name for f in dataclasses.fields(PairFailure)
        }


class TestChaosSpec:
    def test_parse_full_spec(self):
        spec = ChaosSpec.parse(
            "crash=0.5,hang=0.25,error=0.1,seed=3,attempts=2,hang_s=5"
        )
        assert spec == ChaosSpec(
            crash_rate=0.5,
            hang_rate=0.25,
            error_rate=0.1,
            seed=3,
            attempts=2,
            hang_s=5.0,
        )

    def test_parse_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="key=value"):
            ChaosSpec.parse("crash")
        with pytest.raises(ValueError, match="unknown"):
            ChaosSpec.parse("meteor=1.0")
        with pytest.raises(ValueError, match="value"):
            ChaosSpec.parse("crash=lots")

    def test_active_chaos_tracks_the_environment(self, monkeypatch):
        monkeypatch.delenv("CORONA_CHAOS", raising=False)
        assert active_chaos() is None
        monkeypatch.setenv("CORONA_CHAOS", "crash=0.5,seed=3")
        assert active_chaos().crash_rate == 0.5
        monkeypatch.setenv("CORONA_CHAOS", "crash=0.75,seed=3")
        assert active_chaos().crash_rate == 0.75
        monkeypatch.setenv("CORONA_CHAOS", "")
        assert active_chaos() is None


class TestPoolRecovery:
    def test_crashed_workers_respawn_and_retry_bit_identically(
        self, monkeypatch, clean_run
    ):
        """Every pair's worker crashes once; retries must reproduce the
        clean run exactly (the old pool hung forever on a dead worker)."""
        monkeypatch.setenv("CORONA_CHAOS", "crash=1.0,attempts=1,seed=5")
        outcome = run(_scenario(), jobs=2, policy=DEFAULT_POLICY)
        assert not outcome.failures
        assert len(outcome.results) == len(clean_run.results)
        for clean, retried in zip(clean_run.results, outcome.results):
            for field in dataclasses.fields(clean):
                assert getattr(clean, field.name) == getattr(
                    retried, field.name
                ), (clean.workload, clean.configuration, field.name)

    def test_hung_pairs_are_killed_and_retried(self, monkeypatch, clean_run):
        monkeypatch.setenv("CORONA_CHAOS", "hang=1.0,hang_s=60,attempts=1,seed=5")
        outcome = run(
            _scenario(),
            jobs=2,
            policy=RetryPolicy(timeout_s=5.0, backoff_s=0.0),
        )
        assert not outcome.failures
        assert outcome.results == clean_run.results

    def test_exhausted_retries_raise_with_records(self, monkeypatch):
        monkeypatch.setenv("CORONA_CHAOS", "crash=1.0,attempts=99,seed=5")
        with pytest.raises(PairFailureError) as err:
            run(
                _scenario(),
                jobs=2,
                policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            )
        assert all(f.kind == "crash" for f in err.value.failures)
        assert all(f.attempts == 2 for f in err.value.failures)

    def test_allow_failures_keeps_partial_results(self, monkeypatch):
        monkeypatch.setenv("CORONA_CHAOS", "crash=1.0,attempts=99,seed=5")
        outcome = run(
            _scenario(),
            jobs=2,
            policy=RetryPolicy(
                max_retries=1, backoff_s=0.0, allow_failures=True
            ),
        )
        assert outcome.results == []
        assert len(outcome.failures) == 2
        assert {f.kind for f in outcome.failures} == {"crash"}
        payload = outcome.to_json_dict()
        assert len(payload["failures"]) == 2

    def test_partial_failures_keep_complete_workloads_reportable(
        self, monkeypatch
    ):
        """With chaos hitting only some pairs, surviving workloads with full
        configuration coverage still make it into the report."""
        monkeypatch.setenv("CORONA_CHAOS", "error=0.6,attempts=99,seed=11")
        outcome = run(_scenario(), jobs=2, policy=FAST_LENIENT)
        assert outcome.failures
        assert len(outcome.results) + len(outcome.failures) == 2


class TestSerialRetryPath:
    def test_error_chaos_retried_bit_identically(self, monkeypatch, clean_run):
        monkeypatch.setenv("CORONA_CHAOS", "error=1.0,attempts=1,seed=7")
        outcome = run(
            _scenario(), jobs=1, policy=replace(FAST_STRICT, max_retries=2)
        )
        assert not outcome.failures
        assert outcome.results == clean_run.results

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_raise(self, monkeypatch, jobs):
        """In process and pooled, a pair that used its retries aborts a
        strict run with its failure record, not the last raw exception."""
        monkeypatch.setenv("CORONA_CHAOS", "error=1.0,attempts=99,seed=7")
        with pytest.raises(PairFailureError) as err:
            run(_scenario(), jobs=jobs, policy=FAST_STRICT)
        assert [(f.kind, f.attempts) for f in err.value.failures] == [
            ("error", 2)
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_allow_failures_records_errors(self, monkeypatch, jobs):
        monkeypatch.setenv("CORONA_CHAOS", "error=1.0,attempts=99,seed=7")
        outcome = run(_scenario(), jobs=jobs, policy=FAST_LENIENT)
        assert outcome.results == []
        assert {f.kind for f in outcome.failures} == {"error"}
        assert all(f.attempts == 2 for f in outcome.failures)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_policy_run_applies_chaos(self, monkeypatch, jobs):
        """CORONA_CHAOS reaches every path, with or without a policy; the
        default policy does not retry errors, so the single failed attempt
        re-raises the original exception."""
        monkeypatch.setenv("CORONA_CHAOS", "error=1.0,attempts=99,seed=7")
        with pytest.raises(ChaosError, match="injected chaos error"):
            run(_scenario(), jobs=jobs)


class TestSweepFailureCheckpoints:
    def test_failed_points_checkpoint_and_resume_retries_only_them(
        self, monkeypatch, tmp_path
    ):
        spec = _sweep_spec()
        directory = tmp_path / "sweep"
        monkeypatch.setenv("CORONA_CHAOS", "error=0.6,attempts=99,seed=11")
        first = run_sweep(
            spec, directory=directory, jobs=2, policy=FAST_LENIENT
        )
        assert first.failed_point_ids  # chaos actually hit something
        assert first.retried_pairs > 0
        done_ids = {r.point_id for r in first.records}
        assert done_ids.isdisjoint(first.failed_point_ids)

        # The checkpoint keeps one entry per point: failed entries carry the
        # failure records, done entries the results.
        entries = [
            json.loads(line)
            for line in (directory / "points.jsonl").read_text().splitlines()
        ]
        assert len(entries) == 4
        by_status = {
            entry["point_id"]: entry.get("status", "done")
            for entry in entries
        }
        assert {
            pid for pid, status in by_status.items() if status == "failed"
        } == set(first.failed_point_ids)
        failed_entry = next(
            e for e in entries if e.get("status") == "failed"
        )
        for record in failed_entry["failures"]:
            assert PairFailure.from_dict(record).kind == "error"

        # The failure sink and manifest name the quarantined points.
        csv_text = (directory / "failures.csv").read_text()
        assert csv_text.splitlines()[0] == ",".join(
            ("point_id",) + FAILURE_CSV_COLUMNS
        )
        for pid in first.failed_point_ids:
            assert pid in csv_text
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["failed_point_ids"] == first.failed_point_ids

        # `sweep status` reports the resilience counters.
        status = sweep_status(directory)
        assert set(status.failed_ids) == set(first.failed_point_ids)
        assert status.retried_pairs == first.retried_pairs
        assert status.quarantined_pairs > 0
        assert not status.complete

        # Resume with the chaos gone: only the failed points re-run, and the
        # checkpoint never double-counts a point.
        monkeypatch.delenv("CORONA_CHAOS")
        second = run_sweep(spec, directory=directory, jobs=2)
        assert sorted(second.executed_point_ids) == sorted(
            first.failed_point_ids
        )
        assert len(second.skipped_point_ids) == len(done_ids)
        assert len(second.records) == 4
        assert len({r.point_id for r in second.records}) == 4
        assert sweep_status(directory).complete

        # The healed sweep matches a clean serial run bit-for-bit.
        clean = run_sweep(spec, jobs=1)
        healed = {r.point_id: r.result for r in second.records}
        for record in clean.records:
            assert healed[record.point_id] == record.result

    def test_strict_sweep_raises_after_checkpointing(
        self, monkeypatch, tmp_path
    ):
        directory = tmp_path / "sweep"
        monkeypatch.setenv("CORONA_CHAOS", "error=0.6,attempts=99,seed=11")
        with pytest.raises(PairFailureError):
            run_sweep(
                _sweep_spec(), directory=directory, jobs=2, policy=FAST_STRICT
            )
        # Completed points landed in the checkpoint before the raise, so a
        # strict re-run still resumes instead of starting over.
        entries = [
            json.loads(line)
            for line in (directory / "points.jsonl").read_text().splitlines()
        ]
        assert any(entry.get("status") != "failed" for entry in entries)


class TestCliExitCodes:
    def _write_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario().to_dict()))
        return path

    def test_run_exits_nonzero_on_exhausted_failures(
        self, monkeypatch, tmp_path, capsys
    ):
        path = self._write_scenario(tmp_path)
        monkeypatch.setenv("CORONA_CHAOS", "crash=1.0,attempts=99,seed=5")
        code = main(
            ["run", str(path), "--jobs", "2", "--retries", "1"]
        )
        assert code == EXIT_FAILURES
        out = capsys.readouterr().out
        assert "crash" in out

    def test_run_allow_failures_exits_zero_with_partial_results(
        self, monkeypatch, tmp_path, capsys
    ):
        path = self._write_scenario(tmp_path)
        monkeypatch.setenv("CORONA_CHAOS", "error=0.6,attempts=99,seed=11")
        code = main(
            [
                "run",
                str(path),
                "--jobs",
                "2",
                "--retries",
                "1",
                "--allow-failures",
            ]
        )
        assert code == 0
        assert "partial results" in capsys.readouterr().out

    def test_run_retried_chaos_exits_zero(self, monkeypatch, tmp_path):
        path = self._write_scenario(tmp_path)
        monkeypatch.setenv("CORONA_CHAOS", "crash=1.0,attempts=1,seed=5")
        assert main(["run", str(path), "--jobs", "2"]) == 0

    def test_sweep_run_exit_codes_and_status(
        self, monkeypatch, tmp_path, capsys
    ):
        spec_path = tmp_path / "spec.json"
        _sweep_spec().save(spec_path)
        directory = tmp_path / "out"
        monkeypatch.setenv("CORONA_CHAOS", "error=0.6,attempts=99,seed=11")
        code = main(
            [
                "sweep",
                "run",
                str(spec_path),
                "--directory",
                str(directory),
                "--jobs",
                "2",
                "--retries",
                "1",
            ]
        )
        assert code == EXIT_FAILURES
        assert "retry only the failed points" in capsys.readouterr().out

        assert main(["sweep", "status", str(directory)]) == 0
        status_out = capsys.readouterr().out
        assert "resilience:" in status_out
        assert "failed" in status_out

        # Healed resume through the CLI completes the sweep with exit 0.
        monkeypatch.delenv("CORONA_CHAOS")
        assert (
            main(
                [
                    "sweep",
                    "run",
                    str(spec_path),
                    "--directory",
                    str(directory),
                ]
            )
            == 0
        )
        assert main(["sweep", "status", str(directory)]) == 0
        assert "4/4 points complete" in capsys.readouterr().out

    def test_sweep_allow_failures_exits_zero(
        self, monkeypatch, tmp_path, capsys
    ):
        spec_path = tmp_path / "spec.json"
        _sweep_spec().save(spec_path)
        monkeypatch.setenv("CORONA_CHAOS", "error=0.6,attempts=99,seed=11")
        code = main(
            [
                "sweep",
                "run",
                str(spec_path),
                "--directory",
                str(tmp_path / "out"),
                "--jobs",
                "2",
                "--retries",
                "1",
                "--allow-failures",
            ]
        )
        assert code == 0
        assert "partial results" in capsys.readouterr().out
