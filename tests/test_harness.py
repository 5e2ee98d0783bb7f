"""Tests for the experiment harness: matrices, runner, tables and figures."""

import pytest

from repro.harness.experiments import (
    FULL_SCALE,
    QUICK_SCALE,
    EvaluationMatrix,
    ExperimentScale,
    default_matrix,
    quick_matrix,
)
from repro.harness.figures import (
    PAPER_SPEEDUP_SUMMARY,
    figure10_latency,
    figure11_power,
    figure8_speedup,
    figure9_bandwidth,
    render_figure,
    speedup_summary,
)
from repro.harness.parallel import ParallelEvaluationRunner
from repro.harness.tables import (
    format_table,
    render_all_tables,
    table1_resource_configuration,
    table2_optical_inventory,
    table3_benchmarks,
    table4_memory_interconnects,
)


class TestExperimentScale:
    def test_default_scale_is_valid(self):
        scale = ExperimentScale()
        assert scale.synthetic_requests > 0
        assert 0 < scale.splash_fraction <= 1

    def test_splash_requests_clamped(self):
        scale = ExperimentScale(
            splash_fraction=1e-6, splash_min_requests=1000, splash_max_requests=5000
        )
        assert scale.splash_requests(240_000_000) == 1000
        scale = ExperimentScale(
            splash_fraction=0.5, splash_min_requests=1000, splash_max_requests=5000
        )
        assert scale.splash_requests(240_000_000) == 5000

    def test_named_scales(self):
        assert QUICK_SCALE.synthetic_requests < FULL_SCALE.synthetic_requests

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            ExperimentScale(synthetic_requests=0)
        with pytest.raises(ValueError):
            ExperimentScale(splash_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentScale(splash_min_requests=10, splash_max_requests=5)


class TestEvaluationMatrix:
    def test_default_matrix_is_5_by_17(self):
        matrix = default_matrix()
        assert len(matrix.configurations()) == 5
        assert len(matrix.workloads()) == 17
        assert matrix.run_count() == 85

    def test_workload_names_in_paper_order(self):
        matrix = default_matrix()
        names = matrix.workload_names()
        assert names[:6] == [
            "Uniform",
            "Hot Spot",
            "Tornado",
            "Transpose",
            "Bit Reversal",
            "Neighbor",
        ]
        assert names[6] == "Barnes"
        assert len(matrix.synthetic_names()) == 6
        assert len(matrix.splash_names()) == 11

    def test_requests_for_scales_by_workload_kind(self):
        matrix = quick_matrix()
        synthetic = matrix.workloads()[0]
        splash = matrix.workloads()[8]  # FFT
        assert matrix.requests_for(synthetic) == matrix.scale.synthetic_requests
        assert (
            matrix.scale.splash_min_requests
            <= matrix.requests_for(splash)
            <= matrix.scale.splash_max_requests
        )

    def test_subset_matrix(self):
        matrix = EvaluationMatrix(include_splash=False)
        assert len(matrix.workloads()) == 6
        assert matrix.splash_names() == []

    def test_workload_filter_substring(self):
        matrix = EvaluationMatrix(workload_filter=["uni", "fft"])
        assert matrix.workload_names() == ["Uniform", "FFT"]
        assert matrix.synthetic_names() == ["Uniform"]
        assert matrix.splash_names() == ["FFT"]
        assert matrix.run_count() == 10

    def test_workload_filter_no_match_is_empty(self):
        matrix = EvaluationMatrix(workload_filter=["nosuchworkload"])
        assert matrix.workloads() == []
        assert matrix.run_count() == 0


def _tiny_matrix():
    """A matrix small enough to run inside a unit test."""
    matrix = EvaluationMatrix(
        scale=ExperimentScale(
            synthetic_requests=800,
            splash_fraction=1e-6,
            splash_min_requests=800,
            splash_max_requests=800,
        ),
        configuration_names=["LMesh/ECM", "XBar/OCM"],
        include_splash=False,
    )
    return matrix


def _runner(**kwargs):
    """The matrix runner in process (``jobs=1``, no worker pool)."""
    return ParallelEvaluationRunner(matrix=_tiny_matrix(), jobs=1, **kwargs)


class TestEvaluationRunner:
    def test_run_produces_all_pairs(self):
        runner = _runner()
        results = runner.run()
        assert len(results) == 12  # 2 configurations x 6 synthetic workloads
        assert runner.total_simulated_requests() == 12 * 800
        assert runner.total_wall_clock_seconds() > 0

    def test_run_workload_by_name(self):
        runner = _runner()
        results = runner.run_workload("Uniform")
        assert [r.configuration for r in results] == ["LMesh/ECM", "XBar/OCM"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            _runner().run_workload("Linpack")

    def test_progress_callback(self):
        messages = []
        runner = _runner(progress=messages.append)
        runner.run_workload("Uniform")
        assert len(messages) == 2
        assert "Uniform" in messages[0]

    def test_figures_extractable_from_runner_results(self):
        runner = _runner()
        results = runner.run()
        speedups = figure8_speedup(results, workload_order=runner.matrix.workload_names())
        assert set(speedups) == {
            "Uniform",
            "Hot Spot",
            "Tornado",
            "Transpose",
            "Bit Reversal",
            "Neighbor",
        }
        for by_config in speedups.values():
            assert by_config["LMesh/ECM"] == pytest.approx(1.0)
            assert by_config["XBar/OCM"] > 0
        bandwidths = figure9_bandwidth(results)
        latencies = figure10_latency(results)
        powers = figure11_power(results)
        for table in (bandwidths, latencies, powers):
            assert set(table) == set(speedups)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_table1_matches_paper(self):
        rows = dict(table1_resource_configuration())
        assert rows["Number of clusters"] == "64"
        assert rows["Issue width"] == "2"

    def test_table2_totals(self):
        rows = table2_optical_inventory()
        total = rows[-1]
        assert total[0] == "Total"
        assert total[1] == 388

    def test_table3_lists_all_17_workloads(self):
        assert len(table3_benchmarks()) == 17

    def test_table4_columns(self):
        rows = table4_memory_interconnects()
        by_key = {row[0]: (row[1], row[2]) for row in rows}
        assert by_key["Memory controllers"] == (64, 64)
        assert float(by_key["Memory bandwidth (TB/s)"][0]) == pytest.approx(10.24)
        assert float(by_key["Memory bandwidth (TB/s)"][1]) == pytest.approx(0.96)

    def test_render_all_tables(self):
        report = render_all_tables()
        for title in ("Table 1", "Table 2", "Table 3", "Table 4"):
            assert title in report


class TestFigures:
    def test_render_figure_produces_bars(self):
        table = {"Uniform": {"LMesh/ECM": 1.0, "XBar/OCM": 4.0}}
        chart = render_figure(table, title="Figure 8", unit="x")
        assert "Figure 8" in chart
        assert "XBar/OCM" in chart
        assert chart.count("#") > 0

    def test_render_figure_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            render_figure({}, title="x", width=2)

    def test_speedup_summary_keys(self):
        # Build a fake result set with the right configurations.
        from tests.test_core_config_and_results import _result

        results = []
        for workload in ("Uniform", "FFT"):
            results.append(_result(workload, "LMesh/ECM", 8e-6))
            results.append(_result(workload, "HMesh/ECM", 6e-6))
            results.append(_result(workload, "HMesh/OCM", 3e-6))
            results.append(_result(workload, "XBar/OCM", 2e-6))
        summary = speedup_summary(results, ["Uniform"], ["FFT"])
        assert summary["synthetic_ocm_over_ecm"] == pytest.approx(2.0)
        assert summary["splash_xbar_over_hmesh_ocm"] == pytest.approx(1.5)
        assert summary["corona_over_baseline_synthetic"] == pytest.approx(4.0)

    def test_paper_reference_values(self):
        assert PAPER_SPEEDUP_SUMMARY["synthetic_ocm_over_ecm"] == 3.28
        assert PAPER_SPEEDUP_SUMMARY["splash_ocm_over_ecm"] == 1.80
