"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.harness.experiments` -- the evaluation matrix (5 configurations
  x 15 workloads) and the scaling knobs that keep a pure-Python replay
  tractable.
* :mod:`repro.harness.parallel` -- the matrix runner: replays every pair in
  process or over a supervised worker pool and collects
  :class:`~repro.core.results.WorkloadResult` objects (bit-identical for
  every worker count).
* :mod:`repro.harness.tables` -- Tables 1-4 as data plus text renderers.
* :mod:`repro.harness.figures` -- Figures 8-11 as data series plus ASCII bar
  charts, and the geometric-mean summary quoted in Section 5.
"""

from repro.harness.experiments import (
    EvaluationMatrix,
    ExperimentScale,
    default_matrix,
    quick_matrix,
)
from repro.harness.figures import (
    figure10_latency,
    figure11_power,
    figure8_speedup,
    figure9_bandwidth,
    render_figure,
    speedup_summary,
)
from repro.harness.parallel import ParallelEvaluationRunner, available_cpus
from repro.harness.tables import (
    format_table,
    table1_resource_configuration,
    table2_optical_inventory,
    table3_benchmarks,
    table4_memory_interconnects,
)

__all__ = [
    "ExperimentScale",
    "EvaluationMatrix",
    "default_matrix",
    "quick_matrix",
    "ParallelEvaluationRunner",
    "available_cpus",
    "table1_resource_configuration",
    "table2_optical_inventory",
    "table3_benchmarks",
    "table4_memory_interconnects",
    "format_table",
    "figure8_speedup",
    "figure9_bandwidth",
    "figure10_latency",
    "figure11_power",
    "render_figure",
    "speedup_summary",
]
