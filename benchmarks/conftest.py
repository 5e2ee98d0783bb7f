"""Shared fixtures for the paper-reproduction benchmarks.

The figure benchmarks (Figures 8-11) all consume the same evaluation matrix,
so it is run exactly once per benchmark session at the quick scale and shared
through a session-scoped fixture.  The matrix is fanned across worker
processes (``REPRO_BENCH_JOBS`` processes; default: every available CPU),
which divides its wall-clock by the core count while producing results
bit-identical to an in-process ``jobs=1`` run.  Table benchmarks and micro-benchmarks do
not need it and stay fast.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.experiments import quick_matrix
from repro.harness.parallel import ParallelEvaluationRunner


@pytest.fixture(scope="session")
def evaluation_matrix():
    """The 5-configuration x 15-workload matrix at the quick scale."""
    return quick_matrix()


@pytest.fixture(scope="session")
def evaluation_results(evaluation_matrix):
    """Results of running the full matrix once (shared by all figure benches).

    ``REPRO_BENCH_JOBS`` overrides the worker count (0 = all CPUs, 1 =
    in process); the results are bit-identical for every value.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0"))
    runner = ParallelEvaluationRunner(matrix=evaluation_matrix, jobs=jobs)
    runner.run()
    return runner.results


@pytest.fixture(scope="session")
def workload_order(evaluation_matrix):
    return evaluation_matrix.workload_names()


@pytest.fixture(scope="session")
def synthetic_names(evaluation_matrix):
    return evaluation_matrix.synthetic_names()


@pytest.fixture(scope="session")
def splash_names(evaluation_matrix):
    return evaluation_matrix.splash_names()
