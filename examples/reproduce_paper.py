#!/usr/bin/env python3
"""Reproduce the paper's full evaluation: Tables 1-4 and Figures 8-11.

Runs the complete 5-configuration x 17-workload matrix (6 synthetic + 11
SPLASH-2) as one scenario at a configurable scale, renders every table and
figure as text, and prints the Section 5 geometric-mean summary next to the
paper's numbers.  ``corona-repro run`` writes the same figures into its
markdown report.

Run with::

    python examples/reproduce_paper.py                 # quick scale
    python examples/reproduce_paper.py --scale full    # overnight scale
    python examples/reproduce_paper.py --requests 40000
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ScaleSpec, Scenario, WorkloadSpec, build_matrix, run
from repro.harness.figures import (
    PAPER_SPEEDUP_SUMMARY,
    figure10_latency,
    figure11_power,
    figure8_speedup,
    figure9_bandwidth,
    render_figure,
    speedup_summary,
)
from repro.harness.tables import render_all_tables
from repro.trace.synthetic import synthetic_workloads


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=("quick", "default", "full"), default="quick",
        help="how far to scale the paper's request counts down",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override: requests per synthetic workload",
    )
    parser.add_argument(
        "--skip-splash", action="store_true", help="only run the synthetic workloads"
    )
    return parser.parse_args(argv)


def build_scenario(args: argparse.Namespace) -> Scenario:
    """The evaluation scenario the command-line flags describe."""
    scale = ScaleSpec(tier=args.scale)
    if args.requests is not None:
        floor = scale.resolve().splash_min_requests
        scale = ScaleSpec(
            tier=args.scale,
            synthetic_requests=args.requests,
            splash_min_requests=min(args.requests, floor),
            splash_max_requests=max(args.requests, floor),
        )
    workloads = ()  # every registered workload, in the paper's order
    if args.skip_splash:
        workloads = tuple(WorkloadSpec(name=w.name) for w in synthetic_workloads())
    return Scenario(name="reproduce-paper", workloads=workloads, scale=scale)


def main(argv=None) -> None:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    scenario = build_scenario(args)
    matrix = build_matrix(scenario)

    print(render_all_tables())
    print()
    print(f"Running {matrix.run_count()} simulations "
          f"({len(matrix.configurations())} configurations x "
          f"{len(matrix.workloads())} workloads)...\n")

    outcome = run(scenario, jobs=1, progress=print)
    results = outcome.results
    order = matrix.workload_names()

    print()
    print(render_figure(figure8_speedup(results, workload_order=order),
                        title="Figure 8: Normalized Speedup (over LMesh/ECM)", unit="x"))
    print(render_figure(figure9_bandwidth(results, workload_order=order),
                        title="Figure 9: Achieved Bandwidth", unit=" TB/s"))
    print(render_figure(figure10_latency(results, workload_order=order),
                        title="Figure 10: Average L2 Miss Latency", unit=" ns"))
    print(render_figure(figure11_power(results, workload_order=order),
                        title="Figure 11: On-chip Network Power", unit=" W"))

    summary = speedup_summary(
        results, matrix.synthetic_names(), matrix.splash_names()
    )
    print("Section 5 geometric-mean summary (measured vs paper):")
    for key, value in summary.items():
        paper = PAPER_SPEEDUP_SUMMARY.get(key)
        reference = f"(paper: {paper:.2f})" if paper is not None else ""
        print(f"  {key:<34} {value:6.2f} {reference}")
    print(f"\nTotal simulated requests: "
          f"{sum(r.num_requests for r in results):,}; "
          f"wall clock: {outcome.wall_clock_seconds:.1f} s")


if __name__ == "__main__":
    main()
