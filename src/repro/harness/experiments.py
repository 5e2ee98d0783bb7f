"""The scaling knobs of the evaluation matrix.

The paper replays 1 M-request synthetic traces and up to 240 M-request
SPLASH-2 traces on five system configurations.  A pure-Python replay cannot
afford hundreds of millions of events per run, so the harness scales every
workload down while preserving its per-thread statistics: the request count
changes, the miss process does not.  Speedups, bandwidths, latencies and
powers are rates or ratios, so they converge quickly with trace length; the
scale is a command-line/benchmark knob, not a hidden constant.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """How far to scale the paper's request counts down.

    Parameters
    ----------
    synthetic_requests:
        Requests per synthetic workload (paper: 1 M).
    splash_fraction:
        Fraction of each SPLASH-2 benchmark's Table 3 request count to replay.
    splash_min_requests, splash_max_requests:
        Clamp on the scaled SPLASH-2 request counts, so tiny benchmarks still
        exercise every thread and huge ones stay tractable.
    seed:
        Trace-generation seed (runs are deterministic for a given seed).
    """

    synthetic_requests: int = 60_000
    splash_fraction: float = 1.0 / 4000.0
    splash_min_requests: int = 20_000
    splash_max_requests: int = 80_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.synthetic_requests < 1:
            raise ValueError("synthetic request count must be >= 1")
        if not 0 < self.splash_fraction <= 1:
            raise ValueError("splash fraction must be in (0, 1]")
        if self.splash_min_requests < 1:
            raise ValueError("splash_min_requests must be >= 1")
        if self.splash_min_requests > self.splash_max_requests:
            raise ValueError("splash_min_requests exceeds splash_max_requests")

    def splash_requests(self, paper_requests: int) -> int:
        """Scaled request count for a SPLASH-2 benchmark."""
        scaled = int(round(paper_requests * self.splash_fraction))
        return max(self.splash_min_requests, min(self.splash_max_requests, scaled))


#: Scale used by the pytest benchmarks by default: small enough that the whole
#: 85-pair matrix finishes in minutes, large enough that every hardware thread
#: issues dozens of misses.
QUICK_SCALE = ExperimentScale(
    synthetic_requests=12_000,
    splash_fraction=1.0 / 10_000.0,
    splash_min_requests=8_000,
    splash_max_requests=18_000,
)

#: Scale aimed at overnight-quality numbers.
FULL_SCALE = ExperimentScale(
    synthetic_requests=200_000,
    splash_fraction=1.0 / 1000.0,
    splash_min_requests=50_000,
    splash_max_requests=250_000,
)

#: The paper's own synthetic request count (Table 3: 1 M per pattern) with
#: SPLASH-2 scaled to comparable per-workload trace lengths (Ocean's 240 M
#: becomes 1 M; FFT/Radix land just below).  ~17 M replayed requests across
#: the 85-pair matrix: practical on a multicore host thanks to the packed
#: trace pipeline (zero-copy worker shipping, no per-record objects), but
#: still a many-hour serial run -- use ``--jobs 0``.
PAPER_SCALE = ExperimentScale(
    synthetic_requests=1_000_000,
    splash_fraction=1.0 / 240.0,
    splash_min_requests=100_000,
    splash_max_requests=1_000_000,
)
