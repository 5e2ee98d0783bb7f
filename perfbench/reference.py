"""The correctness reference: one digest per pair, per workload, per input set.

A digest is the first 16 hex digits of the SHA-256 of a result's
``WorkloadResult.to_dict()`` as canonical JSON.  Simulated results are
exact for a fixed input, so any change to them -- intended or not -- shows
as a mismatch and counts as a failed pair.

When a change alters the model on purpose, regenerate the file and commit
it with the change (about ten minutes on two cores)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_FORMAT = "perfbench-reference/1"

#: The benchmark's ``--seed`` picks one of this many input sets; each has
#: its digests in the reference file.
INPUT_SETS = 16


def input_seed(seed: int) -> int:
    """The trace-generation seed behind benchmark seed ``seed``."""
    return 1 + seed % INPUT_SETS


def digest(result) -> str:
    canonical = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{workload: {input seed: {pair key: digest}}}`` (empty if absent)."""
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format") != REFERENCE_FORMAT:
        raise ValueError(f"{path}: not a {REFERENCE_FORMAT} file")
    return payload["workloads"]


def count_failures(iteration, expected: Dict[str, str]) -> int:
    """Pairs of ``iteration`` that fail the reference check.

    A pair fails if it raised or ended as a ``PairFailure``, is missing, is
    not in the reference, reports another request count than its trace
    length, or has a digest other than the reference's."""
    seen = set()
    failed = iteration.failures
    for key, result, trace_length in iteration.pairs:
        if (
            key in seen
            or expected.get(key) != digest(result)
            or result.num_requests != trace_length
        ):
            failed += 1
        seen.add(key)
    missing = len(set(expected) - seen)
    return failed + max(0, missing - iteration.failures)


def regenerate(path: Path = REFERENCE_PATH) -> None:
    """Replay every input set of every workload once and rewrite ``path``."""
    from workloads import WORKLOADS

    digests = {}
    work_dir = HERE / "out" / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload_class in WORKLOADS.items():
            workload = workload_class()
            sets = digests[name] = {}
            for index in range(INPUT_SETS):
                seed = input_seed(index)
                workload.setup(work_dir, seed)
                iteration = workload.iterate(jobs=2)
                if iteration.failures:
                    raise SystemExit(f"{name}: {iteration.failures} pair(s) failed")
                sets[str(seed)] = {
                    key: digest(result) for key, result, _n in iteration.pairs
                }
                print(f"{name} input seed {seed}: {len(sets[str(seed)])} pairs",
                      flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    payload = {
        "format": REFERENCE_FORMAT,
        "input_sets": INPUT_SETS,
        "workloads": digests,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
