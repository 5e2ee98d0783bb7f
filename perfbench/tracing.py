"""Span tracing around the program's public layer entry points.

:class:`Tracer` replaces methods on the program's classes and modules with
wrappers that record one span per call -- name, start, end, parent span and
pair id -- and keep per-name call counts, inclusive time and self time (a
span's duration minus the time its child spans cover).  Nothing in ``src/``
is edited: the wrappers are installed by attribute assignment, which works
on the ``__slots__`` classes because their class attributes stay writable,
and :meth:`Tracer.uninstall` puts the originals back.

Every replay (``SystemSimulator.run``) opens a new pair id; the layer spans
inside it carry that id.  Spans stay in memory and :meth:`Tracer.dump`
writes them out in one file: a JSON header line, then the five columns as
little-endian arrays in header order::

    {"format": "perfbench-spans/1", "names": [...], "count": N,
     "columns": [["name", "i"], ["start_s", "d"], ["end_s", "d"],
                 ["parent", "q"], ["pair", "i"]]}
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.engine import CoherenceEngine
from repro.core.system import SystemSimulator
from repro.memory.controller import MemoryController
from repro.network.broadcast import OpticalBroadcastBus
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import ElectricalMesh
from repro.trace import io as trace_io
from repro.trace.splash2 import Splash2Workload
from repro.trace.synthetic import SyntheticWorkload

SPAN_FORMAT = "perfbench-spans/1"

#: Span names inside a replay, i.e. the layers whose self times together
#: with ``core.replay``'s account for the replay wall time.
REPLAY_LAYERS = (
    "core.replay",
    "network.transfer.xbar",
    "network.transfer.mesh",
    "network.broadcast",
    "memory.access",
    "coherence.process_miss",
)


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_pair = array("i")
        #: Per span name: ``[calls, inclusive seconds, self seconds]``.
        self.totals: Dict[str, List[float]] = {}
        #: Counters read at the layer boundaries (simulated statistics and
        #: request counts); maxima are kept under names ending in ``.max``.
        self.counters: Dict[str, float] = {}
        #: Hot-path variants the replays exercised (coverage table).
        self.variants: Dict[str, int] = {}
        self.pair = -1
        self._epoch = perf_counter()
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        self._wrap(SystemSimulator, "run", "core.replay", before=self._new_pair,
                   after=self._after_replay)
        self._wrap(OpticalCrossbar, "transfer", "network.transfer.xbar")
        self._wrap(ElectricalMesh, "transfer", "network.transfer.mesh")
        self._wrap(OpticalBroadcastBus, "broadcast_invalidate", "network.broadcast")
        self._wrap(MemoryController, "access", "memory.access",
                   after=self._after_access)
        self._wrap(CoherenceEngine, "process_miss", "coherence.process_miss")
        self._wrap(SyntheticWorkload, "generate_packed", _synthetic_kind,
                   after=self._count_generated)
        self._wrap(Splash2Workload, "generate_packed", "trace.generate.splash2",
                   after=self._count_generated)
        self._wrap(trace_io, "read_trace_packed", "trace.read",
                   after=lambda name, args, result: self._add(
                       name + ".requests", result.total_requests))
        self._wrap(trace_io, "write_trace_binary", "trace.write",
                   after=lambda name, args, result: self._add(
                       name + ".requests", args[0].total_requests))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(
        self,
        owner: object,
        attr: str,
        name,
        before: Optional[Callable[[], None]] = None,
        after: Optional[Callable[[str, tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.  ``name`` is
        a span name or a function of the call's arguments returning one."""
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        self._patches.append((owner, attr, original, owned))
        stack = self._stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_pair = self.span_parent, self.span_pair
        epoch = self._epoch
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed if fixed is not None else name(args)
            if before is not None:
                before()
            ident = tracer._id(label)
            index = len(span_start)
            parent = stack[-1] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            span_name.append(ident)
            span_parent.append(-1 if parent is None else int(parent[0]))
            span_pair.append(tracer.pair)
            span_end.append(0.0)
            started = perf_counter()
            span_start.append(started - epoch)
            try:
                result = original(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                span_end[index] = ended - epoch
                duration = ended - started
                if parent is not None:
                    parent[1] += duration
                total = tracer.totals[label]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
            if after is not None:
                after(label, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def _id(self, label: str) -> int:
        ident = self._ids.get(label)
        if ident is None:
            ident = self._ids[label] = len(self.names)
            self.names.append(label)
            self.totals[label] = [0, 0.0, 0.0]
        return ident

    # -- counters -----------------------------------------------------------
    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _max(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0.0):
            self.counters[name] = value

    def _new_pair(self) -> None:
        self.pair += 1

    def _after_access(self, name: str, args: tuple, result) -> None:
        # MemoryAccessResult(completion, queue_wait, ...): a positive queue
        # wait means the access was admitted after it arrived.
        if result[1] > 0.0:
            self._add("memory.admit_overflow", 1)

    def _count_generated(self, name: str, args: tuple, result) -> None:
        self._add(name + ".requests", result.total_requests)

    def _after_replay(self, name: str, args: tuple, result) -> None:
        simulator, trace = args[0], args[1]
        self._add("core.events", simulator._simulator.events_executed)
        self._add("core.requests", result.num_requests)
        for hub in simulator.hubs.values():
            self._add("core.hub.mshr_wait_s", hub.mshr_pool.total_wait)
            self._max(
                "core.hub.injection_occupancy.max",
                hub.injection_queue.max_occupancy_seen,
            )
        controllers = simulator.memory.controllers.values()
        self._max(
            "memory.queue.occupancy.max",
            max(controller.queue.max_occupancy_seen for controller in controllers),
        )
        network = simulator.network
        if isinstance(network, OpticalCrossbar):
            for channel in network.arbiter.channels.values():
                self._add("network.token_wait_s", channel.total_wait_s)
                self._add("network.token_grants", channel.grants)
        self._add("coherence.invalidations", result.invalidations_sent)
        self._add("coherence.broadcasts", result.invalidation_broadcasts)
        self._add("coherence.unicasts", result.invalidation_unicasts)
        configuration = simulator.configuration
        self._variant(f"fabric {configuration.network_name}")
        self._variant(f"memory {configuration.memory_name}")
        self._variant(
            "coherence on" if simulator.coherence is not None else "coherence off"
        )
        process = getattr(trace, "arrival_process", "")
        self._variant(
            "open loop" if process not in ("", "closed") else "closed loop"
        )

    def _variant(self, label: str) -> None:
        self.variants[label] = self.variants.get(label, 0) + 1

    # -- results ------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path: Path) -> None:
        """Write every recorded span to ``path`` (format in the module
        docstring)."""
        columns = (
            ("name", self.span_name),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
            ("parent", self.span_parent),
            ("pair", self.span_pair),
        )
        header = {
            "format": SPAN_FORMAT,
            "names": self.names,
            "count": len(self.span_start),
            "columns": [[label, column.typecode] for label, column in columns],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _label, column in columns:
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(handle)


def _synthetic_kind(args: tuple) -> str:
    arrival = getattr(args[0], "arrival", None)
    if arrival is not None and arrival.process != "closed":
        return "trace.generate.poisson"
    return "trace.generate.synthetic"
