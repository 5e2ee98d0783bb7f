"""Parallel evaluation of the (configuration x workload) matrix.

The (configuration, workload) pairs of the evaluation (85 in the full
matrix: 5 configurations x 17 workloads) are fully independent: each pair
builds its own network/memory/hub state from the configuration name and
replays an immutable trace.  The :class:`ParallelEvaluationRunner` therefore
fans the pairs across a supervised pool of worker processes and achieves
near-linear matrix wall-clock speedup on multicore hosts.

Zero-copy trace shipping
------------------------
Each workload's trace is generated once in the parent, in packed columnar
form (:class:`~repro.trace.packed.PackedTrace`), and *shipped by reference*:
the columns are laid out in one ``multiprocessing.shared_memory`` block and
the workers receive only the block's name plus a small shape header.  A
worker maps the block and replays ``memoryview`` casts over the parent's
pages -- no per-pair pickling, no per-worker copy, constant dispatch cost per
pair regardless of trace size, which is what makes the ``full`` and ``paper``
scale tiers practical.  Where shared memory is unavailable the shipment falls
back to fork-inherited traces (a parent-side registry the forked workers can
read) and, failing that, to pickling the packed columns -- still far smaller
than the old per-pair record-object pickle.

Generation overlaps replay: the pair stream is consumed lazily during pool
submission, so while workers replay workload *k*'s pairs the parent is
already generating (and shipping) workload *k+1*.

Supervision and resilience
--------------------------
The pool is supervised, not fire-and-forget: each worker is a
``multiprocessing.Process`` with its own duplex pipe, and the parent multiplexes
result pipes *and* process sentinels through ``multiprocessing.connection.
wait``.  A worker that dies mid-pair (OOM kill, segfault, injected chaos) is
therefore detected immediately, respawned, and its pending pair re-dispatched
-- the retried replay is bit-identical because pairs are pure functions of
their shipped arguments.  A :class:`~repro.harness.resilience.RetryPolicy`
adds per-pair wall-clock timeouts (hung workers are killed and their pair
retried), bounded retries with exponential backoff, and a partial-results
mode in which pairs that stay broken become structured
:class:`~repro.harness.resilience.PairFailure` records instead of aborting
the run.

Determinism and equivalence
---------------------------
:class:`ParallelEvaluationRunner` is the only matrix executor: ``jobs=1``
(or a single-CPU host) replays in process with no pool and no shipping,
through the same :func:`_fan_out_pairs` as the pool and the sweeps, so
retries, chaos, strictness and timings follow one contract on every path.
Results are bit-identical for every ``jobs`` value:

* Trace generation happens once per workload **in the parent** (same seed,
  same generator state) and workers replay exactly those packed columns.
* Each pair constructs a fresh ``SystemSimulator`` from the configuration
  name, so no state leaks between pairs, and a retried pair reproduces its
  first attempt exactly.
* Results are collected in submission order (workloads outer, configurations
  inner), so ``results`` lists compare equal element by element even when
  completions arrive out of order.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import secrets
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing import connection as _mp_connection
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.coherence import CoherenceConfig
from repro.core.config import CORONA_DEFAULT, CoronaConfig
from repro.core.results import WorkloadResult
from repro.core.system import SystemSimulator
from repro.faults import chaos as _chaos
from repro.faults.spec import FaultSpec
from repro.harness.resilience import (
    DEFAULT_POLICY,
    PairFailure,
    PairFailureError,
    RetryPolicy,
)
from repro.obs.artifacts import resolve_pair_spec, write_pair_artifacts
from repro.obs.log import configure_worker_logging, get_logger
from repro.obs.progress import ProgressReporter
from repro.obs.spec import ObservabilitySpec
from repro.trace.packed import PackedTrace, as_packed, generate_packed_trace
from repro.trace.record import TraceStream

if TYPE_CHECKING:  # repro.api.run imports this module
    from repro.api.run import ScenarioMatrix

_log = get_logger(__name__)

try:  # pragma: no cover - exercised implicitly on every import
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class WorkerSetupError(RuntimeError):
    """A worker process could not set up a pair's configuration.

    Raised (and re-raised in the parent *without* the worker traceback) when
    a configuration name cannot be resolved in the worker or a scenario
    module fails to import there -- the actionable message replaces the old
    opaque ``KeyError`` wall from deep inside the pool.  Never retried: a
    missing module does not heal between attempts.
    """


def _resolve_configuration(name: str, modules: Sequence[str] = ()):
    """Resolve a configuration name inside a worker process.

    ``modules`` are the scenario's user modules: under the ``fork`` start
    method the parent's registry is inherited and they are already loaded,
    but under ``spawn``/``forkserver`` each worker starts from a fresh
    interpreter, so they must be re-imported before the name can resolve.
    Failures raise :class:`WorkerSetupError` with a remediation hint.
    """
    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise WorkerSetupError(
                f"worker could not import scenario module {module!r}: {exc}. "
                f"Registered factories must live in an importable module "
                f"(on PYTHONPATH in the workers too), not e.g. __main__."
            ) from None
    from repro.api import registry  # deferred: keeps import graph acyclic

    try:
        return registry.build_configuration(name)
    except registry.RegistryError as exc:
        hint = (
            " If the configuration is registered by a user module, list that "
            "module in the scenario's 'modules' so workers can import it."
            if not modules
            else ""
        )
        raise WorkerSetupError(
            f"worker could not resolve configuration {name!r}: {exc}.{hint}"
        ) from None


# ---------------------------------------------------------------------------
# Trace shipping
# ---------------------------------------------------------------------------

#: Parent-side registry backing the fork-inherited fallback: forked workers
#: see a snapshot of this dict and resolve shipped keys from it directly.
#: Entries must therefore be registered *before* the pool forks (the matrix
#: runner pre-ships every trace when this fallback is in play).  Respawned
#: workers re-fork from the parent, so entries registered before the original
#: pool start stay visible to replacements too.
_FORK_REGISTRY: Dict[str, PackedTrace] = {}

_SHM_PROBE: Optional[bool] = None


def _shm_available() -> bool:
    """Whether this host can create POSIX shared-memory blocks at all
    (probed once; e.g. containers without a usable /dev/shm cannot)."""
    global _SHM_PROBE
    if _SHM_PROBE is None:
        if _shared_memory is None:
            _SHM_PROBE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=1)
                probe.close()
                probe.unlink()
                _SHM_PROBE = True
            except OSError:
                _SHM_PROBE = False
    return _SHM_PROBE

#: Worker-side cache of resolved shipments, keyed by shipment token, so a
#: worker maps each workload's block once no matter how many configurations
#: it replays against it.  Values are ``(packed_trace, shm_or_None)``; the
#: shared-memory handle is kept alive for as long as the views exist.
_WORKER_CACHE: Dict[str, Tuple[PackedTrace, object]] = {}


@atexit.register
def _release_worker_cache() -> None:
    """Drop cached shipment mappings, views strictly before their blocks.

    Registered atexit (inherited by forked workers) so shared-memory handles
    are closed while interpreter teardown order is still deterministic --
    otherwise a block's ``__del__`` can run while a trace's memoryviews are
    alive and raise an ignored ``BufferError`` at shutdown.
    """
    while _WORKER_CACHE:
        _token, (trace, shm) = _WORKER_CACHE.popitem()
        del trace
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views still referenced
                pass


def _attach_shared_memory(name: str):
    """Attach to an existing shared-memory block without adopting ownership.

    Python < 3.13 registers every attachment with the resource tracker
    (bpo-39959); ``track=False`` (3.13+) avoids that.  On older interpreters
    the fix depends on the start method: forked workers share the parent's
    tracker, where the duplicate registration is idempotent and the parent's
    ``unlink`` balances it, so nothing further is needed; spawned workers run
    their *own* tracker, which must be told to forget the block or it will
    unlink the parent's storage when the worker exits.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = _shared_memory.SharedMemory(name=name)
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            try:  # pragma: no cover - spawn/forkserver platforms
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return shm


class TraceShipment:
    """Parent-side handle of one packed trace shipped to worker processes.

    The parent keeps the storage alive for the duration of the fan-out and
    releases it in :meth:`close`; workers only ever receive the picklable
    :attr:`handle` tuple.
    """

    __slots__ = ("packed", "handle", "_shm", "_registry_key")

    def __init__(self, packed: PackedTrace, fork_ok: bool = True) -> None:
        """``fork_ok`` must be False once the pool has forked: a registry
        entry added after the fork is invisible to the workers' snapshot, so
        a late shm failure must fall through to by-value shipping instead."""
        self.packed = packed
        self._shm = None
        self._registry_key: Optional[str] = None
        header = packed.header()
        if _shared_memory is not None:
            try:
                shm = _shared_memory.SharedMemory(
                    create=True, size=max(packed.nbytes(), 1)
                )
            except OSError:
                shm = None
            if shm is not None:
                packed.copy_into(shm.buf)
                self._shm = shm
                self.handle = ("shm", shm.name, header)
                return
        if fork_ok and multiprocessing.get_start_method(allow_none=True) in (
            None,
            "fork",
        ):
            _log.info(
                "shared memory unavailable; shipping trace via the "
                "fork-inherited registry"
            )
            key = f"trace-{secrets.token_hex(8)}"
            _FORK_REGISTRY[key] = packed
            self._registry_key = key
            self.handle = ("fork", key, header)
            return
        # Last resort (no shm, or shm ran out after the pool forked): ship
        # the packed columns by value -- one pickle per worker task, but
        # 24 B/record instead of record objects.
        _log.info(
            "shared memory unavailable; shipping packed trace by value"
        )
        self.handle = packed

    def close(self) -> None:
        """Release the parent-side storage (workers hold their own maps)."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None
        if self._registry_key is not None:
            _FORK_REGISTRY.pop(self._registry_key, None)
            self._registry_key = None


def _resolve_trace(trace) -> PackedTrace:
    """Worker-side: turn whatever was shipped into a replayable trace."""
    if isinstance(trace, (PackedTrace, TraceStream)):
        return trace
    kind, token, header = trace
    cached = _WORKER_CACHE.get(token)
    if cached is not None:
        return cached[0]
    if kind == "shm":
        shm = _attach_shared_memory(token)
        packed = PackedTrace.from_buffer(header, shm.buf)
        _WORKER_CACHE[token] = (packed, shm)
    else:
        packed = _FORK_REGISTRY[token]
        _WORKER_CACHE[token] = (packed, None)
    return packed


def _replay_pair(
    configuration_name: str,
    trace,
    window: int,
    coherence: Optional[CoherenceConfig] = None,
    corona_config: Optional[CoronaConfig] = None,
    modules: Sequence[str] = (),
    faults: Optional[FaultSpec] = None,
    observability: Optional[ObservabilitySpec] = None,
) -> Tuple[WorkloadResult, float, float]:
    """Worker body: replay one (configuration, workload) pair.

    Module-level so it pickles under every multiprocessing start method.
    ``trace`` is either an in-memory trace (in-process path) or a shipment
    handle resolved against this worker's cache.  Returns the result, the
    replay wall-clock seconds measured in the worker and the seconds spent
    writing telemetry artifacts (the runner's ``sink_write`` phase).
    ``coherence`` (a picklable frozen dataclass) enables the timed MOESI
    directory in the worker's simulator; ``corona_config`` likewise ships
    scenario system overrides and ``faults`` the scenario's deterministic
    fault spec.  ``configuration_name`` resolves through the Scenario API
    registry (seeded with the five paper systems), with ``modules`` imported
    first so user-registered configurations exist in the worker too.

    ``observability`` (when active) is a *pair-resolved*
    :class:`~repro.obs.spec.ObservabilitySpec` -- its sink paths were
    already specialized for this pair in the parent -- so the worker writes
    the metrics/timeline artifacts directly; no sample arrays travel back.
    The artifact write happens after the replay timer stops, so telemetry
    never pollutes the recorded replay seconds.
    """
    configuration = _resolve_configuration(configuration_name, modules)
    trace = _resolve_trace(trace)
    simulator = SystemSimulator(
        configuration=configuration,
        corona_config=corona_config or CORONA_DEFAULT,
        window_depth=window,
        coherence=coherence,
        faults=faults,
        observability=observability,
    )
    started = time.perf_counter()
    result = simulator.run(trace)
    seconds = time.perf_counter() - started
    sink_seconds = 0.0
    if observability is not None and observability.simulation_active:
        _written, sink_seconds = write_pair_artifacts(
            simulator, configuration_name, result.workload
        )
    return result, seconds, sink_seconds


# ---------------------------------------------------------------------------
# The supervised worker pool
# ---------------------------------------------------------------------------


class _RawFailure(NamedTuple):
    """One pair's terminal failure before names are attached.

    ``payload`` is the worker's exception object when it pickled (so strict
    mode re-raises the original), otherwise a message string.
    """

    kind: str
    payload: object


class _Outcome(NamedTuple):
    """One pair's fate as every fan-out yields it, in submission order.

    ``result`` is None and ``raw`` a :class:`_RawFailure` for a pair that
    exhausted the policy's retries; ``attempts`` counts every try.
    """

    result: Optional[WorkloadResult]
    seconds: float
    sink_seconds: float
    raw: Optional[_RawFailure]
    attempts: int
    worker: str


def _raw_message(raw: _RawFailure) -> str:
    if isinstance(raw.payload, BaseException):
        return f"{type(raw.payload).__name__}: {raw.payload}"
    return str(raw.payload)


def _raise_strict(raw: _RawFailure, failure: PairFailure) -> None:
    """Abort a strict (``allow_failures=False``) run for one failed pair.

    A pair whose single attempt raised re-raises the original exception; a
    pair that used any retry (or died without one) raises
    :class:`PairFailureError` carrying its record, whichever path ran it.
    """
    if raw.kind == "setup":
        # Re-raise clean: the remote traceback (pool internals plus the
        # worker's frames) adds nothing to this actionable message.
        raise WorkerSetupError(str(raw.payload)) from None
    cause = raw.payload if isinstance(raw.payload, BaseException) else None
    if cause is not None and failure.attempts == 1:
        raise cause
    raise PairFailureError([failure]) from cause


def _pool_worker(conn) -> None:
    """Worker loop: receive ``(index, attempt, args)`` tasks, send outcomes.

    Runs until the parent sends ``None`` or the pipe closes.  Outcomes are
    ``(index, "ok", (result, seconds, sink_seconds))`` or ``(index, kind,
    payload)`` where ``kind`` is ``"setup"``/``"error"`` and ``payload`` the exception (or its
    rendering, when the exception does not pickle).  Crashes and hangs send
    nothing -- the parent detects them through the process sentinel and the
    per-pair deadline.
    """
    configure_worker_logging()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent went away
            return
        if task is None:
            return
        index, attempt, args = task
        try:
            _chaos.maybe_sabotage(index, attempt, in_process=False)
            outcome = (index, "ok", _replay_pair(*args))
        except WorkerSetupError as exc:
            outcome = (index, "setup", str(exc))
        except KeyboardInterrupt:  # pragma: no cover - interactive abort
            return
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            outcome = (index, "error", exc)
        try:
            conn.send(outcome)
        except (EOFError, OSError, BrokenPipeError):  # pragma: no cover
            return
        except Exception:
            # The payload (an exotic exception) did not pickle; degrade to
            # its rendering so the parent still gets a structured outcome.
            conn.send((index, outcome[1], _raw_message(_RawFailure(
                outcome[1], outcome[2]
            ))))


class _Worker:
    """Parent-side handle of one pool worker process."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: The in-flight ``(index, attempt, args)`` task, or None when idle.
        self.task = None
        #: Wall-clock deadline of the in-flight task (None = no timeout).
        self.deadline: Optional[float] = None


def _spawn_worker(ctx) -> _Worker:
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_pool_worker, args=(child_conn,), daemon=True)
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


def _retire_worker(worker: _Worker, kill: bool = False) -> None:
    """Tear one worker down (politely, or with SIGKILL for hung ones)."""
    if kill and worker.process.is_alive():
        worker.process.kill()
    else:
        try:
            worker.conn.send(None)
        except Exception:
            pass
    worker.process.join(timeout=2.0)
    if worker.process.is_alive():  # pragma: no cover - stuck teardown
        worker.process.kill()
        worker.process.join(timeout=2.0)
    try:
        worker.conn.close()
    except Exception:  # pragma: no cover - already closed
        pass


def _pool_fan_out(pairs: Iterable[tuple], jobs: int, count: int,
                  policy: RetryPolicy):
    """Supervised fan-out: yield one :class:`_Outcome` per pair, in
    submission order.

    The parent multiplexes worker pipes and process sentinels through
    ``multiprocessing.connection.wait``: a sentinel firing while its pipe is
    silent means the worker died mid-pair (it is respawned and the pair
    retried); a passed deadline means the pair hung (the worker is killed,
    respawned, and the pair retried).  Retries obey the policy's bounds and
    exponential backoff; pairs that stay broken yield a :class:`_RawFailure`
    instead of a result.  Completions arriving out of submission order are
    buffered so the yield order matches the in-process loop exactly.
    """
    ctx = multiprocessing.get_context()
    workers: List[_Worker] = [_spawn_worker(ctx) for _ in range(jobs)]
    iterator = iter(pairs)
    exhausted = False
    next_index = 0
    #: Min-heap of ``(eligible_at, index, attempt, args)`` backoff retries.
    retry_heap: list = []
    #: Buffered out-of-order outcomes, keyed by submission index.
    outcomes: Dict[int, _Outcome] = {}
    next_emit = 0

    def record_failure(index: int, attempt: int, args, kind: str,
                       payload, worker_name: str = "") -> None:
        if attempt < policy.retries_for(kind):
            _log.info(
                "pair %d failed (%s); scheduling retry %d",
                index, kind, attempt + 1,
            )
            eligible = time.monotonic() + policy.retry_delay_s(attempt + 1)
            heappush(retry_heap, (eligible, index, attempt + 1, args))
        else:
            outcomes[index] = _Outcome(
                None, 0.0, 0.0, _RawFailure(kind, payload), attempt + 1,
                worker_name,
            )

    def respawn(worker: _Worker, kill: bool) -> None:
        _retire_worker(worker, kill=kill)
        replacement = _spawn_worker(ctx)
        worker.process = replacement.process
        worker.conn = replacement.conn
        worker.task = None
        worker.deadline = None

    try:
        while next_emit < count:
            now = time.monotonic()
            # Dispatch: eligible retries first, then fresh pairs (consumed
            # lazily, so trace generation overlaps the earliest replays).
            for worker in workers:
                if worker.task is not None:
                    continue
                if retry_heap and retry_heap[0][0] <= now:
                    _eligible, index, attempt, args = heappop(retry_heap)
                    task = (index, attempt, args)
                elif not exhausted:
                    try:
                        args = next(iterator)
                    except StopIteration:
                        exhausted = True
                        continue
                    task = (next_index, 0, args)
                    next_index += 1
                else:
                    continue
                worker.task = task
                worker.deadline = (
                    now + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                try:
                    worker.conn.send(task)
                except (OSError, BrokenPipeError):
                    # Died idle between tasks: replace it and re-dispatch.
                    respawn(worker, kill=True)
                    worker.task = task
                    worker.deadline = (
                        now + policy.timeout_s
                        if policy.timeout_s is not None
                        else None
                    )
                    worker.conn.send(task)

            while next_emit in outcomes:
                yield outcomes.pop(next_emit)
                next_emit += 1
            if next_emit >= count:
                break

            busy = [w for w in workers if w.task is not None]
            if not busy:
                if retry_heap:
                    # Everything pending is backing off; sleep until the
                    # first retry becomes eligible.
                    time.sleep(
                        min(max(retry_heap[0][0] - time.monotonic(), 0.0), 0.2)
                    )
                    continue
                raise RuntimeError(  # pragma: no cover - invariant guard
                    "supervised pool stalled with work outstanding"
                )

            timeout = None
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(min(deadlines) - time.monotonic(), 0.0)
            if retry_heap:
                until = max(retry_heap[0][0] - time.monotonic(), 0.0)
                timeout = until if timeout is None else min(timeout, until)
            ready = set(
                _mp_connection.wait(
                    [w.conn for w in busy]
                    + [w.process.sentinel for w in busy],
                    timeout,
                )
            )
            now = time.monotonic()
            for worker in busy:
                if worker.task is None:
                    continue
                index, attempt, args = worker.task
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # Pipe broke mid-send: treat as a crash.
                        exitcode = worker.process.exitcode
                        name = worker.process.name
                        _log.warning(
                            "worker %s died (exit code %s) mid-send; "
                            "respawning", name, exitcode,
                        )
                        respawn(worker, kill=True)
                        record_failure(
                            index, attempt, args, "crash",
                            f"worker died (exit code {exitcode}) while "
                            f"replaying the pair",
                            name,
                        )
                        continue
                    worker.task = None
                    worker.deadline = None
                    _index, kind, payload = message
                    if kind == "ok":
                        outcomes[index] = _Outcome(
                            *payload, None, attempt + 1, worker.process.name
                        )
                    else:
                        record_failure(
                            index, attempt, args, kind, payload,
                            worker.process.name,
                        )
                elif worker.process.sentinel in ready:
                    # Died without sending: the satellite-1 case the old
                    # Pool hung on forever.
                    worker.process.join()
                    exitcode = worker.process.exitcode
                    name = worker.process.name
                    _log.warning(
                        "worker %s died (exit code %s) while replaying pair "
                        "%d; respawning", name, exitcode, index,
                    )
                    respawn(worker, kill=False)
                    record_failure(
                        index, attempt, args, "crash",
                        f"worker died (exit code {exitcode}) while replaying "
                        f"the pair",
                        name,
                    )
                elif worker.deadline is not None and now >= worker.deadline:
                    name = worker.process.name
                    _log.warning(
                        "pair %d exceeded its %gs timeout on worker %s; "
                        "killing and respawning", index, policy.timeout_s,
                        name,
                    )
                    respawn(worker, kill=True)
                    record_failure(
                        index, attempt, args, "timeout",
                        f"pair exceeded the per-pair timeout of "
                        f"{policy.timeout_s:g}s",
                        name,
                    )
    finally:
        for worker in workers:
            _retire_worker(worker, kill=worker.task is not None)


def _serial_fan_out(pairs: Iterable[tuple], policy: RetryPolicy):
    """In-process fan-out with the same outcomes as the pool.

    Crashes and hangs cannot occur in-process; errors follow the policy's
    ``retry_errors`` treatment and, once retries are exhausted, are yielded
    as raw failures for the caller's strictness check (``timeout_s`` is
    ignored -- a replay cannot be preempted from its own thread).
    """
    for index, args in enumerate(pairs):
        attempt = 0
        while True:
            try:
                _chaos.maybe_sabotage(index, attempt, in_process=True)
                replayed = _replay_pair(*args)
            except WorkerSetupError as exc:
                raw = _RawFailure("setup", str(exc))
            except Exception as exc:  # noqa: BLE001 - policy decides
                raw = _RawFailure("error", exc)
            else:
                yield _Outcome(*replayed, None, attempt + 1, "in-process")
                break
            if attempt < policy.retries_for(raw.kind):
                attempt += 1
                delay = policy.retry_delay_s(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            yield _Outcome(None, 0.0, 0.0, raw, attempt + 1, "in-process")
            break


def _fan_out_pairs(
    pairs: Iterable[tuple],
    jobs: int,
    count: int,
    policy: Optional[RetryPolicy] = None,
):
    """Replay ``_replay_pair`` argument tuples, yielding one
    :class:`_Outcome` per pair in submission order.

    The single fan-out implementation behind both the matrix runner and
    :func:`run_pairs` (and so the sweeps), for every ``jobs`` value.
    ``jobs`` <= 1 (after the caller clamps to the pair count and available
    CPUs) runs in-process with no pool overhead.
    Otherwise the pairs are dispatched to the supervised pool *as the
    iterable produces them* -- lazy trace generation therefore overlaps the
    earliest replays -- and results are collected in submission order,
    bit-identical to the in-process loop.  ``raw`` is None for pairs that
    succeeded (possibly after retries) and a :class:`_RawFailure` for pairs
    that exhausted the policy's retries; neither path raises for them.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    jobs = min(jobs if jobs and jobs > 0 else available_cpus(), count) or 1
    if jobs <= 1:
        yield from _serial_fan_out(pairs, policy)
        return
    yield from _pool_fan_out(pairs, jobs, count, policy)


def run_pairs(
    pairs: List[tuple],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[WorkloadResult], None]] = None,
    policy: Optional[RetryPolicy] = None,
    on_outcome: Optional[
        Callable[
            [int, Optional[WorkloadResult], Optional[PairFailure], int, float],
            None,
        ]
    ] = None,
) -> List[Optional[WorkloadResult]]:
    """Replay ``(configuration_name, trace, window, coherence[,
    corona_config, modules, faults, observability])`` tuples.

    The helper behind the coherence and parameter sweeps (and usable for any
    ad-hoc pair list); see :func:`_fan_out_pairs` for the jobs semantics.
    When a pool is used, each distinct trace is packed once and shipped
    through a :class:`TraceShipment` (shared memory first), exactly like the
    matrix runner.  The optional trailing elements ship scenario system
    overrides, worker setup modules and the fault spec, exactly like the
    matrix runner's pair stream.  ``on_result`` receives each pair's result
    the moment it is collected (in submission order) -- the streaming
    hook the sweep engine uses to checkpoint completed points as soon as
    their last pair lands.

    ``policy`` governs retries/timeouts/partial results (default:
    :data:`~repro.harness.resilience.DEFAULT_POLICY` -- crashes recovered,
    failures abort).  Under ``allow_failures`` the returned list holds
    ``None`` at failed pairs' positions, and ``on_outcome(position, result,
    failure, attempts, seconds)`` reports every pair's fate, successes
    included -- ``seconds`` is the pair's replay wall-clock measured where
    it ran (the per-point timing the sweep engine checkpoints).
    """
    if policy is None:
        policy = DEFAULT_POLICY
    effective = min(jobs if jobs and jobs > 0 else available_cpus(), len(pairs)) or 1
    shipments: Dict[int, TraceShipment] = {}
    results: List[Optional[WorkloadResult]] = []
    labels: List[Tuple[str, str]] = [
        (pair[0], getattr(pair[1], "name", "?")) for pair in pairs
    ]
    outcomes = None
    try:
        calls = []
        if effective > 1:
            # Shipments are created here, before _fan_out_pairs forks the
            # pool, so the fork-registry fallback is safe (fork_ok default).
            for configuration_name, trace, *rest in pairs:
                shipment = shipments.get(id(trace))
                if shipment is None:
                    shipment = TraceShipment(as_packed(trace))
                    shipments[id(trace)] = shipment
                calls.append((configuration_name, shipment.handle, *rest))
        else:
            # In-process: still pack each distinct trace exactly once, so a
            # stream replayed against K configurations is not re-packed K
            # times by SystemSimulator.run.
            packed_by_trace: Dict[int, PackedTrace] = {}
            for configuration_name, trace, *rest in pairs:
                packed = packed_by_trace.get(id(trace))
                if packed is None:
                    packed = as_packed(trace)
                    packed_by_trace[id(trace)] = packed
                calls.append((configuration_name, packed, *rest))
        outcomes = _fan_out_pairs(calls, effective, len(calls), policy)
        for position, outcome in enumerate(outcomes):
            result, seconds, _sink, raw, attempts, _worker = outcome
            if raw is None:
                results.append(result)
                if on_outcome is not None:
                    on_outcome(position, result, None, attempts, seconds)
                if on_result is not None:
                    on_result(result)
                if progress is not None:
                    progress(f"{result.workload} {result.configuration} done")
                continue
            configuration_name, workload_name = labels[position]
            failure = PairFailure(
                configuration=configuration_name,
                workload=workload_name,
                kind=raw.kind,
                message=_raw_message(raw),
                attempts=attempts,
            )
            if not policy.allow_failures:
                _raise_strict(raw, failure)
            results.append(None)
            if on_outcome is not None:
                on_outcome(position, None, failure, attempts, seconds)
            if progress is not None:
                progress(
                    f"{workload_name} {configuration_name} FAILED "
                    f"({raw.kind} after {attempts} attempt(s))"
                )
    finally:
        if outcomes is not None:
            outcomes.close()
        for shipment in shipments.values():
            shipment.close()
    return results


@dataclass
class ParallelEvaluationRunner:
    """Runs every (configuration, workload) pair of a matrix, in process
    (``jobs=1``) or over the supervised worker pool.

    Parameters
    ----------
    matrix:
        The scenario matrix to run (:func:`repro.api.run.build_matrix`).
    jobs:
        Worker process count.  ``0`` (the default) uses every available CPU;
        ``1`` runs in-process without a pool.
    progress:
        Optional callback receiving one line per finished pair (reported in
        submission order).
    on_result:
        Optional callback receiving each pair's :class:`WorkloadResult` as
        it completes (submission order) -- the Scenario API's streaming hook.
    setup_modules:
        Modules every worker imports before resolving configuration names
        (a scenario's ``modules`` list); required for user-registered
        configurations under non-``fork`` start methods.
    policy:
        Retry/timeout/partial-results policy (None = the default: crashes
        recovered, persistent failures abort).  Under ``allow_failures``
        failed pairs are recorded in :attr:`failures` and skipped in
        :attr:`results`.
    """

    matrix: ScenarioMatrix
    jobs: int = 0
    progress: Optional[Callable[[str], None]] = None
    on_result: Optional[Callable[[WorkloadResult], None]] = None
    setup_modules: Tuple[str, ...] = ()
    policy: Optional[RetryPolicy] = None
    #: Optional :class:`~repro.obs.progress.ProgressReporter` ticked once
    #: per finished pair (the ``--progress`` stderr heartbeat).
    heartbeat: Optional[ProgressReporter] = None
    results: List[WorkloadResult] = field(default_factory=list)
    failures: List[PairFailure] = field(default_factory=list)
    run_seconds: Dict[tuple, float] = field(default_factory=dict)
    #: Wall-clock seconds per harness phase (trace_generation, shipping,
    #: replay = summed worker replay seconds, dispatch = fan-out wall clock
    #: beyond replay/jobs -- submission, pipes, result collection).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Replay seconds attributed to each worker process by name.
    worker_seconds: Dict[str, float] = field(default_factory=dict)
    _traces: Dict[str, PackedTrace] = field(default_factory=dict, repr=False)
    _shipments: Dict[str, TraceShipment] = field(default_factory=dict, repr=False)

    def resolved_jobs(self) -> int:
        """The actual worker count this runner will use."""
        if self.jobs and self.jobs > 0:
            return self.jobs
        return available_cpus()

    def _report(self, result: WorkloadResult) -> None:
        if self.progress is not None:
            self.progress(
                f"{result.workload:<10} {result.configuration:<10} "
                f"exec={result.execution_time_s * 1e6:9.2f} us "
                f"bw={result.achieved_bandwidth_tbps:6.3f} TB/s "
                f"lat={result.average_latency_ns:8.1f} ns"
            )

    def _phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def _trace_for(self, workload) -> PackedTrace:
        """The workload's packed trace, generated once and cached."""
        packed = self._traces.get(workload.name)
        if packed is None:
            started = time.perf_counter()
            packed = generate_packed_trace(
                workload,
                seed=self.matrix.scale.seed,
                num_requests=self.matrix.requests_for(workload),
            )
            self._phase("trace_generation", time.perf_counter() - started)
            self._traces[workload.name] = packed
            _log.debug("generated trace for workload %s", workload.name)
        return packed

    def _shipped(self, workload, fork_ok: bool) -> object:
        """The workload's shipment handle (creating the shipment on first
        use), for pool runs.  ``fork_ok`` is False once the pool has forked
        (the lazy streaming path)."""
        shipment = self._shipments.get(workload.name)
        if shipment is None:
            trace = self._trace_for(workload)
            started = time.perf_counter()
            shipment = TraceShipment(trace, fork_ok=fork_ok)
            self._phase("shipping", time.perf_counter() - started)
            self._shipments[workload.name] = shipment
        return shipment.handle

    def _close_shipments(self) -> None:
        for shipment in self._shipments.values():
            shipment.close()
        self._shipments.clear()

    def _pair_stream(self, ship: bool):
        """Lazily yield ``(configuration_name, workload_name, trace, window,
        coherence)`` in submission order (workloads outer, configurations
        inner).

        Traces are generated (and shipped) as the stream is consumed, which
        is what lets generation overlap the replay of earlier workloads'
        pairs during pool submission.
        """
        configurations = self.matrix.configurations()
        for workload in self.matrix.workloads():
            trace = (
                # Consumed during pool submission, i.e. after the fork: a
                # shipment created here must not rely on the fork registry.
                self._shipped(workload, fork_ok=False)
                if ship
                else self._trace_for(workload)
            )
            window = getattr(workload, "window", 4)
            for configuration in configurations:
                yield (
                    configuration.name,
                    workload.name,
                    trace,
                    window,
                    self.matrix.coherence,
                )

    def run(self) -> List[WorkloadResult]:
        """Run the whole matrix; returns all results (also kept on self)."""
        count = self.matrix.run_count()
        policy = self.policy if self.policy is not None else DEFAULT_POLICY
        effective = min(self.resolved_jobs(), count) or 1
        stream = self._pair_stream(ship=effective > 1)
        submitted: List[Tuple[str, str]] = []

        corona_config = self.matrix.corona_config
        fault_spec = self.matrix.faults
        obs_spec = self.matrix.observability
        multi = count > 1

        def calls():
            for configuration_name, workload_name, trace, window, coherence in stream:
                submitted.append((configuration_name, workload_name))
                yield (
                    configuration_name,
                    trace,
                    window,
                    coherence,
                    corona_config,
                    self.setup_modules,
                    fault_spec,
                    # Per-pair sink paths are resolved here in the parent;
                    # the worker just writes to them.
                    resolve_pair_spec(
                        obs_spec, configuration_name, workload_name, multi
                    ),
                )

        replay_sum = 0.0
        sink_sum = 0.0
        fan_started = time.perf_counter()
        outcomes = _fan_out_pairs(calls(), effective, count, policy)
        try:
            if effective > 1 and not _shm_available():
                # The fork-inherited fallback only sees traces registered
                # before the pool forks, so give up generation/replay overlap
                # and ship everything up front (pre-fork: fork_ok).
                for workload in self.matrix.workloads():
                    self._shipped(workload, fork_ok=True)
            for position, outcome in enumerate(outcomes):
                result, seconds, sink_seconds, raw, attempts, worker = outcome
                configuration_name, workload_name = submitted[position]
                if raw is not None:
                    failure = PairFailure(
                        configuration=configuration_name,
                        workload=workload_name,
                        kind=raw.kind,
                        message=_raw_message(raw),
                        attempts=attempts,
                    )
                    if not policy.allow_failures:
                        _raise_strict(raw, failure)
                    self.failures.append(failure)
                    if self.heartbeat is not None:
                        self.heartbeat.pair_done(
                            failed=True, retries=attempts - 1
                        )
                    if self.progress is not None:
                        self.progress(
                            f"{workload_name:<10} {configuration_name:<10} "
                            f"FAILED ({raw.kind} after {attempts} attempt(s))"
                        )
                    continue
                self.run_seconds[(configuration_name, workload_name)] = seconds
                replay_sum += seconds
                sink_sum += sink_seconds
                if worker:
                    self.worker_seconds[worker] = (
                        self.worker_seconds.get(worker, 0.0) + seconds
                    )
                self.results.append(result)
                if self.heartbeat is not None:
                    self.heartbeat.pair_done(failed=False, retries=attempts - 1)
                if self.on_result is not None:
                    self.on_result(result)
                self._report(result)
        finally:
            outcomes.close()
            self._close_shipments()
            self._phase("replay", replay_sum)
            if sink_sum:
                self._phase("sink_write", sink_sum)
            # What the fan-out wall clock spent beyond the replays' fair
            # share: submission, pipe traffic, result collection, stalls.
            self._phase(
                "dispatch",
                max(
                    0.0,
                    time.perf_counter() - fan_started - replay_sum / effective,
                ),
            )
        return self.results

    def total_simulated_requests(self) -> int:
        return sum(result.num_requests for result in self.results)

    def total_wall_clock_seconds(self) -> float:
        """Sum of per-pair replay seconds (CPU work, not elapsed time).

        ``run_seconds`` is keyed in worker *completion* order, which varies
        run to run; summing floats in that order would make the total
        order-dependent at the ulp level.  Summing in sorted-value order
        makes it a pure function of the per-pair timings.
        """
        return sum(sorted(self.run_seconds.values()))
