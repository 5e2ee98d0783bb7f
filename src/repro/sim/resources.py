"""Resource-occupancy primitives for bandwidth, ports and queues.

The Corona network study is a contention study: requests compete for channel
bandwidth, mesh links, memory-controller ports and DRAM banks.  Rather than
simulating each cycle of each wire, the models reserve time on *serial
resources*.  A serial resource maintains, per server, the set of busy
intervals already committed; a reservation of ``duration`` seconds requested
at time ``t`` is granted in the earliest gap of sufficient length starting at
or after ``t``.  This captures serialization delay, queueing delay and
utilization, and -- because reservations may *backfill* earlier idle gaps --
it stays accurate even when reservations are requested slightly out of time
order (for example a data-return reserved 20 ns ahead of commands that arrive
in between).

Every single-server reservation -- :meth:`SerialResource.reserve`, mesh
hops, DRAM banks and controller channels -- runs through one gap search,
:func:`reserve_interval`.  It forgets committed intervals in two ways:

* the *prune horizon*: intervals that ended :data:`_PRUNE_HORIZON` before
  the resource's newest request are dropped.  This is a modelling bound --
  it assumes no request trails the newest one by that much.
* the *clock floor*: during a replay every request is made at or after the
  simulated clock, so the caller passes the clock minus
  :data:`FLOOR_MARGIN` as a floor.  An interval that ends before it lies
  below every future candidate start (the gap search's ``bisect_right``
  skips it) and more than :data:`_EPSILON` below it (it cannot coalesce
  with a new reservation), so dropping it is exact.  Interval lists then
  hold only live reservations, and per-request cost stays flat however
  long the replay runs.

:class:`BoundedQueue` adds finite capacity (back-pressure) on top, and
:class:`TokenPool` models a counted resource such as MSHRs.  Both keep their
outstanding departure/release times in a sorted list and share
:func:`admission_time` for the admit/grant order statistic; the replay hot
paths (memory controller, hub MSHRs and injection queue) call it on the same
lists.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

#: Gaps shorter than this are considered zero (floating-point noise guard).
_EPSILON = 1e-15

#: Committed intervals that ended this long before the newest request time are
#: dropped.  Future reservation requests may be out of order with respect to
#: past ones by at most the latency of an in-flight transaction, which is far
#: below this horizon in every Corona configuration.  The horizon bounds
#: memory outside a replay; inside one, the clock floor of
#: :func:`reserve_interval` prunes further, and exactly, on top of it.
_PRUNE_HORIZON = 5e-6

#: Distance of the clock floor below the replay clock.  It must exceed
#: ``_EPSILON``: an interval that ends before ``clock - FLOOR_MARGIN`` then
#: ends more than ``_EPSILON`` before any request made at or after the clock,
#: so it can neither delay that request nor coalesce with it.
FLOOR_MARGIN = 1e-12

#: A scan records a skip-window proof only when it crossed at least this
#: many intervals.  Recording costs about as much as rescanning a few, so
#: short scans -- the common case once the clock floor keeps interval lists
#: short -- gain nothing from a proof; long rescans are what it prevents.
_WINDOW_MIN_STEPS = 8


def admission_time(times: List[float], now: float, capacity: int) -> float:
    """Earliest time a new entry can take one of ``capacity`` slots at ``now``.

    ``times`` is the sorted list of outstanding departure (or release) times.
    Entries at or before ``now`` have left and are deleted in place.  With
    ``resident`` entries left, the newcomer waits for the
    ``resident - capacity + 1``-th earliest departure, which sits at index
    ``resident - capacity``: one bisect and one slice delete, however deep
    the backlog.  Register the newcomer's own departure afterwards with
    :func:`bisect.insort` so the list stays sorted.
    """
    if times and times[0] <= now:
        del times[: bisect.bisect_right(times, now)]
    resident = len(times)
    if resident < capacity:
        return now
    return times[resident - capacity]


def resident_after(times: List[float], now: float) -> int:
    """Entries of the sorted ``times`` still outstanding after ``now``
    (non-mutating, for samplers)."""
    return len(times) - bisect.bisect_right(times, now)


def _commit(
    starts: List[float], ends: List[float], index: int, start: float, end: float
) -> None:
    """Insert ``[start, end)`` at ``index`` (``bisect_left`` of ``start``) of
    sorted interval lists, coalescing neighbours within ``_EPSILON``."""
    if index and ends[index - 1] >= start - _EPSILON:
        index -= 1
        if end > ends[index]:
            ends[index] = end
    else:
        starts.insert(index, start)
        ends.insert(index, end)
    following = index + 1
    while following < len(starts) and starts[following] <= ends[index] + _EPSILON:
        if ends[following] > ends[index]:
            ends[index] = ends[following]
        del starts[following]
        del ends[following]


def reserve_interval(
    resource: "SerialResource", now: float, duration: float, floor: float = 0.0
) -> float:
    """Reserve ``duration`` seconds of single-server ``resource`` in the
    earliest free gap at or after ``now``; return the reservation's start.

    ``floor`` promises that no request to this resource will ever be made
    before it; a replay passes its clock minus :data:`FLOOR_MARGIN`, and
    callers outside a replay leave it at 0.0 (no floor).  Committed
    intervals that end by ``max(newest request - _PRUNE_HORIZON, floor)``
    are dropped first.  Raises :class:`ValueError` for a request before the
    floor, which would void the promise.
    """
    if now < floor:
        raise ValueError(f"request at {now} precedes the clock floor {floor}")
    if now > resource._high_water_request:
        resource._high_water_request = now
    expire = resource._high_water_request - _PRUNE_HORIZON
    if floor > expire:
        expire = floor
    starts = resource._starts[0]
    ends = resource._ends[0]
    resource.busy_time += duration
    resource.reservations += 1
    if expire > 0 and ends and ends[0] <= expire:
        # Proofs of the skip window past the expiry point only involve
        # surviving intervals; the ones below it are void.
        if resource._skip_lo < expire:
            resource._skip_lo = expire
        if ends[-1] <= expire:
            # Everything committed has expired (the common case under a
            # clock floor): nothing can delay or coalesce with the request.
            starts.clear()
            ends.clear()
            starts.append(now)
            ends.append(now + duration)
            return now
        cut = bisect.bisect_right(ends, expire)
        del ends[:cut]
        del starts[:cut]
    candidate = now
    if (
        candidate < resource._skip_hi
        and resource._skip_lo <= candidate
        and duration >= resource._skip_len
    ):
        # Every gap starting in the window was already proven too short for
        # this duration; resume the scan past it.
        candidate = resource._skip_hi
    index = first = bisect.bisect_right(ends, candidate)
    n = len(starts)
    while index < n:
        if candidate + duration <= starts[index] + _EPSILON:
            break
        interval_end = ends[index]
        if interval_end > candidate:
            candidate = interval_end
        index += 1
    steps = index - first
    if steps:
        resource.scan_steps += steps
    if steps >= _WINDOW_MIN_STEPS and candidate > now:
        if now > resource._skip_hi:
            # Scans move forward in time: a proof ahead of the old window
            # replaces it.
            resource._skip_lo = now
            resource._skip_hi = candidate
            resource._skip_len = duration
        else:
            resource._merge_skip_window(now, candidate, duration)
    end = candidate + duration
    if index < n:
        if starts[index] < candidate or (index and starts[index - 1] >= candidate):
            # Only zero-length or sub-_EPSILON intervals get here: use
            # the bisect_left position, as every other commit does.
            index = bisect.bisect_left(starts, candidate)
        _commit(starts, ends, index, candidate, end)
    elif n and ends[-1] >= candidate - _EPSILON:
        # Tail commit, contiguous with the last interval.
        if end > ends[-1]:
            ends[-1] = end
    else:
        starts.append(candidate)
        ends.append(end)
    return candidate


class SerialResource:
    """A resource with a fixed number of identical servers and gap backfill.

    With ``servers=1`` this is a single channel/link; with ``servers=n`` it is
    an ``n``-ported resource (for example a DRAM die with several independent
    banks).
    """

    __slots__ = (
        "name",
        "servers",
        "_starts",
        "_ends",
        "busy_time",
        "reservations",
        "_high_water_request",
        "scan_steps",
        "_skip_lo",
        "_skip_hi",
        "_skip_len",
    )

    def __init__(self, name: str, servers: int = 1) -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.name = name
        self.servers = servers
        # Per server: parallel lists of interval starts and ends, sorted.
        self._starts: List[List[float]] = [[] for _ in range(servers)]
        self._ends: List[List[float]] = [[] for _ in range(servers)]
        self.busy_time: float = 0.0
        self.reservations: int = 0
        self._high_water_request: float = 0.0
        #: Interval-test count across all backfill scans (perf regression
        #: hook: a congested resource must not rescan its whole timeline
        #: on every reservation).
        self.scan_steps: int = 0
        # Proven-gap window for the single-server backfill scan: every free
        # gap whose start lies in [_skip_lo, _skip_hi) was proven too short
        # for a reservation of _skip_len seconds (or longer), so a scan for
        # duration >= _skip_len starting inside the window may jump straight
        # to _skip_hi.  Sound because committed intervals only shrink gaps;
        # pruning -- the one operation that merges gaps -- advances _skip_lo
        # to the pruning point (see reserve_interval and _prune).
        self._skip_lo: float = 0.0
        self._skip_hi: float = 0.0
        self._skip_len: float = 0.0

    # -- internal helpers ----------------------------------------------------
    def _prune(self, server: int, before: float) -> None:
        ends = self._ends[server]
        starts = self._starts[server]
        index = bisect.bisect_right(ends, before)
        if index:
            del ends[:index]
            del starts[:index]
            if self._skip_lo < before:
                self._skip_lo = before

    def _find_gap(self, server: int, now: float, duration: float) -> float:
        """Earliest start >= ``now`` of a free gap of ``duration`` on ``server``."""
        starts = self._starts[server]
        ends = self._ends[server]
        candidate = now
        # Skip intervals that end at or before the candidate start.
        index = bisect.bisect_right(ends, candidate)
        while index < len(starts):
            self.scan_steps += 1
            if candidate + duration <= starts[index] + _EPSILON:
                return candidate
            candidate = max(candidate, ends[index])
            index += 1
        return candidate

    # -- proven-gap window (single-server backfill scan) ---------------------
    def _merge_skip_window(self, lo: float, hi: float, duration: float) -> None:
        """A scan for ``duration`` just advanced from ``lo`` to ``hi``, with
        ``lo`` at or before the end of the current window: every free gap
        starting in ``[lo, hi)`` is too short for ``duration`` (gap adequacy
        is monotone in the candidate position, so positions between visited
        interval ends are covered too).  A proof ahead of the window simply
        replaces it (see :func:`reserve_interval`)."""
        old_lo, old_hi, old_len = self._skip_lo, self._skip_hi, self._skip_len
        if old_hi <= old_lo:
            # No live window.
            self._skip_lo, self._skip_hi, self._skip_len = lo, hi, duration
        elif lo >= old_lo and hi <= old_hi and duration >= old_len:
            # Already covered by a claim at least as strong.
            return
        elif old_lo <= hi:
            # Overlapping/adjacent: merge.  The union holds only for
            # durations covered by both claims, hence the max.
            self._skip_lo = old_lo if old_lo < lo else lo
            self._skip_hi = old_hi if old_hi > hi else hi
            self._skip_len = old_len if old_len > duration else duration

    # -- public API ------------------------------------------------------------
    def next_available(self, now: float) -> float:
        """Earliest time a zero-length reservation made at ``now`` could start.

        Expired intervals (older than the prune horizon behind the newest
        reservation request) are dropped first, and because committed
        intervals are kept disjoint by :func:`_commit`'s coalescing, a single
        bisect per server answers the query -- ``now`` itself when no
        interval covers it, otherwise the covering interval's end.
        """
        prune_before = self._high_water_request - _PRUNE_HORIZON
        best = None
        for server in range(self.servers):
            if prune_before > 0:
                self._prune(server, prune_before)
            starts = self._starts[server]
            ends = self._ends[server]
            index = bisect.bisect_right(ends, now)
            if index >= len(starts) or now <= starts[index] + _EPSILON:
                return now
            if best is None or ends[index] < best:
                best = ends[index]
        return best

    def reserve(self, now: float, duration: float) -> float:
        """Reserve the resource for ``duration`` seconds starting no earlier than ``now``.

        Returns the time at which the reservation *ends* (i.e. when the
        transfer completes).  The start time is ``end - duration``.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if now < 0:
            raise ValueError(f"time must be non-negative, got {now}")

        if self.servers == 1:
            return reserve_interval(self, now, duration) + duration

        if now > self._high_water_request:
            self._high_water_request = now
        prune_before = self._high_water_request - _PRUNE_HORIZON
        best_server = 0
        best_start = None
        for server in range(self.servers):
            if prune_before > 0:
                self._prune(server, prune_before)
            start = self._find_gap(server, now, duration)
            if best_start is None or start < best_start:
                best_server = server
                best_start = start
                if start <= now + _EPSILON:
                    break
        end = best_start + duration
        starts = self._starts[best_server]
        index = bisect.bisect_left(starts, best_start)
        _commit(starts, self._ends[best_server], index, best_start, end)
        self.busy_time += duration
        self.reservations += 1
        return end

    def queue_delay(self, now: float) -> float:
        """How long a zero-length reservation made at ``now`` would wait."""
        return self.next_available(now) - now

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds of simulated time."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.servers)

    def reset(self) -> None:
        self._starts = [[] for _ in range(self.servers)]
        self._ends = [[] for _ in range(self.servers)]
        self.busy_time = 0.0
        self.reservations = 0
        self._high_water_request = 0.0
        self.scan_steps = 0
        self._skip_lo = 0.0
        self._skip_hi = 0.0
        self._skip_len = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialResource({self.name!r}, servers={self.servers})"


class BoundedQueue:
    """A finite-capacity FIFO used to model buffers with back-pressure.

    The queue tracks occupancy as a function of time analytically: an entry
    occupies a slot from its enqueue time until its announced departure time.
    ``admission_time`` computes when a new entry could be admitted given the
    capacity limit, which is how upstream senders experience back-pressure.
    """

    __slots__ = ("name", "capacity", "_departures", "total_admitted", "max_occupancy_seen")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        # Departure times of entries currently considered "in the queue",
        # kept sorted (see :func:`admission_time`).
        self._departures: List[float] = []
        self.total_admitted: int = 0
        self.max_occupancy_seen: int = 0

    def occupancy(self, now: float) -> int:
        """Number of entries resident at time ``now`` (departed ones expire)."""
        departures = self._departures
        del departures[: bisect.bisect_right(departures, now)]
        return len(departures)

    def admission_time(self, now: float) -> float:
        """Earliest time at which a new entry could be admitted."""
        return admission_time(self._departures, now, self.capacity)

    def admit(self, now: float, departure_time: float) -> float:
        """Admit an entry that will depart at ``departure_time``.

        Returns the actual admission time (>= ``now``) after back-pressure.
        ``departure_time`` must be no earlier than the admission time.
        """
        departures = self._departures
        admit_at = admission_time(departures, now, self.capacity)
        if departure_time < admit_at:
            raise ValueError(
                f"departure {departure_time} precedes admission {admit_at}"
            )
        bisect.insort(departures, departure_time)
        self.total_admitted += 1
        if len(departures) > self.max_occupancy_seen:
            self.max_occupancy_seen = len(departures)
        return admit_at

    def reset(self) -> None:
        self._departures = []
        self.total_admitted = 0
        self.max_occupancy_seen = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedQueue({self.name!r}, capacity={self.capacity})"


class TokenPool:
    """A counted resource (e.g. MSHRs): acquire blocks until a token frees up.

    Like :class:`BoundedQueue`, the pool is analytic: each outstanding token is
    represented by its release time, and acquisitions made when the pool is
    exhausted are granted at the earliest release time.
    """

    __slots__ = ("name", "tokens", "_releases", "acquisitions", "total_wait")

    def __init__(self, name: str, tokens: int) -> None:
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens}")
        self.name = name
        self.tokens = tokens
        # Outstanding release times, kept sorted (see :func:`admission_time`).
        self._releases: List[float] = []
        self.acquisitions: int = 0
        self.total_wait: float = 0.0

    def in_use(self, now: float) -> int:
        releases = self._releases
        del releases[: bisect.bisect_right(releases, now)]
        return len(releases)

    def acquire(self, now: float, release_time_hint: Optional[float] = None) -> float:
        """Acquire a token at or after ``now``; returns the grant time.

        ``release_time_hint`` may be provided when the release time is already
        known.  If omitted, the token must be released later via
        :meth:`release_at`.
        """
        grant = admission_time(self._releases, now, self.tokens)
        self.acquisitions += 1
        self.total_wait += grant - now
        if release_time_hint is not None:
            if release_time_hint < grant:
                raise ValueError(
                    f"release {release_time_hint} precedes grant {grant}"
                )
            bisect.insort(self._releases, release_time_hint)
        return grant

    def release_at(self, release_time: float) -> None:
        """Register the release time for a token acquired without a hint."""
        bisect.insort(self._releases, release_time)

    def average_wait(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait / self.acquisitions

    def reset(self) -> None:
        self._releases = []
        self.acquisitions = 0
        self.total_wait = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenPool({self.name!r}, tokens={self.tokens})"
