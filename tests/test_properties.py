"""Property-based tests (hypothesis) on the core data structures and invariants."""

import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.coherence import CoherenceController
from repro.network.arbitration import TokenChannelArbiter
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import high_performance_mesh
from repro.network.message import Message, MessageType
from repro.network.topology import MeshCoordinates
from repro.photonics.inventory import corona_inventory
from repro.sim.engine import Simulator
from repro.sim.resources import (
    _EPSILON,
    FLOOR_MARGIN,
    BoundedQueue,
    SerialResource,
    TokenPool,
    reserve_interval,
)
from repro.sim.stats import RunningStats, geometric_mean
from repro.trace.synthetic import tornado_destination, transpose_destination


class TestResourceProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e-3),
                st.floats(min_value=0.0, max_value=1e-6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_serial_resource_never_overlaps_more_than_servers(self, requests):
        """Total busy time never exceeds servers x span, and every reservation
        ends after it starts."""
        resource = SerialResource("r", servers=2)
        ends = []
        for now, duration in requests:
            end = resource.reserve(now, duration)
            assert end >= now + duration - 1e-18
            ends.append(end)
        span = max(ends) if ends else 0.0
        assert resource.busy_time <= 2 * span + 1e-12

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e-3), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_serial_resource_grants_are_monotone_for_sorted_requests(self, times):
        """With FIFO arrivals at a single server, completion times are monotone."""
        resource = SerialResource("link")
        previous_end = 0.0
        for now in sorted(times):
            end = resource.reserve(now, 1e-6)
            assert end >= previous_end
            previous_end = end

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_token_pool_never_exceeds_capacity(self, tokens, acquisitions):
        pool = TokenPool("pool", tokens=tokens)
        rng = random.Random(42)
        now = 0.0
        for _ in range(acquisitions):
            now += rng.random() * 1e-8
            grant = pool.acquire(now)
            pool.release_at(grant + 1e-7 + rng.random() * 1e-7)
            assert grant >= now
            assert pool.in_use(grant) <= tokens


class _NaiveIntervals:
    """Reference single-server gap search over every interval ever committed:
    no prune horizon, no clock floor, no skip window."""

    def __init__(self):
        self.intervals = []  # sorted, coalesced (start, end)

    def reserve(self, now, duration):
        candidate = now
        for start, end in self.intervals:
            if end <= candidate:
                continue
            if candidate + duration <= start + _EPSILON:
                break
            candidate = end
        merged = []
        for start, end in sorted(self.intervals + [(candidate, candidate + duration)]):
            if merged and start <= merged[-1][1] + _EPSILON:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self.intervals = merged
        return candidate


_NS = 1e-9


class TestReservationKernelProperties:
    """:func:`reserve_interval` under a clock floor grants exactly the starts
    of a gap search that never forgets an interval.  Requests sit on a
    nanosecond grid (ties are common), land up to 24 ns ahead of the clock
    (backfill), may sit a fraction of ``_EPSILON`` past an interval end
    (coalescing) or well past it, and the clock sometimes leaps beyond the
    prune horizon (the everything-expired fast path)."""

    @seed(20080623)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0, 0, 1, 2, 7, 6_000)),  # clock advance, ns
                st.integers(min_value=0, max_value=24),  # request offset, ns
                st.sampled_from((0.0, 0.4 * _EPSILON, 3 * _EPSILON)),
                st.sampled_from((0.0, 0.5, 1.0, 3.0, 8.0)),  # duration, ns
                st.integers(min_value=0, max_value=9),  # 0: before the floor
            ),
            max_size=120,
        )
    )
    # An interval ending exactly at the clock must survive the floor: a
    # request a fraction of _EPSILON later coalesces with it, and the merged
    # start decides whether a zero-length request at the clock waits.
    @example([(0, 0, 0.0, 1.0, 1), (1, 0, 0.4 * _EPSILON, 1.0, 1), (0, 0, 0.0, 0.0, 1)])
    @settings(max_examples=200, deadline=None)
    def test_kernel_with_floor_matches_never_pruned_reference(self, ops):
        resource = SerialResource("link")
        reference = _NaiveIntervals()
        clock = 0
        for advance, offset, jitter, duration, late in ops:
            clock += advance
            floor = clock * _NS - FLOOR_MARGIN
            if not late:
                with pytest.raises(ValueError, match="precedes the clock floor"):
                    reserve_interval(resource, floor - (offset + 1) * _NS, _NS, floor)
                continue
            now = (clock + offset) * _NS + jitter
            expected = reference.reserve(now, duration * _NS)
            assert reserve_interval(resource, now, duration * _NS, floor) == expected
        assert resource.reservations == sum(1 for op in ops if op[4])

    def test_skip_window_under_a_floor_matches_reference(self):
        """A comb of 0.4 ns gaps that 0.5 ns requests cannot use: the skip
        window carries the proof from one scan to the next while the floor
        advances under it, and placements stay exact."""
        resource = SerialResource("hot-link")
        reference = _NaiveIntervals()
        for tooth in range(200):
            now = tooth * _NS
            assert reserve_interval(resource, now, 0.6 * _NS) == reference.reserve(
                now, 0.6 * _NS
            )
        first = resource.scan_steps
        for step in range(100):
            now = step * 0.5 * _NS
            floor = now - FLOOR_MARGIN
            assert reserve_interval(
                resource, now, 0.5 * _NS, floor
            ) == reference.reserve(now, 0.5 * _NS)
        # One scan over the comb, then the window skips it.
        assert resource.scan_steps - first < 200 + 5 * 100


class TestArbitrationKernelProperties:
    """The crossbar grants exactly what standalone per-channel
    :class:`TokenChannelArbiter` s grant for the same request stream."""

    @pytest.mark.parametrize("stream_seed", [3, 20080623])
    def test_crossbar_grants_match_standalone_arbiters(self, stream_seed):
        rng = random.Random(stream_seed)
        crossbar = OpticalCrossbar(num_clusters=8)
        bandwidth = crossbar.channel_bandwidth_bytes_per_s
        reference = {
            channel: TokenChannelArbiter(
                channel_id=channel,
                num_clusters=8,
                ring_round_trip_s=arbiter.ring_round_trip_s,
                release_position=arbiter.release_position,
                release_time=arbiter.release_time,
            )
            for channel, arbiter in crossbar.arbiter.channels.items()
        }
        kinds = (MessageType.READ_REQUEST, MessageType.READ_RESPONSE)
        now = 0.0
        contended = uncontested = 0
        for _ in range(3_000):
            # Mostly sub-revolution steps (the token is still held: the
            # contended hop), sometimes several revolutions (uncontested).
            now += rng.choice((0.0, 1e-11, 2e-10, 5e-9)) * rng.random()
            src, dst = rng.randrange(8), rng.randrange(8)
            if src == dst:
                continue
            message = Message(src=src, dst=dst, message_type=rng.choice(kinds))
            arbiter = reference[dst]
            if now < arbiter.release_time:
                contended += 1
            else:
                uncontested += 1
            grant = arbiter.acquire(src, now)
            arbiter.release(src, grant + message.size_bytes / bandwidth)
            result = crossbar.transfer(message, now)
            assert result.queueing_delay == grant - now
        assert contended > 500 and uncontested > 500
        for channel, arbiter in reference.items():
            folded = crossbar.arbiter.channels[channel]
            assert (folded.grants, folded.total_wait_s) == (
                arbiter.grants,
                arbiter.total_wait_s,
            )
            assert (folded.release_position, folded.release_time) == (
                arbiter.release_position,
                arbiter.release_time,
            )


#: Whole-number instants: small enough that ties between departures, and
#: between a departure and ``now``, are common.
_INSTANTS = st.integers(min_value=0, max_value=24).map(float)


class _NaiveSlots:
    """Reference admission: drop the entries at or before ``now``, sort the
    rest, and read index ``resident - capacity``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.times = []

    def admit_time(self, now):
        self.times = [t for t in self.times if t > now]
        resident = len(self.times)
        if resident < self.capacity:
            return now
        return sorted(self.times)[resident - self.capacity]


class TestAdmissionProperties:
    """The sorted-list admission of BoundedQueue and TokenPool returns the
    same order statistic as a naive rescan, for any capacity, with ties,
    out-of-order ``now`` and late-registered releases."""

    @seed(20080621)
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.tuples(
                st.sampled_from(("admit", "query")),
                _INSTANTS,
                st.integers(min_value=-3, max_value=12),
            ),
            max_size=80,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_queue_matches_naive_reference(self, capacity, ops):
        queue = BoundedQueue("q", capacity)
        reference = _NaiveSlots(capacity)
        peak = 0
        for op, now, stay in ops:
            expected = reference.admit_time(now)
            if op == "query":
                assert queue.admission_time(now) == expected
                continue
            departure = expected + stay
            if stay < 0:
                with pytest.raises(ValueError, match="precedes admission"):
                    queue.admit(now, departure)
                continue
            assert queue.admit(now, departure) == expected
            reference.times.append(departure)
            peak = max(peak, len(reference.times))
        assert queue.max_occupancy_seen == peak
        assert queue.occupancy(-1.0) == len(reference.times)

    @seed(20080622)
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(
            st.tuples(
                st.sampled_from(("hint", "late", "release")),
                _INSTANTS,
                st.integers(min_value=-3, max_value=12),
            ),
            max_size=80,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_token_pool_matches_naive_reference(self, tokens, ops):
        pool = TokenPool("pool", tokens=tokens)
        reference = _NaiveSlots(tokens)
        unreleased = []  # grants acquired without a hint
        total_wait = 0.0
        for op, now, stay in ops:
            if op == "release":
                # Register a hint-less token's release some steps after its
                # grant, as the replay does at transaction completion.
                if unreleased:
                    release = unreleased.pop(0) + abs(stay)
                    pool.release_at(release)
                    reference.times.append(release)
                continue
            expected = reference.admit_time(now)
            total_wait += expected - now
            if op == "late":
                assert pool.acquire(now) == expected
                unreleased.append(expected)
                continue
            hint = expected + stay
            if stay < 0:
                with pytest.raises(ValueError, match="precedes grant"):
                    pool.acquire(now, release_time_hint=hint)
                continue
            assert pool.acquire(now, release_time_hint=hint) == expected
            reference.times.append(hint)
        assert pool.total_wait == total_wait
        assert pool.in_use(-1.0) == len(reference.times)


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_running_stats_matches_direct_computation(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.count == len(values)
        assert stats.mean == sum(values) / len(values) or abs(
            stats.mean - sum(values) / len(values)
        ) < 1e-6 * max(1.0, abs(sum(values)))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    @given(
        st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=100),
        st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_is_equivalent_to_concatenation(self, left_values, right_values):
        left, right, combined = RunningStats(), RunningStats(), RunningStats()
        left.extend(left_values)
        right.extend(right_values)
        combined.extend(left_values + right_values)
        left.merge(right)
        assert left.count == combined.count
        assert abs(left.mean - combined.mean) < 1e-6 * max(1.0, abs(combined.mean))

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_geometric_mean_bounded_by_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


class TestTopologyProperties:
    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    @settings(max_examples=200, deadline=None)
    def test_route_length_equals_manhattan_distance(self, src, dst):
        mesh = MeshCoordinates.square(64)
        route = mesh.dimension_order_route(src, dst)
        assert len(route) == mesh.hop_distance(src, dst)
        # The route is connected and ends at the destination.
        if route:
            assert route[0][0] == src
            assert route[-1][1] == dst
            for (a, b), (c, d) in zip(route, route[1:]):
                assert b == c

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=64, deadline=None)
    def test_synthetic_permutations_stay_in_range(self, cluster):
        assert 0 <= tornado_destination(cluster, 64) < 64
        assert 0 <= transpose_destination(cluster, 64) < 64

    @given(st.sampled_from([4, 16, 64, 256]))
    @settings(max_examples=4, deadline=None)
    def test_transpose_is_involution_for_any_square_size(self, num_clusters):
        for cluster in range(num_clusters):
            twice = transpose_destination(
                transpose_destination(cluster, num_clusters), num_clusters
            )
            assert twice == cluster


class TestInventoryProperties:
    # Generate the grid radix and square it rather than filtering integers
    # down to perfect squares: the filter rejects ~95% of draws and can trip
    # hypothesis's filter_too_much health check on an unlucky seed.
    @given(st.integers(min_value=2, max_value=16).map(lambda radix: radix * radix))
    @settings(max_examples=10, deadline=None)
    def test_crossbar_rings_scale_quadratically(self, clusters):
        inventory = corona_inventory(clusters=clusters)
        assert inventory.by_name()["Crossbar"].ring_resonators == clusters * clusters * 256

    @given(
        st.integers(min_value=2, max_value=128),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=40, deadline=None)
    def test_inventory_counts_are_never_negative(self, clusters, wavelengths):
        inventory = corona_inventory(
            clusters=clusters, wavelengths_per_waveguide=wavelengths
        )
        assert inventory.total_waveguides > 0
        assert inventory.total_ring_resonators > 0


class TestInterconnectProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
                st.floats(min_value=0.0, max_value=1e-6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_crossbar_transfers_always_arrive_after_request(self, transfers):
        crossbar = OpticalCrossbar()
        for src, dst, now in sorted(transfers, key=lambda item: item[2]):
            message = Message(src=src, dst=dst, message_type=MessageType.READ_RESPONSE)
            result = crossbar.transfer(message, now)
            assert result.arrival_time >= now
            assert result.queueing_delay >= 0
            assert result.network_latency >= 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mesh_energy_matches_hop_count(self, pairs):
        mesh = high_performance_mesh()
        total_hops = 0
        for src, dst in pairs:
            message = Message(src=src, dst=dst, message_type=MessageType.READ_REQUEST)
            result = mesh.transfer(message, 0.0)
            total_hops += result.hops
        assert mesh.total_dynamic_energy_j == sum(
            [196e-12 * total_hops]
        ) or abs(mesh.total_dynamic_energy_j - 196e-12 * total_hops) < 1e-18


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 20),
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cache_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache("c", capacity_bytes=4096, associativity=4)
        for address, is_write in accesses:
            cache.access(address * 64, is_write)
        assert cache.resident_lines() <= cache.num_sets * cache.associativity
        assert cache.stats.accesses == len(accesses)
        assert cache.stats.misses <= cache.stats.accesses

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=64),
                st.integers(min_value=0, max_value=15),
                st.booleans(),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_directory_always_has_at_most_one_owner(self, operations):
        directory = CoherenceController(home_cluster=0)
        for line, cluster, is_write in operations:
            address = line * 64
            if is_write:
                directory.handle_write(address, cluster)
            else:
                directory.handle_read(address, cluster)
            entry = directory._entry(address)
            # Invariant: a modified/exclusive owner never coexists with itself
            # in the sharer list, and sharer sets never contain the owner.
            if entry.owner is not None:
                assert entry.owner not in entry.sharers


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e-3), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        simulator = Simulator()
        executed = []
        for delay in delays:
            simulator.schedule(delay, lambda t=delay: executed.append(simulator.now))
        simulator.run()
        assert executed == sorted(executed)
        assert len(executed) == len(delays)
