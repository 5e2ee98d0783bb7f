"""Optical token-ring arbitration (Section 3.2.3 of the Corona paper).

Every crossbar channel (and the broadcast bus) is guarded by a one-bit optical
token circulating on an arbitration waveguide.  A cluster that wants to send
on channel ``d`` diverts (absorbs) wavelength ``d`` from the arbitration
waveguide; possession of the token is an exclusive grant.  When the cluster
finishes transmitting it re-injects the token, which then travels around the
ring to the next requester.

The model tracks, per channel, where and when the token was last released.
A request from cluster ``c`` at time ``t`` is granted at::

    grant = max(t, release_time) + travel_time(release_position -> c)

where travel time is the serpentine propagation delay between the two
clusters (a full revolution takes ``ring_round_trip_cycles``, 8 processor
clocks in the paper).  This reproduces the paper's behaviour: under contention
the token moves only a short distance between back-to-back holders so
utilization is high, while an uncontested requester may wait up to a full
revolution (8 cycles) for the token to come around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.stats import RunningStats


@dataclass(slots=True)
class TokenChannelArbiter:
    """Arbiter for a single channel's token."""

    channel_id: int
    num_clusters: int
    ring_round_trip_s: float
    #: Cluster just downstream of which the token was last released.
    release_position: int = 0
    #: Time the token was last released (or created).
    release_time: float = 0.0
    grants: int = field(default=0, repr=False)
    total_wait_s: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError(
                f"cluster count must be >= 1, got {self.num_clusters}"
            )
        if self.ring_round_trip_s < 0:
            raise ValueError(
                f"round-trip time must be non-negative, got {self.ring_round_trip_s}"
            )

    def travel_time(self, from_cluster: int, to_cluster: int) -> float:
        """Token propagation time from one cluster to another along the ring.

        The ring is unidirectional (cyclically increasing cluster order); a
        token released at its owner immediately after a transmission must
        travel a full revolution before that same cluster could re-acquire it,
        which is how the detectors are positioned in the paper (Figure 5).
        """
        distance = (to_cluster - from_cluster) % self.num_clusters
        if distance == 0:
            distance = self.num_clusters
        return self.ring_round_trip_s * distance / self.num_clusters

    def contended_handoff_time(self) -> float:
        """Token hop time between adjacent clusters (the contended case).

        When many clusters are waiting for the same channel the token only
        travels as far as the next requester downstream, which on average is a
        neighbouring cluster; this is why the paper notes that "when
        contention is high, token transfer time is low and channel utilization
        is high".
        """
        return self.ring_round_trip_s / self.num_clusters

    def grant_time(self, cluster: int, now: float) -> float:
        """When a request from ``cluster`` at ``now`` would be granted.

        Pure: neither the token state nor the counters change, so the
        crossbar's transfer path can add fault delays before it books the
        grant.  Callers validate ``cluster``.
        """
        release_time = self.release_time
        round_trip = self.ring_round_trip_s
        num_clusters = self.num_clusters
        if now >= release_time:
            # Uncontested: the token is circulating.  It arrives at the
            # requester one travel time after its last release (see
            # travel_time); if it has already swept past, it must complete
            # further revolutions.
            distance = (cluster - self.release_position) % num_clusters
            if distance == 0:
                distance = num_clusters
            arrival = release_time + round_trip * distance / num_clusters
            while arrival < now and round_trip > 0:
                arrival += round_trip
            return arrival if arrival > now else now
        # Contested: the channel is still granted into the future; the token
        # hops from the current holder to the next requester, which under
        # heavy contention is nearby on the ring (contended_handoff_time).
        return release_time + round_trip / num_clusters

    def acquire(self, cluster: int, now: float) -> float:
        """Request the token from ``cluster`` at time ``now``; returns grant time."""
        if not 0 <= cluster < self.num_clusters:
            raise ValueError(
                f"cluster {cluster} outside ring of {self.num_clusters}"
            )
        grant = self.grant_time(cluster, now)
        self.grants += 1
        self.total_wait_s += grant - now
        return grant

    def release(self, cluster: int, release_time: float) -> None:
        """Re-inject the token at ``cluster`` at ``release_time``."""
        if release_time < self.release_time:
            raise ValueError(
                f"token for channel {self.channel_id} released at {release_time} "
                f"before previous release {self.release_time}"
            )
        self.release_position = cluster
        self.release_time = release_time

    @property
    def average_wait_s(self) -> float:
        if self.grants == 0:
            return 0.0
        return self.total_wait_s / self.grants


class TokenRingArbiter:
    """The full arbitration subsystem: one token per crossbar channel.

    The paper uses 64 wavelengths on the arbitration waveguide, one per
    crossbar channel, plus one wavelength for the broadcast bus; this class
    manages any number of channels with independent tokens sharing a single
    (logical) arbitration ring.
    """

    def __init__(
        self,
        num_clusters: int = 64,
        num_channels: int = 64,
        clock_hz: float = 5e9,
        ring_round_trip_cycles: float = 8.0,
    ) -> None:
        if num_channels < 1:
            raise ValueError(f"need at least one channel, got {num_channels}")
        if clock_hz <= 0:
            raise ValueError(f"clock must be positive, got {clock_hz}")
        self.num_clusters = num_clusters
        self.num_channels = num_channels
        self.clock_hz = clock_hz
        self.ring_round_trip_s = ring_round_trip_cycles / clock_hz
        self.channels: Dict[int, TokenChannelArbiter] = {
            channel: TokenChannelArbiter(
                channel_id=channel,
                num_clusters=num_clusters,
                ring_round_trip_s=self.ring_round_trip_s,
                # Tokens start spread around the ring, as they would be after
                # the channels have been idle for a revolution.
                release_position=channel % num_clusters,
            )
            for channel in range(num_channels)
        }
        self.wait_statistics = RunningStats("token-wait")

    def acquire(self, channel: int, cluster: int, now: float) -> float:
        """Acquire the token of ``channel`` for ``cluster``; returns grant time."""
        arbiter = self.channels.get(channel)
        if arbiter is None:
            arbiter = self._channel(channel)
        grant = arbiter.acquire(cluster, now)
        self.wait_statistics.add(grant - now)
        return grant

    def release(self, channel: int, cluster: int, release_time: float) -> None:
        """Release the token of ``channel`` from ``cluster`` at ``release_time``."""
        self._channel(channel).release(cluster, release_time)

    def worst_case_uncontested_wait_s(self) -> float:
        """An uncontested requester may wait a full token revolution."""
        return self.ring_round_trip_s

    def average_wait_s(self) -> float:
        """Mean token wait over every grant, derived from the per-channel
        counters (callers on the hot path grant through the channel arbiters
        directly, without updating :attr:`wait_statistics`)."""
        grants = sum(c.grants for c in self.channels.values())
        if grants == 0:
            return 0.0
        return sum(c.total_wait_s for c in self.channels.values()) / grants

    def per_channel_waits(self) -> List[float]:
        return [self.channels[c].average_wait_s for c in sorted(self.channels)]

    def _channel(self, channel: int) -> TokenChannelArbiter:
        if channel not in self.channels:
            raise ValueError(
                f"channel {channel} outside arbiter with {self.num_channels} channels"
            )
        return self.channels[channel]
