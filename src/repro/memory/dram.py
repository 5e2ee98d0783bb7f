"""DRAM die, mat and bank timing models.

Corona's OCM modules use custom DRAM dies organized so that an entire cache
line is read from (or written to) a single mat, avoiding the conventional
DIMM's habit of activating tens of thousands of bits across many devices for
a 64-byte transfer.  The model here captures the two properties the system
study depends on:

* a fixed access latency (the paper's 20 ns memory latency, Table 4);
* a per-bank/mat occupancy (cycle time) that limits how frequently the same
  bank can be accessed, so pathological traffic (Hot Spot) sees bank
  contention on top of channel contention.

It also tracks activation energy at the mat level, which is what makes the
OCM's "read only what you need" organization cheaper than a conventional
page-open DRAM -- the comparison surfaced in the paper's power discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.resources import SerialResource, reserve_interval


@dataclass(frozen=True)
class DramTimings:
    """Timing and energy parameters of one DRAM mat/bank.

    Parameters
    ----------
    access_latency_s:
        Time from command arrival to data availability (the paper's 20 ns).
    cycle_time_s:
        Minimum spacing between successive accesses to the same bank.
    activate_energy_j:
        Energy to activate the bits needed for one cache-line access.
    bits_activated_per_access:
        How many bits the organization wakes up per 64-byte access; the OCM
        organization activates roughly the line itself (512 bits plus
        overhead), a conventional open-page DIMM activates an order of
        magnitude more.
    """

    access_latency_s: float = 20e-9
    cycle_time_s: float = 20e-9
    activate_energy_j: float = 2e-11
    bits_activated_per_access: int = 640

    def __post_init__(self) -> None:
        if self.access_latency_s <= 0:
            raise ValueError("access latency must be positive")
        if self.cycle_time_s <= 0:
            raise ValueError("cycle time must be positive")


@dataclass
class DramBank:
    """A single independently accessible bank/mat."""

    bank_id: int
    timings: DramTimings = field(default_factory=DramTimings)
    _resource: SerialResource = field(init=False, repr=False)
    accesses: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._resource = SerialResource(name=f"bank{self.bank_id}")
        self._cycle_time_s = self.timings.cycle_time_s
        self._access_latency_s = self.timings.access_latency_s

    def access(self, now: float, floor: float = 0.0) -> float:
        """Perform one access starting no earlier than ``now``.

        Returns the time at which data is available.  The bank stays busy for
        its cycle time, which may exceed the data-available point.  ``floor``
        is the clock floor of :func:`~repro.sim.resources.reserve_interval`.
        """
        start = reserve_interval(self._resource, now, self._cycle_time_s, floor)
        self.accesses += 1
        return start + self._access_latency_s

    @property
    def busy_time(self) -> float:
        return self._resource.busy_time

    def energy_j(self) -> float:
        return self.accesses * self.timings.activate_energy_j


@dataclass
class DramDie:
    """One DRAM die: a set of independent banks/mats.

    The paper's OCM DRAM die has four independent quadrants, each of which
    could itself be four independent dies; what matters to the system model is
    the number of concurrently accessible banks.
    """

    die_id: int
    num_banks: int = 64
    timings: DramTimings = field(default_factory=DramTimings)
    banks: List[DramBank] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.num_banks < 1:
            raise ValueError(f"need at least one bank, got {self.num_banks}")
        if not self.banks:
            self.banks = [
                DramBank(bank_id=i, timings=self.timings)
                for i in range(self.num_banks)
            ]

    def bank_for_address(self, address: int) -> DramBank:
        """Address-interleaved bank selection (line-granularity)."""
        line = address >> 6
        return self.banks[line % self.num_banks]

    def access(self, address: int, now: float, floor: float = 0.0) -> float:
        return self.bank_for_address(address).access(now, floor)

    def total_accesses(self) -> int:
        return sum(bank.accesses for bank in self.banks)

    def energy_j(self) -> float:
        return sum(bank.energy_j() for bank in self.banks)


@dataclass
class OcmModule:
    """A 3D-stacked optically connected memory module.

    One optical die plus several DRAM dies (Figure 6a).  Modules are daisy
    chained on the fiber loop; because light passes through without buffering
    or retiming, each additional module adds only a small propagation delay.
    """

    module_id: int
    num_dram_dies: int = 4
    banks_per_die: int = 8
    timings: DramTimings = field(default_factory=DramTimings)
    pass_through_delay_s: float = 0.1e-9
    dies: List[DramDie] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.num_dram_dies < 1:
            raise ValueError(
                f"module needs at least one DRAM die, got {self.num_dram_dies}"
            )
        if not self.dies:
            self.dies = [
                DramDie(die_id=i, num_banks=self.banks_per_die, timings=self.timings)
                for i in range(self.num_dram_dies)
            ]

    @property
    def total_banks(self) -> int:
        return sum(die.num_banks for die in self.dies)

    def die_for_address(self, address: int) -> DramDie:
        line = address >> 6
        return self.dies[(line // self.banks_per_die) % len(self.dies)]

    def access(self, address: int, now: float, floor: float = 0.0) -> float:
        """Access the module; returns the data-ready time.

        The die and bank selection is inlined (same mapping as
        :meth:`die_for_address` / :meth:`DramDie.bank_for_address`) so the hot
        path pays one call into the bank instead of three dispatch hops.
        """
        line = address >> 6
        die = self.dies[(line // self.banks_per_die) % len(self.dies)]
        return die.banks[line % die.num_banks].access(now, floor)

    def total_accesses(self) -> int:
        return sum(die.total_accesses() for die in self.dies)

    def energy_j(self) -> float:
        return sum(die.energy_j() for die in self.dies)


def daisy_chain_delay(module_index: int, pass_through_delay_s: float = 0.1e-9) -> float:
    """Extra one-way delay to reach module ``module_index`` in the chain.

    The first module (index 0) is adjacent to the processor stack; each
    subsequent module adds one optical pass-through.  The paper's point is
    that this increment is small (no resampling/retiming as FBDIMM needs), so
    access latency stays nearly uniform across modules.
    """
    if module_index < 0:
        raise ValueError(f"module index must be non-negative, got {module_index}")
    return module_index * pass_through_delay_s
