"""Base abstractions shared by all memory device models.

Each device model is a *cost model*: it answers "what does one access of
``bits`` bits cost in time and energy, sequential or random?" and "how
much background power does the device burn in each power state?".  The
architecture simulators issue abstract accesses against these models and
integrate background power over the modelled execution time.

Dynamic energy is accounted per access; static (leakage, refresh) energy
is accounted by the machine model because it depends on the execution
time and the power-gating schedule, which only the machine knows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..errors import MemoryModelError


class AccessKind(enum.Enum):
    """Direction of a memory access."""

    READ = "read"
    WRITE = "write"


class AccessPattern(enum.Enum):
    """Spatial locality of an access stream.

    Sequential accesses stream through consecutive addresses (row-buffer
    hits in DRAM, same-mat bursts in ReRAM); random accesses pay the full
    array-activation cost every time.
    """

    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(frozen=True)
class AccessCost:
    """Cost of one access: ``latency`` seconds and ``energy`` joules."""

    latency: float
    energy: float

    def __post_init__(self) -> None:
        if self.latency < 0.0 or self.energy < 0.0:
            raise MemoryModelError(
                f"access cost must be non-negative, got {self}"
            )

    def scaled(self, count: float) -> "AccessCost":
        """Cost of ``count`` back-to-back accesses of this kind."""
        return AccessCost(self.latency * count, self.energy * count)


@dataclass
class MemoryStats:
    """Running totals of traffic served by one device instance."""

    reads: int = 0
    writes: int = 0
    read_bits: int = 0
    write_bits: int = 0
    dynamic_energy: float = 0.0
    busy_time: float = 0.0

    def record(self, kind: AccessKind, bits: int, cost: AccessCost,
               count: int = 1) -> None:
        if kind is AccessKind.READ:
            self.reads += count
            self.read_bits += bits * count
        else:
            self.writes += count
            self.write_bits += bits * count
        self.dynamic_energy += cost.energy * count
        self.busy_time += cost.latency * count

    def merged(self, other: "MemoryStats") -> "MemoryStats":
        return MemoryStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            read_bits=self.read_bits + other.read_bits,
            write_bits=self.write_bits + other.write_bits,
            dynamic_energy=self.dynamic_energy + other.dynamic_energy,
            busy_time=self.busy_time + other.busy_time,
        )


class MemoryDevice:
    """Interface of every device model.

    Subclasses define :meth:`access_cost` (per native-width access) and
    the background power attributes; this base provides bulk-transfer
    helpers and stats bookkeeping.
    """

    #: Native access width in bits; bulk transfers are split into
    #: ceil(bits / access_bits) native accesses.
    access_bits: int = 512

    #: Background power (W) while the device is powered and idle/active.
    standby_power: float = 0.0

    #: Residual background power (W) while power-gated (0 if the device
    #: cannot be gated; ReRAM banks gate to ~0 thanks to nonvolatility).
    gated_power: float = 0.0

    def __init__(self) -> None:
        self.stats = MemoryStats()

    # --- cost interface -------------------------------------------------

    def access_cost(
        self, kind: AccessKind, pattern: AccessPattern
    ) -> AccessCost:
        """Cost of one native-width access."""
        raise NotImplementedError

    def transfer_cost(
        self, kind: AccessKind, bits: float, pattern: AccessPattern
    ) -> AccessCost:
        """Cost of moving ``bits`` bits as back-to-back native accesses.

        ``bits`` may be fractional when a caller amortises shared traffic
        across work items; the access count is rounded up only when the
        transfer is indivisible (bits for a single request), so bulk
        streaming uses the exact ratio.
        """
        if bits < 0:
            raise MemoryModelError(f"negative transfer size: {bits}")
        accesses = bits / self.access_bits
        if pattern is AccessPattern.RANDOM:
            # A random request cannot use a partial burst.
            accesses = math.ceil(accesses) if bits else 0
        return self.access_cost(kind, pattern).scaled(accesses)

    # --- stats-recording helpers -----------------------------------------

    def read(self, bits: float, pattern: AccessPattern, count: int = 1
             ) -> AccessCost:
        """Record ``count`` reads of ``bits`` bits each; return unit cost."""
        cost = self.transfer_cost(AccessKind.READ, bits, pattern)
        self.stats.record(AccessKind.READ, int(bits), cost, count)
        return cost

    def write(self, bits: float, pattern: AccessPattern, count: int = 1
              ) -> AccessCost:
        """Record ``count`` writes of ``bits`` bits each; return unit cost."""
        cost = self.transfer_cost(AccessKind.WRITE, bits, pattern)
        self.stats.record(AccessKind.WRITE, int(bits), cost, count)
        return cost

    # --- background -------------------------------------------------------

    def background_energy(self, duration: float,
                          gated_fraction: float = 0.0) -> float:
        """Static energy over ``duration`` seconds.

        ``gated_fraction`` is the time-weighted fraction of the device's
        capacity that was power-gated (0 = fully on, 1 = fully gated).
        """
        return background_energy(
            self.standby_power, self.gated_power, duration, gated_fraction,
            type(self).__name__,
        )

    def reset_stats(self) -> None:
        self.stats = MemoryStats()


def background_energy(standby_power, gated_power, duration,
                      gated_fraction=0.0, part: str = "device"):
    """Static energy of a part drawing ``standby_power`` while on and
    ``gated_power`` while gated, over ``duration`` seconds with
    ``gated_fraction`` of it gated (see
    :meth:`MemoryDevice.background_energy`).

    Every argument may be a NumPy column; the result is then elementwise
    and each row is bit-identical to the scalar call.  ``part`` names
    the offending part in errors.
    """
    negative = np.less(duration, 0.0)
    if np.count_nonzero(negative):
        raise MemoryModelError(
            f"{part}: negative duration: "
            f"{np.extract(negative, duration)[0]}"
        )
    outside = ~(np.less_equal(0.0, gated_fraction)
                & np.less_equal(gated_fraction, 1.0))
    if np.count_nonzero(outside):
        raise MemoryModelError(
            f"{part}: gated fraction must be in [0, 1], got "
            f"{np.extract(outside, gated_fraction)[0]}"
        )
    on = standby_power * (1.0 - gated_fraction)
    off = gated_power * gated_fraction
    return (on + off) * duration


@dataclass(frozen=True)
class DeviceTimings:
    """Flat description of a device's operating point.

    This is what the NVSim-lite solver emits and what the analytic model
    of Section 6 consumes directly (without instantiating devices).
    """

    access_bits: int
    read_energy: float
    write_energy: float
    read_latency: float
    write_latency: float
    random_read_latency: float = 0.0
    random_write_latency: float = 0.0
    random_read_energy: float = 0.0
    random_write_energy: float = 0.0
    standby_power: float = 0.0
    gated_power: float = 0.0

    def __post_init__(self) -> None:
        if self.access_bits <= 0:
            raise MemoryModelError(
                f"access width must be positive, got {self.access_bits}"
            )
        for name in ("read_energy", "write_energy", "read_latency",
                     "write_latency", "standby_power", "gated_power"):
            if getattr(self, name) < 0:
                raise MemoryModelError(f"{name} must be non-negative")

    def energy_per_bit(self, kind: AccessKind = AccessKind.READ) -> float:
        e = self.read_energy if kind is AccessKind.READ else self.write_energy
        return e / self.access_bits


class TimingsDevice(MemoryDevice):
    """A memory device fully described by a :class:`DeviceTimings`."""

    def __init__(self, timings: DeviceTimings) -> None:
        super().__init__()
        self.timings = timings
        self.access_bits = timings.access_bits
        self.standby_power = timings.standby_power
        self.gated_power = timings.gated_power

    def access_cost(
        self, kind: AccessKind, pattern: AccessPattern
    ) -> AccessCost:
        t = self.timings
        if pattern is AccessPattern.SEQUENTIAL:
            if kind is AccessKind.READ:
                return AccessCost(t.read_latency, t.read_energy)
            return AccessCost(t.write_latency, t.write_energy)
        if kind is AccessKind.READ:
            return AccessCost(
                t.random_read_latency or t.read_latency,
                t.random_read_energy or t.read_energy,
            )
        return AccessCost(
            t.random_write_latency or t.write_latency,
            t.random_write_energy or t.write_energy,
        )
