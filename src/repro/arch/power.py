"""Power-over-time profile derived from the phase timeline.

Combines the Section 4.3 phase schedule with the device models to
estimate instantaneous power per phase: each phase's dynamic energy
(from its data volume) over its duration, plus the background power of
everything that is awake during it.  This is the view in which
bank-level power gating is visible directly — the edge-memory standby
term disappears from every phase except the streaming ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import run_cached
from ..errors import ConfigError
from ..graph.graph import Graph
from ..memory.base import AccessKind, AccessPattern
from . import params
from .config import HyVEConfig, MemoryTechnology, Workload
from .machine import (
    FOOTPRINT_SLACK,
    MIN_EDGE_CHIPS_PER_RANK,
    _chips,
    _device_config,
    _shared_device,
    _shared_sram,
)
from .phases import Phase, PhaseKind, schedule_phases


@dataclass(frozen=True)
class PowerSample:
    """Estimated power during one phase."""

    phase: Phase
    dynamic_power: float
    background_power: float

    @property
    def total_power(self) -> float:
        return self.dynamic_power + self.background_power


@dataclass(frozen=True)
class PowerProfile:
    """A run's power trace with summary statistics."""

    samples: tuple[PowerSample, ...]

    @property
    def duration(self) -> float:
        return sum(s.phase.duration for s in self.samples)

    @property
    def average_power(self) -> float:
        if self.duration <= 0:
            raise ConfigError("profile has zero duration")
        energy = sum(s.total_power * s.phase.duration for s in self.samples)
        return energy / self.duration

    @property
    def peak_power(self) -> float:
        return max(s.total_power for s in self.samples)

    def by_kind(self) -> dict[str, float]:
        """Time-weighted average power per phase kind."""
        sums: dict[str, float] = {}
        times: dict[str, float] = {}
        for s in self.samples:
            key = s.phase.kind.value
            sums[key] = sums.get(key, 0.0) + s.total_power * s.phase.duration
            times[key] = times.get(key, 0.0) + s.phase.duration
        return {k: sums[k] / times[k] for k in sums if times[k] > 0}


def power_profile(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    config: HyVEConfig | None = None,
    iterations: int = 1,
) -> PowerProfile:
    """Estimate the power trace of ``iterations`` of the schedule."""
    if isinstance(workload, Graph):
        workload = Workload(workload)
    config = config or HyVEConfig()
    phases = schedule_phases(algorithm, workload, config, iterations)
    run = run_cached(algorithm, workload.graph)

    # The devices and edge provisioning the pricing kernel uses.
    edge_cfg = _device_config(config, config.edge_memory)
    edge_dev, _ = _shared_device(edge_cfg)
    vertex_dev, _ = _shared_device(
        _device_config(config, config.offchip_vertex)
    )
    sram, _ = _shared_sram(config.sram_bits)
    edge_footprint = (
        workload.graph.num_edges * workload.edge_scale * run.edge_bits
        * FOOTPRINT_SLACK
    )
    edge_chips = _chips(edge_cfg, edge_footprint, MIN_EDGE_CHIPS_PER_RANK)

    gating_on = (
        config.power_gating.enabled
        and config.edge_memory == MemoryTechnology.RERAM
        and config.reram.subbank_interleaving
    )
    edge_awake = edge_chips * edge_dev.standby_power
    edge_gated = (
        edge_chips * edge_dev.gated_power
        + edge_dev.standby_power / edge_dev.num_banks  # the active bank
        if gating_on
        else edge_awake
    )
    always_on = (
        vertex_dev.standby_power
        + config.num_pus * sram.standby_power
        + config.num_pus * params.PU_LEAKAGE
        + params.ROUTER_LEAKAGE
        + params.CONTROLLER_POWER
    )

    edge_seq = edge_dev.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
    vertex_read = vertex_dev.access_cost(
        AccessKind.READ, AccessPattern.SEQUENTIAL
    )
    vertex_write = vertex_dev.access_cost(
        AccessKind.WRITE, AccessPattern.SEQUENTIAL
    )
    sram_read = sram.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    sram_write = sram.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)

    samples: list[PowerSample] = []
    for phase in phases:
        background = always_on + (
            edge_gated if phase.kind is not PhaseKind.PROCESSING
            else edge_awake
        )
        energy = 0.0
        if phase.kind is PhaseKind.LOADING:
            energy = (
                phase.data_bits / vertex_dev.access_bits * vertex_read.energy
                + phase.data_bits / 32.0 * sram_write.energy
            )
        elif phase.kind is PhaseKind.UPDATING:
            energy = (
                phase.data_bits / vertex_dev.access_bits
                * vertex_write.energy
                + phase.data_bits / 32.0 * sram_read.energy
            )
        elif phase.kind is PhaseKind.PROCESSING:
            edges = phase.data_bits / run.edge_bits
            energy = (
                phase.data_bits / edge_dev.access_bits * edge_seq.energy
                + edges * (2 * sram_read.energy + sram_write.energy)
                + edges * (
                    params.PU_OP_ENERGY_MV
                    if run.algorithm in ("PR", "SpMV")
                    else params.PU_OP_ENERGY_NON_MV
                )
                + edges * params.PIPELINE_ENERGY_PER_EDGE
            )
        elif phase.kind is PhaseKind.REROUTING:
            energy = config.num_pus * params.ROUTER_REROUTE_ENERGY
        dynamic = energy / phase.duration if phase.duration > 0 else 0.0
        samples.append(PowerSample(phase, dynamic, background))
    return PowerProfile(samples=tuple(samples))
