"""One-shot initialisation cost: writing the graph into the memories.

Section 3.1: "During the algorithm initialization, the edge data go
through a one-shot preprocessing step and are written into the memory...
Limited write bandwidth of ReRAM will not cause an obvious delay since
the data write only occurs during initialization."  This module
quantifies that claim: the time and energy to write the serialised
block image (Section 3.4, including the 30% dynamic-graph slack
headers) into the edge memory and the interval image into the vertex
memory, with writes interleaved across the provisioned chips.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import run_cached
from ..errors import ConfigError
from ..graph.graph import Graph
from ..memory.base import AccessKind, AccessPattern
from ..model.preprocessing import hyve_preprocessing_time
from .config import HyVEConfig, Workload, choose_num_intervals
from .machine import (
    FOOTPRINT_SLACK,
    MIN_EDGE_CHIPS_PER_RANK,
    MIN_VERTEX_CHIPS,
    AcceleratorMachine,
    _chips,
    _device_config,
    _shared_device,
)


@dataclass(frozen=True)
class InitializationCost:
    """Cost of the one-shot preprocessing + memory-image write.

    Attributes:
        partition_time: host-side interval-block partitioning (s),
            from the calibrated preprocessing model.
        edge_write_bits: serialised edge image size (bits, with slack).
        vertex_write_bits: serialised vertex image size.
        write_time: time to stream both images into the memories (s),
            writes interleaved across chips.
        write_energy: energy of those writes (J).
    """

    partition_time: float
    edge_write_bits: float
    vertex_write_bits: float
    write_time: float
    write_energy: float

    @property
    def total_time(self) -> float:
        return self.partition_time + self.write_time


def initialization_cost(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    config: HyVEConfig | None = None,
) -> InitializationCost:
    """Model the one-shot initialisation for one workload."""
    if isinstance(workload, Graph):
        workload = Workload(workload)
    config = config or HyVEConfig()
    run = run_cached(algorithm, workload.graph)

    edges = run.edges_per_iteration * workload.edge_scale
    vertices = run.num_vertices * workload.vertex_scale
    edge_bits = edges * run.edge_bits * FOOTPRINT_SLACK
    vertex_bits = vertices * run.vertex_bits * FOOTPRINT_SLACK

    edge_cfg = _device_config(config, config.edge_memory)
    vertex_cfg = _device_config(config, config.offchip_vertex)
    edge_chips = _chips(edge_cfg, edge_bits, MIN_EDGE_CHIPS_PER_RANK)
    vertex_chips = _chips(vertex_cfg, vertex_bits, MIN_VERTEX_CHIPS)
    edge_dev, _ = _shared_device(edge_cfg)
    vertex_dev, _ = _shared_device(vertex_cfg)

    edge_write = edge_dev.transfer_cost(
        AccessKind.WRITE, edge_bits, AccessPattern.SEQUENTIAL
    )
    vertex_write = vertex_dev.transfer_cost(
        AccessKind.WRITE, vertex_bits, AccessPattern.SEQUENTIAL
    )
    # Writes stream into all chips of the rank in parallel.
    write_time = (
        edge_write.latency / edge_chips
        + vertex_write.latency / vertex_chips
    )
    p = choose_num_intervals(config, max(vertices, 1.0), run.vertex_bits)
    return InitializationCost(
        partition_time=hyve_preprocessing_time(edges, p),
        edge_write_bits=edge_bits,
        vertex_write_bits=vertex_bits,
        write_time=write_time,
        write_energy=edge_write.energy + vertex_write.energy,
    )


def init_vs_execution(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    config: HyVEConfig | None = None,
) -> dict[str, float]:
    """Compare the one-shot initialisation with one full execution.

    Returns the ratios the Section 3.1 claim rests on: the write time
    as a fraction of the execution time and of the per-iteration time.
    """
    if isinstance(workload, Graph):
        workload = Workload(workload)
    config = config or HyVEConfig()
    init = initialization_cost(algorithm, workload, config)
    report = AcceleratorMachine(config).run(algorithm, workload).report
    if report.time <= 0:
        raise ConfigError("execution time must be positive")
    per_iteration = report.time / report.iterations
    return {
        "init_write_time_s": init.write_time,
        "execution_time_s": report.time,
        "write_over_execution": init.write_time / report.time,
        "write_over_iteration": init.write_time / per_iteration,
        "write_energy_over_execution": (
            init.write_energy / report.total_energy
        ),
        "partition_time_s": init.partition_time,
    }
