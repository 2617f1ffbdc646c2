"""Explicit phase schedule of Algorithm 2 (Section 4.3's working flow).

The overall working flow consists of six phase kinds — **Loading**,
**Assigning**, **Rerouting**, **Processing**, **Synchronizing**,
**Updating** — executed in the nested super-block order of Algorithm 2.
This module materialises that schedule as a timeline of
:class:`Phase` records with modelled durations and data volumes, giving
a Gantt-level view of where time goes (the coarse machine model in
:mod:`repro.arch.machine` integrates the same quantities in aggregate).

The timeline is the *serialised* view: processing steps appear one
after another, so the total phase time upper-bounds the pipelined
machine-model time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import run_cached, transform_cached
from ..errors import ConfigError
from ..graph.graph import Graph
from ..graph.hash_partition import hash_partition
from ..memory.base import AccessKind, AccessPattern
from . import params
from .config import HyVEConfig, Workload
from .machine import _device_config, _shared_device, _shared_sram
from .processing_unit import ProcessingUnitModel


class PhaseKind(enum.Enum):
    """The six phases of Section 4.3."""

    LOADING = "Loading"
    ASSIGNING = "Assigning"
    REROUTING = "Rerouting"
    PROCESSING = "Processing"
    SYNCHRONIZING = "Synchronizing"
    UPDATING = "Updating"


@dataclass(frozen=True)
class Phase:
    """One scheduled phase instance.

    Attributes:
        kind: which of the six phases.
        start: timeline offset (s) at which the phase begins.
        duration: modelled duration (s).
        detail: human-readable description (intervals/blocks involved).
        data_bits: bits moved (loading/updating) or streamed
            (processing); 0 for control phases.
    """

    kind: PhaseKind
    start: float
    duration: float
    detail: str
    data_bits: float = 0.0

    @property
    def end(self) -> float:
        return self.start + self.duration


def schedule_phases(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    config: HyVEConfig | None = None,
    iterations: int = 1,
) -> list[Phase]:
    """Materialise the Algorithm-2 phase timeline for ``iterations``.

    Uses the synthetic graph's own block statistics (not the reported
    scale): the timeline is a structural view, not an energy total.
    """
    if isinstance(workload, Graph):
        workload = Workload(workload)
    config = config or HyVEConfig()
    if not config.has_onchip:
        raise ConfigError("the phase schedule requires an on-chip memory")
    if iterations < 1:
        raise ConfigError(f"need at least one iteration: {iterations}")

    run = run_cached(algorithm, workload.graph)
    streamed = transform_cached(algorithm, workload.graph)
    n = config.num_pus
    p = _partition_count(config, streamed, run.vertex_bits, n)
    partition, _ = hash_partition(streamed, p)
    sizes = partition.interval_sizes()
    q = p // n

    # Device costs, from the devices the pricing kernel shares.
    vertex_dev, _ = _shared_device(
        _device_config(config, config.offchip_vertex)
    )
    edge_dev, _ = _shared_device(_device_config(config, config.edge_memory))
    sram, _ = _shared_sram(config.sram_bits)
    pu = ProcessingUnitModel(sram_cycle=sram.point.read_latency)
    seq_read = vertex_dev.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
    seq_write = vertex_dev.access_cost(
        AccessKind.WRITE, AccessPattern.SEQUENTIAL
    )
    edge_seq = edge_dev.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)

    def interval_load_time(vertex_count: float) -> float:
        bits = vertex_count * run.vertex_bits
        return bits / vertex_dev.access_bits * seq_read.latency

    def interval_store_time(vertex_count: float) -> float:
        bits = vertex_count * run.vertex_bits
        return bits / vertex_dev.access_bits * seq_write.latency

    steps = partition.super_block_step_counts(n)  # [X, Y, step, pu]

    phases: list[Phase] = []
    now = 0.0

    def emit(kind: PhaseKind, duration: float, detail: str,
             bits: float = 0.0) -> None:
        nonlocal now
        phases.append(Phase(kind, now, duration, detail, bits))
        now += duration

    for it in range(iterations):
        for y in range(q):
            dst_ids = list(range(y * n, (y + 1) * n))
            dst_vertices = float(sizes[dst_ids].sum())
            for x in range(q):
                src_ids = list(range(x * n, (x + 1) * n))
                src_vertices = float(sizes[src_ids].sum())
                emit(
                    PhaseKind.LOADING,
                    interval_load_time(src_vertices),
                    f"it{it} SB({x},{y}): load source intervals {src_ids}",
                    src_vertices * run.vertex_bits,
                )
                if x == 0:
                    emit(
                        PhaseKind.LOADING,
                        interval_load_time(dst_vertices),
                        f"it{it} SB({x},{y}): load destination intervals "
                        f"{dst_ids}",
                        dst_vertices * run.vertex_bits,
                    )
                emit(
                    PhaseKind.ASSIGNING,
                    params.SYNC_LATENCY,
                    f"it{it} SB({x},{y}): assign destinations to PUs",
                )
                for step in range(n):
                    if config.data_sharing:
                        emit(
                            PhaseKind.REROUTING,
                            params.ROUTER_FILL_LATENCY,
                            f"it{it} SB({x},{y}) step {step}: re-route "
                            "source connections",
                        )
                    max_edges = int(steps[x, y, step].max())
                    stream_time = (
                        max_edges * run.edge_bits / edge_dev.access_bits
                        * edge_seq.latency
                    )
                    compute_time = (
                        max_edges * pu.initiation_interval
                        + pu.pipeline_fill()
                    )
                    emit(
                        PhaseKind.PROCESSING,
                        max(stream_time, compute_time),
                        f"it{it} SB({x},{y}) step {step}: "
                        f"{int(steps[x, y, step].sum())} edges "
                        f"(slowest PU: {max_edges})",
                        float(steps[x, y, step].sum()) * run.edge_bits,
                    )
                    emit(
                        PhaseKind.SYNCHRONIZING,
                        params.SYNC_LATENCY,
                        f"it{it} SB({x},{y}) step {step}: barrier",
                    )
                if x == q - 1:
                    emit(
                        PhaseKind.UPDATING,
                        interval_store_time(dst_vertices),
                        f"it{it} SB({x},{y}): write back destination "
                        f"intervals {dst_ids}",
                        dst_vertices * run.vertex_bits,
                    )
    return phases


def phase_profile(phases: list[Phase]) -> dict[str, float]:
    """Total time per phase kind (the Gantt summary)."""
    totals = {kind.value: 0.0 for kind in PhaseKind}
    for phase in phases:
        totals[phase.kind.value] += phase.duration
    return totals


def _partition_count(config: HyVEConfig, graph: Graph, vertex_bits: int,
                     num_pus: int) -> int:
    from .config import choose_num_intervals

    p = choose_num_intervals(
        config, max(graph.num_vertices, 1), vertex_bits
    )
    # Clamp to the synthetic graph's resolution.
    while p > max(graph.num_vertices, num_pus):
        p //= 2
    return max(p - (p % num_pus), num_pus)
