"""GraphR machine model (the prior ReRAM graph accelerator, Section 6).

GraphR [19] differs from HyVE on every level of the hierarchy:

* **Compute**: ReRAM crossbars process edges; every edge is written into
  a crossbar before the block's (single) analog operation — the heavy
  overhead HyVE's analysis identifies.
* **Local vertex storage**: register files, which force 8x8 blocks and
  hence tiny partitions.
* **Global storage**: ReRAM main memory; vertex loads follow Equation
  (9): 16 vertices per non-empty block, so traffic scales with the
  non-empty block count rather than with P/N like HyVE.

The machine exposes the same ``run`` interface as
:class:`~repro.arch.machine.AcceleratorMachine` so every figure driver
treats it uniformly.  Like the HyVE machine, evaluation factors as
simulate-once / price-many: :meth:`GraphRMachine.scheduled_counts`
memoizes the Section 6 traffic quantities on a content key, and one
kernel prices them in vectorized array passes — over a whole
(algorithm x dataset) grid in :func:`graphr_fold_many`, over a single
cell in :meth:`GraphRMachine.run`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached, transform_cached
from ..graph.graph import Graph
from ..graph.stats import average_edges_per_nonempty_block
from ..memory.base import AccessKind, AccessPattern
from ..memory.regfile import RegisterFile
from ..memory.reram import ReRAMConfig
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from . import params, report as rpt
from .config import Workload
from .crossbar import CrossbarModel
from .machine import FOOTPRINT_SLACK, SimulationResult, _shared_device
from .report import EnergyReport


@dataclass(frozen=True)
class GraphRConfig:
    """GraphR machine parameters."""

    label: str = "GraphR"
    num_crossbar_groups: int = 8
    reram: ReRAMConfig = field(default_factory=ReRAMConfig)
    #: Register-file capacity: 8 + 8 vertices of 32 bits per group.
    regfile_bits: int = 16 * 32


@dataclass(frozen=True)
class GraphRCounts:
    """The Section 6 traffic quantities, at reported scale.

    Everything the GraphR pricing needs and nothing device-specific:
    device knobs (ReRAM density, crossbar-group count) only change the
    *fold*, so a grid over them — or a fresh process pricing the same
    cell — shares one counts record.
    """

    iterations: int
    edges_per_iter: float
    vertices: float
    #: N_avg clamped to >= 1 (Table 1); ``nonempty_blocks`` follows.
    navg: float
    vertex_bits: int
    edge_bits: int

    @property
    def edges_total(self) -> float:
        return self.edges_per_iter * self.iterations

    @property
    def nonempty_blocks(self) -> float:
        return self.edges_per_iter / self.navg


#: Fields of :class:`GraphRCounts` declared ``int`` (JSON round-trip).
_GRAPHR_COUNTS_INT_FIELDS = frozenset(
    {"iterations", "vertex_bits", "edge_bits"}
)


class GraphRMachine:
    """Trace-driven model of GraphR built from Section 6's equations."""

    def __init__(self, config: GraphRConfig | None = None) -> None:
        self.config = config or GraphRConfig()

    @property
    def label(self) -> str:
        return self.config.label

    # --- counts (simulate once) -----------------------------------------

    def counts_key(self, run: AlgorithmRun, workload: Workload) -> str:
        """Content key under which this cell's counts are shared.

        Graph content, run structure and reported scale only — no
        device knobs — mirroring
        :func:`repro.perf.batch.counts_cache_key`.
        """
        from ..perf.batch import _run_digest

        return "|".join(
            (
                "graphr",
                workload.graph.fingerprint(),
                _run_digest(run),
                f"vs{workload.vertex_scale!r}",
                f"es{workload.edge_scale!r}",
            )
        )

    def _compute_counts(
        self,
        algorithm: EdgeCentricAlgorithm,
        run: AlgorithmRun,
        workload: Workload,
    ) -> GraphRCounts:
        streamed = transform_cached(algorithm, workload.graph)
        # Graph shape statistics at reported scale: N_avg is scale
        # invariant (Table 1); the non-empty block count follows from it.
        navg = average_edges_per_nonempty_block(streamed)
        if navg <= 0:
            navg = 1.0
        return GraphRCounts(
            iterations=run.iterations,
            edges_per_iter=run.edges_per_iteration * workload.edge_scale,
            vertices=run.num_vertices * workload.vertex_scale,
            navg=navg,
            vertex_bits=run.vertex_bits,
            edge_bits=run.edge_bits,
        )

    def scheduled_counts(
        self,
        algorithm: EdgeCentricAlgorithm,
        run: AlgorithmRun,
        workload: Workload,
    ) -> GraphRCounts:
        """Memoized :meth:`_compute_counts` (two-level run cache).

        JSON round-trips every field exactly, so a cache hit folds
        bit-identically to a fresh computation.
        """
        from ..perf.cache import get_run_cache

        key = self.counts_key(run, workload)

        def compute() -> dict:
            return dataclasses.asdict(
                self._compute_counts(algorithm, run, workload)
            )

        record = get_run_cache().get_or_counts(key, compute)
        kwargs = {}
        for f in dataclasses.fields(GraphRCounts):
            value = record[f.name]
            kwargs[f.name] = (
                int(value)
                if f.name in _GRAPHR_COUNTS_INT_FIELDS
                else float(value)
            )
        return GraphRCounts(**kwargs)

    # --- main entry -----------------------------------------------------

    def run(
        self,
        algorithm: EdgeCentricAlgorithm,
        workload: Workload | Graph,
    ) -> SimulationResult:
        if isinstance(workload, Graph):
            workload = Workload(workload)
        run = run_cached(algorithm, workload.graph)
        counts = self.scheduled_counts(algorithm, run, workload)
        [report] = _graphr_kernel(self.config, [(run, counts, workload)])
        return SimulationResult(report=report, run=run)


def graphr_fold_many(
    machine: GraphRMachine,
    cells: "list[tuple[AlgorithmRun, GraphRCounts, Workload]]",
) -> list[EnergyReport]:
    """Price many (algorithm x dataset) cells on one GraphR config.

    Element ``i`` is bit-identical to the report of
    ``machine.run`` on that cell: both price through the same kernel.
    """
    if not cells:
        return []
    metrics = obs_metrics.get_metrics()
    metrics.counter(obs_metrics.GRAPHR_FOLD_CONFIGS).add(len(cells))
    return _graphr_kernel(machine.config, cells)


def _graphr_kernel(
    cfg: GraphRConfig,
    cells: "list[tuple[AlgorithmRun, GraphRCounts, Workload]]",
) -> list[EnergyReport]:
    """The one GraphR pricing kernel (Section 6's equations).

    The dynamic-energy and time terms are NumPy float64 array passes
    over the cells; the per-cell tail (crossbar occupancy, background
    integration, report assembly) runs in Python floats.
    """
    global_mem, costs = _shared_device(cfg.reram)
    (sr_lat, sr_en, sw_lat, sw_en, _, _, _, _, abits) = costs
    regfile = RegisterFile(cfg.regfile_bits * cfg.num_crossbar_groups)
    rf_read = regfile.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    rf_write = regfile.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)

    edges_total, edge_bits, vertex_bits, iters, vertices, nonempty = (
        np.asarray(
            [(c.edges_total, c.edge_bits, c.vertex_bits, c.iterations,
              c.vertices, c.nonempty_blocks) for _, c, _ in cells],
            dtype=np.float64,
        ).T
    )

    # --- vector passes ---------------------------------------------------
    # Edge storage streams the edge list once per iteration; global
    # vertex traffic follows Equations (7) and (9): 16 vertex loads per
    # non-empty block, every vertex stored once.
    edge_stream_bits = edges_total * edge_bits
    stream_acc = edge_stream_bits / abits
    stream_en = sr_en * stream_acc
    stream_lat = sr_lat * stream_acc

    load_bits = (16.0 * nonempty) * vertex_bits * iters
    store_bits = vertices * vertex_bits * iters
    load_acc = load_bits / abits
    store_acc = store_bits / abits
    load_en = sr_en * load_acc
    load_lat = sr_lat * load_acc
    store_en = sw_en * store_acc
    store_lat = sw_lat * store_acc
    offchip_en = load_en + store_en

    words_per_vertex = vertex_bits / 32.0
    rf_energy = (
        2.0 * edges_total * words_per_vertex * rf_read.energy
        + edges_total * words_per_vertex * rf_write.energy
        + (load_bits + store_bits) / 32.0 * rf_write.energy
    )

    requests = (
        edge_stream_bits / global_mem.access_bits
        + (load_bits + store_bits) / global_mem.access_bits
    )
    controller_en = requests * params.CONTROLLER_REQUEST_ENERGY

    t_vertex = load_lat + store_lat
    logic_power = params.CONTROLLER_POWER + params.ROUTER_LEAKAGE

    # --- tail: per-cell crossbar terms and report assembly --------------
    # The crossbar occupancy ``1 - (7/8) ** navg`` is a Python ``**``
    # per cell (Equations (11), (12), (15)); crossbar processing, edge
    # streaming and vertex transfers are pipelined across GEs, so the
    # slowest stage bounds the run (Equation (16)).
    reports: list[EnergyReport] = []
    for i, (run, counts, workload) in enumerate(cells):
        crossbar = CrossbarModel(
            navg=counts.navg, num_groups=cfg.num_crossbar_groups
        )
        report = EnergyReport(
            machine=cfg.label,
            algorithm=run.algorithm,
            graph=workload.name,
            edges_traversed=counts.edges_total,
            iterations=counts.iterations,
            time=0.0,
        )
        report.add(rpt.EDGE_MEMORY, float(stream_en[i]))
        report.add(rpt.OFFCHIP_VERTEX, float(offchip_en[i]))
        report.add(rpt.ONCHIP_VERTEX, float(rf_energy[i]))
        report.add(
            rpt.PROCESSING,
            counts.edges_total * crossbar.energy_per_edge(run.algorithm),
        )
        report.add(rpt.CONTROLLER, float(controller_en[i]))

        t_crossbar = counts.edges_total * crossbar.latency_per_edge(
            run.algorithm
        )
        duration = max(t_crossbar, float(stream_lat[i]), float(t_vertex[i]))
        report.time = duration

        footprint = (
            counts.edges_per_iter * counts.edge_bits
            + counts.vertices * counts.vertex_bits
        ) * FOOTPRINT_SLACK
        chips = max(1, math.ceil(footprint / cfg.reram.density_bits))
        # GraphR has no BPG: random-ish block order defeats it.
        report.add(rpt.EDGE_MEMORY_BG,
                   chips * global_mem.background_energy(duration))
        report.add(rpt.ONCHIP_VERTEX_BG,
                   regfile.standby_power * duration)
        report.add(rpt.LOGIC_BG, logic_power * duration)
        reports.append(report)
    return reports


def run_many(
    machine: GraphRMachine,
    jobs: "list[tuple[EdgeCentricAlgorithm, Workload | Graph]]",
) -> list[SimulationResult]:
    """Batched :meth:`GraphRMachine.run` over many (algorithm, workload)
    cells: converge each (run cache), expand each counts record (counts
    cache), then price the whole grid with one :func:`graphr_fold_many`
    pass.  Bit-identical per cell to a loop of ``machine.run`` calls.
    """
    tracer = get_tracer()
    cells: list[tuple[AlgorithmRun, GraphRCounts, Workload]] = []
    with tracer.span("graphr.counts", cells=len(jobs)):
        for algorithm, workload in jobs:
            if isinstance(workload, Graph):
                workload = Workload(workload)
            run = run_cached(algorithm, workload.graph)
            counts = machine.scheduled_counts(algorithm, run, workload)
            cells.append((run, counts, workload))
    reports = graphr_fold_many(machine, cells)
    return [
        SimulationResult(report=report, run=run)
        for report, (run, _, _) in zip(reports, cells)
    ]
