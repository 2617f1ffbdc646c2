"""The accelerator machine model: folds schedule counts into time/energy.

This is the reproduction of the paper's cycle-level simulator at
trace granularity (see DESIGN.md): the algorithm really runs (producing
iteration counts and results), the schedule expands into exact access
counts (Equations (3)-(8)), and this module prices those counts with the
device models and integrates background power over the modelled
execution time — the decomposition of Fig. 8 / Equations (1)-(2).

One machine class covers every accelerator configuration of Fig. 16
(acc+DRAM, acc+ReRAM, acc+SRAM+DRAM, acc+HyVE, acc+HyVE-opt): the
configuration selects the technology at each level and the two
optimisations.

All pricing goes through one columnar kernel.  Each distinct device
of a grid contributes one unit-cost row (access costs and background
power); the configs index those rows, and every term — dynamic energy,
busy time, bank power gating, background power, per-component energies
— is a NumPy pass over the grid.  :func:`fold_many` prices a grid
against one schedule; :meth:`AcceleratorMachine.run` prices its single
config through the same kernel.  SECDED protection is one switch of
that kernel (SECDED-wrapped cost rows for the off-chip levels, an ECC
overhead on the scratchpad), not a separate path.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..errors import ConfigError
from ..graph.graph import Graph
from ..memory.base import (
    AccessKind,
    AccessPattern,
    MemoryDevice,
    background_energy,
)
from ..memory.dram import DDR4Chip, DRAMConfig
from ..memory.ecc import SECDEDDevice, secded_factor, secded_logic_energy
from ..memory.powergate import GatingColumns, plan_columns
from ..memory.reram import ReRAMChip, ReRAMConfig
from ..memory.sram import OnChipSRAM
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from . import params, report as rpt
from .config import HyVEConfig, MemoryTechnology, Workload
from .processing_unit import ProcessingUnitModel
from .report import EnergyReport
from .router import RouterModel
from .scheduler import ScheduleCounts

#: Slack factor sizing the memory footprint (30% reserve, Section 5).
FOOTPRINT_SLACK = 1.3

#: The edge memory needs the full 512-bit streaming channel, which on a
#: commodity organisation spans a rank of x64 chips; its background
#: power therefore scales with the full rank even for small datasets.
#: The vertex memory has far lower bandwidth demands ("much smaller
#: capacity... static power is not the main optimization target",
#: Section 3.2) and is provisioned per capacity only.
MIN_EDGE_CHIPS_PER_RANK = 8
MIN_VERTEX_CHIPS = 1


@dataclass(frozen=True)
class SimulationResult:
    """Report plus the algorithm's actual output values."""

    report: EnergyReport
    run: AlgorithmRun

    @property
    def values(self):
        return self.run.values


class AcceleratorMachine:
    """A graph-processing accelerator with a configurable hierarchy.

    By default the devices are ideal, as in the paper.  ``secded=True``
    protects every memory level with a (72, 64) SECDED code (see
    :mod:`repro.memory.ecc`): the off-chip levels price through
    :class:`~repro.memory.ecc.SECDEDDevice`-wrapped devices, and the
    scratchpad pays the same check-bit traffic, standby power and
    encode/decode energy.
    """

    def __init__(
        self,
        config: HyVEConfig | None = None,
        secded: bool = False,
    ) -> None:
        self.config = config or HyVEConfig()
        self.secded = secded

    @property
    def label(self) -> str:
        return self.config.label

    # --- main entry ---------------------------------------------------------

    def run(
        self,
        algorithm: EdgeCentricAlgorithm,
        workload: Workload | Graph,
    ) -> SimulationResult:
        """Execute ``algorithm`` and model the machine's time and energy."""
        if isinstance(workload, Graph):
            workload = Workload(workload)
        tracer = get_tracer()
        with tracer.span(
            "machine.run",
            machine=self.config.label,
            algorithm=algorithm.name,
            graph=workload.name,
        ):
            with tracer.span("algorithm.converge", algorithm=algorithm.name):
                run = run_cached(algorithm, workload.graph)
            with tracer.span("schedule.counts"):
                # Memoized in the two-level run cache (simulate once /
                # price many); bit-identical to ScheduleCounts.compute.
                from ..perf.batch import scheduled_counts

                counts = scheduled_counts(run, workload, self.config)
            with tracer.span("fold"):
                fold = _fold_kernel(
                    run, [counts], workload, [self.config], self.secded
                )
        return SimulationResult(report=fold.reports[0], run=run)

    def run_counts(
        self,
        algorithm: EdgeCentricAlgorithm,
        workload: Workload | Graph,
    ) -> ScheduleCounts:
        """Expose the schedule counts (for tests and the analytic model)."""
        if isinstance(workload, Graph):
            workload = Workload(workload)
        run = run_cached(algorithm, workload.graph)
        return ScheduleCounts.compute(run, workload, self.config)


# --- devices and their unit-cost tables -------------------------------------

#: Shared, memoized device instances, each paired with its unit-cost
#: table (every access cost the kernel can ask of it, evaluated once per
#: operating point).  Device models are pure cost functions of their
#: frozen configs (stats helpers are never called while pricing), so
#: instances can be shared; ReRAM construction in particular runs an
#: NVSim-lite solve worth caching.
_DEVICE_MEMO: OrderedDict = OrderedDict()
_SRAM_MEMO: OrderedDict = OrderedDict()
_DEVICE_MEMO_CAP = 64

#: Columns of a unit-cost table: sequential/random x read/write latency
#: and energy, the native access width, then the standby and gated
#: background power.
(_SR_LAT, _SR_EN, _SW_LAT, _SW_EN,
 _RR_LAT, _RR_EN, _RW_LAT, _RW_EN, _ABITS, _STANDBY, _GATED) = range(11)


def clear_device_memos() -> None:
    """Forget every memoized device, e.g. after patching a constant of a
    device model."""
    _DEVICE_MEMO.clear()
    _SRAM_MEMO.clear()


def _device_cost_table(device: MemoryDevice) -> tuple[float, ...]:
    """One row of the kernel's (configs x actions) cost matrix."""
    sr = device.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
    sw = device.access_cost(AccessKind.WRITE, AccessPattern.SEQUENTIAL)
    rr = device.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    rw = device.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)
    return (sr.latency, sr.energy, sw.latency, sw.energy,
            rr.latency, rr.energy, rw.latency, rw.energy,
            float(device.access_bits), device.standby_power,
            device.gated_power)


def _memoized(memo: OrderedDict, key, build):
    """LRU lookup of ``key`` in ``memo``, filled by ``build()``."""
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = build()
        if len(memo) > _DEVICE_MEMO_CAP:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return entry


def _shared_device(
    config: ReRAMConfig | DRAMConfig, secded: bool = False
) -> tuple[MemoryDevice, tuple[float, ...]]:
    """Memoized device for ``config`` (SECDED-wrapped when ``secded``)
    and its unit-cost table.

    Keyed on the device config itself, so the HyVE and GraphR kernels
    share one NVSim-lite solve per ReRAM operating point.
    """
    def build():
        if secded:
            device: MemoryDevice = SECDEDDevice(_shared_device(config)[0])
        elif isinstance(config, ReRAMConfig):
            device = ReRAMChip(config)
        else:
            device = DDR4Chip(config)
        return device, _device_cost_table(device)

    return _memoized(_DEVICE_MEMO, (config, secded), build)


def _shared_sram(
    capacity_bits: int,
) -> tuple[OnChipSRAM, tuple[float, ...]]:
    """(sram, (cycle, read_energy, write_energy, access_bits, standby
    power, gated power))."""
    def build():
        sram = OnChipSRAM(capacity_bits)
        read = sram.access_cost(AccessKind.READ, AccessPattern.RANDOM)
        write = sram.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)
        return sram, (sram.point.read_latency, read.energy, write.energy,
                      float(sram.access_bits), sram.standby_power,
                      sram.gated_power)

    return _memoized(_SRAM_MEMO, capacity_bits, build)


def _device_config(
    config: HyVEConfig, tech: str
) -> ReRAMConfig | DRAMConfig:
    """The device config of a level built from ``tech`` (anything but
    ReRAM is commodity DRAM)."""
    return config.reram if tech == MemoryTechnology.RERAM else config.dram


def _chips(device: ReRAMConfig | DRAMConfig, footprint_bits: float,
           min_chips: int) -> int:
    """Chips of ``device`` a level needs to hold ``footprint_bits``."""
    return max(min_chips, math.ceil(footprint_bits / device.density_bits))


def _distinct(objects: list) -> tuple[list, np.ndarray]:
    """(distinct ``objects`` in first-seen order, each object's row).

    Keyed on identity, which is cheap and safe for one kernel call: the
    configs keep every object alive.
    """
    keys = list(map(id, objects))
    rows = {k: row for row, k in enumerate(dict.fromkeys(keys))}
    by_key = dict(zip(keys, objects))
    return ([by_key[k] for k in rows],
            np.fromiter(map(rows.__getitem__, keys), np.intp, len(keys)))


def _level(configs: list[HyVEConfig], tech: str, footprint, min_chips: int,
           secded: bool) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """One memory level of a grid: (its distinct device configs, each
    config's row among them, and per config the unit-cost table, from
    the SECDED-wrapped device when ``secded``, and the chip count
    holding ``footprint``, a scalar or a per-config column)."""
    devices, rows = _distinct(
        [_device_config(c, getattr(c, tech)) for c in configs]
    )
    costs = [_shared_device(device, secded)[1] for device in devices]
    density = np.array([d.density_bits for d in devices], np.float64)[rows]
    chips = np.maximum(min_chips, np.ceil(footprint / density))  # _chips
    return (devices, rows, np.array(costs, dtype=np.float64)[rows],
            chips.astype(np.int64))


# --- the pricing kernel -----------------------------------------------------

def _check_grid_config(
    configs: list[HyVEConfig], counts: ScheduleCounts
) -> None:
    """Reject configs whose schedule would differ from ``counts``.

    Each distinct schedule shape is checked once, its flags against the
    first config's.  Every mismatched knob is collected before raising,
    so a tuner debugging a wide grid sees the whole problem in one
    :class:`ConfigError` instead of peeling mismatches off one by one.
    """
    from .config import SCHEDULE_FLAGS, choose_num_intervals

    head = configs[0]
    shapes: dict[tuple, HyVEConfig] = {}
    for config in configs:
        shapes.setdefault(config.schedule_shape, config)
    for config in shapes.values():
        problems: list[str] = []
        if config.num_pus != counts.num_pus:
            problems.append(
                f"num_pus={config.num_pus}, counts expect {counts.num_pus}"
            )
        p = choose_num_intervals(config, counts.vertices, counts.vertex_bits)
        if p != counts.num_intervals:
            problems.append(
                f"partitions into {p} intervals, counts expect "
                f"{counts.num_intervals}"
            )
        for flag in SCHEDULE_FLAGS:
            if getattr(config, flag) != getattr(head, flag):
                problems.append(
                    f"{flag}={getattr(config, flag)} differs from the "
                    f"grid's {getattr(head, flag)}"
                )
        if problems:
            raise ConfigError(
                f"fold_many: config {config.label!r} does not share the "
                f"grid's schedule — " + "; ".join(problems)
                + "; group configs by counts key first"
            )


@dataclass(eq=False)
class GridFold:
    """A priced grid in configs order: each config's time and total
    energy as columns, and the columns its report is built from.

    Reports are assembled on demand: :meth:`report` builds one config's,
    and :attr:`reports` builds the whole list in one pass on first
    access, so a caller that ranks the grid by its columns pays only
    for the reports it keeps.
    """

    configs: list[HyVEConfig]
    #: Each config's row of the counts table.
    counts: list[ScheduleCounts]
    algorithm: str
    graph: str
    #: Whether each config has a scratchpad.
    onchip: list[bool]
    #: The rows of ``joules``, in the reports' insertion order.
    components: list[str]
    #: (component x config) joules.
    joules: np.ndarray
    time: np.ndarray
    total_energy: np.ndarray

    def __post_init__(self) -> None:
        # A config without a scratchpad reports no on-chip components.
        self._offchip = [c not in (rpt.ONCHIP_VERTEX, rpt.ONCHIP_VERTEX_BG)
                         for c in self.components]
        self._names = (list(compress(self.components, self._offchip)),
                       self.components)
        self._reports: list[EnergyReport] | None = None

    @classmethod
    def empty(cls) -> "GridFold":
        return cls([], [], "", "", [], [], np.zeros((0, 0)), np.zeros(0),
                   np.zeros(0))

    def _build(self, cfg: HyVEConfig, counts: ScheduleCounts, has: bool,
               time: float, row: list[float]) -> EnergyReport:
        return EnergyReport(
            machine=cfg.label,
            algorithm=self.algorithm,
            graph=self.graph,
            edges_traversed=counts.edges_total,
            iterations=counts.iterations,
            time=time,
            energy=dict(zip(self._names[has], row if has
                            else compress(row, self._offchip))),
        )

    def report(self, i: int) -> EnergyReport:
        """Config ``i``'s report, bit-identical to ``reports[i]``."""
        if self._reports is not None:
            return self._reports[i]
        return self._build(self.configs[i], self.counts[i], self.onchip[i],
                           self.time[i].item(), self.joules[:, i].tolist())

    @property
    def reports(self) -> list[EnergyReport]:
        """Every config's report, in configs order."""
        if self._reports is None:
            self._reports = list(map(
                self._build, self.configs, self.counts, self.onchip,
                self.time.tolist(), self.joules.T.tolist()))
        return self._reports


def fold_many(
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    configs: list[HyVEConfig],
) -> list[EnergyReport]:
    """Price one :class:`ScheduleCounts` against a grid of configs.

    Element ``i`` is bit-identical to
    ``AcceleratorMachine(configs[i]).run(...).report``: both price
    through the same kernel.  Every config must share the schedule
    described by ``counts`` (grouping by
    :func:`repro.perf.batch.counts_cache_key` guarantees this);
    mismatches raise :class:`ConfigError`.
    """
    if not configs:
        return []
    _check_grid_config(configs, counts)
    obs_metrics.get_metrics().counter(
        obs_metrics.FOLD_MANY_CONFIGS).add(len(configs))
    with get_tracer().span("fold_many", algorithm=run.algorithm,
                           graph=workload.name, configs=len(configs)):
        fold = _fold_kernel(run, [counts], workload, configs)
    return fold.reports


class _Traffic(NamedTuple):
    """Per-config energy (J) and latency (s) of the memory traffic."""

    stream_en: np.ndarray
    stream_lat: np.ndarray
    load_en: np.ndarray
    load_lat: np.ndarray
    store_en: np.ndarray
    store_lat: np.ndarray
    rnd_r_en: np.ndarray
    rnd_r_lat: np.ndarray
    rnd_w_en: np.ndarray
    rnd_w_lat: np.ndarray


def _traffic(
    counts: ScheduleCounts,
    edge: np.ndarray,
    vertex: np.ndarray,
    hit: np.ndarray,
) -> _Traffic:
    """Price the edge stream and the off-chip vertex traffic from the
    edge and vertex cost matrices (one row per config)."""
    e_acc = counts.edge_stream_bits / edge[:, _ABITS]
    load_acc = counts.offchip_load_bits / vertex[:, _ABITS]
    store_acc = counts.offchip_store_bits / vertex[:, _ABITS]

    # Machines without a scratchpad follow the same interval schedule,
    # so their "random" vertex accesses land inside the active interval
    # region: they hit open rows at region_hit_rate and move only a
    # narrow burst (one 64-bit beat-pair), not the full 512-bit
    # streaming access.  A hit pays the data-movement share of a
    # sequential access; a miss adds the activation premium.
    narrow = 64.0 / vertex[:, _ABITS]
    hit_en_r = vertex[:, _SR_EN] * narrow
    miss_en_r = hit_en_r + np.maximum(
        0.0, vertex[:, _RR_EN] - vertex[:, _SR_EN]
    )
    hit_en_w = vertex[:, _SW_EN] * narrow
    miss_en_w = hit_en_w + np.maximum(
        0.0, vertex[:, _RW_EN] - vertex[:, _SW_EN]
    )
    return _Traffic(
        stream_en=edge[:, _SR_EN] * e_acc,
        stream_lat=edge[:, _SR_LAT] * e_acc,
        load_en=vertex[:, _SR_EN] * load_acc,
        load_lat=vertex[:, _SR_LAT] * load_acc,
        store_en=vertex[:, _SW_EN] * store_acc,
        store_lat=vertex[:, _SW_LAT] * store_acc,
        rnd_r_en=hit * hit_en_r + (1.0 - hit) * miss_en_r,
        rnd_r_lat=(
            hit * vertex[:, _SR_LAT] + (1.0 - hit) * vertex[:, _RR_LAT]
        ),
        rnd_w_en=hit * hit_en_w + (1.0 - hit) * miss_en_w,
        rnd_w_lat=(
            hit * vertex[:, _SW_LAT] + (1.0 - hit) * vertex[:, _RW_LAT]
        ),
    )


def _gating(
    configs: list[HyVEConfig],
    edge_devices: list,
    edge_rows: np.ndarray,
    edge_chips: np.ndarray,
    streamed_bits: float,
    duration: np.ndarray,
) -> GatingColumns:
    """Bank power gating of every ReRAM edge memory whose policy enables
    it (Section 4.1); every other row is all-zeros."""
    out = GatingColumns(*(np.zeros(len(configs), dtype)
                          for dtype in (float, np.int64, float, float)))
    reram = [isinstance(d, ReRAMConfig) for d in edge_devices]
    gated = [i for i, (c, row) in enumerate(zip(configs, edge_rows.tolist()))
             if reram[row] and c.power_gating.enabled]
    if not gated:
        return out
    policies, rows = _distinct([configs[i].power_gating for i in gated])
    gated = np.array(gated)
    policy = np.array([(True, p.idle_timeout, p.wake_latency, p.wake_energy)
                       for p in policies])[rows].T
    # (banks per chip, banks a stream keeps active, bank capacity).
    banks = np.array([
        (d.num_banks, 1 if d.subbank_interleaving else d.num_banks,
         d.bank_capacity_bits) if is_reram else (0, 0, 0)
        for d, is_reram in zip(edge_devices, reram)
    ], dtype=np.int64)[edge_rows[gated]].T
    planned = plan_columns(
        tuple(policy), edge_chips[gated] * banks[0], banks[1],
        np.full(duration.shape, streamed_bits)[gated],
        banks[2], duration[gated],
    )
    for column, values in zip(out, planned):
        column[gated] = values
    return out


def _fold_kernel(
    run: AlgorithmRun,
    table: list[ScheduleCounts],
    workload: Workload,
    configs: list[HyVEConfig],
    secded: bool = False,
    group: np.ndarray | None = None,
) -> GridFold:
    """The one HyVE pricing kernel (Equations (1)-(2), Fig. 8).

    Columnar: each distinct device object of the grid is resolved once
    into a small table the configs index, and every term is a NumPy
    float64 pass over the grid in the scalar model's operation order, so
    each config's floats are bit-identical to pricing it alone.  The
    returned :class:`GridFold` keeps the columns and assembles reports
    on demand (all of them here only when tracing, whose attribution
    events follow configs order).  ``table`` holds one
    :class:`ScheduleCounts` per counts group and ``group`` each config's
    row in it (default: all ``table[0]``); the counts become per-config
    columns, so configs of any schedule, with or without a scratchpad,
    share one pass.  ``secded`` prices every config of the grid with
    SECDED protection (see :class:`AcceleratorMachine`).
    """
    n = len(configs)
    group = np.zeros(n, np.intp) if group is None else group
    row_counts = [table[g] for g in group.tolist()]
    counts = table[0]  # a one-group table keeps its scalars
    if len(table) > 1:  # columns gathered from a (groups x fields) table
        fields = [list(vars(c).values()) for c in table]  # in field order
        counts = ScheduleCounts(*(
            column.astype(np.int64) if isinstance(value, int) else column
            for column, value in zip(np.array(fields)[group].T, fields[0])))
    onchip = np.array([c.has_onchip for c in configs])
    edge_footprint = (
        counts.edges_total / counts.iterations
    ) * counts.edge_bits * FOOTPRINT_SLACK
    vertex_footprint = counts.vertices * counts.vertex_bits * FOOTPRINT_SLACK

    # --- gather: device tables indexed per config -----------------------
    edge_devices, edge_rows, edge_costs, edge_chips = _level(
        configs, "edge_memory", edge_footprint, MIN_EDGE_CHIPS_PER_RANK,
        secded)
    _, _, vertex_costs, vertex_chips = _level(
        configs, "offchip_vertex", vertex_footprint, MIN_VERTEX_CHIPS, secded)
    hit = np.array([c.region_hit_rate for c in configs], dtype=np.float64)
    mlp = np.array([c.random_access_mlp for c in configs])
    # Without a scratchpad the PUs are bound by main-memory requests and
    # the on-chip terms price a zero-cost SRAM row, an exact 0.0.
    sram_cycle = edge_costs[:, _RR_LAT] / mlp
    if any_onchip := onchip.any():
        sizes, rows = _distinct([c.sram_bits if c.has_onchip else None
                                 for c in configs])
        sram = np.array([(1.0, 0.0, 0.0, 1.0, 0.0, 0.0) if bits is None
                         else _shared_sram(bits)[1] for bits in sizes])[rows]
        s_cycle, s_r_en, s_w_en, s_abits, *sram_power = sram.T
        sram_cycle = np.where(onchip, s_cycle, sram_cycle)
    pu = ProcessingUnitModel(sram_cycle=sram_cycle)
    mlp = np.minimum(mlp, counts.num_pus).astype(np.float64)

    # --- dynamic energy and busy time -----------------------------------
    t = _traffic(counts, edge_costs, vertex_costs, hit)
    seek_extra = counts.block_seeks * np.maximum(
        0.0, edge_costs[:, _RR_LAT] - edge_costs[:, _SR_LAT]
    )
    router = RouterModel(counts.num_pus)
    requests = (
        counts.edge_stream_bits / edge_costs[:, _ABITS]
        + counts.offchip_bits / vertex_costs[:, _ABITS]
        + counts.random_read_ops
        + counts.random_write_ops
    )
    t_stream = t.stream_lat + seek_extra
    t_proc = (counts.pu_ops * pu.initiation_interval * counts.imbalance
              / counts.num_pus)
    t_random = np.where(
        (counts.random_read_ops != 0) | (counts.random_write_ops != 0),
        (counts.random_read_ops * t.rnd_r_lat
         + counts.random_write_ops * t.rnd_w_lat) / mlp, 0.0)
    sharing = np.array([c.data_sharing for c in configs])
    t_step = counts.steps_total * (
        params.SYNC_LATENCY + pu.pipeline_fill()
    ) + router.fill_latency(np.where(sharing, counts.steps_total, 0.0))
    t_schedule = t.load_lat + t.store_lat
    duration = (
        np.maximum(np.maximum(t_stream, t_proc), t_random) + t_step
    ) + t_schedule

    # --- BPG, background integration and the component columns ---------
    gating = _gating(configs, edge_devices, edge_rows, edge_chips,
                     counts.edge_stream_bits, duration)
    duration = duration + gating.overhead_time
    edge_bg = background_energy(*edge_costs[:, _STANDBY:].T, duration,
                                gating.gated_fraction, rpt.EDGE_MEMORY_BG)
    vertex_bg = background_energy(*vertex_costs[:, _STANDBY:].T, duration,
                                  part=rpt.OFFCHIP_VERTEX_BG)
    energy = {
        rpt.EDGE_MEMORY: t.stream_en,
        rpt.OFFCHIP_VERTEX: (
            t.load_en
            + t.store_en
            + counts.random_read_ops * t.rnd_r_en
            + counts.random_write_ops * t.rnd_w_en
        ),
    }
    if any_onchip:
        onchip_en = (
            (counts.onchip_read_bits / s_abits) * s_r_en
            + (counts.onchip_write_bits / s_abits) * s_w_en
        )
        if secded:  # check bits widen every access, plus the codec
            onchip_en = np.where(onchip, onchip_en + (
                onchip_en * (secded_factor() - 1.0) + secded_logic_energy(
                    counts.onchip_read_bits + counts.onchip_write_bits)
            ), onchip_en)
        energy[rpt.ONCHIP_VERTEX] = onchip_en
    energy[rpt.PROCESSING] = counts.pu_ops * (
        pu.op_energy(run.algorithm) + params.PIPELINE_ENERGY_PER_EDGE
    )
    energy[rpt.ROUTER] = router.transfer_energy(
        counts.router_words
    ) + router.reroute_energy(counts.reroute_events)
    energy[rpt.CONTROLLER] = requests * params.CONTROLLER_REQUEST_ENERGY
    energy[rpt.EDGE_MEMORY_BG] = edge_chips * edge_bg
    energy[rpt.OFFCHIP_VERTEX_BG] = vertex_chips * vertex_bg
    if any_onchip:
        sram_bg = counts.num_pus * background_energy(
            *sram_power, duration, part=rpt.ONCHIP_VERTEX_BG
        )
        energy[rpt.ONCHIP_VERTEX_BG] = (
            np.where(onchip, sram_bg * secded_factor(), sram_bg) if secded
            else sram_bg)
    energy[rpt.LOGIC_BG] = (
        counts.num_pus * params.PU_LEAKAGE
        + router.leakage_power
        + params.CONTROLLER_POWER
    ) * duration

    # One (component x config) matrix, in the reports' insertion order.
    components = list(energy)
    joules = np.empty((len(components), n))
    for row, values in zip(joules, energy.values()):
        row[:] = values  # a scalar term broadcasts over the grid
    negative = joules < 0
    if np.count_nonzero(negative):  # EnergyReport.add's check
        k = int(np.flatnonzero(negative.any(axis=1))[0])
        raise ConfigError(f"negative energy for {components[k]}: "
                          f"{joules[k][negative[k]][0]}")
    joules[0] += gating.overhead_energy  # rpt.EDGE_MEMORY comes first
    # EnergyReport.total_energy sums the same values in the same order.
    fold = GridFold(configs, row_counts, run.algorithm, workload.name,
                    onchip.tolist(), components, joules, duration,
                    sum(joules))
    metrics = obs_metrics.get_metrics()
    for group_counts, times in zip(table, np.bincount(group).tolist()):
        metrics.counter(obs_metrics.EDGES_STREAMED).add(
            group_counts.edges_total, times)
        metrics.counter(obs_metrics.ROUTER_ROTATIONS).add(
            group_counts.reroute_events, times)
    # Integer wake counts sum exactly, in any order.
    metrics.counter(obs_metrics.BPG_BANK_WAKES).add(
        int(gating.transitions.sum())
    )
    tracer = get_tracer()
    if tracer.enabled:
        # The processing phase is the max of three overlapped services;
        # attribute it to whichever dominated, so phase times sum exactly
        # to the report's modelled time.
        from ..obs.attribution import emit_report

        for report, ts, tp, trv, step, schedule, gate_time, wakes in zip(
            fold.reports, t_stream.tolist(), t_proc.tolist(),
            t_random.tolist(), t_step.tolist(), t_schedule.tolist(),
            gating.overhead_time.tolist(), gating.transitions.tolist(),
        ):
            phase_times = {p: 0.0 for p in
                           ("stream", "process", "schedule", "gating")}
            if ts >= tp and ts >= trv:
                phase_times["stream"] += ts
            elif tp >= trv:
                phase_times["process"] += tp
            else:
                phase_times["schedule"] += trv
            phase_times["process"] += step
            phase_times["schedule"] += schedule
            phase_times["gating"] += gate_time
            emit_report(tracer, report, phase_times, detail={
                "t_stream": ts,
                "t_compute": tp,
                "t_random_vertex": trv,
                "t_step_overheads": step,
                "bank_wake_transitions": wakes,
            })
    return fold


def make_machine(name: str) -> AcceleratorMachine:
    """Instantiate an accelerator machine by its Fig. 16 label."""
    from .config import NAMED_CONFIGS

    if name not in NAMED_CONFIGS:
        known = ", ".join(NAMED_CONFIGS)
        raise ConfigError(f"unknown machine {name!r}; known: {known}")
    return AcceleratorMachine(NAMED_CONFIGS[name]())


def fold_time_slices(slices) -> EnergyReport:
    """Time-sliced energy attribution over an evolving graph.

    ``slices`` is a sequence of ``(start, end, report)`` spans — e.g.
    :class:`repro.dynamic.temporal.TimeSlice` — where ``report`` priced
    the snapshot alive over the half-open logical interval
    ``[start, end)``.  Each span contributes its per-run quantities
    weighted by its width in logical ticks (a snapshot that stayed
    live three times as long is attributed three times the energy and
    busy time), and the weighted spans add into one aggregate
    :class:`EnergyReport` labelled with the covered window.

    Spans must be non-empty, share one machine and algorithm, and be
    sorted and non-overlapping; violations raise
    :class:`ConfigError`.
    """
    spans = [
        (s.start, s.end, s.report) if hasattr(s, "report") else tuple(s)
        for s in slices
    ]
    if not spans:
        raise ConfigError("fold_time_slices needs at least one slice")
    prev_end = None
    for start, end, _ in spans:
        if end <= start:
            raise ConfigError(f"empty time slice [{start}, {end})")
        if prev_end is not None and start < prev_end:
            raise ConfigError(
                f"time slices overlap at t={start} (previous span ends "
                f"at {prev_end})"
            )
        prev_end = end
    head = spans[0][2]
    total = EnergyReport(
        machine=head.machine,
        algorithm=head.algorithm,
        graph=f"{head.graph}[t{spans[0][0]}:t{spans[-1][1]}]",
        edges_traversed=0.0,
        iterations=0,
        time=0.0,
    )
    for start, end, report in spans:
        if (report.machine, report.algorithm) != (head.machine,
                                                  head.algorithm):
            raise ConfigError(
                f"cannot fold {report.machine}/{report.algorithm} into "
                f"{head.machine}/{head.algorithm} time slices"
            )
        width = end - start
        total.edges_traversed += width * report.edges_traversed
        total.iterations += width * report.iterations
        total.time += width * report.time
        for component, joules in report.energy.items():
            total.add(component, width * joules)
    return total
