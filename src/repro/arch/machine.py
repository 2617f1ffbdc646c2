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

All pricing goes through one kernel.  Each device contributes a
per-action unit-cost table; a grid of configs gathers those rows into a
cost matrix, the dynamic-energy and busy-time terms are NumPy array
passes over it, and a per-config tail plans bank power gating,
integrates background power and assembles the report.
:func:`fold_many` prices a grid against one schedule;
:meth:`AcceleratorMachine.run` prices its single config through the
same kernel.  A fault profile is a per-config overlay inside the kernel
(SECDED cost tables, write-verify rounds, bank sparing), not a
separate path.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.profile import FaultProfile
from ..faults.resilience import (
    BankSparingPlan,
    FaultReport,
    WRITE_RETRY_BOUND,
    expected_write_rounds,
    write_give_up_probability,
)
from ..graph.graph import Graph
from ..memory.base import AccessKind, AccessPattern, MemoryDevice
from ..memory.dram import DDR4Chip, DRAMConfig
from ..memory.ecc import SECDEDDevice, secded_factor, secded_logic_energy
from ..memory.powergate import BankPowerGating, GatingReport
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
    """Report plus the algorithm's actual output values.

    ``faults`` carries the injected-fault tally when the machine was
    built with a non-zero :class:`FaultProfile`; it is ``None`` on the
    (bit-identical) ideal-device path.
    """

    report: EnergyReport
    run: AlgorithmRun
    faults: FaultReport | None = None

    @property
    def values(self):
        return self.run.values


class AcceleratorMachine:
    """A graph-processing accelerator with a configurable hierarchy.

    ``faults`` selects a fault profile (see :mod:`repro.faults`); with
    ``None`` or an all-zero profile the machine is exactly the paper's
    ideal-device model — every report is bit-identical to a machine
    built without the argument.
    """

    def __init__(
        self,
        config: HyVEConfig | None = None,
        faults: FaultProfile | None = None,
    ) -> None:
        self.config = config or HyVEConfig()
        self.faults = faults

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
                [(report, fault_report)] = _fold_kernel(
                    run, counts, workload, [self.config], self.faults
                )
        return SimulationResult(report=report, run=run, faults=fault_report)

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
#: and energy, then the native access width.
(_SR_LAT, _SR_EN, _SW_LAT, _SW_EN,
 _RR_LAT, _RR_EN, _RW_LAT, _RW_EN, _ABITS) = range(9)


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
            float(device.access_bits))


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
    """(sram, (cycle, read_energy, write_energy, access_bits))."""
    def build():
        sram = OnChipSRAM(capacity_bits)
        read = sram.access_cost(AccessKind.READ, AccessPattern.RANDOM)
        write = sram.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)
        return sram, (sram.point.read_latency, read.energy, write.energy,
                      float(sram.access_bits))

    return _memoized(_SRAM_MEMO, capacity_bits, build)


def _provision(
    config: HyVEConfig, tech: str, footprint_bits: float, min_chips: int
) -> tuple[ReRAMConfig | DRAMConfig, int]:
    """(device config, chip count) holding ``footprint_bits`` in a level
    built from ``tech`` (anything but ReRAM is commodity DRAM)."""
    device = config.reram if tech == MemoryTechnology.RERAM else config.dram
    chips = max(min_chips, math.ceil(footprint_bits / device.density_bits))
    return device, chips


# --- fault overlay ----------------------------------------------------------

@dataclass
class _FaultOverlay:
    """One config's injected faults, as edits to the kernel's inputs.

    SECDED-protected levels gather their unit costs from the wrapped
    device, write-verify rounds scale the vertex writes, and bank
    sparing grows the edge chip count and feeds BPG planning.
    :meth:`settle` charges what these cost over the ideal devices.
    """

    injector: FaultInjector
    report: FaultReport
    raw_edge: MemoryDevice
    raw_vertex: MemoryDevice
    sparing: BankSparingPlan | None = None
    edge_ecc: bool = False
    vertex_ecc: bool = False
    sram_ecc: float = 1.0
    #: Expected program rounds per vertex write (1.0 unless the vertex
    #: memory is ReRAM).
    write_rounds: float = 1.0

    @classmethod
    def build(
        cls,
        profile: FaultProfile,
        cfg: HyVEConfig,
        tag: str,
        edge_footprint: float,
        edge_chips: int,
        raw_edge: MemoryDevice,
        raw_vertex: MemoryDevice,
    ) -> tuple["_FaultOverlay", int]:
        """Draw the config's boot-time faults; returns the overlay and the
        (possibly spared-up) edge chip count."""
        injector = FaultInjector(profile, tag=tag)
        report = FaultReport(profile)
        word_stats = injector.stuck_word_stats()
        report.corrected_word_fraction = word_stats.correctable_fraction
        report.remapped_word_fraction = word_stats.uncorrectable_fraction
        overlay = cls(injector, report, raw_edge, raw_vertex)
        if cfg.edge_memory == MemoryTechnology.RERAM:
            failed = injector.sample_failed_banks(
                edge_chips * cfg.reram.num_banks
            )
            overlay.sparing, edge_chips = BankSparingPlan.build(
                footprint_bits=edge_footprint,
                chips=edge_chips,
                banks_per_chip=cfg.reram.num_banks,
                bank_capacity_bits=cfg.reram.bank_capacity_bits,
                density_bits=cfg.reram.density_bits,
                failed_banks=failed,
                bad_word_fraction=word_stats.uncorrectable_fraction,
            )
            report.failed_banks = failed
            report.spare_chips = overlay.sparing.spare_chips
            report.capacity_loss_fraction = (
                overlay.sparing.capacity_loss_fraction
            )
            report.stuck_cells = injector.sample_stuck_cells(
                edge_chips * cfg.reram.density_bits
            )
        ecc = {
            MemoryTechnology.RERAM: (profile.effective_stuck_rate > 0
                                     or profile.bank_failure_rate > 0),
            MemoryTechnology.DRAM: profile.dram_upset_rate > 0,
        }
        overlay.edge_ecc = ecc.get(cfg.edge_memory, False)
        overlay.vertex_ecc = ecc.get(cfg.offchip_vertex, False)
        if cfg.has_onchip and profile.sram_upset_rate > 0:
            overlay.sram_ecc = secded_factor()
        if profile.reram_write_fail_rate > 0:
            rounds = expected_write_rounds(
                profile.reram_write_fail_rate, WRITE_RETRY_BOUND
            )
            report.expected_write_rounds = rounds
            report.write_give_up_probability = write_give_up_probability(
                profile.reram_write_fail_rate, WRITE_RETRY_BOUND
            )
            if cfg.offchip_vertex == MemoryTechnology.RERAM:
                overlay.write_rounds = rounds
        return overlay, edge_chips

    def settle(
        self,
        cfg: HyVEConfig,
        counts: ScheduleCounts,
        resil_energy: float,
        duration: float,
        gating: GatingReport,
        edge: tuple[MemoryDevice, int],
        vertex: tuple[MemoryDevice, int],
    ) -> FaultReport:
        """Add the background-power share of the resilience energy, draw
        the run's transient upsets, and close the fault report."""
        (edge_dev, edge_chips), (vertex_dev, vertex_chips) = edge, vertex
        gated = gating.gated_fraction
        if self.edge_ecc:
            resil_energy += edge_chips * (
                edge_dev.background_energy(duration, gated)
                - self.raw_edge.background_energy(duration, gated)
            )
        if self.vertex_ecc:
            resil_energy += vertex_chips * (
                vertex_dev.background_energy(duration)
                - self.raw_vertex.background_energy(duration)
            )
        if self.sparing is not None and self.sparing.spare_chips:
            resil_energy += self.sparing.spare_chips * (
                self.raw_edge.background_energy(duration, gated)
            )
        injector, upset = self.injector, self.injector.profile
        dram_bits = 0.0
        if cfg.offchip_vertex == MemoryTechnology.DRAM:
            dram_bits += counts.offchip_bits
        if cfg.edge_memory == MemoryTechnology.DRAM:
            dram_bits += counts.edge_stream_bits
        flips = injector.sample_transient_flips(
            dram_bits, upset.dram_upset_rate
        )
        uncorrectable = injector.uncorrectable_flip_count(
            dram_bits, upset.dram_upset_rate
        )
        if cfg.has_onchip:
            sram_bits = counts.onchip_read_bits + counts.onchip_write_bits
            flips += injector.sample_transient_flips(
                sram_bits, upset.sram_upset_rate
            )
            uncorrectable += injector.uncorrectable_flip_count(
                sram_bits, upset.sram_upset_rate
            )
        self.report.transient_flips_corrected = flips
        self.report.transient_flips_uncorrectable = uncorrectable
        self.report.add_energy(resil_energy)
        return self.report


# --- the pricing kernel -----------------------------------------------------

def _check_grid_config(
    config: HyVEConfig, head: HyVEConfig, counts: ScheduleCounts
) -> None:
    """Reject a config whose schedule would differ from ``counts``.

    Every mismatched knob is collected before raising, so a tuner
    debugging a wide grid sees the whole shape of the problem in one
    :class:`ConfigError` instead of peeling mismatches off one by one.
    """
    from .config import choose_num_intervals

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
    for flag in ("has_onchip", "data_sharing", "hash_placement"):
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
    return [report for report, _ in fold_grid(run, counts, workload,
                                              configs)]


def fold_grid(
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    configs: list[HyVEConfig],
    faults: FaultProfile | None = None,
) -> list[tuple[EnergyReport, FaultReport | None]]:
    """:func:`fold_many` under an optional fault profile.

    Returns ``(report, fault report)`` per config, bit-identical to
    ``AcceleratorMachine(configs[i], faults=faults).run(...)``; the
    fault report is ``None`` without an active profile.
    """
    if not configs:
        return []
    head = configs[0]
    for config in configs:
        _check_grid_config(config, head, counts)
    metrics = obs_metrics.get_metrics()
    metrics.counter(obs_metrics.FOLD_MANY_CONFIGS).add(len(configs))
    with get_tracer().span(
        "fold_many",
        algorithm=run.algorithm,
        graph=workload.name,
        configs=len(configs),
    ):
        return _fold_kernel(run, counts, workload, configs, faults)


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
    write_rounds: np.ndarray | None = None,
) -> _Traffic:
    """Price the edge stream and the off-chip vertex traffic from the
    edge and vertex cost matrices (one row per config).

    ``write_rounds`` multiplies the vertex writes after their transfer
    and narrow-burst terms (write-verify retries).
    """
    e_acc = counts.edge_stream_bits / edge[:, _ABITS]
    load_acc = counts.offchip_load_bits / vertex[:, _ABITS]
    store_acc = counts.offchip_store_bits / vertex[:, _ABITS]
    store_en = vertex[:, _SW_EN] * store_acc
    store_lat = vertex[:, _SW_LAT] * store_acc

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
    rnd_w_lat = hit * vertex[:, _SW_LAT] + (1.0 - hit) * vertex[:, _RW_LAT]
    rnd_w_en = hit * hit_en_w + (1.0 - hit) * miss_en_w
    if write_rounds is not None:
        store_lat = store_lat * write_rounds
        store_en = store_en * write_rounds
        rnd_w_lat = rnd_w_lat * write_rounds
        rnd_w_en = rnd_w_en * write_rounds
    return _Traffic(
        stream_en=edge[:, _SR_EN] * e_acc,
        stream_lat=edge[:, _SR_LAT] * e_acc,
        load_en=vertex[:, _SR_EN] * load_acc,
        load_lat=vertex[:, _SR_LAT] * load_acc,
        store_en=store_en,
        store_lat=store_lat,
        rnd_r_en=hit * hit_en_r + (1.0 - hit) * miss_en_r,
        rnd_r_lat=(
            hit * vertex[:, _SR_LAT] + (1.0 - hit) * vertex[:, _RR_LAT]
        ),
        rnd_w_en=rnd_w_en,
        rnd_w_lat=rnd_w_lat,
    )


def _fold_kernel(
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    configs: list[HyVEConfig],
    faults: FaultProfile | None = None,
) -> list[tuple[EnergyReport, FaultReport | None]]:
    """The one HyVE pricing kernel (Equations (1)-(2), Fig. 8).

    Gathers each config's unit-cost rows from memoized devices,
    evaluates the dynamic-energy and busy-time terms as NumPy float64
    passes over the grid, then runs the per-config tail: BPG planning,
    background integration and report assembly.  A non-zero ``faults``
    profile overlays each config (:class:`_FaultOverlay`); with none the
    overlay code never runs, so ideal reports are untouched by it.
    """
    fault_active = faults is not None and not faults.is_zero
    onchip = configs[0].has_onchip
    edge_footprint = (
        counts.edges_total / counts.iterations
    ) * counts.edge_bits * FOOTPRINT_SLACK
    vertex_footprint = counts.vertices * counts.vertex_bits * FOOTPRINT_SLACK

    # --- gather: per-config devices, chips and unit-cost rows ----------
    edges: list[tuple[MemoryDevice, int]] = []
    vertices: list[tuple[MemoryDevice, int]] = []
    srams: list[OnChipSRAM] = []
    overlays: list[_FaultOverlay | None] = [None] * len(configs)
    edge_rows: list[tuple[float, ...]] = []
    vertex_rows: list[tuple[float, ...]] = []
    raw_rows: list[tuple[tuple[float, ...], tuple[float, ...]]] = []
    knobs: list[tuple[float, ...]] = []
    for i, cfg in enumerate(configs):
        edge_cfg, edge_chips = _provision(
            cfg, cfg.edge_memory, edge_footprint, MIN_EDGE_CHIPS_PER_RANK
        )
        vertex_cfg, vertex_chips = _provision(
            cfg, cfg.offchip_vertex, vertex_footprint, MIN_VERTEX_CHIPS
        )
        edge_dev, e_costs = _shared_device(edge_cfg)
        vertex_dev, v_costs = _shared_device(vertex_cfg)
        if fault_active:
            overlay, edge_chips = _FaultOverlay.build(
                faults, cfg, f"{cfg.label}|{run.algorithm}|{workload.name}",
                edge_footprint, edge_chips, edge_dev, vertex_dev,
            )
            overlays[i] = overlay
            raw_rows.append((e_costs, v_costs))
            if overlay.edge_ecc:
                edge_dev, e_costs = _shared_device(edge_cfg, secded=True)
            if overlay.vertex_ecc:
                vertex_dev, v_costs = _shared_device(vertex_cfg, secded=True)
        edges.append((edge_dev, edge_chips))
        vertices.append((vertex_dev, vertex_chips))
        edge_rows.append(e_costs)
        vertex_rows.append(v_costs)
        if onchip:
            sram, (sram_cycle, s_r_en, s_w_en, s_abits) = _shared_sram(
                cfg.sram_bits
            )
            srams.append(sram)
        else:
            sram_cycle = e_costs[_RR_LAT] / cfg.random_access_mlp
            s_r_en = s_w_en = 0.0
            s_abits = 1.0
        pu = ProcessingUnitModel(sram_cycle=sram_cycle)
        knobs.append((cfg.region_hit_rate,
                      float(min(cfg.random_access_mlp, cfg.num_pus)),
                      pu.initiation_interval, s_r_en, s_w_en, s_abits))
    edge = np.asarray(edge_rows, dtype=np.float64)
    vertex = np.asarray(vertex_rows, dtype=np.float64)
    hit, mlp, ii, s_r_en, s_w_en, s_abits = np.asarray(
        knobs, dtype=np.float64
    ).T

    # --- vector passes: dynamic energy and busy time -------------------
    write_rounds = extra_edge = extra_vertex = None
    if fault_active:
        write_rounds = np.asarray([o.write_rounds for o in overlays])
    t = _traffic(counts, edge, vertex, hit, write_rounds)
    if fault_active:
        raw_edge, raw_vertex = (np.asarray(rows, dtype=np.float64)
                                for rows in zip(*raw_rows))
        base = _traffic(counts, raw_edge, raw_vertex, hit)
        extra_edge = t.stream_en - base.stream_en
        extra_vertex = (
            (t.load_en - base.load_en)
            + (t.store_en - base.store_en)
            + counts.random_read_ops * (t.rnd_r_en - base.rnd_r_en)
            + counts.random_write_ops * (t.rnd_w_en - base.rnd_w_en)
        )
    seek_extra = counts.block_seeks * np.maximum(
        0.0, edge[:, _RR_LAT] - edge[:, _SR_LAT]
    )
    offchip_en = (
        t.load_en
        + t.store_en
        + counts.random_read_ops * t.rnd_r_en
        + counts.random_write_ops * t.rnd_w_en
    )
    if onchip:
        onchip_en = (
            (counts.onchip_read_bits / s_abits) * s_r_en
            + (counts.onchip_write_bits / s_abits) * s_w_en
        )
    processing_en = counts.pu_ops * (
        pu.op_energy(run.algorithm) + params.PIPELINE_ENERGY_PER_EDGE
    )
    router = RouterModel(counts.num_pus)
    router_en = router.transfer_energy(
        counts.router_words
    ) + router.reroute_energy(counts.reroute_events)
    requests = (
        counts.edge_stream_bits / edge[:, _ABITS]
        + counts.offchip_bits / vertex[:, _ABITS]
        + counts.random_read_ops
        + counts.random_write_ops
    )
    controller_en = requests * params.CONTROLLER_REQUEST_ENERGY

    t_stream = t.stream_lat + seek_extra
    t_proc = counts.pu_ops * ii * counts.imbalance / counts.num_pus
    if counts.random_read_ops or counts.random_write_ops:
        t_random = (
            counts.random_read_ops * t.rnd_r_lat
            + counts.random_write_ops * t.rnd_w_lat
        ) / mlp
    else:
        t_random = np.zeros(len(configs))
    t_step = counts.steps_total * (params.SYNC_LATENCY + pu.pipeline_fill())
    if configs[0].data_sharing:
        t_step += router.fill_latency(counts.steps_total)
    t_processing_phase = (
        np.maximum(np.maximum(t_stream, t_proc), t_random) + t_step
    )
    t_schedule = t.load_lat + t.store_lat
    duration0 = t_processing_phase + t_schedule

    logic_power = (
        counts.num_pus * params.PU_LEAKAGE
        + router.leakage_power
        + params.CONTROLLER_POWER
    )

    # --- tail: per-config gating, background, report assembly ----------
    # Inherently per element (dict insertion order, BPG branch); every
    # value is narrowed to a Python float so reports round-trip through
    # repr()/JSON exactly.
    results: list[tuple[EnergyReport, FaultReport | None]] = []
    metrics = obs_metrics.get_metrics()
    edges_streamed = metrics.counter(obs_metrics.EDGES_STREAMED)
    bank_wakes = metrics.counter(obs_metrics.BPG_BANK_WAKES)
    rotations = metrics.counter(obs_metrics.ROUTER_ROTATIONS)
    tracer = get_tracer()
    for i, cfg in enumerate(configs):
        overlay = overlays[i]
        resil_energy = 0.0
        if overlay is not None:
            if overlay.edge_ecc:
                resil_energy += float(extra_edge[i])
            if overlay.vertex_ecc or overlay.write_rounds != 1.0:
                resil_energy += float(extra_vertex[i])
        report = EnergyReport(
            machine=cfg.label,
            algorithm=run.algorithm,
            graph=workload.name,
            edges_traversed=counts.edges_total,
            iterations=counts.iterations,
            time=0.0,
        )
        report.add(rpt.EDGE_MEMORY, float(t.stream_en[i]))
        report.add(rpt.OFFCHIP_VERTEX, float(offchip_en[i]))
        if onchip:
            onchip_energy = float(onchip_en[i])
            if overlay is not None and overlay.sram_ecc != 1.0:
                onchip_extra = onchip_energy * (
                    overlay.sram_ecc - 1.0
                ) + secded_logic_energy(
                    counts.onchip_read_bits + counts.onchip_write_bits
                )
                onchip_energy += onchip_extra
                resil_energy += onchip_extra
            report.add(rpt.ONCHIP_VERTEX, onchip_energy)
        report.add(rpt.PROCESSING, processing_en)
        report.add(rpt.ROUTER, router_en)
        report.add(rpt.CONTROLLER, float(controller_en[i]))

        (edge_dev, edge_chips), (vertex_dev, vertex_chips) = (
            edges[i], vertices[i]
        )
        duration = float(duration0[i])
        gating = GatingReport(0.0, 0, 0.0, 0.0)
        if (
            cfg.edge_memory == MemoryTechnology.RERAM
            and cfg.power_gating.enabled
        ):
            sparing = overlay.sparing if overlay is not None else None
            gating = BankPowerGating(cfg.power_gating).plan(
                num_banks=edge_chips * cfg.reram.num_banks,
                active_banks=(
                    1 if cfg.reram.subbank_interleaving
                    else cfg.reram.num_banks
                ),
                streamed_bits=counts.edge_stream_bits,
                bank_capacity_bits=cfg.reram.bank_capacity_bits,
                duration=duration,
                failed_banks=sparing.failed_banks if sparing else 0,
                transition_factor=(
                    sparing.transition_factor if sparing else 1.0
                ),
            )
            duration += gating.overhead_time
            report.add(rpt.EDGE_MEMORY, gating.overhead_energy)
        report.time = duration

        report.add(
            rpt.EDGE_MEMORY_BG,
            edge_chips
            * edge_dev.background_energy(duration, gating.gated_fraction),
        )
        report.add(
            rpt.OFFCHIP_VERTEX_BG,
            vertex_chips * vertex_dev.background_energy(duration),
        )
        if onchip:
            sram_bg = cfg.num_pus * srams[i].background_energy(duration)
            if overlay is not None and overlay.sram_ecc != 1.0:
                resil_energy += sram_bg * (overlay.sram_ecc - 1.0)
                sram_bg *= overlay.sram_ecc
            report.add(rpt.ONCHIP_VERTEX_BG, sram_bg)
        report.add(rpt.LOGIC_BG, logic_power * duration)
        fault_report = None
        if overlay is not None:
            fault_report = overlay.settle(
                cfg, counts, resil_energy, duration, gating,
                edges[i], vertices[i],
            )

        edges_streamed.add(counts.edges_total)
        bank_wakes.add(gating.transitions)
        rotations.add(counts.reroute_events)
        if tracer.enabled:
            # The processing phase is the max of three overlapped
            # services; attribute it to whichever dominated, so phase
            # times sum exactly to the report's modelled time.
            from ..obs.attribution import emit_report

            ts, tp, trv = (
                float(t_stream[i]), float(t_proc[i]), float(t_random[i])
            )
            phase_times = {p: 0.0 for p in
                           ("stream", "process", "schedule", "gating")}
            if ts >= tp and ts >= trv:
                phase_times["stream"] += ts
            elif tp >= trv:
                phase_times["process"] += tp
            else:
                phase_times["schedule"] += trv
            phase_times["process"] += float(t_step)
            phase_times["schedule"] += float(t_schedule[i])
            phase_times["gating"] += gating.overhead_time
            emit_report(
                tracer, report, phase_times,
                detail={
                    "t_stream": ts,
                    "t_compute": tp,
                    "t_random_vertex": trv,
                    "t_step_overheads": float(t_step),
                    "bank_wake_transitions": gating.transitions,
                },
            )
        results.append((report, fault_report))
    return results


def make_machine(
    name: str, faults: FaultProfile | None = None
) -> AcceleratorMachine:
    """Instantiate an accelerator machine by its Fig. 16 label."""
    from .config import NAMED_CONFIGS

    if name not in NAMED_CONFIGS:
        known = ", ".join(NAMED_CONFIGS)
        raise ConfigError(f"unknown machine {name!r}; known: {known}")
    return AcceleratorMachine(NAMED_CONFIGS[name](), faults=faults)


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
