"""Workload and machine configuration (Section 3 + Section 7.1 setup).

Two scale-related concepts live here:

* :class:`Workload` pairs a (possibly scaled-down synthetic) graph with
  the *reported* size of the dataset it stands in for.  Algorithms run
  on the synthetic graph (iteration counts, block statistics); traffic
  and energy are extrapolated linearly to the reported size, so the
  machine models operate at the paper's scale with nominal device
  capacities (2-16 MB SRAM, 4-16 Gb chips).
* :class:`HyVEConfig` fixes the machine: 8 PUs, per-PU on-chip SRAM, the
  memory technology of each level, data sharing, power gating.
  :func:`choose_num_intervals` derives the partition count P the way
  the paper does ("different partition numbers are used to fit into the
  SRAM"): the smallest multiple of N such that a source and a
  destination interval fit in each PU's scratchpad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from ..errors import ConfigError
from ..graph.datasets import DATASETS
from ..graph.graph import Graph
from ..memory.dram import DRAMConfig
from ..memory.powergate import PowerGatingPolicy
from ..memory.reram import ReRAMConfig
from ..units import MB


@dataclass(frozen=True)
class Workload:
    """A graph plus the scale at which results are reported.

    ``reported_vertices``/``reported_edges`` default to the graph's own
    size (scale factor 1); dataset workloads report at the paper's
    original size.
    """

    graph: Graph
    reported_vertices: int | None = None
    reported_edges: int | None = None

    def __post_init__(self) -> None:
        if self.reported_vertices is not None and self.reported_vertices <= 0:
            raise ConfigError("reported vertex count must be positive")
        if self.reported_edges is not None and self.reported_edges <= 0:
            raise ConfigError("reported edge count must be positive")

    @classmethod
    def from_dataset(cls, key: str) -> "Workload":
        from ..graph.datasets import load

        spec = DATASETS[key.upper()]
        return cls(
            graph=load(key),
            reported_vertices=spec.paper_vertices,
            reported_edges=spec.paper_edges,
        )

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def vertex_scale(self) -> float:
        """Multiplier from synthetic to reported vertex counts."""
        if self.reported_vertices is None or self.graph.num_vertices == 0:
            return 1.0
        return self.reported_vertices / self.graph.num_vertices

    @property
    def edge_scale(self) -> float:
        """Multiplier from synthetic to reported edge counts."""
        if self.reported_edges is None or self.graph.num_edges == 0:
            return 1.0
        return self.reported_edges / self.graph.num_edges


class MemoryTechnology:
    """String constants for level technologies."""

    RERAM = "reram"
    DRAM = "dram"
    SRAM = "sram"
    NONE = "none"


@dataclass(frozen=True)
class HyVEConfig:
    """Full machine configuration.

    The default values reproduce the paper's optimised design
    (acc+HyVE-opt): 8 PUs, 2 MB SRAM per PU, ReRAM edge memory with
    sub-bank interleaving and BPG, DRAM off-chip vertex memory, data
    sharing on.
    """

    label: str = "acc+HyVE-opt"
    num_pus: int = 8
    sram_bits: int = 2 * MB                    # per-PU scratchpad
    onchip_vertex: str = MemoryTechnology.SRAM  # "sram" or "none"
    edge_memory: str = MemoryTechnology.RERAM   # "reram" or "dram"
    offchip_vertex: str = MemoryTechnology.DRAM
    data_sharing: bool = True
    power_gating: PowerGatingPolicy = field(
        default_factory=PowerGatingPolicy
    )
    reram: ReRAMConfig = field(default_factory=ReRAMConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    #: Memory-level parallelism assumed when PUs bypass the scratchpad
    #: and issue random requests straight at main memory (acc+DRAM,
    #: acc+ReRAM baselines).
    random_access_mlp: int = 8
    #: Row-buffer/region hit rate of those direct vertex accesses: the
    #: schedule still confines them to the active interval region, so a
    #: large fraction hits open rows.
    region_hit_rate: float = 0.85
    #: Explicit partition count override (None: derived from the SRAM
    #: capacity).  Must be a positive multiple of ``num_pus``.
    num_intervals: int | None = None
    #: Hash-based vertex placement (ForeGraph/GraphH, Section 4.3):
    #: balances per-PU edge counts within each super-block step.
    hash_placement: bool = True

    def __post_init__(self) -> None:
        if self.num_pus <= 0:
            raise ConfigError(f"need at least one PU, got {self.num_pus}")
        if self.sram_bits <= 0:
            raise ConfigError(f"SRAM capacity must be positive: {self.sram_bits}")
        if self.edge_memory not in (MemoryTechnology.RERAM,
                                    MemoryTechnology.DRAM):
            raise ConfigError(f"unsupported edge memory {self.edge_memory!r}")
        if self.offchip_vertex not in (MemoryTechnology.RERAM,
                                       MemoryTechnology.DRAM):
            raise ConfigError(
                f"unsupported off-chip vertex memory {self.offchip_vertex!r}"
            )
        if self.onchip_vertex not in (MemoryTechnology.SRAM,
                                      MemoryTechnology.NONE):
            raise ConfigError(
                f"unsupported on-chip vertex memory {self.onchip_vertex!r}"
            )
        if self.data_sharing and self.onchip_vertex == MemoryTechnology.NONE:
            raise ConfigError(
                "data sharing requires an on-chip vertex memory"
            )
        if not 0.0 <= self.region_hit_rate <= 1.0:
            raise ConfigError(
                f"region hit rate must be in [0, 1]: {self.region_hit_rate}"
            )
        if self.num_intervals is not None:
            if self.num_intervals <= 0 or self.num_intervals % self.num_pus:
                raise ConfigError(
                    f"num_intervals ({self.num_intervals}) must be a "
                    f"positive multiple of num_pus ({self.num_pus})"
                )

    @property
    def has_onchip(self) -> bool:
        return self.onchip_vertex == MemoryTechnology.SRAM

    @property
    def partition_shape(self) -> tuple:
        """The knobs that fix the partition count P
        (:func:`choose_num_intervals`)."""
        return (self.num_pus, self.num_intervals, self.sram_bits,
                self.onchip_vertex)

    @property
    def schedule_shape(self) -> tuple:
        """The knobs that, with the run and workload, fix the schedule
        (Equations (3)-(8)): :attr:`partition_shape` plus the
        :data:`SCHEDULE_FLAGS`.  Configs of equal shape share one
        :class:`~repro.arch.scheduler.ScheduleCounts`."""
        return self.partition_shape + _schedule_flags(self)

    def renamed(self, label: str) -> "HyVEConfig":
        return replace(self, label=label)


#: The flags that change the schedule at a fixed partition count, each
#: with its tag in a counts key (:func:`repro.perf.batch.counts_cache_key`).
SCHEDULE_FLAGS = {"has_onchip": "oc", "data_sharing": "ds",
                  "hash_placement": "hp"}
_schedule_flags = attrgetter(*SCHEDULE_FLAGS)


def choose_num_intervals(
    config: HyVEConfig, num_vertices: float, vertex_bits: int
) -> int:
    """Partition count P for a graph of ``num_vertices`` (reported scale).

    Each PU's scratchpad holds one source and one destination interval
    (plus two header words each, negligible), so
    ``2 * ceil(Nv / P) * vertex_bits <= sram_bits``.  P is rounded up to
    a multiple of N (super-block scheduling) and is at least N.
    """
    if num_vertices <= 0:
        raise ConfigError(f"vertex count must be positive: {num_vertices}")
    if vertex_bits <= 0:
        raise ConfigError(f"vertex width must be positive: {vertex_bits}")
    n = config.num_pus
    if config.num_intervals is not None:
        return config.num_intervals
    if not config.has_onchip:
        # No scratchpad: partitioning only sequences the stream.
        return n
    min_p = math.ceil(2.0 * num_vertices * vertex_bits / config.sram_bits)
    p = max(n, math.ceil(min_p / n) * n)
    return p


# --- named configurations of the evaluation (Fig. 16) -----------------------

def config_hyve_opt() -> HyVEConfig:
    """acc+HyVE-opt: hybrid hierarchy + data sharing + power gating."""
    return HyVEConfig()


def config_hyve() -> HyVEConfig:
    """acc+HyVE: hybrid hierarchy, no power gating.

    Fig. 16's accelerator configurations all use the same data
    scheduling ("The data scheduling in these four configurations is
    the same"), so data sharing stays on; acc+HyVE-opt adds the
    BPG scheme on top.  The sharing ablation of Fig. 14 builds its own
    explicit configurations instead of using these names.
    """
    return HyVEConfig(
        label="acc+HyVE",
        power_gating=PowerGatingPolicy(enabled=False),
    )


def config_sram_dram() -> HyVEConfig:
    """acc+SRAM+DRAM (SD): conventional hierarchy, edges in DRAM."""
    return HyVEConfig(
        label="acc+SRAM+DRAM",
        edge_memory=MemoryTechnology.DRAM,
        power_gating=PowerGatingPolicy(enabled=False),
    )


def config_dram_only() -> HyVEConfig:
    """acc+DRAM: no scratchpad, vertices randomly accessed in DRAM."""
    return HyVEConfig(
        label="acc+DRAM",
        onchip_vertex=MemoryTechnology.NONE,
        edge_memory=MemoryTechnology.DRAM,
        offchip_vertex=MemoryTechnology.DRAM,
        data_sharing=False,
        power_gating=PowerGatingPolicy(enabled=False),
    )


def config_reram_only() -> HyVEConfig:
    """acc+ReRAM: DRAM naively swapped for ReRAM everywhere."""
    return HyVEConfig(
        label="acc+ReRAM",
        onchip_vertex=MemoryTechnology.NONE,
        edge_memory=MemoryTechnology.RERAM,
        offchip_vertex=MemoryTechnology.RERAM,
        data_sharing=False,
        power_gating=PowerGatingPolicy(enabled=False),
    )


NAMED_CONFIGS = {
    "acc+HyVE-opt": config_hyve_opt,
    "acc+HyVE": config_hyve,
    "acc+SRAM+DRAM": config_sram_dram,
    "acc+DRAM": config_dram_only,
    "acc+ReRAM": config_reram_only,
}
