"""Energy/time reports produced by the machine models.

A report tallies per-component energy (dynamic and background split per
component), the modelled execution time, and the work done — enough to
regenerate every figure of the evaluation: MTEPS/W (Fig. 16, Table 4),
breakdown buckets (Fig. 17), execution-time ratios (Fig. 18) and EDP
(Fig. 21).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..units import edp, mteps_per_watt

#: Component keys.  "Vertex memory" in Fig. 17 covers both the on-chip
#: scratchpad and the off-chip vertex memory.
EDGE_MEMORY = "edge_memory"
EDGE_MEMORY_BG = "edge_memory_background"
OFFCHIP_VERTEX = "offchip_vertex"
OFFCHIP_VERTEX_BG = "offchip_vertex_background"
ONCHIP_VERTEX = "onchip_vertex"
ONCHIP_VERTEX_BG = "onchip_vertex_background"
PROCESSING = "processing_units"
ROUTER = "router"
CONTROLLER = "controller"
LOGIC_BG = "logic_background"

ALL_COMPONENTS = (
    EDGE_MEMORY,
    EDGE_MEMORY_BG,
    OFFCHIP_VERTEX,
    OFFCHIP_VERTEX_BG,
    ONCHIP_VERTEX,
    ONCHIP_VERTEX_BG,
    PROCESSING,
    ROUTER,
    CONTROLLER,
    LOGIC_BG,
)

#: Fig. 17 buckets.
BREAKDOWN_BUCKETS = {
    "Edge Memory": (EDGE_MEMORY, EDGE_MEMORY_BG),
    "Vertex Memory": (
        OFFCHIP_VERTEX,
        OFFCHIP_VERTEX_BG,
        ONCHIP_VERTEX,
        ONCHIP_VERTEX_BG,
    ),
    "Other logic units": (PROCESSING, ROUTER, CONTROLLER, LOGIC_BG),
}


@dataclass
class EnergyReport:
    """Outcome of simulating one (machine, algorithm, graph) run.

    Attributes:
        machine: machine configuration label (e.g. "acc+HyVE-opt").
        algorithm: algorithm tag ("PR", "BFS"...).
        graph: graph name.
        edges_traversed: total edges processed (iterations x edges), at
            the workload's reported scale.
        iterations: full edge sweeps executed.
        time: modelled execution time in seconds.
        energy: per-component energy in joules.
    """

    machine: str
    algorithm: str
    graph: str
    edges_traversed: float
    iterations: int
    time: float
    energy: dict[str, float] = field(default_factory=dict)

    def add(self, component: str, joules: float) -> None:
        if component not in ALL_COMPONENTS:
            raise ConfigError(f"unknown energy component {component!r}")
        if joules < 0:
            raise ConfigError(
                f"negative energy for {component}: {joules}"
            )
        self.energy[component] = self.energy.get(component, 0.0) + joules

    # --- totals -----------------------------------------------------------

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())

    @property
    def memory_energy(self) -> float:
        """Energy of the whole memory system (Fig. 17 memory share)."""
        logic = BREAKDOWN_BUCKETS["Other logic units"]
        return sum(v for k, v in self.energy.items() if k not in logic)

    @property
    def logic_energy(self) -> float:
        logic = BREAKDOWN_BUCKETS["Other logic units"]
        return sum(v for k, v in self.energy.items() if k in logic)

    @property
    def mteps_per_watt(self) -> float:
        """The paper's headline efficiency metric."""
        return mteps_per_watt(self.edges_traversed, self.time,
                              self.total_energy)

    @property
    def mteps(self) -> float:
        """Raw throughput in millions of traversed edges per second."""
        if self.time <= 0:
            raise ConfigError(f"non-positive execution time: {self.time}")
        return self.edges_traversed / self.time / 1e6

    @property
    def edp(self) -> float:
        """Energy-delay product (Equation (5))."""
        return edp(self.time, self.total_energy)

    # --- breakdowns ---------------------------------------------------------

    def breakdown(self) -> dict[str, float]:
        """Fig. 17 buckets as fractions of total energy."""
        total = self.total_energy
        if total <= 0:
            raise ConfigError("cannot break down a zero-energy report")
        out: dict[str, float] = {}
        for bucket, components in BREAKDOWN_BUCKETS.items():
            out[bucket] = sum(
                self.energy.get(c, 0.0) for c in components
            ) / total
        return out

    def component_fraction(self, component: str) -> float:
        total = self.total_energy
        return self.energy.get(component, 0.0) / total if total else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.machine} / {self.algorithm} / {self.graph}: "
            f"{self.mteps_per_watt:.0f} MTEPS/W, "
            f"{self.total_energy * 1e3:.3f} mJ, {self.time * 1e3:.3f} ms, "
            f"{self.iterations} iters"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view of the report (for tooling)."""
        return {
            "machine": self.machine,
            "algorithm": self.algorithm,
            "graph": self.graph,
            "edges_traversed": self.edges_traversed,
            "iterations": self.iterations,
            "time_s": self.time,
            "energy_j": dict(self.energy),
            "total_energy_j": self.total_energy,
            "mteps_per_watt": self.mteps_per_watt,
            "mteps": self.mteps,
            "edp_js": self.edp,
            "breakdown": self.breakdown(),
        }


def efficiency_ratio(a: EnergyReport, b: EnergyReport) -> float:
    """MTEPS/W of ``a`` over ``b`` (how many times more efficient a is)."""
    return a.mteps_per_watt / b.mteps_per_watt


def geomean(values: list[float]) -> float:
    """Geometric mean (the paper's averaging for ratios)."""
    if not values:
        raise ConfigError("geomean of an empty list")
    if any(v <= 0 for v in values):
        raise ConfigError("geomean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
