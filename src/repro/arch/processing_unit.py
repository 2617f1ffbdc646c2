"""CMOS processing-unit model (Sections 4.2, 6.4).

A PU is a pipelined datapath that consumes one edge per initiation
interval: read the source value, read the destination value, update,
write back.  The initiation interval is scratchpad-bound — three SRAM
accesses per edge over two ports — and the 18.783 ns multiplier latency
is hidden by pipelining except for a fill charge per block step.

Matrix-vector style algorithms (PR, SpMV) use the float-multiplier
energy the paper quotes (3.7 pJ); traversal algorithms (BFS, CC, SSSP)
use a cheaper compare-select datapath.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from . import params

#: Algorithms whose per-edge update is a multiply-accumulate.
_MV_ALGORITHMS = frozenset({"PR", "SpMV"})


@dataclass(frozen=True)
class ProcessingUnitModel:
    """Per-edge time/energy of one CMOS processing unit.

    Attributes:
        sram_cycle: access cycle of the attached on-chip vertex memory
            (s); bounds the initiation interval.  Machines without an
            on-chip scratchpad pass the main-memory-bound interval
            instead.  A NumPy column models one PU per row.
    """

    sram_cycle: float

    def __post_init__(self) -> None:
        low = np.less_equal(self.sram_cycle, 0)
        if np.count_nonzero(low):
            raise ConfigError(
                "SRAM cycle must be positive, got "
                f"{np.extract(low, self.sram_cycle)[0]}"
            )

    @property
    def initiation_interval(self) -> float:
        """Seconds between successive edges entering the pipeline."""
        per_edge_accesses = (
            params.PU_SRAM_ACCESSES_PER_EDGE / params.PU_SRAM_PORTS
        )
        return self.sram_cycle * per_edge_accesses

    def op_energy(self, algorithm: str) -> float:
        """Energy of one edge update for the given algorithm tag."""
        if algorithm in _MV_ALGORITHMS:
            return params.PU_OP_ENERGY_MV
        return params.PU_OP_ENERGY_NON_MV

    def pipeline_fill(self) -> float:
        """Latency charged once per block step (pipeline drain/fill)."""
        return params.PU_OP_LATENCY

    @property
    def leakage_power(self) -> float:
        return params.PU_LEAKAGE
