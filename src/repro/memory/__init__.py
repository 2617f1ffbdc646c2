"""Memory device models: ReRAM, DRAM, SRAM, register files, power gating."""

from .base import (
    AccessCost,
    AccessKind,
    AccessPattern,
    DeviceTimings,
    MemoryDevice,
    MemoryStats,
    TimingsDevice,
)
from .nvsim import (
    BankOperatingPoint,
    NvSimLite,
    OptimizationTarget,
    ReRAMCellParams,
    SRAMOperatingPoint,
    TABLE3_CALIBRATION,
    best_energy_point,
    solve_sram,
    table3,
)
from .ecc import (
    SECDED_CHECK_BITS,
    SECDED_DATA_BITS,
    SECDEDDevice,
    secded_factor,
    secded_logic_energy,
)
from .reram import RANDOM_READ_LATENCY, ReRAMChip, ReRAMConfig
from .dram import DDR4Chip, DDR4Currents, DDR4Timings, DRAMConfig
from .sram import OnChipSRAM
from .regfile import RegisterFile
from .powergate import BankPowerGating, GatingReport, PowerGatingPolicy

__all__ = [
    "AccessCost",
    "AccessKind",
    "AccessPattern",
    "DeviceTimings",
    "MemoryDevice",
    "MemoryStats",
    "TimingsDevice",
    "BankOperatingPoint",
    "NvSimLite",
    "OptimizationTarget",
    "ReRAMCellParams",
    "SRAMOperatingPoint",
    "TABLE3_CALIBRATION",
    "best_energy_point",
    "solve_sram",
    "table3",
    "SECDED_CHECK_BITS",
    "SECDED_DATA_BITS",
    "SECDEDDevice",
    "secded_factor",
    "secded_logic_energy",
    "RANDOM_READ_LATENCY",
    "ReRAMChip",
    "ReRAMConfig",
    "DDR4Chip",
    "DDR4Currents",
    "DDR4Timings",
    "DRAMConfig",
    "OnChipSRAM",
    "RegisterFile",
    "BankPowerGating",
    "GatingReport",
    "PowerGatingPolicy",
]
