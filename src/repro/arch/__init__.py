"""Architecture models: HyVE, accelerator baselines, CPU, GraphR."""

from . import params
from .config import (
    HyVEConfig,
    MemoryTechnology,
    NAMED_CONFIGS,
    Workload,
    choose_num_intervals,
    config_dram_only,
    config_hyve,
    config_hyve_opt,
    config_reram_only,
    config_sram_dram,
)
from .crossbar import CrossbarModel
from .cpu import CPU_DRAM, CPU_DRAM_OPT, CPUMachine, CPUModel
from .graphr import GraphRConfig, GraphRMachine
from .initialization import (
    InitializationCost,
    init_vs_execution,
    initialization_cost,
)
from .machine import AcceleratorMachine, SimulationResult, make_machine
from .processing_unit import ProcessingUnitModel
from .validation import MeasuredSchedule, measure_schedule
from .report import (
    BREAKDOWN_BUCKETS,
    EnergyReport,
    efficiency_ratio,
    geomean,
)
from .router import RouterModel
from .scheduler import ScheduleCounts, estimate_imbalance
from .sweep import SweepPoint, points_to_csv, sweep

__all__ = [
    "params",
    "HyVEConfig",
    "MemoryTechnology",
    "NAMED_CONFIGS",
    "Workload",
    "choose_num_intervals",
    "config_dram_only",
    "config_hyve",
    "config_hyve_opt",
    "config_reram_only",
    "config_sram_dram",
    "CrossbarModel",
    "CPU_DRAM",
    "CPU_DRAM_OPT",
    "CPUMachine",
    "CPUModel",
    "GraphRConfig",
    "GraphRMachine",
    "InitializationCost",
    "init_vs_execution",
    "initialization_cost",
    "AcceleratorMachine",
    "SimulationResult",
    "make_machine",
    "ProcessingUnitModel",
    "MeasuredSchedule",
    "measure_schedule",
    "BREAKDOWN_BUCKETS",
    "EnergyReport",
    "efficiency_ratio",
    "geomean",
    "RouterModel",
    "ScheduleCounts",
    "estimate_imbalance",
    "SweepPoint",
    "points_to_csv",
    "sweep",
]
