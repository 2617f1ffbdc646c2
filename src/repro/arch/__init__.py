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
from .area import MachineArea, machine_area
from .crossbar import CrossbarModel
from .cpu import CPU_DRAM, CPU_DRAM_OPT, CPUMachine, CPUModel
from .graphr import GraphRConfig, GraphRMachine
from .initialization import (
    InitializationCost,
    init_vs_execution,
    initialization_cost,
)
from .machine import AcceleratorMachine, SimulationResult, make_machine
from .phases import Phase, PhaseKind, phase_profile, schedule_phases
from .power import PowerProfile, PowerSample, power_profile
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
from .sweep import (SweepPoint, best_point, pareto_front, points_to_csv,
                    successful_points, sweep)

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
    "MachineArea",
    "machine_area",
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
    "Phase",
    "PhaseKind",
    "phase_profile",
    "schedule_phases",
    "PowerProfile",
    "PowerSample",
    "power_profile",
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
    "best_point",
    "pareto_front",
    "points_to_csv",
    "successful_points",
    "sweep",
]
