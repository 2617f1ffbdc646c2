"""The paper's primary contribution, in one namespace.

``repro.core`` gathers the pieces that *are* HyVE — the hybrid
vertex-edge hierarchy, its two optimisations and its scheduling — as a
stable import surface.  Everything here is re-exported from the
implementing subpackages (`repro.arch`, `repro.memory`), which also
hold the substrates and baselines; see DESIGN.md for the full map.

    from repro.core import HyVE, HyVEConfig, PowerGatingPolicy

    machine = HyVE()                     # acc+HyVE-opt by default
    result = machine.run(algorithm, workload)
"""

from ..arch.config import (
    HyVEConfig,
    Workload,
    choose_num_intervals,
    config_hyve,
    config_hyve_opt,
)
from ..arch.machine import AcceleratorMachine, SimulationResult
from ..arch.report import EnergyReport
from ..arch.router import RouterModel
from ..arch.scheduler import ScheduleCounts
from ..memory.powergate import BankPowerGating, PowerGatingPolicy
from ..memory.reram import ReRAMChip, ReRAMConfig

#: The HyVE machine itself: an :class:`AcceleratorMachine` whose default
#: configuration is the paper's optimised design point.
HyVE = AcceleratorMachine

__all__ = [
    "HyVE",
    "HyVEConfig",
    "Workload",
    "choose_num_intervals",
    "config_hyve",
    "config_hyve_opt",
    "AcceleratorMachine",
    "SimulationResult",
    "EnergyReport",
    "RouterModel",
    "ScheduleCounts",
    "BankPowerGating",
    "PowerGatingPolicy",
    "ReRAMChip",
    "ReRAMConfig",
]
