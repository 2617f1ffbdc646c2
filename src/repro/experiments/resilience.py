"""Resilience ablation: what SECDED protection costs in efficiency.

The paper assumes ideal devices.  This driver prices PageRank on the YT
workload on three accelerator configurations (acc+DRAM, acc+HyVE,
acc+HyVE-opt) twice: with ideal devices, and with a (72, 64) SECDED
code on every memory level (``AcceleratorMachine(config,
secded=True)``).  ``Retained`` is the protected machine's MTEPS/W
relative to its ideal run.
"""

from __future__ import annotations

from ..arch.config import NAMED_CONFIGS
from ..arch.machine import AcceleratorMachine
from .common import CORE_ALGORITHM_FACTORIES, ExperimentResult, workloads

#: Accelerator configurations compared (the paper's Fig. 16 subset that
#: exercises DRAM-only, hybrid, and optimised-hybrid edge paths).
MACHINE_ORDER = ("acc+DRAM", "acc+HyVE", "acc+HyVE-opt")


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="resilience",
        title="Energy efficiency with and without SECDED protection "
              "(PageRank / YT)",
        headers=["Protection", "Machine", "MTEPS/W", "Retained"],
        notes="Retained = MTEPS/W relative to the same machine with "
              "ideal devices.",
    )
    factory = CORE_ALGORITHM_FACTORIES["PR"]
    workload = workloads()["YT"]
    ideal = {}
    for protection, secded in (("none", False), ("secded", True)):
        for name in MACHINE_ORDER:
            machine = AcceleratorMachine(NAMED_CONFIGS[name](), secded=secded)
            efficiency = machine.run(factory(), workload).report.mteps_per_watt
            ideal.setdefault(name, efficiency)
            result.add(protection, name, efficiency,
                       f"{efficiency / ideal[name] * 100:.1f}%")
    return result
