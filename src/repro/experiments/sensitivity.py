"""Sensitivity of the headline result to the calibrated constants.

The reproduction's calibrated constants (docs/calibration.md) carry
modelling uncertainty.  This analysis perturbs each of the most
influential ones by +/-30% and re-measures the central claim — the
acc+HyVE-opt over acc+SRAM+DRAM efficiency ratio — showing that the
paper's conclusion does not hinge on any single calibration choice.

Perturbation uses ``unittest.mock.patch`` on the module constants, so
the installed values are untouched after the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from ..algorithms import PageRank
from ..arch.config import HyVEConfig, MemoryTechnology
from ..arch.machine import AcceleratorMachine, clear_device_memos
from ..memory.powergate import PowerGatingPolicy
from .common import ExperimentResult, geomean, workloads

#: (label, module path, attribute) of each perturbed constant.
PERTURBED_CONSTANTS = (
    ("SRAM leakage", "repro.memory.nvsim", "_SRAM_LEAKAGE_PER_MB"),
    ("ReRAM bank standby", "repro.memory.reram", "_BANK_STANDBY_AT_REF"),
    ("ReRAM stream factor", "repro.memory.reram", "STREAM_FACTOR"),
    ("pipeline energy/edge", "repro.arch.params", "PIPELINE_ENERGY_PER_EDGE"),
    ("PU leakage", "repro.arch.params", "PU_LEAKAGE"),
    ("controller power", "repro.arch.params", "CONTROLLER_POWER"),
)


@contextmanager
def perturbed(module_path: str, attribute: str, factor: float):
    """Temporarily scale one module-level constant.

    The pricing kernel memoizes devices built from these constants, so
    the memo is emptied on entry and again on exit.
    """
    import importlib

    module = importlib.import_module(module_path)
    original = getattr(module, attribute)
    clear_device_memos()
    try:
        with mock.patch.object(module, attribute, original * factor):
            yield
    finally:
        clear_device_memos()


def opt_over_sd() -> float:
    """The central claim: geomean acc+HyVE-opt / acc+SRAM+DRAM (PR)."""
    opt = AcceleratorMachine(HyVEConfig(label="opt"))
    sd = AcceleratorMachine(
        HyVEConfig(
            label="sd",
            edge_memory=MemoryTechnology.DRAM,
            power_gating=PowerGatingPolicy(enabled=False),
        )
    )
    ratios = []
    for workload in workloads().values():
        a = opt.run(PageRank(), workload).report.mteps_per_watt
        b = sd.run(PageRank(), workload).report.mteps_per_watt
        ratios.append(a / b)
    return geomean(ratios)


def run(factors: tuple[float, ...] = (0.7, 1.0, 1.3)) -> ExperimentResult:
    result = ExperimentResult(
        experiment="sensitivity",
        title="Headline ratio (opt/SD, PR) under +/-30% calibration "
              "perturbations",
        headers=["Constant"] + [f"x{f:g}" for f in factors],
        notes=(
            "the ratio must stay > 1 everywhere: the conclusion is "
            "robust to each calibrated constant"
        ),
    )
    for label, module_path, attribute in PERTURBED_CONSTANTS:
        row: list = [label]
        for factor in factors:
            with perturbed(module_path, attribute, factor):
                row.append(opt_over_sd())
        result.rows.append(row)
    return result
