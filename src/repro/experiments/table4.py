"""Table 4: energy efficiency (MTEPS/W) as SRAM capacity varies.

Sixteen configurations per (algorithm, dataset): SRAM size in
{2, 4, 8, 16} MB crossed with {power gating on/off} x {sharing on/off}.
The reproduced sweet-spot behaviour: larger SRAM cuts interval
scheduling traffic but pays leakage and slower/larger accesses; data
sharing shifts the sweet spot to smaller SRAM.
"""

from __future__ import annotations

from ..arch.config import HyVEConfig
from ..memory.powergate import PowerGatingPolicy
from ..perf.batch import run_grid
from ..units import MB
from .common import CORE_ALGORITHM_FACTORIES, ExperimentResult, workloads

#: SRAM capacities of the sweep (per PU).
SRAM_MB = (2, 4, 8, 16)

#: Configuration groups, in the table's column order.
GROUPS = (
    ("w/o PG, w/o sharing", False, False),
    ("w/o PG, w/ sharing", False, True),
    ("w/ PG, w/o sharing", True, False),
    ("w/ PG, w/ sharing", True, True),
)


def config(sram_mb: int, power_gating: bool, sharing: bool) -> HyVEConfig:
    """The HyVE configuration of one Table 4 column."""
    return HyVEConfig(
        label=f"hyve-{sram_mb}MB",
        sram_bits=sram_mb * MB,
        data_sharing=sharing,
        power_gating=PowerGatingPolicy(enabled=power_gating),
    )


def run(sram_mb: tuple[int, ...] = SRAM_MB) -> ExperimentResult:
    headers = ["Algo", "Dataset"]
    for group, _, _ in GROUPS:
        for size in sram_mb:
            headers.append(f"{group} {size}MB")
    result = ExperimentResult(
        experiment="table4",
        title="Energy efficiency varying SRAM sizes (MTEPS/W)",
        headers=headers,
    )
    configs = [config(size, pg, sharing)
               for _, pg, sharing in GROUPS for size in sram_mb]
    for algo, factory in CORE_ALGORITHM_FACTORIES.items():
        for dataset, workload in workloads().items():
            # One grid per row: converge once, price every column.
            grid = run_grid(factory(), workload, configs)
            result.rows.append([algo, dataset] + [
                cell.report.mteps_per_watt for cell in grid])
    return result


def sweet_spots(result: ExperimentResult | None = None) -> dict[str, int]:
    """Most efficient SRAM size per configuration group (MB), by the
    count of (algo, dataset) cells it wins."""
    result = result or run()
    spots: dict[str, int] = {}
    for group, _, _ in GROUPS:
        wins = {size: 0 for size in SRAM_MB}
        cols = {
            size: result.headers.index(f"{group} {size}MB")
            for size in SRAM_MB
        }
        for row in result.rows:
            best = max(SRAM_MB, key=lambda size: row[cols[size]])
            wins[best] += 1
        spots[group] = max(wins, key=wins.get)
    return spots
