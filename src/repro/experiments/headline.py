"""The paper's headline claims, reproduced in one table.

Gathers every banner number of the abstract/introduction — the 86.17%
memory-energy reduction, the 1.60x/1.53x optimisation gains, the 5.90x
and two-orders-of-magnitude efficiency improvements, the 2.83x GraphR
advantage and the dynamic-update throughput — next to this
reproduction's measured values.  README.md's summary table is this
driver's output.
"""

from __future__ import annotations

from . import fig14, fig15, fig16, fig17, fig19, fig20, fig21
from .common import ExperimentResult, geomean


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="headline",
        title="Headline claims: paper vs reproduction",
        headers=["Claim", "Paper", "Reproduced"],
        notes="see EXPERIMENTS.md for the per-figure detail",
    )

    ratios = fig16.opt_ratios()
    result.add("acc+HyVE-opt vs acc+DRAM", "5.90x",
               f"{ratios['acc+DRAM']:.2f}x")
    result.add("acc+HyVE-opt vs acc+ReRAM", "4.54x",
               f"{ratios['acc+ReRAM']:.2f}x")
    result.add("acc+HyVE-opt vs acc+SRAM+DRAM", "2.00x",
               f"{ratios['acc+SRAM+DRAM']:.2f}x")
    result.add("acc+HyVE-opt vs CPU+DRAM", "145.71x",
               f"{ratios['CPU+DRAM']:.1f}x")

    sharing = fig14.run()
    per_algo = {row[0]: row[6] for row in sharing.rows}
    result.add(
        "data sharing gain (BFS/CC/PR)",
        "1.15/1.47/2.19x",
        f"{per_algo['BFS']:.2f}/{per_algo['CC']:.2f}/{per_algo['PR']:.2f}x",
    )
    result.add(
        "data sharing gain (average)",
        "1.60x",
        f"{geomean(list(per_algo.values())):.2f}x",
    )

    gating = fig15.run()
    gating_ratios = [r for row in gating.rows for r in row[1:6]]
    result.add("bank power-gating gain", "1.53x",
               f"{geomean(gating_ratios):.2f}x")

    reductions = fig17.memory_reduction()
    result.add("memory energy cut vs SD (HyVE)", "57.57%",
               f"{reductions['HyVE']:.1f}%")
    result.add("memory energy cut vs SD (opt)", "86.17%",
               f"{reductions['opt']:.1f}%")

    graphr = fig21.averages()
    result.add("GraphR/HyVE delay", "5.12x", f"{graphr['delay']:.2f}x")
    result.add("GraphR/HyVE energy", "2.83x", f"{graphr['energy']:.2f}x")
    result.add("GraphR/HyVE EDP", "17.63x", f"{graphr['edp']:.2f}x")

    preprocessing = fig19.run()
    values = preprocessing.column("GraphR/HyVE")
    result.add("GraphR/HyVE preprocessing time", "6.73x",
               f"{sum(values) / len(values):.2f}x")

    update_ratios = [c.modeled_ratio() for c in fig20.counts().values()]
    result.add("dynamic update advantage", "8.04x",
               f"{geomean(update_ratios):.2f}x (modeled)")
    return result
