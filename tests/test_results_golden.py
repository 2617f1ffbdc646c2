"""Every experiment driver's table, pinned byte for byte to ``results/``.

The session's one ``run_selected(save=False)`` (the
``experiment_results`` fixture in ``conftest.py``) regenerates every
driver in ``ALL_EXPERIMENTS``; each case compares ``result.to_csv()`` with the
committed ``results/<name>.csv``, every cell byte for byte.

``CLAIMS`` checks the paper's qualitative conclusions on the same
regeneration, one claim per experiment (e.g. Fig. 14 "every mean > 1
and PR gains most"), so a model change that moves a table out of the
paper's band fails here even when its CSV is regenerated.

To regenerate after an intentional model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_results_golden.py
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import (ALL_EXPERIMENTS, RESULTS_DIR, fig16, fig17,
                               fig21, table4)
from repro.experiments.common import geomean
from repro.model.edge_storage import read_pattern_conclusions

pytestmark = pytest.mark.golden


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_matches_committed_csv(experiment_results, name):
    result = experiment_results[name]
    path = RESULTS_DIR / f"{name}.csv"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        result.save()
        result.save_csv()
    assert path.exists(), (
        f"missing {path}; run with REPRO_UPDATE_GOLDEN=1 to create it")
    committed = path.read_bytes().decode()
    assert result.to_csv() == committed, (
        f"{name} no longer reproduces {path}; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDEN=1")


# --- the paper's conclusions, one claim per experiment -----------------------


def _table1(result):
    # N_avg within 5% of the paper's value on every dataset.
    for _, measured, paper in result.rows:
        assert abs(measured - paper) / paper < 0.05


def _table2(result):
    assert len(result.rows) == 5


def _table3(result):
    # The energy-optimised 512-bit output minimises power per bit.
    powers = result.column("Power/bit (mW/bit)")
    assert min(powers) == powers[3]


def _table4(result):
    # Section 7.2.3's sweet spots: 4 MB without sharing, 2 MB with.
    spots = table4.sweet_spots(result)
    assert spots["w/o PG, w/o sharing"] == 4
    assert spots["w/ PG, w/ sharing"] == 2


def _fig09(result):
    # Section 6.2: DRAM reads faster, ReRAM reads cheaper, DRAM writes.
    conclusions = read_pattern_conclusions()
    assert all(conclusions.values()), conclusions


def _fig10(result):
    # GraphR's read-dominated traffic always prefers ReRAM.
    assert all(row[3] > 1.0 for row in result.rows if row[0] == "GraphR")


def _fig11(result):
    # GraphR reads several times more vertices than HyVE, and with DRAM
    # global memory HyVE wins energy and EDP everywhere.
    assert all(row[1] > 2.0 for row in result.rows)
    assert all(row[4] > 1.0 and row[5] > 1.0 for row in result.rows)


def _fig12(result):
    # Flat through 32x32 blocks, a dramatic drop past 64x64.
    for row in result.rows:
        speeds = row[2:]
        assert speeds[4] > 0.85
        assert speeds[-1] < 0.4


def _fig13(result):
    # SLC beats MLC (parallel-sensing energy overhead).
    for _, slc, mlc2, mlc3 in result.rows:
        assert slc > mlc2 > mlc3


def _fig14(result):
    # Data sharing helps on average, and PR (widest record) gains most.
    means = {row[0]: row[6] for row in result.rows}
    assert all(value > 1.0 for value in means.values())
    assert means["PR"] == max(means.values())


def _fig15(result):
    # Paper: power gating gains 1.53x on average.
    assert 1.2 < geomean([r for row in result.rows for r in row[1:6]]) < 2.0


def _fig16(result):
    # Paper: opt beats SD 2.00x, DRAM 5.90x, CPU 145.71x.
    ratios = fig16.opt_ratios(result)
    assert ratios["acc+SRAM+DRAM"] > 1.5
    assert ratios["acc+DRAM"] > 4.0
    assert ratios["CPU+DRAM"] > 80.0


def _fig17(result):
    # Paper: memory energy falls 57.57% (HyVE) and 86.17% (opt) vs SD.
    reductions = fig17.memory_reduction()
    assert reductions["opt"] > reductions["HyVE"] > 20.0


def _fig18(result):
    # HyVE is a few percent slower than SD, never faster.
    for row in result.rows:
        assert all(0.7 < ratio <= 1.0 for ratio in row[1:6])


def _fig19(result):
    # Paper: GraphR preprocesses 6.73x slower on average.
    values = result.column("GraphR/HyVE")
    assert 4.0 < sum(values) / len(values) < 10.0


def _fig20(result):
    # Paper: HyVE updates 8.04x faster than GraphR.
    assert all(7.0 < ratio < 10.0 for ratio in result.column("Modeled ratio"))


def _fig21(result):
    # Paper geomeans: delay 5.12x, energy 2.83x, EDP 17.63x.
    averages = fig21.averages(result)
    assert averages["delay"] > 2.5
    assert averages["energy"] > 1.5
    assert averages["edp"] > 7.0


def _ablation_interleaving(result):
    # Sub-bank interleaving (gateable) beats bank interleaving everywhere.
    assert all(row[3] > 1.0 for row in result.rows)


def _ablation_bpg_timeout(result):
    # Very long timeouts keep banks powered: efficiency declines.
    assert all(row[1] >= row[-1] for row in result.rows)


def _ablation_pu_count(result):
    # More sharing PUs beat a single PU on every dataset.
    assert all(max(row[1:]) > row[1] for row in result.rows)


def _ablation_execution_model(result):
    # Full sweeps: vertex-centric only adds random edge-memory accesses.
    assert all(row[3] > 1.0 for row in result.rows if row[0] == "PR")


def _ablation_density(result):
    # Efficiency declines gently with density but stays within 20%.
    assert all(row[1] >= row[-1] > 0.8 * row[1] for row in result.rows)


def _ablation_init_cost(result):
    # "Not an obvious delay": the one-shot write stays well below a run.
    assert all(row[3] < 0.2 for row in result.rows)


def _ablation_placement(result):
    # Hash placement balances the PUs, and that pays off.
    for _, hash_imb, natural_imb, hash_eff, natural_eff in result.rows:
        assert hash_imb < natural_imb
        assert hash_eff >= natural_eff


def _resilience(result):
    # SECDED never raises a machine's efficiency, and protected
    # acc+HyVE-opt still beats ideal acc+DRAM by at least 3x.
    eff = {(protection, machine): value
           for protection, machine, value, _ in result.rows}
    for (protection, machine), value in eff.items():
        assert value <= eff[("none", machine)]
    assert eff[("secded", "acc+HyVE-opt")] >= 3 * eff[("none", "acc+DRAM")]


def _headline(result):
    assert len(result.rows) == 14


def _sensitivity(result):
    # The conclusion survives every +/-30% perturbation.
    assert all(ratio > 1.5 for row in result.rows for ratio in row[1:])


CLAIMS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "fig19": _fig19,
    "fig20": _fig20,
    "fig21": _fig21,
    "ablation_interleaving": _ablation_interleaving,
    "ablation_bpg_timeout": _ablation_bpg_timeout,
    "ablation_pu_count": _ablation_pu_count,
    "ablation_execution_model": _ablation_execution_model,
    "ablation_density": _ablation_density,
    "ablation_init_cost": _ablation_init_cost,
    "ablation_placement": _ablation_placement,
    "resilience": _resilience,
    "headline": _headline,
    "sensitivity": _sensitivity,
}


@pytest.mark.parametrize("name", list(CLAIMS))
def test_paper_claim(experiment_results, name):
    CLAIMS[name](experiment_results[name])
