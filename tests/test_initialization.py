"""Tests for the one-shot initialisation cost model (Section 3.1)."""

import pytest

from repro.algorithms import BFS, PageRank
from repro.arch import init_vs_execution, initialization_cost
from repro.arch.config import HyVEConfig, MemoryTechnology
from repro.memory.powergate import PowerGatingPolicy


class TestInitializationCost:
    def test_components_positive(self, lj_workload):
        cost = initialization_cost(PageRank(), lj_workload)
        assert cost.partition_time > 0
        assert cost.write_time > 0
        assert cost.write_energy > 0
        assert cost.total_time == pytest.approx(
            cost.partition_time + cost.write_time
        )

    def test_image_sizes_include_slack(self, lj_workload):
        cost = initialization_cost(PageRank(), lj_workload)
        raw_edge_bits = 69_000_000 * 64
        assert cost.edge_write_bits == pytest.approx(raw_edge_bits * 1.3)

    def test_bare_graph_accepted(self, small_rmat):
        cost = initialization_cost(BFS(0), small_rmat)
        assert cost.write_time > 0

    def test_dram_edges_write_faster(self, lj_workload):
        reram = initialization_cost(PageRank(), lj_workload)
        dram = initialization_cost(
            PageRank(),
            lj_workload,
            HyVEConfig(
                label="sd",
                edge_memory=MemoryTechnology.DRAM,
                power_gating=PowerGatingPolicy(enabled=False),
            ),
        )
        assert dram.write_time < reram.write_time


class TestSection31Claim:
    def test_write_not_an_obvious_delay(self, lj_workload):
        # The one-shot ReRAM write stays below 15% of a single PR run.
        ratios = init_vs_execution(PageRank(), lj_workload)
        assert ratios["write_over_execution"] < 0.15

    def test_write_energy_small_share(self, lj_workload):
        ratios = init_vs_execution(PageRank(), lj_workload)
        assert ratios["write_energy_over_execution"] < 0.10

    def test_ablation_driver(self):
        from repro.experiments.ablations import run_init_cost

        result = run_init_cost()
        assert len(result.rows) == 5
        assert all(row[3] < 0.2 for row in result.rows)
