"""Property and monotonicity tests on the machine model."""

from hypothesis import given, settings, strategies as st

from repro.algorithms import BFS, PageRank
from repro.arch.config import HyVEConfig, Workload
from repro.arch.machine import AcceleratorMachine
from repro.graph import Graph, rmat
from repro.memory.dram import DRAMConfig
from repro.memory.powergate import PowerGatingPolicy
from repro.memory.reram import ReRAMConfig
from repro.units import GBIT, MB


GRAPH = rmat(2048, 16000, seed=81, name="props")
WORKLOAD = Workload(GRAPH, reported_vertices=2_048_000,
                    reported_edges=16_000_000)


def run(config: HyVEConfig):
    return AcceleratorMachine(config).run(PageRank(), WORKLOAD).report


class TestMonotonicity:
    def test_denser_chips_cost_more_energy_per_access(self):
        small = run(HyVEConfig(
            label="4g",
            reram=ReRAMConfig(density_bits=4 * GBIT),
            dram=DRAMConfig(density_bits=4 * GBIT),
        ))
        large = run(HyVEConfig(
            label="16g",
            reram=ReRAMConfig(density_bits=16 * GBIT),
            dram=DRAMConfig(density_bits=16 * GBIT),
        ))
        assert large.total_energy > small.total_energy

    def test_more_sram_more_leakage_fewer_loads(self):
        small = AcceleratorMachine(HyVEConfig(label="s", sram_bits=2 * MB))
        large = AcceleratorMachine(HyVEConfig(label="l", sram_bits=16 * MB))
        small_counts = small.run_counts(PageRank(), WORKLOAD)
        large_counts = large.run_counts(PageRank(), WORKLOAD)
        assert large_counts.offchip_load_bits <= small_counts.offchip_load_bits
        from repro.arch.report import ONCHIP_VERTEX_BG

        assert run(HyVEConfig(label="l", sram_bits=16 * MB)).energy[
            ONCHIP_VERTEX_BG
        ] > run(HyVEConfig(label="s", sram_bits=2 * MB)).energy[
            ONCHIP_VERTEX_BG
        ]

    def test_gating_timeout_monotone_in_background(self):
        from repro.arch.report import EDGE_MEMORY_BG
        from repro.units import US

        energies = []
        for timeout in (0.1, 10.0, 1000.0):
            report = run(HyVEConfig(
                label=f"t{timeout}",
                power_gating=PowerGatingPolicy(idle_timeout=timeout * US),
            ))
            energies.append(report.energy[EDGE_MEMORY_BG])
        assert energies[0] <= energies[1] <= energies[2]


class TestScaleInvariance:
    @given(st.integers(min_value=2, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_mteps_per_watt_stable_under_scaling(self, factor):
        # Scaling a workload linearly must not change efficiency much
        # (it only shifts chip counts, which are step functions).
        base = AcceleratorMachine().run(PageRank(), WORKLOAD).report
        scaled = AcceleratorMachine().run(
            PageRank(),
            Workload(
                GRAPH,
                reported_vertices=GRAPH.num_vertices * factor,
                reported_edges=GRAPH.num_edges * factor,
            ),
        ).report
        # Within 4x across three orders of magnitude of scale.
        ratio = scaled.mteps_per_watt / base.mteps_per_watt
        assert 0.25 < ratio < 4.0


class TestEdgeCases:
    def test_single_edge_graph(self):
        g = Graph.from_edges(2, [(0, 1)])
        report = AcceleratorMachine().run(BFS(0), g).report
        assert report.total_energy > 0
        assert report.time > 0

    def test_edgeless_graph(self):
        g = Graph.empty(16)
        report = AcceleratorMachine().run(PageRank(), g).report
        assert report.edges_traversed == 0
        assert report.total_energy > 0  # background + interval traffic

    def test_self_loop_only(self):
        g = Graph.from_edges(1, [(0, 0)])
        report = AcceleratorMachine().run(PageRank(), g).report
        assert report.edges_traversed == 10  # 10 PR iterations x 1 edge

    def test_one_pu_machine(self):
        report = AcceleratorMachine(
            HyVEConfig(label="n1", num_pus=1)
        ).run(PageRank(), GRAPH).report
        assert report.total_energy > 0
