"""Tests for the Section 6.2-6.5 analytic comparisons."""

import pytest

from repro.algorithms import PageRank
from repro.errors import ConfigError
from repro.model.edge_storage import (
    compare_edge_storage,
    read_pattern_conclusions,
)
from repro.model.preprocessing import (
    expected_nonempty_blocks,
    graphr_preprocessing_time,
    hyve_preprocessing_time,
    preprocessing_ratio,
    preprocessing_speed_sweep,
    preprocessing_time,
)
from repro.model.processing_units import (
    cmos_energy_per_edge,
    compare_processing_units,
    crossbar_mv_energy_per_edge,
)
from repro.model.vertex_storage import (
    architecture_traffic,
    compare_global_vertex_memory,
    compare_vertex_storage,
)


class TestEdgeStorage:
    def test_nine_bar_groups(self):
        assert len(compare_edge_storage()) == 9

    def test_section62_conclusions(self):
        conclusions = read_pattern_conclusions()
        assert all(conclusions.values()), conclusions

    def test_read_energy_ratio_several_fold(self):
        reads = [
            r for r in compare_edge_storage() if "Read (100%)" in r.workload
        ]
        for row in reads:
            assert 3.0 < row.energy_ratio < 15.0

    def test_mixed_workload_between_extremes(self):
        rows = compare_edge_storage()
        by_wl = {}
        for r in rows:
            if r.density_gbit == 4:
                by_wl[r.workload] = r
        read = by_wl["Sequential Read (100%)"]
        write = by_wl["Sequential Write (100%)"]
        mixed = [v for k, v in by_wl.items() if "50%" in k][0]
        assert write.edp_ratio < mixed.edp_ratio < read.edp_ratio


class TestVertexStorage:
    def test_graphr_prefers_reram(self, yt_workload):
        rows = compare_global_vertex_memory(
            PageRank(), {"YT": yt_workload}
        )
        graphr_rows = [r for r in rows if r.architecture == "GraphR"]
        assert all(r.edp_ratio > 1.0 for r in graphr_rows)

    def test_hyve_prefers_dram(self, yt_workload):
        rows = compare_global_vertex_memory(
            PageRank(), {"YT": yt_workload}
        )
        hyve_rows = [r for r in rows if r.architecture == "HyVE"]
        assert all(r.edp_ratio < 1.0 for r in hyve_rows)

    def test_graphr_reads_many_times_hyve(self, yt_workload):
        rows = compare_vertex_storage(PageRank(), {"YT": yt_workload})
        assert rows[0].read_ratio > 2.0

    def test_hyve_wins_on_dram_energy_and_edp(self, lj_workload):
        rows = compare_vertex_storage(PageRank(), {"LJ": lj_workload})
        assert rows[0].dram_energy_ratio > 1.0
        assert rows[0].dram_edp_ratio > 1.0

    def test_traffic_architecture_validation(self, yt_workload):
        with pytest.raises(ValueError):
            architecture_traffic(PageRank(), yt_workload, "TPU")


class TestProcessingUnits:
    def test_cmos_wins_both_metrics(self):
        for navg in (1.2, 1.5, 2.4):
            cmp = compare_processing_units(navg)
            assert cmp.cmos_wins_energy
            assert cmp.cmos_wins_latency

    def test_crossbar_energy_decreases_with_navg(self):
        assert crossbar_mv_energy_per_edge(2.4) < crossbar_mv_energy_per_edge(
            1.2
        )

    def test_cmos_energy_constants(self):
        assert cmos_energy_per_edge(True) == pytest.approx(3.7e-12)
        assert cmos_energy_per_edge(False) < cmos_energy_per_edge(True)

    def test_rejects_bad_navg(self):
        with pytest.raises(ConfigError):
            compare_processing_units(0.0)


class TestPreprocessing:
    def test_occupancy_expectation_bounds(self):
        assert expected_nonempty_blocks(0, 100) == 0.0
        assert expected_nonempty_blocks(1e9, 100) == pytest.approx(100.0)
        assert 0 < expected_nonempty_blocks(50, 100) < 50.0

    def test_more_blocks_slower(self):
        fast = preprocessing_time(1e6, 4)
        slow = preprocessing_time(1e6, 65536)
        assert slow > fast

    def test_fig12_shape(self):
        rows = preprocessing_speed_sweep(3e6, "YT")
        speeds = {r.num_intervals: r.normalized_speed for r in rows}
        assert speeds[2] == pytest.approx(1.0)
        assert speeds[32] > 0.8        # flat through 32x32
        assert speeds[256] < 0.4       # dramatic drop past 64x64
        assert speeds[64] > speeds[128] > speeds[256]

    def test_graphr_much_slower(self):
        ratio = preprocessing_ratio(4.85e6, 69e6, 1.5, 40)
        assert 3.0 < ratio < 12.0  # paper: 6.73x on average

    def test_graphr_time_uses_navg(self):
        fast = graphr_preprocessing_time(1e6, 1e7, navg=2.4)
        slow = graphr_preprocessing_time(1e6, 1e7, navg=1.2)
        assert slow > fast

    def test_hyve_time_positive(self):
        assert hyve_preprocessing_time(1e6, 32) > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            preprocessing_time(10, 0)
        with pytest.raises(ConfigError):
            graphr_preprocessing_time(10, 10, navg=0)
