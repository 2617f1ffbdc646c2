"""Tests for workload and machine configuration."""

import pytest

from repro.arch.config import (
    HyVEConfig,
    MemoryTechnology,
    NAMED_CONFIGS,
    Workload,
    choose_num_intervals,
)
from repro.errors import ConfigError
from repro.units import MB


class TestWorkload:
    def test_own_scale_defaults_to_one(self, small_rmat):
        wl = Workload(small_rmat)
        assert wl.vertex_scale == 1.0
        assert wl.edge_scale == 1.0

    def test_dataset_scale(self, lj_workload):
        assert lj_workload.vertex_scale == pytest.approx(
            4_850_000 / lj_workload.graph.num_vertices
        )
        assert lj_workload.edge_scale > 1.0

    def test_rejects_non_positive_reported_sizes(self, small_rmat):
        with pytest.raises(ConfigError):
            Workload(small_rmat, reported_vertices=0)
        with pytest.raises(ConfigError):
            Workload(small_rmat, reported_edges=-5)

    def test_name_follows_graph(self, small_rmat):
        assert Workload(small_rmat).name == small_rmat.name


class TestHyVEConfig:
    def test_defaults_are_the_optimised_design(self):
        config = HyVEConfig()
        assert config.num_pus == 8
        assert config.sram_bits == 2 * MB
        assert config.data_sharing
        assert config.power_gating.enabled
        assert config.edge_memory == MemoryTechnology.RERAM
        assert config.offchip_vertex == MemoryTechnology.DRAM

    def test_rejects_zero_pus(self):
        with pytest.raises(ConfigError):
            HyVEConfig(num_pus=0)

    def test_rejects_unknown_edge_memory(self):
        with pytest.raises(ConfigError):
            HyVEConfig(edge_memory="flash")

    def test_rejects_sharing_without_scratchpad(self):
        with pytest.raises(ConfigError):
            HyVEConfig(
                onchip_vertex=MemoryTechnology.NONE, data_sharing=True
            )

    def test_rejects_bad_hit_rate(self):
        with pytest.raises(ConfigError):
            HyVEConfig(region_hit_rate=1.5)

    def test_renamed(self):
        assert HyVEConfig().renamed("x").label == "x"


class TestChooseNumIntervals:
    def test_multiple_of_pu_count(self):
        config = HyVEConfig()
        p = choose_num_intervals(config, 4_850_000, 64)
        assert p % config.num_pus == 0

    def test_two_intervals_fit_per_scratchpad(self):
        config = HyVEConfig()
        n_v = 4_850_000
        p = choose_num_intervals(config, n_v, 64)
        per_interval_bits = (n_v / p) * 64
        assert 2 * per_interval_bits <= config.sram_bits * 1.01

    def test_small_graph_uses_minimum(self):
        config = HyVEConfig()
        assert choose_num_intervals(config, 100, 32) == config.num_pus

    def test_bigger_sram_fewer_intervals(self):
        small = HyVEConfig(sram_bits=2 * MB)
        large = HyVEConfig(sram_bits=16 * MB)
        assert choose_num_intervals(large, 10_000_000, 64) < (
            choose_num_intervals(small, 10_000_000, 64)
        )

    def test_wider_vertices_more_intervals(self):
        config = HyVEConfig()
        assert choose_num_intervals(config, 10_000_000, 64) > (
            choose_num_intervals(config, 10_000_000, 32)
        )

    def test_no_scratchpad_returns_pu_count(self):
        config = HyVEConfig(
            label="none",
            onchip_vertex=MemoryTechnology.NONE,
            data_sharing=False,
        )
        assert choose_num_intervals(config, 10_000_000, 64) == 8

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ConfigError):
            choose_num_intervals(HyVEConfig(), 0, 32)
        with pytest.raises(ConfigError):
            choose_num_intervals(HyVEConfig(), 100, 0)


class TestNamedConfigs:
    def test_all_five_accelerators(self):
        assert set(NAMED_CONFIGS) == {
            "acc+HyVE-opt",
            "acc+HyVE",
            "acc+SRAM+DRAM",
            "acc+DRAM",
            "acc+ReRAM",
        }

    def test_labels_match_keys(self):
        for name, factory in NAMED_CONFIGS.items():
            assert factory().label == name

    def test_sd_uses_dram_edges(self):
        assert NAMED_CONFIGS["acc+SRAM+DRAM"]().edge_memory == "dram"

    def test_opt_is_only_config_with_gating(self):
        gating = {
            name: factory().power_gating.enabled
            for name, factory in NAMED_CONFIGS.items()
        }
        assert gating.pop("acc+HyVE-opt") is True
        assert not any(gating.values())

    def test_raw_baselines_have_no_scratchpad(self):
        assert not NAMED_CONFIGS["acc+DRAM"]().has_onchip
        assert not NAMED_CONFIGS["acc+ReRAM"]().has_onchip
