"""Tests for simulate-once / price-many batched evaluation.

The contract under test is *bit-identity*: the memoized counts plus the
vectorized fold must reproduce the serial pipeline exactly — same
report fields, same energy-dict insertion order, same ``repr`` of every
float — across machines, algorithms, workloads, fault profiles, and
the sweep's batched serial path.
"""

import json

import pytest

from repro.algorithms import ConnectedComponents, PageRank
from repro.arch.config import NAMED_CONFIGS, HyVEConfig, Workload
from repro.arch.machine import AcceleratorMachine, fold_many
from repro.arch.sweep import SweepPolicy, points_to_csv, sweep
from repro.errors import ConfigError
from repro.faults import make_profile
from repro.perf.batch import (
    counts_cache_key,
    group_by_counts_key,
    run_grid,
    scheduled_counts,
)
from repro.perf.cache import RunCache, get_run_cache, set_run_cache
from repro.units import MB


def _assert_reports_identical(batched, serial) -> None:
    """Field-for-field (and float-repr) equality of two reports."""
    assert list(batched.energy.items()) == list(serial.energy.items())
    assert batched.__dict__ == serial.__dict__
    assert repr(batched.total_energy) == repr(serial.total_energy)
    assert repr(batched.time) == repr(serial.time)
    assert repr(batched.mteps_per_watt) == repr(serial.mteps_per_watt)


@pytest.fixture
def workloads(small_rmat, weighted_graph):
    return {
        "small": Workload(small_rmat),
        "weighted": Workload(weighted_graph, reported_vertices=256_000,
                             reported_edges=1_024_000),
    }


class TestFoldManyIdentity:
    """fold_many == a loop of AcceleratorMachine.run, bit for bit."""

    @pytest.mark.parametrize("factory", [PageRank, ConnectedComponents],
                             ids=["pr", "cc"])
    @pytest.mark.parametrize("workload_name", ["small", "weighted"])
    def test_named_machines_grid(self, workloads, workload_name, factory):
        workload = workloads[workload_name]
        configs = [make() for make in NAMED_CONFIGS.values()]
        batched = run_grid(factory(), workload, configs)
        assert len(batched) == len(configs)
        for config, result in zip(configs, batched):
            serial = AcceleratorMachine(config).run(factory(), workload)
            _assert_reports_identical(result.report, serial.report)

    def test_direct_fold_matches_run(self, workloads):
        from repro.algorithms.runner import run_cached

        workload = workloads["small"]
        config = HyVEConfig(label="direct")
        run = run_cached(PageRank(), workload.graph)
        counts = scheduled_counts(run, workload, config)
        [report] = fold_many(run, counts, workload, [config])
        serial = AcceleratorMachine(config).run(PageRank(), workload)
        _assert_reports_identical(report, serial.report)

    def test_empty_grid(self, workloads):
        assert run_grid(PageRank(), workloads["small"], []) == []

    def test_rejects_mixed_counts_group(self, workloads):
        from repro.algorithms.runner import run_cached

        workload = workloads["small"]
        a, b = HyVEConfig(num_pus=8), HyVEConfig(num_pus=16)
        run = run_cached(PageRank(), workload.graph)
        counts = scheduled_counts(run, workload, a)
        with pytest.raises(ConfigError):
            fold_many(run, counts, workload, [a, b])

    def test_grouping_separates_counts_keys(self, workloads):
        from repro.algorithms.runner import run_cached

        workload = workloads["small"]
        configs = [HyVEConfig(num_pus=8), HyVEConfig(num_pus=16),
                   HyVEConfig(num_pus=8, sram_bits=4 * MB)]
        run = run_cached(PageRank(), workload.graph)
        groups = group_by_counts_key(run, workload, configs)
        # SRAM size is a pricing knob at fixed P: indices 0 and 2 share.
        assert sorted(map(sorted, groups.values())) == [[0, 2], [1]]


class TestFaultFallback:
    def test_faulted_grid_matches_serial(self, workloads):
        workload = workloads["small"]
        faults = make_profile("mild", seed=7)
        configs = [make() for make in NAMED_CONFIGS.values()]
        batched = run_grid(PageRank(), workload, configs, faults=faults)
        for config, result in zip(configs, batched):
            serial = AcceleratorMachine(config, faults=faults).run(
                PageRank(), workload
            )
            _assert_reports_identical(result.report, serial.report)
            assert result.faults is not None


class TestCountsCache:
    def test_counts_key_excludes_pricing_knobs(self, workloads):
        from repro.algorithms.runner import run_cached
        from repro.memory.powergate import PowerGatingPolicy

        workload = workloads["small"]
        run = run_cached(PageRank(), workload.graph)
        base = HyVEConfig()
        priced = HyVEConfig(
            power_gating=PowerGatingPolicy(idle_timeout=5e-6)
        )
        assert (counts_cache_key(run, workload, base)
                == counts_cache_key(run, workload, priced))
        structural = HyVEConfig(data_sharing=False)
        assert (counts_cache_key(run, workload, base)
                != counts_cache_key(run, workload, structural))

    def test_counts_round_trip_through_disk(self, workloads, tmp_path):
        from repro.algorithms.runner import run_cached
        from repro.arch.scheduler import ScheduleCounts

        workload = workloads["small"]
        config = HyVEConfig()
        run = run_cached(PageRank(), workload.graph)
        fresh = ScheduleCounts.compute(run, workload, config)
        previous = get_run_cache()
        try:
            set_run_cache(RunCache(directory=tmp_path))
            first = scheduled_counts(run, workload, config)
            assert first == fresh
            # A cold process (fresh memory level) reads the disk entry.
            set_run_cache(RunCache(directory=tmp_path))
            again = scheduled_counts(run, workload, config)
            assert again == fresh
            stats = get_run_cache().stats
            assert stats.counts_disk_hits == 1
            assert stats.counts_misses == 0
        finally:
            set_run_cache(previous)

    def test_counts_stats_progress(self, workloads):
        workload = workloads["small"]
        cache = get_run_cache()
        misses = cache.stats.counts_misses
        lookups = cache.stats.counts_lookups
        configs = [HyVEConfig(num_pus=4, label="a"),
                   HyVEConfig(num_pus=4, label="b")]
        run_grid(PageRank(), workload, configs)
        assert cache.stats.counts_lookups > lookups
        # Both points share one key: at most one fresh expansion.
        assert cache.stats.counts_misses - misses <= 1
        assert "counts cache:" in cache.stats.counts_summary()


class TestBatchedSweep:
    def _policies(self, **kwargs):
        return (SweepPolicy(batch=True, **kwargs),
                SweepPolicy(batch=False, **kwargs))

    def test_csv_byte_identity(self, small_rmat):
        workload = Workload(small_rmat)
        batched_policy, serial_policy = self._policies()
        a = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB], PageRank,
                  workload, policy=batched_policy)
        b = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB], PageRank,
                  workload, policy=serial_policy)
        assert points_to_csv(a) == points_to_csv(b)

    def test_checkpoint_byte_identity(self, small_rmat, tmp_path):
        workload = Workload(small_rmat)
        ckpt_a = tmp_path / "batched.jsonl"
        ckpt_b = tmp_path / "serial.jsonl"
        values = [4, -1, 8]
        sweep("num_pus", values, PageRank, workload,
              policy=SweepPolicy(batch=True, isolate_errors=True,
                                 checkpoint_path=ckpt_a))
        sweep("num_pus", values, PageRank, workload,
              policy=SweepPolicy(batch=False, isolate_errors=True,
                                 checkpoint_path=ckpt_b))
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        for line in ckpt_a.read_text().splitlines():
            json.loads(line)  # every record stays valid JSON

    def test_faulted_sweep_batches_identically(self, small_rmat):
        from repro.obs import metrics as obs_metrics

        workload = Workload(small_rmat)
        batched_policy, serial_policy = self._policies()
        priced = obs_metrics.get_metrics().counter(
            obs_metrics.FOLD_MANY_CONFIGS
        )
        # A pricing-only axis: every point shares one counts key, so the
        # batched sweep prices all three points in one kernel pass.
        values = [0.5, 0.85, 1.0]
        for profile in ("mild", "harsh", "worn"):
            faults = make_profile(profile, seed=3)
            before = priced.value
            a = sweep("region_hit_rate", values, PageRank, workload,
                      policy=batched_policy, faults=faults)
            assert priced.value - before == len(values), profile
            b = sweep("region_hit_rate", values, PageRank, workload,
                      policy=serial_policy, faults=faults)
            assert points_to_csv(a) == points_to_csv(b), profile


class TestImbalanceMemo:
    def test_lru_stays_bounded(self):
        from repro.arch import scheduler
        from repro.obs import metrics as obs_metrics

        for i in range(scheduler._IMBALANCE_CACHE_CAP + 16):
            scheduler._imbalance_remember((f"fp{i}", 8, True), 1.0 + i)
        assert (len(scheduler._IMBALANCE_CACHE)
                == scheduler._IMBALANCE_CACHE_CAP)
        gauge = obs_metrics.get_metrics().gauge(
            obs_metrics.IMBALANCE_CACHE_SIZE
        )
        assert gauge.value == len(scheduler._IMBALANCE_CACHE)
        # Oldest entries were evicted, newest survive.
        assert ("fp0", 8, True) not in scheduler._IMBALANCE_CACHE
        last = scheduler._IMBALANCE_CACHE_CAP + 15
        assert (f"fp{last}", 8, True) in scheduler._IMBALANCE_CACHE
