"""Tests for simulate-once / price-many batched evaluation.

The contract under test is *bit-identity*: the memoized counts plus the
vectorized fold must reproduce the serial pipeline exactly — same
report fields, same energy-dict insertion order, same ``repr`` of every
float — across machines, algorithms, workloads, and the sweep driver.
"""

import dataclasses
import json

import pytest

from repro.algorithms import ConnectedComponents, PageRank
from repro.algorithms.runner import run_cached
from repro.arch.config import NAMED_CONFIGS, HyVEConfig, Workload
from repro.arch.machine import AcceleratorMachine, fold_many
from repro.arch.sweep import SweepPoint, points_to_csv, sweep
from repro.errors import ConfigError
from repro.memory.powergate import PowerGatingPolicy
from repro.perf.batch import (
    counts_cache_key,
    group_by_counts_key,
    price_grid,
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


@pytest.fixture
def disk_cache(tmp_path):
    """A fresh disk-backed process-wide cache for one test."""
    previous = get_run_cache()
    cache = RunCache(directory=tmp_path / "cache")
    set_run_cache(cache)
    yield cache
    set_run_cache(previous)


def _three_key_grid() -> list[HyVEConfig]:
    """Four configs over three counts keys: PU count and hash placement
    change the schedule, the BPG timeout only the pricing."""
    return [
        HyVEConfig(label="n8"),
        HyVEConfig(num_pus=4, label="n4"),
        HyVEConfig(hash_placement=False, label="n8-no-hash"),
        HyVEConfig(power_gating=PowerGatingPolicy(idle_timeout=5e-6),
                   label="n8-5us"),
    ]


def _rewarm_run(cache, workload) -> None:
    """Drop the memory level, then reload the converged run, so the next
    grid reads nothing but its counts from the store."""
    cache.clear(disk=False)
    run_cached(PageRank(), workload.graph)


class TestBatchedCountsRead:
    def test_warm_grid_reads_store_once(self, workloads, disk_cache):
        workload = workloads["small"]
        configs = _three_key_grid()
        run = run_cached(PageRank(), workload.graph)
        assert len(group_by_counts_key(run, workload, configs)) == 3
        price_grid(PageRank(), workload, configs)
        _rewarm_run(disk_cache, workload)
        conn = disk_cache._disk()._connection()
        statements: list[str] = []
        conn.set_trace_callback(statements.append)
        try:
            price_grid(PageRank(), workload, configs)
        finally:
            conn.set_trace_callback(None)
        selects = [s for s in statements
                   if s.startswith("SELECT") and "FROM entries" in s]
        assert len(selects) == 1
        assert statements.count("COMMIT") == 1
        assert disk_cache.stats.counts_disk_hits == 3

    def test_empty_grid_touches_no_store(self, workloads, disk_cache):
        conn = disk_cache._disk()._connection()
        statements: list[str] = []
        conn.set_trace_callback(statements.append)
        try:
            price_grid(PageRank(), workloads["small"], [])
        finally:
            conn.set_trace_callback(None)
        assert statements == []

    def test_corrupt_row_in_batch(self, workloads, disk_cache, tmp_path):
        from repro.obs import metrics as obs_metrics

        workload = workloads["small"]
        configs = _three_key_grid()
        set_run_cache(RunCache(directory=tmp_path / "clean"))
        clean = run_grid(PageRank(), workload, configs)
        set_run_cache(disk_cache)
        run_grid(PageRank(), workload, configs)
        store = disk_cache._disk()
        keys = store.keys(kind="counts")
        assert len(keys) == 3
        conn = store._connection()
        conn.execute("UPDATE entries SET last_used_at=0")
        conn.commit()
        assert store.corrupt_bit(keys[1], 77)
        _rewarm_run(disk_cache, workload)
        mismatches = obs_metrics.get_metrics().counter(
            obs_metrics.STORE_CHECKSUM_MISMATCHES)
        before = mismatches.value
        stats = dataclasses.replace(disk_cache.stats)

        results = run_grid(PageRank(), workload, configs)

        assert mismatches.value == before + 1
        assert disk_cache.stats.counts_disk_hits == stats.counts_disk_hits + 2
        assert disk_cache.stats.counts_misses == stats.counts_misses + 1
        used = dict(conn.execute(
            "SELECT key, last_used_at FROM entries WHERE kind='counts'"))
        # Served rows were touched; the damaged one was recomputed and
        # overwritten with a checksum-clean payload.
        assert set(used) == set(keys)
        assert all(stamp > 0 for stamp in used.values())
        assert store.verify().clean
        for got, want in zip(results, clean):
            _assert_reports_identical(got.report, want.report)

    @pytest.mark.parametrize("damage", ["missing-field", "non-numeric"])
    def test_unparseable_record_is_recomputed(self, workloads, disk_cache,
                                              damage):
        workload = workloads["small"]
        config = HyVEConfig()
        [expected] = run_grid(PageRank(), workload, [config])
        store = disk_cache._disk()
        [key] = store.keys(kind="counts")
        entry = json.loads(store.get(key))
        if damage == "missing-field":
            del entry["counts"]["imbalance"]
        else:
            entry["counts"] = dict.fromkeys(entry["counts"], "x")
        # A well-formed, checksummed entry that is not a ScheduleCounts.
        store.put(key, json.dumps(entry).encode(), kind="counts")
        _rewarm_run(disk_cache, workload)
        stats = dataclasses.replace(disk_cache.stats)

        [result] = run_grid(PageRank(), workload, [config])

        _assert_reports_identical(result.report, expected.report)
        assert disk_cache.stats.errors == stats.errors + 1
        assert disk_cache.stats.counts_misses == stats.counts_misses + 1
        assert disk_cache.stats.counts_disk_hits == stats.counts_disk_hits
        # The bad entry was overwritten with the recomputed record.
        disk_cache.clear(disk=False)
        again = scheduled_counts(run_cached(PageRank(), workload.graph),
                                 workload, config)
        assert disk_cache.stats.counts_disk_hits == 1
        assert json.loads(store.get(key))["counts"] == dataclasses.asdict(
            again)


class TestBatchedSweep:
    def test_csv_byte_identity(self, small_rmat):
        """The one-``run_grid`` sweep renders exactly like a ``run()``
        loop over the same values."""
        workload = Workload(small_rmat)
        values = [2 * MB, 4 * MB, 8 * MB]
        swept = sweep("sram_bits", values, PageRank, workload)
        direct = []
        for value in values:
            config = HyVEConfig(sram_bits=value, label=f"sram_bits={value}")
            report = AcceleratorMachine(config).run(PageRank(),
                                                    workload).report
            direct.append(SweepPoint("sram_bits", value, config, report))
        assert points_to_csv(swept) == points_to_csv(direct)


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
