"""Tests for the experiment drivers: shape and headline claims.

These tests pin the *reproduced trends* of every figure/table —
orderings, crossovers and approximate factors — not exact numbers.
They read the tables of the session's one ``run_selected`` pass (the
``experiment_results`` fixture), which ``test_results_golden.py`` also
byte-compares with ``results/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    fig16,
    fig17,
    fig20,
    fig21,
    table4,
)
from repro.experiments.common import geomean
from repro.perf.cache import temporary_run_cache

SRC = Path(__file__).resolve().parents[1] / "src"

#: Regenerates fig20 against ``$REPRO_CACHE_DIR`` in a fresh process and
#: reports the CSV, the counts lookups and the store reads it took.
FIG20_CHILD = """
import json

from repro.experiments import fig20
from repro.perf.cache import get_run_cache
from repro.perf.store import SQLiteStore

reads = []
get_many = SQLiteStore.get_many


def counted(self, keys):
    keys = list(keys)
    reads.append(len(keys))
    return get_many(self, keys)


SQLiteStore.get_many = counted
# A warm pass neither counts nor subsamples.
fig20.compare_dynamic_throughput = fig20._capped = None
csv = fig20.run().to_csv()
stats = get_run_cache().stats
print(json.dumps({"csv": csv, "reads": reads,
                  "hits": stats.counts_disk_hits,
                  "misses": stats.counts_misses}))
"""


class TestExperimentResult:
    def test_add_validates_column_count(self):
        r = ExperimentResult("x", "t", ["a", "b"])
        with pytest.raises(ValueError):
            r.add(1)

    def test_column_extraction(self):
        r = ExperimentResult("x", "t", ["a", "b"])
        r.add(1, 2)
        r.add(3, 4)
        assert r.column("b") == [2, 4]

    def test_format_renders_headers_and_rows(self):
        r = ExperimentResult("x", "some title", ["col"], notes="hello")
        r.add(3.14159)
        text = r.format()
        assert "some title" in text
        assert "col" in text
        assert "3.14" in text
        assert "hello" in text

    def test_save(self, tmp_path):
        r = ExperimentResult("x", "t", ["a"])
        r.add(1)
        path = r.save(tmp_path)
        assert path.read_text().startswith("== x: t ==")


class TestRegistry:
    def test_every_figure_and_table_present(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
        }
        assert expected <= set(ALL_EXPERIMENTS)

    def test_ablations_present(self):
        assert "ablation_interleaving" in ALL_EXPERIMENTS
        assert "ablation_bpg_timeout" in ALL_EXPERIMENTS
        assert "ablation_pu_count" in ALL_EXPERIMENTS
        assert "ablation_execution_model" in ALL_EXPERIMENTS
        assert "ablation_density" in ALL_EXPERIMENTS

    def test_resilience_present(self):
        assert "resilience" in ALL_EXPERIMENTS


class TestRunAllIsolation:
    def test_failing_driver_isolated(self, monkeypatch, tmp_path):
        import repro.experiments as experiments

        def boom():
            raise RuntimeError("driver exploded")

        def ok():
            return ExperimentResult("ok_exp", "fine", ["v"], rows=[[1]])

        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS",
                            {"boom": boom, "ok_exp": ok})
        out = experiments.run_all(save=False, isolate_errors=True)
        assert set(out) == {"boom", "ok_exp"}
        assert out["boom"].title.startswith("FAILED")
        assert "driver exploded" in out["boom"].rows[0][0]
        assert out["ok_exp"].rows == [[1]]

    def test_failing_driver_raises_without_isolation(self, monkeypatch):
        import repro.experiments as experiments

        def boom():
            raise RuntimeError("driver exploded")

        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", {"boom": boom})
        with pytest.raises(RuntimeError):
            experiments.run_all(save=False)


class TestWarmPass:
    #: Drivers that price under a scratch ``temporary_run_cache`` by
    #: design, so they miss on every pass.
    SCRATCH_CACHE_DRIVERS = {"outofcore", "temporal"}

    def test_filled_store_recomputes_nothing(self, experiment_results):
        # A second pass through a fresh RunCache on the session's store:
        # same tables, and no run or counts lookup misses outside the
        # drivers' own scratch caches.
        from repro.experiments import run_selected
        from repro.obs.metrics import (CACHE_MISSES, COUNTS_CACHE_MISSES,
                                       MetricsRegistry, get_metrics,
                                       set_metrics)
        from repro.perf.cache import RunCache, get_run_cache, set_run_cache

        previous_cache, previous_metrics = get_run_cache(), get_metrics()
        warm = RunCache()
        set_run_cache(warm)
        missed = {}
        try:
            for name in ALL_EXPERIMENTS:
                registry = MetricsRegistry()
                set_metrics(registry)
                table = run_selected([name], save=False)[name]
                assert table.to_csv() == experiment_results[name].to_csv()
                missed[name] = (registry.counter(CACHE_MISSES).value,
                                registry.counter(COUNTS_CACHE_MISSES).value)
        finally:
            set_run_cache(previous_cache)
            set_metrics(previous_metrics)
        assert {name for name, counts in missed.items() if any(counts)} \
            <= self.SCRATCH_CACHE_DRIVERS, missed
        assert (warm.stats.misses, warm.stats.counts_misses) == (0, 0)


class TestTable1:
    def test_navg_close_to_paper(self, experiment_results):
        result = experiment_results["table1"]
        for row in result.rows:
            _, measured, paper = row
            assert measured == pytest.approx(paper, rel=0.05)


class TestTable3:
    def test_energy_optimized_512_minimises_power_per_bit(
            self, experiment_results):
        result = experiment_results["table3"]
        powers = result.column("Power/bit (mW/bit)")
        targets = result.column("Target")
        bits = result.column("Output bits")
        best = powers.index(min(powers))
        assert targets[best] == "energy-optimized"
        assert bits[best] == 512


class TestTable4:
    @pytest.fixture
    def result(self, experiment_results):
        return experiment_results["table4"]

    def test_full_sweep_shape(self, result):
        assert len(result.rows) == 15           # 3 algos x 5 datasets
        assert len(result.headers) == 2 + 16    # 4 groups x 4 sizes

    def test_sweet_spots_match_paper(self, result):
        spots = table4.sweet_spots(result)
        # Section 7.2.3: 4 MB without sharing, 2 MB with sharing.
        assert spots["w/o PG, w/o sharing"] == 4
        assert spots["w/ PG, w/ sharing"] == 2

    def test_sharing_with_pg_wins_everywhere_at_2mb(self, result):
        best = result.column("w/ PG, w/ sharing 2MB")
        base = result.column("w/o PG, w/o sharing 2MB")
        assert all(b > a for a, b in zip(base, best))


class TestFig14:
    @pytest.fixture
    def result(self, experiment_results):
        return experiment_results["fig14"]

    def test_sharing_always_helps(self, result):
        for row in result.rows:
            ratios = row[1:6]
            assert all(r > 1.0 for r in ratios)

    def test_pr_gains_most(self, result):
        means = {row[0]: row[6] for row in result.rows}
        assert means["PR"] > means["CC"]
        assert means["PR"] > means["BFS"]


class TestFig15:
    @pytest.fixture
    def result(self, experiment_results):
        return experiment_results["fig15"]

    def test_average_gain_near_paper(self, result):
        all_ratios = [r for row in result.rows for r in row[1:6]]
        assert geomean(all_ratios) == pytest.approx(1.53, rel=0.25)

    def test_gating_never_hurts(self, result):
        for row in result.rows:
            assert all(r >= 1.0 for r in row[1:6])


class TestFig16:
    @pytest.fixture
    def ratios(self, experiment_results):
        return fig16.opt_ratios(experiment_results["fig16"])

    def test_opt_vs_dram_several_fold(self, ratios):
        # Paper: 5.90x.
        assert 4.0 < ratios["acc+DRAM"] < 12.0

    def test_opt_vs_sd_about_two(self, ratios):
        # Paper: 2.00x.
        assert 1.5 < ratios["acc+SRAM+DRAM"] < 3.0

    def test_opt_vs_cpu_two_orders(self, ratios):
        # Paper: 145.71x.
        assert 80 < ratios["CPU+DRAM"] < 260

    def test_reram_swap_alone_helps_modestly(self, ratios):
        # acc+ReRAM beats acc+DRAM but by far less than HyVE does.
        gain = ratios["acc+DRAM"] / ratios["acc+ReRAM"]
        assert 1.05 < gain < 2.5

    def test_full_ordering(self, ratios):
        assert (
            ratios["CPU+DRAM"]
            > ratios["acc+DRAM"]
            > ratios["acc+ReRAM"]
            > ratios["acc+SRAM+DRAM"]
            > ratios["acc+HyVE"]
            > 1.0
        )


class TestFig17:
    @pytest.fixture
    def result(self, experiment_results):
        return experiment_results["fig17"]

    def test_memory_share_drops_with_each_optimisation(self, result):
        shares = {"SD": [], "HyVE": [], "opt": []}
        for row in result.rows:
            shares[row[0]].append(row[6])
        sd = sum(shares["SD"]) / len(shares["SD"])
        hyve = sum(shares["HyVE"]) / len(shares["HyVE"])
        opt = sum(shares["opt"]) / len(shares["opt"])
        assert sd > hyve > opt

    def test_sd_memory_share_near_paper(self, result):
        sd_shares = [row[6] for row in result.rows if row[0] == "SD"]
        mean = sum(sd_shares) / len(sd_shares)
        assert mean == pytest.approx(88.62, abs=8.0)  # percent

    def test_memory_energy_reduction(self):
        reductions = fig17.memory_reduction()
        # Paper: 57.57% (HyVE) and 86.17% (opt).
        assert 25 < reductions["HyVE"] < 70
        assert 45 < reductions["opt"] < 95
        assert reductions["opt"] > reductions["HyVE"]


class TestFig18:
    @pytest.fixture
    def result(self, experiment_results):
        return experiment_results["fig18"]

    def test_hyve_slightly_slower(self, result):
        for row in result.rows:
            ratios = row[1:6]
            assert all(0.7 < r <= 1.0 for r in ratios)

    def test_slowdowns_in_paper_band(self, result):
        # Paper: 1.9% (BFS) to 15.1% (PR) slowdown.
        for row in result.rows:
            assert 0.0 < row[7] < 20.0


class TestFig19:
    def test_graphr_preprocessing_several_fold_slower(
            self, experiment_results):
        result = experiment_results["fig19"]
        for row in result.rows:
            assert 2.5 < row[1] < 12.0
        values = result.column("GraphR/HyVE")
        assert sum(values) / len(values) == pytest.approx(6.73, rel=0.35)


class TestFig20:
    def test_same_bytes_from_empty_and_filled_store(self, tmp_path):
        with temporary_run_cache(tmp_path):
            cold = fig20.run().to_csv()
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        proc = subprocess.run([sys.executable, "-c", FIG20_CHILD],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        warm = json.loads(proc.stdout.splitlines()[-1])
        assert warm["csv"] == cold
        # One batched store read for the five dataset records, then one
        # for the five counts records.
        assert warm["reads"] == [5, 5]
        assert (warm["hits"], warm["misses"]) == (5, 0)

    def test_a_hit_never_subsamples(self, monkeypatch):
        with temporary_run_cache() as cache:
            first = fig20.counts(num_requests=200)
            monkeypatch.setattr(fig20, "_capped", None)
            assert fig20.counts(num_requests=200) == first
        assert (cache.stats.counts_misses,
                cache.stats.counts_memory_hits) == (5, 5)


class TestFig21:
    @pytest.fixture
    def result(self, experiment_results):
        return experiment_results["fig21"]

    @pytest.fixture
    def averages(self, result):
        return fig21.averages(result)

    def test_hyve_faster(self, averages):
        assert averages["delay"] == pytest.approx(5.12, rel=0.5)

    def test_hyve_less_energy(self, averages):
        assert averages["energy"] == pytest.approx(2.83, rel=0.5)

    def test_edp_order_of_magnitude(self, averages):
        assert averages["edp"] == pytest.approx(17.63, rel=0.6)

    def test_hyve_wins_every_cell(self, result):
        for row in result.rows:
            assert row[2] > 1.0  # delay
            assert row[3] > 1.0  # energy
            assert row[4] > 1.0  # EDP


class TestResultExports:
    @pytest.fixture
    def result(self):
        r = ExperimentResult("exp", "title", ["name", "value"])
        r.add("a", 1.23456)
        r.add("b", 7)
        return r

    def test_csv(self, result):
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1].startswith("a,")

    def test_save_csv(self, result, tmp_path):
        path = result.save_csv(tmp_path)
        assert path.suffix == ".csv"
        assert "name,value" in path.read_text()

    def test_markdown(self, result):
        md = result.to_markdown()
        assert md.splitlines()[0] == "| name | value |"
        assert "| a | 1.235 |" in md


class TestCheapDriverSchemas:
    """Every cheap driver returns non-empty, well-formed rows."""

    @pytest.mark.parametrize(
        "name",
        ["table1", "table2", "table3", "fig09", "fig12", "fig13",
         "fig15", "fig18", "fig19", "ablation_interleaving",
         "ablation_bpg_timeout"],
    )
    def test_driver(self, experiment_results, name):
        result = experiment_results[name]
        assert result.rows
        assert all(len(row) == len(result.headers) for row in result.rows)
        assert result.format()
