"""Tests for the synthetic dataset registry (Table 2 stand-ins)."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.graph import DATASET_ORDER, DATASETS, load, load_all
from repro.graph.datasets import clear_cache
from repro.graph.stats import average_edges_per_nonempty_block
from repro.perf.cache import RunCache

SRC = Path(__file__).resolve().parents[1] / "src"

#: A fresh process's ``workloads()`` against a filled store, with every
#: store read counted and the generator disabled.
WARM_CHILD = """
import json

from repro.experiments.common import workloads
from repro.graph.datasets import DatasetSpec
from repro.perf.cache import get_run_cache
from repro.perf.store import SQLiteStore

reads = []
get_many = SQLiteStore.get_many


def counted(self, keys):
    keys = list(keys)
    reads.append(len(keys))
    return get_many(self, keys)


SQLiteStore.get_many = counted
DatasetSpec.generate = None
graphs = {key: w.graph for key, w in workloads().items()}
stats = get_run_cache().stats
print(json.dumps({
    "reads": reads, "hits": stats.disk_hits, "misses": stats.misses,
    "graphs": {key: [g.name, g.num_vertices, str(g.src.dtype),
                     str(g.dst.dtype), g.fingerprint()]
               for key, g in graphs.items()}}))
"""


class TestRegistry:
    def test_five_datasets_in_paper_order(self):
        assert DATASET_ORDER == ("YT", "WK", "AS", "LJ", "TW")
        assert set(DATASETS) == set(DATASET_ORDER)

    def test_paper_sizes(self):
        assert DATASETS["TW"].paper_edges == 1_470_000_000
        assert DATASETS["YT"].paper_vertices == 1_160_000

    def test_scale_factors_positive(self):
        for spec in DATASETS.values():
            assert spec.scale_factor > 1.0

    def test_vertex_edge_ratio_preserved(self):
        for spec in DATASETS.values():
            paper_ratio = spec.paper_edges / spec.paper_vertices
            synth_ratio = spec.num_edges / spec.num_vertices
            assert synth_ratio == pytest.approx(paper_ratio, rel=0.25)


class TestLoading:
    def test_load_matches_spec(self):
        g = load("YT")
        spec = DATASETS["YT"]
        assert g.num_vertices == spec.num_vertices
        assert g.num_edges == spec.num_edges

    def test_load_caches(self):
        assert load("YT") is load("YT")

    def test_load_case_insensitive(self):
        assert load("yt") is load("YT")

    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            load("nope")

    def test_load_all(self):
        graphs = load_all()
        assert list(graphs) == list(DATASET_ORDER)

    def test_clear_cache_regenerates_identically(self):
        import numpy as np

        a = load("WK")
        clear_cache()
        b = load("WK")
        assert a is not b
        np.testing.assert_array_equal(a.src, b.src)


class TestTable1Calibration:
    """The synthetic graphs must reproduce the paper's N_avg (Table 1)."""

    PAPER = {"YT": 1.44, "WK": 1.23, "AS": 2.38, "LJ": 1.49, "TW": 1.73}

    @pytest.mark.parametrize("key", DATASET_ORDER)
    def test_navg_within_five_percent(self, key):
        navg = average_edges_per_nonempty_block(load(key))
        assert navg == pytest.approx(self.PAPER[key], rel=0.05)

    def test_navg_ordering_matches_paper(self):
        measured = {
            k: average_edges_per_nonempty_block(load(k))
            for k in DATASET_ORDER
        }
        paper_order = sorted(self.PAPER, key=self.PAPER.get)
        measured_order = sorted(measured, key=measured.get)
        assert paper_order == measured_order


class TestDatasetRecords:
    """The evaluation datasets as run-cache records."""

    def test_warm_workloads_read_one_batch(self, tmp_path):
        generated = {key: DATASETS[key].generate() for key in DATASET_ORDER}
        writer = RunCache(directory=tmp_path)
        writer.get_or_datasets([DATASETS[key] for key in DATASET_ORDER],
                               generated.__getitem__)
        assert (writer.stats.misses, writer.stats.stores) == (5, 5)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        proc = subprocess.run([sys.executable, "-c", WARM_CHILD],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        warm = json.loads(proc.stdout.splitlines()[-1])
        assert warm["reads"] == [5]
        assert (warm["hits"], warm["misses"]) == (5, 0)
        assert warm["graphs"] == {
            key: [g.name, g.num_vertices, "int64", "int64", g.fingerprint()]
            for key, g in generated.items()}

    def test_key_follows_generator_arguments(self):
        spec = DATASETS["YT"]
        assert spec.record_key() == replace(spec, full_name="x",
                                            paper_edges=1).record_key()
        for change in ({"seed": 9}, {"rmat_a": 0.6}, {"num_edges": 1},
                       {"key": "XX"}):
            assert replace(spec, **change).record_key() \
                != spec.record_key()
