"""Parallel execution: run_selected(jobs=...), plus sweep CSV rendering.

The contract under test: fan-out changes wall-clock only.  Experiment
tables must be indistinguishable from a serial run, under ``fork`` and
under ``spawn``.  A ``spawn`` worker starts without the parent's memory,
as a ``forkserver`` worker does.
"""

import concurrent.futures
import multiprocessing

import pytest

from repro.algorithms import PageRank
from repro.arch.config import Workload
from repro.arch.sweep import points_to_csv, sweep
from repro.errors import ConfigError
from repro.graph import rmat


@pytest.fixture(scope="module")
def workload():
    graph = rmat(1024, 8000, seed=41, name="par-sweep")
    return Workload(graph, reported_vertices=1_024_000,
                    reported_edges=8_000_000)


class TestPointsToCsv:
    def test_header_and_failed_rows(self, workload):
        points = sweep("num_pus", [4, -1], PageRank, workload,
                       isolate_errors=True)
        text = points_to_csv(points)
        lines = text.splitlines()
        assert lines[0] == ("field,value,label,energy_j,time_s,"
                            "mteps_per_watt,iterations,edges_streamed,"
                            "error")
        assert len(lines) == 3
        ok_row, bad_row = lines[1], lines[2]
        assert ok_row.startswith("num_pus,4,")
        assert ",,," not in ok_row
        assert "ConfigError" in bad_row


class TestParallelExperiments:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_jobs_matches_serial_tables(self, monkeypatch, method):
        """Two drivers that read ``workloads()``, because a single name
        runs serially and never starts the pool."""
        from repro.experiments import run_selected

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method!r} start method on this platform")
        pool_class = concurrent.futures.ProcessPoolExecutor
        context = multiprocessing.get_context(method)
        started = []

        def pool_with_context(*args, **kwargs):
            started.append(method)
            return pool_class(*args, mp_context=context, **kwargs)

        names = ["table1", "table4"]
        serial = run_selected(names, save=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            pool_with_context)
        fanned = run_selected(names, save=False, jobs=2)
        assert started == [method]
        assert set(serial) == set(fanned)
        for name in names:
            assert fanned[name].format() == serial[name].format()
            assert fanned[name].to_csv() == serial[name].to_csv()

    def test_jobs_validated(self):
        from repro.experiments import run_selected

        with pytest.raises(ConfigError):
            run_selected(["table3"], save=False, jobs=0)

    def test_unknown_name_rejected(self):
        from repro.experiments import run_selected

        with pytest.raises(ConfigError):
            run_selected(["fig99"], save=False)


class TestWorkerInitializer:
    """``attach_workloads`` is the pool initializer; its argument is the
    parent's ``workloads()`` dict."""

    def test_inherited_cache_is_kept(self, monkeypatch):
        from repro.experiments import common

        inherited = {"XX": Workload(rmat(64, 256, seed=3, name="xx"))}
        monkeypatch.setattr(common, "_WORKLOADS", dict(inherited))
        parent = {"YY": Workload(rmat(64, 256, seed=4, name="yy"))}
        common.attach_workloads(parent)
        assert common._WORKLOADS == inherited

    def test_empty_cache_filled_without_regenerating(self, monkeypatch):
        from repro.experiments import common

        def regenerate(key):
            raise AssertionError(f"worker regenerated dataset {key}")

        monkeypatch.setattr(common, "_WORKLOADS", {})
        monkeypatch.setattr(Workload, "from_dataset",
                            staticmethod(regenerate))
        parent = {"XX": Workload(rmat(64, 256, seed=3, name="xx"))}
        common.attach_workloads(parent)
        assert common.workloads() == parent
        assert common.workloads()["XX"] is parent["XX"]
