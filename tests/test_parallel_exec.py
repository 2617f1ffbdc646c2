"""Parallel execution: run_selected(jobs=...), plus sweep CSV rendering.

The contract under test: fan-out changes wall-clock only.  Experiment
tables must be indistinguishable from a serial run.
"""

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
    def test_jobs_matches_serial_tables(self):
        from repro.experiments import run_selected

        names = ["table3"]
        serial = run_selected(names, save=False)
        fanned = run_selected(names, save=False, jobs=2)
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
