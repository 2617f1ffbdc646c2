"""Frozen reference reports for the pricing kernels.

``tests/golden/fold-reports.json`` pins every report the HyVE and GraphR
machines price over a fixed grid: each ``NAMED_CONFIGS`` machine x
{pr, bfs, cc, sssp, spmv} x the ``small_rmat`` / ``weighted`` workloads
x protection {none, secded}, plus GraphR on each algorithm x workload.
Each entry holds ``EnergyReport.to_dict()`` with every float stored as
its ``repr``, so the comparison is bit-exact and includes the energy
components' insertion order.

The single-config path (``machine.run``) must reproduce every recorded
entry, and the grid path (``run_grid``, one call per algorithm x
workload) every ideal-device (``none``) entry.

To regenerate after an intentional model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_fold_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.algorithms import make_algorithm
from repro.arch.config import NAMED_CONFIGS, Workload
from repro.arch.graphr import GraphRMachine
from repro.arch.machine import AcceleratorMachine
from repro.perf.batch import run_grid

GOLDEN = Path(__file__).parent / "golden" / "fold-reports.json"

ALGORITHMS = ("pr", "bfs", "cc", "sssp", "spmv")


def _exact(value):
    """JSON view with every float replaced by its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    return value


def _entry(result) -> dict:
    return {"report": _exact(result.report.to_dict())}


def _workloads(small_rmat, weighted_graph) -> dict[str, Workload]:
    return {
        "small_rmat": Workload(small_rmat),
        "weighted": Workload(weighted_graph, reported_vertices=256_000,
                             reported_edges=1_024_000),
    }


def _price_all(workloads) -> tuple[dict, dict]:
    """(entries via machine.run, entries via run_grid), keyed alike."""
    serial: dict[str, dict] = {}
    grid: dict[str, dict] = {}
    configs = [make() for make in NAMED_CONFIGS.values()]
    for workload_name, workload in workloads.items():
        for algorithm in ALGORITHMS:
            batched = run_grid(make_algorithm(algorithm), workload, configs)
            for protection, secded in (("none", False), ("secded", True)):
                for config, result in zip(configs, batched):
                    key = "|".join((config.label, algorithm, workload_name,
                                    protection))
                    serial[key] = _entry(
                        AcceleratorMachine(config, secded=secded).run(
                            make_algorithm(algorithm), workload
                        )
                    )
                    if not secded:
                        grid[key] = _entry(result)
            key = "|".join(("GraphR", algorithm, workload_name, "none"))
            serial[key] = grid[key] = _entry(
                GraphRMachine().run(make_algorithm(algorithm), workload)
            )
    return serial, grid


@pytest.mark.golden
def test_fold_reports_match_golden(small_rmat, weighted_graph):
    serial, grid = _price_all(_workloads(small_rmat, weighted_graph))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(serial, indent=1) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    expected = json.loads(GOLDEN.read_text())
    assert list(serial) == list(expected)
    for key, entry in expected.items():
        # Compare serialised text so dict insertion order counts too.
        want = json.dumps(entry)
        assert json.dumps(serial[key]) == want, f"machine.run drifted: {key}"
        if key in grid:
            assert json.dumps(grid[key]) == want, f"run_grid drifted: {key}"
