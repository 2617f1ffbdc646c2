"""Frozen attribution events of a traced grid fold.

``tests/golden/fold-trace.json`` pins the ``phase_time``, ``energy``,
``phase_detail`` and ``report`` events the HyVE pricing kernel emits
while tracing, plus their :func:`fold_records` totals, for a small grid
that mixes BPG-gated and ungated ReRAM edges, DRAM edges and
scratchpad-less machines, with and without SECDED protection.  Floats
are stored as their ``repr``, so the comparison is bit-exact and
includes event order and tag order.

A per-config ``machine.run`` loop must reproduce every recorded entry,
and the grid path (``run_grid``) every ideal-device (``none``) entry.

To regenerate after an intentional model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_fold_trace_golden.py
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms import make_algorithm
from repro.arch.config import NAMED_CONFIGS, Workload
from repro.arch.machine import AcceleratorMachine
from repro.memory.powergate import PowerGatingPolicy
from repro.obs import fold_records, get_tracer, set_tracer
from repro.perf.batch import run_grid
from repro.units import US

GOLDEN = Path(__file__).parent / "golden" / "fold-trace.json"

ALGORITHMS = ("pr", "bfs")
ATTRIBUTION_EVENTS = ("phase_time", "energy", "phase_detail", "report")


def _exact(value):
    """JSON view with every float replaced by its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    return value


def _grid() -> list:
    """Named machines plus gating, interleaving and hit-rate variants.

    ``run_grid`` prices the whole grid in one kernel pass and emits
    reports in list order, like the ``machine.run`` loop.
    """
    named = {name: make() for name, make in NAMED_CONFIGS.items()}
    opt, reram = named["acc+HyVE-opt"], named["acc+ReRAM"]
    return [
        opt,
        named["acc+HyVE"],
        named["acc+SRAM+DRAM"],
        replace(opt, label="opt-bank-interleaved",
                reram=replace(opt.reram, subbank_interleaving=False)),
        replace(opt, label="opt-timeout-5us",
                power_gating=PowerGatingPolicy(idle_timeout=5.0 * US)),
        named["acc+DRAM"],
        reram,
        replace(reram, label="reram-gated",
                power_gating=PowerGatingPolicy()),
        replace(named["acc+DRAM"], label="dram-hit-0.7",
                region_hit_rate=0.7),
    ]


def _traced(price) -> list[dict]:
    """Records ``price()`` writes into a fresh in-memory trace."""
    sink = io.StringIO()
    set_tracer(None)
    tracer = get_tracer()
    tracer.start(sink)
    try:
        price()
    finally:
        tracer.stop()
        set_tracer(None)
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def _events(records: list[dict]) -> list:
    return [[r["name"], _exact(r.get("tags", {}))] for r in records
            if r["kind"] == "event" and r["name"] in ATTRIBUTION_EVENTS]


def _totals(records: list[dict]) -> dict:
    attribution = fold_records(records)
    return _exact({
        "time_s": attribution.time_s,
        "energy_j": attribution.energy_j,
        "reports": len(attribution.reports),
        "reported_time_s": attribution.reported_time_s,
        "reported_energy_j": attribution.reported_energy_j,
    })


def _record_all(workload: Workload) -> tuple[dict, dict]:
    """(entries via a machine.run loop, ideal entries via run_grid)."""
    configs = _grid()
    grid: dict[str, dict] = {}
    serial: dict[str, dict] = {}
    for algorithm in ALGORITHMS:
        for protection, secded in (("none", False), ("secded", True)):
            key = f"{algorithm}|{protection}"
            records = _traced(lambda: [
                AcceleratorMachine(config, secded=secded).run(
                    make_algorithm(algorithm), workload
                )
                for config in configs
            ])
            serial[key] = {"events": _events(records),
                           "totals": _totals(records)}
            if not secded:
                records = _traced(lambda: run_grid(
                    make_algorithm(algorithm), workload, configs
                ))
                grid[key] = {"events": _events(records),
                             "totals": _totals(records)}
    return serial, grid


@pytest.mark.golden
def test_fold_trace_matches_golden(weighted_graph):
    workload = Workload(weighted_graph, reported_vertices=256_000,
                        reported_edges=1_024_000)
    serial, grid = _record_all(workload)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(serial, indent=1) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    expected = json.loads(GOLDEN.read_text())
    assert list(serial) == list(expected)
    for key, entry in expected.items():
        want = json.dumps(entry)
        assert json.dumps(serial[key]) == want, (
            f"machine.run trace drifted: {key}"
        )
        if key in grid:
            assert json.dumps(grid[key]) == want, (
                f"run_grid trace drifted: {key}")
