"""Temporal pricing of an evolving graph (streaming infrastructure).

Not a paper figure — the streaming companion to the Fig. 20 dynamic
throughput study.  The journal version of HyVE evolves the graph
continuously; this experiment drives the whole streaming stack end to
end at CI-friendly scale:

* an append-only :class:`~repro.dynamic.stream.UpdateLog` is replayed
  through a bounded-staleness :class:`~repro.dynamic.stream.StreamEngine`
  while interleaved queries pin the incremental values to from-scratch
  rebuilds (exact for BFS/CC, 1e-12 for PR);
* the same log becomes a :class:`~repro.dynamic.temporal.TemporalGraph`,
  and a handful of snapshots are priced on the accelerator machine —
  the second pricing of each instant must be a run-cache *hit*, because
  ``snapshot_at(t).fingerprint()`` is a pure function of the log prefix;
* the per-snapshot reports fold into one width-weighted energy
  attribution via :func:`~repro.arch.machine.fold_time_slices`.

Every cell is a count, an energy or a check verdict, so the table is
deterministic.  Host throughput (updates/second under the update- and
read-heavy mixes) is measured by ``repro stream``, not here.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import make_algorithm
from ..algorithms.runner import run_vectorized
from ..arch.machine import fold_time_slices, make_machine
from ..dynamic.stream import StreamEngine, generate_update_log
# Unused here: bench/layers.py wraps this module's measure_stream by name.
from ..dynamic.stream import measure_stream  # noqa: F401
from ..dynamic.temporal import TimeSlice
from ..graph.generators import rmat
from ..perf.cache import get_run_cache, temporary_run_cache
from .common import ExperimentResult

NUM_VERTICES = 2_000
NUM_EDGES = 16_000
NUM_UPDATES = 4_000
DELETE_FRACTION = 0.25
NUM_SLICES = 5
MACHINE = "acc+HyVE"
PRICED_ALGORITHM = "pr"


def run(
    num_vertices: int = NUM_VERTICES,
    num_edges: int = NUM_EDGES,
    num_updates: int = NUM_UPDATES,
    num_slices: int = NUM_SLICES,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="temporal",
        title="Time-sliced pricing over a streamed evolving graph",
        headers=["Stage", "Window", "Edges", "Energy (J)", "Check"],
        notes=(
            f"R-MAT |V|={num_vertices} |E|={num_edges} + {num_updates} "
            f"updates ({DELETE_FRACTION:.0%} deletes); snapshots priced "
            f"on {MACHINE} with {PRICED_ALGORITHM.upper()}, folded by "
            "interval width (fold_time_slices); incremental values "
            "pinned to from-scratch rebuilds at every query point"
        ),
    )
    base = rmat(num_vertices, num_edges, seed=10, name="temporal-base")
    log = generate_update_log(base, num_updates, seed=10,
                              delete_fraction=DELETE_FRACTION,
                              name="temporal-stream")
    events = log.to_arrays()

    with temporary_run_cache(""):
        # --- streamed ingest with interleaved conformance queries ----
        engine = StreamEngine(log.num_vertices, k=64, name=log.name)
        points = np.linspace(0, len(log), 4)[1:].astype(int).tolist()
        done = 0
        conforming = True
        for prefix in points:
            engine.ingest(events[done:prefix])
            done = prefix
            snapshot = engine.snapshot()
            for name in engine.algorithms:
                rebuilt = run_vectorized(make_algorithm(name),
                                         snapshot).values
                got = engine.query(name)
                ok = (np.allclose(got, rebuilt, rtol=1e-12, atol=1e-12)
                      if name == "pr" else np.array_equal(got, rebuilt))
                conforming = conforming and ok
        result.add(
            "stream ingest",
            f"t0..t{engine.logical_time}",
            engine.num_edges,
            0.0,
            f"incremental==rebuild: {conforming} "
            f"({engine.stats.rebuilds} rebuilds, "
            f"{engine.stats.incremental_refreshes} incremental)",
        )

        # --- time-sliced pricing through the run cache ---------------
        temporal = log.temporal()
        horizon = engine.logical_time + 1
        bounds = np.linspace(0, horizon, num_slices + 1).astype(int)
        machine = make_machine(MACHINE)
        algorithm = make_algorithm(PRICED_ALGORITHM)
        slices = []
        hits = 0
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            snapshot = temporal.snapshot_at(lo)
            report = machine.run(algorithm, snapshot).report
            before = get_run_cache().stats.memory_hits
            machine.run(algorithm, temporal.snapshot_at(lo))
            hit = get_run_cache().stats.memory_hits > before
            hits += hit
            slices.append(TimeSlice(lo, hi, report))
            result.add(
                f"slice {PRICED_ALGORITHM}",
                f"[t{lo},t{hi})",
                snapshot.num_edges,
                report.total_energy,
                "cache-hit" if hit else "cache-MISS",
            )
        folded = fold_time_slices(slices)
        result.add(
            "folded total",
            f"[t0,t{horizon})",
            "-",
            folded.total_energy,
            f"repriced snapshots hit cache: {hits}/{num_slices}",
        )

    return result
