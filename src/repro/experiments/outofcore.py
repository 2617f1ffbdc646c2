"""Out-of-core execution check: sharded results equal in-memory results.

Not a paper figure — an infrastructure experiment for the scaling path
(docs/scaling.md).  At a CI-friendly scale with live-journal's
edge/vertex ratio it streams an R-MAT graph straight to an on-disk
shard store, runs the three core algorithms out of core, derives the
schedule counts from per-shard partials, and reports every identity the
paper-scale path relies on:

* the shard round trip preserves the graph fingerprint;
* streamed convergence matches ``run_vectorized`` (exactly for the
  min-based algorithms, within the 1e-12 accumulation policy for PR);
* merged per-shard :class:`~repro.arch.scheduler.ScheduleCounts` are
  bit-identical to the whole-graph computation.

Every cell is an iteration count or an identity verdict, so the table is
deterministic; it reports no host throughput.  docs/scaling.md shows the
same calls at paper scale.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..algorithms.runner import run_vectorized
from ..arch.config import NAMED_CONFIGS, Workload
from ..arch.scheduler import clear_imbalance_cache
from ..graph.shards import (run_sharded, sharded_scheduled_counts,
                            sharded_workload, write_rmat_shards)
from ..perf.batch import scheduled_counts
from ..perf.cache import temporary_run_cache
from .common import CORE_ALGORITHM_FACTORIES, ExperimentResult

#: live-journal's shape at ~1/160 scale; ratio 14.2 edges per vertex.
NUM_VERTICES = 30_000
NUM_EDGES = 426_000
SHARD_EDGES = 1 << 16


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="outofcore",
        title="Out-of-core sharded execution vs in-memory (identity check)",
        headers=["Stage", "Iters", "Identical"],
        notes=(
            f"R-MAT |V|={NUM_VERTICES} |E|={NUM_EDGES} "
            f"(live-journal ratio), {SHARD_EDGES} edges/shard; "
            "PR values within 1e-12 (accumulation order), counts and "
            "min-based values bit-identical"
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-outofcore-") as tmp:
        store = write_rmat_shards(
            Path(tmp) / "store", NUM_VERTICES, NUM_EDGES,
            seed=8, shard_edges=SHARD_EDGES,
        )
        graph = store.as_graph()
        # Force a from-bytes fingerprint for the in-memory baseline so
        # the round-trip identity below is a real check, not a replay
        # of the manifest's seeded digest.
        from ..graph.graph import Graph

        baseline = Graph(
            graph.num_vertices, np.array(graph.src), np.array(graph.dst),
            None if graph.weights is None else np.array(graph.weights),
            name=graph.name,
        )
        roundtrip_ok = baseline.fingerprint() == store.fingerprint
        result.add("stream+shard", "-", f"fingerprint={roundtrip_ok}")

        references = {}
        for label, factory in CORE_ALGORITHM_FACTORIES.items():
            reference = references[label] = run_vectorized(factory(),
                                                           baseline)
            with temporary_run_cache():
                streamed = run_sharded(factory(), store)
            exact = (streamed.iterations == reference.iterations
                     and np.array_equal(streamed.values, reference.values))
            close = exact or (
                streamed.iterations == reference.iterations
                and np.allclose(streamed.values, reference.values,
                                rtol=1e-12, atol=0.0)
            )
            tag = "exact" if exact else ("1e-12" if close else "MISMATCH")
            result.add(f"{label} sharded", streamed.iterations, tag)

        config = NAMED_CONFIGS["acc+HyVE"]()
        run_pr = references["PR"]
        with temporary_run_cache():
            clear_imbalance_cache()
            whole = scheduled_counts(run_pr, Workload(graph=baseline), config)
        with temporary_run_cache():
            clear_imbalance_cache()
            merged = sharded_scheduled_counts(
                run_pr, sharded_workload(store), config,
            )
        result.add("counts merge", "-", f"bit-identical={merged == whole}")
    return result
