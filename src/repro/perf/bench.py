"""Wall-clock timing harness for the experiment drivers.

Records per-experiment and total wall-clock (plus run-cache statistics)
into a JSON payload, written as ``BENCH_<n>.json`` at the repo root so
each PR leaves a perf trajectory the next one can regress against::

    PYTHONPATH=src python tools/bench.py --output BENCH_2.json
    PYTHONPATH=src python tools/bench.py --jobs 4 --experiments fig20 fig21

Timing is wall-clock (``time.perf_counter``), not CPU time: the point
is the end-to-end latency an operator experiences, including process
fan-out and cache I/O.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

#: Schema version of the BENCH_*.json payload.
BENCH_SCHEMA = 1


def _timed_experiment_worker(name: str) -> tuple[str, float]:
    """Run one experiment driver in this (possibly worker) process.

    Returns ``(name, seconds)``; the table itself is discarded — the
    harness times, it does not collect results.
    """
    from ..experiments import ALL_EXPERIMENTS

    start = time.perf_counter()
    ALL_EXPERIMENTS[name]()
    return name, time.perf_counter() - start


def bench_experiments(
    names: Sequence[str] | None = None,
    jobs: int = 1,
) -> dict:
    """Time experiment drivers; returns the BENCH payload dict.

    With ``jobs > 1`` the drivers fan out over a process pool (the same
    machinery as ``run_all(jobs=...)``); per-experiment times are then
    measured inside each worker, and ``total_s`` is the end-to-end
    wall-clock including the fan-out overhead.
    """
    from ..experiments import ALL_EXPERIMENTS
    from .cache import get_run_cache

    chosen = list(names) if names else list(ALL_EXPERIMENTS)
    unknown = [n for n in chosen if n not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")

    per_experiment: dict[str, float] = {}
    start = time.perf_counter()
    if jobs <= 1:
        for name in chosen:
            _, seconds = _timed_experiment_worker(name)
            per_experiment[name] = seconds
    else:
        import concurrent.futures

        from ..experiments.common import attach_workloads, share_workloads

        # Same parent prewarm + shared-memory publish as
        # run_selected(jobs=...): forked workers inherit the datasets,
        # other start methods attach the shared segments.
        manifest = share_workloads()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(chosen)),
            initializer=attach_workloads, initargs=(manifest,),
        ) as pool:
            futures = {
                name: pool.submit(_timed_experiment_worker, name)
                for name in chosen
            }
            for name in chosen:
                _, seconds = futures[name].result()
                per_experiment[name] = seconds
    total = time.perf_counter() - start

    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "experiments": per_experiment,
        "total_s": total,
        "cache": get_run_cache().info(),
    }


def bench_sweep_scenario(
    densities_gbit: Sequence[int] = (4, 8, 16, 32),
    timeouts_us: Sequence[float] = (0.1, 0.2, 0.5, 1.0, 5.0, 20.0,
                                    50.0, 100.0),
    repeats: int = 5,
) -> dict:
    """Time a density x BPG-timeout grid: serial pricing vs batch.

    The grid (default 4 x 8 = 32 points) sweeps pure pricing knobs, so
    every point shares one schedule-counts expansion.  Three timed
    passes over identical points:

    * ``serial_s`` — the per-point pipeline: a loop of
      :meth:`AcceleratorMachine.run`, one single-config pricing pass
      per point.
    * ``batch_cold_s`` — :func:`repro.perf.batch.run_grid` with empty
      counts/device memos (first batched evaluation in a process).
    * ``batch_warm_s`` — the same call again, memos warm.

    The convergence itself is untimed setup shared by all passes
    (simulate once is the premise, not the claim under test); the run
    cache is swapped to a fresh private temporary directory per
    repetition so resident state cannot skew the cold pass.  Each pass
    repeats ``repeats`` times and reports summed wall-clock — the
    individual passes are millisecond-scale, so a single measurement
    would be noise-dominated on shared CI runners.
    """
    import tempfile

    from ..algorithms import PageRank
    from ..algorithms.runner import run_cached
    from ..arch import machine as machine_mod
    from ..arch.config import HyVEConfig, Workload
    from ..arch.machine import AcceleratorMachine
    from ..graph.generators import rmat
    from ..memory.dram import DRAMConfig
    from ..memory.powergate import PowerGatingPolicy
    from ..memory.reram import ReRAMConfig
    from ..units import GBIT, US
    from .batch import run_grid
    from .cache import RunCache, get_run_cache, set_run_cache

    configs = [
        HyVEConfig(
            label=f"d{d}-t{t:g}",
            reram=ReRAMConfig(density_bits=d * GBIT),
            dram=DRAMConfig(density_bits=d * GBIT),
            power_gating=PowerGatingPolicy(idle_timeout=t * US),
        )
        for d in densities_gbit
        for t in timeouts_us
    ]
    graph = rmat(4096, 32768, seed=42, name="bench-sweep")
    workload = Workload(graph, reported_vertices=4_096_000,
                        reported_edges=32_768_000)

    previous = get_run_cache()
    algorithm = PageRank()
    serial_s = batch_cold_s = batch_warm_s = 0.0
    counts_stats: dict = {}
    try:
        for _ in range(max(repeats, 1)):
            scratch = tempfile.mkdtemp(prefix="repro-bench-sweep-")
            set_run_cache(RunCache(directory=scratch))
            run = run_cached(algorithm, workload.graph)  # untimed setup

            start = time.perf_counter()
            for config in configs:
                AcceleratorMachine(config).run(algorithm, workload)
            serial_s += time.perf_counter() - start

            machine_mod.clear_device_memos()
            start = time.perf_counter()
            run_grid(algorithm, workload, configs)
            batch_cold_s += time.perf_counter() - start

            start = time.perf_counter()
            run_grid(algorithm, workload, configs)
            batch_warm_s += time.perf_counter() - start

            counts_stats = get_run_cache().stats.to_dict()
    finally:
        set_run_cache(previous)

    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "scenario": "sweep",
        "points": len(configs),
        "repeats": max(repeats, 1),
        "densities_gbit": list(densities_gbit),
        "timeouts_us": list(timeouts_us),
        "serial_s": serial_s,
        "batch_cold_s": batch_cold_s,
        "batch_warm_s": batch_warm_s,
        "speedup_cold": serial_s / batch_cold_s,
        "speedup_warm": serial_s / batch_warm_s,
        "counts_cache": {
            k: v for k, v in counts_stats.items()
            if k.startswith("counts_")
        },
    }


def bench_tune_scenario(repeats: int = 3) -> dict:
    """Autotuner throughput + guided-engine regret.

    Two claims under test (ISSUE 9 acceptance):

    * **Throughput** — the exhaustive engine over a 360-point
      pricing-only space (one counts key) must price >=10^4
      configurations/second once the counts cache is warm.  One cold
      search is untimed setup (it pays convergence + the counts
      expansion); ``repeats`` warm searches are timed end-to-end,
      including Pareto extraction.
    * **Regret** — the guided engine on a small enumerable mixed space
      must have *zero* regret vs exhaustive at full budget (identical
      frontier), and its reduced-budget EDP regret is recorded for
      trend tracking (not gated: halving legitimately trades a little
      quality for budget).
    """
    import tempfile

    from ..algorithms import PageRank
    from ..algorithms.runner import run_cached
    from ..arch import machine as machine_mod
    from ..arch.config import Workload
    from ..graph.generators import rmat
    from ..tune import SearchSpace, exhaustive_search, guided_search
    from .cache import RunCache, get_run_cache, set_run_cache

    pricing_space = SearchSpace.from_axes({
        "region_hit_rate": (0.5, 0.7, 0.85, 0.95, 1.0),
        "density_gbit": (4, 8, 16, 32),
        "bpg_timeout_us": (0.1, 0.5, 1.0, 5.0, 20.0, 100.0),
        "random_access_mlp": (4, 8, 16),
    })  # 5 x 4 x 6 x 3 = 360 configs sharing one counts key
    guided_space = SearchSpace.from_axes({
        "machine": ("acc+HyVE-opt", "acc+DRAM"),
        "num_pus": (4, 8),
        "region_hit_rate": (0.7, 0.85, 1.0),
        "density_gbit": (4, 8),
    })  # 24 configs over 4 counts keys — small enough to enumerate
    graph = rmat(4096, 32768, seed=42, name="bench-tune")
    workload = Workload(graph, reported_vertices=4_096_000,
                        reported_edges=32_768_000)
    algorithm = PageRank()

    previous = get_run_cache()
    repeats = max(repeats, 1)
    warm_s = cold_s = 0.0
    frontier_size = 0
    try:
        scratch = tempfile.mkdtemp(prefix="repro-bench-tune-")
        set_run_cache(RunCache(directory=scratch))
        machine_mod.clear_device_memos()
        run_cached(algorithm, workload.graph)  # untimed convergence

        start = time.perf_counter()
        exhaustive_search(algorithm, workload, pricing_space)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(repeats):
            frontier = exhaustive_search(algorithm, workload,
                                         pricing_space)
            frontier_size = len(frontier)
        warm_s = time.perf_counter() - start
        configs_per_s = pricing_space.size * repeats / warm_s

        exhaustive = exhaustive_search(algorithm, workload, guided_space)
        full = guided_search(algorithm, workload, guided_space,
                             budget=guided_space.size, seed=0)

        def frontier_key(f):
            return [(p.index, p.label, p.time, p.energy, p.edp)
                    for p in f.points]

        def best_edp(f):
            return min(p.edp for p in f.points)

        reduced_budget = max(guided_space.size // 3, 2)
        reduced = guided_search(algorithm, workload, guided_space,
                                budget=reduced_budget, seed=0)
        exact_edp = best_edp(exhaustive)
        guided_payload = {
            "space_size": guided_space.size,
            "full_budget": {
                "evaluated": full.evaluated,
                "frontier_matches_exhaustive":
                    frontier_key(full) == frontier_key(exhaustive),
                "edp_regret": best_edp(full) / exact_edp - 1.0,
            },
            "reduced_budget": {
                "budget": reduced_budget,
                "evaluated": reduced.evaluated,
                "edp_regret": best_edp(reduced) / exact_edp - 1.0,
            },
        }
    finally:
        set_run_cache(previous)

    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "scenario": "tune",
        "points": pricing_space.size,
        "repeats": repeats,
        "frontier_size": frontier_size,
        "exhaustive_cold_s": cold_s,
        "exhaustive_warm_s": warm_s,
        "configs_per_s_warm": configs_per_s,
        "guided": guided_payload,
    }


#: The drivers the hot-path scenario times (the PR-7 bottlenecks).
HOTPATH_EXPERIMENTS = ("fig20", "fig21", "ablation_execution_model")


def _clear_hot_memos() -> None:
    """Drop every process-level memo the hot paths consult.

    A "cold" hot-path pass must pay CSR builds, transform caches,
    device pricing, fig20 subsampling and partition construction — the
    costs the memos normally amortise — so clearing them (plus a fresh
    run-cache directory, which the caller swaps in) reproduces a fresh
    process without the interpreter start-up noise.
    """
    from ..algorithms import runner as runner_mod
    from ..algorithms import vertex_centric as vc_mod
    from ..arch import machine as machine_mod
    from ..experiments import fig20 as fig20_mod
    # The package re-exports a ``hash_partition`` *function* that
    # shadows the submodule attribute, so import the module directly.
    from ..graph.hash_partition import (
        _HASH_PARTITION_MEMO,
        _HASHED_GRAPH_MEMO,
    )
    from ..graph import partition as partition_mod
    from ..graph import stats as stats_mod

    vc_mod._CSR_MEMO.clear()
    runner_mod._TRANSFORM_MEMO.clear()
    machine_mod.clear_device_memos()
    fig20_mod._CAPPED_MEMO.clear()
    stats_mod._NONEMPTY_MEMO.clear()
    partition_mod._PARTITION_MEMO.clear()
    _HASH_PARTITION_MEMO.clear()
    _HASHED_GRAPH_MEMO.clear()


def bench_hotpath_scenario(
    num_requests: int = 20_000,
    jobs: int = 2,
    repeats: int = 3,
) -> dict:
    """Time the PR-7 hot paths: fig20, fig21, the executor-model
    ablation (cold and warm), the batched-vs-serial dynamic replay,
    and — on multi-core hosts — a jobs-vs-serial fan-out comparison.

    * ``cold`` / ``warm`` — per-driver serial wall-clock against a
      fresh private run-cache directory with all process memos cleared
      (cold), then the same calls again (warm).
    * ``replay_serial_s`` / ``replay_batched_s`` — one 45/45/5/5
      request stream applied per request (:func:`apply_requests`) and
      in vectorized chunks (:func:`apply_requests_batched`) to fresh
      HyVE + GraphR stores; ``speedup_replay`` is the gated ratio —
      machine-relative, so CI noise cannot flake it.
    * ``parallel`` — the same three drivers serial vs ``jobs`` worker
      processes, both cold; ``skipped`` on single-core hosts where
      fan-out cannot win.
    """
    import tempfile

    from ..dynamic.store import DynamicGraphStore, GraphRDynamicStore
    from ..dynamic.updates import (apply_requests, apply_requests_batched,
                                   generate_requests)
    from ..experiments import ALL_EXPERIMENTS
    from ..graph.generators import rmat
    from .cache import RunCache, get_run_cache, set_run_cache

    previous = get_run_cache()
    cold: dict[str, float] = {}
    warm: dict[str, float] = {}
    try:
        set_run_cache(RunCache(
            directory=tempfile.mkdtemp(prefix="repro-bench-hotpath-")
        ))
        _clear_hot_memos()
        for name in HOTPATH_EXPERIMENTS:
            start = time.perf_counter()
            ALL_EXPERIMENTS[name]()
            cold[name] = time.perf_counter() - start
        for name in HOTPATH_EXPERIMENTS:
            start = time.perf_counter()
            ALL_EXPERIMENTS[name]()
            warm[name] = time.perf_counter() - start
    finally:
        set_run_cache(previous)

    graph = rmat(4096, 100_000, seed=7, name="bench-hotpath")
    requests = generate_requests(graph, num_requests, seed=0)
    # Summed over repeats like the sweep scenario: the individual
    # passes are fast enough to be noise-dominated on shared runners.
    replay_serial = replay_batched = 0.0
    for _ in range(max(repeats, 1)):
        for store_cls in (DynamicGraphStore, GraphRDynamicStore):
            store = store_cls(graph)
            start = time.perf_counter()
            apply_requests(store, requests)
            replay_serial += time.perf_counter() - start
            store = store_cls(graph)
            start = time.perf_counter()
            apply_requests_batched(store, requests)
            replay_batched += time.perf_counter() - start

    cpu = os.cpu_count() or 1
    parallel: dict = {"cpu_count": cpu, "jobs": jobs}
    if cpu >= 2 and jobs >= 2:
        try:
            set_run_cache(RunCache(
                directory=tempfile.mkdtemp(prefix="repro-bench-hp-ser-")
            ))
            _clear_hot_memos()
            start = time.perf_counter()
            for name in HOTPATH_EXPERIMENTS:
                ALL_EXPERIMENTS[name]()
            parallel["serial_s"] = time.perf_counter() - start
            set_run_cache(RunCache(
                directory=tempfile.mkdtemp(prefix="repro-bench-hp-par-")
            ))
            _clear_hot_memos()
            start = time.perf_counter()
            bench_experiments(list(HOTPATH_EXPERIMENTS), jobs=jobs)
            parallel["jobs_s"] = time.perf_counter() - start
        finally:
            set_run_cache(previous)
        parallel["skipped"] = False
        parallel["speedup"] = parallel["serial_s"] / parallel["jobs_s"]
    else:
        parallel["skipped"] = True
        parallel["reason"] = f"cpu_count={cpu} < 2: fan-out cannot win"

    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu,
        "scenario": "hotpath",
        "experiments": list(HOTPATH_EXPERIMENTS),
        "num_requests": num_requests,
        "repeats": max(repeats, 1),
        "cold": cold,
        "warm": warm,
        "cold_total_s": sum(cold.values()),
        "warm_total_s": sum(warm.values()),
        "replay_serial_s": replay_serial,
        "replay_batched_s": replay_batched,
        "speedup_replay": replay_serial / replay_batched,
        "parallel": parallel,
    }


def bench_outofcore_scenario(
    num_vertices: int = 4_850_000,
    num_edges: int = 69_000_000,
    shard_edges: int = 1 << 22,
    chunk_edges: int = 1 << 20,
    seed: int = 8,
    directory: str | Path | None = None,
    jobs: int = 1,
) -> dict:
    """Time the out-of-core path end to end at a chosen scale.

    Defaults to live-journal's published size (4.85M vertices, 69M
    edges — the scale the experiments otherwise approach only through
    reported-size scaling): streams an R-MAT of that size to an on-disk
    shard store, re-reads it for checksum verification, converges PR
    and BFS with :func:`repro.graph.shards.run_sharded`, and derives
    the schedule counts from per-shard partials.  Every stage records
    wall-clock and an edges/second rate; the payload also carries the
    store's resident-memory model, which is the number the scaling
    guide (docs/scaling.md) asks operators to check against their RAM.

    ``directory=None`` stages the store in a temporary directory that
    is deleted afterwards — the bench needs ``disk_bytes`` of free
    scratch space (~1.1 GB at the default scale).
    """
    import shutil
    import tempfile

    from ..algorithms.bfs import BFS
    from ..algorithms.pagerank import PageRank
    from ..arch.config import NAMED_CONFIGS
    from ..arch.scheduler import clear_imbalance_cache
    from ..graph.shards import (run_sharded, sharded_scheduled_counts,
                                sharded_workload, write_rmat_shards)
    from .cache import temporary_run_cache

    scratch = None
    if directory is None:
        scratch = tempfile.mkdtemp(prefix="repro-bench-ooc-")
        directory = Path(scratch) / "store"
    try:
        start = time.perf_counter()
        store = write_rmat_shards(
            directory, num_vertices, num_edges, seed=seed,
            shard_edges=shard_edges, chunk_edges=chunk_edges,
        )
        generate_s = time.perf_counter() - start

        start = time.perf_counter()
        store.verify()
        verify_s = time.perf_counter() - start

        algorithms = {}
        pr_run = None
        with temporary_run_cache():
            for factory in (PageRank, BFS):
                start = time.perf_counter()
                run = run_sharded(factory(), store, cache=True)
                elapsed = time.perf_counter() - start
                algorithms[run.algorithm] = {
                    "iterations": run.iterations,
                    "converge_s": elapsed,
                    "edges_per_s": run.iterations * num_edges / elapsed,
                }
                if pr_run is None:
                    pr_run = run
            config = NAMED_CONFIGS["acc+HyVE"]()
            clear_imbalance_cache()
            start = time.perf_counter()
            counts = sharded_scheduled_counts(
                pr_run, sharded_workload(store), config, jobs=jobs,
            )
            counts_s = time.perf_counter() - start

        return {
            "schema": BENCH_SCHEMA,
            "created": datetime.now(timezone.utc).isoformat(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
            "scenario": "outofcore",
            "num_vertices": num_vertices,
            "num_edges": num_edges,
            "edge_vertex_ratio": num_edges / max(num_vertices, 1),
            "shard_edges": shard_edges,
            "num_shards": store.num_shards,
            "jobs": jobs,
            "generate_s": generate_s,
            "generate_edges_per_s": num_edges / generate_s,
            "verify_s": verify_s,
            "verify_edges_per_s": num_edges / verify_s,
            "algorithms": algorithms,
            "counts_s": counts_s,
            "counts_edges_per_s": num_edges / counts_s,
            "counts_imbalance": counts.imbalance,
            "memory_budget": store.memory_budget(),
        }
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def bench_stream_scenario(
    num_vertices: int = 2_000,
    num_edges: int = 16_000,
    num_updates: int = 20_000,
    repeats: int = 3,
) -> dict:
    """Streaming ingest throughput under concurrent pricing queries.

    Two claims under test (ISSUE 10 acceptance):

    * **Sustained ingest** — the bounded-staleness engine must process
      an append-only update stream (the way HyVE's write-once ReRAM
      blocks stream) at a healthy updates/second under both canonical
      mixes, with queries answered exactly at the current logical time.
    * **Not slower than rebuild** — answering the same update + query
      schedule through the engine's incremental maintenance must not
      lose to serial from-scratch replay (best of ``repeats`` legs;
      :func:`repro.dynamic.stream.measure_stream` cross-checks the
      final answers bit-for-bit, so the speedup is conformance-gated).

    A delete-heavy churn leg (20% deletes) is recorded for trend
    tracking but not gated: decremental repair keeps it near parity,
    and its exact ratio is noise-sensitive at bench scale.
    """
    from ..dynamic.stream import (READ_HEAVY, UPDATE_HEAVY,
                                  generate_update_log, measure_stream)
    from ..graph.generators import rmat

    base = rmat(num_vertices, num_edges, seed=11, name="bench-stream")
    repeats = max(repeats, 1)

    def leg(delete_fraction: float, mix) -> dict:
        log = generate_update_log(
            base, num_updates, seed=11,
            delete_fraction=delete_fraction,
            name=f"bench-stream-df{delete_fraction:g}",
        )
        runs = [measure_stream(log, mix) for _ in range(repeats)]
        best = max(runs, key=lambda r: r.speedup_vs_serial)
        return {
            "mix": mix.name,
            "delete_fraction": delete_fraction,
            "num_updates": best.num_updates,
            "num_queries": best.num_queries,
            "flushes": best.flushes,
            "incremental_refreshes": best.incremental_refreshes,
            "rebuilds": best.rebuilds,
            "engine_s": best.engine_seconds,
            "serial_s": best.serial_seconds,
            "updates_per_second": best.updates_per_second,
            "speedup_vs_serial": best.speedup_vs_serial,
            "speedups": [r.speedup_vs_serial for r in runs],
        }

    return {
        "schema": BENCH_SCHEMA,
        "mode": "scenario-stream",
        "num_vertices": num_vertices,
        "base_edges": num_edges,
        "num_updates": num_updates,
        "repeats": repeats,
        "mixes": {
            "update-heavy": leg(0.0, UPDATE_HEAVY),
            "read-heavy": leg(0.0, READ_HEAVY),
        },
        "churn": leg(0.2, UPDATE_HEAVY),
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_bench(payload: dict, path: str | Path) -> Path:
    """Write a BENCH payload as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
