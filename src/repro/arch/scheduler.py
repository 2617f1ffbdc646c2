"""Schedule counting: from an algorithm run to exact access counts.

This module turns one :class:`~repro.algorithms.runner.AlgorithmRun`
plus a machine configuration into the access counts of Equations
(3), (4), (7) and (8):

* every edge is read once per iteration (sequential, edge memory);
* per edge, the source and destination are read and the destination
  written in the on-chip vertex memory (N^R_{v,r} = N^W_{v,r} = N^R_e);
* per iteration, destination intervals are loaded and stored once
  (N^W_{v,s} = N_v) while source intervals are loaded (P/N) * N_v times
  with data sharing (Equation (8)) and P * N_v times without (each block
  reloads its source interval from off-chip memory);
* machines without a scratchpad issue the per-edge vertex traffic as
  *random* accesses straight at main memory.

Counts are computed at the workload's reported scale (see
:class:`~repro.arch.config.Workload`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..algorithms.runner import AlgorithmRun
from ..errors import ConfigError
from ..graph.hash_partition import HashPlacement, imbalance_from_block_counts
from ..graph.partition import _even_interval_of
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .config import HyVEConfig, Workload, choose_num_intervals

#: Partition size used to estimate PU load imbalance.  The exact P of a
#: paper-scale run can exceed the synthetic graph's usable resolution;
#: imbalance is a weak function of P under hash placement, so a
#: reference partition is used (documented model approximation).
_IMBALANCE_REFERENCE_MULTIPLE = 8

#: In-process imbalance memo, LRU-bounded: a long-lived sweep process
#: touching many graphs must not grow it without limit (disk-level
#: reuse stays in the run cache's scalar store).
_IMBALANCE_CACHE: OrderedDict[tuple[str, int, bool], float] = OrderedDict()
_IMBALANCE_CACHE_CAP = 128


def _imbalance_remember(key: tuple[str, int, bool], value: float) -> None:
    _IMBALANCE_CACHE[key] = value
    _IMBALANCE_CACHE.move_to_end(key)
    while len(_IMBALANCE_CACHE) > _IMBALANCE_CACHE_CAP:
        _IMBALANCE_CACHE.popitem(last=False)
    obs_metrics.get_metrics().gauge(
        obs_metrics.IMBALANCE_CACHE_SIZE
    ).set(len(_IMBALANCE_CACHE))


def clear_imbalance_cache() -> None:
    """Drop the in-process imbalance memo (tests and identity oracles
    that must prove two paths compute — not recall — the same value)."""
    _IMBALANCE_CACHE.clear()


def imbalance_reference_intervals(num_vertices: int, num_pus: int) -> int:
    """The reference partition width P the imbalance estimate uses.

    Exposed so the out-of-core path (:mod:`repro.graph.shards`) can
    build its per-shard block histograms at exactly the P that
    :func:`estimate_imbalance` would partition at — a prerequisite for
    bit-identical merged counts.  A returned P larger than
    ``num_vertices`` means the estimate degenerates to 1.0 (no
    partition is built).
    """
    p = num_pus * _IMBALANCE_REFERENCE_MULTIPLE
    while p > max(num_vertices, 1):
        p //= 2
    return max(p - (p % num_pus), num_pus)


def seed_imbalance(graph, num_pus: int, hash_placement: bool,
                   value: float) -> float:
    """Install a precomputed imbalance estimate for ``graph``.

    The sharded counts path computes the estimate from per-shard block
    histograms merged exactly; seeding the scalar cache under the same
    key lets the subsequent :meth:`ScheduleCounts.compute` hit it, so
    the merged result is bit-identical to the in-memory path without a
    second O(E) pass over the edge list.  Returns the value actually
    cached — an existing entry wins, mirroring ``get_or_scalar``.
    """
    from ..perf.cache import get_run_cache

    stored = get_run_cache().get_or_scalar(
        f"imbalance-n{num_pus}-hash{int(hash_placement)}", graph,
        lambda: value,
    )
    _imbalance_remember(
        (graph.fingerprint(), num_pus, hash_placement), stored
    )
    return stored


def estimate_imbalance(run: AlgorithmRun, workload: Workload,
                       num_pus: int, hash_placement: bool = True) -> float:
    """Per-step load imbalance of the super-block schedule (>= 1).

    ``hash_placement=False`` models natural (index-order) placement,
    where community structure concentrates edges on some PUs.

    Imbalance is a function of the graph's structure only, so the memo
    keys on the graph content digest — five algorithms on one workload
    share a single estimate instead of recomputing it each.
    """
    graph = workload.graph
    key = (graph.fingerprint(), num_pus, hash_placement)
    hit = _IMBALANCE_CACHE.get(key)
    if hit is not None:
        _IMBALANCE_CACHE.move_to_end(key)
        return hit

    def compute() -> float:
        # The streamed graph may differ (CC symmetrises); imbalance of
        # the base graph is an adequate proxy and avoids a second
        # partition.
        with get_tracer().span("estimate_imbalance", graph=graph.name,
                               num_pus=num_pus,
                               hash_placement=hash_placement):
            return _compute_imbalance(graph, num_pus, hash_placement)

    from ..perf.cache import get_run_cache

    value = get_run_cache().get_or_scalar(
        f"imbalance-n{num_pus}-hash{int(hash_placement)}", graph, compute
    )
    _imbalance_remember(key, value)
    return value


def _compute_imbalance(graph, num_pus: int, hash_placement: bool) -> float:
    """:func:`~repro.graph.hash_partition.imbalance` of the reference
    partition, computed from its P x P block histogram alone.

    A per-vertex interval table (hashed ids first, under hash
    placement) bins every edge in one gather; no relabelled graph,
    permutation or partition is built, so nothing O(E) outlives the
    call.  Bit-identical to ``imbalance(hash_partition(graph, p)[0], n)``
    and ``imbalance(IntervalBlockPartition.build(graph, p), n)``.
    """
    nv = graph.num_vertices
    p = imbalance_reference_intervals(nv, num_pus)
    if p > nv:
        return 1.0
    ids = (HashPlacement.for_graph(graph).forward() if hash_placement
           else np.arange(nv, dtype=np.int64))
    iv = _even_interval_of(ids, nv, p)
    flat = iv[graph.src] * p + iv[graph.dst]
    counts = np.bincount(flat, minlength=p * p).reshape(p, p)
    return imbalance_from_block_counts(counts, num_pus)


@dataclass(frozen=True)
class ScheduleCounts:
    """Access counts for one full run, at reported scale.

    All ``*_bits`` fields are totals over the whole execution.
    """

    iterations: int
    num_pus: int
    num_intervals: int
    edges_total: float                 # N^R_e summed over iterations
    vertices: float                    # N_v at reported scale
    edge_bits: int
    vertex_bits: int

    # Edge memory (sequential stream).
    edge_stream_bits: float
    block_seeks: float                 # one per block per iteration

    # On-chip vertex memory (random, absorbed by SRAM when present).
    onchip_read_bits: float
    onchip_write_bits: float

    # Off-chip vertex memory: interval scheduling (sequential).
    offchip_load_bits: float
    offchip_store_bits: float

    # Main-memory random vertex traffic (machines without scratchpad).
    random_read_ops: float
    random_write_ops: float

    # Router (data sharing).
    router_words: float
    reroute_events: float

    # Control.
    steps_total: float                 # synchronisation barriers
    pu_ops: float
    imbalance: float

    @classmethod
    def compute(
        cls,
        run: AlgorithmRun,
        workload: Workload,
        config: HyVEConfig,
    ) -> "ScheduleCounts":
        edge_scale = workload.edge_scale
        vertex_scale = workload.vertex_scale
        edges_per_iter = run.edges_per_iteration * edge_scale
        vertices = run.num_vertices * vertex_scale
        iters = run.iterations
        if iters <= 0:
            raise ConfigError(f"run reports no iterations: {run}")

        n = config.num_pus
        p = choose_num_intervals(config, vertices, run.vertex_bits)
        edges_total = edges_per_iter * iters
        edge_stream_bits = edges_total * run.edge_bits
        blocks_per_iter = float(p) * float(p)
        steps_per_iter = (p / n) ** 2 * n

        if config.has_onchip:
            # The PU datapath moves one 32-bit operand per vertex access
            # (source value, destination value, updated value); wider
            # vertex records (PR's rank + out-degree) cost extra only in
            # the interval transfers below.
            onchip_read_bits = 2.0 * edges_total * 32
            onchip_write_bits = edges_total * 32
            src_loads = (p / n if config.data_sharing else float(p))
            # Active-interval scheduling: an interval is (re)loaded only
            # if it holds at least one vertex whose value changed in the
            # previous iteration.  BFS/SSSP touch few intervals early.
            activity = _interval_activity(run, p)
            offchip_load_bits = (
                (src_loads + 1.0) * vertices * run.vertex_bits * activity
            )
            offchip_store_bits = vertices * run.vertex_bits * activity
            random_read_ops = 0.0
            random_write_ops = 0.0
        else:
            onchip_read_bits = 0.0
            onchip_write_bits = 0.0
            offchip_load_bits = 0.0
            offchip_store_bits = 0.0
            random_read_ops = 2.0 * edges_total
            random_write_ops = edges_total

        if config.data_sharing:
            router_words = (
                edges_total * (n - 1) / n * (run.vertex_bits / 32.0)
            )
            reroute_events = steps_per_iter * iters * n
        else:
            router_words = 0.0
            reroute_events = 0.0

        return cls(
            iterations=iters,
            num_pus=n,
            num_intervals=p,
            edges_total=edges_total,
            vertices=vertices,
            edge_bits=run.edge_bits,
            vertex_bits=run.vertex_bits,
            edge_stream_bits=edge_stream_bits,
            block_seeks=blocks_per_iter * iters,
            onchip_read_bits=onchip_read_bits,
            onchip_write_bits=onchip_write_bits,
            offchip_load_bits=offchip_load_bits,
            offchip_store_bits=offchip_store_bits,
            random_read_ops=random_read_ops,
            random_write_ops=random_write_ops,
            router_words=router_words,
            reroute_events=reroute_events,
            steps_total=steps_per_iter * iters,
            pu_ops=edges_total,
            imbalance=estimate_imbalance(
                run, workload, n, config.hash_placement
            ),
        )

    @property
    def offchip_bits(self) -> float:
        return self.offchip_load_bits + self.offchip_store_bits


def _interval_activity(run: AlgorithmRun, num_intervals: int) -> float:
    """Sum over iterations of the fraction of intervals with an active
    source (hash placement spreads active vertices uniformly).

    Equals ``iterations`` for algorithms where every vertex stays active
    (PR, SpMV) and much less for point-initialised traversals.
    """
    if not run.active_sources:
        return float(run.iterations)
    n_v = max(run.num_vertices, 1)
    per_interval = n_v / num_intervals
    total = 0.0
    for active in run.active_sources:
        frac = min(max(active, 0), n_v) / n_v
        total += 1.0 - (1.0 - frac) ** per_interval
    return total
