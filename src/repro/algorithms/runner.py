"""Edge-centric executor: actually runs algorithms and yields the trace.

Two execution strategies produce bit-identical results (a property the
tests verify):

* :func:`run_vectorized` — one whole-graph pass per iteration; fastest,
  used to obtain results and iteration counts.
* :func:`run_blocked` — walks blocks in the exact super-block order of
  Algorithm 2 (including round-robin data sharing across PUs); used to
  validate that the schedule computes the same answer and to honour the
  synchronous semantics the architecture relies on.

The *trace* the architecture model consumes is deliberately small: the
iteration count and per-iteration edge activity — every other access
count follows analytically from the schedule (Equations (3), (4), (7),
(8)) and is derived in :mod:`repro.arch.scheduler`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..graph.graph import Graph
from ..graph.partition import IntervalBlockPartition
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .base import EdgeCentricAlgorithm


@dataclass(frozen=True)
class AlgorithmRun:
    """Result of executing an algorithm to convergence.

    Attributes:
        algorithm: name of the algorithm.
        graph_name: name of the *streamed* graph (post transform).
        values: final per-vertex values.
        iterations: number of full edge sweeps executed.
        num_vertices: vertices of the streamed graph.
        edges_per_iteration: edges streamed per sweep (all of them; the
            paper applies no frontier optimisation).
        vertex_bits: serialised vertex width (from the algorithm).
        edge_bits: serialised edge width (64, or 96 with weights).
    """

    algorithm: str
    graph_name: str
    values: np.ndarray
    iterations: int
    num_vertices: int
    edges_per_iteration: int
    vertex_bits: int
    edge_bits: int
    #: Vertices whose value changed *entering* each iteration (the
    #: sources the scheduler must have on-chip); length == iterations.
    active_sources: tuple[int, ...] = ()

    @property
    def total_edges(self) -> int:
        """Total edges traversed across all iterations."""
        return self.iterations * self.edges_per_iteration


def run_vectorized(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> AlgorithmRun:
    """Execute with one whole-graph edge pass per iteration."""
    tracer = get_tracer()
    with tracer.span("preprocess", executor="vectorized", graph=graph.name):
        streamed = algorithm.transform_graph(graph)
    values = algorithm.initial_values(streamed)
    active = algorithm.initial_active(streamed)
    active_sources: list[int] = []
    iterations = 0
    with tracer.span(
        "converge",
        executor="vectorized",
        algorithm=algorithm.name,
        graph=streamed.name,
    ):
        while True:
            active_sources.append(active)
            acc = algorithm.iteration_start(values, streamed)
            algorithm.process_edges(
                values, acc, streamed.src, streamed.dst, streamed.weights,
                streamed,
            )
            with tracer.span("apply", iteration=iterations):
                result = algorithm.iteration_end(
                    values, acc, streamed, iterations
                )
            values = result.values
            active = result.active_vertices
            iterations += 1
            if result.converged:
                break
            if iterations > algorithm.max_iterations:
                raise ConvergenceError(
                    f"{algorithm.name} exceeded "
                    f"{algorithm.max_iterations} sweeps"
                )
    metrics = obs_metrics.get_metrics()
    metrics.counter(obs_metrics.EXECUTOR_EDGES).add(
        iterations * streamed.num_edges
    )
    metrics.histogram(obs_metrics.CONVERGENCE_ITERATIONS).observe(iterations)
    return AlgorithmRun(
        algorithm=algorithm.name,
        graph_name=streamed.name,
        values=values,
        iterations=iterations,
        num_vertices=streamed.num_vertices,
        edges_per_iteration=streamed.num_edges,
        vertex_bits=algorithm.vertex_bits,
        edge_bits=algorithm.edge_bits,
        active_sources=tuple(active_sources),
    )


def run_blocked(
    algorithm: EdgeCentricAlgorithm,
    graph: Graph,
    num_intervals: int,
    num_pus: int = 1,
) -> AlgorithmRun:
    """Execute in the block-major super-block order of Algorithm 2.

    Super blocks are scanned column-major (``y`` outer, ``x`` inner, as
    in Algorithm 2).  Edges are permuted once into block-major order
    (the partition's :attr:`streamed_edges`, mirroring the one-shot
    Section 3.4 preprocessing), so every dispatch below consumes a
    *contiguous slice* of the permuted arrays — no per-block gather.
    Within a super block the N blocks sharing a source interval are
    adjacent, so a whole super block dispatches to ``process_edges`` in
    at most N fused calls (one per source-interval row) instead of N^2.

    The round-robin step structure of Algorithm 2 only affects *when* a
    block is processed, never the answer: updates read
    previous-iteration source values only, so any order within an
    iteration computes the same result as :func:`run_vectorized`.
    """
    tracer = get_tracer()
    with tracer.span("preprocess", executor="blocked", graph=graph.name,
                     num_intervals=num_intervals):
        streamed = algorithm.transform_graph(graph)
        partition = IntervalBlockPartition.cached(streamed, num_intervals)
        q = num_intervals // num_pus
        partition.num_super_blocks(num_pus)  # validates divisibility
        bm_src, bm_dst, bm_weights = partition.streamed_edges

    values = algorithm.initial_values(streamed)
    active = algorithm.initial_active(streamed)
    active_sources: list[int] = []
    iterations = 0
    while True:
        active_sources.append(active)
        acc = algorithm.iteration_start(values, streamed)
        traced = tracer.enabled
        for y in range(q):
            j_start = y * num_pus
            j_stop = j_start + num_pus
            row_span = (
                tracer.span("superblock_row", iteration=iterations, y=y)
                if traced else None
            )
            if row_span is not None:
                row_span.__enter__()
            try:
                for x in range(q):
                    for i in range(x * num_pus, (x + 1) * num_pus):
                        sel = partition.block_row_slice(i, j_start, j_stop)
                        if sel.start == sel.stop:
                            continue
                        if traced:
                            with tracer.span("block_dispatch", row=i,
                                             j_start=j_start, j_stop=j_stop,
                                             edges=sel.stop - sel.start):
                                algorithm.process_edges(
                                    values, acc, bm_src[sel], bm_dst[sel],
                                    None if bm_weights is None
                                    else bm_weights[sel],
                                    streamed,
                                )
                        else:
                            algorithm.process_edges(
                                values,
                                acc,
                                bm_src[sel],
                                bm_dst[sel],
                                None if bm_weights is None
                                else bm_weights[sel],
                                streamed,
                            )
            finally:
                if row_span is not None:
                    row_span.__exit__(None, None, None)
        with tracer.span("apply", iteration=iterations):
            result = algorithm.iteration_end(values, acc, streamed,
                                             iterations)
        values = result.values
        active = result.active_vertices
        iterations += 1
        if result.converged:
            break
        if iterations > algorithm.max_iterations:
            raise ConvergenceError(
                f"{algorithm.name} exceeded {algorithm.max_iterations} sweeps"
            )
    metrics = obs_metrics.get_metrics()
    metrics.counter(obs_metrics.EXECUTOR_EDGES).add(
        iterations * streamed.num_edges
    )
    metrics.histogram(obs_metrics.CONVERGENCE_ITERATIONS).observe(iterations)
    return AlgorithmRun(
        algorithm=algorithm.name,
        graph_name=streamed.name,
        values=values,
        iterations=iterations,
        num_vertices=streamed.num_vertices,
        edges_per_iteration=streamed.num_edges,
        vertex_bits=algorithm.vertex_bits,
        edge_bits=algorithm.edge_bits,
        active_sources=tuple(active_sources),
    )


# --- streamed-transform memo ------------------------------------------------

#: Streamed (post-``transform_graph``) graphs, keyed on
#: ``(graph.fingerprint(), algorithm.signature())``.  CC symmetrises and
#: SSSP/SpMV attach weights on every call; memoising the result means
#: repeated runs (and the GraphR shape statistics) reuse one object —
#: and therefore one memoised fingerprint — instead of rebuilding and
#: re-hashing O(E) arrays each time.
_TRANSFORM_MEMO: "OrderedDict[tuple[str, str], Graph]" = OrderedDict()
_TRANSFORM_MEMO_CAPACITY = 64


def transform_cached(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> Graph:
    """Memoised ``algorithm.transform_graph(graph)``."""
    key = (graph.fingerprint(), algorithm.signature())
    streamed = _TRANSFORM_MEMO.get(key)
    if streamed is not None:
        _TRANSFORM_MEMO.move_to_end(key)
        return streamed
    streamed = algorithm.transform_graph(graph)
    _TRANSFORM_MEMO[key] = streamed
    while len(_TRANSFORM_MEMO) > _TRANSFORM_MEMO_CAPACITY:
        _TRANSFORM_MEMO.popitem(last=False)
    return streamed


# --- run cache -------------------------------------------------------------


def run_cached(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> AlgorithmRun:
    """Vectorised run memoised on (graph content, algorithm signature).

    The benchmarks evaluate dozens of machine configurations against the
    same (graph, algorithm) pairs; the algorithm result and iteration
    count are configuration-independent, so they are computed once.

    Keyed on :meth:`Graph.fingerprint` — a content digest — rather than
    ``id(graph)``: object ids are recycled after garbage collection, so
    an address-based key can serve a stale run for a *different* graph
    that happens to reuse the same address (and misses needlessly for
    equal graphs loaded twice).

    Backed by :class:`repro.perf.cache.RunCache`: a bounded in-memory
    LRU in front of an on-disk store, so fresh processes (the CLI,
    benchmarks, pool workers) skip re-convergence entirely.
    """
    from ..perf.cache import get_run_cache

    return get_run_cache().get_or_run(algorithm, graph)


def clear_run_cache() -> None:
    """Drop the in-memory run cache (the on-disk store is kept; use
    :meth:`repro.perf.cache.RunCache.clear` to wipe both)."""
    from ..perf.cache import get_run_cache

    get_run_cache().clear(disk=False)


def _signature(algorithm: EdgeCentricAlgorithm) -> str:
    """Algorithm cache key; see :meth:`EdgeCentricAlgorithm.signature`.

    Historical note: this used to hash a hardcoded attribute list
    (``damping``, ``tolerance``, ...), silently colliding for any
    algorithm with a differently named — or underscore-prefixed —
    parameter (SpMV's input vector).  The signature is now derived from
    the instance state itself.
    """
    return algorithm.signature()
