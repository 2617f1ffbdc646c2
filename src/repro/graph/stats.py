"""Graph shape statistics used throughout the evaluation.

The key quantity is N_avg, the average number of edges in a *non-empty*
8x8 block of the adjacency matrix (Table 1 of the paper): GraphR maps
each such block onto an 8x8 ReRAM crossbar, so N_avg is the effective
parallelism a crossbar achieves, and the non-empty block count drives
GraphR's vertex traffic (Equation (9)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from .graph import Graph

#: GraphR's crossbar dimension; blocks of the adjacency matrix are
#: ``CROSSBAR_DIM x CROSSBAR_DIM`` vertex tiles.
CROSSBAR_DIM = 8


def fixed_block_keys(graph: Graph, block_size: int = CROSSBAR_DIM) -> np.ndarray:
    """Flat tile index of each edge for a fixed ``block_size`` tiling.

    Unlike interval-block partitioning (P chosen per machine), this tiles
    the full adjacency matrix into fixed-size square tiles, the way
    GraphR assigns edges to crossbars.
    """
    if block_size <= 0:
        raise GraphError(f"block size must be positive, got {block_size}")
    tiles_per_side = -(-graph.num_vertices // block_size)  # ceil division
    return (graph.src // block_size) * tiles_per_side + graph.dst // block_size


#: Non-empty tile counts memoised on (graph content, tile size): the
#: GraphR model recomputes N_avg for every (algorithm, dataset) run and
#: the count costs an O(E) unique pass — pure graph shape, cached.
_NONEMPTY_MEMO: dict[tuple[str, int], int] = {}
_NONEMPTY_MEMO_CAPACITY = 256


def nonempty_block_count(graph: Graph, block_size: int = CROSSBAR_DIM) -> int:
    """Number of non-empty ``block_size``-square adjacency tiles."""
    if graph.num_edges == 0:
        return 0
    key = (graph.fingerprint(), int(block_size))
    cached = _NONEMPTY_MEMO.get(key)
    if cached is not None:
        return cached
    # L2: the persistent scalar store — the O(E) unique pass runs in one
    # process and every other (sweep worker, --jobs runner) reads it.
    from ..perf.cache import get_run_cache

    count = int(get_run_cache().get_or_scalar(
        f"nonempty-blocks-{int(block_size)}", graph,
        lambda: _count_distinct(fixed_block_keys(graph, block_size)),
    ))
    if len(_NONEMPTY_MEMO) >= _NONEMPTY_MEMO_CAPACITY:
        _NONEMPTY_MEMO.clear()
    _NONEMPTY_MEMO[key] = count
    return count


def _count_distinct(keys: np.ndarray) -> int:
    """Distinct values in an integer key array.

    Sort + boundary count: ``np.unique`` routes small-ish integer arrays
    through a hash table that is an order of magnitude slower than the
    radix sort ``np.sort`` uses on integer dtypes.
    """
    if keys.size == 0:
        return 0
    ordered = np.sort(keys)
    return int(np.count_nonzero(np.diff(ordered)) + 1)


def average_edges_per_nonempty_block(
    graph: Graph, block_size: int = CROSSBAR_DIM
) -> float:
    """N_avg of Table 1: mean edges per non-empty tile."""
    blocks = nonempty_block_count(graph, block_size)
    if blocks == 0:
        return 0.0
    return graph.num_edges / blocks


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution."""

    mean: float
    maximum: int
    p99: float
    zeros: int

    @classmethod
    def of(cls, degrees: np.ndarray) -> "DegreeStats":
        if degrees.size == 0:
            return cls(0.0, 0, 0.0, 0)
        return cls(
            mean=float(degrees.mean()),
            maximum=int(degrees.max()),
            p99=float(np.percentile(degrees, 99)),
            zeros=int(np.count_nonzero(degrees == 0)),
        )


@dataclass(frozen=True)
class GraphShape:
    """The shape statistics the evaluation depends on."""

    num_vertices: int
    num_edges: int
    out_degree: DegreeStats
    in_degree: DegreeStats
    navg: float
    nonempty_8x8_blocks: int

    @classmethod
    def of(cls, graph: Graph) -> "GraphShape":
        return cls(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            out_degree=DegreeStats.of(graph.out_degrees()),
            in_degree=DegreeStats.of(graph.in_degrees()),
            navg=average_edges_per_nonempty_block(graph),
            nonempty_8x8_blocks=nonempty_block_count(graph),
        )


def skew_gini(degrees: np.ndarray) -> float:
    """Gini coefficient of a degree distribution (0 = uniform, 1 = star).

    Used by tests to check that the synthetic datasets really are skewed
    the way natural graphs are.
    """
    degrees = np.sort(np.asarray(degrees, dtype=np.float64))
    n = degrees.size
    total = degrees.sum()
    if n == 0 or total == 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * degrees).sum()) / (n * total) - (n + 1) / n)
