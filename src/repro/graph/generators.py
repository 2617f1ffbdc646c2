"""Synthetic graph generators.

The paper evaluates on five SNAP graphs (Table 2) that we cannot download
in this offline reproduction.  Every result in the evaluation depends on
*shape* statistics of the graphs — degree skew, the occupancy of 8x8
adjacency-matrix blocks (Table 1), the count of non-empty blocks
(Equation (9)), interval balance — rather than on the concrete edges, so
we substitute recursive-matrix (R-MAT) graphs whose skew parameters are
tuned per dataset (see :mod:`repro.graph.datasets`).

All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .graph import Graph, VERTEX_DTYPE

#: Names what :func:`rmat` generates for given arguments.  The run
#: cache keys its dataset records on it, so a change that alters any
#: generated graph must bump it; tests/test_generators.py pins the
#: evaluation datasets' fingerprints to catch one that does not.
GENERATOR_VERSION = "rmat-v1"


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def rmat(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | None = 0,
    name: str = "rmat",
    allow_self_loops: bool = True,
) -> Graph:
    """Generate an R-MAT graph (Chakrabarti et al., SDM'04).

    Each edge picks one quadrant of the adjacency matrix per recursion
    level with probabilities (a, b, c, d=1-a-b-c); higher ``a`` yields a
    heavier-skewed graph.  The vertex count is rounded *up* internally to
    the next power of two for the recursion and ids are folded back into
    ``[0, num_vertices)`` by rejection, so the returned graph has exactly
    the requested vertex and edge counts (duplicates are allowed, as in
    natural edge streams).

    Args:
        num_vertices: number of vertices of the generated graph.
        num_edges: number of (possibly duplicated) directed edges.
        a, b, c: R-MAT quadrant probabilities; d = 1 - a - b - c.
        seed: RNG seed; identical seeds give identical graphs.
        name: label stored on the graph.
        allow_self_loops: if False, self loops are re-drawn.

    Returns:
        The generated :class:`Graph`.
    """
    if num_vertices <= 0:
        raise GraphError("R-MAT needs at least one vertex")
    if num_edges < 0:
        raise GraphError("negative edge count")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0.0:
        raise GraphError(f"R-MAT probabilities must be >= 0, got d={d:.3f}")
    scale = max(1, int(np.ceil(np.log2(num_vertices))))
    rng = _rng(seed)

    src = np.empty(0, dtype=VERTEX_DTYPE)
    dst = np.empty(0, dtype=VERTEX_DTYPE)
    needed = num_edges
    # Rejection loop: draw batches until we have enough in-range edges.
    while needed > 0:
        batch = max(needed + needed // 4 + 16, 64)
        s, t = _rmat_batch(batch, scale, a, b, c, rng)
        keep = (s < num_vertices) & (t < num_vertices)
        if not allow_self_loops:
            keep &= s != t
        s, t = s[keep], t[keep]
        src = np.concatenate([src, s])
        dst = np.concatenate([dst, t])
        needed = num_edges - src.size
    return Graph(num_vertices, src[:num_edges], dst[:num_edges], name=name)


def _rmat_batch(
    count: int,
    scale: int,
    a: float,
    b: float,
    c: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` R-MAT edges over a 2**scale vertex id space.

    One uniform draw per edge and level picks the quadrant: ``[0, a)``
    is (0,0), ``[a, a+b)`` (0,1), ``[a+b, a+b+c)`` (1,0) and the rest
    (1,1).  The source bit is ``r >= a+b`` and the destination bit is
    set in the second and fourth ranges, an XOR of the three
    thresholds.  The levels are shifted in from the most significant
    bit, so the ids are those of adding ``2**(scale-1-level)`` per set
    bit, and :data:`GENERATOR_VERSION` names this output.
    """
    src = np.zeros(count, dtype=VERTEX_DTYPE)
    dst = np.zeros(count, dtype=VERTEX_DTYPE)
    r = np.empty(count)
    bit = np.empty(count, dtype=bool)
    low = np.empty(count, dtype=bool)
    ab = a + b
    abc = a + b + c
    for _ in range(scale):
        rng.random(count, out=r)
        src <<= 1
        dst <<= 1
        np.greater_equal(r, ab, out=bit)
        src += bit
        np.greater_equal(r, a, out=low)
        low ^= bit
        np.greater_equal(r, abc, out=bit)
        low ^= bit
        dst += low
    return src, dst


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int | None = 0,
    name: str = "erdos-renyi",
) -> Graph:
    """Uniform random directed multigraph with the given edge count."""
    if num_vertices <= 0 and num_edges > 0:
        raise GraphError("cannot place edges in an empty vertex set")
    rng = _rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=VERTEX_DTYPE)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=VERTEX_DTYPE)
    return Graph(max(num_vertices, 0), src, dst, name=name)


def path(num_vertices: int, name: str = "path") -> Graph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    if num_vertices <= 0:
        return Graph.empty(max(num_vertices, 0), name=name)
    src = np.arange(num_vertices - 1, dtype=VERTEX_DTYPE)
    return Graph(num_vertices, src, src + 1, name=name)


def cycle(num_vertices: int, name: str = "cycle") -> Graph:
    """Directed cycle over ``num_vertices`` vertices."""
    if num_vertices <= 0:
        return Graph.empty(0, name=name)
    src = np.arange(num_vertices, dtype=VERTEX_DTYPE)
    dst = (src + 1) % num_vertices
    return Graph(num_vertices, src, dst, name=name)


def star(num_leaves: int, name: str = "star") -> Graph:
    """Star: vertex 0 points at each of ``num_leaves`` leaves."""
    if num_leaves < 0:
        raise GraphError("negative leaf count")
    src = np.zeros(num_leaves, dtype=VERTEX_DTYPE)
    dst = np.arange(1, num_leaves + 1, dtype=VERTEX_DTYPE)
    return Graph(num_leaves + 1, src, dst, name=name)


def complete(num_vertices: int, name: str = "complete") -> Graph:
    """Complete directed graph without self loops."""
    if num_vertices < 0:
        raise GraphError("negative vertex count")
    idx = np.arange(num_vertices, dtype=VERTEX_DTYPE)
    src = np.repeat(idx, num_vertices)
    dst = np.tile(idx, num_vertices)
    keep = src != dst
    return Graph(num_vertices, src[keep], dst[keep], name=name)


def grid_2d(rows: int, cols: int, name: str = "grid") -> Graph:
    """2-D grid with right/down directed edges (a low-skew workload)."""
    if rows < 0 or cols < 0:
        raise GraphError("negative grid dimensions")
    n = rows * cols
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    ids = np.arange(n, dtype=VERTEX_DTYPE).reshape(rows, cols) if n else None
    if n and cols > 1:
        srcs.append(ids[:, :-1].ravel())
        dsts.append(ids[:, 1:].ravel())
    if n and rows > 1:
        srcs.append(ids[:-1, :].ravel())
        dsts.append(ids[1:, :].ravel())
    if srcs:
        return Graph(n, np.concatenate(srcs), np.concatenate(dsts), name=name)
    return Graph.empty(n, name=name)


def random_weights(
    graph: Graph,
    low: float = 1.0,
    high: float = 10.0,
    seed: int | None = 0,
) -> Graph:
    """Attach uniformly random edge weights in [low, high) to a graph."""
    if high < low:
        raise GraphError(f"weight range is empty: [{low}, {high})")
    rng = _rng(seed)
    return graph.with_weights(rng.uniform(low, high, size=graph.num_edges))
