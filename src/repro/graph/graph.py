"""Core immutable graph container used by every HyVE subsystem.

The paper's memory layout (Section 3.4) stores a graph as a flat edge
list — each edge is a (source id, destination id) pair, optionally with a
constant weight — so the container mirrors that: two parallel numpy
arrays plus an optional weight array.  All algorithms in this library are
edge-centric (Section 2.1) and consume the arrays directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import GraphError

#: dtype used for vertex ids.  The paper assumes 32-bit indices (an edge
#: is 64 bits: two 32-bit ids); int64 is used internally for safe
#: arithmetic while serialisation remains 32-bit.
VERTEX_DTYPE = np.int64

#: Width of one vertex id in the paper's edge format (Section 3.4); the
#: graph loaders in :mod:`repro.graph.io` reject larger ids and counts.
VERTEX_ID_BITS = 32

#: Width of one unweighted edge (source id + destination id).
EDGE_BITS = 2 * VERTEX_ID_BITS

#: Width of one weighted edge (source id + destination id + weight).
WEIGHTED_EDGE_BITS = 3 * VERTEX_ID_BITS


@dataclass(frozen=True)
class Graph:
    """A directed graph stored as an edge list.

    Attributes:
        num_vertices: number of vertices; ids are ``0..num_vertices-1``.
        src: int64 array of source vertex ids, one per edge.
        dst: int64 array of destination vertex ids, one per edge.
        weights: optional float64 array of edge weights (same length).
        name: human-readable label used in reports.
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray | None = None
    name: str = "graph"

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=VERTEX_DTYPE)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.weights is not None:
            weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            object.__setattr__(self, "weights", weights)
        self._validate()

    def _validate(self) -> None:
        if self.num_vertices < 0:
            raise GraphError(f"negative vertex count: {self.num_vertices}")
        if self.src.ndim != 1 or self.dst.ndim != 1:
            raise GraphError("src/dst must be one-dimensional arrays")
        if self.src.shape != self.dst.shape:
            raise GraphError(
                f"src and dst lengths differ: {self.src.size} vs {self.dst.size}"
            )
        if self.weights is not None and self.weights.shape != self.src.shape:
            raise GraphError(
                f"weights length {self.weights.size} != edge count {self.src.size}"
            )
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.num_vertices:
                raise GraphError(
                    f"vertex ids must lie in [0, {self.num_vertices}), "
                    f"found range [{lo}, {hi}]"
                )

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | Sequence[tuple[int, int]],
        weights: Sequence[float] | None = None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from an iterable of (src, dst) pairs."""
        pairs = list(edges)
        if pairs:
            arr = np.asarray(pairs, dtype=VERTEX_DTYPE)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphError("edges must be (src, dst) pairs")
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=VERTEX_DTYPE)
            dst = np.empty(0, dtype=VERTEX_DTYPE)
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        return cls(num_vertices, src, dst, w, name=name)

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "Graph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls.from_edges(num_vertices, [], name=name)

    # --- basic properties -----------------------------------------------

    def fingerprint(self) -> str:
        """Content digest of the graph (topology + weights + name).

        Stable across processes and independent of object identity —
        two graphs with the same edges hash the same, and a new graph
        reusing a freed object's memory address does not collide.  Used
        by the run cache; memoised because the arrays are immutable.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.name}|{self.num_vertices}|".encode())
        h.update(self.src.tobytes())
        h.update(self.dst.tobytes())
        if self.weights is not None:
            h.update(self.weights.tobytes())
        digest = h.hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def edge_bits(self) -> int:
        """Bits occupied by one edge in the Section 3.4 layout."""
        return WEIGHTED_EDGE_BITS if self.is_weighted else EDGE_BITS

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over (src, dst) pairs.  Intended for tests/small graphs."""
        for s, d in zip(self.src.tolist(), self.dst.tolist()):
            yield s, d

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.bincount(self.src, minlength=self.num_vertices)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.bincount(self.dst, minlength=self.num_vertices)

    def has_edge(self, s: int, d: int) -> bool:
        """Membership test (linear scan; for tests and small graphs)."""
        return bool(np.any((self.src == s) & (self.dst == d)))

    # --- transformations --------------------------------------------------

    def reverse(self) -> "Graph":
        """Graph with every edge direction flipped."""
        return Graph(
            self.num_vertices,
            self.dst.copy(),
            self.src.copy(),
            None if self.weights is None else self.weights.copy(),
            name=f"{self.name}-rev",
        )

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Return a copy carrying the given edge weights."""
        return Graph(self.num_vertices, self.src, self.dst,
                     np.asarray(weights, dtype=np.float64), name=self.name)

    def with_unit_weights(self) -> "Graph":
        """Return a copy whose every edge weight is 1.0 (for SSSP/SpMV)."""
        return self.with_weights(np.ones(self.num_edges))

    def relabel(self, mapping: np.ndarray, name: str | None = None) -> "Graph":
        """Apply a vertex permutation: new id of vertex v is mapping[v].

        Used by hash partitioning (Section 4.3) to balance interval sizes.
        """
        mapping = np.asarray(mapping, dtype=VERTEX_DTYPE)
        if mapping.shape != (self.num_vertices,):
            raise GraphError(
                f"mapping must have length {self.num_vertices}, "
                f"got {mapping.shape}"
            )
        if self.num_vertices and (
            np.sort(mapping) != np.arange(self.num_vertices)
        ).any():
            raise GraphError("mapping must be a permutation of vertex ids")
        if self.num_edges:
            src = mapping[self.src]
            dst = mapping[self.dst]
        else:
            src, dst = self.src, self.dst
        return Graph(self.num_vertices, src, dst, self.weights,
                     name=name or f"{self.name}-relabelled")

    def sorted_by(self, order: np.ndarray, name: str | None = None) -> "Graph":
        """Return a copy whose edges are permuted by ``order``."""
        order = np.asarray(order)
        if order.shape != (self.num_edges,):
            raise GraphError("order must index every edge exactly once")
        w = None if self.weights is None else self.weights[order]
        return Graph(self.num_vertices, self.src[order], self.dst[order], w,
                     name=name or self.name)

    def deduplicated(self) -> "Graph":
        """Remove duplicate (src, dst) pairs, keeping the first occurrence."""
        if not self.num_edges:
            return self
        keys = self.src * self.num_vertices + self.dst
        _, first = np.unique(keys, return_index=True)
        first.sort()
        w = None if self.weights is None else self.weights[first]
        return Graph(self.num_vertices, self.src[first], self.dst[first], w,
                     name=self.name)

    def without_self_loops(self) -> "Graph":
        """Remove edges whose source equals their destination."""
        keep = self.src != self.dst
        w = None if self.weights is None else self.weights[keep]
        return Graph(self.num_vertices, self.src[keep], self.dst[keep], w,
                     name=self.name)

    # --- interop ----------------------------------------------------------

    def to_networkx(self):
        """Convert to a networkx.DiGraph (reference implementations)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_vertices))
        if self.is_weighted:
            g.add_weighted_edges_from(
                zip(self.src.tolist(), self.dst.tolist(),
                    self.weights.tolist())
            )
        else:
            g.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
        return g

    def to_csr(self):
        """Convert to a scipy CSR adjacency matrix (rows = sources)."""
        from scipy.sparse import csr_matrix

        data = (
            self.weights
            if self.is_weighted
            else np.ones(self.num_edges, dtype=np.float64)
        )
        return csr_matrix(
            (data, (self.src, self.dst)),
            shape=(self.num_vertices, self.num_vertices),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = ", weighted" if self.is_weighted else ""
        return (
            f"Graph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}{w})"
        )
