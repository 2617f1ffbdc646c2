"""Dynamic-update traffic model (Fig. 20).

The paper puts HyVE's 8.04x update-throughput advantage over GraphR
(Section 5, Section 7.4.2) down to data movement per update: HyVE
writes one 8-byte record into its block's reserved slack, while GraphR
must rewrite the dense crossbar image of the touched 8x8 tile.  This
module replays the paper's 45/45/5/5 request mix, counts what the
stream does to each store, and prices the counts in bytes moved.  At a
fixed memory bandwidth update throughput is inversely proportional to
the bytes moved per update, so the ratio of the two totals is the
reproduced Fig. 20 ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.graph import Graph
from .store import DynamicGraphStore, GraphRDynamicStore
from .updates import RequestKind, apply_requests, generate_requests

#: Bytes moved by one edge update in each representation.  HyVE
#: appends/overwrites one 8-byte edge record and touches the block
#: directory; GraphR must rewrite the dense crossbar image of the tile
#: (four 8x8 crossbars of 4-bit cells = 128 bytes) plus its directory
#: entry.
HYVE_BYTES_PER_UPDATE = 8 + 8
GRAPHR_BYTES_PER_UPDATE = 128 + 8

#: An extension region linked from a HyVE block's end: one pointer.
EXTENSION_LINK_BYTES = 8

#: A GraphR tile that did not exist yet: one tile-directory entry.
TILE_ENTRY_BYTES = 8

#: A vertex addition or deletion writes one value (the sentinel for a
#: deletion) into reserved interval slack.  Both stores pay it: the
#: paper applies "the same strategy" to GraphR's vertices.
VERTEX_VALUE_BYTES = 8


def modeled_absolute_throughput() -> float:
    """Modelled single-thread HyVE update rate (edges/s).

    An update is one address computation plus one in-cache record
    append — the same per-edge work as the preprocessing inner loop, so
    the calibrated per-edge constant of the preprocessing model applies.
    The paper measures 42.43 M edges/s/thread (Section 1) and up to
    46.98 M (Section 7.4.2).
    """
    from ..model.preprocessing import PER_EDGE_BASE

    return 1.0 / PER_EDGE_BASE


@dataclass(frozen=True)
class UpdateCounts:
    """What one request stream does to the HyVE and GraphR stores.

    The first four fields are the stream's own and the same for both
    stores; the rest are each store's bookkeeping, as the stores'
    :class:`~repro.dynamic.store.DynamicStats` count it under a
    per-request replay.
    """

    edges_added: int
    edges_deleted: int
    vertices_added: int
    vertices_deleted: int
    #: HyVE extension regions allocated when block slack ran out.
    hyve_extensions: int
    #: GraphR tile-directory entries created by edge additions.
    graphr_tiles: int
    #: GraphR tile-grid regrowths (counted, not priced).
    graphr_regrowths: int

    @property
    def edges_changed(self) -> int:
        return self.edges_added + self.edges_deleted

    @property
    def vertices_changed(self) -> int:
        return self.vertices_added + self.vertices_deleted

    def hyve_edge_bytes(self) -> int:
        """Bytes HyVE moves for the stream's edge updates."""
        return (HYVE_BYTES_PER_UPDATE * self.edges_changed
                + EXTENSION_LINK_BYTES * self.hyve_extensions)

    def graphr_edge_bytes(self) -> int:
        """Bytes GraphR moves for the stream's edge updates."""
        return (GRAPHR_BYTES_PER_UPDATE * self.edges_changed
                + TILE_ENTRY_BYTES * self.graphr_tiles)

    def vertex_bytes(self) -> int:
        """Bytes either store moves for the stream's vertex updates."""
        return VERTEX_VALUE_BYTES * self.vertices_changed

    def hyve_bytes(self) -> int:
        """Bytes HyVE moves to apply the stream."""
        return self.hyve_edge_bytes() + self.vertex_bytes()

    def graphr_bytes(self) -> int:
        """Bytes GraphR moves to apply the stream."""
        return self.graphr_edge_bytes() + self.vertex_bytes()

    def modeled_ratio(self) -> float:
        """HyVE-over-GraphR update throughput at equal bandwidth (1.0
        for a stream that moves nothing)."""
        hyve = self.hyve_bytes()
        return self.graphr_bytes() / hyve if hyve else 1.0


def _tile_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Distinct GraphR tiles holding the (src, dst) edges."""
    t = GraphRDynamicStore.TILE
    return np.unique(((src.astype(np.int64) // t) << 32) | (dst // t))


def compare_dynamic_throughput(
    graph: Graph,
    num_requests: int = 20_000,
    num_intervals: int = 32,
    seed: int = 0,
) -> UpdateCounts:
    """Fig. 20 for one dataset: the counted traffic of one request
    stream on both stores.

    HyVE's extension count depends on request order (slack runs out
    where additions outpace deletions), so the stream is replayed per
    request into a :class:`~repro.dynamic.store.DynamicGraphStore` and
    its ``DynamicStats`` are read.  GraphR's counts do not: a tile's
    directory entry is created by the first addition into it and never
    freed, and the tile grid regrows at every eighth new vertex id, so
    both are counted from the stream's additions at once without
    building the dense tile images.
    """
    requests = generate_requests(graph, num_requests, seed=seed)
    hyve = DynamicGraphStore(graph, num_intervals=num_intervals)
    apply_requests(hyve, requests)
    stats = hyve.stats
    added = np.array([(r.src, r.dst) for r in requests
                      if r.kind is RequestKind.ADD_EDGE],
                     dtype=np.int64).reshape(-1, 2)
    new_tiles = np.setdiff1d(_tile_keys(added[:, 0], added[:, 1]),
                             _tile_keys(graph.src, graph.dst),
                             assume_unique=True)
    first, t = graph.num_vertices, GraphRDynamicStore.TILE
    return UpdateCounts(
        edges_added=stats.edges_added,
        edges_deleted=stats.edges_deleted,
        vertices_added=stats.vertices_added,
        vertices_deleted=stats.vertices_deleted,
        hyve_extensions=stats.extensions_allocated,
        graphr_tiles=int(new_tiles.size),
        graphr_regrowths=len(range(first + (-first) % t,
                                   first + stats.vertices_added, t)),
    )
