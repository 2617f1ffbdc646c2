"""Dynamic graph storage (Section 5).

HyVE supports evolving graphs with O(1) incremental updates instead of
re-running preprocessing:

* **Adding edges** — appended at the end of the owning block's memory
  extent; every block reserves ~30% slack, and when it runs out an
  extension region is allocated and linked from the block's end.
* **Deleting edges** — the deleted edge is overwritten by the block's
  last edge and the last slot is freed (order inside a block is
  irrelevant to the edge-centric model).
* **Adding vertices** — intervals also reserve slack; when an interval
  overflows, a full re-preprocessing pass runs (vertex access is not
  sequential, so extension chaining does not work — Section 5).
* **Deleting vertices** — the value is set to an invalid sentinel and
  incident edges are removed.

A :class:`GraphRDynamicStore` mirrors the same request interface over
GraphR's representation — fixed 8x8 adjacency tiles that must be kept
in dense (crossbar-loadable) form — which is what makes its update
throughput ~8x lower (Fig. 20).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DynamicGraphError
from ..graph.graph import Graph, VERTEX_DTYPE
from ..graph.partition import interval_bounds

#: Sentinel value of deleted vertices ("e.g., -1 for PageRank").
INVALID_VALUE = -1.0

#: Default reserved slack ("e.g., 30% of a block size").
DEFAULT_SLACK = 0.30


@dataclass
class DynamicStats:
    """Bookkeeping of one store's update history."""

    edges_added: int = 0
    edges_deleted: int = 0
    vertices_added: int = 0
    vertices_deleted: int = 0
    extensions_allocated: int = 0
    repartitions: int = 0
    #: GraphR only: tile-directory entries created by edge additions.
    tiles_allocated: int = 0

    @property
    def edges_changed(self) -> int:
        """Total edge mutations (the Fig. 20 throughput numerator)."""
        return self.edges_added + self.edges_deleted


def _encode_edges(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Pack (src, dst) pairs into single int64 edge records."""
    return (src.astype(np.int64) << 32) | dst.astype(np.int64)


class DynamicGraphStore:
    """HyVE's interval-block layout with O(1) incremental updates.

    Edges are packed 8-byte records (``src << 32 | dst``) held in a
    global multiset keyed by record, alongside dense per-block
    occupancy/capacity/extension counters — the paper's layout is a
    flat record array per block with ~30% reserved slack and extension
    chaining, and the counters reproduce exactly the extension
    allocations that layout would make, while the multiset makes every
    update a single O(1) dict operation (HyVE's whole point: one
    8-byte record write per update, no image rewrites).
    """

    def __init__(
        self,
        graph: Graph,
        num_intervals: int = 32,
        slack: float = DEFAULT_SLACK,
    ) -> None:
        if slack < 0:
            raise DynamicGraphError(f"slack must be non-negative: {slack}")
        self.slack = slack
        self.num_intervals = num_intervals
        self.stats = DynamicStats()
        self._build(graph)

    # --- construction ------------------------------------------------------

    def _build(self, graph: Graph) -> None:
        self._capacity = max(
            4, int(np.ceil(graph.num_vertices * (1.0 + self.slack)))
        )
        self._num_vertices = graph.num_vertices
        self._valid = np.zeros(self._capacity, dtype=bool)
        self._valid[: graph.num_vertices] = True
        self._values = np.zeros(self._capacity)
        self._bounds = interval_bounds(
            max(self._capacity, 1), self.num_intervals
        )
        # Uniform-enough interval size for O(1) id -> interval mapping.
        self._interval_stride = max(
            1, -(-self._capacity // self.num_intervals)
        )
        nblocks = self.num_intervals * self.num_intervals
        self._block_used = np.zeros(nblocks, dtype=np.int64)
        self._counts: dict[int, int] = {}
        self._weights_map: dict[int, list[float]] | None = (
            {} if graph.is_weighted else None
        )
        if graph.num_edges:
            records = _encode_edges(graph.src, graph.dst)
            uniq, mult = np.unique(records, return_counts=True)
            self._counts = dict(zip(uniq.tolist(), mult.tolist()))
            np.add.at(
                self._block_used, self._block_ids(graph.src, graph.dst), 1
            )
            if self._weights_map is not None:
                wmap = self._weights_map
                for key, w in zip(
                    records.tolist(), graph.weights.tolist()
                ):
                    wmap.setdefault(key, []).append(w)
        # Every block reserves ~30% slack over its initial population
        # (an empty block's first extent holds four records).
        self._block_cap = np.maximum(
            4,
            np.ceil(self._block_used * (1.0 + self.slack)).astype(np.int64),
        )
        self._num_edges = graph.num_edges
        self._weighted = graph.is_weighted

    # --- queries ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def is_valid(self, v: int) -> bool:
        return 0 <= v < self._num_vertices and bool(self._valid[v])

    def invalid_vertices(self) -> list[int]:
        """Ids of vertices deleted by invalidation."""
        return np.nonzero(~self._valid[: self._num_vertices])[0].tolist()

    def value(self, v: int) -> float:
        self._check_vertex(v)
        return float(self._values[v]) if self._valid[v] else INVALID_VALUE

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_vertices:
            raise DynamicGraphError(
                f"vertex {v} out of range [0, {self._num_vertices})"
            )

    def _interval_of(self, v: int) -> int:
        return min(v // self._interval_stride, self.num_intervals - 1)

    def _block_id(self, s: int, d: int) -> int:
        return (
            self._interval_of(s) * self.num_intervals + self._interval_of(d)
        )

    def _block_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        ni = self.num_intervals
        src_iv = np.minimum(src // self._interval_stride, ni - 1)
        dst_iv = np.minimum(dst // self._interval_stride, ni - 1)
        return src_iv * ni + dst_iv

    # --- mutations ----------------------------------------------------------

    def _grow_block(self, block: int) -> None:
        """Allocate one extension for a block whose occupancy just
        outgrew its capacity (Section 5: reserved space exhausted means
        an extension region is allocated and linked at the end of the
        block).  Occupancy grows one record at a time and an extension
        adds at least four, so one always suffices."""
        cap = int(self._block_cap[block])
        self._block_cap[block] = cap + max(4, cap // 2)
        self.stats.extensions_allocated += 1

    def add_edge(self, s: int, d: int, weight: float | None = None) -> None:
        """O(1): append a record into the owning block's slack space."""
        self._check_vertex(s)
        self._check_vertex(d)
        if not (self._valid[s] and self._valid[d]):
            raise DynamicGraphError(
                f"edge ({s}, {d}) touches a deleted vertex"
            )
        if self._weighted and weight is None:
            raise DynamicGraphError(
                "this store holds weighted edges; pass weight="
            )
        if not self._weighted and weight is not None:
            raise DynamicGraphError(
                "this store holds unweighted edges; omit weight="
            )
        key = (s << 32) | d
        self._counts[key] = self._counts.get(key, 0) + 1
        if self._weights_map is not None:
            self._weights_map.setdefault(key, []).append(float(weight))
        block = self._block_id(s, d)
        self._block_used[block] += 1
        if self._block_used[block] > self._block_cap[block]:
            self._grow_block(block)
        self._num_edges += 1
        self.stats.edges_added += 1

    def delete_edge(self, s: int, d: int) -> None:
        """O(1): the record is overwritten by the block's last edge and
        the last slot is freed (order inside a block is irrelevant)."""
        key = (s << 32) | d
        count = self._counts.get(key, 0)
        if count <= 0:
            raise DynamicGraphError(f"edge ({s}, {d}) not present")
        if count == 1:
            del self._counts[key]
        else:
            self._counts[key] = count - 1
        if self._weights_map is not None:
            weights = self._weights_map[key]
            weights.pop()
            if not weights:
                del self._weights_map[key]
        self._block_used[self._block_id(s, d)] -= 1
        self._num_edges -= 1
        self.stats.edges_deleted += 1

    def add_vertex(self, value: float = 0.0) -> int:
        """O(1) while interval slack lasts; repartitions on overflow."""
        if self._num_vertices == self._capacity:
            self._repartition()
        v = self._num_vertices
        self._num_vertices += 1
        self._valid[v] = True
        self._values[v] = value
        self.stats.vertices_added += 1
        return v

    def delete_vertex(self, v: int, purge_edges: bool = False) -> int:
        """Delete vertex ``v``.

        The paper's O(1) scheme marks the value invalid (-1) and leaves
        incident edges in place — the edge-centric update simply has no
        effect for them.  ``purge_edges=True`` additionally removes the
        incident edges (O(edge records)), for callers that need a
        physically clean graph.
        """
        self._check_vertex(v)
        if not self._valid[v]:
            raise DynamicGraphError(f"vertex {v} already deleted")
        self._valid[v] = False
        self._values[v] = INVALID_VALUE
        removed = 0
        if purge_edges and self._counts:
            keys = np.fromiter(
                self._counts.keys(), dtype=np.int64, count=len(self._counts)
            )
            mult = np.fromiter(
                self._counts.values(), dtype=np.int64,
                count=len(self._counts),
            )
            src = keys >> 32
            dst = keys & 0xFFFFFFFF
            incident = (src == v) | (dst == v)
            removed = int(mult[incident].sum())
            if removed:
                for key in keys[incident].tolist():
                    del self._counts[key]
                    if self._weights_map is not None:
                        self._weights_map.pop(key, None)
                freed = np.bincount(
                    self._block_ids(src[incident], dst[incident]),
                    weights=mult[incident],
                    minlength=self._block_used.size,
                ).astype(np.int64)
                self._block_used -= freed
                self._num_edges -= removed
                self.stats.edges_deleted += removed
        self.stats.vertices_deleted += 1
        return removed

    def _repartition(self) -> None:
        """Full re-preprocessing: rebuild layout with fresh slack."""
        graph = self.to_graph()
        values = self._values[: self._num_vertices].copy()
        valid = self._valid[: self._num_vertices].copy()
        stats = self.stats
        self._build(graph)
        self._values[: values.size] = values
        self._valid[: valid.size] = valid
        self.stats = stats
        self.stats.repartitions += 1

    # --- export -------------------------------------------------------------

    def to_graph(self, name: str = "dynamic") -> Graph:
        """Materialise the current edge set as an immutable graph."""
        if not self._counts:
            empty = np.empty(0, dtype=VERTEX_DTYPE)
            return Graph(
                self._num_vertices, empty, empty,
                np.empty(0) if self._weighted else None,
                name=name,
            )
        keys = np.fromiter(
            self._counts.keys(), dtype=np.int64, count=len(self._counts)
        )
        mult = np.fromiter(
            self._counts.values(), dtype=np.int64, count=len(self._counts)
        )
        expanded = np.repeat(keys, mult)
        src = (expanded >> 32).astype(VERTEX_DTYPE)
        dst = (expanded & 0xFFFFFFFF).astype(VERTEX_DTYPE)
        weights = None
        if self._weighted:
            weights = np.array(
                [
                    w
                    for key in keys.tolist()
                    for w in self._weights_map[key]
                ]
            )
        return Graph(self._num_vertices, src, dst, weights, name=name)


class GraphRDynamicStore:
    """The same request interface over GraphR's 8x8-tile representation.

    GraphR's processing format is the dense adjacency matrix of each
    non-empty 8x8 tile (what gets written into a crossbar), so every
    edge mutation must also update the dense tile image — and the tile
    population is ~N_avg edges, so there are orders of magnitude more
    tiles to manage than HyVE has blocks.

    All tile images live in one growable ``(tiles, planes, 8, 8)``
    array with a key -> slot directory.
    """

    TILE = 8
    #: 16-bit cell values split over four 4-bit crossbar planes.
    PLANES = 4
    #: Cell counts are 16-bit (four 4-bit nibbles), so the images are
    #: stored at exactly that width.
    IMAGE_DTYPE = np.uint16

    def __init__(self, graph: Graph, slack: float = DEFAULT_SLACK) -> None:
        self.slack = slack
        self.stats = DynamicStats()
        self._num_vertices = graph.num_vertices
        self._valid = np.ones(graph.num_vertices, dtype=bool)
        self._slot: dict[tuple[int, int], int] = {}
        self._ntiles = 0
        self._images = np.zeros(
            (0, self.PLANES, self.TILE, self.TILE), dtype=self.IMAGE_DTYPE
        )
        # Row/column tile directories, built lazily: only vertex purges
        # read them, so bulk loading skips the per-tile registration.
        self._row_index: dict[int, set[tuple[int, int]]] | None = None
        self._col_index: dict[int, set[tuple[int, int]]] | None = None
        self._num_edges = 0
        if graph.num_edges:
            self._bulk_load(graph)

    def _indexes(
        self,
    ) -> tuple[
        dict[int, set[tuple[int, int]]], dict[int, set[tuple[int, int]]]
    ]:
        if self._row_index is None or self._col_index is None:
            row: dict[int, set[tuple[int, int]]] = {}
            col: dict[int, set[tuple[int, int]]] = {}
            for key in self._slot:
                row.setdefault(key[0], set()).add(key)
                col.setdefault(key[1], set()).add(key)
            self._row_index, self._col_index = row, col
        return self._row_index, self._col_index

    def _register_tile(self, key: tuple[int, int]) -> None:
        if self._row_index is not None:
            self._row_index.setdefault(key[0], set()).add(key)
        if self._col_index is not None:
            self._col_index.setdefault(key[1], set()).add(key)

    def _ensure_capacity(self, extra: int) -> None:
        need = self._ntiles + extra
        cap = len(self._images)
        if need > cap:
            new_cap = max(need, cap + (cap >> 1), 64)
            grown = np.zeros(
                (new_cap, self.PLANES, self.TILE, self.TILE),
                dtype=self.IMAGE_DTYPE,
            )
            grown[: self._ntiles] = self._images[: self._ntiles]
            self._images = grown

    def _bulk_load(self, graph: Graph) -> None:
        """Vectorised initial tiling (the one-shot preprocessing pass).

        One ``np.unique`` over a combined (tile, cell) key replaces the
        per-tile ``np.add.at`` scatter of the naive version: cell counts
        for *all* tiles land directly in the slot array, and the only
        remaining Python work is the key -> slot dict construction.
        """
        t = self.TILE
        cells = t * t
        stride = (self._num_vertices // t) + 1
        flat = (graph.src // t) * stride + graph.dst // t
        combined = flat * cells + (graph.src % t) * t + graph.dst % t
        uniq, counts = np.unique(combined, return_counts=True)
        cell_idx = uniq % cells
        tile_flat = uniq // cells
        boundaries = np.nonzero(np.diff(tile_flat))[0] + 1
        tile_ids = tile_flat[np.concatenate([[0], boundaries])]
        ntiles = tile_ids.size
        sizes = np.diff(np.concatenate([[0], boundaries,
                                        [tile_flat.size]]))
        owner = np.repeat(np.arange(ntiles), sizes)

        # Allocate the slack share up front: the untouched tail pages
        # cost nothing until a batch claims slots, and the first bulk
        # update then skips the grow-and-copy entirely.
        cap = ntiles + max(64, int(ntiles * self.slack))
        tiles = np.zeros(
            (cap, self.PLANES, t, t), dtype=self.IMAGE_DTYPE
        )
        tiles[:ntiles, 0].reshape(ntiles, cells)[owner, cell_idx] = counts
        # Upper planes hold the 4-bit nibbles of the 16-bit cell count;
        # they are only non-zero where a cell count reaches 16.
        if counts.size and int(counts.max()) >= 16:
            base = tiles[:ntiles, 0]
            for plane in range(1, self.PLANES):
                tiles[:ntiles, plane] = (base >> (4 * plane)) & 0xF

        rows = (tile_ids // stride).tolist()
        cols = (tile_ids % stride).tolist()
        self._images = tiles
        self._ntiles = ntiles
        self._slot = dict(zip(zip(rows, cols), range(ntiles)))
        self._num_edges = graph.num_edges

    def _tile_key(self, s: int, d: int) -> tuple[tuple[int, int], int, int]:
        t = self.TILE
        return (s // t, d // t), s % t, d % t

    def _tile_set(self, s: int, d: int, value: int) -> np.ndarray:
        key, r, c = self._tile_key(s, d)
        slot = self._slot.get(key)
        if slot is None:
            self._ensure_capacity(1)
            slot = self._ntiles
            self._ntiles += 1
            self._slot[key] = slot
            self._register_tile(key)
            self.stats.tiles_allocated += 1
        tile = self._images[slot]
        count = int(tile[0, r, c]) + value
        # The dense images are what the four 4-bit crossbars load:
        # every mutation re-encodes the cell across all planes and
        # rewrites the image.
        for plane in range(self.PLANES):
            tile[plane, r, c] = (count >> (4 * plane)) & 0xF if count else 0
        tile[0, r, c] = count
        return tile

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def invalid_vertices(self) -> list[int]:
        """Ids of vertices deleted by invalidation."""
        return np.nonzero(~self._valid[: self._num_vertices])[0].tolist()

    def add_edge(self, s: int, d: int) -> None:
        if not (0 <= s < self._num_vertices and 0 <= d < self._num_vertices):
            raise DynamicGraphError(f"edge ({s}, {d}) out of range")
        self._tile_set(s, d, 1)
        self._num_edges += 1
        self.stats.edges_added += 1

    def delete_edge(self, s: int, d: int) -> None:
        key, r, c = self._tile_key(s, d)
        slot = self._slot.get(key)
        if slot is None or self._images[slot, 0, r, c] <= 0:
            raise DynamicGraphError(f"edge ({s}, {d}) not present")
        self._tile_set(s, d, -1)
        self._num_edges -= 1
        self.stats.edges_deleted += 1

    def add_vertex(self, value: float = 0.0) -> int:
        del value
        # The tile grid is sized by vertex count: growing it shifts the
        # tiling, which GraphR handles with a re-preprocessing pass
        # unless the id lands inside the current boundary tile.
        v = self._num_vertices
        self._num_vertices += 1
        self._valid = np.append(self._valid, True)
        if v % self.TILE == 0:
            self.stats.repartitions += 1
        self.stats.vertices_added += 1
        return v

    def delete_vertex(self, v: int, purge_edges: bool = False) -> int:
        """Same invalidation strategy as HyVE ("we apply the same
        strategy for GraphR"); purging additionally clears the vertex's
        row/column in every dense tile image."""
        if not (0 <= v < self._num_vertices and self._valid[v]):
            raise DynamicGraphError(f"vertex {v} not present")
        self._valid[v] = False
        removed = 0
        if purge_edges:
            t = self.TILE
            row, col = v // t, v % t
            row_index, col_index = self._indexes()
            keys = (
                row_index.get(row, set())
                | col_index.get(row, set())
            )
            for key in keys:
                tile = self._images[self._slot[key]]
                if key[0] == row:
                    removed += int(tile[0, col, :].sum())
                    tile[:, col, :] = 0
                if key[1] == row:
                    removed += int(tile[0, :, col].sum())
                    tile[:, :, col] = 0
            self._num_edges -= removed
            self.stats.edges_deleted += removed
        self.stats.vertices_deleted += 1
        return removed
