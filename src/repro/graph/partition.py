"""Interval-block (grid) partitioning of a graph (Section 2.1, Fig. 1).

Vertices are split into ``P`` contiguous *intervals* I_0..I_{P-1}; edges
are split into ``P^2`` *blocks*, where block B_{i,j} holds the edges whose
source lies in I_i and destination in I_j.  HyVE streams edges block by
block so that all random vertex accesses of a block hit the two on-chip
intervals (source and destination) only.

The partition is stored CSR-style: edges are permuted into block-major
order and ``block_ptr`` gives the offset of each block in the permuted
arrays, so slicing a block is O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import PartitionError
from .graph import Graph

#: Memoised partitions, keyed on ``(graph.fingerprint(), P)``.  Building
#: a partition costs an O(E log E) argsort; its consumers (the blocked
#: executor and the schedule validator) want the same object, so builds
#: are shared process-wide.
_PARTITION_MEMO: OrderedDict[tuple[str, int], "IntervalBlockPartition"] = (
    OrderedDict()
)

#: Upper bound on memoised partitions; beyond it the least recently used
#: entry is dropped (each entry holds O(E) permutation state).
_PARTITION_MEMO_CAPACITY = 64


def clear_partition_cache() -> None:
    """Drop every memoised partition (mainly for tests)."""
    _PARTITION_MEMO.clear()


def partition_cache_len() -> int:
    """Number of partitions currently memoised."""
    return len(_PARTITION_MEMO)


def step_counts_from_blocks(
    block_counts: np.ndarray, num_pus: int
) -> np.ndarray:
    """Per-step per-PU edge counts from a P x P block-count matrix.

    The schedule shape (Algorithm 2's round-robin data sharing) is a
    pure function of the per-block edge counts, so it can be computed
    from a histogram alone — which is what the out-of-core path does:
    per-shard histograms are additive integers, merge exactly, and feed
    this function to reproduce
    :meth:`IntervalBlockPartition.super_block_step_counts`
    bit-identically without ever materialising the partition.

    Returns an array of shape ``(P/N, P/N, N, N)`` indexed as
    ``[X, Y, step, pu]``; see
    :meth:`IntervalBlockPartition.super_block_step_counts`.
    """
    counts = np.asarray(block_counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise PartitionError(
            f"block counts must be a square matrix, got shape {counts.shape}"
        )
    n = num_pus
    if n <= 0:
        raise PartitionError(f"need at least one PU, got {n}")
    p = counts.shape[0]
    if p % n:
        raise PartitionError(
            f"P={p} must be a multiple of N={n} for super-block scheduling"
        )
    q = p // n
    blocks = counts.reshape(q, n, q, n)  # [X, i, Y, j]
    out = np.empty((q, q, n, n), dtype=np.int64)
    pus = np.arange(n)
    for step in range(n):
        rows = (pus + step) % n
        # PU k handles local block (rows[k], k) of the super block.
        out[:, :, step, :] = blocks[:, rows, :, pus].transpose(1, 2, 0)
    return out


def interval_bounds(num_vertices: int, num_intervals: int) -> np.ndarray:
    """Start offsets of each interval, plus a final sentinel.

    Vertices are distributed as evenly as possible: the first
    ``num_vertices % P`` intervals get one extra vertex.

    Returns:
        int64 array of length ``num_intervals + 1``; interval ``i`` spans
        ``[bounds[i], bounds[i+1])``.
    """
    if num_intervals <= 0:
        raise PartitionError(f"need at least one interval, got {num_intervals}")
    base, extra = divmod(num_vertices, num_intervals)
    sizes = np.full(num_intervals, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(num_intervals + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def interval_of(vertices: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Map vertex ids to the interval index containing them."""
    return np.searchsorted(bounds, vertices, side="right") - 1


def _even_interval_of(
    vertices: np.ndarray, num_vertices: int, num_intervals: int
) -> np.ndarray:
    """:func:`interval_of` specialised to :func:`interval_bounds` splits.

    The even split puts ``base + 1`` vertices in the first ``extra``
    intervals and ``base`` in the rest, so the interval index is pure
    arithmetic — no binary search over the bounds.
    """
    base, extra = divmod(num_vertices, num_intervals)
    if base == 0:  # more intervals than vertices: all ids map directly
        return np.asarray(vertices, dtype=np.int64).copy()
    if extra == 0:
        return vertices // base
    cut = extra * (base + 1)
    return np.where(vertices < cut,
                    vertices // (base + 1),
                    extra + (vertices - cut) // base)


@dataclass(frozen=True)
class IntervalBlockPartition:
    """A graph partitioned into P intervals and P^2 blocks.

    Attributes:
        graph: the partitioned graph (edge order is the original order).
        num_intervals: P.
        bounds: interval start offsets (length P+1).
        order: permutation putting edges into block-major order.
        block_ptr: offsets of each block within the permuted edge arrays,
            length P^2 + 1; block (i, j) is at flat index ``i * P + j``.
    """

    graph: Graph
    num_intervals: int
    bounds: np.ndarray
    order: np.ndarray
    block_ptr: np.ndarray

    @classmethod
    def build(cls, graph: Graph, num_intervals: int) -> "IntervalBlockPartition":
        """Partition ``graph`` into ``num_intervals`` intervals.

        This is the preprocessing step of the paper (one-shot, performed
        before edges are written into the ReRAM edge memory).
        """
        if num_intervals <= 0:
            raise PartitionError(
                f"need at least one interval, got {num_intervals}"
            )
        if num_intervals > max(graph.num_vertices, 1):
            raise PartitionError(
                f"cannot split {graph.num_vertices} vertices into "
                f"{num_intervals} non-degenerate intervals"
            )
        bounds = interval_bounds(graph.num_vertices, num_intervals)
        src_iv = _even_interval_of(graph.src, graph.num_vertices,
                                   num_intervals)
        dst_iv = _even_interval_of(graph.dst, graph.num_vertices,
                                   num_intervals)
        flat = src_iv * num_intervals + dst_iv
        if num_intervals * num_intervals <= np.iinfo(np.uint16).max:
            # Radix-sortable key width: numpy's stable sort on 16-bit
            # integers is an O(E) radix pass instead of O(E log E).
            order = np.argsort(flat.astype(np.uint16), kind="stable")
        elif num_intervals <= np.iinfo(np.uint16).max + 1:
            # Block-major is lexicographic (src interval, dst interval):
            # two stable 16-bit radix passes, LSB (dst) first, give the
            # identical permutation at radix speed.
            low = np.argsort(dst_iv.astype(np.uint16), kind="stable")
            order = low[np.argsort(src_iv[low].astype(np.uint16),
                                   kind="stable")]
        else:
            order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=num_intervals * num_intervals)
        block_ptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=block_ptr[1:])
        return cls(graph, num_intervals, bounds, order, block_ptr)

    @classmethod
    def cached(cls, graph: Graph, num_intervals: int) -> "IntervalBlockPartition":
        """Memoised :meth:`build`, keyed on ``(fingerprint, P)``.

        Two calls for content-equal graphs and the same P return the
        *same object* — the one-shot preprocessing premise of Section
        3.4 (edges are permuted once, then streamed many times).
        """
        key = (graph.fingerprint(), int(num_intervals))
        part = _PARTITION_MEMO.get(key)
        if part is not None:
            _PARTITION_MEMO.move_to_end(key)
            return part
        part = cls.build(graph, num_intervals)
        _PARTITION_MEMO[key] = part
        while len(_PARTITION_MEMO) > _PARTITION_MEMO_CAPACITY:
            _PARTITION_MEMO.popitem(last=False)
        return part

    # --- intervals -------------------------------------------------------

    def interval_size(self, i: int) -> int:
        """Number of vertices in interval ``i``."""
        self._check_interval(i)
        return int(self.bounds[i + 1] - self.bounds[i])

    def interval_sizes(self) -> np.ndarray:
        """Vertex count of every interval."""
        return np.diff(self.bounds)

    def interval_vertices(self, i: int) -> np.ndarray:
        """Vertex ids belonging to interval ``i``."""
        self._check_interval(i)
        return np.arange(self.bounds[i], self.bounds[i + 1])

    def max_interval_size(self) -> int:
        """Largest interval (what must fit in one on-chip section)."""
        return int(self.interval_sizes().max(initial=0))

    def _check_interval(self, i: int) -> None:
        if not 0 <= i < self.num_intervals:
            raise PartitionError(
                f"interval index {i} out of range [0, {self.num_intervals})"
            )

    # --- blocks ----------------------------------------------------------

    def block_edge_count(self, i: int, j: int) -> int:
        """Number of edges in block (i, j)."""
        flat = self._flat(i, j)
        return int(self.block_ptr[flat + 1] - self.block_ptr[flat])

    def block_edges(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of block (i, j), in stream order."""
        flat = self._flat(i, j)
        sel = self.order[self.block_ptr[flat]:self.block_ptr[flat + 1]]
        return self.graph.src[sel], self.graph.dst[sel]

    def block_edge_indices(self, i: int, j: int) -> np.ndarray:
        """Original edge indices of block (i, j)."""
        flat = self._flat(i, j)
        return self.order[self.block_ptr[flat]:self.block_ptr[flat + 1]]

    @cached_property
    def streamed_edges(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(src, dst, weights)`` permuted once into block-major order.

        This is the Section 3.4 preprocessing output: the edge arrays as
        they sit in the sequential ReRAM edge memory.  Computed once per
        partition; afterwards any run of consecutive blocks is a
        contiguous O(1) slice (see :meth:`block_slice` /
        :meth:`block_row_slice`) instead of an O(edges) fancy-indexed
        gather.
        """
        g = self.graph
        src = g.src[self.order]
        dst = g.dst[self.order]
        weights = None if g.weights is None else g.weights[self.order]
        return src, dst, weights

    def block_slice(self, i: int, j: int) -> slice:
        """Slice of the block-major arrays covering block (i, j)."""
        flat = self._flat(i, j)
        return slice(int(self.block_ptr[flat]),
                     int(self.block_ptr[flat + 1]))

    def block_row_slice(self, i: int, j_start: int, j_stop: int) -> slice:
        """Slice covering the contiguous run of blocks (i, j_start..j_stop-1).

        Blocks with the same source interval are adjacent in block-major
        order, so a whole row segment of a super block is one slice.
        """
        if j_stop <= j_start:
            if j_stop < j_start:
                raise PartitionError(
                    f"empty block run: j_start={j_start} > j_stop={j_stop}"
                )
            start = int(self.block_ptr[self._flat(i, j_start)])
            return slice(start, start)
        first = self._flat(i, j_start)
        last = self._flat(i, j_stop - 1)
        return slice(int(self.block_ptr[first]),
                     int(self.block_ptr[last + 1]))

    def _flat(self, i: int, j: int) -> int:
        p = self.num_intervals
        if not (0 <= i < p and 0 <= j < p):
            raise PartitionError(
                f"block index ({i}, {j}) out of range for P={p}"
            )
        return i * p + j

    @cached_property
    def block_counts(self) -> np.ndarray:
        """P x P matrix of per-block edge counts."""
        counts = np.diff(self.block_ptr)
        return counts.reshape(self.num_intervals, self.num_intervals)

    def nonempty_blocks(self) -> int:
        """Number of blocks containing at least one edge."""
        return int(np.count_nonzero(self.block_counts))

    def occupancy(self) -> float:
        """Fraction of the P^2 blocks that are non-empty."""
        total = self.num_intervals ** 2
        return self.nonempty_blocks() / total if total else 0.0

    # --- super blocks (Section 4.2) ---------------------------------------

    def num_super_blocks(self, num_pus: int) -> int:
        """Number of N x N super blocks for ``num_pus`` processing units."""
        if num_pus <= 0:
            raise PartitionError(f"need at least one PU, got {num_pus}")
        if self.num_intervals % num_pus:
            raise PartitionError(
                f"P={self.num_intervals} must be a multiple of N={num_pus} "
                "for super-block scheduling"
            )
        return (self.num_intervals // num_pus) ** 2

    def super_block_counts(self, num_pus: int) -> np.ndarray:
        """(P/N) x (P/N) matrix of per-super-block edge counts."""
        q = self.num_intervals // max(num_pus, 1)
        self.num_super_blocks(num_pus)  # validates divisibility
        counts = self.block_counts.reshape(q, num_pus, q, num_pus)
        return counts.sum(axis=(1, 3))

    def super_block_step_counts(self, num_pus: int) -> np.ndarray:
        """Per-step per-PU edge counts under round-robin data sharing.

        Within super block (X, Y), step ``s`` lets PU ``k`` process block
        (X*N + (k + s) % N, Y*N + k).  The returned array has shape
        ``(P/N, P/N, N, N)`` indexed as [X, Y, step, pu]; its entries are
        the per-PU edge counts whose per-step maximum bounds the
        processing time (Algorithm 2's synchronisation barrier).
        """
        self.num_super_blocks(num_pus)  # validates divisibility
        return step_counts_from_blocks(self.block_counts, num_pus)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntervalBlockPartition(P={self.num_intervals}, "
            f"graph={self.graph.name!r}, "
            f"nonempty={self.nonempty_blocks()}/{self.num_intervals ** 2})"
        )
