"""Hash-based vertex placement for workload balance (Section 4.3).

HyVE adopts the hash-based partitioning of ForeGraph/GraphH: vertex ids
are permuted by a hash so that high-degree vertices spread uniformly
across intervals instead of clustering, which balances the per-PU edge
counts within each super-block step (the synchronisation barrier of
Algorithm 2 waits for the slowest PU).

The permutation must be invertible so results can be reported against
original ids; we use a multiplicative hash modulo the vertex count with
a multiplier coprime to it, which is a bijection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from .graph import Graph, VERTEX_DTYPE
from .partition import IntervalBlockPartition, step_counts_from_blocks

#: Default multiplier: a large odd prime works for almost all sizes.
_DEFAULT_MULTIPLIER = 2_654_435_761  # Knuth's multiplicative hash constant


def _coprime_multiplier(num_vertices: int, preferred: int) -> int:
    """Smallest multiplier >= preferred coprime to ``num_vertices``."""
    m = preferred % num_vertices or 1
    while math.gcd(m, num_vertices) != 1:
        m += 1
    return m


@dataclass(frozen=True)
class HashPlacement:
    """An invertible vertex relabeling ``new = (mult * old) % n``.

    Attributes:
        num_vertices: size of the id space.
        multiplier: hash multiplier, coprime to ``num_vertices``.
    """

    num_vertices: int
    multiplier: int

    @classmethod
    def for_graph(
        cls, graph: Graph, multiplier: int = _DEFAULT_MULTIPLIER
    ) -> "HashPlacement":
        if graph.num_vertices <= 0:
            raise PartitionError("cannot hash-place an empty vertex set")
        mult = _coprime_multiplier(graph.num_vertices, multiplier)
        return cls(graph.num_vertices, mult)

    def forward(self) -> np.ndarray:
        """Permutation array: ``forward()[old] == new``."""
        ids = np.arange(self.num_vertices, dtype=VERTEX_DTYPE)
        return (ids * self.multiplier) % self.num_vertices

    def inverse(self) -> np.ndarray:
        """Permutation array mapping new ids back to original ids."""
        fwd = self.forward()
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(self.num_vertices, dtype=VERTEX_DTYPE)
        return inv

    def apply(self, graph: Graph) -> Graph:
        """Relabel ``graph`` with this placement."""
        return graph.relabel(self.forward(), name=f"{graph.name}-hashed")

    def restore(self, values: np.ndarray) -> np.ndarray:
        """Reorder per-vertex results from hashed ids to original ids."""
        values = np.asarray(values)
        if values.shape[0] != self.num_vertices:
            raise PartitionError(
                f"expected {self.num_vertices} per-vertex values, "
                f"got {values.shape[0]}"
            )
        return values[self.forward()]


def hash_partition(
    graph: Graph,
    num_intervals: int,
    multiplier: int = _DEFAULT_MULTIPLIER,
) -> tuple[IntervalBlockPartition, HashPlacement]:
    """Relabel with a hash placement, then interval-block partition.

    Returns the partition of the *relabelled* graph together with the
    placement needed to map per-vertex results back.  Builds afresh on
    every call; the scheduler's imbalance estimate needs no partition
    and tests use this as its reference.
    """
    placement = HashPlacement.for_graph(graph, multiplier)
    hashed = placement.apply(graph)
    return IntervalBlockPartition.build(hashed, num_intervals), placement


def imbalance(partition: IntervalBlockPartition, num_pus: int) -> float:
    """Load imbalance of the super-block schedule.

    Defined as (sum over steps of the max per-PU edge count) divided by
    (sum over steps of the mean per-PU edge count); 1.0 is perfectly
    balanced, higher means PUs idle at synchronisation barriers.
    """
    partition.num_super_blocks(num_pus)  # validates divisibility
    return imbalance_from_block_counts(partition.block_counts, num_pus)


def imbalance_from_block_counts(
    block_counts: np.ndarray, num_pus: int
) -> float:
    """:func:`imbalance` computed from a P x P block-count matrix alone.

    Block counts are additive integers, so the out-of-core path
    (:mod:`repro.graph.shards`) sums per-shard histograms exactly and
    calls this — the identical float pipeline :func:`imbalance` uses —
    to get a bit-identical estimate without building the partition.
    """
    steps = step_counts_from_blocks(block_counts, num_pus)
    per_step_max = steps.max(axis=-1).astype(np.float64)
    per_step_mean = steps.mean(axis=-1)
    total_max = per_step_max.sum()
    total_mean = per_step_mean.sum()
    if total_mean == 0.0:
        return 1.0
    return float(total_max / total_mean)
