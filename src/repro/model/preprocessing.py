"""Preprocessing-overhead model (Sections 6.5 and 7.4.1; Figs. 12, 19).

Interval-block partitioning costs:

* a per-edge classification term (interval lookup, bucket append) that
  grows mildly with the block count (deeper address arithmetic, worse
  cache behaviour of the bucket table), and
* a per-nonempty-block term (allocating, addressing and emitting each
  block's header and extent in the memory map).

With few blocks the per-edge term dominates and preprocessing speed is
flat; past ~32x32 blocks the per-block term takes over and speed drops
sharply — the Fig. 12 shape.  GraphR's fixed 8x8 tiling yields
``E / N_avg`` non-empty blocks (millions), which is why its
preprocessing is ~6.7x slower than HyVE's (Fig. 19).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

#: Model coefficients (seconds), calibrated to the Fig. 12 shape: speed
#: ~flat through 32x32 blocks, dropping steeply at >= 64x64 (the bucket
#: table stops fitting in cache and edge appends start missing), and to
#: the single-thread preprocessing throughput of Section 5
#: (~42 M edges/s).
PER_EDGE_BASE = 18e-9        # classify + append one edge, cache-resident
PER_EDGE_MISS = 60e-9        # extra per edge when the bucket table misses
CACHE_BLOCKS = 48_000        # bucket-table entries that fit in cache
PER_TABLE_ENTRY = 0.02e-6    # allocate + address one block-table entry
#: Extra per-edge cost of emitting GraphR's *dense* tile format (a
#: 128-byte crossbar image rewrite per edge instead of an 8-byte
#: append).
PER_EDGE_DENSE_FORMAT = 35e-9


def expected_nonempty_blocks(num_edges: float, num_blocks: float) -> float:
    """Expected non-empty blocks when edges spread over ``num_blocks``.

    Uses the standard occupancy expectation; exact per-graph counts are
    available from :class:`IntervalBlockPartition` when a real graph is
    at hand.
    """
    if num_blocks <= 0:
        raise ConfigError(f"block count must be positive: {num_blocks}")
    if num_edges < 0:
        raise ConfigError(f"edge count must be non-negative: {num_edges}")
    if num_edges == 0:
        return 0.0
    return num_blocks * (1.0 - math.exp(-num_edges / num_blocks))


def preprocessing_time(
    num_edges: float,
    num_blocks: float,
    nonempty_blocks: float | None = None,
    dense_format: bool = False,
) -> float:
    """Modelled wall-clock seconds of one partitioning pass.

    ``dense_format`` adds the cost of materialising each edge into a
    dense crossbar image (GraphR's storage format).
    """
    if nonempty_blocks is None:
        nonempty_blocks = expected_nonempty_blocks(num_edges, num_blocks)
    miss_rate = 1.0 - math.exp(-num_blocks / CACHE_BLOCKS)
    per_edge = PER_EDGE_BASE + PER_EDGE_MISS * miss_rate
    if dense_format:
        per_edge += PER_EDGE_DENSE_FORMAT
    # The block table is only materialised for blocks that exist:
    # allocated P^2 entries for interval-block partitioning, non-empty
    # tiles for GraphR's hash-directory tiling.
    table_entries = min(num_blocks, nonempty_blocks * 4.0 + 1.0) \
        if num_blocks > 1e9 else num_blocks
    return num_edges * per_edge + table_entries * PER_TABLE_ENTRY


@dataclass(frozen=True)
class Fig12Row:
    """Normalised preprocessing speed at one partition count."""

    dataset: str
    num_intervals: int
    num_blocks: int
    normalized_speed: float   # speed relative to the smallest P


#: The Fig. 12 sweep: P x P blocks for P = 2..256.
INTERVAL_SWEEP = (2, 4, 8, 16, 32, 64, 128, 256)


def preprocessing_speed_sweep(
    num_edges: float,
    dataset: str = "model",
    intervals: tuple[int, ...] = INTERVAL_SWEEP,
) -> list[Fig12Row]:
    """Regenerate one dataset's Fig. 12 series from the model."""
    base = preprocessing_time(num_edges, float(intervals[0]) ** 2)
    rows = []
    for p in intervals:
        t = preprocessing_time(num_edges, float(p) ** 2)
        rows.append(
            Fig12Row(
                dataset=dataset,
                num_intervals=p,
                num_blocks=p * p,
                normalized_speed=base / t,
            )
        )
    return rows


def graphr_preprocessing_time(num_vertices: float, num_edges: float,
                              navg: float) -> float:
    """GraphR's preprocessing: fixed 8x8 tiling over the whole matrix.

    Non-empty block count is ``E / N_avg`` (Table 1's statistic), and
    the address space is ``(N_v / 8)^2`` tiles.
    """
    if navg <= 0:
        raise ConfigError(f"N_avg must be positive: {navg}")
    tiles = (num_vertices / 8.0) ** 2
    return preprocessing_time(num_edges, max(tiles, 1.0),
                              nonempty_blocks=num_edges / navg,
                              dense_format=True)


def hyve_preprocessing_time(num_edges: float, num_intervals: int) -> float:
    """HyVE's preprocessing at its chosen (small) partition count."""
    return preprocessing_time(num_edges, float(num_intervals) ** 2)


def preprocessing_ratio(
    num_vertices: float,
    num_edges: float,
    navg: float,
    hyve_intervals: int,
) -> float:
    """Fig. 19: GraphR preprocessing time / HyVE preprocessing time."""
    return graphr_preprocessing_time(num_vertices, num_edges, navg) / (
        hyve_preprocessing_time(num_edges, hyve_intervals)
    )
