"""Graph substrate: containers, generators, partitioning, statistics."""

from .graph import (
    EDGE_BITS,
    VERTEX_ID_BITS,
    WEIGHTED_EDGE_BITS,
    Graph,
)
from .generators import (
    complete,
    cycle,
    erdos_renyi,
    grid_2d,
    path,
    random_weights,
    rmat,
    star,
)
from .datasets import DATASET_ORDER, DATASETS, DatasetSpec, load, load_all
from .partition import (
    IntervalBlockPartition,
    clear_partition_cache,
    interval_bounds,
    interval_of,
)
from .hash_partition import (
    HashPlacement,
    hash_partition,
    imbalance,
    imbalance_from_block_counts,
)
from .rmat_stream import rmat_stream
from .shards import (
    ShardStore,
    ShardWriter,
    run_sharded,
    sharded_scheduled_counts,
    sharded_workload,
    write_graph_shards,
    write_rmat_shards,
)
from .stats import (
    CROSSBAR_DIM,
    GraphShape,
    average_edges_per_nonempty_block,
    nonempty_block_count,
    skew_gini,
)
from . import io

__all__ = [
    "EDGE_BITS",
    "VERTEX_ID_BITS",
    "WEIGHTED_EDGE_BITS",
    "Graph",
    "complete",
    "cycle",
    "erdos_renyi",
    "grid_2d",
    "path",
    "random_weights",
    "rmat",
    "star",
    "DATASET_ORDER",
    "DATASETS",
    "DatasetSpec",
    "load",
    "load_all",
    "IntervalBlockPartition",
    "clear_partition_cache",
    "interval_bounds",
    "interval_of",
    "HashPlacement",
    "hash_partition",
    "imbalance",
    "imbalance_from_block_counts",
    "rmat_stream",
    "ShardStore",
    "ShardWriter",
    "run_sharded",
    "sharded_scheduled_counts",
    "sharded_workload",
    "write_graph_shards",
    "write_rmat_shards",
    "CROSSBAR_DIM",
    "GraphShape",
    "average_edges_per_nonempty_block",
    "nonempty_block_count",
    "skew_gini",
    "io",
]
