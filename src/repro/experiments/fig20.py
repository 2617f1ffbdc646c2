"""Fig. 20: throughput of dynamic graph updates, HyVE vs GraphR.

Each dataset's request stream is counted on both stores
(:func:`~repro.dynamic.throughput.compare_dynamic_throughput`) and the
counts are priced in bytes moved; the "Modeled ratio" is GraphR's bytes
over HyVE's.  The counts are one run-cache counts record per dataset,
so a warm process serves the whole table from one batched store read.
"""

from __future__ import annotations

import json

import numpy as np

from ..dynamic.store import DEFAULT_SLACK
from ..dynamic.throughput import (
    EXTENSION_LINK_BYTES,
    GRAPHR_BYTES_PER_UPDATE,
    HYVE_BYTES_PER_UPDATE,
    TILE_ENTRY_BYTES,
    VERTEX_VALUE_BYTES,
    UpdateCounts,
    compare_dynamic_throughput,
)
from ..dynamic.updates import DEFAULT_MIX
from ..graph.graph import Graph
from ..perf.cache import get_run_cache
from .common import ExperimentResult, workloads

#: The paper's numbers: up to 46.98 M edges/s (HyVE), 8.04x over GraphR.
PAPER_RATIO = 8.04

#: Large graphs are subsampled to this many edges before the stream is
#: generated; the per-update traffic does not depend on graph size.
MAX_EDGES = 120_000

#: The stream's seed and the HyVE store's interval count.
SEED = 0
NUM_INTERVALS = 32

#: Model-version tag of the counts records; bump it whenever the
#: counting or the request generator changes what a record holds.
COUNTS_VERSION = "fig20-counts-v1"


def _capped(graph: Graph) -> Graph:
    if graph.num_edges <= MAX_EDGES:
        return graph
    rng = np.random.default_rng(0)
    sel = rng.choice(graph.num_edges, size=MAX_EDGES, replace=False)
    return Graph(graph.num_vertices, graph.src[sel], graph.dst[sel],
                 name=graph.name)


def _counts_key(graph: Graph, num_requests: int) -> str:
    """Everything a dataset's counts depend on, keyed on the *source*
    graph so that a hit never subsamples.  The request mix and the
    slack are the library defaults, keyed so that changing one
    invalidates the records."""
    return "|".join([
        COUNTS_VERSION,
        graph.fingerprint(),
        f"requests={num_requests}",
        f"seed={SEED}",
        f"mix={json.dumps(DEFAULT_MIX, sort_keys=True)}",
        f"intervals={NUM_INTERVALS}",
        f"slack={DEFAULT_SLACK!r}",
        f"cap={MAX_EDGES}",
    ])


def counts(num_requests: int = 20_000) -> dict[str, UpdateCounts]:
    """Every dataset's counted update traffic, in paper order; the
    records missing from the run cache are counted and stored."""
    graphs = {name: w.graph for name, w in workloads().items()}
    names = {_counts_key(graph, num_requests): name
             for name, graph in graphs.items()}

    def compute(key: str) -> UpdateCounts:
        return compare_dynamic_throughput(
            _capped(graphs[names[key]]), num_requests=num_requests,
            num_intervals=NUM_INTERVALS, seed=SEED)

    records = get_run_cache().get_or_counts_many(names, compute,
                                                 UpdateCounts)
    return {name: records[key] for key, name in names.items()}


def run(num_requests: int = 20_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig20",
        title="Throughput of dynamically adding/deleting edges/vertices "
              "(single thread)",
        headers=[
            "Dataset",
            "Edge updates",
            "Vertex updates",
            "HyVE extensions",
            "GraphR new tiles",
            "GraphR regrowths",
            "HyVE (B/edge)",
            "GraphR (B/edge)",
            "Modeled ratio",
        ],
        notes=(
            "counted update traffic priced in bytes moved: "
            f"{HYVE_BYTES_PER_UPDATE}/{GRAPHR_BYTES_PER_UPDATE} B per "
            f"HyVE/GraphR edge update, {EXTENSION_LINK_BYTES} B per HyVE "
            f"extension link, {TILE_ENTRY_BYTES} B per new GraphR tile, "
            f"{VERTEX_VALUE_BYTES} B per vertex value write in both "
            "stores; regrowths are counted, not priced; B/edge = edge "
            "and extension/tile bytes per changed edge; modeled ratio = "
            f"GraphR bytes / HyVE bytes (paper measured {PAPER_RATIO}x)"
        ),
    )
    for dataset, c in counts(num_requests).items():
        result.add(
            dataset,
            c.edges_changed,
            c.vertices_changed,
            c.hyve_extensions,
            c.graphr_tiles,
            c.graphr_regrowths,
            c.hyve_edge_bytes() / c.edges_changed,
            c.graphr_edge_bytes() / c.edges_changed,
            c.modeled_ratio(),
        )
    return result
