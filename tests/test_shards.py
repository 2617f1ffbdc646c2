"""Out-of-core shard store: round trip, streaming, exact count merge.

The promises under test are the ones docs/scaling.md documents:

* write-once on-disk shards round-trip a graph bit-exactly (same
  content fingerprint, weighted or not) through zero-copy memmaps;
* a torn, truncated or tampered store is rejected loudly, never read;
* :func:`repro.graph.rmat_stream.rmat_stream` is chunk-size invariant;
* :func:`repro.graph.shards.run_sharded` reproduces ``run_vectorized``
  under the per-algorithm value policy with identical traces;
* :func:`repro.graph.shards.sharded_scheduled_counts` merges per-shard
  integer partials into :class:`ScheduleCounts` **bit-identical** to
  the whole-graph computation, on every named machine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import (BFS, ConnectedComponents, PageRank, SSSP,
                              SpMV)
from repro.algorithms.runner import run_vectorized
from repro.arch.config import NAMED_CONFIGS, Workload
from repro.arch.scheduler import (clear_imbalance_cache,
                                  imbalance_reference_intervals)
from repro.errors import ShardError
from repro.graph import generators, rmat
from repro.graph.rmat_stream import rmat_stream
from repro.graph.shards import (ShardStore, ShardWriter, merge_shard_counts,
                                run_sharded, shard_schedule_counts,
                                sharded_scheduled_counts, sharded_workload,
                                write_graph_shards, write_rmat_shards)
from repro.perf.batch import scheduled_counts
from repro.perf.cache import temporary_run_cache

TEST_SEED = 2026

ALGORITHM_FACTORIES = (
    PageRank,
    lambda: BFS(root=1),
    ConnectedComponents,
    lambda: SSSP(source=1),
    SpMV,
)

#: Sum-based algorithms may differ by accumulation order only.
EXACT = {"BFS", "CC", "SSSP"}


@pytest.fixture
def graph():
    return rmat(300, 4200, seed=TEST_SEED, name="shard-rmat")


@pytest.fixture
def store(graph, tmp_path):
    return write_graph_shards(graph, tmp_path / "store", shard_edges=1000)


# --- round trip --------------------------------------------------------------

def test_round_trip_preserves_fingerprint(graph, store):
    assert store.num_shards == 5
    assert store.fingerprint == graph.fingerprint()
    mapped = store.as_graph()
    assert mapped.fingerprint() == graph.fingerprint()
    np.testing.assert_array_equal(mapped.src, graph.src)
    np.testing.assert_array_equal(mapped.dst, graph.dst)
    assert store.verify() == 5


def test_round_trip_weighted(tmp_path):
    graph = generators.random_weights(
        rmat(64, 700, seed=TEST_SEED + 1, name="shard-w"), seed=5
    )
    store = write_graph_shards(graph, tmp_path / "w", shard_edges=256)
    mapped = store.as_graph()
    assert mapped.fingerprint() == graph.fingerprint()
    np.testing.assert_array_equal(mapped.weights, graph.weights)
    # The seeded fingerprint is honest: recompute from the raw bytes.
    store.verify()


def test_manifest_fingerprint_matches_from_bytes_hash(graph, store):
    """The manifest digest must equal a from-scratch Graph.fingerprint,
    not merely be internally consistent."""
    from repro.graph.graph import Graph

    mapped = store.as_graph()
    rebuilt = Graph(mapped.num_vertices, np.array(mapped.src),
                    np.array(mapped.dst), name=mapped.name)
    assert rebuilt.fingerprint() == store.fingerprint


def test_empty_graph_round_trips(tmp_path):
    from repro.graph.graph import Graph

    empty = Graph(4, np.empty(0, dtype=np.int64),
                  np.empty(0, dtype=np.int64), name="empty")
    store = write_graph_shards(empty, tmp_path / "e", shard_edges=8)
    assert store.num_shards == 0
    assert store.as_graph().fingerprint() == empty.fingerprint()
    store.verify()


def test_memory_budget_model(store, graph):
    budget = store.memory_budget()
    assert budget["disk_bytes"] == graph.num_edges * 16
    assert budget["shard_bytes"] == store.max_shard_edges * 16
    assert budget["resident_bytes"] < budget["disk_bytes"]


# --- write-once discipline and rejection -------------------------------------

def test_write_once_refuses_committed_directory(graph, store, tmp_path):
    with pytest.raises(ShardError, match="write-once"):
        ShardWriter(store.directory, graph.num_vertices)
    with pytest.raises(ShardError, match="write-once"):
        write_graph_shards(graph, tmp_path / "store")


def test_writer_rejects_out_of_range_ids(tmp_path):
    writer = ShardWriter(tmp_path / "bad", num_vertices=4)
    with pytest.raises(ShardError, match=r"\[0, 4\)"):
        writer.append(np.array([0, 5]), np.array([1, 2]))
    with pytest.raises(ShardError, match=r"\[0, 4\)"):
        writer.append(np.array([0, -1]), np.array([1, 2]))


def test_writer_rejects_weight_mismatch(tmp_path):
    unweighted = ShardWriter(tmp_path / "u", num_vertices=4)
    with pytest.raises(ShardError, match="weights"):
        unweighted.append(np.array([0]), np.array([1]),
                          np.array([1.0]))
    weighted = ShardWriter(tmp_path / "w", num_vertices=4, weighted=True)
    with pytest.raises(ShardError, match="weights"):
        weighted.append(np.array([0]), np.array([1]))


def test_abandoned_writer_leaves_no_store(tmp_path, graph):
    with ShardWriter(tmp_path / "a", graph.num_vertices) as writer:
        writer.append(graph.src[:10], graph.dst[:10])
        # no finish(): simulated crash
    with pytest.raises(ShardError, match="manifest"):
        ShardStore.open(tmp_path / "a")
    # Re-running the writer over the uncommitted directory succeeds.
    store = write_graph_shards(graph, tmp_path / "a", shard_edges=1000)
    assert store.fingerprint == graph.fingerprint()


def test_torn_manifest_rejected(store):
    manifest = store.directory / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text[: len(text) // 2])
    with pytest.raises(ShardError, match="torn or truncated manifest"):
        ShardStore.open(store.directory)


def test_truncated_data_file_rejected(store):
    src = store.directory / "src.i64"
    src.write_bytes(src.read_bytes()[:-16])
    with pytest.raises(ShardError, match="truncated data file"):
        ShardStore.open(store.directory)


def test_wrong_schema_rejected(store):
    manifest = store.directory / "manifest.json"
    record = json.loads(manifest.read_text())
    record["schema"] = "hyve-shards-v0"
    manifest.write_text(json.dumps(record))
    with pytest.raises(ShardError, match="unsupported schema"):
        ShardStore.open(store.directory)


def test_tampered_data_fails_verify(store):
    dst = store.directory / "dst.i64"
    raw = bytearray(dst.read_bytes())
    raw[8] ^= 0xFF
    dst.write_bytes(bytes(raw))
    reopened = ShardStore.open(store.directory)  # sizes still agree
    with pytest.raises(ShardError, match="checksum mismatch"):
        reopened.verify()


def test_shard_index_out_of_range(store):
    with pytest.raises(ShardError, match="out of range"):
        store.shard_arrays(store.num_shards)


# --- streamed R-MAT ----------------------------------------------------------

def test_rmat_stream_chunk_size_invariant():
    def collect(chunk_edges):
        parts = list(rmat_stream(500, 3000, seed=7,
                                 chunk_edges=chunk_edges))
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    src_a, dst_a = collect(64)
    src_b, dst_b = collect(3000)
    src_c, dst_c = collect(999)
    np.testing.assert_array_equal(src_a, src_b)
    np.testing.assert_array_equal(dst_a, dst_b)
    np.testing.assert_array_equal(src_a, src_c)
    np.testing.assert_array_equal(dst_a, dst_c)
    assert src_a.size == 3000
    assert src_a.min() >= 0 and src_a.max() < 500


def test_rmat_stream_chunk_shapes():
    sizes = [s.size for s, _ in rmat_stream(100, 1000, seed=1,
                                            chunk_edges=300)]
    assert sizes == [300, 300, 300, 100]


def test_write_rmat_shards_matches_stream(tmp_path):
    store = write_rmat_shards(tmp_path / "r", 500, 3000, seed=7,
                              shard_edges=1024, chunk_edges=100)
    src = np.concatenate(
        [s for _, s, _, _ in store.iter_shards()] or [np.empty(0)]
    )
    ref = np.concatenate(
        [p[0] for p in rmat_stream(500, 3000, seed=7, chunk_edges=512)]
    )
    np.testing.assert_array_equal(src, ref)
    store.verify()


# --- streamed execution ------------------------------------------------------

@pytest.mark.parametrize("factory", ALGORITHM_FACTORIES,
                         ids=lambda f: f().name)
def test_run_sharded_matches_vectorized(graph, store, factory):
    graph = (generators.random_weights(graph, seed=2)
             if factory().name == "SSSP" else graph)
    if factory().name == "SSSP":
        store = write_graph_shards(graph, store.directory.parent / "w",
                                   shard_edges=1000)
    reference = run_vectorized(factory(), graph)
    with temporary_run_cache():
        streamed = run_sharded(factory(), store)
    assert streamed.iterations == reference.iterations
    assert streamed.active_sources == reference.active_sources
    if reference.algorithm in EXACT:
        np.testing.assert_array_equal(streamed.values, reference.values)
    else:
        np.testing.assert_allclose(streamed.values, reference.values,
                                   rtol=1e-12, atol=0.0)


def test_run_sharded_seeds_run_cache(graph, store):
    from repro.algorithms.runner import run_cached

    with temporary_run_cache() as cache:
        streamed = run_sharded(PageRank(), store, cache=True)
        assert cache.stats.misses >= 0  # cache is live
        replayed = run_cached(PageRank(), store.as_graph())
    np.testing.assert_array_equal(streamed.values, replayed.values)
    assert replayed.iterations == streamed.iterations


# --- per-shard schedule counts -----------------------------------------------

def test_merged_counts_bit_identical_on_every_machine(graph, store):
    run = run_vectorized(PageRank(), graph)
    for name, factory in NAMED_CONFIGS.items():
        config = factory()
        with temporary_run_cache():
            clear_imbalance_cache()
            whole = scheduled_counts(run, Workload(graph=graph), config)
        with temporary_run_cache():
            clear_imbalance_cache()
            merged = sharded_scheduled_counts(
                run, sharded_workload(store), config
            )
        clear_imbalance_cache()
        assert merged == whole, f"counts diverged on {name}"


def test_merged_counts_bit_identical_natural_placement(graph, store):
    import dataclasses

    run = run_vectorized(PageRank(), graph)
    config = dataclasses.replace(NAMED_CONFIGS["acc+HyVE"](),
                                 hash_placement=False)
    with temporary_run_cache():
        clear_imbalance_cache()
        whole = scheduled_counts(run, Workload(graph=graph), config)
    with temporary_run_cache():
        clear_imbalance_cache()
        merged = sharded_scheduled_counts(
            run, sharded_workload(store), config
        )
    clear_imbalance_cache()
    assert merged == whole


def test_shard_partials_are_additive(graph, store):
    config = NAMED_CONFIGS["acc+HyVE"]()
    n = config.num_pus
    parts = [shard_schedule_counts(store, i, n, True)
             for i in range(store.num_shards)]
    total, merged = merge_shard_counts(parts)
    assert total == graph.num_edges
    p = imbalance_reference_intervals(graph.num_vertices, n)
    assert merged.shape == (p, p)
    assert merged.sum() == graph.num_edges
    # Shard order cannot matter: integer sums commute.
    total_r, merged_r = merge_shard_counts(list(reversed(parts)))
    assert total_r == total
    np.testing.assert_array_equal(merged_r, merged)


def test_sharded_counts_rejects_foreign_workload(graph, store):
    run = run_vectorized(PageRank(), graph)
    other = rmat(300, 4200, seed=TEST_SEED + 9, name="other")
    with pytest.raises(ShardError, match="does not match"):
        sharded_scheduled_counts(
            run, Workload(graph=other), NAMED_CONFIGS["acc+HyVE"](),
            store=store,
        )
    with pytest.raises(ShardError, match="not shard-backed"):
        sharded_scheduled_counts(
            run, Workload(graph=other), NAMED_CONFIGS["acc+HyVE"]()
        )
