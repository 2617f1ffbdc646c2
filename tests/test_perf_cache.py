"""Tests for the persistent content-addressed run cache.

Covers the two-level (memory LRU + SQLite disk store) cache, key
derivation from algorithm signatures, the scalar statistic store, and
that files of the pre-store layout are never read.
"""

import dataclasses
import io
import json
import operator

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, SpMV
from repro.graph import DatasetSpec, rmat
from repro.perf.cache import RunCache, default_cache_dir


@dataclasses.dataclass(frozen=True)
class _Record:
    """A one-field counts record type."""

    v: int


@dataclasses.dataclass(frozen=True)
class _OtherRecord:
    w: int


#: A small dataset spec for the dataset record kind.
_SPEC = DatasetSpec("ZZ", "tiny", 100, 400, 100, 400, rmat_a=0.6, seed=21)


@pytest.fixture
def graph():
    return rmat(128, 512, seed=21, name="cache-rmat")


@pytest.fixture
def cache(tmp_path):
    return RunCache(directory=tmp_path / "store")


class TestDiskRoundTrip:
    def test_values_bit_identical_after_reload(self, cache, graph):
        first = cache.get_or_run(PageRank(), graph)
        # Drop the memory level so the second lookup must hit disk.
        cache.clear(disk=False)
        second = cache.get_or_run(PageRank(), graph)
        assert second is not first
        np.testing.assert_array_equal(second.values, first.values)
        assert second.values.dtype == first.values.dtype
        assert second.iterations == first.iterations
        assert second.active_sources == first.active_sources
        assert second.edge_bits == first.edge_bits

    def test_fresh_instance_hits_disk(self, tmp_path, graph):
        """A new RunCache over the same directory (a fresh process in
        disguise) serves the stored entry without re-converging."""
        writer = RunCache(directory=tmp_path / "store")
        stored = writer.get_or_run(BFS(0), graph)
        reader = RunCache(directory=tmp_path / "store")
        reloaded = reader.get_or_run(BFS(0), graph)
        np.testing.assert_array_equal(reloaded.values, stored.values)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0

    def test_memory_only_cache_never_writes(self, graph):
        cache = RunCache(directory="")
        cache.get_or_run(PageRank(), graph)
        assert cache.directory is None
        assert cache.stats.stores == 0
        # Second lookup is a pure memory hit.
        cache.get_or_run(PageRank(), graph)
        assert cache.stats.memory_hits == 1


class TestStats:
    def test_counter_progression(self, cache, graph):
        cache.get_or_run(PageRank(), graph)
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        cache.get_or_run(PageRank(), graph)
        assert cache.stats.memory_hits == 1
        cache.clear(disk=False)
        cache.get_or_run(PageRank(), graph)
        assert cache.stats.disk_hits == 1
        assert cache.stats.hits == 2
        assert cache.stats.lookups == 3

    def test_summary_mentions_counts(self, cache, graph):
        cache.get_or_run(PageRank(), graph)
        text = cache.stats.summary()
        assert "miss" in text.lower()

    def test_info_reports_disk_entries(self, cache, graph):
        cache.get_or_run(PageRank(), graph)
        info = cache.info()
        assert info["disk_entries"] == 1
        assert info["disk_bytes"] > 0


class TestClear:
    def test_clear_counts_disk_entries(self, cache, graph):
        cache.get_or_run(PageRank(), graph)
        cache.get_or_run(BFS(0), graph)
        cache.get_or_scalar("stat", graph, lambda: 3.5)
        removed = cache.clear(disk=True)
        assert removed == 3
        assert cache.info()["disk_entries"] == 0
        # Everything recomputes after a full clear.
        cache.get_or_run(PageRank(), graph)
        assert cache.stats.misses == 4

    def test_clear_memory_only_keeps_disk(self, cache, graph):
        cache.get_or_run(PageRank(), graph)
        removed = cache.clear(disk=False)
        assert removed == 0
        assert cache.info()["disk_entries"] == 1


class TestKeying:
    def test_salt_separates_entries(self, tmp_path, graph):
        a = RunCache(directory=tmp_path / "store", salt="v1")
        b = RunCache(directory=tmp_path / "store", salt="v2")
        assert a.key(PageRank(), graph) != b.key(PageRank(), graph)
        a.get_or_run(PageRank(), graph)
        b.get_or_run(PageRank(), graph)
        assert b.stats.misses == 1  # v2 cannot see v1's entry

    def test_kind_separates_execution_models(self, cache, graph):
        assert (cache.key(PageRank(), graph, kind="edge")
                != cache.key(PageRank(), graph, kind="vertex"))

    def test_lru_bound_respected(self, tmp_path, graph):
        cache = RunCache(directory=tmp_path / "store", max_entries=2)
        cache.get_or_run(BFS(0), graph)
        cache.get_or_run(BFS(1), graph)
        cache.get_or_run(BFS(2), graph)
        assert len(cache._memory) == 2
        # The evicted root-0 run comes back from disk, not reconverged.
        cache.get_or_run(BFS(0), graph)
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 3


class TestSignatureRegression:
    """The signature derives from instance state, so differently
    parameterised algorithms cannot silently collide (the old
    hardcoded-attribute-list bug)."""

    def test_spmv_input_vectors_not_conflated(self, cache, graph):
        x1 = np.linspace(0.0, 1.0, graph.num_vertices)
        x2 = np.linspace(1.0, 2.0, graph.num_vertices)
        assert SpMV(x1).signature() != SpMV(x2).signature()
        r1 = cache.get_or_run(SpMV(x1), graph)
        r2 = cache.get_or_run(SpMV(x2), graph)
        assert not np.array_equal(r1.values, r2.values)

    def test_signature_stable_across_instances_and_runs(self, graph):
        before = PageRank().signature()
        pr = PageRank()
        from repro.algorithms import run_vectorized

        run_vectorized(pr, graph)
        # The per-run derived state (_out_degrees) is transient: the
        # signature must not change once the algorithm has executed.
        assert pr.signature() == before

    def test_every_constructor_parameter_participates(self):
        assert PageRank(damping=0.9).signature() != PageRank().signature()
        assert (PageRank(tolerance=1e-3).signature()
                != PageRank().signature())
        assert PageRank(iterations=3).signature() != PageRank().signature()


class TestScalarStore:
    def test_round_trip_and_memoisation(self, cache, graph):
        calls = []

        def compute():
            calls.append(1)
            return 7.25

        assert cache.get_or_scalar("stat", graph, compute) == 7.25
        assert cache.get_or_scalar("stat", graph, compute) == 7.25
        assert len(calls) == 1

    def test_fresh_instance_reads_stored_scalar(self, tmp_path, graph):
        writer = RunCache(directory=tmp_path / "store")
        writer.get_or_scalar("stat", graph, lambda: 2.5)
        reader = RunCache(directory=tmp_path / "store")

        def explode():
            raise AssertionError("should have been served from disk")

        assert reader.get_or_scalar("stat", graph, explode) == 2.5
        assert reader.stats.disk_hits == 1

    def test_names_not_conflated(self, cache, graph):
        assert cache.get_or_scalar("a", graph, lambda: 1.0) == 1.0
        assert cache.get_or_scalar("b", graph, lambda: 2.0) == 2.0


class TestCountsStore:
    def test_batched_lookup_counts_each_key(self, tmp_path):
        """A batch of memory hits, disk hits and misses counts each key
        as a one-key lookup would."""
        from repro.obs import metrics as obs_metrics

        writer = RunCache(directory=tmp_path / "store")
        writer.get_or_counts("a", lambda: _Record(1), _Record)
        writer.get_or_counts("b", lambda: _Record(2), _Record)
        cache = RunCache(directory=tmp_path / "store")
        assert cache.get_or_counts("a", lambda: _Record(-1),
                                   _Record) == _Record(1)
        registry = obs_metrics.get_metrics()
        hits = registry.counter(obs_metrics.COUNTS_CACHE_HITS).value
        misses = registry.counter(obs_metrics.COUNTS_CACHE_MISSES).value
        got = cache.get_or_counts_many(["a", "b", "c", "b"],
                                       lambda key: _Record(ord(key)),
                                       _Record)
        assert got == {"a": _Record(1), "b": _Record(2),
                       "c": _Record(ord("c"))}
        stats = cache.stats
        assert stats.counts_memory_hits == 1
        assert stats.counts_disk_hits == 2
        assert stats.counts_misses == 1
        assert stats.counts_stores == 1
        assert stats.errors == 0
        assert (registry.counter(obs_metrics.COUNTS_CACHE_HITS).value
                == hits + 2)
        assert (registry.counter(obs_metrics.COUNTS_CACHE_MISSES).value
                == misses + 1)

    def test_rejected_record_is_recomputed_and_overwritten(self, tmp_path):
        """A stored record without the record type's fields is an error,
        recomputed and overwritten; every value is rebuilt from its
        record with each field coerced to its declared type."""
        writer = RunCache(directory=tmp_path / "store")
        writer.get_or_counts("a", lambda: _OtherRecord(7), _OtherRecord)

        cache = RunCache(directory=tmp_path / "store")
        got = cache.get_or_counts("a", lambda: _Record(3.0), _Record)
        assert got == _Record(3) and type(got.v) is int
        assert cache.stats.errors == 1
        assert cache.stats.counts_misses == 1
        reader = RunCache(directory=tmp_path / "store")
        assert reader.get_or_counts("a", lambda: _Record(-1),
                                    _Record) == _Record(3)
        assert reader.stats.counts_disk_hits == 1


def _with_meta(**changes):
    """Damage a run entry: rewrite fields of its JSON metadata."""
    def damage(payload: bytes) -> bytes:
        with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays["meta"]))
        meta.update(changes)
        arrays["meta"] = np.asarray(json.dumps(meta))
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        return buffer.getvalue()
    return damage


def _same_run(a, b) -> bool:
    return (np.array_equal(a.values, b.values)
            and dataclasses.replace(a, values=None)
            == dataclasses.replace(b, values=None))


#: Per record kind: (store kind, lookup, damage to a stored payload,
#: equality of two returned values).
_MALFORMED = {
    "run": (
        "run",
        lambda cache, graph: cache.get_or_run(PageRank(), graph),
        _with_meta(iterations=None),
        _same_run,
    ),
    "vertex-centric": (
        "run",
        lambda cache, graph: cache.get_or_run_vertex_centric(BFS(0), graph),
        _with_meta(edges_examined="many"),
        lambda a, b: (_same_run(a.run, b.run)
                      and a.edges_examined == b.edges_examined
                      and a.vertices_scanned == b.vertices_scanned),
    ),
    "scalar": (
        "scalar",
        lambda cache, graph: cache.get_or_scalar("stat", graph,
                                                 lambda: 2.5),
        lambda payload: b'{"value": null}',
        operator.eq,
    ),
    "dataset": (
        "dataset",
        lambda cache, graph: cache.get_or_datasets(
            [_SPEC], lambda _: _SPEC.generate())[_SPEC.key],
        _with_meta(fingerprint="0" * 32),
        lambda a, b: (a.fingerprint() == b.fingerprint()
                      and a.src.dtype == b.src.dtype),
    ),
    "dataset-ids": (
        "dataset",
        lambda cache, graph: cache.get_or_datasets(
            [_SPEC], lambda _: _SPEC.generate())[_SPEC.key],
        _with_meta(num_vertices=1),
        lambda a, b: a.fingerprint() == b.fingerprint(),
    ),
    "counts": (
        "counts",
        lambda cache, graph: cache.get_or_counts("a", lambda: _Record(3),
                                                 _Record),
        lambda payload: json.dumps({"counts": {"v": None}}).encode(),
        operator.eq,
    ),
}


@pytest.mark.parametrize("kind", list(_MALFORMED))
def test_undecodable_record_is_recomputed(tmp_path, graph, kind):
    """A checksum-clean entry that does not decode into its record kind
    is counted as an error, recomputed and overwritten, for every kind
    the cache stores."""
    store_kind, lookup, damage, same = _MALFORMED[kind]
    directory = tmp_path / "store"
    writer = RunCache(directory=directory)
    clean = lookup(writer, graph)
    store = writer._disk()
    [key] = store.keys(kind=store_kind)
    store.put(key, damage(store.get(key)), kind=store_kind)

    cache = RunCache(directory=directory)
    assert same(lookup(cache, graph), clean)
    assert cache.stats.errors == 1
    assert cache.stats.misses + cache.stats.counts_misses == 1

    reader = RunCache(directory=directory)
    assert same(lookup(reader, graph), clean)
    assert reader.stats.disk_hits + reader.stats.counts_disk_hits == 1
    assert reader.stats.errors == 0


class TestSeedRun:
    """``seed_run`` is a lookup whose computation is the given run."""

    @pytest.fixture
    def runs(self, graph):
        from repro.algorithms import run_vectorized

        run = run_vectorized(PageRank(), graph)
        # Distinguishable from the converged run: which one wins shows.
        return run, dataclasses.replace(run, iterations=run.iterations + 1)

    def test_memory_hit_returns_existing(self, cache, graph, runs):
        existing = cache.get_or_run(PageRank(), graph)
        assert cache.seed_run(PageRank(), graph, runs[1]) is existing
        assert cache.stats.memory_hits == 1
        assert cache.stats.stores == 1

    def test_disk_hit_returns_existing(self, tmp_path, graph, runs):
        RunCache(directory=tmp_path / "store").get_or_run(PageRank(), graph)
        cache = RunCache(directory=tmp_path / "store")
        seeded = cache.seed_run(PageRank(), graph, runs[1])
        assert _same_run(seeded, runs[0])
        assert cache.stats.disk_hits == 1
        assert (cache.stats.misses, cache.stats.stores) == (0, 0)

    def test_miss_stores_given_run(self, tmp_path, graph, runs):
        cache = RunCache(directory=tmp_path / "store")
        assert cache.seed_run(PageRank(), graph, runs[1]) is runs[1]
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)
        assert cache.stats.hits == 0
        reader = RunCache(directory=tmp_path / "store")
        assert _same_run(reader.get_or_run(PageRank(), graph), runs[1])
        assert reader.stats.disk_hits == 1


class TestVertexCentricEntries:
    def test_round_trip_preserves_extra_counters(self, cache, graph):
        first = cache.get_or_run_vertex_centric(BFS(0), graph)
        cache.clear(disk=False)
        second = cache.get_or_run_vertex_centric(BFS(0), graph)
        np.testing.assert_array_equal(second.run.values, first.run.values)
        assert second.edges_examined == first.edges_examined
        assert second.vertices_scanned == first.vertices_scanned

    def test_distinct_from_edge_centric_entry(self, cache, graph):
        cache.get_or_run(BFS(0), graph)
        cache.get_or_run_vertex_centric(BFS(0), graph)
        assert cache.info()["disk_entries"] == 2


class TestStoreIsOnlyDiskLevel:
    def test_legacy_scalar_file_ignored_not_adopted(self, tmp_path, graph):
        """A file of the pre-store layout carries no checksum: it must
        be neither served nor adopted into the store."""
        probe = RunCache(directory=tmp_path / "probe")
        probe.get_or_scalar("edges", graph, lambda: 7.0)
        (key,) = probe._disk().keys(kind="scalar")

        directory = tmp_path / "store"
        directory.mkdir()
        (directory / f"{key}.json").write_text(
            json.dumps({"name": "edges", "value": 99.0, "salt": "x"}))
        cache = RunCache(directory=directory)
        assert cache.get_or_scalar("edges", graph, lambda: 7.0) == 7.0
        assert cache.stats.disk_hits == 0
        assert cache.stats.misses == 1
        stored = json.loads(cache._disk().get(key).decode("utf-8"))
        assert stored["value"] == 7.0


class TestDefaultDirectory:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "hyve-repro"
