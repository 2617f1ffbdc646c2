"""Unit tests for the streaming dynamic-graph engine (ISSUE 10).

The incremental-vs-rebuild conformance battery proper lives in the
``stream-rebuild-identity`` / ``window-invariance`` oracles
(repro/verify/oracles.py) and tests/test_temporal_properties.py; this
module pins the concrete contracts piece by piece: log validation and
round trips, FIFO temporal semantics, the bounded-staleness flush
rule, snapshot canonicalisation, and the time-sliced energy fold.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_algorithm
from repro.algorithms.runner import run_vectorized
from repro.arch.machine import fold_time_slices, make_machine
from repro.dynamic import (
    DEFAULT_STALENESS_K,
    MAINTAINED_ALGORITHMS,
    OPEN_END,
    READ_HEAVY,
    StreamEngine,
    TemporalEdge,
    TemporalGraph,
    UPDATE_HEAVY,
    UpdateLog,
    generate_update_log,
    measure_stream,
)
from repro.dynamic import stream
from repro.errors import ConfigError, StreamError
from repro.experiments import temporal
from repro.graph import Graph, rmat
from repro.perf.cache import temporary_run_cache


class TestUpdateLog:
    def test_append_and_replay_state(self):
        log = UpdateLog(4, name="t")
        log.append("add", 0, 1)
        log.append("add", 0, 1)
        log.append("del", 0, 1)
        assert len(log) == 3
        assert log.open_edges == 1
        assert [u.t for u in log] == [0, 1, 2]

    def test_rejects_bad_inputs(self):
        log = UpdateLog(4)
        with pytest.raises(StreamError):
            log.append("upsert", 0, 1)
        with pytest.raises(StreamError):
            log.append("add", 0, 4)
        with pytest.raises(StreamError):
            log.append("del", 0, 1)  # nothing open
        log.append("add", 0, 1, t=5)
        with pytest.raises(StreamError):
            log.append("add", 1, 2, t=4)  # non-monotonic

    def test_dedupe_suppresses_open_duplicates(self):
        log = UpdateLog(4)
        assert log.append("add", 0, 1, dedupe=True)
        assert not log.append("add", 0, 1, dedupe=True)
        log.append("del", 0, 1)
        assert log.append("add", 0, 1, dedupe=True)  # closed => re-insert

    def test_jsonl_roundtrip(self, tmp_path):
        base = rmat(16, 48, seed=2, name="rt")
        log = generate_update_log(base, 40, seed=2, name="roundtrip")
        path = log.save(tmp_path / "log.jsonl")
        loaded = UpdateLog.load(path)
        assert loaded.name == log.name
        assert loaded.num_vertices == log.num_vertices
        assert np.array_equal(loaded.to_arrays(), log.to_arrays())

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(StreamError):
            UpdateLog.load(path)
        for header in ('{"schema": "hyve-updates-v1"}',
                       '{"schema": "hyve-updates-v1", "num_vertices": "many"}'):
            path.write_text(header + "\n")
            with pytest.raises(StreamError, match="bad.jsonl"):
                UpdateLog.load(path)

    def test_extend_arrays_matches_serial_appends(self):
        base = rmat(24, 96, seed=3, name="bulk")
        log = generate_update_log(base, 120, seed=3, delete_fraction=0.4)
        events = log.to_arrays()
        serial = UpdateLog(24, name="serial")
        for t, op, s, d in events.tolist():
            serial.append("add" if op == 0 else "del", s, d, t=t)
        bulk = UpdateLog(24, name="bulk")
        for lo in range(0, len(events), 17):
            bulk.extend_arrays(events[lo:lo + 17])
        assert np.array_equal(serial.to_arrays(), bulk.to_arrays())
        assert serial.open_edges == bulk.open_edges

    def test_extend_arrays_delete_then_reinsert_same_key(self):
        log = UpdateLog(4)
        events = np.array(
            [[0, 0, 1, 2], [1, 1, 1, 2], [2, 0, 1, 2], [3, 1, 1, 2],
             [4, 0, 1, 2]],
            dtype=np.int64,
        )
        assert log.extend_arrays(events) == 5
        assert log.open_edges == 1

    def test_extend_arrays_rejects_unmatched_delete(self):
        log = UpdateLog(4)
        log.append("add", 1, 2)
        events = np.array([[1, 1, 1, 2], [2, 1, 1, 2]], dtype=np.int64)
        with pytest.raises(StreamError, match="no matching open edge"):
            log.extend_arrays(events)
        # The rejected block must not have been partially applied.
        assert len(log) == 1


class TestTemporalGraph:
    def test_fifo_delete_closes_oldest(self):
        log = UpdateLog(4)
        log.append("add", 1, 2, t=0)
        log.append("add", 1, 2, t=5)
        log.append("del", 1, 2, t=7)
        temporal = log.temporal()
        intervals = sorted(
            zip(temporal.start.tolist(), temporal.end.tolist())
        )
        assert intervals == [(0, 7), (5, OPEN_END)]

    def test_zero_width_interval_is_invisible(self):
        log = UpdateLog(4)
        log.append("add", 1, 2, t=3)
        log.append("del", 1, 2, t=3)
        temporal = log.temporal()
        assert temporal.num_intervals == 0
        assert temporal.snapshot_at(3).num_edges == 0

    def test_snapshot_is_memoised_and_canonical(self):
        base = rmat(16, 64, seed=4, name="canon")
        log = generate_update_log(base, 50, seed=4)
        temporal = log.temporal()
        t = int(log.last_time)
        assert temporal.snapshot_at(t) is temporal.snapshot_at(t)
        again = UpdateLog.from_arrays(
            log.num_vertices, log.to_arrays(), name=log.name
        ).temporal()
        assert temporal.snapshot_at(t).fingerprint() \
            == again.snapshot_at(t).fingerprint()

    def test_rejects_empty_intervals(self):
        with pytest.raises(StreamError, match="empty"):
            TemporalGraph.from_intervals(4, [(0, 1, 5, 5)])

    def test_alive_at_and_active_count(self):
        edge = TemporalEdge(0, 1, start=2, end=6)
        assert not edge.alive_at(1)
        assert edge.alive_at(2)
        assert not edge.alive_at(6)
        temporal = TemporalGraph.from_intervals(
            4, [(0, 1, 0, 4), (1, 2, 2, OPEN_END)]
        )
        assert temporal.active_count_at(0) == 1
        assert temporal.active_count_at(3) == 2
        assert temporal.active_count_at(5) == 1
        assert temporal.event_times().tolist() == [0, 2, 4]


class TestStreamEngine:
    def test_staleness_contract_bounds_pending(self):
        base = rmat(32, 128, seed=5, name="k")
        log = generate_update_log(base, 200, seed=5)
        engine = StreamEngine(32, k=16, name=log.name)
        engine.replay(log)
        assert engine.pending < 16
        assert engine.stats.max_pending_at_flush <= 16

    def test_query_answers_at_current_time(self):
        base = rmat(32, 128, seed=6, name="q")
        engine = StreamEngine.from_graph(base)
        assert engine.k == DEFAULT_STALENESS_K
        engine.ingest([("add", 1, 2), ("add", 2, 3)])
        values = engine.query("cc")
        assert engine.values_time == engine.logical_time
        assert engine.pending == 0
        rebuilt = run_vectorized(make_algorithm("cc"),
                                 engine.snapshot()).values
        assert np.array_equal(values, rebuilt)

    def test_k1_is_eager_exact_maintenance(self):
        base = rmat(24, 96, seed=7, name="eager")
        log = generate_update_log(base, 60, seed=7, delete_fraction=0.3)
        events = log.to_arrays()
        engine = StreamEngine(24, k=1, name=log.name)
        for row in events:
            engine.ingest(row.reshape(1, 4))
            # K=1: every event flushes, so values never lag the log.
            assert engine.pending == 0
            assert engine.values_time == engine.logical_time
        for name in MAINTAINED_ALGORITHMS:
            rebuilt = run_vectorized(make_algorithm(name),
                                     engine.snapshot()).values
            got = engine.query(name)
            if name == "pr":
                np.testing.assert_allclose(got, rebuilt, rtol=1e-12,
                                           atol=1e-12)
            else:
                assert np.array_equal(got, rebuilt)

    def test_incremental_matches_rebuild_across_k(self):
        base = rmat(48, 192, seed=8, name="battery")
        log = generate_update_log(base, 150, seed=8, delete_fraction=0.35)
        events = log.to_arrays()
        for k in (1, 7, 64):
            engine = StreamEngine(48, k=k, name=log.name)
            done = 0
            for prefix in (len(events) // 3, 2 * len(events) // 3,
                           len(events)):
                engine.ingest(events[done:prefix])
                done = prefix
                snapshot = engine.snapshot()
                for name in ("cc", "bfs"):
                    rebuilt = run_vectorized(make_algorithm(name),
                                             snapshot).values
                    assert np.array_equal(engine.query(name), rebuilt), \
                        f"{name} diverged at prefix {prefix} with k={k}"

    def test_historical_snapshot_matches_live_fingerprint(self):
        base = rmat(16, 64, seed=9, name="hist")
        log = generate_update_log(base, 40, seed=9)
        engine = StreamEngine(16, name=log.name)
        engine.replay(log)
        now = engine.logical_time
        live = engine.snapshot()
        # engine.snapshot(now) would take the same live-state path, so
        # compare against an independent replay of the log instead.
        replayed = log.temporal().snapshot_at(now)
        assert live.fingerprint() == replayed.fingerprint()
        past = engine.snapshot(now // 2)
        rebuilt = UpdateLog.from_arrays(
            16, log.to_arrays(), name=log.name
        ).temporal().snapshot_at(now // 2)
        assert past.fingerprint() == rebuilt.fingerprint()

    def test_rejects_bad_configuration(self):
        with pytest.raises(StreamError):
            StreamEngine(8, k=0)
        with pytest.raises(StreamError):
            StreamEngine(8, algorithms=("pr", "sssp"))
        engine = StreamEngine(8)
        with pytest.raises(StreamError):
            engine.query("sssp")

    def test_counters_and_stats_move(self):
        from repro.obs.metrics import (MetricsRegistry, STALENESS_FLUSHES,
                                       UPDATES_APPLIED, get_metrics,
                                       set_metrics)

        set_metrics(MetricsRegistry())
        try:
            base = rmat(16, 64, seed=10, name="obs")
            engine = StreamEngine.from_graph(base, k=8)
            engine.query("cc")
            snap = get_metrics().snapshot()
            assert snap[UPDATES_APPLIED]["value"] == base.num_edges
            assert snap[STALENESS_FLUSHES]["value"] \
                == engine.stats.flushes
            assert engine.stats.queries == 1
        finally:
            set_metrics(None)

    def test_rejected_chunk_leaves_no_state(self):
        engine = StreamEngine(6, k=64)
        engine.ingest([("add", 0, 1), ("add", 1, 2), ("add", 1, 2)])
        before = (len(engine.log), engine.num_edges, engine.pending,
                  engine.snapshot().fingerprint())
        with pytest.raises(StreamError, match="no matching open edge"):
            # Only the third del of 1 -> 2 lacks an open instance.
            engine.ingest([("add", 3, 4), ("del", 1, 2), ("del", 1, 2),
                           ("del", 1, 2)])
        assert (len(engine.log), engine.num_edges, engine.pending,
                engine.snapshot().fingerprint()) == before
        engine.ingest([("del", 1, 2)])
        _assert_matches_rebuild(engine)

    def test_engine_state_is_the_log_multiset(self):
        base = rmat(32, 128, seed=11, name="shared")
        log = generate_update_log(base, 300, seed=11, delete_fraction=0.4)
        events = log.to_arrays()
        engine = StreamEngine(32, k=16, name=log.name)
        for lo in range(0, len(events), 37):
            engine.ingest(events[lo:lo + 37])
        replayed = engine.log.temporal().snapshot_at(engine.logical_time)
        assert engine.num_edges == engine.log.open_edges \
            == replayed.num_edges
        live = engine.snapshot()
        assert np.array_equal(live.src, replayed.src)
        assert np.array_equal(live.dst, replayed.dst)
        assert live.fingerprint() == replayed.fingerprint()


class TestQueryTimePageRank:
    """PR has no incremental rule: contract flushes drop it and the
    query that reads it converges it, at the query's own instant."""

    @pytest.fixture
    def converged(self, monkeypatch):
        """The algorithm name of every run the engine converges."""
        names = []

        def counted(runner):
            def wrapper(algorithm, graph):
                names.append(algorithm.name)
                return runner(algorithm, graph)
            return wrapper

        monkeypatch.setattr(stream, "run_vectorized",
                            counted(stream.run_vectorized))
        monkeypatch.setattr(stream, "run_cached",
                            counted(stream.run_cached))
        return names

    def test_contract_flush_converges_no_pr(self, converged):
        base = rmat(32, 128, seed=14, name="lazy")
        log = generate_update_log(base, 300, seed=14, delete_fraction=0.3)
        with temporary_run_cache(""):
            engine = StreamEngine(32, k=16, name=log.name)
            engine.replay(log)
            assert engine.stats.flushes > 20
            assert "PR" not in converged
            assert engine.stats.rebuilds == 2  # CC and BFS, once each
            engine.query("cc")
            assert "PR" not in converged
            engine.query("pr")
        assert converged.count("PR") == 1
        assert engine.stats.rebuilds == 3

    def test_pr_query_is_the_rebuild_at_every_point(self):
        base = rmat(40, 160, seed=15, name="points")
        log = generate_update_log(base, 200, seed=15, delete_fraction=0.3)
        events = log.to_arrays()
        pr = make_algorithm("pr")
        with temporary_run_cache(""):
            engine = StreamEngine(40, k=8, name=log.name)
            # Before any event: the values of the empty graph.
            assert np.array_equal(
                engine.query("pr"),
                run_vectorized(pr, engine.snapshot()).values)
            # The first four points come right after a contract flush,
            # with nothing pending; the last two leave updates for the
            # query's flush.
            for lo, hi, pending in [(0, 160, 0), (160, 168, 0),
                                    (168, 200, 0), (200, 208, 0),
                                    (208, 213, 5), (213, 360, 3)]:
                engine.ingest(events[lo:hi])
                assert engine.pending == pending
                expected = run_vectorized(pr, engine.snapshot()).values
                assert np.array_equal(engine.query("pr"), expected), hi
                assert engine.pending == 0
                assert engine.values_time == engine.logical_time

    def test_queries_without_updates_rebuild_once(self):
        base = rmat(24, 96, seed=16, name="idle")
        with temporary_run_cache(""):
            engine = StreamEngine.from_graph(base, k=96)
            assert engine.pending == 0 and engine.stats.rebuilds == 2
            first = engine.query("pr")
            assert engine.query("pr") is first
        assert engine.stats.rebuilds == 3
        assert engine.stats.flushes == 1


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _seeded_engine(num_vertices, edges, k=64):
    """An engine over ``edges`` whose first (rebuilding) flush is done,
    so every later flush takes the incremental path."""
    engine = StreamEngine(num_vertices, algorithms=("cc", "bfs"), k=k)
    engine.ingest([("add", s, d, 0) for s, d in edges])
    engine.query("bfs")
    return engine


def _assert_matches_rebuild(engine):
    for name in engine.algorithms:
        got = engine.query(name)
        expected = run_vectorized(make_algorithm(name),
                                  engine.snapshot()).values
        assert np.array_equal(got, expected), name


class TestIncrementalFlush:
    """Flush cases the incremental BFS/CC paths must get exactly right,
    each checked against a from-scratch run on the engine's snapshot."""

    def test_key_added_and_deleted_inside_one_window(self):
        engine = _seeded_engine(6, _path(6))
        rebuilds = engine.stats.rebuilds
        # (0, 4) would shortcut the path and (2, 3) is a path edge:
        # both are touched, but the support ends the window unchanged.
        engine.ingest([("add", 0, 4), ("del", 0, 4),
                       ("add", 2, 3), ("del", 2, 3)])
        _assert_matches_rebuild(engine)
        assert engine.query("bfs").tolist() == [0, 1, 2, 3, 4, 5]
        assert engine.stats.rebuilds == rebuilds

    def test_delete_then_reinsert_across_chunks_of_one_flush(self):
        engine = _seeded_engine(6, _path(6), k=4)
        # Four events fill one flush; the tail (a shortcut to 4 and
        # the delete of path edge 2 -> 3) stays pending and a second
        # ingest re-inserts 2 -> 3, so the pending window spans two
        # chunks and the flush must see the first chunk's shortcut.
        engine.ingest([("add", 5, 0), ("add", 4, 0), ("add", 3, 0),
                       ("add", 1, 0), ("add", 0, 4), ("del", 2, 3)])
        assert engine.pending == 2
        engine.ingest([("add", 2, 3)])
        assert engine.pending == 3
        _assert_matches_rebuild(engine)
        assert engine.query("bfs").tolist() == [0, 1, 2, 3, 1, 2]

    def test_orphans_reached_again_through_a_longer_path(self):
        # Short path 0-1-2-3; a longer path 0-4-5-6 re-enters the
        # region through non-tight in-edges 6 -> 2 and 6 -> 3.
        edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 2),
                 (6, 3)]
        engine = _seeded_engine(8, edges)
        assert engine.query("bfs")[:4].tolist() == [0, 1, 2, 3]
        rebuilds = engine.stats.rebuilds
        engine.ingest([("del", 1, 2)])
        _assert_matches_rebuild(engine)
        levels = engine.query("bfs")
        assert levels[2] == 4 and levels[3] == 4
        assert engine.stats.rebuilds == rebuilds

    def test_insert_only_flush_lowers_levels_downstream(self):
        engine = _seeded_engine(10, _path(9))
        rebuilds = engine.stats.rebuilds
        engine.ingest([("add", 0, 5), ("add", 9, 9)])
        _assert_matches_rebuild(engine)
        assert engine.query("bfs")[5:9].tolist() == [1, 2, 3, 4]
        assert engine.stats.rebuilds == rebuilds


def _never_sweep(monkeypatch):
    """Make any whole-support CC sweep raise."""
    def whole_support(*args):
        raise AssertionError("whole-support CC sweep")

    monkeypatch.setattr(stream, "_RelaxEdges", whole_support)
    monkeypatch.setattr(stream, "_cc_refixpoint", whole_support)


def _grown(engine, edges):
    """Ingest ``edges`` as adds and return the previous and the
    refreshed CC labels."""
    previous = engine.query("cc")
    engine.ingest([("add", s, d) for s, d in edges])
    return previous, engine.query("cc")


class TestCCGrowth:
    """Insert-only flushes refresh CC by merging the previous component
    labels; each case is checked against a from-scratch run."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 min_size=1, max_size=30),
        st.lists(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=12),
                 min_size=1, max_size=4))))
    def test_insert_only_batches_match_rebuild(self, case):
        n, base, batches = case
        engine = StreamEngine(n, algorithms=("cc",), k=1000)
        engine.ingest([("add", s, d, 0) for s, d in base])
        engine.flush()
        rebuilds = engine.stats.rebuilds
        for batch in batches:
            engine.ingest([("add", s, d) for s, d in batch])
            got = engine.query("cc")
            expected = run_vectorized(make_algorithm("cc"),
                                      engine.snapshot()).values
            assert np.array_equal(got, expected)
        assert engine.stats.rebuilds == rebuilds

    @pytest.mark.parametrize("added", [
        # a chain of four components, joined from the largest label down
        [(7, 4), (5, 2), (3, 1)],
        # component 6 meets 2 and 4 in one flush: 4 hooks in a later round
        [(6, 2), (6, 4), (0, 3)],
    ])
    def test_one_flush_merges_a_chain_of_components(self, added):
        engine = _seeded_engine(9, [(0, 1), (2, 3), (4, 5), (6, 7)])
        rebuilds = engine.stats.rebuilds
        _grown(engine, added)
        _assert_matches_rebuild(engine)
        assert engine.query("cc").tolist() == [0] * 8 + [8]
        assert engine.stats.rebuilds == rebuilds

    def test_duplicate_added_keys(self):
        engine = _seeded_engine(6, [(0, 1), (2, 3), (4, 5)])
        _, labels = _grown(engine, [(3, 4), (3, 4), (4, 3), (3, 4)])
        _assert_matches_rebuild(engine)
        assert labels.tolist() == [0, 0, 2, 2, 2, 2]

    def test_self_loops_change_nothing(self):
        engine = _seeded_engine(5, [(0, 1), (2, 3)])
        previous, labels = _grown(engine, [(4, 4), (2, 2)])
        assert labels is previous
        _, labels = _grown(engine, [(4, 4), (3, 3), (1, 3)])
        _assert_matches_rebuild(engine)
        assert labels.tolist() == [0, 0, 0, 0, 4]

    def test_edge_inside_one_component_keeps_the_array(self):
        engine = _seeded_engine(6, _path(4))
        previous, labels = _grown(engine, [(0, 3), (3, 1)])
        assert labels is previous
        _assert_matches_rebuild(engine)

    def test_growth_never_sweeps_the_support(self, monkeypatch):
        engine = _seeded_engine(12, _path(5) + [(6, 7), (8, 9)])
        _never_sweep(monkeypatch)
        _grown(engine, [(4, 6), (9, 7), (11, 10)])
        _assert_matches_rebuild(engine)
        # The patch is live: dropping both edges of the hinge 4, which
        # joins the halves {0..3} and {6..9}, leaves {4} ending on two
        # vertices, so the flush still sweeps.
        engine.ingest([("del", 3, 4), ("del", 4, 6)])
        with pytest.raises(AssertionError, match="whole-support"):
            engine.query("cc")


def _pin_split_to_reseed(monkeypatch) -> list[bool]:
    """Check every labelling the deletion search finds against the
    re-seed fallback; returns the list of which path each flush took."""
    split = stream._cc_split
    taken = []

    def pinned(values, dropped, added, keys, rev):
        labels = split(values, dropped, added, keys, rev)
        if labels is not None:
            reseed = stream._cc_refixpoint(
                stream._cc_delete_seed(values, dropped),
                stream._RelaxEdges(keys, rev))
            assert np.array_equal(stream._cc_union(labels, added), reseed)
        taken.append(labels is not None)
        return labels

    monkeypatch.setattr(stream, "_cc_split", pinned)
    return taken


class TestDeletionFlush:
    """Deletion flushes refresh CC by searches sized to what split off,
    and only they bring the in-edge order up to date."""

    def test_insert_only_flush_never_rebuilds_the_in_edge_order(
            self, monkeypatch):
        engine = _seeded_engine(8, _path(6))

        def rebuild(self):
            raise AssertionError("in-edge order rebuilt")

        monkeypatch.setattr(StreamEngine, "_in_edge_order", rebuild)
        for batch in ([(0, 6)], [(6, 7), (2, 0)]):
            _grown(engine, batch)
            _assert_matches_rebuild(engine)
        # The patch is live: the first deletion flush merges the lag.
        engine.ingest([("del", 0, 1)])
        with pytest.raises(AssertionError, match="in-edge order"):
            engine.query("cc")

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_in_edge_order_catches_up_with_the_support(self, k):
        base = rmat(24, 60, seed=5, name="lag")
        log = generate_update_log(base, 150, seed=5, delete_fraction=0.45)
        events = log.to_arrays()
        engine = StreamEngine(base.num_vertices, algorithms=("cc",), k=k)
        for lo in range(0, len(events), 23):
            engine.ingest(events[lo:lo + 23])
            engine.flush()
            expected = np.sort(stream._swap_words(engine.log.support))
            assert np.array_equal(engine._in_edge_order(), expected)

    def test_non_bridge_deletion_does_not_sweep(self, monkeypatch):
        # A cycle with a chord: neither dropped edge is a bridge.
        engine = _seeded_engine(9, _path(8) + [(7, 0), (2, 5)])
        previous = engine.query("cc")
        _never_sweep(monkeypatch)
        engine.ingest([("del", 3, 4), ("del", 2, 5), ("add", 8, 8)])
        _assert_matches_rebuild(engine)
        assert engine.query("cc") is previous

    @pytest.mark.parametrize("dropped, expected", [
        # the reverse edge keeps 4 attached
        ([(3, 4)], [0, 0, 0, 0, 0, 5]),
        # the leaf {4} splits off; both its edges end on 3
        ([(3, 4), (4, 3)], [0, 0, 0, 0, 4, 5]),
        # the leaf {0} held the old minimum label
        ([(0, 1)], [0, 1, 1, 1, 1, 5]),
        # a three-vertex piece splits off
        ([(1, 2)], [0, 0, 2, 2, 2, 5]),
        # two leaves at once, one with the minimum
        ([(0, 1), (4, 3), (3, 4)], [0, 1, 1, 1, 4, 5]),
    ])
    def test_leaf_split_does_not_sweep(self, monkeypatch, dropped, expected):
        engine = _seeded_engine(6, _path(5) + [(4, 3)])
        _never_sweep(monkeypatch)
        engine.ingest([("del", s, d) for s, d in dropped])
        _assert_matches_rebuild(engine)
        assert engine.query("cc").tolist() == expected

    def test_failed_search_backs_off(self, monkeypatch):
        engine = _seeded_engine(12, _path(11))
        taken = _pin_split_to_reseed(monkeypatch)
        # Dropping both edges of the hinge 5 fails the search, so the
        # next deletion flush goes straight to the fallback and the one
        # after searches again.
        for dropped in ([(4, 5), (5, 6)], [(0, 1)], [(9, 10)]):
            engine.ingest([("del", s, d) for s, d in dropped])
            _assert_matches_rebuild(engine)
        assert taken == [False, True]
        assert engine.query("cc").tolist() == [0, 1, 1, 1, 1, 5, 6, 6, 6,
                                               6, 10, 11]

    def test_split_then_growth_in_one_flush(self, monkeypatch):
        engine = _seeded_engine(7, _path(5) + [(5, 6)])
        _never_sweep(monkeypatch)
        # {0} splits off and takes the minimum with it, then (0, 6)
        # merges it with {5, 6}.
        engine.ingest([("del", 0, 1), ("add", 0, 6)])
        _assert_matches_rebuild(engine)
        assert engine.query("cc").tolist() == [0, 1, 1, 1, 1, 0, 0]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_deletion_heavy_logs_match_rebuild(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        vertex = st.integers(0, n - 1)
        base = data.draw(st.lists(st.tuples(vertex, vertex),
                                  max_size=3 * n), label="base")
        graph = Graph(n, [s for s, _ in base], [d for _, d in base])
        log = generate_update_log(
            graph, data.draw(st.integers(1, 80), label="updates"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
            delete_fraction=data.draw(st.floats(0.4, 0.8), label="fraction"))
        events = log.to_arrays()
        engine = StreamEngine(n, algorithms=("cc", "bfs"),
                              k=data.draw(st.integers(1, 16), label="k"))
        with pytest.MonkeyPatch.context() as monkeypatch:
            _pin_split_to_reseed(monkeypatch)
            done = 0
            while done < len(events):
                step = data.draw(st.integers(1, 12), label="chunk")
                engine.ingest(events[done:done + step])
                done += step
                # A query mid-window forces a flush of a partial window.
                if data.draw(st.booleans(), label="query"):
                    _assert_matches_rebuild(engine)
            _assert_matches_rebuild(engine)

    def test_seeded_churn_takes_the_search_path(self, monkeypatch):
        base = rmat(60, 240, seed=3, name="churn")
        log = generate_update_log(base, 600, seed=3, delete_fraction=0.45)
        taken = _pin_split_to_reseed(monkeypatch)
        engine = StreamEngine(base.num_vertices, algorithms=("cc", "bfs"),
                              k=20)
        events = log.to_arrays()
        for lo in range(0, len(events), 20):
            engine.ingest(events[lo:lo + 20])
            _assert_matches_rebuild(engine)
        assert sum(taken) >= 0.9 * len(taken) > 0


class TestMeasureStream:
    def test_mixes_run_and_cross_check(self):
        base = rmat(48, 192, seed=12, name="bench")
        log = generate_update_log(base, 300, seed=12, delete_fraction=0.2)
        for mix in (UPDATE_HEAVY, READ_HEAVY):
            result = measure_stream(log, mix)
            assert result.mix == mix.name
            assert result.num_updates == len(log)
            assert result.num_queries > 0
            assert result.updates_per_second > 0
            assert result.engine_seconds > 0
            assert result.serial_seconds > 0

    @pytest.mark.parametrize("delete_fraction", [0.0, 0.2])
    def test_update_heavy_refreshes_incrementally_at_scale(
            self, delete_fraction):
        # 20,000 updates on a 2,000-vertex base: every query but the
        # first of each algorithm is answered by an incremental refresh,
        # so an engine that rebuilds per query fails on the counts.
        base = rmat(2000, 16000, seed=11, name="stream-scale")
        log = generate_update_log(base, 20_000, seed=11,
                                  delete_fraction=delete_fraction)
        result = measure_stream(log, UPDATE_HEAVY)
        assert (result.num_queries, result.incremental_refreshes,
                result.rebuilds) == (144, 142, 2)


class TestFoldTimeSlices:
    @pytest.fixture
    def reports(self):
        machine = make_machine("acc+HyVE")
        g1 = rmat(32, 128, seed=13, name="slice-a")
        g2 = rmat(32, 128, seed=14, name="slice-b")
        algorithm = make_algorithm("pr")
        with temporary_run_cache(""):
            return (machine.run(algorithm, g1).report,
                    machine.run(algorithm, g2).report)

    def test_width_weighted_aggregation(self, reports):
        r1, r2 = reports
        folded = fold_time_slices([(0, 3, r1), (3, 5, r2)])
        assert folded.algorithm == r1.algorithm
        assert folded.machine == r1.machine
        assert folded.iterations == 3 * r1.iterations + 2 * r2.iterations
        np.testing.assert_allclose(
            folded.total_energy,
            3 * r1.total_energy + 2 * r2.total_energy, rtol=1e-12)
        np.testing.assert_allclose(
            folded.time, 3 * r1.time + 2 * r2.time, rtol=1e-12)

    def test_rejects_bad_slices(self, reports):
        r1, _ = reports
        with pytest.raises(ConfigError):
            fold_time_slices([])
        with pytest.raises(ConfigError):
            fold_time_slices([(2, 2, r1)])
        with pytest.raises(ConfigError):
            fold_time_slices([(0, 3, r1), (2, 5, r1)])

    def test_rejects_mixed_algorithms(self, reports):
        r1, _ = reports
        machine = make_machine("acc+HyVE")
        with temporary_run_cache(""):
            other = machine.run(make_algorithm("bfs"),
                                rmat(32, 128, seed=13, name="slice-a")).report
        with pytest.raises(ConfigError):
            fold_time_slices([(0, 2, r1), (2, 4, other)])


class TestTemporalDriver:
    """The temporal driver's deterministic output at the reduced scale
    the stream-smoke CI job runs: refresh counts, slice energies and
    cache hits."""

    EXPECTED = [
        ["stream ingest", "t0..t1000", 4502, 0.0,
         "incremental==rebuild: True (5 rebuilds, 160 incremental)"],
        ["slice pr", "[t0,t333)", 4000, 3.349304547704001e-05,
         "cache-hit"],
        ["slice pr", "[t333,t667)", 4187, 3.430511852685e-05, "cache-hit"],
        ["slice pr", "[t667,t1001)", 4347, 3.499994038765e-05,
         "cache-hit"],
        ["folded total", "[t0,t1001)", "-", 0.03430107382129732,
         "repriced snapshots hit cache: 3/3"],
    ]

    def test_reduced_scale_output(self):
        result = temporal.run(num_vertices=500, num_edges=4000,
                              num_updates=1000, num_slices=3)
        assert [row[:3] + row[4:] for row in result.rows] == \
            [row[:3] + row[4:] for row in self.EXPECTED]
        assert [row[3] for row in result.rows] == pytest.approx(
            [row[3] for row in self.EXPECTED], rel=1e-12)

    def test_slice_cell_is_per_slice(self, monkeypatch):
        # The driver reads the hit count before and after each slice's
        # repricing; the middle slice misses, its neighbours hit.
        reads = iter([0, 1, 1, 1, 1, 2])

        class Stats:
            @property
            def memory_hits(self):
                return next(reads)

        monkeypatch.setattr(temporal, "get_run_cache",
                            lambda: SimpleNamespace(stats=Stats()))
        result = temporal.run(num_vertices=500, num_edges=4000,
                              num_updates=1000, num_slices=3)
        assert [row[4] for row in result.rows[1:5]] == [
            "cache-hit", "cache-MISS", "cache-hit",
            "repriced snapshots hit cache: 2/3"]
