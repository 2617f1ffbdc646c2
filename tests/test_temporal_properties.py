"""Property-based tests for the streaming/temporal layer (ISSUE 10).

Generated update logs — inserts, FIFO deletes, re-inserts of the same
packed key, duplicate suppression, interleaved timestamp advances —
drive four contracts:

* snapshots are piecewise constant between event times and agree with
  a plain Counter reference model on the live-edge count;
* ``snapshot_at`` fingerprints are invariant to how the log was built
  (per-event appends, one bulk array, arbitrary ``extend_arrays``
  chunkings);
* interval edges are well-formed ``[start, end)`` half-open spans;
* the stream engine matches a from-scratch rebuild for every chunking
  of the same log, and K=1 degenerates to eager exact maintenance.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_algorithm
from repro.algorithms.runner import run_vectorized
from repro.dynamic import OPEN_END, StreamEngine, TemporalGraph, UpdateLog
from repro.perf.cache import temporary_run_cache

NUM_VERTICES = 10

#: Each drawn step is (selector, src, dst, time-advance).  The selector
#: picks delete-an-open-edge (FIFO re-insert churn) vs add-an-edge, so
#: every generated log is valid by construction.
_steps = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, NUM_VERTICES - 1),
        st.integers(0, NUM_VERTICES - 1),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=50,
)


#: Steps over three vertices, so multi-edges and FIFO re-inserts of one
#: key are common.
_dense_steps = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 1)),
    min_size=1,
    max_size=50,
)


def _build_log(steps, name="prop"):
    """Turn drawn steps into a valid log plus a Counter reference of the
    open-edge multiset."""
    log = UpdateLog(NUM_VERTICES, name=name)
    open_edges: Counter = Counter()
    t = 0
    for selector, src, dst, dt in steps:
        t += dt
        if selector < 4 and open_edges:
            keys = sorted(open_edges)
            src, dst = keys[selector % len(keys)]
            log.append("del", src, dst, t=t)
            open_edges[(src, dst)] -= 1
            if not open_edges[(src, dst)]:
                del open_edges[(src, dst)]
        else:
            log.append("add", src, dst, t=t)
            open_edges[(src, dst)] += 1
    return log, open_edges


@settings(max_examples=40, deadline=None)
@given(steps=_steps, probe=st.integers(0, 60))
def test_snapshot_matches_counter_reference(steps, probe):
    """snapshot_at(t) holds exactly the edges open after replaying every
    event with timestamp <= t (end-exclusive: a delete at t hides the
    edge at t), and is constant between event times."""
    log, _ = _build_log(steps)
    temporal = log.temporal()
    reference: Counter = Counter()
    for update in log:
        if update.t > probe:
            break
        key = (update.src, update.dst)
        reference[key] += 1 if update.op == "add" else -1
    expected = sum(reference.values())
    snapshot = temporal.snapshot_at(probe)
    assert snapshot.num_edges == expected
    got = Counter(zip(snapshot.src.tolist(), snapshot.dst.tolist()))
    assert got == +reference
    # Piecewise constant: identical topology at the floor event time
    # (fingerprints differ by design — the name embeds t, so each query
    # time keys its own run-cache entry).
    times = temporal.event_times()
    below = times[times <= probe]
    floor = int(below[-1]) if below.size else 0
    at_floor = temporal.snapshot_at(floor)
    assert np.array_equal(snapshot.src, at_floor.src)
    assert np.array_equal(snapshot.dst, at_floor.dst)


@settings(max_examples=40, deadline=None)
@given(steps=_steps, chunk=st.integers(1, 7))
def test_fingerprint_stable_across_construction_routes(steps, chunk):
    """The same event stream yields bit-identical snapshots whether the
    log was built by per-event appends, one bulk array, or arbitrary
    extend_arrays chunkings."""
    serial, _ = _build_log(steps)
    events = serial.to_arrays()
    bulk = UpdateLog.from_arrays(NUM_VERTICES, events, name=serial.name)
    chunked = UpdateLog(NUM_VERTICES, name=serial.name)
    for lo in range(0, len(events), chunk):
        chunked.extend_arrays(events[lo:lo + chunk])
    probe = int(serial.last_time)
    want = serial.temporal().snapshot_at(probe).fingerprint()
    assert bulk.temporal().snapshot_at(probe).fingerprint() == want
    assert chunked.temporal().snapshot_at(probe).fingerprint() == want


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
def test_intervals_are_half_open_and_account_for_every_add(steps):
    log, open_edges = _build_log(steps)
    temporal = log.temporal()
    assert np.all(temporal.start < temporal.end)
    open_intervals = int(np.count_nonzero(temporal.end == OPEN_END))
    assert open_intervals == sum(open_edges.values()) == log.open_edges
    adds = sum(1 for u in log if u.op == "add")
    zero_width = adds - temporal.num_intervals
    assert zero_width >= 0  # only zero-width [t, t) spans may be dropped


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
def test_dedupe_gives_set_semantics(steps):
    """Replaying only the adds with dedupe=True keeps at most one open
    instance per key: append returns False iff the key is already open."""
    log = UpdateLog(NUM_VERTICES, name="dedupe")
    open_keys = set()
    for _, src, dst, _ in steps:
        accepted = log.append("add", src, dst, dedupe=True)
        assert accepted == ((src, dst) not in open_keys)
        open_keys.add((src, dst))
    assert log.open_edges == len(open_keys)


@settings(max_examples=25, deadline=None)
@given(steps=_steps, k=st.integers(1, 9), chunk=st.integers(1, 11))
def test_engine_matches_rebuild_for_any_chunking(steps, k, chunk):
    """Incremental maintenance is bit-identical to a from-scratch
    rebuild at the same logical time, for every (k, ingest-chunking)."""
    log, _ = _build_log(steps)
    events = log.to_arrays()
    with temporary_run_cache(""):
        engine = StreamEngine(
            NUM_VERTICES, algorithms=("cc", "bfs"), k=k, name=log.name
        )
        for lo in range(0, len(events), chunk):
            engine.ingest(events[lo:lo + chunk])
        t = engine.logical_time
        rebuilt = UpdateLog.from_arrays(
            NUM_VERTICES, events, name=log.name
        ).temporal().snapshot_at(t)
        assert engine.snapshot(t).fingerprint() == rebuilt.fingerprint()
        for name in ("cc", "bfs"):
            want = run_vectorized(make_algorithm(name), rebuilt).values
            assert np.array_equal(engine.query(name), want), name


@settings(max_examples=25, deadline=None)
@given(steps=_steps)
def test_k1_is_eager(steps):
    """K=1 flushes on every event: values never lag the log, even
    without queries forcing a flush."""
    log, _ = _build_log(steps)
    with temporary_run_cache(""):
        engine = StreamEngine(
            NUM_VERTICES, algorithms=("cc",), k=1, name=log.name
        )
        for row in log.to_arrays():
            engine.ingest(row.reshape(1, 4))
            assert engine.pending == 0
            assert engine.values_time == engine.logical_time


def _replay_intervals(log):
    """Per-event FIFO replay of ``log`` into interval rows (the reference
    for the vectorized :meth:`TemporalGraph.from_log`)."""
    rows = []
    open_rows: dict[tuple[int, int], list[int]] = {}
    for update in log:
        key = (update.src, update.dst)
        if update.op == "add":
            open_rows.setdefault(key, []).append(len(rows))
            rows.append([update.src, update.dst, update.t, OPEN_END])
        else:
            row = open_rows[key].pop(0)
            if rows[row][2] == update.t:
                rows[row] = None  # zero-width: never visible
            else:
                rows[row][3] = update.t
    return [row for row in rows if row is not None]


@settings(max_examples=60, deadline=None)
@given(steps=st.one_of(_steps, _dense_steps))
def test_from_log_matches_per_event_replay(steps):
    """Pairing deletes to adds by rank per key gives the same intervals,
    in the same canonical order, as replaying the log event by event."""
    log, _ = _build_log(steps)
    got = log.temporal()
    want = TemporalGraph.from_intervals(NUM_VERTICES, _replay_intervals(log),
                                        name=log.name)
    for column in ("src", "dst", "start", "end"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
