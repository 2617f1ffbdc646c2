"""Observability layer: tracer schema, disabled-path cost, metrics."""

from __future__ import annotations

import io
import json
import threading
import tracemalloc

import pytest

from repro.arch.config import Workload
from repro.arch.machine import AcceleratorMachine
from repro.arch.report import ALL_COMPONENTS
from repro.algorithms import PageRank
from repro.graph import rmat
from repro.obs import (
    COMPONENT_PHASE,
    NULL_SPAN,
    PHASES,
    MetricsRegistry,
    TraceError,
    Tracer,
    fold_records,
    format_attribution,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import read_trace, validate_record


@pytest.fixture
def fresh_obs():
    """Isolate process-wide tracer/registry state per test."""
    set_tracer(None)
    set_metrics(None)
    yield
    set_tracer(None)
    set_metrics(None)


@pytest.fixture
def small_workload():
    return Workload(rmat(256, 1024, seed=11, name="obs-rmat"))


class TestTraceRoundTrip:
    def test_file_round_trip_validates(self, tmp_path, fresh_obs):
        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        tracer.start(path)
        with tracer.span("outer", machine="m"):
            tracer.event("ping", n=1)
            with tracer.span("inner"):
                pass
        tracer.stop()
        records = read_trace(path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["meta", "event", "span", "span"]
        header = records[0]
        assert header["schema"] == "hyve-trace-v1"
        # Spans are emitted on exit: inner precedes outer, and nesting
        # is recoverable through parent ids.
        inner, outer = records[2], records[3]
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert records[1]["parent"] == outer["id"]
        for span in (inner, outer):
            assert span["t_end"] >= span["t_start"] >= 0.0
            assert span["dur"] == pytest.approx(
                span["t_end"] - span["t_start"]
            )

    def test_machine_run_trace_is_schema_valid(self, tmp_path, fresh_obs,
                                               small_workload):
        path = tmp_path / "run.jsonl"
        tracer = get_tracer()
        tracer.start(path)
        report = AcceleratorMachine().run(
            PageRank(), small_workload
        ).report
        tracer.stop()
        records = read_trace(path)  # validates every line
        names = {r["name"] for r in records if r["kind"] != "meta"}
        assert {"machine.run", "schedule.counts", "fold"} <= names
        attribution = fold_records(records)
        assert attribution.reports, "machine run must emit a report event"
        assert attribution.total_time_s == pytest.approx(
            report.time, rel=1e-9
        )
        assert attribution.total_energy_j == pytest.approx(
            report.total_energy, rel=1e-9
        )
        table = format_attribution(attribution)
        assert "stream" in table and "background" in table

    def test_rejects_foreign_schema_and_truncation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "schema": "hyve-trace-v99", "kind": "meta",
            "wall_time_unix": 0.0, "pid": 1,
        }) + "\n")
        with pytest.raises(TraceError, match="schema"):
            read_trace(path)
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_validate_record_requires_fields(self):
        with pytest.raises(TraceError, match="missing"):
            validate_record({"kind": "span", "name": "x"})
        with pytest.raises(TraceError, match="kind"):
            validate_record({"kind": "nope"})

    def test_crash_leaves_readable_prefix(self, tmp_path, fresh_obs):
        path = tmp_path / "crash.jsonl"
        tracer = Tracer()
        tracer.start(path)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                tracer.event("checkpoint")
                raise RuntimeError("boom")
        tracer.stop()
        kinds = [r["kind"] for r in read_trace(path)]
        assert kinds == ["meta", "event", "span"]


class TestDisabledOverhead:
    def test_disabled_span_is_shared_singleton(self, fresh_obs):
        tracer = get_tracer()
        assert tracer.enabled is False
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", big="tag") is NULL_SPAN

    def test_disabled_path_has_no_steady_state_allocation(self, fresh_obs):
        tracer = get_tracer()
        # Warm up any lazy interpreter state first.
        for _ in range(100):
            with tracer.span("warm"):
                pass
            tracer.event("warm")
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(10_000):
            with tracer.span("hot"):
                pass
            tracer.event("hot")
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = sum(
            s.size_diff for s in after.compare_to(before, "filename")
            if s.size_diff > 0
        )
        # tracemalloc's own bookkeeping costs a few KiB; a per-call
        # allocation would show up as hundreds of KiB over 10k calls.
        assert growth < 64 * 1024

    def test_disabled_event_writes_nothing(self, fresh_obs):
        tracer = get_tracer()
        tracer.event("dropped", tag=1)
        assert tracer.records_written == 0


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.counter("c").add(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1)
        registry.histogram("h").observe(3)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 5.0}
        assert snap["g"]["value"] == 7.0
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == 2.0
        assert list(snap) == sorted(snap)

    def test_type_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(obs_metrics.MetricsError):
            registry.gauge("x")

    def test_concurrent_updates_lose_nothing(self):
        registry = MetricsRegistry()
        workers = 4
        per_thread = 5_000

        def hammer():
            counter = registry.counter("edges")
            hist = registry.histogram("iters")
            for _ in range(per_thread):
                counter.add(1)
                hist.observe(1.0)

        threads = [threading.Thread(target=hammer)
                   for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["edges"]["value"] == workers * per_thread
        assert snap["iters"]["count"] == workers * per_thread

    def test_merge_folds_worker_snapshot(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").add(1)
        worker.counter("c").add(2)
        worker.gauge("g").set(9)
        worker.histogram("h").observe(4)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["c"]["value"] == 3.0
        assert snap["g"]["value"] == 9.0
        assert snap["h"]["count"] == 1

    def test_machine_run_populates_canonical_metrics(self, fresh_obs,
                                                     small_workload):
        registry = get_metrics()
        AcceleratorMachine().run(PageRank(), small_workload)
        snap = registry.snapshot()
        assert snap[obs_metrics.EDGES_STREAMED]["value"] > 0
        assert obs_metrics.BPG_BANK_WAKES in snap


class TestAttributionTaxonomy:
    def test_component_phase_covers_all_components(self):
        assert set(COMPONENT_PHASE) == set(ALL_COMPONENTS)
        assert set(COMPONENT_PHASE.values()) <= set(PHASES)

    def test_stream_tracer_emits_to_adopted_stream(self, fresh_obs):
        sink = io.StringIO()
        tracer = Tracer()
        tracer.start(sink)
        with tracer.span("s"):
            pass
        tracer.stop()
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [r["kind"] for r in lines] == ["meta", "span"]


class TestHotPathObservability:
    """The hot-path instruments: counters for the vectorized executor
    and the GraphR fold path, plus the ``fig21.fold`` span."""

    def test_vectorized_executor_counts_edges(self, fresh_obs):
        from repro.algorithms import PageRank
        from repro.algorithms.vertex_centric import run_vertex_centric

        g = rmat(128, 512, seed=7, name="obs-vec")
        vc = run_vertex_centric(PageRank(iterations=3), g)
        snap = get_metrics().snapshot()
        assert snap[obs_metrics.EXECUTOR_VECTORIZED_EDGES]["value"] \
            == vc.edges_examined

    def test_graphr_fold_counter_and_fig21_span(self, tmp_path, fresh_obs,
                                                monkeypatch):
        from repro.algorithms import PageRank
        from repro.experiments import fig21

        wl = Workload(rmat(128, 512, seed=15, name="obs-fig21"))
        monkeypatch.setattr(
            fig21, "workloads", lambda: {"XS": wl}
        )
        monkeypatch.setattr(
            fig21, "ALL_ALGORITHM_FACTORIES", {"PR": PageRank}
        )
        path = tmp_path / "fig21.jsonl"
        tracer = get_tracer()
        tracer.start(path)
        try:
            result = fig21.run()
        finally:
            tracer.stop()
        assert len(result.rows) == 1
        records = read_trace(path)
        spans = [r for r in records if r.get("name") == "fig21.fold"]
        assert len(spans) == 1
        assert spans[0]["tags"]["cells"] == 1
        snap = get_metrics().snapshot()
        assert snap[obs_metrics.GRAPHR_FOLD_CONFIGS]["value"] >= 1.0
