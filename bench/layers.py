"""The program's layers, and how a traced run charges host time to them.

Layers are named after the program's modules: ``graph`` (datasets,
generators, partition, shards), ``algorithms`` (the executors),
``scheduler``, ``machine`` and ``graphr`` (the pricing folds),
``cache``, ``store``, ``batch``, ``tune``, ``dynamic`` and
``experiments``.  Each span name is charged to one self-time metric
(:data:`SPAN_METRICS`); a name that is not listed goes to
``other.self_s``.

The program already emits spans inside most layers (``converge``,
``fold``, ``fold_many``, ``schedule.counts``, ``estimate_imbalance``,
``tune.*``, ``stream.*``, ``shard.*``).  :class:`LayerProfile` adds
benchmark-side spans around the public entry points listed in
:func:`_entry_points` for as long as a traced stretch lasts, records the
program's ``hyve-trace-v1`` tracer into memory, and folds the spans.
"""

from __future__ import annotations

import functools
import io
import json
from contextlib import contextmanager
from pathlib import Path

from trace_fold import fold

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "graph.build_s": "s",
    "graph.partition_s": "s",
    "graph.shards_s": "s",
    "graph.stats_s": "s",
    "algorithms.converge_s": "s",
    "algorithms.runs": "count",
    "algorithms.edges": "count",
    "scheduler.counts_s": "s",
    "scheduler.imbalance_s": "s",
    "scheduler.counts_computed": "count",
    "machine.fold_s": "s",
    "machine.configs_priced": "count",
    "graphr.fold_s": "s",
    "graphr.configs_priced": "count",
    "batch.group_s": "s",
    "tune.search_s": "s",
    "tune.pareto_s": "s",
    "cache.lookup_s": "s",
    "cache.lookups": "count",
    "cache.memory_hit_ratio": "ratio",
    "store.read_s": "s",
    "store.reads": "count",
    "store.write_s": "s",
    "store.writes": "count",
    "store.busy_retries": "count",
    "dynamic.log_s": "s",
    "dynamic.ingest_s": "s",
    "dynamic.flush_s": "s",
    "dynamic.snapshot_s": "s",
    "dynamic.store_s": "s",
    "dynamic.measure_s": "s",
    "dynamic.updates": "count",
    "dynamic.incremental_ratio": "ratio",
    "experiments.self_s": "s",
    "experiments.temporal_s": "s",
    "experiments.fig20_s": "s",
    "experiments.fig21_s": "s",
    "experiments.ablation_execution_model_s": "s",
    "experiments.table1_s": "s",
    "experiments.autotune_s": "s",
    "experiments.outofcore_s": "s",
    "experiments.other_s": "s",
    "other.self_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: Span name -> the self-time metric its self time is charged to.
#: Benchmark-side span names (``graph.build``, ``cache.lookup``, ...)
#: sit beside the program's own.
SPAN_METRICS = {
    "graph.build": "graph.build_s",
    "graph.partition": "graph.partition_s",
    "shm.attach": "graph.build_s",
    "graph.stats": "graph.stats_s",
    "preprocess": "algorithms.converge_s",
    "algorithm.converge": "algorithms.converge_s",
    "converge": "algorithms.converge_s",
    "algorithms.vertex_centric": "algorithms.converge_s",
    "apply": "algorithms.converge_s",
    "superblock_row": "algorithms.converge_s",
    "block_dispatch": "algorithms.converge_s",
    "schedule.counts": "scheduler.counts_s",
    "scheduler.counts": "scheduler.counts_s",
    "estimate_imbalance": "scheduler.imbalance_s",
    "machine.run": "machine.fold_s",
    "fold": "machine.fold_s",
    "fold_many": "machine.fold_s",
    "graphr.run": "graphr.fold_s",
    "graphr.counts": "graphr.fold_s",
    "fig21.fold": "graphr.fold_s",
    "run_grid": "batch.group_s",
    "sweep_batch": "batch.group_s",
    "sweep_point": "batch.group_s",
    "tune.search": "tune.search_s",
    "tune.price": "tune.search_s",
    "tune.pareto": "tune.pareto_s",
    "cache.lookup": "cache.lookup_s",
    "store.get": "store.read_s",
    "store.put": "store.write_s",
    "dynamic.log": "dynamic.log_s",
    "dynamic.ingest": "dynamic.ingest_s",
    "stream.ingest": "dynamic.ingest_s",
    "dynamic.query": "dynamic.flush_s",
    "stream.flush": "dynamic.flush_s",
    "dynamic.snapshot": "dynamic.snapshot_s",
    "stream.snapshot": "dynamic.snapshot_s",
    "dynamic.store": "dynamic.store_s",
    "dynamic.measure": "dynamic.measure_s",
}

#: Span-name prefixes charged as a family.
PREFIX_METRICS = (
    ("shard.", "graph.shards_s"),
    ("experiments.", "experiments.self_s"),
)

#: Drivers whose inclusive wall-clock is reported on its own; every other
#: driver's sums into ``experiments.other_s``.
NAMED_DRIVERS = ("temporal", "fig20", "fig21", "ablation_execution_model",
                 "table1", "autotune", "outofcore")

#: Program counters whose change over a traced stretch is reported.
COUNTERS = ("executor_edges_processed", "fold_many_configs",
            "graphr_fold_configs", "store_busy_retries", "updates_applied")


def metric_for(span_name: str) -> str:
    """The self-time metric a span of this name is charged to."""
    metric = SPAN_METRICS.get(span_name)
    if metric is not None:
        return metric
    for prefix, family in PREFIX_METRICS:
        if span_name.startswith(prefix):
            return family
    return "other.self_s"


def _counter_values() -> dict[str, float]:
    from repro.obs.metrics import get_metrics

    snapshot = get_metrics().snapshot()
    return {name: snapshot.get(name, {}).get("value", 0.0)
            for name in COUNTERS}


class LayerProfile:
    """Span and counter totals over one or more traced stretches.

    Totals are additive, so a profile folded in a worker process merges
    into the parent's through :meth:`to_dict` / :meth:`merge`.
    """

    def __init__(self, trace_dir: str | Path | None = None) -> None:
        #: span name -> [self_s, dur_s, count]
        self.spans: dict[str, list] = {}
        self.wall_s = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.lookups = 0
        self.memory_hits = 0
        self.refreshes = 0
        self.rebuilds = 0
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self._stretches = 0

    # --- recording -------------------------------------------------------

    @contextmanager
    def traced(self, root: str):
        """Trace the enclosed code under one root span named ``root``."""
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        buffer = io.StringIO()
        before = _counter_values()
        restore = self._install()
        tracer.start(buffer)
        try:
            with tracer.span(root):
                yield
        finally:
            tracer.stop()
            for owner, attr, raw in restore:
                setattr(owner, attr, raw)
            after = _counter_values()
            for name in COUNTERS:
                self.counters[name] += after[name] - before[name]
            self._fold(buffer)

    def _fold(self, buffer: io.StringIO) -> None:
        from repro.obs.trace import TRACE_SCHEMA, validate_record

        buffer.seek(0)
        records = [validate_record(json.loads(line), lineno)
                   for lineno, line in enumerate(buffer, start=1)]
        if not records or records[0].get("schema") != TRACE_SCHEMA:
            raise ValueError(f"traced stretch did not open a {TRACE_SCHEMA} "
                             "header")
        by_name, wall = fold(records)
        self.wall_s += wall
        for name, (self_s, dur_s, count) in by_name.items():
            entry = self.spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += dur_s
            entry[2] += count
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self._stretches += 1
            path = self.trace_dir / f"trace-{self._stretches}.jsonl"
            path.write_text(buffer.getvalue(), encoding="utf-8")

    def _install(self) -> list[tuple[object, str, object]]:
        """Wrap every entry point; returns what to restore afterwards."""
        from repro.obs.trace import get_tracer

        restore = []

        def patch(owner, attr, make):
            raw = owner.__dict__[attr]
            kind = type(raw) if isinstance(raw, (classmethod,
                                                 staticmethod)) else None
            func = raw.__func__ if kind else raw
            wrapped = functools.wraps(func)(make(func))
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            restore.append((owner, attr, raw))

        def spanned(name):
            def make(func):
                def wrapper(*args, **kwargs):
                    with get_tracer().span(name):
                        return func(*args, **kwargs)
                return wrapper
            return make

        def lookup(hit_field, compute_span=None):
            def make(func):
                def wrapper(cache, *args, **kwargs):
                    if compute_span:
                        # The callback runs inside the lookup; without its
                        # own span its work would count as cache time.
                        *args, compute = args
                        args.append(spanned(compute_span)(compute))
                    before = getattr(cache.stats, hit_field)
                    with get_tracer().span("cache.lookup"):
                        try:
                            return func(cache, *args, **kwargs)
                        finally:
                            self.lookups += 1
                            self.memory_hits += (
                                getattr(cache.stats, hit_field) > before)
                return wrapper
            return make

        def counted_flush(func):
            def wrapper(engine, *args, **kwargs):
                stats = engine.stats
                refreshes, rebuilds = (stats.incremental_refreshes,
                                       stats.rebuilds)
                try:
                    return func(engine, *args, **kwargs)
                finally:
                    self.refreshes += stats.incremental_refreshes - refreshes
                    self.rebuilds += stats.rebuilds - rebuilds
            return wrapper

        for owner, attr, make in _entry_points(spanned, lookup,
                                               counted_flush):
            patch(owner, attr, make)
        return restore

    # --- reading ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": self.spans, "wall_s": self.wall_s,
                "counters": self.counters, "lookups": self.lookups,
                "memory_hits": self.memory_hits,
                "refreshes": self.refreshes, "rebuilds": self.rebuilds}

    def merge(self, data: dict) -> None:
        """Add a :meth:`to_dict` from another process."""
        for name, (self_s, dur_s, count) in data["spans"].items():
            entry = self.spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += dur_s
            entry[2] += count
        self.wall_s += data["wall_s"]
        for name in COUNTERS:
            self.counters[name] += data["counters"][name]
        for name in ("lookups", "memory_hits", "refreshes", "rebuilds"):
            setattr(self, name, getattr(self, name) + data[name])

    def metrics(self, trace_overhead_frac: float) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric over the traced stretches."""
        values = dict.fromkeys(PER_LAYER, 0.0)
        for name, (self_s, dur_s, _) in self.spans.items():
            values[metric_for(name)] += self_s
            if name.startswith("experiments."):
                driver = name[len("experiments."):]
                key = (f"experiments.{driver}_s" if driver in NAMED_DRIVERS
                       else "experiments.other_s")
                values[key] += dur_s

        def count(name: str) -> int:
            return self.spans.get(name, (0, 0, 0))[2]

        values["algorithms.runs"] = (count("converge")
                                     + count("algorithms.vertex_centric"))
        values["algorithms.edges"] = self.counters["executor_edges_processed"]
        values["scheduler.counts_computed"] = count("scheduler.counts")
        values["machine.configs_priced"] = (
            self.counters["fold_many_configs"] + count("fold"))
        values["graphr.configs_priced"] = (
            self.counters["graphr_fold_configs"] + count("graphr.run"))
        values["cache.lookups"] = self.lookups
        values["cache.memory_hit_ratio"] = (
            self.memory_hits / self.lookups if self.lookups else 0.0)
        values["store.reads"] = count("store.get")
        values["store.writes"] = count("store.put")
        values["store.busy_retries"] = self.counters["store_busy_retries"]
        values["dynamic.updates"] = self.counters["updates_applied"]
        refreshed = self.refreshes + self.rebuilds
        values["dynamic.incremental_ratio"] = (
            self.refreshes / refreshed if refreshed else 0.0)
        values["obs.trace_overhead_frac"] = trace_overhead_frac
        return values


def _entry_points(spanned, lookup, counted_flush):
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    from repro.algorithms import vertex_centric
    from repro.arch.config import Workload
    from repro.arch.graphr import GraphRMachine
    from repro.arch.scheduler import ScheduleCounts
    from repro.dynamic.stream import StreamEngine
    from repro.experiments import fig20, temporal
    from repro.graph.datasets import DatasetSpec
    from repro.graph.partition import IntervalBlockPartition
    from repro.perf.cache import RunCache
    from repro.perf.store import SQLiteStore

    return [
        (Workload, "from_dataset", spanned("graph.build")),
        (DatasetSpec, "generate", spanned("graph.build")),
        (IntervalBlockPartition, "build", spanned("graph.partition")),
        (vertex_centric, "run_vertex_centric",
         spanned("algorithms.vertex_centric")),
        (RunCache, "get_or_run", lookup("memory_hits")),
        (RunCache, "get_or_run_vertex_centric", lookup("memory_hits")),
        (RunCache, "get_or_scalar", lookup("memory_hits", "graph.stats")),
        (RunCache, "get_or_counts", lookup("counts_memory_hits")),
        (SQLiteStore, "get", spanned("store.get")),
        (SQLiteStore, "put", spanned("store.put")),
        (ScheduleCounts, "compute", spanned("scheduler.counts")),
        (GraphRMachine, "run", spanned("graphr.run")),
        (StreamEngine, "ingest", spanned("dynamic.ingest")),
        (StreamEngine, "query", spanned("dynamic.query")),
        (StreamEngine, "snapshot", spanned("dynamic.snapshot")),
        (StreamEngine, "flush", counted_flush),
        # These drivers imported the dynamic-layer functions by name, so
        # the functions are wrapped where the drivers look them up.
        (fig20, "compare_dynamic_throughput", spanned("dynamic.store")),
        (temporal, "generate_update_log", spanned("dynamic.log")),
        (temporal, "measure_stream", spanned("dynamic.measure")),
    ]
