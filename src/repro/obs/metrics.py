"""Lightweight metrics registry: counters, gauges, histograms.

Metrics answer "how much work happened" where spans answer "when".
They are always on — every instrument is a couple of attribute
operations under one registry lock, incremented at coarse points
(per iteration, per sweep point, per cache lookup), never per edge —
and are read back either programmatically (``snapshot()``), from the
CLI (``repro metrics``), or merged across worker processes
(``merge()``).

The canonical instrument names the instrumentation hooks use are the
module constants below; docs/observability.md is the registry of
record for their meanings.
"""

from __future__ import annotations

import threading

from ..errors import ReproError

# --- canonical instrument names ----------------------------------------------

#: Modelled edges streamed through the edge memory, at reported scale.
EDGES_STREAMED = "edges_streamed"
#: Edges actually processed by the executors (synthetic scale).
EXECUTOR_EDGES = "executor_edges_processed"
#: Edges applied through the vectorized vertex-centric gather/scatter
#: path (memoised CSR + full-frontier fast path) instead of per-edge
#: Python dispatch.
EXECUTOR_VECTORIZED_EDGES = "executor_vectorized_edges"
#: Shard slices streamed by the out-of-core executor (one per shard per
#: iteration; see :func:`repro.graph.shards.run_sharded`).
SHARDS_STREAMED = "shards_streamed"
#: Per-shard ScheduleCounts partials merged exactly into whole-graph
#: counts (:func:`repro.graph.shards.sharded_scheduled_counts`).
SHARD_COUNTS_MERGED = "shard_counts_merged"
#: GraphR configurations priced through the counts-keyed fold path
#: (one traffic expansion reused across the fig21 grid).
GRAPHR_FOLD_CONFIGS = "graphr_fold_configs"
#: Bank-power-gating wake transitions planned by the BPG controller.
BPG_BANK_WAKES = "bpg_bank_wakes"
#: Router re-routing (rotation) events under data sharing.
ROUTER_ROTATIONS = "router_rotations"
#: Run-cache hits (memory + disk) observed by this process.
CACHE_HITS = "cache_hits"
#: Run-cache misses (fresh convergences) observed by this process.
CACHE_MISSES = "cache_misses"
#: Schedule-counts cache hits (memory + disk): sweeps over device knobs
#: reusing one Equations (3)-(8) expansion instead of recomputing it.
COUNTS_CACHE_HITS = "counts_cache_hits"
#: Schedule-counts cache misses (fresh ScheduleCounts computations).
COUNTS_CACHE_MISSES = "counts_cache_misses"
#: Configurations priced by the vectorized batch fold (fold_many).
FOLD_MANY_CONFIGS = "fold_many_configs"
#: Configurations priced by the design-space autotuner (all backends).
TUNE_CONFIGS_PRICED = "tune_configs_priced"
#: Size of the most recent Pareto frontier the autotuner extracted.
TUNE_FRONTIER_SIZE = "tune_frontier_size"
#: Current number of entries in the scheduler's imbalance memo.
IMBALANCE_CACHE_SIZE = "imbalance_cache_size"
#: Algorithm convergence sweeps executed (iterations histogram source).
CONVERGENCE_ITERATIONS = "convergence_iterations"
#: Result-store entries that failed their checksum on a read or scan
#: and were dropped (then recomputed and overwritten by the caller).
STORE_CHECKSUM_MISMATCHES = "store_checksum_mismatches"
#: Entries evicted from the result store to stay under the size budget.
STORE_EVICTIONS = "store_evictions"
#: SQLite busy/locked retries absorbed by the jittered-backoff loop.
STORE_BUSY_RETRIES = "store_busy_retries"
#: Streaming updates applied to a stream engine's edge state
#: (add/del events accepted by :meth:`StreamEngine.ingest`).
UPDATES_APPLIED = "updates_applied"
#: Temporal snapshots materialised as concrete :class:`Graph` objects
#: (``TemporalGraph.snapshot_at`` / ``StreamEngine.snapshot``).
SNAPSHOTS_MATERIALIZED = "snapshots_materialized"
#: Stream-engine value refreshes forced by the bounded-staleness
#: contract (pending updates reached K, or a query arrived).
STALENESS_FLUSHES = "staleness_flushes"
#: Differential-conformance oracle evaluations executed (repro verify).
VERIFY_ORACLE_RUNS = "verify_oracle_runs"
#: Oracle evaluations that found a cross-path mismatch.
VERIFY_FAILURES = "verify_failures"
#: Candidate evaluations spent shrinking failing verify cases.
VERIFY_SHRINK_EVALS = "verify_shrink_evals"


class MetricsError(ReproError):
    """Invalid metrics usage (type clash on a name, bad value)."""


class Counter:
    """Monotonically increasing sum (float-valued: edge counts scale)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def add(self, amount: float = 1.0, times: int = 1) -> None:
        """Add ``amount``, ``times`` times over: bit-identical to that
        many separate calls, under one lock acquisition."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            value = self.value
            for _ in range(times):
                value += amount
            self.value = value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary (count/sum/min/max) of observed values."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Create-on-first-use registry of named instruments.

    Thread-safe: instrument creation and every update share one
    registry lock, so updates from concurrent threads never lose
    increments.  Worker *processes* each own a registry; the parent
    folds their snapshots back in with :meth:`merge`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, self._lock)
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, cls):
            raise MetricsError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__.lower()}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # --- reading ---------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time dict view, sorted by name (JSON-ready)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.to_dict() for name, inst in items}

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        Counters and histogram summaries add; gauges take the incoming
        value (last writer wins, matching gauge semantics).
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).add(float(data["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(data["value"]))
            elif kind == "histogram":
                hist = self.histogram(name)
                with self._lock:
                    count = int(data["count"])
                    if count:
                        hist.count += count
                        hist.total += float(data["sum"])
                        hist.min = min(hist.min, float(data["min"]))
                        hist.max = max(hist.max, float(data["max"]))
            else:
                raise MetricsError(
                    f"cannot merge metric {name!r} of type {kind!r}"
                )

    def reset(self) -> None:
        """Drop every instrument (tests; the CLI resets per invocation)."""
        with self._lock:
            self._instruments.clear()

    def format(self) -> str:
        """Aligned text rendering for ``repro metrics``."""
        lines = []
        for name, data in self.snapshot().items():
            if data["type"] == "histogram":
                value = (f"count={data['count']} sum={data['sum']:g} "
                         f"min={data['min']} max={data['max']}")
            else:
                value = f"{data['value']:g}"
            lines.append(f"{name:28s} {data['type']:9s} {value}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


# --- process-wide default ----------------------------------------------------

_REGISTRY: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry:
    """The process-wide registry the instrumentation hooks update."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def set_metrics(registry: MetricsRegistry | None) -> None:
    """Replace the process-wide registry (``None`` resets lazily)."""
    global _REGISTRY
    _REGISTRY = registry
