"""Observability: span tracing, metrics, and phase attribution.

This package is the instrumentation substrate of the reproduction —
the machinery that shows *where* a run spends its time and energy while
it executes, instead of only the end-of-run
:class:`~repro.arch.report.EnergyReport` totals:

* :mod:`repro.obs.trace` — a span-based JSONL tracer (nested spans with
  monotonic timestamps and tags; near-zero overhead when disabled).
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  (edges streamed, bank wakes, router rotations, cache hits...).
* :mod:`repro.obs.attribution` — the phase taxonomy and the fold that
  turns a trace into a per-phase time/energy table
  (``tools/trace_report.py``).

Entry points: ``repro trace <experiment>``, ``repro metrics``, the
``--trace-out PATH`` flag on ``run``/``compare``/``experiment``, and
the library API below.  The full instrumentation story is documented
in docs/observability.md.
"""

from .metrics import (
    BPG_BANK_WAKES,
    CACHE_HITS,
    CACHE_MISSES,
    CONVERGENCE_ITERATIONS,
    EDGES_STREAMED,
    EXECUTOR_EDGES,
    ROUTER_ROTATIONS,
    VERIFY_FAILURES,
    VERIFY_ORACLE_RUNS,
    VERIFY_SHRINK_EVALS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from .trace import (
    NULL_SPAN,
    TRACE_SCHEMA,
    TraceError,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    validate_record,
)

# Attribution imports :mod:`repro.arch.report`, whose package is itself
# instrumented with this one — loading it eagerly here would close an
# import cycle.  Its names resolve lazily on first attribute access.
_ATTRIBUTION_NAMES = frozenset({
    "COMPONENT_PHASE", "PHASES", "Attribution", "AttributionError",
    "emit_report", "fold_records", "format_attribution",
})


def __getattr__(name: str):
    if name in _ATTRIBUTION_NAMES:
        from . import attribution

        return getattr(attribution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Attribution",
    "AttributionError",
    "BPG_BANK_WAKES",
    "CACHE_HITS",
    "CACHE_MISSES",
    "COMPONENT_PHASE",
    "CONVERGENCE_ITERATIONS",
    "Counter",
    "EDGES_STREAMED",
    "EXECUTOR_EDGES",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "PHASES",
    "ROUTER_ROTATIONS",
    "TRACE_SCHEMA",
    "TraceError",
    "Tracer",
    "VERIFY_FAILURES",
    "VERIFY_ORACLE_RUNS",
    "VERIFY_SHRINK_EVALS",
    "emit_report",
    "fold_records",
    "format_attribution",
    "get_metrics",
    "get_tracer",
    "read_trace",
    "set_metrics",
    "set_tracer",
    "validate_record",
]
