"""Performance engine: persistent run caching and batched pricing.

This package holds the pieces that make the reproduction *fast* without
changing any reproduced number:

* :mod:`repro.perf.cache` — a bounded in-memory LRU backed by a
  crash-safe, content-addressed disk store for converged
  :class:`~repro.algorithms.runner.AlgorithmRun` objects, so fresh
  processes (the CLI, benchmarks, pool workers) skip re-convergence.
* :mod:`repro.perf.store` — the disk level itself: one WAL-mode SQLite
  database per cache directory with checksummed entries, provenance
  columns and LRU size budgeting; an entry that fails its checksum is
  dropped and recomputed.
* :mod:`repro.perf.batch` — grid pricing: one schedule-counts expansion
  per counts key, every config folded in one vectorized pass.

Wall-clock benchmarks live outside the package, in ``bench/run.py``.

The disk store's location is controlled by ``$REPRO_CACHE_DIR`` (then
``$XDG_CACHE_HOME/hyve-repro``, then ``~/.cache/hyve-repro``) and its
size budget by ``$REPRO_CACHE_MAX_BYTES``; the CLI surfaces it via
``repro cache info|clear|verify|vacuum`` and warms it under
``repro experiment --jobs N``.  Cache lookups are observable: every
hit/miss increments the ``cache_hits``/``cache_misses`` counters of
:mod:`repro.obs.metrics`.  Layout and invalidation rules are documented
in docs/performance.md; the durability model in docs/robustness.md; the
observability story in docs/observability.md.
"""

from .cache import (
    CacheStats,
    RunCache,
    default_cache_dir,
    get_run_cache,
    set_run_cache,
    temporary_run_cache,
)
from .store import (
    SQLiteStore,
    VerifyReport,
    payload_checksum,
)

__all__ = [
    "CacheStats",
    "RunCache",
    "SQLiteStore",
    "VerifyReport",
    "default_cache_dir",
    "get_run_cache",
    "payload_checksum",
    "set_run_cache",
    "temporary_run_cache",
]
