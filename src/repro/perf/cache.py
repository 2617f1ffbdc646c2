"""Persistent, content-addressed cache for converged algorithm runs.

The evaluation replays the same (graph, algorithm) convergence runs
against dozens of machine configurations, experiments and processes.
The run itself is configuration-independent, so it is computed once and
cached at two levels:

* a bounded in-memory LRU (object identity preserved — two lookups in
  one process return the *same* :class:`AlgorithmRun`), and
* a crash-safe SQLite store (:mod:`repro.perf.store`) keyed on
  ``(Graph.fingerprint(), algorithm signature, code-version salt)``, so
  the CLI, the benchmarks, sweeps and ``run_all`` skip re-convergence
  across processes.

The disk level is one WAL-mode ``store.sqlite`` per cache directory:
entries are checksummed payloads (npz bytes for runs, JSON for scalars
and schedule counts) with provenance columns, verified on every read —
a corrupt entry is quarantined and recomputed, never served.  The
store is the only disk level: files of the pre-store file-per-entry
layout are ignored.  A miss computes, stores and remembers; concurrent
misses on one key each write the same content-addressed entry.  The
durability model is documented in docs/robustness.md.

The key embeds :data:`CACHE_SALT`; bump it whenever an executor change
alters results, which invalidates every stale entry at once.  The
directory defaults to ``$REPRO_CACHE_DIR``, falling back to
``~/.cache/hyve-repro`` (honouring ``$XDG_CACHE_HOME``); a repo-local
``.repro_cache/`` is one ``REPRO_CACHE_DIR=.repro_cache`` away.
``$REPRO_CACHE_MAX_BYTES`` bounds the store size (LRU eviction).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sqlite3
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_vectorized
from ..errors import StoreError
from ..graph.graph import Graph
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .store import SQLiteStore, VerifyReport

#: Errors that mean "the disk level misbehaved"; every disk operation
#: degrades to compute-and-carry-on when one of these surfaces.
_STORE_ERRORS = (OSError, sqlite3.Error, StoreError)


def _observe_lookup(hit: bool) -> None:
    """Mirror a cache lookup into the process metrics registry."""
    metrics = obs_metrics.get_metrics()
    name = obs_metrics.CACHE_HITS if hit else obs_metrics.CACHE_MISSES
    metrics.counter(name).add(1)


def _observe_counts_lookup(hit: bool) -> None:
    """Mirror a schedule-counts lookup into the metrics registry."""
    metrics = obs_metrics.get_metrics()
    name = (obs_metrics.COUNTS_CACHE_HITS if hit
            else obs_metrics.COUNTS_CACHE_MISSES)
    metrics.counter(name).add(1)


#: Code-version salt baked into every cache key.  Bump when the
#: executor or an algorithm changes in a result-affecting way.
CACHE_SALT = "hyve-run-v1"

#: Default bound on in-memory entries.
DEFAULT_MAX_ENTRIES = 256


def default_cache_dir() -> Path:
    """Resolve the on-disk store location.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/hyve-repro``
    or ``~/.cache/hyve-repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "hyve-repro"


def default_max_bytes() -> int | None:
    """Size budget from ``$REPRO_CACHE_MAX_BYTES`` (unset: unbounded)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError as exc:
        raise StoreError(
            f"REPRO_CACHE_MAX_BYTES must be an integer byte count: {env!r}"
        ) from exc
    return value if value > 0 else None


@dataclass
class CacheStats:
    """Hit/miss/byte counters for one :class:`RunCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    errors: int = 0  # unreadable/corrupt disk entries (recomputed)
    # Schedule-counts entries (the "simulate once, price many" memo).
    counts_memory_hits: int = 0
    counts_disk_hits: int = 0
    counts_misses: int = 0
    counts_stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def counts_hits(self) -> int:
        return self.counts_memory_hits + self.counts_disk_hits

    @property
    def counts_lookups(self) -> int:
        return self.counts_hits + self.counts_misses

    @property
    def counts_hit_rate(self) -> float:
        """Fraction of counts lookups served from the memo (0 when no
        lookups happened).  Tuner throughput is dominated by this ratio
        — a cold counts cache re-expands Equations (3)-(8) per key."""
        lookups = self.counts_lookups
        return self.counts_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "errors": self.errors,
            "counts_memory_hits": self.counts_memory_hits,
            "counts_disk_hits": self.counts_disk_hits,
            "counts_misses": self.counts_misses,
            "counts_stores": self.counts_stores,
        }

    def summary(self) -> str:
        """One line for ``--verbose`` CLI output and reports."""
        return (
            f"run cache: {self.hits} hit(s) "
            f"({self.memory_hits} memory / {self.disk_hits} disk), "
            f"{self.misses} miss(es), "
            f"{self.bytes_read} B read, {self.bytes_written} B written"
        )

    def counts_summary(self) -> str:
        """One line for the schedule-counts memo (CLI ``--verbose``)."""
        rate = (
            f"{self.counts_hit_rate:.1%} hit rate"
            if self.counts_lookups else "no lookups"
        )
        return (
            f"counts cache: {self.counts_hits} hit(s) "
            f"({self.counts_memory_hits} memory / "
            f"{self.counts_disk_hits} disk), "
            f"{self.counts_misses} miss(es), {rate}"
        )


class RunCache:
    """Two-level (memory LRU + SQLite store) cache of :class:`AlgorithmRun`.

    Args:
        directory: on-disk store location; ``None`` resolves via
            :func:`default_cache_dir`, ``False``-y string disables the
            disk level entirely (memory-only cache).
        max_entries: in-memory LRU bound.
        salt: code-version salt mixed into every key.
        max_bytes: disk-store size budget (LRU eviction); ``None``
            reads ``$REPRO_CACHE_MAX_BYTES`` (unset: unbounded).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        salt: str = CACHE_SALT,
        max_bytes: int | None = None,
    ) -> None:
        if directory is None:
            self.directory: Path | None = default_cache_dir()
        elif str(directory) == "":
            self.directory = None
        else:
            self.directory = Path(directory).expanduser()
        self.max_entries = max(int(max_entries), 1)
        self.salt = salt
        self.max_bytes = (max_bytes if max_bytes is not None
                          else default_max_bytes())
        self.stats = CacheStats()
        self._memory: OrderedDict[str, AlgorithmRun] = OrderedDict()
        self._store_obj: SQLiteStore | None = None
        self._store_failed = False

    # --- disk level plumbing ---------------------------------------------

    def _disk(self) -> SQLiteStore | None:
        """The SQLite store, opened lazily; a failed open degrades the
        cache to memory-only for this instance's lifetime."""
        if self.directory is None or self._store_failed:
            return None
        if self._store_obj is None:
            try:
                self._store_obj = SQLiteStore(
                    self.directory, max_bytes=self.max_bytes,
                    salt=self.salt,
                )
            except _STORE_ERRORS:
                self._store_failed = True
                self.stats.errors += 1
                return None
        return self._store_obj

    def _disk_get(self, key: str) -> bytes | None:
        """Checksum-verified store lookup (``None`` on a miss, a
        quarantined entry or a misbehaving disk)."""
        store = self._disk()
        if store is None:
            return None
        try:
            return store.get(key)
        except _STORE_ERRORS:
            self.stats.errors += 1
            return None

    def _disk_get_many(self, keys: list[str]) -> dict[str, bytes]:
        """:meth:`_disk_get` for many keys in one store round-trip; a
        misbehaving disk counts one error per key, as per-key reads
        would."""
        store = self._disk()
        if store is None:
            return {}
        try:
            return store.get_many(keys)
        except _STORE_ERRORS:
            self.stats.errors += len(keys)
            return {}

    def _disk_put(self, key: str, payload: bytes, kind: str) -> bool:
        store = self._disk()
        if store is None:
            return False
        try:
            store.put(key, payload, kind=kind)
            return True
        except _STORE_ERRORS:
            # A read-only or full filesystem degrades to memory-only.
            self.stats.errors += 1
            return False

    # --- keys ------------------------------------------------------------

    def key(
        self,
        algorithm: EdgeCentricAlgorithm,
        graph: Graph,
        kind: str = "edge",
    ) -> str:
        """Content-addressed key: graph digest + algorithm signature + salt.

        ``kind`` separates execution models sharing one (graph,
        algorithm) pair — the edge-centric run and the vertex-centric
        run cache under distinct keys.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(graph.fingerprint().encode())
        h.update(b"|")
        h.update(algorithm.signature().encode())
        h.update(b"|")
        h.update(self.salt.encode())
        h.update(b"|")
        h.update(kind.encode())
        return h.hexdigest()

    # --- main entry ------------------------------------------------------

    def get_or_run(
        self, algorithm: EdgeCentricAlgorithm, graph: Graph
    ) -> AlgorithmRun:
        """Return the cached run, loading or computing it on demand."""
        key = self.key(algorithm, graph)
        run = self._memory.get(key)
        if run is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            _observe_lookup(hit=True)
            return run
        loaded = self._load(key)
        if loaded is not None:
            run, _ = loaded
            self.stats.disk_hits += 1
            _observe_lookup(hit=True)
        else:
            self.stats.misses += 1
            _observe_lookup(hit=False)
            run = run_vectorized(algorithm, graph)
            self._store(key, run)
        self._remember(key, run)
        return run

    def seed_run(
        self, algorithm: EdgeCentricAlgorithm, graph: Graph, run: AlgorithmRun
    ) -> AlgorithmRun:
        """Install a run produced by another executor under the standard key.

        The out-of-core path (:func:`repro.graph.shards.run_sharded`)
        converges paper-scale graphs by streaming shards; seeding its
        result here lets every downstream engine price the workload
        through the normal :meth:`get_or_run` without an in-memory
        convergence pass.  An existing entry wins — keys are
        content-addressed, so whatever is already cached is equivalent
        — mirroring :meth:`get_or_scalar`.
        """
        key = self.key(algorithm, graph)
        existing = self._memory.get(key)
        if existing is not None:
            self._memory.move_to_end(key)
            return existing
        loaded = self._load(key)
        if loaded is not None:
            run = loaded[0]
        else:
            self._store(key, run)
        self._remember(key, run)
        return run

    def get_or_run_vertex_centric(
        self, algorithm: EdgeCentricAlgorithm, graph: Graph
    ):
        """Like :meth:`get_or_run` for the vertex-centric executor.

        Returns a :class:`repro.algorithms.vertex_centric
        .VertexCentricRun`; the two traffic counters ride along in the
        entry's JSON metadata.
        """
        from ..algorithms.vertex_centric import (VertexCentricRun,
                                                 run_vertex_centric)

        key = self.key(algorithm, graph, kind="vertex")
        vc = self._memory.get(key)
        if vc is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            _observe_lookup(hit=True)
            return vc
        loaded = self._load(key)
        if loaded is not None:
            run, meta = loaded
            try:
                vc = VertexCentricRun(
                    run=run,
                    edges_examined=int(meta["edges_examined"]),
                    vertices_scanned=int(meta["vertices_scanned"]),
                )
                self.stats.disk_hits += 1
                _observe_lookup(hit=True)
            except KeyError:
                self.stats.errors += 1
                vc = None
        if vc is None:
            self.stats.misses += 1
            _observe_lookup(hit=False)
            vc = run_vertex_centric(algorithm, graph)
            self._store(key, vc.run, extra={
                "edges_examined": vc.edges_examined,
                "vertices_scanned": vc.vertices_scanned,
            })
        self._remember(key, vc)
        return vc

    def get_or_scalar(self, name: str, graph: Graph, compute) -> float:
        """Cached scalar graph statistic (imbalance, block counts, ...).

        Keyed on ``(graph content, name, salt)`` and stored as a tiny
        JSON payload, so statistics that cost an O(E) pass are computed
        by one process and read back by every other (shard workers,
        ``--jobs`` experiment runners, fresh CLI invocations).
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(graph.fingerprint().encode())
        h.update(b"|")
        h.update(name.encode())
        h.update(b"|")
        h.update(self.salt.encode())
        key = "scalar-" + h.hexdigest()
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            _observe_lookup(hit=True)
            return hit
        payload = self._disk_get(key)
        if payload is not None:
            try:
                value = float(json.loads(payload.decode("utf-8"))["value"])
                self.stats.disk_hits += 1
                self.stats.bytes_read += len(payload)
                _observe_lookup(hit=True)
                self._remember(key, value)
                return value
            except (ValueError, KeyError, UnicodeDecodeError,
                    json.JSONDecodeError):
                self.stats.errors += 1
        self.stats.misses += 1
        _observe_lookup(hit=False)
        value = float(compute())
        blob = json.dumps(
            {"name": name, "value": value, "salt": self.salt}
        ).encode("utf-8")
        if self._disk_put(key, blob, kind="scalar"):
            self.stats.stores += 1
            self.stats.bytes_written += len(blob)
        self._remember(key, value)
        return value

    def get_or_counts(self, counts_key: str, compute, parse):
        """One cached schedule-counts record: :meth:`get_or_counts_many`
        of one key, with a ``compute()`` that takes no argument."""
        return self.get_or_counts_many(
            [counts_key], lambda _: compute(), parse)[counts_key]

    def get_or_counts_many(self, counts_keys: Iterable[str], compute,
                           parse) -> dict:
        """Cached schedule-counts records (the Equations (3)-(8)
        expansion), keyed by counts key.

        A ``counts_key`` is the *content* key assembled by
        :func:`repro.perf.batch.counts_cache_key` — graph fingerprint,
        algorithm signature, partition count P, PU count N, the
        data-sharing/on-chip/placement flags and the workload scale.
        ``compute(counts_key)`` returns a JSON-ready dict of the counts
        fields; JSON round-trips every int and float exactly, so a disk
        hit prices bit-identically to a fresh computation.  ``parse``
        turns a record into the value returned and remembered (a
        :class:`~repro.arch.scheduler.ScheduleCounts`, or GraphR's
        counts); a stored record it rejects with ``KeyError``,
        ``ValueError`` or ``TypeError`` is counted as an error,
        recomputed and overwritten.

        Memory hits are served first; every other key comes from one
        batched store read (:meth:`SQLiteStore.get_many`), and the keys
        still missing are computed and stored one by one.  Sweeps over
        device knobs (density, BPG timeout, cell bits, SRAM technology)
        share one entry per counts key, which is the whole point:
        simulate once, price many.
        """
        found = {}
        pending: dict[str, str] = {}  # store key -> counts key
        for counts_key in dict.fromkeys(counts_keys):
            h = hashlib.blake2b(digest_size=16)
            h.update(counts_key.encode())
            h.update(b"|")
            h.update(self.salt.encode())
            key = "counts-" + h.hexdigest()
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.stats.counts_memory_hits += 1
                _observe_counts_lookup(hit=True)
                found[counts_key] = hit
            else:
                pending[key] = counts_key
        payloads = self._disk_get_many(list(pending)) if pending else {}
        for key, counts_key in pending.items():
            payload = payloads.get(key)
            if payload is not None:
                try:
                    value = parse(
                        json.loads(payload.decode("utf-8"))["counts"])
                except (ValueError, KeyError, TypeError,
                        UnicodeDecodeError):
                    self.stats.errors += 1
                else:
                    self.stats.counts_disk_hits += 1
                    self.stats.bytes_read += len(payload)
                    _observe_counts_lookup(hit=True)
                    self._remember(key, value)
                    found[counts_key] = value
                    continue
            self.stats.counts_misses += 1
            _observe_counts_lookup(hit=False)
            record = compute(counts_key)
            blob = json.dumps(
                {"key": counts_key, "salt": self.salt, "counts": record}
            ).encode("utf-8")
            if self._disk_put(key, blob, kind="counts"):
                self.stats.counts_stores += 1
                self.stats.bytes_written += len(blob)
            value = found[counts_key] = parse(record)
            self._remember(key, value)
        return found

    def _remember(self, key: str, run) -> None:
        self._memory[key] = run
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    # --- disk level ------------------------------------------------------

    def _load(self, key: str) -> tuple[AlgorithmRun, dict] | None:
        payload = self._disk_get(key)
        if payload is None:
            return None
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta"]))
                values = npz["values"]
                active = npz["active_sources"]
            self.stats.bytes_read += len(payload)
            return AlgorithmRun(
                algorithm=meta["algorithm"],
                graph_name=meta["graph_name"],
                values=values,
                iterations=int(meta["iterations"]),
                num_vertices=int(meta["num_vertices"]),
                edges_per_iteration=int(meta["edges_per_iteration"]),
                vertex_bits=int(meta["vertex_bits"]),
                edge_bits=int(meta["edge_bits"]),
                active_sources=tuple(int(a) for a in active),
            ), meta
        except (OSError, KeyError, ValueError, json.JSONDecodeError,
                zipfile.BadZipFile):
            # A corrupt/truncated entry is treated as a miss and will be
            # overwritten by the recomputed run.
            self.stats.errors += 1
            return None

    def _store(
        self, key: str, run: AlgorithmRun, extra: dict | None = None
    ) -> None:
        record = {
            "algorithm": run.algorithm,
            "graph_name": run.graph_name,
            "iterations": run.iterations,
            "num_vertices": run.num_vertices,
            "edges_per_iteration": run.edges_per_iteration,
            "vertex_bits": run.vertex_bits,
            "edge_bits": run.edge_bits,
            "salt": self.salt,
        }
        if extra:
            record.update(extra)
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.asarray(json.dumps(record)),
            values=run.values,
            active_sources=np.asarray(run.active_sources, dtype=np.int64),
        )
        payload = buffer.getvalue()
        if self._disk_put(key, payload, kind="run"):
            self.stats.stores += 1
            self.stats.bytes_written += len(payload)

    # --- maintenance ------------------------------------------------------

    def clear(self, disk: bool = True) -> int:
        """Drop cached entries; returns the number of entries removed."""
        self._memory.clear()
        removed = 0
        if not disk or self.directory is None:
            return removed
        store = self._disk()
        if store is not None:
            try:
                removed += store.clear()
            except _STORE_ERRORS:
                self.stats.errors += 1
        return removed

    def verify_store(self) -> VerifyReport:
        """Integrity-scan the store (``repro cache verify``)."""
        store = self._disk()
        if store is None:
            raise StoreError(
                "cannot verify: the disk store is disabled or failed "
                "to open"
            )
        with get_tracer().span("store.verify"):
            return store.verify()

    def vacuum(self) -> dict:
        """Compact the store (``repro cache vacuum``)."""
        store = self._disk()
        if store is None:
            raise StoreError(
                "cannot vacuum: the disk store is disabled or failed "
                "to open"
            )
        with get_tracer().span("store.vacuum"):
            return store.vacuum()

    def info(self) -> dict:
        """Snapshot of the cache state (for ``repro cache info``)."""
        store = self._disk()
        entries = 0
        disk_bytes = 0
        quarantined = 0
        if store is not None:
            try:
                entries = store.entry_count()
                disk_bytes = store.total_bytes()
                quarantined = store.quarantine_count()
            except _STORE_ERRORS:
                self.stats.errors += 1
        return {
            "directory": str(self.directory) if self.directory else None,
            "backend": "sqlite" if store is not None else None,
            "salt": self.salt,
            "disk_entries": entries,
            "disk_bytes": disk_bytes,
            "quarantined": quarantined,
            "max_bytes": self.max_bytes,
            "memory_entries": len(self._memory),
            "memory_limit": self.max_entries,
            "stats": self.stats.to_dict(),
        }


# --- process-wide default ----------------------------------------------------

_DEFAULT_CACHE: RunCache | None = None


def get_run_cache() -> RunCache:
    """The process-wide cache used by ``run_cached`` (created lazily)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = RunCache()
    return _DEFAULT_CACHE


def set_run_cache(cache: RunCache | None) -> None:
    """Replace the process-wide cache (``None`` resets to lazy default)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = cache


@contextlib.contextmanager
def temporary_run_cache(directory: str | Path | None = ""):
    """Swap in a scratch process-wide cache for the duration.

    The default ``directory=""`` gives a memory-only cache, which is
    what the differential-conformance harness wants: every evaluation
    starts cold (nothing leaks in from a developer's warm disk cache)
    and leaves nothing behind.  Pass a path for a disk-backed scratch
    cache.  The previous cache — including the not-yet-created lazy
    default — is restored on exit.
    """
    previous = _DEFAULT_CACHE
    cache = RunCache(directory=directory)
    set_run_cache(cache)
    try:
        yield cache
    finally:
        set_run_cache(previous)
