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
entries are checksummed payloads (npz bytes for runs and datasets,
JSON for scalars and schedule counts) with provenance columns,
verified on every read — an entry that fails its checksum is dropped,
recomputed and overwritten, never served.  The store is the only disk
level: files of the pre-store file-per-entry layout are ignored.  Every
record kind (runs, vertex-centric runs, scalars, schedule counts,
evaluation datasets) goes through one lookup: memory hits first, one batched
store read for the rest, and a miss computes, stores and remembers.
A checksum-clean entry that does not decode into its kind is counted
as an error, recomputed and overwritten.  Concurrent misses on one
key each write the same content-addressed entry.  The durability
model is documented in docs/robustness.md.

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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_vectorized
from ..errors import GraphError, StoreError
from ..graph.graph import Graph
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .store import SQLiteStore, VerifyReport

#: Errors that mean "the disk level misbehaved"; every disk operation
#: degrades to compute-and-carry-on when one of these surfaces.
_STORE_ERRORS = (OSError, sqlite3.Error, StoreError)

#: Errors that mean "a checksum-clean payload is not a record of its
#: kind" (truncated npz, malformed JSON, a missing or mistyped field);
#: the entry is recomputed and overwritten.
_DECODE_ERRORS = (KeyError, ValueError, TypeError, OSError,
                  zipfile.BadZipFile, GraphError)

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
        return asdict(self)

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
        self._memory: OrderedDict[str, object] = OrderedDict()
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

    def _disk_get_many(self, keys: list[str]) -> dict[str, bytes]:
        """Checksum-verified store read of many keys in one round-trip
        (a key is absent on a miss or a checksum mismatch); a
        misbehaving disk counts one error per key."""
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
        return _digest(graph.fingerprint(), algorithm.signature(),
                       self.salt, kind)

    # --- the one lookup --------------------------------------------------

    def _lookup(self, keys: dict, kind: str, decode, compute) -> dict:
        """Resolve store keys to values; every ``get_or_*`` goes here.

        ``keys`` maps each store key to the name its value is returned
        under and that ``compute(name)`` receives.  Memory hits are
        served first, every other key comes from one batched store read
        (:meth:`SQLiteStore.get_many`), and the keys still missing are
        computed and stored one by one: ``compute`` returns the value and
        its payload, stored as a ``kind`` entry.  A checksum-clean
        payload that ``decode`` rejects is counted in ``errors``,
        recomputed and overwritten.  Counts lookups count in the
        ``counts_*`` stats and metrics, every other kind in the
        run-cache ones.
        """
        if kind == "counts":
            prefix = "counts_"
            hit, miss = (obs_metrics.COUNTS_CACHE_HITS,
                         obs_metrics.COUNTS_CACHE_MISSES)
        else:
            prefix = ""
            hit, miss = obs_metrics.CACHE_HITS, obs_metrics.CACHE_MISSES
        stats = self.stats
        metrics = obs_metrics.get_metrics()

        def count(field: str, metric: str | None = None) -> None:
            field = prefix + field
            setattr(stats, field, getattr(stats, field) + 1)
            if metric is not None:
                metrics.counter(metric).add(1)

        found = {}
        pending = {}
        for key, name in keys.items():
            value = self._memory.get(key)
            if value is None:
                pending[key] = name
            else:
                self._memory.move_to_end(key)
                count("memory_hits", hit)
                found[name] = value
        payloads = self._disk_get_many(list(pending)) if pending else {}
        for key, name in pending.items():
            payload = payloads.get(key)
            if payload is not None:
                try:
                    value = decode(payload)
                except _DECODE_ERRORS:
                    stats.errors += 1
                else:
                    count("disk_hits", hit)
                    stats.bytes_read += len(payload)
                    found[name] = self._remember(key, value)
                    continue
            count("misses", miss)
            value, payload = compute(name)
            if self._disk_put(key, payload, kind):
                count("stores")
                stats.bytes_written += len(payload)
            found[name] = self._remember(key, value)
        return found

    def _remember(self, key: str, value):
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
        return value

    # --- main entry ------------------------------------------------------

    def get_or_run(
        self, algorithm: EdgeCentricAlgorithm, graph: Graph
    ) -> AlgorithmRun:
        """Return the cached run, loading or computing it on demand."""
        def compute(_):
            run = run_vectorized(algorithm, graph)
            return run, self._encode_run(run)

        key = self.key(algorithm, graph)
        return self._lookup({key: key}, "run", lambda p: _decode_run(p)[0],
                            compute)[key]

    def seed_run(
        self, algorithm: EdgeCentricAlgorithm, graph: Graph, run: AlgorithmRun
    ) -> AlgorithmRun:
        """Install a run produced by another executor under the standard key.

        The out-of-core path (:func:`repro.graph.shards.run_sharded`)
        converges paper-scale graphs by streaming shards; seeding its
        result here lets every downstream engine price the workload
        through the normal :meth:`get_or_run` without an in-memory
        convergence pass.  This is a :meth:`get_or_run` lookup whose
        computation is ``run`` itself, so it counts as one: an existing
        entry wins (a hit) — keys are content-addressed, so whatever is
        already cached is equivalent — and otherwise ``run`` is stored
        (a miss and a store), mirroring :meth:`get_or_scalar`.
        """
        key = self.key(algorithm, graph)
        return self._lookup({key: key}, "run", lambda p: _decode_run(p)[0],
                            lambda _: (run, self._encode_run(run)))[key]

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

        def decode(payload: bytes) -> VertexCentricRun:
            run, meta = _decode_run(payload)
            return VertexCentricRun(
                run=run,
                edges_examined=int(meta["edges_examined"]),
                vertices_scanned=int(meta["vertices_scanned"]),
            )

        def compute(_):
            vc = run_vertex_centric(algorithm, graph)
            return vc, self._encode_run(
                vc.run, edges_examined=vc.edges_examined,
                vertices_scanned=vc.vertices_scanned)

        key = self.key(algorithm, graph, kind="vertex")
        return self._lookup({key: key}, "run", decode, compute)[key]

    def get_or_scalar(self, name: str, graph: Graph, compute) -> float:
        """Cached scalar graph statistic (imbalance, block counts, ...).

        Keyed on ``(graph content, name, salt)`` and stored as a tiny
        JSON payload, so statistics that cost an O(E) pass are computed
        by one process and read back by every other (shard workers,
        ``--jobs`` experiment runners, fresh CLI invocations).
        """
        key = "scalar-" + _digest(graph.fingerprint(), name, self.salt)

        def compute_entry(_):
            value = float(compute())
            return value, json.dumps(
                {"name": name, "value": value, "salt": self.salt}
            ).encode("utf-8")

        return self._lookup(
            {key: key}, "scalar",
            lambda payload: float(json.loads(payload)["value"]),
            compute_entry)[key]

    def get_or_counts(self, counts_key: str, compute, record_type):
        """One cached schedule-counts record: :meth:`get_or_counts_many`
        of one key, with a ``compute()`` that takes no argument."""
        return self.get_or_counts_many(
            [counts_key], lambda _: compute(), record_type)[counts_key]

    def get_or_counts_many(self, counts_keys: Iterable[str], compute,
                           record_type) -> dict:
        """Cached schedule-counts records (the Equations (3)-(8)
        expansion), keyed by counts key.

        A ``counts_key`` is the *content* key assembled by
        :func:`repro.perf.batch.counts_cache_key` — graph fingerprint,
        algorithm signature, partition count P, PU count N, the
        data-sharing/on-chip/placement flags and the workload scale.
        ``compute(counts_key)`` returns a ``record_type`` instance (a
        :class:`~repro.arch.scheduler.ScheduleCounts`, or GraphR's
        counts), a dataclass whose fields are declared ``int`` or
        ``float``.  The entry stores its fields as JSON, which
        round-trips every int and float exactly, and every returned
        value is rebuilt from those fields with each coerced to its
        declared type, so a disk hit prices bit-identically to a fresh
        computation.

        The keys go through one lookup: memory hits first, every other
        key from one batched store read, the rest computed and stored.
        Sweeps over device knobs (density, BPG timeout, cell bits, SRAM
        technology) share one entry per counts key, which is the whole
        point: simulate once, price many.
        """
        types = [(f.name, int if f.type in (int, "int") else float)
                 for f in fields(record_type)]

        def rebuild(record: dict):
            return record_type(**{name: cast(record[name])
                                  for name, cast in types})

        def compute_entry(counts_key: str):
            record = asdict(compute(counts_key))
            return rebuild(record), json.dumps(
                {"key": counts_key, "salt": self.salt, "counts": record}
            ).encode("utf-8")

        keys = {"counts-" + _digest(counts_key, self.salt): counts_key
                for counts_key in counts_keys}
        return self._lookup(
            keys, "counts",
            lambda payload: rebuild(json.loads(payload)["counts"]),
            compute_entry)

    def get_or_datasets(self, specs: Iterable, compute) -> dict[str, Graph]:
        """Cached evaluation graphs, keyed by dataset tag.

        ``specs`` are :class:`~repro.graph.datasets.DatasetSpec`; each
        record is keyed on :meth:`~repro.graph.datasets.DatasetSpec
        .record_key` (the generator version, its arguments and seed)
        and the salt, and ``compute(tag)`` generates a missing graph.
        The entry is an npz of the edge ids as uint32, with the name,
        vertex count and fingerprint as JSON metadata; a decoded graph
        is int64 like a generated one, and one whose fingerprint
        differs from the stored one is rejected (recomputed and
        overwritten).  The specs go through one
        lookup: memory hits first, every other one from one batched
        store read, the rest generated and stored.
        """
        keys = {"dataset-" + _digest(spec.record_key(), self.salt): spec.key
                for spec in specs}

        def compute_entry(tag: str):
            graph = compute(tag)
            return graph, _encode_graph(graph, self.salt)

        return self._lookup(keys, "dataset", _decode_graph, compute_entry)

    # --- run entries -----------------------------------------------------

    def _encode_run(self, run: AlgorithmRun, **extra) -> bytes:
        """A run entry: an npz of the values and active sources, with the
        scalar fields (and ``extra``) as JSON metadata."""
        record = {
            "algorithm": run.algorithm,
            "graph_name": run.graph_name,
            "iterations": run.iterations,
            "num_vertices": run.num_vertices,
            "edges_per_iteration": run.edges_per_iteration,
            "vertex_bits": run.vertex_bits,
            "edge_bits": run.edge_bits,
            "salt": self.salt,
            **extra,
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.asarray(json.dumps(record)),
            values=run.values,
            active_sources=np.asarray(run.active_sources, dtype=np.int64),
        )
        return buffer.getvalue()

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
        if store is not None:
            try:
                entries = store.entry_count()
                disk_bytes = store.total_bytes()
            except _STORE_ERRORS:
                self.stats.errors += 1
        return {
            "directory": str(self.directory) if self.directory else None,
            "backend": "sqlite" if store is not None else None,
            "salt": self.salt,
            "disk_entries": entries,
            "disk_bytes": disk_bytes,
            "max_bytes": self.max_bytes,
            "memory_entries": len(self._memory),
            "memory_limit": self.max_entries,
            "stats": self.stats.to_dict(),
        }


def _digest(*parts: str) -> str:
    """The 128-bit BLAKE2b hex digest of ``parts`` joined by ``|``."""
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=16).hexdigest()


def _decode_run(payload: bytes) -> tuple[AlgorithmRun, dict]:
    """The run and the JSON metadata of a :meth:`RunCache._encode_run`
    entry."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        meta = json.loads(str(npz["meta"]))
        values = npz["values"]
        active = npz["active_sources"]
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


def _encode_graph(graph: Graph, salt: str) -> bytes:
    """A dataset entry: an npz of the (unweighted) graph's edge ids as
    uint32, half the int64 payload, with the name, vertex count and
    fingerprint as JSON metadata."""
    meta = {"name": graph.name, "num_vertices": graph.num_vertices,
            "fingerprint": graph.fingerprint(), "salt": salt}
    buffer = io.BytesIO()
    np.savez(buffer, meta=np.asarray(json.dumps(meta)),
             src=graph.src.astype(np.uint32),
             dst=graph.dst.astype(np.uint32))
    return buffer.getvalue()


def _decode_graph(payload: bytes) -> Graph:
    """The graph of an :func:`_encode_graph` entry; ``ValueError`` when
    it does not hash to the stored fingerprint, so an id that did not
    fit in 32 bits is never served."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        meta = json.loads(str(npz["meta"]))
        graph = Graph(int(meta["num_vertices"]), npz["src"], npz["dst"],
                      name=meta["name"])
    if graph.fingerprint() != meta["fingerprint"]:
        raise ValueError(f"dataset entry for {graph.name!r} does not "
                         "match its fingerprint")
    return graph


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
