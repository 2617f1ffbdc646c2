"""Crash-safe SQLite result store behind the run cache's disk level.

The file-per-entry npz/JSON layout of PR 2 was best-effort: a torn
write left an undetected half-entry, heavy traffic meant thousands of
small files, and nothing recorded where an entry came from.  This
module replaces that disk level with one SQLite database per cache
directory (``store.sqlite``), designed around four promises:

* **Durability** — the database runs in WAL mode with
  ``synchronous=NORMAL``: a process killed mid-write (SIGKILL, power
  loss) leaves either the old entry or the new one, never a torn row,
  and concurrent readers are never blocked by a writer.
* **Integrity** — every entry stores a BLAKE2b checksum of its
  payload, verified on every read.  A mismatch (bit rot: the one
  damage the WAL commit cannot rule out) is counted, the row is
  deleted and left out of the result, and the caller recomputes and
  overwrites it — the store never serves a bad payload.
* **Provenance** — entries carry ``kind``, ``salt`` (code version),
  optional ``seed``, ``created_at`` and ``last_used_at`` columns, so a
  store can be audited and evicted meaningfully.
* **Bounded size** — an optional byte budget evicts least-recently-used
  entries on write (``$REPRO_CACHE_MAX_BYTES`` from the CLI side).

Concurrency: SQLite's own locking makes concurrent readers/writers
across processes safe; transient ``SQLITE_BUSY`` results are absorbed
by a ``busy_timeout`` plus a jittered exponential-backoff retry loop.
Connections are never shared across a fork — each store reopens its
connection when it notices a new PID, so process-pool workers
inherit a store object but talk to the database through their own
handle.

The store is the cache's only disk level: files of the pre-store
layout are neither read nor adopted.  The durability model and what a
checksum mismatch does are documented in docs/robustness.md.
"""

from __future__ import annotations

import hashlib
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..errors import StoreError
from ..obs import metrics as obs_metrics

#: Database filename inside a cache directory.
STORE_FILENAME = "store.sqlite"

#: Schema version stamped into the database; a store written by a
#: newer incompatible layout is refused rather than misread.
STORE_SCHEMA_VERSION = 1

#: How long SQLite itself waits on a locked database before returning
#: SQLITE_BUSY (milliseconds), the first line of defence.
BUSY_TIMEOUT_MS = 5_000

#: Extra application-level retries after a busy timeout, with jittered
#: exponential backoff (the second line of defence).
BUSY_RETRIES = 5
BUSY_BACKOFF_S = 0.01

#: Keys per ``SELECT … IN (…)`` of a batched read, under SQLite's
#: host-parameter limit (999 before SQLite 3.32).
_READ_CHUNK = 500

_ENTRY_COLUMNS = (
    "key", "kind", "payload", "checksum", "size",
    "salt", "seed", "created_at", "last_used_at",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    name TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload BLOB NOT NULL,
    checksum TEXT NOT NULL,
    size INTEGER NOT NULL,
    salt TEXT NOT NULL,
    seed INTEGER,
    created_at REAL NOT NULL,
    last_used_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_entries_lru ON entries (last_used_at);
-- Older stores kept the payloads that failed their checksum in a
-- table nothing read; opening such a store sheds it.
DROP TABLE IF EXISTS quarantine;
"""


def payload_checksum(payload: bytes) -> str:
    """The integrity checksum stored (and verified) with every entry."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


@dataclass
class VerifyReport:
    """Outcome of one integrity scan (``repro cache verify``)."""

    entries: int = 0
    ok: int = 0
    mismatched: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatched

    def format(self) -> str:
        lines = [f"scanned {self.entries} entr(ies): {self.ok} ok, "
                 f"{len(self.mismatched)} checksum mismatch(es)"]
        lines += [f"  mismatched: {key}" for key in self.mismatched]
        return "\n".join(lines)


class SQLiteStore:
    """One WAL-mode SQLite database of content-addressed payloads.

    Args:
        directory: cache directory; the database lives at
            ``<directory>/store.sqlite`` (created on open).
        max_bytes: size budget; writes evict least-recently-used
            entries until the payload total fits.  ``None``: unbounded.
        salt: code-version tag recorded with every entry.
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int | None = None,
        salt: str = "",
    ) -> None:
        self.directory = Path(directory).expanduser()
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError(f"max_bytes must be positive: {max_bytes}")
        self.max_bytes = max_bytes
        self.salt = salt
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        #: Connections inherited across a fork are parked here (never
        #: closed, never used): closing the parent's handle from the
        #: child is exactly the cross-fork use SQLite forbids.
        self._orphaned_conns: list[sqlite3.Connection] = []
        self._jitter = random.Random(os.getpid())
        self.directory.mkdir(parents=True, exist_ok=True)
        self._open()

    @property
    def path(self) -> Path:
        return self.directory / STORE_FILENAME

    # --- connection lifecycle --------------------------------------------

    def _open(self) -> None:
        conn = sqlite3.connect(
            str(self.path),
            timeout=BUSY_TIMEOUT_MS / 1000.0,
            check_same_thread=False,
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE name='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (name, value) "
                    "VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
                conn.commit()
            elif int(row[0]) > STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"{self.path}: store schema v{row[0]} is newer than "
                    f"this code understands (v{STORE_SCHEMA_VERSION})"
                )
        except BaseException:
            conn.close()
            raise
        self._conn = conn
        self._conn_pid = os.getpid()

    def _connection(self) -> sqlite3.Connection:
        """The current process's connection, reopened after a fork."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            if self._conn is not None:
                # Inherited from the parent process: park, never close.
                self._orphaned_conns.append(self._conn)
                self._conn = None
            self._jitter = random.Random(pid)
            self._open()
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._conn_pid = None

    # --- busy retry -------------------------------------------------------

    def _with_retry(self, fn):
        """Run ``fn`` absorbing transient SQLITE_BUSY with jittered
        exponential backoff (on top of SQLite's own busy timeout)."""
        for attempt in range(BUSY_RETRIES + 1):
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                if not _is_busy(exc) or attempt == BUSY_RETRIES:
                    raise
                obs_metrics.get_metrics().counter(
                    obs_metrics.STORE_BUSY_RETRIES
                ).add(1)
                delay = (BUSY_BACKOFF_S * (2 ** attempt)
                         * (0.5 + self._jitter.random()))
                time.sleep(delay)

    # --- entry operations -------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """Fetch one payload (:meth:`get_many` of one key)."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: Iterable[str]) -> dict[str, bytes]:
        """Fetch every stored payload among ``keys``, verifying each
        checksum: one SELECT per :data:`_READ_CHUNK` keys, then one
        recency touch and one commit for all the keys served.

        Absent keys are left out of the result.  A checksum mismatch
        drops that row alone and leaves it out (the caller recomputes
        and overwrites it), so a corrupt store degrades to a cold one
        instead of propagating bad data.
        """
        keys = list(keys)
        if not keys:
            return {}
        found: dict[str, bytes] = {}
        with self._lock:
            conn = self._connection()
            rows = []
            for start in range(0, len(keys), _READ_CHUNK):
                chunk = keys[start:start + _READ_CHUNK]
                rows += self._with_retry(lambda: conn.execute(
                    "SELECT key, payload, checksum FROM entries "
                    f"WHERE key IN ({', '.join('?' * len(chunk))})",
                    chunk,
                ).fetchall())
            for key, payload, checksum in rows:
                payload = bytes(payload)
                if payload_checksum(payload) == checksum:
                    found[key] = payload
                else:
                    self._drop_mismatched(key)
            if not found:
                return found
            now = time.time()

            def touch() -> None:
                conn.executemany(
                    "UPDATE entries SET last_used_at=? WHERE key=?",
                    [(now, key) for key in found],
                )
                conn.commit()

            try:
                # LRU recency is best-effort: losing a touch to a busy
                # database must not fail the read.
                self._with_retry(touch)
            except sqlite3.OperationalError:
                pass
        return found

    def put(
        self,
        key: str,
        payload: bytes,
        kind: str,
        seed: int | None = None,
    ) -> None:
        """Insert or replace one entry (checksummed, provenance-stamped),
        then evict down to the size budget."""
        checksum = payload_checksum(payload)
        now = time.time()
        with self._lock:
            conn = self._connection()

            def write() -> None:
                conn.execute(
                    "INSERT OR REPLACE INTO entries "
                    f"({', '.join(_ENTRY_COLUMNS)}) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key, kind, payload, checksum, len(payload),
                     self.salt, seed, now, now),
                )
                conn.commit()

            self._with_retry(write)
            self._evict_to_budget(protect=key)

    def delete(self, key: str) -> bool:
        with self._lock:
            conn = self._connection()

            def drop() -> int:
                cur = conn.execute(
                    "DELETE FROM entries WHERE key=?", (key,)
                )
                conn.commit()
                return cur.rowcount

            return self._with_retry(drop) > 0

    def keys(self, kind: str | None = None) -> list[str]:
        with self._lock:
            conn = self._connection()
            if kind is None:
                rows = conn.execute(
                    "SELECT key FROM entries ORDER BY key"
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT key FROM entries WHERE kind=? ORDER BY key",
                    (kind,),
                ).fetchall()
            return [r[0] for r in rows]

    def entry_count(self) -> int:
        with self._lock:
            conn = self._connection()
            return conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]

    def total_bytes(self) -> int:
        """Sum of stored payload sizes (the evictable budget)."""
        with self._lock:
            conn = self._connection()
            return conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries"
            ).fetchone()[0]

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        with self._lock:
            conn = self._connection()

            def wipe() -> int:
                count = conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()[0]
                conn.execute("DELETE FROM entries")
                conn.commit()
                return count

            return self._with_retry(wipe)

    # --- corruption handling ----------------------------------------------

    def _drop_mismatched(self, key: str) -> None:
        """Delete a row that failed its checksum and count it; the
        caller's recompute overwrites it with a clean payload."""
        conn = self._connection()

        def drop() -> None:
            conn.execute("DELETE FROM entries WHERE key=?", (key,))
            conn.commit()

        try:
            self._with_retry(drop)
        except sqlite3.OperationalError:
            # Unable to delete under hot contention: the row is still
            # never served, and the recompute's put replaces it.
            pass
        obs_metrics.get_metrics().counter(
            obs_metrics.STORE_CHECKSUM_MISMATCHES
        ).add(1)

    def corrupt_bit(self, key: str, bit_index: int) -> bool:
        """Flip one payload bit *without* updating the checksum.

        This deliberately breaks the entry, as bit rot would — it is the
        store's one fault hook, for the ``chaos-recovery`` oracle and
        the tests, which assert the next read drops rather than serves
        it.
        """
        with self._lock:
            conn = self._connection()
            row = conn.execute(
                "SELECT payload FROM entries WHERE key=?", (key,)
            ).fetchone()
            if row is None or not row[0]:
                return False
            payload = bytearray(row[0])
            bit = bit_index % (len(payload) * 8)
            payload[bit // 8] ^= 1 << (bit % 8)

            def write() -> None:
                conn.execute(
                    "UPDATE entries SET payload=? WHERE key=?",
                    (bytes(payload), key),
                )
                conn.commit()

            self._with_retry(write)
            return True

    # --- size budget ------------------------------------------------------

    def _evict_to_budget(self, protect: str | None = None) -> int:
        """Evict LRU entries until the payload total fits the budget.

        ``protect`` exempts the just-written key, so a single oversized
        entry is kept rather than thrashing."""
        if self.max_bytes is None:
            return 0
        conn = self._connection()
        evicted = 0
        while True:
            total = conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries"
            ).fetchone()[0]
            if total <= self.max_bytes:
                break
            row = conn.execute(
                "SELECT key FROM entries WHERE key != ? "
                "ORDER BY last_used_at ASC, key ASC LIMIT 1",
                (protect or "",),
            ).fetchone()
            if row is None:
                break

            def drop(victim=row[0]) -> None:
                conn.execute(
                    "DELETE FROM entries WHERE key=?", (victim,)
                )
                conn.commit()

            self._with_retry(drop)
            evicted += 1
        if evicted:
            obs_metrics.get_metrics().counter(
                obs_metrics.STORE_EVICTIONS
            ).add(evicted)
        return evicted

    # --- maintenance ------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Integrity-scan every entry, dropping checksum failures."""
        report = VerifyReport()
        with self._lock:
            conn = self._connection()
            rows = conn.execute(
                "SELECT key, payload, checksum FROM entries ORDER BY key"
            ).fetchall()
            report.entries = len(rows)
            for key, payload, checksum in rows:
                if payload_checksum(bytes(payload)) == checksum:
                    report.ok += 1
                else:
                    self._drop_mismatched(key)
                    report.mismatched.append(key)
        return report

    def _file_bytes(self) -> int:
        """On-disk size of the database and its write-ahead log."""
        return sum(path.stat().st_size for path in (
            self.path, self.path.with_name(STORE_FILENAME + "-wal"))
            if path.exists())

    def vacuum(self) -> dict:
        """Compact the database file and truncate its write-ahead log."""
        with self._lock:
            conn = self._connection()
            before = self._file_bytes()

            def compact() -> None:
                conn.execute("VACUUM")
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

            self._with_retry(compact)
            after = self._file_bytes()
        return {"bytes_before": before, "bytes_after": after}
