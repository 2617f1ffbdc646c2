"""Unit tests for the crash-safe SQLite result store.

Covers checksummed round-trips, batched reads, dropping entries that
fail their checksum, LRU size budgeting, provenance columns,
verify/vacuum maintenance, opening a store written by older code, and
the busy-retry loop.  The
multi-process stress and kill-mid-write scenarios live in
tests/test_store_stress.py and tests/test_crash_consistency.py.
"""

import sqlite3
import time

import pytest

from repro.errors import StoreError
from repro.obs import metrics as obs_metrics
from repro.perf import store as store_module
from repro.perf.store import SQLiteStore, payload_checksum


@pytest.fixture
def store(tmp_path):
    return SQLiteStore(tmp_path / "cache")


class TestRoundTrip:
    def test_get_put_roundtrip(self, store):
        store.put("k", b"payload-bytes", kind="run")
        assert store.get("k") == b"payload-bytes"

    def test_missing_key_is_none(self, store):
        assert store.get("absent") is None

    def test_replace_overwrites(self, store):
        store.put("k", b"old", kind="run")
        store.put("k", b"new", kind="run")
        assert store.get("k") == b"new"
        assert store.entry_count() == 1

    def test_fresh_instance_reads_entries(self, tmp_path):
        SQLiteStore(tmp_path / "cache").put("k", b"x" * 100, kind="run")
        reader = SQLiteStore(tmp_path / "cache")
        assert reader.get("k") == b"x" * 100

    def test_delete(self, store):
        store.put("k", b"x", kind="run")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_keys_filter_by_kind(self, store):
        store.put("a", b"1", kind="run")
        store.put("b", b"2", kind="scalar")
        assert store.keys() == ["a", "b"]
        assert store.keys(kind="scalar") == ["b"]

    def test_clear_returns_count(self, store):
        store.put("a", b"1", kind="run")
        store.put("b", b"2", kind="run")
        store.corrupt_bit("a", 0)
        assert store.get("a") is None  # dropped on the mismatch
        assert store.clear() == 1  # only b is still a live entry
        assert store.entry_count() == 0


class TestProvenance:
    def test_entry_rows_carry_provenance(self, store, tmp_path):
        store.salt = "vX"
        before = time.time()
        store.put("k", b"data", kind="counts", seed=42)
        conn = sqlite3.connect(tmp_path / "cache" / "store.sqlite")
        row = conn.execute(
            "SELECT kind, checksum, size, salt, seed, created_at, "
            "last_used_at FROM entries WHERE key='k'"
        ).fetchone()
        conn.close()
        kind, checksum, size, salt, seed, created, used = row
        assert kind == "counts"
        assert checksum == payload_checksum(b"data")
        assert size == 4
        assert salt == "vX"
        assert seed == 42
        assert created >= before - 1 and used >= before - 1

    def test_read_touches_recency(self, store):
        store.put("k", b"data", kind="run")
        conn = store._connection()
        conn.execute("UPDATE entries SET last_used_at=0 WHERE key='k'")
        conn.commit()
        store.get("k")
        touched = conn.execute(
            "SELECT last_used_at FROM entries WHERE key='k'"
        ).fetchone()[0]
        assert touched > 0


def _mismatches() -> int:
    return obs_metrics.get_metrics().counter(
        obs_metrics.STORE_CHECKSUM_MISMATCHES
    ).value


class TestChecksumMismatch:
    def test_bad_row_not_served_counted_and_dropped(self, store):
        store.put("k", b"a" * 64, kind="run")
        assert store.corrupt_bit("k", 13)
        before = _mismatches()
        assert store.get("k") is None
        assert _mismatches() == before + 1
        assert store.keys() == []
        assert store.get("k") is None  # gone: a plain miss now
        assert _mismatches() == before + 1

    def test_recompute_round_trips(self, store):
        store.put("k", b"a" * 64, kind="run")
        store.corrupt_bit("k", 7)
        assert store.get("k") is None
        store.put("k", b"a" * 64, kind="run")  # the "recompute"
        assert store.get("k") == b"a" * 64
        assert store.verify().clean


def _traced(store):
    """Start recording every statement the store's connection runs."""
    statements: list[str] = []
    store._connection().set_trace_callback(statements.append)
    return statements


def _entry_selects(statements):
    return [s for s in statements
            if s.startswith("SELECT") and "FROM entries" in s]


class TestBatchedRead:
    def test_serves_present_keys_only(self, store):
        store.put("a", b"one", kind="run")
        store.put("b", b"two", kind="counts")
        got = store.get_many(["a", "missing", "b", "a"])
        assert got == {"a": b"one", "b": b"two"}

    def test_empty_batch_touches_nothing(self, store):
        statements = _traced(store)
        assert store.get_many([]) == {}
        assert statements == []

    def test_one_select_and_one_commit(self, store):
        for key in "abc":
            store.put(key, key.encode() * 8, kind="counts")
        conn = store._connection()
        conn.execute("UPDATE entries SET last_used_at=0")
        conn.commit()
        statements = _traced(store)
        assert len(store.get_many(["a", "b", "c", "x"])) == 3
        conn.set_trace_callback(None)
        assert len(_entry_selects(statements)) == 1
        assert statements.count("COMMIT") == 1
        used = conn.execute("SELECT MIN(last_used_at) FROM entries")
        assert used.fetchone()[0] > 0

    def test_more_keys_than_one_chunk(self, store):
        keys = [f"k{i:04d}" for i in range(store_module._READ_CHUNK + 7)]
        conn = store._connection()
        conn.executemany(
            "INSERT INTO entries (key, kind, payload, checksum, size, "
            "salt, seed, created_at, last_used_at) "
            "VALUES (?, 'run', ?, ?, ?, '', NULL, 0, 0)",
            [(k, k.encode(), payload_checksum(k.encode()), len(k))
             for k in keys],
        )
        conn.commit()
        statements = _traced(store)
        assert store.get_many(keys) == {k: k.encode() for k in keys}
        conn.set_trace_callback(None)
        assert len(_entry_selects(statements)) == 2
        assert statements.count("COMMIT") == 1

    def test_corrupt_row_dropped_alone(self, store):
        for key in "abcd":
            store.put(key, key.encode() * 32, kind="counts")
        conn = store._connection()
        conn.execute("UPDATE entries SET last_used_at=0")
        conn.commit()
        assert store.corrupt_bit("c", 21)
        before = _mismatches()
        got = store.get_many("abcd")
        assert got == {key: key.encode() * 32 for key in "abd"}
        assert _mismatches() == before + 1
        used = dict(conn.execute("SELECT key, last_used_at FROM entries"))
        assert set(used) == set("abd")
        assert all(stamp > 0 for stamp in used.values())


class TestEviction:
    def test_lru_eviction_under_budget(self, tmp_path):
        store = SQLiteStore(tmp_path / "cache", max_bytes=250)
        for i in range(5):
            store.put(f"k{i}", bytes(100), kind="run")
            store.get(f"k{i}")
        # 5 x 100 B against a 250 B budget: only the two most recently
        # used entries survive.
        assert store.total_bytes() <= 250
        assert store.get("k4") is not None
        assert store.get("k0") is None

    def test_recently_read_entry_survives(self, tmp_path):
        store = SQLiteStore(tmp_path / "cache", max_bytes=250)
        store.put("a", bytes(100), kind="run")
        store.put("b", bytes(100), kind="run")
        time.sleep(0.01)
        store.get("a")  # refresh a's recency past b's
        store.put("c", bytes(100), kind="run")  # evicts exactly one
        assert store.get("a") is not None
        assert store.get("b") is None

    def test_oversized_entry_is_kept_not_thrashed(self, tmp_path):
        store = SQLiteStore(tmp_path / "cache", max_bytes=50)
        store.put("big", bytes(200), kind="run")
        assert store.get("big") is not None

    def test_eviction_metric_counted(self, tmp_path):
        registry = obs_metrics.get_metrics()
        before = registry.counter(obs_metrics.STORE_EVICTIONS).value
        store = SQLiteStore(tmp_path / "cache", max_bytes=150)
        store.put("a", bytes(100), kind="run")
        time.sleep(0.01)
        store.put("b", bytes(100), kind="run")
        after = registry.counter(obs_metrics.STORE_EVICTIONS).value
        assert after == before + 1

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            SQLiteStore(tmp_path / "cache", max_bytes=0)


class TestVerifyVacuum:
    def test_verify_clean_store(self, store):
        store.put("a", b"1", kind="run")
        store.put("b", b"2", kind="run")
        report = store.verify()
        assert report.clean
        assert report.entries == 2 and report.ok == 2

    def test_verify_counts_and_drops_mismatches(self, store):
        store.put("a", b"fine", kind="run")
        store.put("b", b"x" * 64, kind="run")
        store.corrupt_bit("b", 100)
        before = _mismatches()
        report = store.verify()
        assert not report.clean
        assert report.mismatched == ["b"]
        assert _mismatches() == before + 1
        assert store.keys() == ["a"]
        assert "1 checksum mismatch(es)" in report.format()
        again = store.verify()
        assert again.clean
        assert again.entries == 1 and again.ok == 1

    def test_vacuum_compacts(self, store):
        for i in range(50):
            store.put(f"k{i}", bytes(4096), kind="run")
        store.clear()
        result = store.vacuum()
        assert set(result) == {"bytes_before", "bytes_after"}
        assert result["bytes_after"] < result["bytes_before"]


class TestSchemaGuard:
    def test_newer_schema_refused(self, tmp_path):
        SQLiteStore(tmp_path / "cache")
        conn = sqlite3.connect(tmp_path / "cache" / "store.sqlite")
        conn.execute("UPDATE meta SET value='999' "
                     "WHERE name='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            SQLiteStore(tmp_path / "cache")


class TestOlderStore:
    def test_open_drops_table_and_serves_entries(self, tmp_path):
        """A store written when checksum failures were kept in a table
        of their own still serves its entries, and that table is gone
        once the store is opened."""
        directory = tmp_path / "cache"
        SQLiteStore(directory).put("k", b"good" * 8, kind="run")
        conn = sqlite3.connect(directory / "store.sqlite")
        conn.executescript("""
            CREATE TABLE quarantine (
                key TEXT NOT NULL, kind TEXT NOT NULL, payload BLOB,
                checksum_expected TEXT, checksum_actual TEXT,
                reason TEXT NOT NULL, quarantined_at REAL NOT NULL);
            INSERT INTO quarantine VALUES ('bad', 'run', x'00ff', 'aa',
                'bb', 'checksum mismatch on read', 0);
        """)
        conn.close()
        store = SQLiteStore(directory)
        assert store.get("k") == b"good" * 8
        conn = sqlite3.connect(directory / "store.sqlite")
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        conn.close()
        assert tables == {"meta", "entries"}


class _FlakyConn:
    """Connection proxy whose ``execute`` fails with a chosen error for
    the first ``failures`` calls matching ``match`` (sqlite3.Connection
    attributes are read-only, so monkeypatching needs a wrapper)."""

    def __init__(self, real, match, failures, message):
        self._real = real
        self._match = match
        self._failures = failures
        self._message = message
        self.calls = 0

    def execute(self, sql, *args):
        if sql.startswith(self._match):
            self.calls += 1
            if self.calls <= self._failures:
                raise sqlite3.OperationalError(self._message)
        return self._real.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestBusyRetry:
    def _install(self, store, monkeypatch, match, failures, message):
        proxy = _FlakyConn(store._connection(), match, failures, message)
        monkeypatch.setattr(store, "_connection", lambda: proxy)
        return proxy

    def test_transient_busy_absorbed(self, store, monkeypatch):
        self._install(store, monkeypatch, "INSERT OR REPLACE", 2,
                      "database is locked")
        registry = obs_metrics.get_metrics()
        before = registry.counter(obs_metrics.STORE_BUSY_RETRIES).value
        store.put("k", b"data", kind="run")
        after = registry.counter(obs_metrics.STORE_BUSY_RETRIES).value
        assert store.get("k") == b"data"
        assert after == before + 2

    def test_persistent_busy_raises(self, store, monkeypatch):
        self._install(store, monkeypatch, "INSERT OR REPLACE", 10_000,
                      "database is locked")
        with pytest.raises(sqlite3.OperationalError):
            store.put("k", b"data", kind="run")

    def test_non_busy_error_not_retried(self, store, monkeypatch):
        proxy = self._install(store, monkeypatch, "INSERT OR REPLACE",
                              10_000, "no such table: entries")
        with pytest.raises(sqlite3.OperationalError):
            store.put("k", b"data", kind="run")
        assert proxy.calls == 1
