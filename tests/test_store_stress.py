"""Multi-process stress test for the SQLite result store.

Eight processes hammer one store concurrently — mixed readers, writers
and a size-budgeted evictor — and the acceptance bar is *zero corrupted
reads and zero deadlocks*: every ``get`` returns either ``None`` (miss
or evicted) or the exact payload deterministically derived from the
key.  Half the reads are batched ``get_many`` calls over four keys,
whose payloads are checked the same way.  Torn or interleaved data of
any kind is a hard failure.
"""

import multiprocessing
import sys

import pytest

from repro.perf.store import SQLiteStore

WORKERS = 8
KEYS = 24
OPS_PER_WORKER = 60
TIMEOUT_S = 120


def _payload_for(key: str, version: int) -> bytes:
    """The only valid payload for ``key`` at ``version`` — any read
    must return one of these exactly, or the store tore a write."""
    seed = (hash_str(key) * 1_000_003 + version) & 0xFFFFFFFF
    out = bytearray()
    state = seed or 1
    for _ in range(256 + (seed % 512)):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state & 0xFF)
    return bytes(out)


def hash_str(text: str) -> int:
    """Deterministic (non-PYTHONHASHSEED) string hash."""
    value = 2166136261
    for ch in text.encode():
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    return value


def _worker(worker_id: int, directory: str, queue) -> None:
    """Mixed read/write/evict traffic; reports corruption via queue."""
    try:
        # Workers 0-5 run unbounded; 6-7 carry a tight byte budget so
        # their writes force LRU evictions under everyone else's feet.
        max_bytes = 8_192 if worker_id >= 6 else None
        store = SQLiteStore(directory, max_bytes=max_bytes)
        corrupt = 0
        reads = writes = 0
        for op in range(OPS_PER_WORKER):
            key = f"key-{(worker_id * 7 + op * 5) % KEYS}"
            version = (worker_id + op) % 3
            if (worker_id + op) % 3 == 0:
                store.put(key, _payload_for(key, version), kind="run",
                          seed=version)
                writes += 1
            else:
                if op % 2:
                    payloads = {key: store.get(key)}
                else:
                    # A batched read of this key and its next three.
                    batch = [f"key-{(int(key[4:]) + i) % KEYS}"
                             for i in range(4)]
                    payloads = store.get_many(batch)
                    if set(payloads) - set(batch):
                        corrupt += 1
                for read_key, payload in payloads.items():
                    reads += 1
                    if payload is not None:
                        valid = any(payload == _payload_for(read_key, v)
                                    for v in range(3))
                        if not valid:
                            corrupt += 1
        queue.put(("ok", worker_id, reads, writes, corrupt))
    except BaseException as exc:  # report, don't hang the parent
        queue.put(("error", worker_id, type(exc).__name__, str(exc), 1))


@pytest.mark.slow
def test_eight_process_mixed_traffic_no_corruption(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    directory = str(tmp_path / "store")
    procs = [
        ctx.Process(target=_worker, args=(i, directory, queue))
        for i in range(WORKERS)
    ]
    for p in procs:
        p.start()
    results = []
    for _ in procs:
        # A worker that never reports means a deadlock: fail, not hang.
        results.append(queue.get(timeout=TIMEOUT_S))
    for p in procs:
        p.join(timeout=TIMEOUT_S)
        assert p.exitcode == 0
    errors = [r for r in results if r[0] == "error"]
    assert not errors, f"worker(s) crashed: {errors}"
    total_reads = sum(r[2] for r in results)
    total_corrupt = sum(r[4] for r in results)
    assert total_reads > 0
    assert total_corrupt == 0, (
        f"{total_corrupt} corrupted read(s) out of {total_reads}"
    )
    # The store must still be coherent afterwards.
    survivor = SQLiteStore(directory)
    report = survivor.verify()
    assert report.clean, report.format()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
