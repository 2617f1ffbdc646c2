"""Crash-consistency tests: SIGKILL mid-write and power-loss snapshots.

The durability promise of docs/robustness.md, enforced end to end:

* a writer process SIGKILLed at a random moment mid-traffic leaves a
  store that opens cleanly, passes a full integrity scan, and serves
  only old-or-new payloads — never a torn hybrid;
* a directory snapshot taken at any commit boundary (the power-loss
  model: everything fsynced so far survives, everything after is gone)
  is a fully valid store containing exactly the committed entries.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.perf.store import SQLiteStore

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Deterministic payload: the only valid contents for (key, version).
_PAYLOAD_HELPER = '''
def payload_for(key, version):
    value = 2166136261
    for ch in (key + ":" + str(version)).encode():
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    out = bytearray()
    state = value or 1
    for _ in range(512):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state & 0xFF)
    return bytes(out)
'''

_KILL_WRITER = _PAYLOAD_HELPER + '''
import sys
from repro.perf.store import SQLiteStore

store = SQLiteStore(sys.argv[1])
print("READY", flush=True)
version = 0
while True:  # killed from outside, mid-put with high probability
    for k in range(8):
        store.put(f"key-{k}", payload_for(f"key-{k}", version),
                  kind="run", seed=version)
    version += 1
'''

_STEP_WRITER = _PAYLOAD_HELPER + '''
import sys
from repro.perf.store import SQLiteStore

store = SQLiteStore(sys.argv[1])
for line in sys.stdin:
    n = int(line)
    key = f"key-{n}"
    store.put(key, payload_for(key, 0), kind="run", seed=0)
    print(f"COMMITTED {n}", flush=True)
'''


def payload_for(key: str, version: int) -> bytes:
    value = 2166136261
    for ch in (key + ":" + str(version)).encode():
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    out = bytearray()
    state = value or 1
    for _ in range(512):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state & 0xFF)
    return bytes(out)


def _spawn(code: str, *args: str, **popen_kwargs) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=env, text=True, **popen_kwargs,
    )


def _assert_store_serves_only_valid_payloads(directory, max_version):
    store = SQLiteStore(directory)
    report = store.verify()
    assert report.clean, (
        f"SIGKILL left a checksum-invalid entry: {report.format()}"
    )
    for key in store.keys():
        payload = store.get(key)
        assert payload is not None
        valid = any(payload == payload_for(key, v)
                    for v in range(max_version))
        assert valid, f"{key}: payload is neither old nor new"
    store.close()


@pytest.mark.slow
def test_sigkill_mid_write_never_tears(tmp_path):
    """Kill a busy writer at random points; the store must always come
    back with only whole (old or new) entries."""
    directory = str(tmp_path / "store")
    for round_no in range(3):
        proc = _spawn(_KILL_WRITER, directory,
                      stdout=subprocess.PIPE)
        try:
            assert proc.stdout.readline().strip() == "READY"
            # Let it write for a random-ish slice, then pull the plug.
            time.sleep(0.05 + 0.08 * round_no)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        _assert_store_serves_only_valid_payloads(directory, 10_000)


@pytest.mark.slow
def test_power_loss_snapshot_at_commit_boundaries(tmp_path):
    """Copy the store directory after each commit (everything fsynced
    so far survives, nothing else): every snapshot must be a valid
    store holding exactly the committed prefix."""
    directory = tmp_path / "store"
    snapshots = []
    proc = _spawn(_STEP_WRITER, str(directory),
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        for n in range(4):
            proc.stdin.write(f"{n}\n")
            proc.stdin.flush()
            assert proc.stdout.readline().strip() == f"COMMITTED {n}"
            snap = tmp_path / f"snap-{n}"
            shutil.copytree(directory, snap)
            snapshots.append((n, snap))
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)
    assert proc.returncode == 0
    for n, snap in snapshots:
        store = SQLiteStore(snap)
        report = store.verify()
        assert report.clean, f"snapshot {n}: {report.format()}"
        expected = {f"key-{i}" for i in range(n + 1)}
        assert set(store.keys()) == expected
        for key in expected:
            assert store.get(key) == payload_for(key, 0)
        store.close()
