"""Every loader a user hands a file to fails with a typed error.

One Hypothesis property feeds arbitrary bytes to the edge-list, binary
graph, update-log and trace loaders, both raw and behind a valid first
line so the parsers get past their headers.  Each call must return or
raise a :class:`~repro.errors.ReproError`.  The property runs in a
child process under an address-space cap, so a loader that turned a
huge id into a huge allocation fails the test instead of the host.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dynamic.stream import UpdateLog
from repro.errors import StreamError
from repro.obs.trace import TraceError, read_trace

SRC = Path(__file__).resolve().parents[1] / "src"

UPDATES_HEADER = b'{"schema": "hyve-updates-v1", "num_vertices": 8}\n'
TRACE_HEADER = (b'{"kind": "meta", "schema": "hyve-trace-v1", '
                b'"wall_time_unix": 0, "pid": 1}\n')

#: The property, run as ``python -c CHILD <workdir> <examples>``.
CHILD = f"""
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dynamic.stream import UpdateLog
from repro.errors import ReproError
from repro.graph.io import load_binary, load_edge_list
from repro.obs.trace import read_trace

PREFIXES = [b"", b"0 1\\n", {UPDATES_HEADER!r}, {TRACE_HEADER!r}]
LOADERS = [load_edge_list, load_binary, UpdateLog.load, read_trace]
path = Path(sys.argv[1]) / "input"


@settings(max_examples=int(sys.argv[2]), derandomize=True, database=None,
          deadline=None, suppress_health_check=list(HealthCheck))
@given(prefix=st.sampled_from(PREFIXES), body=st.binary(max_size=256))
def check(prefix, body):
    path.write_bytes(prefix + body)
    for load in LOADERS:
        try:
            load(path)
        except ReproError:
            pass


check()
"""


def test_arbitrary_bytes_raise_only_typed_errors(tmp_path):
    resource = pytest.importorskip("resource")
    pytest.importorskip("hypothesis")
    cap = 2 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), "400"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
        preexec_fn=limit, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


@pytest.mark.parametrize("load, error, header", [
    (UpdateLog.load, StreamError, UPDATES_HEADER),
    (read_trace, TraceError, TRACE_HEADER),
], ids=["update-log", "trace"])
def test_non_utf8_names_file_and_line(tmp_path, load, error, header):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(header + b"\xff\n")
    with pytest.raises(error, match=r"bad\.jsonl:2: not UTF-8"):
        load(bad)


@pytest.mark.parametrize("line", [
    b'{"t": 1, "op": "add", "src": 0, "dst": Infinity}',
    b'{"t": 1, "op": "add", "src": 0, "dst": 99999999999999999999}',
    b'[' * 100_000,
], ids=["infinity", "beyond-int64", "deep-nesting"])
def test_update_log_rejects_unrepresentable_events(tmp_path, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(UPDATES_HEADER + line + b"\n")
    with pytest.raises(StreamError, match=r"bad\.jsonl:2: bad event"):
        UpdateLog.load(bad)


def test_trace_rejects_non_numeric_span_times(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(TRACE_HEADER + b'{"kind": "span", "name": "x", "id": 1, '
                    b'"parent": null, "t_start": "a", "t_end": 1, '
                    b'"dur": 1}\n')
    with pytest.raises(TraceError, match=r"bad\.jsonl:2: span times"):
        read_trace(bad)
