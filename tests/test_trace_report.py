"""tools/trace_report.py: folding a trace to the attribution table."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "trace_report", REPO_ROOT / "tools" / "trace_report.py"
)
trace_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_report)


def _write_fixture_trace(path: Path) -> None:
    """A tiny hand-built hyve-trace-v1 file with known attribution."""
    records = [
        {"schema": "hyve-trace-v1", "kind": "meta",
         "wall_time_unix": 0.0, "pid": 1},
        {"kind": "span", "name": "machine.run", "id": 1, "parent": None,
         "t_start": 0.0, "t_end": 1.0, "dur": 1.0},
        {"kind": "event", "name": "phase_time", "id": 2, "parent": 1,
         "t": 0.5, "tags": {"phase": "stream", "seconds": 0.25}},
        {"kind": "event", "name": "phase_time", "id": 3, "parent": 1,
         "t": 0.5, "tags": {"phase": "schedule", "seconds": 0.75}},
        {"kind": "event", "name": "energy", "id": 4, "parent": 1,
         "t": 0.5, "tags": {"component": "edge_memory",
                            "phase": "stream", "joules": 2.0}},
        {"kind": "event", "name": "energy", "id": 5, "parent": 1,
         "t": 0.5, "tags": {"component": "logic_background",
                            "phase": "background", "joules": 6.0}},
        {"kind": "event", "name": "report", "id": 6, "parent": 1,
         "t": 0.9, "tags": {"machine": "m", "algorithm": "pr",
                            "graph": "g", "time_s": 1.0,
                            "total_energy_j": 8.0,
                            "mteps_per_watt": 1.0}},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


GOLDEN_TABLE = """\
phase              time_s  time_%     energy_j energy_%
-------------------------------------------------------
preprocess              0    0.0%            0     0.0%
stream               0.25   25.0%            2    25.0%
process                 0    0.0%            0     0.0%
schedule             0.75   75.0%            0     0.0%
gating                  0    0.0%            0     0.0%
background              0    0.0%            6    75.0%
-------------------------------------------------------
total                   1  100.0%            8   100.0%

1 report(s); EnergyReport totals: 1 s / 8 J (fold delta 0.00% time, 0.00% energy)"""


class TestTraceReport:
    def test_golden_table(self, tmp_path, capsys):
        trace = tmp_path / "fixture.jsonl"
        _write_fixture_trace(trace)
        assert trace_report.main([str(trace)]) == 0
        out = capsys.readouterr().out.rstrip("\n")
        assert out == GOLDEN_TABLE

    def test_json_mode_totals(self, tmp_path, capsys):
        trace = tmp_path / "fixture.jsonl"
        _write_fixture_trace(trace)
        assert trace_report.main([str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_time_s"] == pytest.approx(1.0)
        assert payload["total_energy_j"] == pytest.approx(8.0)
        assert payload["reported_energy_j"] == pytest.approx(8.0)
        assert payload["time_s"]["schedule"] == pytest.approx(0.75)
        assert payload["reports"][0]["machine"] == "m"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert trace_report.main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span"}\n')
        assert trace_report.main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_reports_exits_2(self, tmp_path, capsys):
        spans_only = tmp_path / "spans.jsonl"
        spans_only.write_text(
            json.dumps({"schema": "hyve-trace-v1", "kind": "meta",
                        "wall_time_unix": 0.0, "pid": 1}) + "\n"
            + json.dumps({"kind": "span", "name": "s", "id": 1,
                          "parent": None, "t_start": 0.0, "t_end": 1.0,
                          "dur": 1.0}) + "\n"
        )
        assert trace_report.main([str(spans_only)]) == 2
        assert "no report events" in capsys.readouterr().err
