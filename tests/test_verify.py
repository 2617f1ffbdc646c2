"""Tests for the differential-conformance harness (repro.verify).

The expensive end-to-end fuzzing lives in CI's fuzz-smoke job
(``repro verify --seed 0 --cases 50``); here we pin down the machinery:
deterministic case generation, repro-file round-trips, the shrinker,
and — the acceptance path — a deliberately broken engine yielding a
shrunk, replayable repro file.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.verify.oracles as oracles_mod
from repro.cli import main
from repro.errors import VerificationError
from repro.verify import (
    ORACLES,
    Case,
    generate_cases,
    load_repro,
    replay_file,
    repro_record,
    run_oracle_on_case,
    run_verify,
    shrink_case,
    write_repro,
)
from repro.verify.cases import ALGORITHMS, GRAPH_KINDS

# Cheap oracles for end-to-end harness tests (no sweeps, no process
# pools) — the full registry runs in the CI fuzz-smoke job.
FAST_ORACLES = ["engine-identity", "scale-linearity"]

# A small case every fast oracle passes on (used as the replay fixture).
SMALL_CASE = Case(seed=7, graph_kind="erdos-renyi", num_vertices=16,
                  num_edges=40, algorithm="pr")


class TestCaseGeneration:
    def test_deterministic(self):
        assert generate_cases(7, 20) == generate_cases(7, 20)

    def test_seed_changes_cases(self):
        assert generate_cases(7, 20) != generate_cases(8, 20)

    def test_counts_and_validity(self):
        cases = generate_cases(0, 40)
        assert len(cases) == 40
        for case in cases:
            assert case.graph_kind in GRAPH_KINDS
            assert case.algorithm in ALGORITHMS
            assert case.num_vertices >= 2
            assert case.num_edges >= 1

    def test_negative_count_rejected(self):
        with pytest.raises(VerificationError):
            generate_cases(0, -1)

    def test_graph_is_deterministic(self):
        a, b = SMALL_CASE.graph(), SMALL_CASE.graph()
        assert (a.src == b.src).all() and (a.dst == b.dst).all()


class TestCaseSerialisation:
    def test_json_roundtrip(self):
        for case in generate_cases(3, 10):
            rebuilt = Case.from_dict(json.loads(json.dumps(case.to_dict())))
            assert rebuilt == case

    def test_unknown_field_rejected(self):
        data = SMALL_CASE.to_dict()
        data["bogus"] = 1
        with pytest.raises(VerificationError, match="bogus"):
            Case.from_dict(data)

    def test_invalid_kind_rejected(self):
        with pytest.raises(VerificationError, match="graph kind"):
            Case(graph_kind="torus")

    def test_describe_mentions_knobs(self):
        case = dataclasses.replace(SMALL_CASE, sram_kb=256,
                                   edge_scale_exp=2)
        text = case.describe()
        assert "sram_kb=256" in text and "2^2e" in text


class TestRegistry:
    def test_expected_oracles_registered(self):
        expected = {
            "engine-identity", "sweep-identity",
            "algorithm-equivalence", "permutation-invariance",
            "interval-invariance", "scale-linearity",
        }
        assert expected <= set(ORACLES)

    def test_entries_consistent(self):
        for name, oracle in ORACLES.items():
            assert oracle.name == name
            assert oracle.description
            assert oracle.stride >= 1

    def test_unknown_oracle_rejected(self):
        from repro.verify import get_oracles

        with pytest.raises(VerificationError, match="unknown oracle"):
            get_oracles(["nonsense"])


class TestShrink:
    def test_shrinks_to_minimal_failing_case(self):
        start = Case(seed=1, num_vertices=64, num_edges=256,
                     algorithm="pr", machine="acc+HyVE",
                     sram_kb=256, region_hit_rate=0.85,
                     vertex_scale_exp=2, weighted=True)
        # Synthetic defect: anything with >= 4 vertices "fails".
        shrunk, evals = shrink_case(start, lambda c: c.num_vertices >= 4)
        assert shrunk.num_vertices == 4
        assert shrunk.sram_kb is None
        assert shrunk.region_hit_rate is None
        assert shrunk.vertex_scale_exp == 0
        assert not shrunk.weighted
        assert shrunk.machine == "acc+HyVE-opt"
        assert evals <= 48

    def test_unshrinkable_case_returned_unchanged(self):
        start = Case(seed=1, num_vertices=8, num_edges=16)
        shrunk, _ = shrink_case(start, lambda c: c == start)
        assert shrunk == start

    def test_budget_respected(self):
        start = Case(seed=1, num_vertices=256, num_edges=1024)
        _, evals = shrink_case(start, lambda c: True, max_evals=5)
        assert evals == 5


class TestHarness:
    @pytest.mark.fuzz
    def test_run_verify_green(self, tmp_path):
        summary = run_verify(seed=11, cases=2, oracle_names=FAST_ORACLES,
                             failures_dir=tmp_path / "failures")
        assert summary.ok
        assert summary.evaluations == 2 * len(FAST_ORACLES)
        # No failures -> no repro files, the directory is never created.
        assert not (tmp_path / "failures").exists()
        text = summary.format()
        assert "OK" in text and "engine-identity" in text

    def test_oracle_passes_on_small_case(self):
        assert run_oracle_on_case(ORACLES["engine-identity"],
                                  SMALL_CASE) is None

    @pytest.mark.fuzz
    def test_broken_engine_yields_shrunk_replayable_repro(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE acceptance path: a seeded, deliberately broken
        engine must produce a shrunk repro file that replays FAIL while
        the defect is present and PASS once it is fixed."""
        real_fold_many = oracles_mod.fold_many

        def broken_fold_many(*args, **kwargs):
            reports = real_fold_many(*args, **kwargs)
            return [dataclasses.replace(r, time=r.time * 1.5)
                    for r in reports]

        with monkeypatch.context() as patch:
            patch.setattr(oracles_mod, "fold_many", broken_fold_many)
            summary = run_verify(
                seed=0, cases=4, oracle_names=["engine-identity"],
                failures_dir=tmp_path, max_failures=1,
            )
            assert not summary.ok
            failure = summary.failures[0]
            assert failure.oracle == "engine-identity"
            assert "fold_many" in failure.error
            # Shrunk: no bigger than the original along every axis.
            assert failure.case.num_vertices <= failure.original.num_vertices
            assert failure.case.num_edges <= failure.original.num_edges
            assert failure.path is not None and failure.path.exists()
            # Replay while broken -> still FAIL, same oracle.
            replayed = replay_file(failure.path)
            assert not replayed.ok
            assert replayed.case == failure.case
        # Defect "fixed" (patch undone) -> the same file replays green.
        assert replay_file(failure.path).ok


class TestChaosRecovery:
    def test_passes_on_small_case(self):
        assert run_oracle_on_case(ORACLES["chaos-recovery"],
                                  SMALL_CASE) is None

    def test_catches_unchecked_reads(self, monkeypatch):
        """A store that serves rows without comparing checksums hands
        the damaged payloads back; the oracle must notice."""
        from repro.perf.store import SQLiteStore

        def unchecked_get_many(self, keys):
            keys = list(keys)
            if not keys:
                return {}
            rows = self._connection().execute(
                "SELECT key, payload FROM entries "
                f"WHERE key IN ({', '.join('?' * len(keys))})", keys,
            ).fetchall()
            return {key: bytes(payload) for key, payload in rows}

        monkeypatch.setattr(SQLiteStore, "get_many", unchecked_get_many)
        with pytest.raises(VerificationError):
            ORACLES["chaos-recovery"].fn(SMALL_CASE)


class TestReproFiles:
    def test_roundtrip(self, tmp_path):
        record = repro_record("engine-identity", SMALL_CASE,
                              "boom", shrink_evals=3, note="example")
        path = write_repro(tmp_path / "r.json", record)
        oracle, case, loaded = load_repro(path)
        assert oracle == "engine-identity"
        assert case == SMALL_CASE
        assert loaded["note"] == "example"
        assert loaded["shrink_evals"] == 3

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "not-a-repro"}))
        with pytest.raises(VerificationError, match="schema"):
            load_repro(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(VerificationError, match="unreadable"):
            load_repro(path)


class TestCli:
    def test_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    @pytest.mark.fuzz
    def test_run_green(self, tmp_path, capsys):
        assert main([
            "verify", "--seed", "11", "--cases", "1",
            "--oracle", "engine-identity",
            "--failures-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "OK: 1 oracle evaluation(s)" in out

    def test_replay_pass_and_fail(self, tmp_path, capsys):
        good = write_repro(
            tmp_path / "good.json",
            repro_record("engine-identity", SMALL_CASE, "historical"),
        )
        assert main(["verify", "--replay", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        # Malformed repro files route through the CLI error path.
        assert main(["verify", "--replay", str(bad)]) == 2
