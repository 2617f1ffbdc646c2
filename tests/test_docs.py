"""Docs gate: the link/anchor checker and doc doctests stay green."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestSlug:
    def test_github_slug_rules(self):
        assert check_docs.github_slug("Trace schema (`hyve-trace-v1`)") \
            == "trace-schema-hyve-trace-v1"
        assert check_docs.github_slug("Span and event taxonomy") \
            == "span-and-event-taxonomy"
        assert check_docs.github_slug("C++ & Python!") == "c--python"


class TestRepoDocs:
    def test_no_broken_links_or_anchors(self):
        files = sorted((REPO_ROOT / "docs").glob("*.md"))
        files.append(REPO_ROOT / "README.md")
        assert check_docs.check_links(files) == []

    def test_no_stale_api_names(self):
        files = sorted((REPO_ROOT / "docs").glob("*.md"))
        files.append(REPO_ROOT / "README.md")
        assert check_docs.check_api_names(files) == []

    def test_checker_flags_stale_api_name(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`repro.graph.shards` `repro.perf.cache.RunCache` "
            "`repro.arch.graphr.price_configs(configs)`\n"
            "`repro.perf.no_such_module` and `repro.graph.NoSuchName`\n"
            "```\n`repro.in_a_fence`\n```\n"
        )
        problems = check_docs.check_api_names([page])
        assert problems == [
            f"{page}:2: stale API name -> repro.perf.no_such_module",
            f"{page}:2: stale API name -> repro.graph.NoSuchName",
        ]

    def test_cli_lines_parse(self):
        files = sorted((REPO_ROOT / "docs").glob("*.md"))
        files.append(REPO_ROOT / "README.md")
        assert check_docs.check_cli_lines(files) == []

    def test_checker_flags_unparseable_cli_line(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`python -m repro run --faults harsh` outside a fence\n"
            "```\n"
            "$ PYTHONPATH=src python -m repro run --dataset YT [--json]\n"
            "python -m repro cache info|clear  # alternatives\n"
            "python -m repro run --graph <file> --faults harsh\n"
            "python -m repro compare --dataset YT \\\n"
            "    --faults mild\n"
            "python -m repro cache info|defrag\n"
            "```\n"
        )
        problems = check_docs.check_cli_lines([page])
        assert [p.split(" (")[0] for p in problems] == [
            f"{page}:6: CLI line does not parse -> "
            "repro compare --dataset YT --faults mild",
            f"{page}:8: CLI line does not parse -> repro cache defrag",
        ]

    def test_oracle_table_matches_registry(self):
        page = REPO_ROOT / check_docs.ORACLE_DOC
        assert check_docs.check_oracle_table(page) == []

    def test_checker_flags_oracle_table_drift(self, tmp_path):
        from repro.verify import ORACLES

        rows = "".join(f"| `{name}` | checks |\n" for name in ORACLES
                       if name != "engine-identity")
        page = tmp_path / "page.md"
        page.write_text(
            "| oracle | checks |\n|---|---|\n" + rows
            + "| `zero-chaos` | a deleted oracle |\n"
            "\n| `engine-identity` | another table |\n"
        )
        assert check_docs.check_oracle_table(page) == [
            f"{page}: oracle table lists an unregistered oracle -> "
            "zero-chaos",
            f"{page}: oracle table misses a registered oracle -> "
            "engine-identity",
        ]

    def test_doc_doctests_pass(self):
        assert check_docs.run_doctests(check_docs.DOCTEST_FILES) == []

    def test_checker_flags_broken_link(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("[dead](missing.md) and [frag](#nowhere)\n")
        problems = check_docs.check_links([bad])
        assert len(problems) == 2
        assert any("missing.md" in p for p in problems)
        assert any("#nowhere" in p for p in problems)


class TestObservabilityPage:
    def test_documents_every_metric_constant(self):
        from repro.obs import metrics as m

        page = (REPO_ROOT / "docs" / "observability.md").read_text()
        constants = [
            m.EDGES_STREAMED, m.EXECUTOR_EDGES, m.BPG_BANK_WAKES,
            m.ROUTER_ROTATIONS, m.CACHE_HITS, m.CACHE_MISSES,
            m.CONVERGENCE_ITERATIONS,
        ]
        for name in constants:
            assert f"`{name}`" in page, f"{name} undocumented"

    def test_documents_schema_version(self):
        from repro.obs import TRACE_SCHEMA

        page = (REPO_ROOT / "docs" / "observability.md").read_text()
        assert TRACE_SCHEMA in page
