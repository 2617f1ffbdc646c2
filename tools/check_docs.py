#!/usr/bin/env python
"""Docs gate: check links/anchors, API names, CLI lines and doctests.

Five checks, the first three over ``docs/*.md`` plus ``README.md``:

1. **Links** — every relative markdown link must point at an existing
   file (resolved from the linking file's directory), and every
   fragment (``file.md#section`` or in-page ``#section``) must match a
   heading anchor in the target file, using GitHub's slug rules
   (lowercase, punctuation stripped, spaces to hyphens).  External
   links (``http(s)://``, ``mailto:``) are not fetched.
2. **API names** — every backticked dotted ``repro.…`` name outside
   code fences must import as a module or resolve as an attribute, so
   a rename or deletion cannot leave a stale name behind.
3. **CLI lines** — every ``python -m repro …`` command inside a code
   fence must parse with :func:`repro.cli.build_parser`, so a deleted
   command or flag cannot linger in the docs.  A ``\\`` continues a
   command on the next line, ``[...]`` marks an optional part (checked
   as if given), ``a|b`` lists alternatives (each checked), and a line
   holding a ``<placeholder>`` is skipped.
4. **Oracle table** — the ``| oracle | checks |`` table of
   ``docs/verification.md`` must list exactly the oracles registered in
   :data:`repro.verify.ORACLES`, so adding or deleting one cannot
   leave the table behind.
5. **Doctests** — fenced ``>>>`` examples in ``docs/observability.md``
   are executed with :mod:`doctest` so the documented API stays real.

Usage (CI runs exactly this)::

    python tools/check_docs.py

Exits non-zero listing every broken link/anchor, stale name or
failing example.
"""

from __future__ import annotations

import contextlib
import doctest
import importlib
import io
import itertools
import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The page whose oracle table must match the oracle registry.
ORACLE_DOC = "docs/verification.md"

#: Files whose fenced ``>>>`` examples must execute cleanly.
DOCTEST_FILES = (
    "docs/autotuning.md",
    "docs/observability.md",
    "docs/scaling.md",
    "docs/streaming.md",
)

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")
_API_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)[`(]")
_CLI_RE = re.compile(r"\bpython -m repro\b(.*)$")
_ORACLE_HEADER_RE = re.compile(r"^\|\s*oracle\s*\|")
_ORACLE_ROW_RE = re.compile(r"^\|\s*`([\w-]+)`\s*\|")
_MISSING = object()


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup, lowercase, hyphenate."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path: Path) -> set[str]:
    """All anchor slugs defined by a markdown file's headings."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def iter_prose(path: Path):
    """Yield (lineno, line) for every line of ``path`` outside code
    fences."""
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def iter_links(path: Path):
    """Yield (lineno, target) for every markdown link in ``path``."""
    for lineno, line in iter_prose(path):
        for match in _LINK_RE.finditer(line):
            yield lineno, match.group(1)


def display_path(path: Path) -> Path:
    """``path`` relative to the repo root, when it lies inside it."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:  # checking a file outside the repo (tests)
        return path


def check_links(files: list[Path]) -> list[str]:
    problems: list[str] = []
    for path in files:
        rel = display_path(path)
        for lineno, target in iter_links(path):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            if base:
                dest = (path.parent / base).resolve()
                if not dest.exists():
                    problems.append(
                        f"{rel}:{lineno}: broken link -> {target}"
                    )
                    continue
            else:
                dest = path.resolve()
            if fragment:
                if dest.suffix.lower() != ".md" or dest.is_dir():
                    continue
                if fragment not in heading_anchors(dest):
                    problems.append(
                        f"{rel}:{lineno}: broken anchor -> {target}"
                    )
    return problems


def check_api_names(files: list[Path]) -> list[str]:
    """Every backticked ``repro.…`` name outside code fences imports as
    a module or is an attribute of its longest importable prefix."""
    problems: list[str] = []
    for path in files:
        for lineno, line in iter_prose(path):
            for match in _API_NAME_RE.finditer(line):
                parts = match.group(1).split(".")
                obj = _MISSING
                for i in range(len(parts), 0, -1):
                    try:
                        obj = importlib.import_module(".".join(parts[:i]))
                    except ImportError:
                        continue
                    for attr in parts[i:]:
                        obj = getattr(obj, attr, _MISSING)
                    break
                if obj is _MISSING:
                    problems.append(f"{display_path(path)}:{lineno}: "
                                    f"stale API name -> {match.group(1)}")
    return problems


def iter_cli_commands(path: Path):
    """Yield (lineno, argument string) for every ``python -m repro``
    command inside a code fence of ``path``, continuations joined."""
    in_fence = False
    pending: tuple[int, str] | None = None
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        if pending is not None:
            pending = (pending[0], pending[1] + " " + line)
        elif match := _CLI_RE.search(line):
            pending = (lineno, match.group(1))
        else:
            continue
        # A trailing backslash (before any comment) continues the line.
        if pending[1].split("#")[0].rstrip().endswith("\\"):
            pending = (pending[0], pending[1].split("#")[0].rstrip()[:-1])
            continue
        yield pending
        pending = None


def cli_variants(args: str) -> list[list[str]]:
    """Every argv a documented command stands for: optional ``[...]``
    parts included, one argv per combination of ``a|b`` choices."""
    tokens = shlex.split(args.replace("[", " ").replace("]", " "),
                         comments=True)
    choices = [token.split("|") for token in tokens]
    return [list(argv) for argv in itertools.product(*choices)]


def check_cli_lines(files: list[Path]) -> list[str]:
    """Every fenced ``python -m repro`` command parses with the CLI's
    own parser."""
    from repro.cli import build_parser

    problems: list[str] = []
    for path in files:
        for lineno, args in iter_cli_commands(path):
            if re.search(r"<[^<>\s]+>", args):
                continue
            for argv in cli_variants(args):
                err = io.StringIO()
                try:
                    with contextlib.redirect_stderr(err):
                        build_parser().parse_args(argv)
                except SystemExit:
                    reason = err.getvalue().strip().splitlines()[-1:]
                    problems.append(
                        f"{display_path(path)}:{lineno}: CLI line does not "
                        f"parse -> repro {' '.join(argv)}"
                        + (f" ({reason[0]})" if reason else ""))
    return problems


def documented_oracles(path: Path) -> list[str]:
    """The backticked names in the first column of ``path``'s
    ``| oracle | checks |`` table."""
    names: list[str] = []
    in_table = False
    for _, line in iter_prose(path):
        if _ORACLE_HEADER_RE.match(line):
            in_table = True
        elif in_table and not line.startswith("|"):
            break
        elif in_table and (match := _ORACLE_ROW_RE.match(line)):
            names.append(match.group(1))
    return names


def check_oracle_table(path: Path) -> list[str]:
    """The oracle table lists every registered oracle and no other."""
    from repro.verify import ORACLES

    documented = documented_oracles(path)
    rel = display_path(path)
    problems = [f"{rel}: oracle table lists an unregistered oracle -> "
                f"{name}" for name in documented if name not in ORACLES]
    problems += [f"{rel}: oracle table misses a registered oracle -> "
                 f"{name}" for name in ORACLES if name not in documented]
    return problems


def run_doctests(files: tuple[str, ...]) -> list[str]:
    problems: list[str] = []
    for name in files:
        path = REPO_ROOT / name
        if not path.exists():
            problems.append(f"{name}: doctest target missing")
            continue
        failures, attempted = doctest.testfile(
            str(path), module_relative=False, verbose=False,
            optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        )
        if attempted == 0:
            problems.append(f"{name}: no doctest examples found")
        elif failures:
            problems.append(
                f"{name}: {failures}/{attempted} doctest example(s) failed"
            )
    return problems


def main() -> int:
    files = sorted((REPO_ROOT / "docs").glob("*.md"))
    files.append(REPO_ROOT / "README.md")
    problems = check_links(files)
    problems += check_api_names(files)
    problems += check_cli_lines(files)
    problems += check_oracle_table(REPO_ROOT / ORACLE_DOC)
    problems += run_doctests(DOCTEST_FILES)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    checked = len(files)
    print(f"docs ok: {checked} file(s) link-, name- and CLI-checked, "
          f"oracle table checked, {len(DOCTEST_FILES)} doctested")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
