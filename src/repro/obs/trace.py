"""Span-based JSONL tracer: where a run spends its time.

The tracer materialises the execution structure the machine model
already knows about — preprocess → super-block row → block dispatch →
apply — as *nested spans* with monotonic timestamps, plus point-in-time
*events* carrying attribution payloads (phase times, per-component
energy).  One trace is one JSONL file: the first record is a ``meta``
header stamping the schema version; every later line is a ``span`` or
``event`` record (see :data:`TRACE_SCHEMA` and docs/observability.md
for the field-by-field contract).

Design constraints, in order:

1. **Near-zero overhead when disabled.**  The process-wide tracer
   starts disabled; ``span()`` then returns one shared no-op singleton
   and ``event()`` returns immediately, so instrumented hot paths cost
   one attribute check.  Hot loops additionally guard on
   ``tracer.enabled`` before building tag dictionaries.
2. **Monotonic time.**  Timestamps come from ``time.perf_counter()``
   relative to ``start()``, so spans never go backwards under wall-clock
   adjustments; the header records the wall-clock start for humans.
3. **Append-only JSONL.**  Spans are written on *exit* (events inline),
   so a crashed run leaves a readable prefix; ``read_trace`` validates
   every line and rejects schema mismatches with a line number.
"""

from __future__ import annotations

import io
import json
import os
import re
import time
from pathlib import Path

from ..errors import ReproError

#: Versioned schema tag stamped into every trace header.  Bump when a
#: record field changes meaning; ``read_trace`` rejects other versions.
TRACE_SCHEMA = "hyve-trace-v1"

#: Record kinds a v1 trace may contain.
RECORD_KINDS = ("meta", "span", "event")

#: Fields required per record kind (beyond the optional ``tags``).
_REQUIRED_FIELDS = {
    "meta": ("schema", "kind", "wall_time_unix", "pid"),
    "span": ("kind", "name", "id", "parent", "t_start", "t_end", "dur"),
    "event": ("kind", "name", "id", "parent", "t"),
}


#: What ``errors="surrogateescape"`` decodes a non-UTF-8 byte to.
_UNDECODED = re.compile("[\udc80-\udcff]")


class TraceError(ReproError):
    """Malformed trace file or invalid tracer usage."""


class _NullSpan:
    """Shared no-op span returned while the tracer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The singleton every disabled ``span()`` call returns (no allocation).
NULL_SPAN = _NullSpan()


class _Span:
    """A live span; use as a context manager (emitted on exit)."""

    __slots__ = ("_tracer", "name", "id", "parent", "tags", "_t_start")

    def __init__(self, tracer: "Tracer", name: str, tags: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.id = tracer._next_id()
        self.parent = tracer._current_span_id()
        self._t_start = 0.0

    def __enter__(self) -> "_Span":
        self._t_start = self._tracer._now()
        self._tracer._push(self.id)
        return self

    def __exit__(self, *exc) -> bool:
        t_end = self._tracer._now()
        self._tracer._pop(self.id)
        record = {
            "kind": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "t_start": self._t_start,
            "t_end": t_end,
            "dur": t_end - self._t_start,
        }
        if self.tags:
            record["tags"] = self.tags
        self._tracer._emit(record)
        return False


class Tracer:
    """Writes one JSONL trace; disabled (and free) until ``start()``.

    A single tracer instance is process-wide state: the instrumentation
    hooks all route through :func:`get_tracer`.  The span stack is a
    plain list — the simulator is single-threaded per process, and each
    sweep/experiment worker process owns its own tracer.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records_written = 0
        self._sink: io.TextIOBase | None = None
        self._path: Path | None = None
        self._owns_sink = False
        self._stack: list[int] = []
        self._id = 0
        self._t0 = 0.0

    # --- lifecycle -------------------------------------------------------

    def start(self, path: str | Path | io.TextIOBase) -> None:
        """Open ``path`` (or adopt a text stream) and begin recording."""
        if self.enabled:
            raise TraceError("tracer already started")
        if isinstance(path, (str, Path)):
            self._path = Path(path)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self._path.open("w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._path = None
            self._sink = path
            self._owns_sink = False
        self._stack.clear()
        self._id = 0
        self.records_written = 0
        self._t0 = time.perf_counter()
        self.enabled = True
        self._emit({
            "schema": TRACE_SCHEMA,
            "kind": "meta",
            "wall_time_unix": time.time(),
            "pid": os.getpid(),
        })

    def stop(self) -> None:
        """Flush and close the trace (idempotent)."""
        if not self.enabled:
            return
        self.enabled = False
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
        self._sink = None
        self._stack.clear()

    @property
    def path(self) -> Path | None:
        """Where the current/most recent trace was written (if a file)."""
        return self._path

    # --- recording -------------------------------------------------------

    def span(self, name: str, **tags):
        """A context manager timing one nested region.

        While the tracer is disabled this returns the shared
        :data:`NULL_SPAN` singleton; guard tag construction in hot loops
        with ``tracer.enabled`` to avoid even the kwargs dict.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, tags)

    def event(self, name: str, **tags) -> None:
        """Record a point-in-time event under the current span."""
        if not self.enabled:
            return
        record = {
            "kind": "event",
            "name": name,
            "id": self._next_id(),
            "parent": self._current_span_id(),
            "t": self._now(),
        }
        if tags:
            record["tags"] = tags
        self._emit(record)

    # --- internals -------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def _current_span_id(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def _push(self, span_id: int) -> None:
        self._stack.append(span_id)

    def _pop(self, span_id: int) -> None:
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        elif span_id in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span_id)

    def _emit(self, record: dict) -> None:
        if self._sink is None:
            return
        self._sink.write(json.dumps(record) + "\n")
        self.records_written += 1


# --- reading & validation ----------------------------------------------------


def validate_record(record: object, lineno: int = 0) -> dict:
    """Check one parsed trace record against the v1 schema."""
    where = f"line {lineno}: " if lineno else ""
    if not isinstance(record, dict):
        raise TraceError(f"{where}trace record must be an object, "
                         f"got {type(record).__name__}")
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        raise TraceError(f"{where}unknown record kind {kind!r}")
    missing = [f for f in _REQUIRED_FIELDS[kind] if f not in record]
    if missing:
        raise TraceError(f"{where}{kind} record missing {missing}")
    if kind == "meta" and record["schema"] != TRACE_SCHEMA:
        raise TraceError(
            f"{where}unsupported trace schema {record['schema']!r} "
            f"(this reader understands {TRACE_SCHEMA!r})"
        )
    if kind == "span" and not all(
            isinstance(record[f], (int, float)) for f in ("t_start", "t_end")):
        raise TraceError(f"{where}span times must be numbers")
    if kind == "span" and record["t_end"] < record["t_start"]:
        raise TraceError(f"{where}span {record.get('name')!r} ends "
                         "before it starts")
    tags = record.get("tags")
    if tags is not None and not isinstance(tags, dict):
        raise TraceError(f"{where}tags must be an object")
    return record


def read_trace(path: str | Path) -> list[dict]:
    """Parse and validate a JSONL trace; first record must be the header."""
    path = Path(path)
    records: list[dict] = []
    # Undecodable bytes become lone surrogates, so the line holding one
    # can be named.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODED.search(line):
                raise TraceError(f"{path}:{lineno}: not UTF-8 text")
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise TraceError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from exc
            try:
                records.append(validate_record(parsed))
            except TraceError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise TraceError(f"{path}: empty trace")
    if records[0]["kind"] != "meta":
        raise TraceError(f"{path}: first record must be the meta header")
    return records


# --- process-wide default ----------------------------------------------------

_TRACER: Tracer | None = None


def get_tracer() -> Tracer:
    """The process-wide tracer the instrumentation hooks write to."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def set_tracer(tracer: Tracer | None) -> None:
    """Replace the process-wide tracer (``None`` resets to a fresh one)."""
    global _TRACER
    _TRACER = tracer
