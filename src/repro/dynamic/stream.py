"""Streaming ingest: append-only update logs and a bounded-staleness engine.

This is the continuous-ingest half of the dynamic-graph story (ROADMAP
item 3).  Three pieces:

* :class:`UpdateLog` — an append-only, replayable log of edge ``add`` /
  ``del`` events with **monotonic logical timestamps**, serialised as
  ``hyve-updates-v1`` JSONL (one header record, then one record per
  event) or as a packed ``(n, 4)`` int64 array.  The log is laid out
  the way HyVE's write-once ReRAM blocks stream: strictly sequential
  appends, no in-place mutation, so replay is a single forward scan.
  Beside the events it keeps the open-edge multiset as sorted
  ``(packed key, multiplicity)`` arrays; that multiset validates
  deletes and is also the engine's live edge state, so each ingest
  chunk is validated and merged once.
* :class:`StreamEngine` — consumes updates and maintains incremental
  PR/CC/BFS values under a **bounded-staleness contract**: the
  published values may lag the log by at most ``K - 1`` updates, and a
  flush (value refresh) happens whenever ``K`` updates are pending or
  a query arrives.  ``K = 1`` degenerates to eager exact maintenance.
  BFS and CC refresh *incrementally*: BFS by monotone min-relaxation
  from the previous fixpoint (exact, because the fixpoint is unique)
  after a local repair for deletions; CC by merging the previous
  component labels, after searches sized to the pieces that deletions
  split off (re-seeding the touched components and relaxing to the
  fixpoint only when those searches cannot settle it).
  First-time initialisation rebuilds the canonical snapshot from
  scratch.  PR has no incremental rule, so it is converged only when a
  query reads it: a contract flush drops its value, and the query
  rebuilds it from the snapshot at its own instant through the run
  cache, which is bit-identical by construction.  Either way, every
  value a query returns is bit-identical (exact ints for BFS/CC, the
  same run for PR) to a full rebuild of ``snapshot_at(t)`` — the
  ``stream-rebuild-identity`` oracle enforces this over generated
  logs.
* :func:`measure_stream` — a :class:`StreamThroughputResult` bench:
  sustained updates/second under concurrent pricing queries, compared
  against a serial-replay baseline that rebuilds the graph from the
  log prefix at every query.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..algorithms import BFS, UNREACHED, make_algorithm, run_cached
from ..algorithms.runner import run_vectorized
from ..errors import StreamError
from ..graph.graph import VERTEX_DTYPE, Graph
from ..obs.metrics import STALENESS_FLUSHES, UPDATES_APPLIED, get_metrics
from ..obs.trace import get_tracer
from .temporal import TemporalGraph

#: What ``errors="surrogateescape"`` decodes a non-UTF-8 byte to.
_UNDECODED = re.compile("[\udc80-\udcff]")

#: Range of the packed int64 event columns.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Schema tag carried by every serialised update log.
UPDATES_SCHEMA = "hyve-updates-v1"

#: Default staleness bound: flush after this many pending updates.
DEFAULT_STALENESS_K = 64

#: Algorithms the stream engine knows how to maintain.
MAINTAINED_ALGORITHMS = ("pr", "cc", "bfs")

_OPS = ("add", "del")


@dataclass(frozen=True)
class Update:
    """One logged event: ``op`` ("add"/"del") on edge ``src -> dst``
    at logical time ``t``."""

    t: int
    op: str
    src: int
    dst: int


class UpdateLog:
    """Append-only edge-update log with monotonic logical timestamps.

    Timestamps are non-decreasing; events sharing a timestamp form one
    logical batch.  Appends are validated eagerly: vertex ids must be
    in range and a ``del`` must close a currently-open edge instance,
    so any prefix of a log is always replayable.

    Events are stored as packed ``(n, 4)`` blocks (see
    :meth:`to_arrays`).  The open-edge multiset is kept beside them as
    two aligned int64 arrays, :attr:`support` (sorted distinct packed
    ``(src << 32) | dst`` keys) and :attr:`multiplicity`.  Every append
    replaces both arrays and never changes one in place, so a reference
    to an earlier :attr:`support` stays a faithful record of that
    moment.  An append finds its keys by binary search, O(block log
    support), and then copies each array once for the keys it opens
    and once for those it closes; that copy is O(support) memory
    traffic, so bulk input belongs in :meth:`extend_arrays`.
    """

    def __init__(self, num_vertices: int, name: str = "stream") -> None:
        if num_vertices < 0:
            raise StreamError(f"negative vertex count: {num_vertices}")
        self.num_vertices = int(num_vertices)
        self.name = name
        self._blocks: list[np.ndarray] = []
        self._len = 0
        self._last_time = -1
        self.support = np.empty(0, dtype=np.int64)
        self.multiplicity = np.empty(0, dtype=np.int64)
        self._open_edges = 0

    # --- appending -------------------------------------------------------

    @property
    def last_time(self) -> int:
        """Timestamp of the newest event (-1 when empty)."""
        return self._last_time

    def append(self, op: str, src: int, dst: int, t: int | None = None,
               dedupe: bool = False) -> bool:
        """Append one event; returns False iff suppressed by ``dedupe``.

        ``t=None`` auto-assigns ``last_time + 1``.  With
        ``dedupe=True`` an ``add`` for an edge that already has an
        open instance is suppressed (duplicate suppression for
        at-least-once upstream feeds).
        """
        if op not in _OPS:
            raise StreamError(f"unknown op {op!r} (expected add/del)")
        t = self.last_time + 1 if t is None else int(t)
        block = np.array([[t, _OPS.index(op), src, dst]], dtype=np.int64)
        if dedupe and op == "add" \
                and self._lookup((block[:, 2] << 32) | block[:, 3])[1][0]:
            return False
        self._extend(block)
        return True

    def extend(self, updates: Iterable["Update | tuple"]) -> int:
        """Append many events; returns the number accepted."""
        n = 0
        for u in updates:
            if isinstance(u, Update):
                n += self.append(u.op, u.src, u.dst, t=u.t)
            else:
                n += self.append(*u)
        return n

    def extend_arrays(self, events: np.ndarray) -> int:
        """Append a packed ``(n, 4)`` event block with vectorized
        validation (range, monotonic timestamps, and the FIFO
        open-instance check for deletes) — the bulk-ingest fast path.
        """
        events = _packed(events)
        if events.shape[0]:
            self._extend(events)
        return events.shape[0]

    def _extend(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
        """Validate a non-empty packed block, merge it into the open-edge
        multiset and append it.  Nothing changes when it is rejected.

        Returns ``(keys, was_open, is_open)``: the block's sorted
        distinct packed keys and, per key, whether it had an open
        instance before and after the block.
        """
        t, op, src, dst = block.T
        bad_op = (op != 0) & (op != 1)
        if bad_op.any():
            raise StreamError(
                f"packed op must be 0/1, got {int(op[np.argmax(bad_op)])}"
            )
        out = (np.minimum(src, dst) < 0) \
            | (np.maximum(src, dst) >= self.num_vertices)
        if out.any():
            j = int(np.argmax(out))
            raise StreamError(f"edge {int(src[j])}->{int(dst[j])} out of "
                              f"range [0, {self.num_vertices})")
        if t[0] < self.last_time or np.any(t[1:] < t[:-1]):
            raise StreamError(
                f"non-monotonic timestamps in block starting at "
                f"t={int(t[0])} (log at t={self.last_time})"
            )
        keys = (src << 32) | dst
        deletes = int(np.count_nonzero(op))
        if deletes:
            # FIFO balance: group events by key with a stable sort; the
            # running per-key count, seeded from the open multiset, must
            # never go negative.
            order = np.argsort(keys, kind="stable")
            ks = keys[order]
            ds = 1 - 2 * op[order]
            starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            ends = np.r_[starts[1:], ks.size]
            uk = ks[starts]
            pos, was, base = self._lookup(uk)
            csum = np.cumsum(ds)
            offset = base - csum[starts] + ds[starts]
            running = csum + np.repeat(offset, ends - starts)
            if (running < 0).any():
                j = int(order[int(np.argmax(running < 0))])
                raise StreamError(
                    f"del {int(src[j])}->{int(dst[j])} at t={int(t[j])} "
                    f"has no matching open edge"
                )
            count = running[ends - 1]
        else:
            uk, adds = np.unique(keys, return_counts=True)
            pos, was, base = self._lookup(uk)
            count = base + adds
        now = count > 0
        born = now & ~was
        # Slot of each key once the born keys are inserted before it.
        at = pos + np.cumsum(born) - born
        if born.any():
            support = np.insert(self.support, pos[born], uk[born])
            mult = np.insert(self.multiplicity, pos[born], 0)
        else:
            support, mult = self.support, self.multiplicity.copy()
        mult[at[was | born]] = count[was | born]
        gone = was & ~now
        if gone.any():
            support = np.delete(support, at[gone])
            mult = np.delete(mult, at[gone])
        self.support, self.multiplicity = support, mult
        self._open_edges += block.shape[0] - 2 * deletes
        self._blocks.append(block.copy())
        self._len += block.shape[0]
        self._last_time = int(t[-1])
        return uk, was, now

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        """(insertion slots, open mask, open counts) of sorted ``keys``
        in the open-edge multiset."""
        pos = np.searchsorted(self.support, keys)
        if not self.support.size:
            return pos, np.zeros(keys.size, dtype=bool), np.zeros_like(keys)
        probe = np.minimum(pos, self.support.size - 1)
        was = (pos < self.support.size) & (self.support[probe] == keys)
        return pos, was, np.where(was, self.multiplicity[probe], 0)

    # --- reading ---------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def _events(self) -> np.ndarray:
        """Every event as one packed block (concatenated on demand)."""
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks)]
        return self._blocks[0] if self._blocks \
            else np.empty((0, 4), dtype=np.int64)

    def __getitem__(self, i: int) -> Update:
        t, op, src, dst = self._events()[i].tolist()
        return Update(t, _OPS[op], src, dst)

    def __iter__(self) -> Iterator[Update]:
        for t, op, src, dst in self._events().tolist():
            yield Update(t, _OPS[op], src, dst)

    @property
    def open_edges(self) -> int:
        """Edges currently alive (multiset size) after the whole log."""
        return self._open_edges

    def temporal(self) -> TemporalGraph:
        """Replay into validity intervals (see :class:`TemporalGraph`)."""
        return TemporalGraph.from_log(self)

    # --- packed-array form -----------------------------------------------

    def to_arrays(self) -> np.ndarray:
        """Packed ``(n, 4)`` int64 array: columns t, op(0=add,1=del),
        src, dst — the sequential-stream layout."""
        return self._events().copy()

    @classmethod
    def from_arrays(cls, num_vertices: int, events: np.ndarray,
                    name: str = "stream") -> "UpdateLog":
        """Rebuild (and re-validate) a log from its packed-array form."""
        log = cls(num_vertices, name=name)
        log.extend_arrays(events)
        return log

    # --- JSONL form ------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write ``hyve-updates-v1`` JSONL: header record, then events."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            json.dump({"schema": UPDATES_SCHEMA, "kind": "header",
                       "num_vertices": self.num_vertices,
                       "name": self.name, "events": len(self)}, sink,
                      sort_keys=True)
            sink.write("\n")
            for u in self:
                json.dump({"t": u.t, "op": u.op, "src": u.src,
                           "dst": u.dst}, sink, sort_keys=True)
                sink.write("\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "UpdateLog":
        """Parse and validate one ``hyve-updates-v1`` JSONL file; any
        malformed content raises :class:`StreamError` naming the file
        and, where one is at fault, the line."""
        path = Path(path)
        try:
            # Undecodable bytes become lone surrogates, so the line
            # holding one can be named.
            text = path.read_text(encoding="utf-8",
                                  errors="surrogateescape")
        except OSError as exc:
            raise StreamError(f"unreadable update log {path}: {exc}") from exc
        lines = text.splitlines()
        if _UNDECODED.search(text):
            lineno = next(i for i, line in enumerate(lines, start=1)
                          if _UNDECODED.search(line))
            raise StreamError(f"{path}:{lineno}: not UTF-8 text")
        if not lines:
            raise StreamError(f"{path} is empty (missing header record)")
        try:
            header = json.loads(lines[0])
        except (ValueError, RecursionError) as exc:
            raise StreamError(f"{path}:1: bad JSON: {exc}") from exc
        if not isinstance(header, dict) \
                or header.get("schema") != UPDATES_SCHEMA:
            raise StreamError(
                f"{path} is not a {UPDATES_SCHEMA} log (schema="
                f"{header.get('schema') if isinstance(header, dict) else None!r})"
            )
        try:
            num_vertices = int(header["num_vertices"])
            declared = header.get("events")
            if declared is not None:
                declared = int(declared)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StreamError(f"{path}:1: bad header: {exc!r}") from exc
        log = cls(num_vertices, name=str(header.get("name", "stream")))
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["op"] not in _OPS:
                    raise ValueError(f"unknown op {record['op']!r}")
                row = (int(record["t"]), _OPS.index(record["op"]),
                       int(record["src"]), int(record["dst"]))
                if not all(_INT64_MIN <= x <= _INT64_MAX for x in row):
                    raise ValueError("value outside the int64 range")
                rows.append(row)
            except (KeyError, TypeError, ValueError, OverflowError,
                    RecursionError) as exc:
                raise StreamError(f"{path}:{lineno}: bad event: {exc}") from exc
        log.extend_arrays(np.array(rows, dtype=np.int64).reshape(-1, 4))
        if declared is not None and declared != len(log):
            raise StreamError(
                f"{path}: header declares {declared} events, found {len(log)}"
            )
        return log


def _packed(events) -> np.ndarray:
    """``events`` as an ``(n, 4)`` int64 array, or :class:`StreamError`."""
    events = np.asarray(events, dtype=np.int64)
    if events.ndim != 2 or events.shape[1] != 4:
        raise StreamError(
            f"packed update array must be (n, 4), got {events.shape}"
        )
    return events


def generate_update_log(graph: Graph, num_updates: int, seed: int = 0,
                        delete_fraction: float = 0.3,
                        name: str | None = None) -> UpdateLog:
    """Deterministic synthetic log: the base graph's edges as one
    ``t=0`` batch, then ``num_updates`` seeded add/del events at
    ``t = 1..num_updates`` (deletes target a random open edge, so
    delete-then-re-insert of the same key occurs naturally)."""
    if graph.num_vertices <= 0:
        raise StreamError("generate_update_log needs a non-empty vertex set")
    rng = np.random.default_rng(seed)
    base = graph.num_edges
    rows = np.zeros((base + num_updates, 4), dtype=np.int64)
    rows[:base, 2] = graph.src
    rows[:base, 3] = graph.dst
    rows[base:, 0] = np.arange(1, num_updates + 1)
    open_edges = ((rows[:base, 2] << 32) | rows[:base, 3]).tolist()
    for row in range(base, base + num_updates):
        if open_edges and rng.random() < delete_fraction:
            key = open_edges.pop(int(rng.integers(len(open_edges))))
            rows[row, 1:] = (1, key >> 32, key & 0xFFFFFFFF)
        else:
            s = int(rng.integers(graph.num_vertices))
            d = int(rng.integers(graph.num_vertices))
            rows[row, 2:] = (s, d)
            open_edges.append((s << 32) | d)
    log = UpdateLog(graph.num_vertices, name=name or f"{graph.name}-stream")
    log.extend_arrays(rows)
    return log


# --- incremental maintenance (exact min-relaxation) ---------------------------


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct ``values`` by one sort (``np.unique`` may hash
    first, which costs several times more on these small int arrays)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership mask of ``needles`` in a *sorted* ``haystack``."""
    if not haystack.size:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    probe = np.minimum(pos, haystack.size - 1)
    return (pos < haystack.size) & (haystack[probe] == needles)


def _swap_words(keys: np.ndarray) -> np.ndarray:
    """Packed ``(a << 32) | b`` keys as ``(b << 32) | a``."""
    return ((keys & 0xFFFFFFFF) << 32) | (keys >> 32)


def _net_delta(steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold consecutive ``(sorted keys, was_open, is_open)`` steps into
    one: each key's ``was`` from the first step that touched it and its
    ``is`` from the last, which is its state across the whole run."""
    if len(steps) == 1:
        return steps[0]
    keys, was, now = (np.concatenate(part) for part in zip(*steps))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    last = np.r_[first[1:], keys.size] - 1
    return keys[first], was[order[first]], now[order[last]]


def _segment_rows(keys: np.ndarray, vertices: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a sorted packed-key array whose high word is one of
    ``vertices``, plus the position in ``vertices`` each row belongs to.

    Two binary searches per vertex find its segment; the segments are
    then expanded to row indices without touching the rest of the
    array, so the cost is O(|vertices| log |keys| + rows)."""
    lo = np.searchsorted(keys, vertices << 32)
    counts = np.searchsorted(keys, (vertices + 1) << 32) - lo
    owner = np.repeat(np.arange(vertices.size), counts)
    first = np.cumsum(counts) - counts
    return np.arange(owner.size) + (lo - first)[owner], owner


class _RelaxEdges:
    """Segment structure for repeated exact scatter-min sweeps over one
    fixed edge-support set.

    ``np.minimum.at`` pays a heavy per-duplicate penalty on *every*
    sweep; the CC refixpoint loop instead reduces per-target segments
    of a target-sorted edge order with ``np.minimum.reduceat`` — the
    same exact minimum.  The engine keeps the support sorted both by
    ``(src, dst)`` and by ``(dst, src)``, so both scatter directions
    are cut into segments straight from those arrays, without a sort.
    """

    __slots__ = ("fwd", "bwd")

    def __init__(self, keys: np.ndarray, rev: np.ndarray) -> None:
        self.bwd = self._segments(keys & 0xFFFFFFFF, keys >> 32)
        self.fwd = self._segments(rev & 0xFFFFFFFF, rev >> 32)

    @staticmethod
    def _segments(gather: np.ndarray, target: np.ndarray):
        """(gather ids, segment starts, one target per segment) for a
        ``target``-sorted edge direction."""
        if not target.size:
            return gather, np.empty(0, dtype=np.intp), target
        starts = np.flatnonzero(
            np.concatenate(([True], target[1:] != target[:-1])))
        return gather, starts, target[starts]


def _sweep_min(values: np.ndarray, direction) -> bool:
    """One exact scatter-min sweep of min-label propagation; returns
    True iff any value improved."""
    gather, starts, targets = direction
    if not targets.size:
        return False
    mins = np.minimum.reduceat(values[gather], starts)
    improved = mins < values[targets]
    if not improved.any():
        return False
    values[targets[improved]] = mins[improved]
    return True


def _tight(levels: np.ndarray, parent: np.ndarray,
           child: np.ndarray) -> np.ndarray:
    """Mask of edges ``parent -> child`` on a shortest-hop path."""
    lp = levels[parent]
    return (lp != UNREACHED) & (lp + 1 == levels[child])


def _orphaned(levels: np.ndarray, candidates: np.ndarray, rev: np.ndarray,
              invalid: np.ndarray) -> np.ndarray:
    """The ``candidates`` left without a tight in-edge from a vertex
    outside ``invalid`` (in-edges looked up in the ``(dst, src)``-sorted
    support ``rev``)."""
    rows, owner = _segment_rows(rev, candidates)
    parent = rev[rows] & 0xFFFFFFFF
    held = _tight(levels, parent, rev[rows] >> 32) & ~invalid[parent]
    return candidates[np.bincount(owner[held],
                                  minlength=candidates.size) == 0]


def _bfs_delete_repair(previous: np.ndarray, dropped: np.ndarray,
                       keys: np.ndarray, rev: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Invalidate exactly the region a support deletion can orphan.

    A dropped edge ``(u, v)`` only matters if it was *tight*
    (``level[u] + 1 == level[v]``).  Its target is orphaned when no
    tight in-edge remains in the current support; orphaning then
    propagates — a vertex whose every tight parent was invalidated is
    invalid too.  The closure runs as a worklist over per-level rounds:
    each round follows the tight out-edges of the newly invalid
    vertices (segments of the ``(src, dst)``-sorted support ``keys``)
    and re-checks the tight in-edges of the vertices they reach
    (segments of the ``(dst, src)``-sorted ``rev``), so the work is
    proportional to the orphaned region's edges, not to the support.
    Surviving levels are provably achievable on the current support, so
    after setting the invalidated region to ``UNREACHED`` the array is
    a valid upper-bound seed for :func:`_bfs_push` — and when nothing
    is invalidated the previous levels are already exact.

    Returns ``(levels, invalidated)``: ``invalidated`` holds the ids of
    the orphaned vertices, and ``levels`` is ``previous`` itself (not a
    copy) when it is empty.
    """
    du = dropped >> 32
    dv = dropped & 0xFFFFFFFF
    invalid = np.zeros(previous.size, dtype=bool)
    frontier = _orphaned(previous, _distinct(dv[_tight(previous, du, dv)]),
                         rev, invalid)
    while frontier.size:
        invalid[frontier] = True
        rows, _ = _segment_rows(keys, frontier)
        child = keys[rows] & 0xFFFFFFFF
        hit = _distinct(child[_tight(previous, keys[rows] >> 32, child)])
        frontier = _orphaned(previous, hit[~invalid[hit]], rev, invalid)
    invalidated = np.flatnonzero(invalid)
    if not invalidated.size:
        return previous, invalidated
    values = previous.copy()
    values[invalidated] = UNREACHED
    return values, invalidated


def _bfs_push(levels: np.ndarray, src: np.ndarray, dst: np.ndarray,
              keys: np.ndarray) -> np.ndarray:
    """Relax BFS hop levels to the fixpoint by frontier push.

    ``levels`` must be achievable upper bounds on the new shortest hop
    distances (true after insertions, and after
    :func:`_bfs_delete_repair` has reset the orphaned region), and the
    candidate edges ``src -> dst`` must include every support edge that
    can lower a level — the added edges and the in-edges of the
    invalidated vertices; every other edge already satisfied the old
    fixpoint.  Each round relaxes the candidates and then follows the
    out-edges (segments of the ``(src, dst)``-sorted support ``keys``)
    of just the vertices whose level dropped.  Unit-weight Bellman-Ford
    from valid upper bounds converges to the unique fixpoint — exactly
    the levels a from-scratch BFS computes.  Returns ``levels`` itself
    when no level drops, a relaxed copy otherwise."""
    owned = False
    while src.size:
        cand = levels[src]
        reach = cand != UNREACHED
        cand = cand[reach] + 1
        dst = dst[reach]
        better = cand < levels[dst]
        if not better.any():
            break
        if not owned:
            levels, owned = levels.copy(), True
        dst = dst[better]
        np.minimum.at(levels, dst, cand[better])
        rows, _ = _segment_rows(keys, _distinct(dst))
        src, dst = keys[rows] >> 32, keys[rows] & 0xFFFFFFFF
    return levels


def _cc_union(values: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Exact CC min-labels after support insertions, by merging labels.

    Insertions only merge components, so the new labelling is the old
    one with each group of labels joined by an added edge collapsed to
    the group's smallest label.  Connectivity is solved on that small
    label graph: the larger of two distinct roots hooks to the smaller,
    then pointer jumping flattens the forest, until every added edge
    joins one root.  Every old label is its component's minimum vertex
    id and only ever points to a smaller label of its own group, so a
    group's smallest label stays the one root — the minimum id of the
    merged component, identical to a rebuild.  Costs O(added + V)
    instead of sweeping the support.  Returns ``values`` itself when no
    added edge crosses two labels.
    """
    a = values[added >> 32]
    b = values[added & 0xFFFFFFFF]
    cross = a != b
    if not cross.any():
        return values
    a, b = a[cross], b[cross]
    nodes = _distinct(np.concatenate([a, b]))
    parent = np.arange(values.size, dtype=values.dtype)
    while True:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        # Only labels of added edges ever move, so jumping them alone
        # flattens the whole forest.
        while True:
            up = parent[nodes]
            jumped = parent[up]
            if np.array_equal(jumped, up):
                break
            parent[nodes] = jumped
        a, b = parent[a], parent[b]
        split = a != b
        if not split.any():
            return parent[values]
        a, b = a[split], b[split]


def _cc_refixpoint(values: np.ndarray, edges: _RelaxEdges) -> np.ndarray:
    """Relax CC min-labels to the fixpoint from a seed labelling.

    Exact whenever every seed label is the id of some vertex inside
    the labelled vertex's *current* component (true for the
    re-initialised seeds :func:`_cc_delete_seed` builds after
    deletions): symmetric min-propagation then converges to the unique
    fixpoint — the minimum vertex id in each component — identical to
    a rebuild."""
    values = values.copy()
    while True:
        fwd = _sweep_min(values, edges.fwd)
        bwd = _sweep_min(values, edges.bwd)
        # Pointer shortcutting (Shiloach–Vishkin): every label is the
        # id of a vertex in the same component, so jumping to the
        # label's own label stays inside the component and squeezes
        # convergence from O(diameter) to O(log diameter) sweeps
        # without changing the fixpoint.
        jumped = values[values]
        short = jumped < values
        if short.any():
            np.minimum(values, jumped, out=values)
        elif not (fwd or bwd):
            return values


def _cc_delete_seed(values: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Seed labels for a CC refresh after support deletions.

    Deletions can split components, so labels of components touched by
    a dropped edge are no longer trustworthy: those vertices are
    re-seeded with their own ids (a from-scratch start *local to the
    affected components*), while every untouched component keeps its
    minimal label.  No post-deletion edge connects an affected to an
    unaffected component, so relaxing the seeds over the new edge set
    (insertions included) reaches the exact min-id fixpoint."""
    endpoints = np.concatenate([dropped >> 32, dropped & 0xFFFFFFFF])
    # Labels are vertex ids, so membership in the affected-label set is
    # a plain table lookup (no np.isin hashing).
    hit = np.zeros(values.size, dtype=bool)
    hit[values[endpoints]] = True
    affected = hit[values]
    return np.where(affected, np.arange(values.size, dtype=values.dtype),
                    values)


#: Vertices one side of a :func:`_cc_split` search may visit without
#: meeting the other side or running out of edges; past it the flush
#: falls back to :func:`_cc_delete_seed` and :func:`_cc_refixpoint`.
SPLIT_SEARCH_BUDGET = 256

#: After ``m`` failed :func:`_cc_split` searches in a row, the next
#: ``2**min(m, SPLIT_BACKOFF_CAP) - 1`` deletion flushes go straight to
#: the fallback.  On a graph without hubs the searches rarely settle
#: and each costs about as much as the sweep, so they are tried ever
#: more rarely; on a power-law graph a failure is rare and costs one
#: skipped flush.
SPLIT_BACKOFF_CAP = 6


def _degrees(vertices: np.ndarray, keys: np.ndarray,
             rev: np.ndarray) -> np.ndarray:
    """Out- plus in-degree over the support of each of ``vertices``."""
    lo, hi = vertices << 32, (vertices + 1) << 32
    return (np.searchsorted(keys, hi) - np.searchsorted(keys, lo)
            + np.searchsorted(rev, hi) - np.searchsorted(rev, lo))


def _neighbours(vertices: np.ndarray, keys: np.ndarray, rev: np.ndarray,
                skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected neighbours of ``vertices`` over the support minus the
    sorted keys ``skip``: out-edges are segments of the ``(src, dst)``
    order ``keys``, in-edges segments of the ``(dst, src)`` order
    ``rev``.  Returns ``(neighbour, position in vertices)`` per edge."""
    rows, owner = _segment_rows(keys, vertices)
    back, back_owner = _segment_rows(rev, vertices)
    out_keys, in_keys = keys[rows], rev[back]
    nbr = np.concatenate([out_keys, in_keys]) & 0xFFFFFFFF
    owner = np.concatenate([owner, back_owner])
    keep = ~_sorted_member(
        skip, np.concatenate([out_keys, _swap_words(in_keys)]))
    return nbr[keep], owner[keep]


def _cc_split(values: np.ndarray, dropped: np.ndarray, added: np.ndarray,
              keys: np.ndarray, rev: np.ndarray) -> np.ndarray | None:
    """Exact CC min-labels after support deletions, found by searches
    sized to the pieces that split off; ``None`` when that cannot be
    shown within :data:`SPLIT_SEARCH_BUDGET`.

    ``values`` labels the support before the flush; ``keys``/``rev``
    are the support after it, and leaving out ``added`` gives G'', the
    old support minus ``dropped``.  The result labels G''; the caller
    then merges ``added`` with :func:`_cc_union`.

    Every dropped pair ``(u, v)`` runs a bidirectional search over G''.
    A *hub* — the dropped endpoint of highest degree — and its G''
    neighbours form a star that G'' keeps connected, so a side that
    reaches the star is *anchored* and stops; on a power-law graph most
    endpoints are in it or next to it.  All pairs advance together,
    level by level: each grows an unanchored side, the one whose
    frontier has fewer edges (then fewer visited vertices).  A pair is
    still connected when a side reaches a vertex its partner visited,
    or when both sides are anchored.  A side that runs out of new
    vertices has visited a whole component of G'' that does not hold
    its partner: a *piece*, labelled with its own minimum id.

    What is left of an old component is still connected when each
    piece's dropped edges all end on one vertex ``w`` outside every
    piece: an old path that entered a piece left it again at ``w``, so
    it shortcuts there, and every dropped edge inside the remainder
    belongs to a pair that stayed connected.  The remainder keeps its
    old label, unless that minimum id left with a piece; then it takes
    its own minimum, an O(V) pass.  A piece that ends on two vertices —
    a hinge that joined two halves — or on another piece returns
    ``None``.
    """
    low = 0xFFFFFFFF
    du, dv = dropped >> 32, dropped & low
    loop = du == dv
    du, dv = du[~loop], dv[~loop]
    if not du.size:
        return values
    root = np.column_stack([du, dv]).ravel()
    sides = root.size
    hub = root[np.argmax(_degrees(root, keys, rev))]
    star = np.zeros(values.size, dtype=bool)
    star[hub] = True
    star[_neighbours(np.array([hub]), keys, rev, added)[0]] = True
    anchored = star[root]
    done = anchored[::2] & anchored[1::2]
    # Side 2i searches from du[i] and side 2i + 1 from dv[i]; search
    # state is sorted (side << 32) | vertex keys.
    visited = (np.arange(sides, dtype=np.int64) << 32) | root
    frontier = visited[~anchored & ~np.repeat(done, 2)]
    visited = visited[~np.repeat(done, 2)]
    pieces = []
    while frontier.size:
        side = frontier >> 32
        pair = _distinct(side >> 1)
        load = np.bincount(side, _degrees(frontier & low, keys, rev),
                           minlength=sides)
        load[anchored] = np.inf
        size = np.bincount(visited >> 32, minlength=sides)
        a, b = 2 * pair, 2 * pair + 1
        chosen = np.zeros(sides, dtype=bool)
        chosen[a + ((load[b] < load[a])
                    | ((load[b] == load[a]) & (size[b] < size[a])))] = True
        grow = chosen[side]
        nbr, owner = _neighbours(frontier[grow] & low, keys, rev, added)
        found = _distinct((side[grow][owner] << 32) | nbr)
        found = found[~_sorted_member(visited, found)]
        done[found[_sorted_member(visited, found ^ (1 << 32))] >> 33] = True
        anchored[found[star[found & low]] >> 32] = True
        done |= anchored[::2] & anchored[1::2]
        spent = chosen & (np.bincount(found >> 32, minlength=sides) == 0)
        done[np.flatnonzero(spent) >> 1] = True
        if spent.any():
            pieces.append(visited[spent[visited >> 32]])
        visited = np.sort(np.concatenate([visited, found]))
        frontier = np.sort(np.concatenate([frontier[~grow], found]))
        visited = visited[~done[visited >> 33]]
        frontier = frontier[~done[frontier >> 33]
                            & ~anchored[frontier >> 32]]
        if np.bincount(visited >> 32).max(initial=0) > SPLIT_SEARCH_BUDGET:
            return None
    if not pieces:
        return values
    piece = np.concatenate(pieces)
    side, vertex = piece >> 32, piece & low
    head = np.flatnonzero(np.r_[True, side[1:] != side[:-1]])
    owner = np.full(values.size, -1, dtype=values.dtype)
    owner[vertex] = np.repeat(vertex[head], np.diff(np.r_[head, side.size]))
    pu, pv = owner[du], owner[dv]
    cross = pu != pv
    if (cross & (pu >= 0) & (pv >= 0)).any():
        return None
    inside = pu >= 0
    ends = _distinct((np.where(inside, pu, pv)[cross] << 32)
                     | np.where(inside, dv, du)[cross])
    if _distinct(ends >> 32).size < ends.size:
        return None
    labels = np.where(owner >= 0, owner, values)
    heads = np.flatnonzero((owner >= 0)
                           & (values == np.arange(values.size)))
    if heads.size:
        moved = np.zeros(values.size, dtype=bool)
        moved[heads] = True
        rest = np.flatnonzero(moved[values] & (owner < 0))
        old, first = np.unique(values[rest], return_index=True)
        labels[rest] = rest[first][np.searchsorted(old, values[rest])]
    return labels


@dataclass
class StreamStats:
    """Counters describing one engine's lifetime (mutable, additive)."""

    updates: int = 0
    queries: int = 0
    flushes: int = 0
    incremental_refreshes: int = 0
    rebuilds: int = 0
    max_pending_at_flush: int = 0
    #: pending-update count at each flush (the staleness the flush
    #: retired; feeds the CLI staleness table)
    pending_at_flush: list[int] = field(default_factory=list)


class StreamEngine:
    """Bounded-staleness ingest engine over an append-only log.

    The engine owns an :class:`UpdateLog`, whose open-edge multiset is
    the live edge state: every accepted chunk lands there at once.  The
    engine adds only the in-edge order of the support and the keys
    touched since the last refresh, and refreshes the
    published algorithm values whenever ``k`` updates are pending or a
    query arrives — so published values lag the log by at most
    ``k - 1`` updates, and a query is always answered at the current
    logical time.  BFS and CC are published at every flush; PR is
    published only by the query that reads it (see :meth:`flush`), so
    PR is never converged on a stream whose queries do not ask for it.
    """

    def __init__(self, num_vertices: int,
                 algorithms: tuple[str, ...] = MAINTAINED_ALGORITHMS,
                 k: int = DEFAULT_STALENESS_K, name: str = "stream",
                 root: int = 0) -> None:
        if k < 1:
            raise StreamError(f"staleness bound k must be >= 1, got {k}")
        unknown = [a for a in algorithms if a not in MAINTAINED_ALGORITHMS]
        if unknown:
            raise StreamError(
                f"cannot maintain {unknown}; supported: "
                f"{list(MAINTAINED_ALGORITHMS)}"
            )
        self.log = UpdateLog(num_vertices, name=name)
        self.k = int(k)
        self.root = int(root)
        self.algorithms = tuple(algorithms)
        self._algs = {
            a: BFS(root=self.root) if a == "bfs" else make_algorithm(a)
            for a in self.algorithms
        }
        self._pending = 0
        #: ``(sorted keys, was_open, is_open)`` of each chunk applied
        #: since the last value refresh, as the log's merge reported it
        self._window: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: the support packed ``(dst << 32) | src`` and sorted — the
        #: in-edge order, as of the last flush that dropped a key
        self._rev = np.empty(0, dtype=np.int64)
        #: ``(keys, was_open, is_open)`` steps of the support keys later
        #: flushes added or dropped, still to be merged into ``_rev``
        self._rev_lag: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: failed CC split searches in a row, and the deletion flushes
        #: still to skip before the next try (:data:`SPLIT_BACKOFF_CAP`)
        self._split_misses = 0
        self._split_skip = 0
        self._values: dict[str, np.ndarray] = {}
        self._values_time = -1
        self._temporal: tuple[int, TemporalGraph] | None = None
        self.stats = StreamStats()

    @classmethod
    def from_graph(cls, graph: Graph, **kwargs) -> "StreamEngine":
        """Seed an engine with a base graph as one ``t=0`` add batch."""
        kwargs.setdefault("name", f"{graph.name}-stream")
        engine = cls(graph.num_vertices, **kwargs)
        events = np.zeros((graph.num_edges, 4), dtype=np.int64)
        events[:, 2] = graph.src
        events[:, 3] = graph.dst
        engine.ingest(events)
        return engine

    # --- state -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.log.num_vertices

    @property
    def num_edges(self) -> int:
        """Edges currently alive (multiset size)."""
        return self.log.open_edges

    @property
    def logical_time(self) -> int:
        """Timestamp of the newest ingested event (-1 when empty)."""
        return self.log.last_time

    @property
    def pending(self) -> int:
        """Updates ingested since the last value refresh (< k, except
        transiently inside :meth:`ingest`)."""
        return self._pending

    @property
    def values_time(self) -> int:
        """Logical time the published values correspond to."""
        return self._values_time

    # --- ingest / flush --------------------------------------------------

    def ingest(self, updates) -> int:
        """Append + apply a batch of events; flush per the K contract.

        Accepts a packed ``(n, 4)`` int64 array (the fast path — all
        validation and state maintenance is vectorized), an
        :class:`UpdateLog`, or an iterable of :class:`Update` objects /
        ``(op, src, dst[, t])`` tuples (``t`` omitted = auto-assigned).
        Returns the number of events applied.
        """
        if isinstance(updates, UpdateLog):
            events = updates.to_arrays()
        elif isinstance(updates, np.ndarray):
            events = _packed(updates)
        else:
            rows = []
            t_prev = self.log.last_time
            for u in updates:
                if isinstance(u, Update):
                    t, op, src, dst = u.t, u.op, u.src, u.dst
                else:
                    op, src, dst, *rest = u
                    t = rest[0] if rest else None
                if op not in _OPS:
                    raise StreamError(f"unknown op {op!r} (expected add/del)")
                t = t_prev + 1 if t is None else int(t)
                t_prev = t
                rows.append((t, _OPS.index(op), int(src), int(dst)))
            events = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        applied = 0
        with get_tracer().span("stream.ingest", log=self.log.name):
            i = 0
            n = events.shape[0]
            while i < n:
                take = min(self.k - self._pending, n - i)
                # The log validates the chunk and merges it into the
                # open-edge multiset; the flush reads its per-key report.
                self._window.append(self.log._extend(events[i:i + take]))
                self._pending += take
                applied += take
                i += take
                if self._pending >= self.k:
                    self.flush()
        if applied:
            get_metrics().counter(UPDATES_APPLIED).add(applied)
            self.stats.updates += applied
        return applied

    def replay(self, log: UpdateLog) -> int:
        """Ingest every event of an existing log, timestamps preserved."""
        return self.ingest(log)

    def flush(self, query: str | None = None) -> None:
        """Refresh published values to the current logical time.

        A *contract* flush (``query=None``, run by :meth:`ingest` when
        ``k`` updates are pending) refreshes BFS and CC and is a no-op
        when nothing is pending.  BFS and CC always refresh
        incrementally (and exactly) once initialised: support-growing
        deltas merge the previous CC labels and relax BFS from the
        previous fixpoint, CC deletions label the pieces they split
        off before merging, and BFS deletions invalidate just the
        orphaned region before relaxing.  First-time initialisation
        rebuilds the canonical snapshot from scratch.  PR — a
        sum-based fixpoint with no monotone incremental rule — is not
        converged here: the flush drops its value, since no query has
        asked for it yet.

        A *query* flush (``query`` names the algorithm :meth:`query`
        is about to read, which it runs even with nothing pending)
        does the same refresh, then rebuilds the queried value if it
        is missing — a PR dropped by a contract flush, or any value
        before the first event — from the snapshot at the query's own
        instant, through the run cache, so time-sliced pricing at the
        same instant reuses the run.  Every rebuild happens here and
        counts in ``stats.rebuilds``; ``stats.flushes`` counts only
        flushes that retired pending updates.

        Cost: the support delta is the log's own per-key report for
        the pending chunks, with no probe of the support.  An
        insert-only flush merges the previous CC labels, O(added + V),
        and pushes BFS from the added edges along out-edge segments;
        it leaves the in-edge order stale.  A flush that dropped keys
        first merges into the in-edge order every key born or gone
        since the last such flush, one O(support) copy.  BFS then
        repairs just the orphaned region.  CC searches from each
        dropped pair until the pair meets, both sides reach the star
        of a high-degree endpoint, or one side is used up
        (:func:`_cc_split`), so its cost follows the pieces split off
        and the edges scanned to show the rest still connected.  Only
        a search past :data:`SPLIT_SEARCH_BUDGET`, or a piece that
        hinged two parts, falls back to re-seeding the touched
        components and sweeping the whole support; after failed
        searches the next few deletion flushes fall back without one
        (:data:`SPLIT_BACKOFF_CAP`).
        """
        t = self.logical_time
        if self._pending == 0:
            if query is not None and query not in self._values:
                with get_tracer().span("stream.flush", t=t, pending=0,
                                       log=self.log.name):
                    self._values[query] = run_cached(
                        self._algs[query], self.snapshot(t)).values
                self.stats.rebuilds += 1
            return
        with get_tracer().span("stream.flush", t=t, pending=self._pending,
                               log=self.log.name):
            live = self.log.support
            keys, was, now = _net_delta(self._window)
            changed = was != now
            if changed.any():
                lag = self._rev_lag
                lag.append((keys[changed], was[changed], now[changed]))
                # Fold the newest steps while they outgrow the one before,
                # so the lag stays a few steps long on any stream.
                while len(lag) > 1 and lag[-1][0].size >= lag[-2][0].size:
                    lag[-2:] = [_net_delta(lag[-2:])]
            dropped = keys[was & ~now]
            added = keys[now & ~was]
            # Only deletions read the in-edge order, so insert-only
            # flushes leave it stale and the next deletion merges the
            # whole lag in one step.
            rev = self._in_edge_order() if dropped.size else None
            # BFS/CC see only the edge *support*, so incremental
            # refreshes work from the added/dropped support delta and
            # the distinct-key arrays; the multiset snapshot Graph is
            # materialised lazily, only when some algorithm rebuilds.
            snapshot: Graph | None = None
            for name in self.algorithms:
                if name == "pr" and name != query:
                    # Converged only by the query that reads it.
                    self._values.pop(name, None)
                    continue
                previous = self._values.get(name)
                values = None
                if previous is not None and name == "cc":
                    values = self._try_cc_split(
                        previous, dropped, added, live, rev) \
                        if dropped.size else previous
                    if values is None:
                        values = _cc_refixpoint(
                            _cc_delete_seed(previous, dropped),
                            _RelaxEdges(live, rev))
                    else:
                        values = _cc_union(values, added)
                elif previous is not None and name == "bfs":
                    src, dst = added >> 32, added & 0xFFFFFFFF
                    values = previous
                    if dropped.size:
                        values, orphans = _bfs_delete_repair(
                            previous, dropped, live, rev)
                        rows, _ = _segment_rows(rev, orphans)
                        src = np.concatenate([src, rev[rows] & 0xFFFFFFFF])
                        dst = np.concatenate([dst, rev[rows] >> 32])
                    values = _bfs_push(values, src, dst, live)
                if values is not None:
                    self.stats.incremental_refreshes += 1
                else:
                    if snapshot is None:
                        snapshot = self.snapshot(t)
                    runner = run_vectorized if query is None else run_cached
                    values = runner(self._algs[name], snapshot).values
                    self.stats.rebuilds += 1
                self._values[name] = values
        self.stats.flushes += 1
        self.stats.pending_at_flush.append(self._pending)
        self.stats.max_pending_at_flush = max(
            self.stats.max_pending_at_flush, self._pending)
        get_metrics().counter(STALENESS_FLUSHES).add(1)
        self._values_time = t
        self._pending = 0
        self._window = []

    def _try_cc_split(self, values: np.ndarray, dropped: np.ndarray,
                      added: np.ndarray, keys: np.ndarray,
                      rev: np.ndarray) -> np.ndarray | None:
        """:func:`_cc_split`, skipped (``None``) while backing off after
        failed searches."""
        if self._split_skip:
            self._split_skip -= 1
            return None
        labels = _cc_split(values, dropped, added, keys, rev)
        self._split_misses = 0 if labels is not None \
            else self._split_misses + 1
        self._split_skip = (1 << min(self._split_misses,
                                     SPLIT_BACKOFF_CAP)) - 1
        return labels

    def _in_edge_order(self) -> np.ndarray:
        """The support in ``(dst, src)`` order: the keys born or gone
        since the last call are merged in one step."""
        if not self._rev_lag:
            return self._rev
        keys, was, now = _net_delta(self._rev_lag)
        self._rev_lag = []
        rev = self._rev
        gone = np.sort(_swap_words(keys[was & ~now]))
        if gone.size:
            rev = np.delete(rev, np.searchsorted(rev, gone))
        born = np.sort(_swap_words(keys[now & ~was]))
        if born.size:
            rev = np.insert(rev, np.searchsorted(rev, born), born)
        self._rev = rev
        return rev

    # --- queries ---------------------------------------------------------

    def snapshot(self, t: int | None = None) -> Graph:
        """Canonical :class:`Graph` alive at ``t`` (default: now).

        The current instant is served straight from the log's open-edge
        multiset (one ``np.repeat`` — no log replay); historical times
        replay the log into a :class:`TemporalGraph`.  Both produce the
        same canonical edge order and name, so the fingerprints agree.
        """
        now = self.logical_time
        t = now if t is None else int(t)
        if t == now:
            return self._snapshot_now(t)
        if self._temporal is None or self._temporal[0] != len(self.log):
            self._temporal = (len(self.log), self.log.temporal())
        return self._temporal[1].snapshot_at(t)

    def _snapshot_now(self, t: int) -> Graph:
        from ..obs.metrics import SNAPSHOTS_MATERIALIZED
        with get_tracer().span("stream.snapshot", t=t, log=self.log.name):
            keys = np.repeat(self.log.support, self.log.multiplicity)
            graph = Graph(
                self.num_vertices,
                (keys >> 32).astype(VERTEX_DTYPE),
                (keys & 0xFFFFFFFF).astype(VERTEX_DTYPE),
                name=f"{self.log.name}@t{t}",
            )
        get_metrics().counter(SNAPSHOTS_MATERIALIZED).add(1)
        return graph

    def query(self, algorithm: str) -> np.ndarray:
        """Current values for ``algorithm`` (flushes pending updates
        first, so the answer is exact at the current logical time)."""
        if algorithm not in self.algorithms:
            raise StreamError(
                f"engine does not maintain {algorithm!r} "
                f"(maintaining {list(self.algorithms)})"
            )
        self.flush(query=algorithm)
        self.stats.queries += 1
        return self._values[algorithm]


# --- throughput bench ---------------------------------------------------------


@dataclass(frozen=True)
class StreamMix:
    """One workload mix: how many updates arrive between queries."""

    name: str
    updates_per_query: int


#: Ingest-dominated mix (queries are rare checkpoints).
UPDATE_HEAVY = StreamMix("update-heavy", 500)
#: Query-dominated mix (dashboards polling a live graph).
READ_HEAVY = StreamMix("read-heavy", 25)


@dataclass(frozen=True)
class StreamThroughputResult:
    """Sustained ingest throughput under one update/query mix."""

    mix: str
    num_updates: int
    num_queries: int
    flushes: int
    incremental_refreshes: int
    rebuilds: int
    engine_seconds: float
    serial_seconds: float

    @property
    def updates_per_second(self) -> float:
        return self.num_updates / self.engine_seconds \
            if self.engine_seconds > 0 else float("inf")

    @property
    def speedup_vs_serial(self) -> float:
        """How much faster the concurrent engine path answered the same
        update + query schedule than serial replay (>1 = faster)."""
        return self.serial_seconds / self.engine_seconds \
            if self.engine_seconds > 0 else float("inf")


def _serial_rebuild(events: np.ndarray, prefix: int, num_vertices: int
                    ) -> Graph:
    """From-scratch graph at ``events[:prefix]`` (the serial baseline)."""
    head = events[:prefix]
    keys = (head[:, 2] << 32) | head[:, 3]
    delta = np.where(head[:, 1] == 0, 1, -1)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    net = np.zeros(unique_keys.size, dtype=np.int64)
    np.add.at(net, inverse, delta)
    keys = np.repeat(unique_keys, np.maximum(net, 0))
    return Graph(num_vertices,
                 (keys >> 32).astype(VERTEX_DTYPE),
                 (keys & 0xFFFFFFFF).astype(VERTEX_DTYPE),
                 name=f"serial@{prefix}")


def measure_stream(log: UpdateLog, mix: StreamMix,
                   k: int | None = None,
                   algorithms: tuple[str, ...] = ("cc", "bfs"),
                   root: int = 0) -> StreamThroughputResult:
    """Time one mix through the engine and through serial replay.

    The engine path ingests the log with a query for every maintained
    algorithm each ``mix.updates_per_query`` updates (concurrent
    pricing queries); ``k`` defaults to the query period, so the
    staleness bound and the query cadence coincide.  The serial
    baseline replays the log prefix from scratch at every query point
    and re-runs each algorithm fresh.  Final answers from both paths
    are checked for exact agreement, so the bench doubles as an
    end-to-end conformance check.
    """
    k = mix.updates_per_query if k is None else k
    events = log.to_arrays()
    query_points = list(range(mix.updates_per_query, len(log) + 1,
                              mix.updates_per_query))
    if not query_points or query_points[-1] != len(log):
        query_points.append(len(log))

    t0 = time.perf_counter()
    engine = StreamEngine(log.num_vertices, algorithms=algorithms, k=k,
                          name=log.name, root=root)
    done = 0
    engine_answers: dict[str, np.ndarray] = {}
    for point in query_points:
        engine.ingest(events[done:point])
        done = point
        for a in algorithms:
            engine_answers[a] = engine.query(a)
    engine_seconds = time.perf_counter() - t0

    algs = {a: BFS(root=root) if a == "bfs" else make_algorithm(a)
            for a in algorithms}
    t0 = time.perf_counter()
    serial_answers: dict[str, np.ndarray] = {}
    # The serial system consumes the same feed, so it pays the same
    # durable-log maintenance (validated appends) the engine pays;
    # only the query-answering strategy differs (full replay+rerun).
    serial_log = UpdateLog(log.num_vertices, name=f"{log.name}-serial")
    done = 0
    for prefix in query_points:
        serial_log.extend_arrays(events[done:prefix])
        done = prefix
        graph = _serial_rebuild(events, prefix, log.num_vertices)
        for a in algorithms:
            serial_answers[a] = run_vectorized(algs[a], graph).values
    serial_seconds = time.perf_counter() - t0

    for a in algorithms:
        ours, theirs = engine_answers[a], serial_answers[a]
        exact = ours.dtype.kind in "iu"
        same = np.array_equal(ours, theirs) if exact else np.allclose(
            ours, theirs, rtol=1e-12, atol=1e-12)
        if not same:
            raise StreamError(
                f"stream bench diverged: engine vs serial {a} values "
                f"differ at t={log.last_time}"
            )

    return StreamThroughputResult(
        mix=mix.name,
        num_updates=len(log),
        num_queries=len(query_points) * len(algorithms),
        flushes=engine.stats.flushes,
        incremental_refreshes=engine.stats.incremental_refreshes,
        rebuilds=engine.stats.rebuilds,
        engine_seconds=engine_seconds,
        serial_seconds=serial_seconds,
    )
