"""Temporal edge semantics: validity intervals and time snapshots.

The journal version of HyVE evolves graphs continuously; this module
gives the reproduction the *temporal* half of that story.  Every edge
carries a half-open validity interval ``[start, end)`` in logical time:
an ``add`` event at time ``t`` opens an interval ``[t, OPEN_END)``, and
a ``del`` event at time ``t`` closes the **oldest still-open** instance
of that edge (FIFO), turning it into ``[t_add, t_del)``.  The FIFO rule
makes replay deterministic even for multi-edges: deleting one of three
parallel ``(u, v)`` edges always closes the earliest-opened one.

:meth:`TemporalGraph.snapshot_at` materialises the graph alive at one
instant as an ordinary immutable :class:`~repro.graph.graph.Graph`.
Snapshots are **canonical**: edges are sorted by ``(src, dst)`` and the
name is a pure function of the log name and the query time, so
``snapshot_at(t).fingerprint()`` is identical no matter how the log was
chunked or how commutative events were ordered on the way in.  That
fingerprint keys the existing run cache, which is what lets time-sliced
pricing compose with :func:`~repro.arch.machine.fold_many` /
``run_grid`` for free — price one snapshot, and every later query at
the same logical time is a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import StreamError
from ..graph.graph import VERTEX_DTYPE, Graph
from ..obs.metrics import SNAPSHOTS_MATERIALIZED, get_metrics
from ..obs.trace import get_tracer

#: Sentinel ``end`` for an interval that is still open ("until further
#: notice").  ``snapshot_at`` treats it as +infinity.
OPEN_END = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TemporalEdge:
    """One edge with a half-open validity interval ``[start, end)``."""

    src: int
    dst: int
    start: int
    end: int = OPEN_END

    def alive_at(self, t: int) -> bool:
        return self.start <= t < self.end


class TemporalGraph:
    """An interval-edge graph supporting canonical time snapshots.

    The edge set is stored as four parallel int64 arrays
    (``src``/``dst``/``start``/``end``) sorted lexicographically by
    ``(src, dst, start)`` — the canonical order.  Construction sorts
    once; snapshots are then a vectorized mask plus a cached
    :class:`Graph`.
    """

    def __init__(self, num_vertices: int, src, dst, start, end,
                 name: str = "temporal") -> None:
        src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        start = np.ascontiguousarray(start, dtype=np.int64)
        end = np.ascontiguousarray(end, dtype=np.int64)
        if not (src.shape == dst.shape == start.shape == end.shape):
            raise StreamError("temporal edge arrays must share one length")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_vertices:
                raise StreamError(
                    f"vertex ids must lie in [0, {num_vertices}), "
                    f"found [{lo}, {hi}]"
                )
            if np.any(start >= end):
                bad = int(np.argmax(start >= end))
                raise StreamError(
                    f"edge {int(src[bad])}->{int(dst[bad])} has an empty "
                    f"interval [{int(start[bad])}, {int(end[bad])})"
                )
        order = np.lexsort((start, dst, src))
        self.num_vertices = int(num_vertices)
        self.name = name
        self.src = src[order]
        self.dst = dst[order]
        self.start = start[order]
        self.end = end[order]
        self._snapshots: dict[int, Graph] = {}

    # --- construction ----------------------------------------------------

    @classmethod
    def from_intervals(cls, num_vertices: int, edges, name: str = "temporal"
                       ) -> "TemporalGraph":
        """Build from an iterable of :class:`TemporalEdge` (or 4-tuples)."""
        rows = [(e.src, e.dst, e.start, e.end)
                if isinstance(e, TemporalEdge) else tuple(e) for e in edges]
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        return cls(num_vertices, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
                   name=name)

    @classmethod
    def from_log(cls, log: "UpdateLog") -> "TemporalGraph":  # noqa: F821
        """Replay an update log into validity intervals (FIFO deletes).

        FIFO pairing means the j-th ``del`` of a key closes the j-th
        ``add`` of that key (the log's append-time validation guarantees
        that add exists and comes first), so after a stable sort by key
        both sides are paired by rank.  Rows come out in add order; an
        edge added and deleted at the same logical instant has a
        zero-width interval, is never visible, and is dropped.
        """
        t, op, src, dst = log.to_arrays().T
        keys = (src << 32) | dst
        adds = np.flatnonzero(op == 0)
        dels = np.flatnonzero(op == 1)
        adds_by_key = adds[np.argsort(keys[adds], kind="stable")]
        dels_by_key = dels[np.argsort(keys[dels], kind="stable")]
        add_keys = keys[adds_by_key]
        del_keys = keys[dels_by_key]
        # Rank of each del among the dels of its key, added to the first
        # add of that key, is the slot of the add it closes.
        rank = np.arange(del_keys.size) - np.searchsorted(del_keys, del_keys)
        slot = np.searchsorted(add_keys, del_keys) + rank
        end = np.full(t.size, OPEN_END, dtype=np.int64)
        end[adds_by_key[slot]] = t[dels_by_key]
        keep = adds[t[adds] != end[adds]]
        return cls(log.num_vertices, src[keep], dst[keep], t[keep],
                   end[keep], name=log.name)

    # --- queries ---------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Number of stored validity intervals (edge instances)."""
        return int(self.src.size)

    def event_times(self) -> np.ndarray:
        """Sorted distinct logical times at which the edge set changes."""
        closed = self.end[self.end != OPEN_END]
        return np.unique(np.concatenate([self.start, closed]))

    def active_count_at(self, t: int) -> int:
        """Number of edges alive at logical time ``t``."""
        return int(np.count_nonzero((self.start <= t) & (t < self.end)))

    def snapshot_at(self, t: int, base_name: str | None = None) -> Graph:
        """The :class:`Graph` alive at logical time ``t`` (canonical).

        The result is memoised per ``t``; its name is
        ``f"{base_name or self.name}@t{t}"``, so its ``fingerprint()``
        is a pure function of (log content alive at ``t``, ``t``) and
        keys the run cache deterministically.
        """
        t = int(t)
        cached = self._snapshots.get(t)
        if cached is not None:
            return cached
        with get_tracer().span("stream.snapshot", t=t, log=self.name):
            mask = (self.start <= t) & (t < self.end)
            graph = Graph(
                self.num_vertices,
                self.src[mask],
                self.dst[mask],
                name=f"{base_name or self.name}@t{t}",
            )
        get_metrics().counter(SNAPSHOTS_MATERIALIZED).add(1)
        self._snapshots[t] = graph
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TemporalGraph(name={self.name!r}, "
                f"num_vertices={self.num_vertices}, "
                f"intervals={self.num_intervals})")


@dataclass(frozen=True)
class TimeSlice:
    """One priced span of a temporal sweep: ``[start, end)`` plus the
    :class:`~repro.arch.report.EnergyReport` of the snapshot that was
    alive over it."""

    start: int
    end: int
    report: "EnergyReport" = field(repr=False)  # noqa: F821

    @property
    def width(self) -> int:
        return self.end - self.start
