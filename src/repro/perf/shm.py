"""Shared-memory graph handoff for process-pool fan-out.

Pickling a :class:`~repro.graph.graph.Graph` into every pool task
serialises its edge arrays once *per task* — the reason ``--jobs 4``
used to lose to serial execution.  This module publishes a graph's
arrays into named ``multiprocessing.shared_memory`` segments exactly
once and hands workers a tiny picklable :class:`SharedGraphRef`;
workers attach to the segments (zero-copy) and memoise the attached
graph per fingerprint, so ``run_selected(jobs=N)`` ships ~100 bytes
per task instead of a copy of every edge list.

Ownership and lifecycle (see docs/performance.md):

* The *publishing* process owns the segments.  ``share_graph`` keys
  them by :meth:`Graph.fingerprint`, so re-publishing the same graph
  reuses the live segments instead of leaking new ones.
* Workers only ever *attach*; an attached graph holds its segments
  open for the worker's lifetime (the arrays view the mapped buffers
  directly).  A worker dying mid-task cannot corrupt or free a
  segment: the kernel releases its mapping and the owner's segments
  survive it.
* ``release_graph`` / ``release_all`` close **and unlink** owned
  segments; ``release_all`` also runs via ``atexit`` in the owner, so
  a normal interpreter exit never leaks ``/dev/shm`` entries.
* Everything degrades gracefully: if shared memory is unavailable or
  creation fails (``/dev/shm`` full, exotic platforms),
  ``share_graph`` returns ``None`` and callers fall back to pickling
  the graph itself — behaviour and results are identical either way.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass

import numpy as np

from ..graph.graph import VERTEX_DTYPE, Graph
from ..graph.shards import ShardedGraphRef, attach_sharded_graph
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer

try:  # pragma: no cover - stdlib, but gate for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


@dataclass(frozen=True)
class SharedGraphRef:
    """Picklable handle to a graph published in shared memory.

    Carries segment names plus the metadata needed to rebuild the
    :class:`Graph` on the attaching side without copying: workers map
    the segments and wrap them in (read-only) numpy views.
    """

    fingerprint: str
    graph_name: str
    num_vertices: int
    num_edges: int
    src_segment: str
    dst_segment: str
    weights_segment: str | None


#: Owner-side registry: fingerprint -> (ref, live segments).
_OWNED: dict[str, tuple[SharedGraphRef, list]] = {}

#: Worker-side memo: fingerprint -> (attached Graph, live segments).
#: Keeping the SharedMemory objects referenced pins the buffers the
#: numpy views alias.
_ATTACHED: dict[str, tuple[Graph, list]] = {}

_ATEXIT_REGISTERED = False


def shared_memory_available() -> bool:
    """Whether this platform can publish shared-memory segments."""
    return _shared_memory is not None


def _segment_of(array: np.ndarray, name_hint: str):
    """Copy ``array`` into a fresh shared-memory segment."""
    seg = _shared_memory.SharedMemory(
        create=True, size=max(array.nbytes, 1), name=name_hint
    )
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
    view[:] = array
    return seg


def share_graph(graph: Graph) -> "SharedGraphRef | ShardedGraphRef | None":
    """Publish ``graph``'s arrays into shared memory (idempotent).

    Returns a picklable :class:`SharedGraphRef`, or ``None`` when
    shared memory is unavailable or segment creation fails — the
    caller then ships the graph by pickle as before.  Re-sharing a
    graph with the same fingerprint returns the existing ref.

    A graph backed by an on-disk shard store
    (:meth:`repro.graph.shards.ShardStore.as_graph`) is handed off as a
    :class:`~repro.graph.shards.ShardedGraphRef` instead — the store's
    files are already a shared mappable medium, so no segments are
    created and nothing has to fit in ``/dev/shm``.
    """
    global _ATEXIT_REGISTERED
    manifest = getattr(graph, "_shard_manifest", None)
    if manifest is not None:
        # Shard-backed graphs already live on disk in a mappable form;
        # workers memory-map the same files instead of a /dev/shm copy
        # (which a paper-scale edge list would not fit in anyway).
        return ShardedGraphRef(
            directory=manifest,
            fingerprint=graph.fingerprint(),
            graph_name=graph.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
    if _shared_memory is None:
        return None
    fingerprint = graph.fingerprint()
    owned = _OWNED.get(fingerprint)
    if owned is not None:
        return owned[0]
    base = f"repro-{fingerprint[:16]}-{os.getpid()}"
    segments: list = []
    try:
        src_seg = _segment_of(graph.src, f"{base}-s")
        segments.append(src_seg)
        dst_seg = _segment_of(graph.dst, f"{base}-d")
        segments.append(dst_seg)
        weights_seg = None
        if graph.weights is not None:
            weights_seg = _segment_of(graph.weights, f"{base}-w")
            segments.append(weights_seg)
    except (OSError, ValueError, FileExistsError):
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
        return None
    ref = SharedGraphRef(
        fingerprint=fingerprint,
        graph_name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        src_segment=src_seg.name,
        dst_segment=dst_seg.name,
        weights_segment=None if weights_seg is None else weights_seg.name,
    )
    _OWNED[fingerprint] = (ref, segments)
    if not _ATEXIT_REGISTERED:
        atexit.register(release_all)
        _ATEXIT_REGISTERED = True
    return ref


def _attach_array(segment_name: str, count: int, dtype) -> tuple:
    seg = _shared_memory.SharedMemory(name=segment_name)
    array = np.ndarray((count,), dtype=dtype, buffer=seg.buf)
    array.flags.writeable = False
    return array, seg


def attach_graph(ref: SharedGraphRef) -> Graph:
    """Attach to a published graph (memoised per fingerprint).

    The returned graph's arrays are read-only views over the shared
    segments — no copy is made.  Safe in the owning process too (a
    serial fallback after repeated pool failures simply maps its own
    segments a second time).
    """
    memo = _ATTACHED.get(ref.fingerprint)
    if memo is not None:
        return memo[0]
    with get_tracer().span("shm.attach", fingerprint=ref.fingerprint[:16],
                           edges=ref.num_edges):
        src, src_seg = _attach_array(
            ref.src_segment, ref.num_edges, VERTEX_DTYPE
        )
        dst, dst_seg = _attach_array(
            ref.dst_segment, ref.num_edges, VERTEX_DTYPE
        )
        segments = [src_seg, dst_seg]
        weights = None
        if ref.weights_segment is not None:
            weights, w_seg = _attach_array(
                ref.weights_segment, ref.num_edges, np.float64
            )
            segments.append(w_seg)
        graph = Graph(ref.num_vertices, src, dst, weights,
                      name=ref.graph_name)
    obs_metrics.get_metrics().counter(
        obs_metrics.SHM_GRAPHS_ATTACHED
    ).add()
    _ATTACHED[ref.fingerprint] = (graph, segments)
    return graph


def resolve_graph(obj: "SharedGraphRef | ShardedGraphRef | Graph") -> Graph:
    """Worker-side: turn a task payload back into a :class:`Graph`.

    Accepts a :class:`SharedGraphRef` (the shared-memory path), a
    :class:`~repro.graph.shards.ShardedGraphRef` (the on-disk
    memory-mapped path), or a plain :class:`Graph` (the pickling
    fallback), so dispatch sites can pass whatever ``share_graph``
    gave them.
    """
    if isinstance(obj, SharedGraphRef):
        return attach_graph(obj)
    if isinstance(obj, ShardedGraphRef):
        return attach_sharded_graph(obj)
    return obj


@dataclass(frozen=True)
class SharedWorkloadRef:
    """Picklable handle to a workload whose graph lives out of band —
    in shared memory (:class:`SharedGraphRef`) or in an on-disk shard
    store (:class:`~repro.graph.shards.ShardedGraphRef`)."""

    graph_ref: "SharedGraphRef | ShardedGraphRef"
    reported_vertices: int | None
    reported_edges: int | None


def share_workload(workload) -> "SharedWorkloadRef | object":
    """Publish a workload's graph; fall back to the workload itself.

    Returns a tiny :class:`SharedWorkloadRef` when the graph could be
    published, or ``workload`` unchanged when shared memory is
    unavailable — dispatch sites ship the return value either way and
    workers call :func:`resolve_workload` on it.
    """
    ref = share_graph(workload.graph)
    if ref is None:
        return workload
    return SharedWorkloadRef(
        graph_ref=ref,
        reported_vertices=workload.reported_vertices,
        reported_edges=workload.reported_edges,
    )


def resolve_workload(obj):
    """Worker-side: rebuild a Workload from a task payload."""
    if isinstance(obj, SharedWorkloadRef):
        from ..arch.config import Workload

        return Workload(
            graph=resolve_graph(obj.graph_ref),
            reported_vertices=obj.reported_vertices,
            reported_edges=obj.reported_edges,
        )
    return obj


def release_graph(fingerprint: str) -> bool:
    """Close and unlink one owned graph's segments; True if it existed.

    Also drops any local attach memo for the fingerprint (the owner
    may have attached through :func:`resolve_graph` during a serial
    fallback).
    """
    detached = _ATTACHED.pop(fingerprint, None)
    if detached is not None:
        _, segments = detached
        for seg in segments:
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
    owned = _OWNED.pop(fingerprint, None)
    if owned is None:
        return detached is not None
    _, segments = owned
    for seg in segments:
        try:
            seg.close()
            seg.unlink()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
    return True


def release_all() -> None:
    """Release every owned segment and drop all attach memos."""
    for fingerprint in list(_ATTACHED) + list(_OWNED):
        release_graph(fingerprint)


def owned_fingerprints() -> list[str]:
    """Fingerprints currently published by this process (tests)."""
    return sorted(_OWNED)
