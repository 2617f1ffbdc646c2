"""Out-of-core sharded edge storage: write once, memory-map, stream.

HyVE's edge memory is written once at preprocessing time and then only
ever streamed sequentially (Section 3.4).  This module gives the
reproduction the same discipline on disk, which is what lets graphs at
the paper's *actual* scales (live-journal: 4.85M vertices / 69M edges)
run end-to-end on one box — the full edge list never has to fit in
memory, only one shard plus the O(V) value arrays.

A **shard store** is a directory holding

* ``src.i64`` / ``dst.i64`` (plus ``weights.f64`` for weighted graphs)
  — the raw little-endian edge arrays in stream order, written
  sequentially exactly once;
* ``manifest.json`` — the commit point, written last via an atomic
  rename: schema tag, graph name and sizes, the whole-graph content
  fingerprint (bit-identical to :meth:`~repro.graph.graph.Graph
  .fingerprint` because it hashes the same byte stream), and one
  record per shard (edge range, vertex id range, checksum).

Shards are contiguous edge ranges in stream order — no permutation —
so :meth:`ShardStore.as_graph` is a zero-copy ``numpy`` memmap view
and round-trips the fingerprint exactly, which keeps every existing
content-addressed cache key (runs, scalars, schedule counts) valid for
sharded graphs.  A directory without a committed manifest, a torn
manifest, or data files shorter than the manifest promises are all
rejected with :class:`~repro.errors.ShardError`.

Two executors ride on the store:

* :func:`run_sharded` — the out-of-core analogue of
  :func:`~repro.algorithms.runner.run_vectorized`: per iteration it
  streams shard slices through ``process_edges``, so peak memory is
  O(values + one shard).  Results are bit-identical for the min-based
  algorithms and within the repo's 1e-12 accumulation policy for the
  sum-based ones (same contract as ``run_blocked``).
* :func:`sharded_scheduled_counts` — whole-graph
  :class:`~repro.arch.scheduler.ScheduleCounts` from per-shard
  partials.  The partials are *integers* (edge counts and
  reference-partition block histograms), merge by exact summation, and
  feed the unchanged analytic pipeline, so the merged counts are
  bit-identical to the in-memory path by construction and land in the
  run cache under the same counts key.

See docs/scaling.md for the format specification, the memory-budget
model and a worked end-to-end example.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..errors import ShardError
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .graph import Graph, VERTEX_DTYPE
from .hash_partition import (_DEFAULT_MULTIPLIER, _coprime_multiplier,
                             imbalance_from_block_counts)
from .partition import _even_interval_of
from .rmat_stream import rmat_stream

#: Manifest schema tag; bump on any incompatible layout change.
SHARD_SCHEMA = "hyve-shards-v1"

#: Default edges per shard (4 Mi edges = 64 MiB of src+dst).
DEFAULT_SHARD_EDGES = 1 << 22

#: Bytes per read while hashing data files incrementally.
_HASH_BLOCK = 8 << 20

_MANIFEST_NAME = "manifest.json"
_SRC_NAME = "src.i64"
_DST_NAME = "dst.i64"
_WEIGHTS_NAME = "weights.f64"

_VERTEX_DTYPE_STR = np.dtype(VERTEX_DTYPE).str
_WEIGHT_DTYPE_STR = np.dtype(np.float64).str


@dataclass(frozen=True)
class ShardMeta:
    """One shard's manifest record.

    Attributes:
        index: position in the store (shards are contiguous).
        start: first edge offset (inclusive).
        stop: one past the last edge offset.
        min_vertex: smallest vertex id in the shard (-1 when empty).
        max_vertex: largest vertex id in the shard (-1 when empty).
        checksum: digest over the shard's src/dst(/weight) bytes.
    """

    index: int
    start: int
    stop: int
    min_vertex: int
    max_vertex: int
    checksum: str

    @property
    def num_edges(self) -> int:
        return self.stop - self.start


def _shard_bounds(num_edges: int, shard_edges: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) edge ranges of every shard."""
    return [(lo, min(lo + shard_edges, num_edges))
            for lo in range(0, num_edges, shard_edges)]


def _section_digests(
    path: Path,
    bounds: list[tuple[int, int]],
    itemsize: int,
    whole: "hashlib._Hash",
) -> list[bytes]:
    """Per-shard digests of one data file, feeding ``whole`` en route.

    Reads the file once, sequentially, in :data:`_HASH_BLOCK` pieces;
    ``whole`` sees the exact byte stream :meth:`Graph.fingerprint`
    would hash for this array.
    """
    digests: list[bytes] = []
    with open(path, "rb") as handle:
        for start, stop in bounds:
            h = hashlib.blake2b(digest_size=16)
            remaining = (stop - start) * itemsize
            while remaining:
                block = handle.read(min(remaining, _HASH_BLOCK))
                if not block:
                    raise ShardError(
                        f"{path}: file ends {remaining} byte(s) short of "
                        "the manifest's edge count"
                    )
                h.update(block)
                whole.update(block)
                remaining -= len(block)
            digests.append(h.digest())
        if handle.read(1):
            raise ShardError(
                f"{path}: file is longer than the manifest's edge count"
            )
    return digests


class ShardWriter:
    """Sequential, write-once author of a shard store.

    Append edge chunks in stream order (chunk boundaries need not align
    with shard boundaries), then call :meth:`finish` — which hashes the
    data files, and only then commits the manifest via an atomic
    rename.  A crash before :meth:`finish` leaves a directory without a
    manifest, which :meth:`ShardStore.open` rejects; re-running the
    writer over such a directory truncates and rewrites it.  A
    directory that already holds a *committed* manifest is refused —
    shard stores are write-once by contract.
    """

    def __init__(
        self,
        directory: str | Path,
        num_vertices: int,
        *,
        name: str = "sharded",
        shard_edges: int = DEFAULT_SHARD_EDGES,
        weighted: bool = False,
    ) -> None:
        if num_vertices < 0:
            raise ShardError(f"negative vertex count: {num_vertices}")
        if shard_edges < 1:
            raise ShardError(f"shard_edges must be >= 1, got {shard_edges}")
        self.directory = Path(directory)
        if (self.directory / _MANIFEST_NAME).exists():
            raise ShardError(
                f"{self.directory}: already holds a committed shard store "
                "(write-once: delete the directory to regenerate)"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.num_vertices = int(num_vertices)
        self.name = name
        self.shard_edges = int(shard_edges)
        self.weighted = bool(weighted)
        self._edges = 0
        self._finished = False
        self._min: list[int] = []
        self._max: list[int] = []
        self._src = open(self.directory / _SRC_NAME, "wb")
        self._dst = open(self.directory / _DST_NAME, "wb")
        self._weights = (open(self.directory / _WEIGHTS_NAME, "wb")
                         if weighted else None)

    # --- context manager -------------------------------------------------

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # No implicit commit: an abandoned writer leaves no manifest,
        # so the directory stays visibly uncommitted.
        self._close_data()

    def _close_data(self) -> None:
        for handle in (self._src, self._dst, self._weights):
            if handle is not None and not handle.closed:
                handle.close()

    # --- writing ---------------------------------------------------------

    def append(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Write one chunk of edges (any size, including zero)."""
        if self._finished:
            raise ShardError("writer already finished (write-once)")
        src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ShardError(
                f"src/dst must be equal-length 1-D arrays, got "
                f"{src.shape} vs {dst.shape}"
            )
        if self.weighted != (weights is not None):
            raise ShardError(
                "weighted store needs weights on every chunk"
                if self.weighted else
                "unweighted store got a weights chunk"
            )
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise ShardError(
                    f"weights length {weights.size} != chunk edge count "
                    f"{src.size}"
                )
        if src.size:
            lo = int(min(src.min(), dst.min()))
            hi = int(max(src.max(), dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise ShardError(
                    f"vertex ids must lie in [0, {self.num_vertices}), "
                    f"chunk has range [{lo}, {hi}]"
                )
            self._update_ranges(src, dst)
        self._src.write(src.tobytes())
        self._dst.write(dst.tobytes())
        if weights is not None:
            self._weights.write(weights.tobytes())
        self._edges += int(src.size)

    def _update_ranges(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Fold a chunk's per-shard vertex ranges into the running stats."""
        e0 = self._edges
        e1 = e0 + src.size
        first = e0 // self.shard_edges
        last = (e1 - 1) // self.shard_edges
        while len(self._min) <= last:
            self._min.append(-1)
            self._max.append(-1)
        for k in range(first, last + 1):
            piece = slice(max(k * self.shard_edges, e0) - e0,
                          min((k + 1) * self.shard_edges, e1) - e0)
            lo = int(min(src[piece].min(), dst[piece].min()))
            hi = int(max(src[piece].max(), dst[piece].max()))
            self._min[k] = lo if self._min[k] < 0 else min(self._min[k], lo)
            self._max[k] = max(self._max[k], hi)

    def finish(self) -> "ShardStore":
        """Hash the data, commit the manifest, and open the store.

        The manifest is the commit point: data files are flushed and
        fsynced first, the manifest is written to a temporary file and
        atomically renamed last, so a reader either sees a complete
        store or no store at all.
        """
        if self._finished:
            raise ShardError("writer already finished (write-once)")
        self._finished = True
        for handle in (self._src, self._dst, self._weights):
            if handle is not None:
                handle.flush()
                os.fsync(handle.fileno())
        self._close_data()
        bounds = _shard_bounds(self._edges, self.shard_edges)
        tracer = get_tracer()
        with tracer.span("shard.write", graph=self.name,
                         edges=self._edges, shards=len(bounds)):
            whole = hashlib.blake2b(digest_size=16)
            whole.update(f"{self.name}|{self.num_vertices}|".encode())
            itemsize = np.dtype(VERTEX_DTYPE).itemsize
            src_digests = _section_digests(
                self.directory / _SRC_NAME, bounds, itemsize, whole)
            dst_digests = _section_digests(
                self.directory / _DST_NAME, bounds, itemsize, whole)
            weight_digests: list[bytes] | None = None
            if self.weighted:
                weight_digests = _section_digests(
                    self.directory / _WEIGHTS_NAME, bounds, 8, whole)
            shards = []
            for i, (start, stop) in enumerate(bounds):
                h = hashlib.blake2b(digest_size=16)
                h.update(src_digests[i])
                h.update(dst_digests[i])
                if weight_digests is not None:
                    h.update(weight_digests[i])
                shards.append({
                    "index": i,
                    "start": start,
                    "stop": stop,
                    "min_vertex": self._min[i] if i < len(self._min) else -1,
                    "max_vertex": self._max[i] if i < len(self._max) else -1,
                    "checksum": h.hexdigest(),
                })
            manifest = {
                "schema": SHARD_SCHEMA,
                "name": self.name,
                "num_vertices": self.num_vertices,
                "num_edges": self._edges,
                "weighted": self.weighted,
                "vertex_dtype": _VERTEX_DTYPE_STR,
                "weight_dtype": _WEIGHT_DTYPE_STR if self.weighted else None,
                "fingerprint": whole.hexdigest(),
                "shard_edges": self.shard_edges,
                "files": {
                    "src": _SRC_NAME,
                    "dst": _DST_NAME,
                    "weights": _WEIGHTS_NAME if self.weighted else None,
                },
                "shards": shards,
            }
            tmp = self.directory / (_MANIFEST_NAME + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.directory / _MANIFEST_NAME)
        return ShardStore.open(self.directory)


class ShardStore:
    """A committed, memory-mapped shard store (read-only).

    Construct via :meth:`open`; every access to edge data goes through
    ``numpy`` memmaps, so resident memory stays bounded by the page
    cache no matter how large the graph is.
    """

    def __init__(self, directory: Path, manifest: dict,
                 shards: list[ShardMeta]) -> None:
        self.directory = directory
        self._manifest = manifest
        self.shards = shards
        self._arrays: tuple | None = None
        self._graph: Graph | None = None

    # --- opening ---------------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> "ShardStore":
        """Open and validate a committed store.

        Raises :class:`ShardError` for anything short of a complete,
        self-consistent store: missing or torn manifest, wrong schema,
        non-contiguous shard ranges, or data files whose size disagrees
        with the manifest's edge count.
        """
        directory = Path(directory)
        mpath = directory / _MANIFEST_NAME
        if not mpath.is_file():
            raise ShardError(
                f"{directory}: no {_MANIFEST_NAME} — not a shard store, or "
                "an interrupted write (the manifest is committed last)"
            )
        try:
            manifest = json.loads(mpath.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ShardError(
                f"{mpath}: torn or truncated manifest ({exc})"
            ) from exc
        if not isinstance(manifest, dict):
            raise ShardError(f"{mpath}: manifest is not a JSON object")
        schema = manifest.get("schema")
        if schema != SHARD_SCHEMA:
            raise ShardError(
                f"{mpath}: unsupported schema {schema!r} "
                f"(expected {SHARD_SCHEMA!r})"
            )
        try:
            num_vertices = int(manifest["num_vertices"])
            num_edges = int(manifest["num_edges"])
            weighted = bool(manifest["weighted"])
            fingerprint = str(manifest["fingerprint"])
            shard_edges = int(manifest["shard_edges"])
            vertex_dtype = manifest["vertex_dtype"]
            raw_shards = manifest["shards"]
            manifest["name"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"{mpath}: malformed manifest ({exc})") from exc
        if vertex_dtype != _VERTEX_DTYPE_STR:
            raise ShardError(
                f"{mpath}: vertex dtype {vertex_dtype!r} does not match "
                f"this platform's {_VERTEX_DTYPE_STR!r} (stores are not "
                "portable across endianness)"
            )
        if num_vertices < 0 or num_edges < 0 or shard_edges < 1:
            raise ShardError(f"{mpath}: negative sizes in manifest")
        shards: list[ShardMeta] = []
        expected = _shard_bounds(num_edges, shard_edges)
        if not isinstance(raw_shards, list) \
                or len(raw_shards) != len(expected):
            raise ShardError(
                f"{mpath}: manifest lists "
                f"{len(raw_shards) if isinstance(raw_shards, list) else '?'} "
                f"shard(s), layout implies {len(expected)}"
            )
        for i, record in enumerate(raw_shards):
            try:
                meta = ShardMeta(
                    index=int(record["index"]),
                    start=int(record["start"]),
                    stop=int(record["stop"]),
                    min_vertex=int(record["min_vertex"]),
                    max_vertex=int(record["max_vertex"]),
                    checksum=str(record["checksum"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ShardError(
                    f"{mpath}: malformed shard record {i} ({exc})"
                ) from exc
            if meta.index != i or (meta.start, meta.stop) != expected[i]:
                raise ShardError(
                    f"{mpath}: shard {i} covers [{meta.start}, {meta.stop}) "
                    f"but the layout implies {list(expected[i])}"
                )
            shards.append(meta)
        itemsize = np.dtype(VERTEX_DTYPE).itemsize
        checks = [(_SRC_NAME, itemsize), (_DST_NAME, itemsize)]
        if weighted:
            checks.append((_WEIGHTS_NAME, 8))
        for fname, size in checks:
            fpath = directory / fname
            if not fpath.is_file():
                raise ShardError(f"{directory}: missing data file {fname}")
            actual = fpath.stat().st_size
            if actual != num_edges * size:
                raise ShardError(
                    f"{fpath}: truncated data file — {actual} byte(s), "
                    f"manifest implies {num_edges * size}"
                )
        return cls(directory, manifest, shards)

    # --- metadata --------------------------------------------------------

    @property
    def name(self) -> str:
        return self._manifest["name"]

    @property
    def num_vertices(self) -> int:
        return int(self._manifest["num_vertices"])

    @property
    def num_edges(self) -> int:
        return int(self._manifest["num_edges"])

    @property
    def weighted(self) -> bool:
        return bool(self._manifest["weighted"])

    @property
    def fingerprint(self) -> str:
        """Whole-graph content digest, equal to
        :meth:`Graph.fingerprint` of the materialised graph."""
        return self._manifest["fingerprint"]

    @property
    def shard_edges(self) -> int:
        return int(self._manifest["shard_edges"])

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def max_shard_edges(self) -> int:
        """Largest shard (the streaming chunk the memory budget sees)."""
        return max((s.num_edges for s in self.shards), default=0)

    def memory_budget(self, value_bytes_per_vertex: int = 8) -> dict:
        """Resident-memory model of a sharded run (docs/scaling.md).

        Streaming holds the O(V) value arrays plus one shard's edge
        slices; everything else stays on disk behind the page cache.
        """
        itemsize = np.dtype(VERTEX_DTYPE).itemsize
        per_edge = 2 * itemsize + (8 if self.weighted else 0)
        values = self.num_vertices * value_bytes_per_vertex
        shard = self.max_shard_edges * per_edge
        return {
            "values_bytes": values,
            "shard_bytes": shard,
            "resident_bytes": values + shard,
            "disk_bytes": self.num_edges * per_edge,
        }

    # --- data access -----------------------------------------------------

    def _data(self) -> tuple:
        if self._arrays is None:
            if self.num_edges == 0:
                src = np.empty(0, dtype=VERTEX_DTYPE)
                dst = np.empty(0, dtype=VERTEX_DTYPE)
                weights = (np.empty(0, dtype=np.float64)
                           if self.weighted else None)
            else:
                shape = (self.num_edges,)
                src = np.memmap(self.directory / _SRC_NAME, mode="r",
                                dtype=VERTEX_DTYPE, shape=shape)
                dst = np.memmap(self.directory / _DST_NAME, mode="r",
                                dtype=VERTEX_DTYPE, shape=shape)
                weights = None
                if self.weighted:
                    weights = np.memmap(self.directory / _WEIGHTS_NAME,
                                        mode="r", dtype=np.float64,
                                        shape=shape)
            self._arrays = (src, dst, weights)
        return self._arrays

    def shard_arrays(
        self, index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(src, dst, weights)`` memmap slices of one shard."""
        if not 0 <= index < self.num_shards:
            raise ShardError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        meta = self.shards[index]
        src, dst, weights = self._data()
        sel = slice(meta.start, meta.stop)
        return (src[sel], dst[sel],
                None if weights is None else weights[sel])

    def iter_shards(
        self,
    ) -> Iterator[tuple[ShardMeta, np.ndarray, np.ndarray,
                        np.ndarray | None]]:
        """Yield ``(meta, src, dst, weights)`` per shard, in order."""
        for meta in self.shards:
            s, d, w = self.shard_arrays(meta.index)
            yield meta, s, d, w

    def as_graph(self) -> Graph:
        """The stored graph as a zero-copy memmap-backed :class:`Graph`.

        The returned graph's arrays view the on-disk files directly, so
        building it costs one validation pass (id range checks) but no
        copies, and its memoised fingerprint is seeded from the
        manifest — the write path hashed the identical byte stream, and
        :meth:`verify` re-derives it from the data on demand.
        """
        if self._graph is None:
            src, dst, weights = self._data()
            graph = Graph(self.num_vertices, src, dst, weights,
                          name=self.name)
            object.__setattr__(graph, "_fingerprint", self.fingerprint)
            object.__setattr__(graph, "_shard_manifest",
                               str(self.directory))
            self._graph = graph
        return self._graph

    def verify(self) -> int:
        """Re-hash every data file against the manifest.

        Returns the number of shards checked; raises
        :class:`ShardError` on the first checksum or fingerprint
        mismatch (bit rot, an edited data file, a manifest pasted onto
        the wrong data).
        """
        bounds = [(s.start, s.stop) for s in self.shards]
        with get_tracer().span("shard.verify", graph=self.name,
                               shards=self.num_shards):
            whole = hashlib.blake2b(digest_size=16)
            whole.update(f"{self.name}|{self.num_vertices}|".encode())
            itemsize = np.dtype(VERTEX_DTYPE).itemsize
            src_digests = _section_digests(
                self.directory / _SRC_NAME, bounds, itemsize, whole)
            dst_digests = _section_digests(
                self.directory / _DST_NAME, bounds, itemsize, whole)
            weight_digests = None
            if self.weighted:
                weight_digests = _section_digests(
                    self.directory / _WEIGHTS_NAME, bounds, 8, whole)
            for meta in self.shards:
                h = hashlib.blake2b(digest_size=16)
                h.update(src_digests[meta.index])
                h.update(dst_digests[meta.index])
                if weight_digests is not None:
                    h.update(weight_digests[meta.index])
                if h.hexdigest() != meta.checksum:
                    raise ShardError(
                        f"{self.directory}: shard {meta.index} checksum "
                        f"mismatch — data corrupted or replaced"
                    )
            if whole.hexdigest() != self.fingerprint:
                raise ShardError(
                    f"{self.directory}: whole-graph fingerprint mismatch — "
                    "manifest does not describe these data files"
                )
        return self.num_shards

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardStore({self.name!r}, |V|={self.num_vertices}, "
                f"|E|={self.num_edges}, shards={self.num_shards})")


# --- writing convenience -----------------------------------------------------


def write_graph_shards(
    graph: Graph,
    directory: str | Path,
    *,
    shard_edges: int = DEFAULT_SHARD_EDGES,
) -> ShardStore:
    """Shard an in-memory graph to disk (round-trips the fingerprint)."""
    with ShardWriter(directory, graph.num_vertices, name=graph.name,
                     shard_edges=shard_edges,
                     weighted=graph.is_weighted) as writer:
        for lo in range(0, graph.num_edges, shard_edges):
            sel = slice(lo, min(lo + shard_edges, graph.num_edges))
            writer.append(
                graph.src[sel], graph.dst[sel],
                None if graph.weights is None else graph.weights[sel],
            )
        return writer.finish()


def write_rmat_shards(
    directory: str | Path,
    num_vertices: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | None = 0,
    name: str = "rmat-stream",
    shard_edges: int = DEFAULT_SHARD_EDGES,
    chunk_edges: int = 1 << 20,
    allow_self_loops: bool = True,
) -> ShardStore:
    """Stream an R-MAT graph straight to a shard store.

    Combines :func:`repro.graph.rmat_stream.rmat_stream` with a
    :class:`ShardWriter`: the full edge list exists only on disk, never
    in memory.  ``chunk_edges`` affects peak memory, not content.
    """
    with ShardWriter(directory, num_vertices, name=name,
                     shard_edges=shard_edges, weighted=False) as writer:
        for src, dst in rmat_stream(num_vertices, num_edges, a, b, c,
                                    seed=seed, chunk_edges=chunk_edges,
                                    allow_self_loops=allow_self_loops):
            writer.append(src, dst)
        return writer.finish()


# --- out-of-core execution ---------------------------------------------------


def run_sharded(algorithm, store: ShardStore, *, cache: bool = False):
    """Execute ``algorithm`` by streaming the store shard by shard.

    The out-of-core analogue of
    :func:`~repro.algorithms.runner.run_vectorized`: one full edge
    sweep per iteration, dispatched as one ``process_edges`` call per
    shard, so the per-iteration temporaries (gathers, contributions)
    are O(shard) instead of O(E).  Chunking within an iteration never
    changes the answer for the min-based algorithms and stays within
    the 1e-12 accumulation policy for the sum-based ones — the same
    contract ``run_blocked`` documents — and iteration counts and
    active-source traces match ``run_vectorized`` exactly for the
    counts pipeline.

    Algorithms whose ``transform_graph`` returns a *different* graph
    (CC symmetrises, SSSP/SpMV attach weights) fall back to uniform
    slices of the transformed arrays at the store's shard width; the
    transform itself is O(E) in memory, so paper-scale out-of-core runs
    should use transform-free algorithms (PR, BFS).

    With ``cache=True`` the finished run is installed in the run cache
    under the standard ``(graph content, algorithm signature)`` key, so
    every downstream engine (``fold_many``, ``run_grid``, sweeps) can
    price paper-scale workloads without an in-memory convergence pass.
    """
    from ..algorithms.runner import AlgorithmRun
    from ..errors import ConvergenceError

    tracer = get_tracer()
    graph = store.as_graph()
    with tracer.span("shard.preprocess", graph=graph.name,
                     shards=store.num_shards):
        streamed = algorithm.transform_graph(graph)

    if streamed is graph:
        def chunks():
            for _, s, d, w in store.iter_shards():
                yield s, d, w
        chunks_per_sweep = store.num_shards
    else:
        step = max(store.max_shard_edges, 1)
        total = streamed.num_edges
        chunks_per_sweep = -(-total // step) if total else 0

        def chunks():
            for lo in range(0, total, step):
                sel = slice(lo, min(lo + step, total))
                yield (streamed.src[sel], streamed.dst[sel],
                       None if streamed.weights is None
                       else streamed.weights[sel])

    values = algorithm.initial_values(streamed)
    active = algorithm.initial_active(streamed)
    active_sources: list[int] = []
    iterations = 0
    metrics = obs_metrics.get_metrics()
    with tracer.span("shard.converge", algorithm=algorithm.name,
                     graph=streamed.name, shards=store.num_shards):
        while True:
            active_sources.append(active)
            acc = algorithm.iteration_start(values, streamed)
            for s, d, w in chunks():
                algorithm.process_edges(values, acc, s, d, w, streamed)
            metrics.counter(obs_metrics.SHARDS_STREAMED).add(
                chunks_per_sweep
            )
            with tracer.span("apply", iteration=iterations):
                result = algorithm.iteration_end(
                    values, acc, streamed, iterations
                )
            values = result.values
            active = result.active_vertices
            iterations += 1
            if result.converged:
                break
            if iterations > algorithm.max_iterations:
                raise ConvergenceError(
                    f"{algorithm.name} exceeded "
                    f"{algorithm.max_iterations} sweeps"
                )
    metrics.counter(obs_metrics.EXECUTOR_EDGES).add(
        iterations * streamed.num_edges
    )
    metrics.histogram(obs_metrics.CONVERGENCE_ITERATIONS).observe(iterations)
    run = AlgorithmRun(
        algorithm=algorithm.name,
        graph_name=streamed.name,
        values=values,
        iterations=iterations,
        num_vertices=streamed.num_vertices,
        edges_per_iteration=streamed.num_edges,
        vertex_bits=algorithm.vertex_bits,
        edge_bits=algorithm.edge_bits,
        active_sources=tuple(active_sources),
    )
    if cache:
        from ..perf.cache import get_run_cache

        get_run_cache().seed_run(algorithm, graph, run)
    return run


# --- per-shard schedule counts -----------------------------------------------


@dataclass(frozen=True)
class ShardCounts:
    """The additive integer core of one shard's schedule counts.

    Everything :class:`~repro.arch.scheduler.ScheduleCounts` derives
    from the edge *data* (rather than the run metadata) reduces to two
    integers structures, both additive across shards: the edge count
    and the reference-partition block histogram behind the imbalance
    estimate.  ``num_intervals == 0`` marks the degenerate case where
    the estimate is defined as 1.0 and no histogram is built.
    """

    shard_index: int
    edges: int
    num_intervals: int
    block_counts: np.ndarray | None


def shard_schedule_counts(
    store: ShardStore,
    shard_index: int,
    num_pus: int,
    hash_placement: bool,
) -> ShardCounts:
    """Compute one shard's :class:`ShardCounts` (pure, per-shard O(E)).

    Under hash placement the shard's vertex ids are pushed through the
    same multiplicative hash :func:`~repro.graph.hash_partition
    .hash_partition` applies to the whole graph, then binned at the
    scheduler's reference partition width — arithmetic on the ids only,
    no permutation arrays, so a worker needs just the shard slice and
    the manifest metadata.
    """
    from ..arch.scheduler import imbalance_reference_intervals

    src, dst, _ = store.shard_arrays(shard_index)
    edges = int(src.size)
    nv = store.num_vertices
    p = imbalance_reference_intervals(nv, num_pus)
    if p > nv:
        return ShardCounts(shard_index, edges, 0, None)
    if hash_placement:
        if nv >= 2 ** 31:
            raise ShardError(
                f"hashed shard histograms need num_vertices < 2^31 to "
                f"stay in int64, got {nv}"
            )
        mult = _coprime_multiplier(nv, _DEFAULT_MULTIPLIER)
        src = (src * mult) % nv
        dst = (dst * mult) % nv
    src_iv = _even_interval_of(src, nv, p)
    dst_iv = _even_interval_of(dst, nv, p)
    flat = src_iv * p + dst_iv
    counts = np.bincount(flat, minlength=p * p).astype(np.int64)
    return ShardCounts(shard_index, edges, p, counts.reshape(p, p))


def merge_shard_counts(
    parts: Sequence[ShardCounts],
) -> tuple[int, np.ndarray | None]:
    """Merge per-shard partials exactly: ``(total_edges, histogram)``.

    Integer sums only — no floats are touched until the merged
    histogram enters the same
    :func:`~repro.graph.hash_partition.imbalance_from_block_counts`
    pipeline the in-memory path uses, which is what makes the merged
    counts bit-identical rather than merely close.
    """
    total = 0
    merged: np.ndarray | None = None
    width: int | None = None
    for part in parts:
        total += part.edges
        if width is None:
            width = part.num_intervals
        elif width != part.num_intervals:
            raise ShardError(
                f"shard {part.shard_index} binned at P="
                f"{part.num_intervals}, expected P={width}"
            )
        if part.block_counts is not None:
            if merged is None:
                merged = part.block_counts.astype(np.int64, copy=True)
            else:
                merged += part.block_counts
    return total, merged


def sharded_scheduled_counts(
    run,
    workload,
    config,
    *,
    store: ShardStore | None = None,
):
    """Whole-graph :class:`ScheduleCounts` from per-shard partials.

    The only O(E) ingredient of the counts — the reference-partition
    block histogram behind the imbalance estimate — is computed per
    shard, merged by exact integer summation, pushed through the
    identical float pipeline, and seeded into the scalar cache under
    the same key the in-memory path uses.  The subsequent
    :func:`~repro.perf.batch.scheduled_counts` call therefore computes
    — and caches, under the unchanged counts key — a result
    bit-identical to the in-memory path, composing with ``fold_many``
    and the run cache exactly as before.

    ``store`` defaults to the store backing ``workload.graph`` (an
    :meth:`ShardStore.as_graph` product); passing a workload whose
    graph content differs from the store is an error.
    """
    from ..arch.scheduler import seed_imbalance
    from ..perf.batch import scheduled_counts

    if store is None:
        manifest = getattr(workload.graph, "_shard_manifest", None)
        if manifest is None:
            raise ShardError(
                "workload graph is not shard-backed; pass store= explicitly"
            )
        store = ShardStore.open(manifest)
    if workload.graph.fingerprint() != store.fingerprint:
        raise ShardError(
            "workload graph content does not match the shard store "
            f"({workload.graph.fingerprint()} vs {store.fingerprint})"
        )
    n = config.num_pus
    hp = config.hash_placement
    with get_tracer().span("shard.counts", graph=store.name,
                           shards=store.num_shards, num_pus=n):
        parts = [shard_schedule_counts(store, i, n, hp)
                 for i in range(store.num_shards)]
        total, merged = merge_shard_counts(parts)
        if total != store.num_edges:
            raise ShardError(
                f"per-shard edge counts sum to {total}, manifest says "
                f"{store.num_edges}"
            )
        value = (1.0 if merged is None
                 else imbalance_from_block_counts(merged, n))
        seed_imbalance(store.as_graph(), n, hp, value)
        obs_metrics.get_metrics().counter(
            obs_metrics.SHARD_COUNTS_MERGED
        ).add(len(parts))
    return scheduled_counts(run, workload, config)


def sharded_workload(
    store: ShardStore,
    reported_vertices: int | None = None,
    reported_edges: int | None = None,
):
    """A :class:`~repro.arch.config.Workload` over the store's graph.

    At paper scale the reported sizes default to the actual sizes —
    scale factor 1.0 is the whole point of the out-of-core path.
    """
    from ..arch.config import Workload

    return Workload(
        graph=store.as_graph(),
        reported_vertices=reported_vertices,
        reported_edges=reported_edges,
    )
