"""Graph I/O: edge-list text files and compact binary files.

Both loaders reject malformed input with a :class:`GraphError` naming
the file (and, for text, the line), before any graph-sized allocation:
vertex ids and vertex counts must fit the ``VERTEX_ID_BITS``-bit id of
the paper's edge format.
"""

from __future__ import annotations

import math
import re
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..errors import GraphError
from .graph import Graph, VERTEX_DTYPE, VERTEX_ID_BITS

#: Vertex ids and counts must stay below this (the 32-bit id format).
MAX_VERTICES = 2 ** VERTEX_ID_BITS

#: What ``errors="surrogateescape"`` decodes a non-UTF-8 byte to.
_UNDECODED = re.compile("[\udc80-\udcff]")

# --- edge-list text format ---------------------------------------------


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph as ``src dst [weight]`` lines (SNAP-style)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# {graph.name}\n")
        fh.write(f"# vertices: {graph.num_vertices}\n")
        if graph.is_weighted:
            for s, d, w in zip(
                graph.src.tolist(), graph.dst.tolist(), graph.weights.tolist()
            ):
                fh.write(f"{s}\t{d}\t{w}\n")
        else:
            for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
                fh.write(f"{s}\t{d}\n")


def load_edge_list(
    path: str | Path,
    num_vertices: int | None = None,
    name: str | None = None,
) -> Graph:
    """Read a ``src dst [weight]`` text file.

    Lines starting with ``#`` are comments; a ``# vertices: N`` comment
    fixes the vertex count, otherwise ``max id + 1`` is used (or the
    explicit ``num_vertices`` argument, which wins over both).  The
    file must be UTF-8, and ids and counts below ``MAX_VERTICES``.
    """
    path = Path(path)
    if num_vertices is not None and num_vertices >= MAX_VERTICES:
        raise GraphError(
            f"{path}: num_vertices {num_vertices} exceeds the "
            f"{VERTEX_ID_BITS}-bit vertex id limit"
        )
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[float] = []
    header_vertices: int | None = None
    columns: int | None = None
    # Undecodable bytes become lone surrogates, so the line holding one
    # can be named.
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODED.search(line):
                raise GraphError(f"{path}:{lineno}: not UTF-8 text")
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("vertices:"):
                    count = body.split(":", 1)[1].strip()
                    try:
                        header_vertices = int(count)
                    except ValueError:
                        raise GraphError(
                            f"{path}:{lineno}: malformed vertex-count "
                            f"header: {count!r}"
                        ) from None
                    if header_vertices < 0:
                        raise GraphError(
                            f"{path}:{lineno}: negative vertex count: "
                            f"{header_vertices}"
                        )
                    if header_vertices >= MAX_VERTICES:
                        raise GraphError(
                            f"{path}:{lineno}: vertex count "
                            f"{header_vertices} exceeds the "
                            f"{VERTEX_ID_BITS}-bit vertex id limit"
                        )
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{lineno}: expected 'src dst [weight]', "
                    f"got {line!r}"
                )
            if columns is None:
                columns = len(parts)
            elif len(parts) != columns:
                raise GraphError(
                    f"{path}:{lineno}: inconsistent column count "
                    f"({len(parts)} vs {columns} on earlier lines)"
                )
            try:
                s, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: vertex ids must be integers, "
                    f"got {line!r}"
                ) from None
            if s < 0 or d < 0:
                raise GraphError(
                    f"{path}:{lineno}: negative vertex id in {line!r}"
                )
            if s >= MAX_VERTICES or d >= MAX_VERTICES:
                raise GraphError(
                    f"{path}:{lineno}: vertex id exceeds the "
                    f"{VERTEX_ID_BITS}-bit limit in {line!r}"
                )
            srcs.append(s)
            dsts.append(d)
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphError(
                        f"{path}:{lineno}: malformed edge weight "
                        f"{parts[2]!r}"
                    ) from None
                if not math.isfinite(w):
                    raise GraphError(
                        f"{path}:{lineno}: edge weight must be finite, "
                        f"got {parts[2]!r}"
                    )
                weights.append(w)
    n = num_vertices
    if n is None:
        n = header_vertices
    if n is None:
        n = (max(max(srcs), max(dsts)) + 1) if srcs else 0
    return Graph.from_edges(
        n,
        list(zip(srcs, dsts)),
        weights if weights else None,
        name=name or path.stem,
    )


# --- binary format ------------------------------------------------------


#: The arrays :func:`save_binary` writes (``weights`` is optional).
_BINARY_ARRAYS = ("num_vertices", "src", "dst", "name")


def save_binary(graph: Graph, path: str | Path) -> None:
    """Write a graph to a compressed ``.npz`` file."""
    payload = {
        "num_vertices": np.int64(graph.num_vertices),
        "src": graph.src.astype(np.int32),
        "dst": graph.dst.astype(np.int32),
        "name": np.bytes_(graph.name.encode()),
    }
    if graph.is_weighted:
        payload["weights"] = graph.weights
    np.savez_compressed(Path(path), **payload)


def load_binary(path: str | Path) -> Graph:
    """Read a graph written by :func:`save_binary`.

    A missing file raises :class:`FileNotFoundError`; a file that is not
    such an ``.npz`` archive (another format, truncated, or lacking one
    of its arrays) raises :class:`GraphError` naming the file.
    """
    path = Path(path)
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise GraphError(f"{path}: not an .npz archive")
        with data:
            missing = [key for key in _BINARY_ARRAYS if key not in data]
            if missing:
                raise GraphError(
                    f"{path}: not a graph file, missing arrays {missing}"
                )
            num_vertices = int(data["num_vertices"])
            src = data["src"].astype(VERTEX_DTYPE)
            dst = data["dst"].astype(VERTEX_DTYPE)
            weights = data["weights"] if "weights" in data else None
            name = bytes(data["name"]).decode()
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise GraphError(f"{path}: not a graph .npz file ({exc})") from None
    if num_vertices >= MAX_VERTICES:
        raise GraphError(
            f"{path}: vertex count {num_vertices} exceeds the "
            f"{VERTEX_ID_BITS}-bit vertex id limit"
        )
    return Graph(num_vertices, src, dst, weights, name=name)
