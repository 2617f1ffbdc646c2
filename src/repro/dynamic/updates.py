"""Dynamic-graph request generation and replay (Section 7.4.2).

The Fig. 20 experiment issues tens of thousands of requests with the
paper's mix — 45% edge additions, 45% edge deletions, 5% vertex
additions, 5% vertex deletions — and measures millions of *changed
edges* per second (vertex operations also change edges).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from ..errors import DynamicGraphError
from ..graph.graph import Graph

#: The paper's request mix.
DEFAULT_MIX = {"add_edge": 0.45, "delete_edge": 0.45,
               "add_vertex": 0.05, "delete_vertex": 0.05}


class RequestKind(enum.Enum):
    ADD_EDGE = "add_edge"
    DELETE_EDGE = "delete_edge"
    ADD_VERTEX = "add_vertex"
    DELETE_VERTEX = "delete_vertex"


class Request(NamedTuple):
    """One dynamic-graph update request."""

    kind: RequestKind
    src: int = -1
    dst: int = -1


def generate_requests(
    graph: Graph,
    count: int,
    mix: dict[str, float] | None = None,
    seed: int = 0,
    exclude_vertices: list[int] | tuple[int, ...] = (),
) -> list[Request]:
    """Generate a replayable request stream against ``graph``.

    Deletion requests target edges that exist at the time they execute
    (the generator tracks the evolving edge multiset), and vertex
    deletions target live vertices, so replaying the stream never
    raises.  ``exclude_vertices`` marks ids already invalidated in the
    target store (see ``DynamicGraphStore.invalid_vertices``) so a
    fresh stream can be generated against an evolved store.
    """
    mix = dict(DEFAULT_MIX if mix is None else mix)
    total = sum(mix.values())
    if total <= 0:
        raise DynamicGraphError("request mix must have positive weights")
    kinds = [RequestKind(k) for k in mix]
    probs = np.array([mix[k.value] for k in kinds]) / total

    rng = np.random.default_rng(seed)
    # Evolving state mirrors.  Deletable edges are packed records
    # ``src << 32 | dst`` (vertex ids fit in 32 bits), one int each.
    edges: list[int] = (
        (graph.src.astype(np.uint64) << np.uint64(32))
        | graph.dst.astype(np.uint64)
    ).tolist()
    excluded = set(exclude_vertices)
    live = [v for v in range(graph.num_vertices) if v not in excluded]
    next_vertex = graph.num_vertices

    requests: list[Request] = []
    draws = rng.choice(len(kinds), size=count, p=probs).tolist()
    # All index randomness drawn up front (a request consumes at most
    # two draws); `int(u * n)` replaces one `rng.integers` call per
    # index, which is what made generation the slowest part of fig20.
    uniform = rng.random(2 * count).tolist()
    ui = 0
    for draw in draws:
        kind = kinds[draw]
        if kind is RequestKind.ADD_EDGE:
            if len(live) < 2:
                continue
            s = live[int(uniform[ui] * len(live))]
            d = live[int(uniform[ui + 1] * len(live))]
            ui += 2
            edges.append(s << 32 | d)
            requests.append(Request(RequestKind.ADD_EDGE, s, d))
        elif kind is RequestKind.DELETE_EDGE:
            if not edges:
                continue
            idx = int(uniform[ui] * len(edges))
            ui += 1
            rec = edges[idx]
            edges[idx] = edges[-1]
            edges.pop()
            requests.append(
                Request(RequestKind.DELETE_EDGE, rec >> 32, rec & 0xFFFFFFFF)
            )
        elif kind is RequestKind.ADD_VERTEX:
            live.append(next_vertex)
            next_vertex += 1
            requests.append(Request(RequestKind.ADD_VERTEX))
        else:
            if not live:
                continue
            pos = int(uniform[ui] * len(live))
            ui += 1
            v = live[pos]
            live[pos] = live[-1]
            live.pop()
            # Invalidation leaves incident edges stored (Section 5), so
            # they stay in the deletable mirror.
            requests.append(Request(RequestKind.DELETE_VERTEX, src=v))
    return requests


def apply_requests(store, requests: list[Request]) -> int:
    """Replay a request stream against a store; returns changed edges.

    A request the store rejects raises its :class:`DynamicGraphError`.
    """
    before = store.stats.edges_changed
    for req in requests:
        if req.kind is RequestKind.ADD_EDGE:
            store.add_edge(req.src, req.dst)
        elif req.kind is RequestKind.DELETE_EDGE:
            store.delete_edge(req.src, req.dst)
        elif req.kind is RequestKind.ADD_VERTEX:
            store.add_vertex()
        else:
            store.delete_vertex(req.src)
    return store.stats.edges_changed - before
