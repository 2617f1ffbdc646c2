"""Tests for the dynamic graph store (Section 5)."""

import pytest

from repro.dynamic import (
    DynamicGraphStore,
    GraphRDynamicStore,
    INVALID_VALUE,
)
from repro.errors import DynamicGraphError
from repro.graph import Graph


@pytest.fixture
def store(small_rmat):
    return DynamicGraphStore(small_rmat, num_intervals=8)


class TestAddEdge:
    def test_increments_count(self, store):
        before = store.num_edges
        store.add_edge(0, 1)
        assert store.num_edges == before + 1
        assert store.stats.edges_added == 1

    def test_edge_visible_in_export(self, store):
        store.add_edge(3, 200)
        g = store.to_graph()
        assert g.has_edge(3, 200)

    def test_duplicate_edges_allowed(self, store):
        store.add_edge(0, 1)
        store.add_edge(0, 1)
        assert store.stats.edges_added == 2

    def test_slack_overflow_allocates_extension(self):
        g = Graph.from_edges(4, [(0, 1)])
        store = DynamicGraphStore(g, num_intervals=2, slack=0.0)
        for _ in range(30):
            store.add_edge(0, 1)
        assert store.stats.extensions_allocated >= 1
        assert store.num_edges == 31

    def test_rejects_out_of_range(self, store):
        with pytest.raises(DynamicGraphError):
            store.add_edge(0, 10 ** 6)

    def test_rejects_deleted_endpoint(self, store):
        store.delete_vertex(5)
        with pytest.raises(DynamicGraphError):
            store.add_edge(5, 0)


class TestDeleteEdge:
    def test_removes_one_instance(self, store):
        store.add_edge(0, 1)
        store.add_edge(0, 1)
        before = store.num_edges
        store.delete_edge(0, 1)
        assert store.num_edges == before - 1

    def test_round_trip(self, small_rmat, store):
        store.add_edge(7, 9)
        store.delete_edge(7, 9)
        original = sorted(zip(small_rmat.src.tolist(),
                              small_rmat.dst.tolist()))
        now = store.to_graph()
        assert sorted(zip(now.src.tolist(), now.dst.tolist())) == original

    def test_delete_existing_graph_edge(self, small_rmat, store):
        s, d = int(small_rmat.src[0]), int(small_rmat.dst[0])
        store.delete_edge(s, d)
        assert store.num_edges == small_rmat.num_edges - 1

    def test_rejects_missing_edge(self, store, small_rmat):
        pairs = set(zip(small_rmat.src.tolist(), small_rmat.dst.tolist()))
        s, d = next(
            (a, b)
            for a in range(small_rmat.num_vertices)
            for b in range(small_rmat.num_vertices)
            if (a, b) not in pairs
        )
        with pytest.raises(DynamicGraphError):
            store.delete_edge(s, d)


class TestVertices:
    def test_add_vertex_returns_fresh_id(self, store, small_rmat):
        v = store.add_vertex(2.5)
        assert v == small_rmat.num_vertices
        assert store.is_valid(v)
        assert store.value(v) == 2.5

    def test_add_vertex_then_edges(self, store):
        v = store.add_vertex()
        store.add_edge(v, 0)
        assert store.to_graph().has_edge(v, 0)

    def test_overflow_triggers_repartition(self, small_rmat):
        store = DynamicGraphStore(small_rmat, num_intervals=8, slack=0.01)
        slack_room = store._capacity - small_rmat.num_vertices
        for _ in range(slack_room + 5):
            store.add_vertex()
        assert store.stats.repartitions >= 1
        # All vertices still addressable after the rebuild.
        assert store.num_vertices == small_rmat.num_vertices + slack_room + 5

    def test_delete_vertex_invalidates_in_o1(self, store):
        edges_before = store.num_edges
        store.delete_vertex(3)
        assert not store.is_valid(3)
        assert store.value(3) == INVALID_VALUE
        # Paper scheme: edges remain stored.
        assert store.num_edges == edges_before

    def test_delete_vertex_purge_removes_edges(self, small_rmat):
        store = DynamicGraphStore(small_rmat, num_intervals=8)
        v = int(small_rmat.src[0])
        degree = int(
            ((small_rmat.src == v) | (small_rmat.dst == v)).sum()
        )
        removed = store.delete_vertex(v, purge_edges=True)
        assert removed == degree
        assert store.num_edges == small_rmat.num_edges - degree
        assert not store.to_graph().has_edge(v, int(small_rmat.dst[0]))

    def test_double_delete_rejected(self, store):
        store.delete_vertex(2)
        with pytest.raises(DynamicGraphError):
            store.delete_vertex(2)

    def test_repartition_preserves_edges(self, small_rmat):
        store = DynamicGraphStore(small_rmat, num_intervals=8, slack=0.01)
        for _ in range(store._capacity - small_rmat.num_vertices + 1):
            store.add_vertex()
        g = store.to_graph()
        assert g.num_edges == small_rmat.num_edges


class TestExport:
    def test_initial_export_matches(self, small_rmat, store):
        g = store.to_graph()
        original = sorted(zip(small_rmat.src.tolist(),
                              small_rmat.dst.tolist()))
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == original

    def test_empty_store(self):
        store = DynamicGraphStore(Graph.empty(4), num_intervals=2)
        assert store.to_graph().num_edges == 0


class TestSlackValidation:
    def test_rejects_negative_slack(self, small_rmat):
        with pytest.raises(DynamicGraphError):
            DynamicGraphStore(small_rmat, slack=-0.1)


class TestGraphRStore:
    def test_same_interface(self, small_rmat):
        store = GraphRDynamicStore(small_rmat)
        assert store.num_edges == small_rmat.num_edges
        store.add_edge(0, 1)
        store.delete_edge(0, 1)
        assert store.num_edges == small_rmat.num_edges

    def test_delete_missing_rejected(self, small_rmat):
        store = GraphRDynamicStore(small_rmat)
        # Find a non-edge.
        g = small_rmat
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        s, d = next(
            (a, b)
            for a in range(g.num_vertices)
            for b in range(g.num_vertices)
            if (a, b) not in pairs
        )
        with pytest.raises(DynamicGraphError):
            store.delete_edge(s, d)

    def test_vertex_lifecycle(self, small_rmat):
        store = GraphRDynamicStore(small_rmat)
        v = store.add_vertex()
        assert v == small_rmat.num_vertices
        store.delete_vertex(0)
        with pytest.raises(DynamicGraphError):
            store.delete_vertex(0)

    def test_purge_clears_dense_rows(self):
        g = Graph.from_edges(16, [(0, 1), (1, 0), (0, 9)])
        store = GraphRDynamicStore(g)
        removed = store.delete_vertex(0, purge_edges=True)
        assert removed == 3
        assert store.num_edges == 0

    def test_edge_count_tracks_duplicates(self):
        g = Graph.from_edges(8, [(0, 1)])
        store = GraphRDynamicStore(g)
        store.add_edge(0, 1)
        assert store.num_edges == 2
        store.delete_edge(0, 1)
        store.delete_edge(0, 1)
        assert store.num_edges == 0
