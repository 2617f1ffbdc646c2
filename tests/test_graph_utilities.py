"""Tests for graph manipulation utilities."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    compact,
    filter_by_degree,
    induced_subgraph,
    largest_component,
    merge,
    path,
)


class TestInducedSubgraph:
    def test_basic(self, tiny_graph):
        sub, mapping = induced_subgraph(tiny_graph, np.array([2, 3, 4]))
        assert sub.num_vertices == 3
        # Edges within {2,3,4}: (2,3), (2,4), (3,4).
        assert sub.num_edges == 3
        assert mapping.tolist() == [2, 3, 4]

    def test_id_compaction(self, tiny_graph):
        sub, mapping = induced_subgraph(tiny_graph, np.array([6, 2]))
        # (6, 2) becomes (0 -> 1) after renumbering in selection order.
        assert sub.has_edge(0, 1)

    def test_preserves_weights(self, weighted_graph):
        keep = np.arange(weighted_graph.num_vertices // 2)
        sub, _ = induced_subgraph(weighted_graph, keep)
        assert sub.is_weighted

    def test_empty_selection(self, tiny_graph):
        sub, mapping = induced_subgraph(tiny_graph, np.array([], dtype=int))
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    def test_rejects_duplicates(self, tiny_graph):
        with pytest.raises(GraphError):
            induced_subgraph(tiny_graph, np.array([1, 1]))

    def test_rejects_out_of_range(self, tiny_graph):
        with pytest.raises(GraphError):
            induced_subgraph(tiny_graph, np.array([99]))


class TestLargestComponent:
    def test_two_components(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (4, 5)])
        lcc, members = largest_component(g)
        assert sorted(members.tolist()) == [0, 1, 2]
        assert lcc.num_edges == 3

    def test_connected_graph_unchanged_size(self):
        g = path(6)
        lcc, members = largest_component(g)
        assert lcc.num_vertices == 6
        assert lcc.num_edges == 5

    def test_empty_graph(self):
        lcc, members = largest_component(Graph.empty(0))
        assert lcc.num_vertices == 0


class TestDegreeFilter:
    def test_drops_isolated(self):
        g = Graph.from_edges(5, [(0, 1)])
        filtered, members = filter_by_degree(g, min_degree=1)
        assert sorted(members.tolist()) == [0, 1]
        assert filtered.num_edges == 1

    def test_high_floor(self, small_rmat):
        filtered, members = filter_by_degree(small_rmat, min_degree=10)
        degrees = small_rmat.out_degrees() + small_rmat.in_degrees()
        assert members.size == int((degrees >= 10).sum())

    def test_rejects_negative(self, tiny_graph):
        with pytest.raises(GraphError):
            filter_by_degree(tiny_graph, min_degree=-1)

    def test_compact_alias(self):
        g = Graph.from_edges(10, [(0, 9)])
        compacted, members = compact(g)
        assert compacted.num_vertices == 2
        assert compacted.has_edge(0, 1)


class TestMerge:
    def test_disjoint_union(self):
        a = path(3)
        b = path(2)
        merged = merge([a, b])
        assert merged.num_vertices == 5
        assert merged.num_edges == 3
        assert merged.has_edge(3, 4)  # b's edge, offset by 3

    def test_empty_list(self):
        assert merge([]).num_vertices == 0

    def test_weighted_merge(self, weighted_graph):
        merged = merge([weighted_graph, weighted_graph])
        assert merged.is_weighted
        assert merged.num_edges == 2 * weighted_graph.num_edges

    def test_rejects_mixed_weighting(self, weighted_graph, tiny_graph):
        with pytest.raises(GraphError):
            merge([weighted_graph, tiny_graph])
