"""Tests for connected components, SSSP and SpMV."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    ConnectedComponents,
    SSSP,
    SpMV,
    UNREACHABLE,
    run_vectorized,
)
from repro.errors import GraphError
from repro.graph import Graph, cycle, path, random_weights


class TestConnectedComponents:
    def test_matches_networkx_weakly_connected(self, small_rmat):
        run = run_vectorized(ConnectedComponents(), small_rmat)
        components = nx.weakly_connected_components(
            small_rmat.to_networkx()
        )
        for component in components:
            labels = {int(run.values[v]) for v in component}
            assert len(labels) == 1

    def test_label_is_component_minimum(self):
        g = Graph.from_edges(6, [(1, 2), (2, 1), (4, 5)])
        run = run_vectorized(ConnectedComponents(), g)
        assert run.values[1] == run.values[2] == 1
        assert run.values[4] == run.values[5] == 4
        assert run.values[0] == 0
        assert run.values[3] == 3

    def test_symmetrisation_doubles_streamed_edges(self, small_rmat):
        run = run_vectorized(ConnectedComponents(), small_rmat)
        assert run.edges_per_iteration == 2 * small_rmat.num_edges

    def test_directed_mode(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        run = run_vectorized(ConnectedComponents(symmetrize=False), g)
        # Min label propagates along direction only.
        assert run.values.tolist() == [0, 0, 0]

    def test_isolated_vertices_own_components(self):
        g = Graph.empty(5)
        run = run_vectorized(ConnectedComponents(), g)
        assert run.values.tolist() == [0, 1, 2, 3, 4]

    def test_single_cycle_single_component(self):
        run = run_vectorized(ConnectedComponents(), cycle(7))
        assert (run.values == 0).all()


class TestSSSP:
    def test_matches_dijkstra(self, small_rmat):
        g = random_weights(small_rmat.deduplicated(), 1.0, 5.0, seed=2)
        run = run_vectorized(SSSP(0), g)
        ref = nx.single_source_dijkstra_path_length(g.to_networkx(), 0)
        for v in range(g.num_vertices):
            expected = ref.get(v, UNREACHABLE)
            assert run.values[v] == pytest.approx(expected)

    def test_unit_weights_match_bfs_distances(self):
        run = run_vectorized(SSSP(0), path(5))
        assert run.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_weighted_edge_stream_is_96_bits(self):
        assert SSSP().edge_bits == 96

    def test_rejects_negative_weights(self):
        g = Graph.from_edges(2, [(0, 1)], weights=[-1.0])
        with pytest.raises(GraphError):
            run_vectorized(SSSP(0), g)

    def test_rejects_source_out_of_range(self):
        with pytest.raises(GraphError):
            run_vectorized(SSSP(9), path(3))

    def test_unreachable_is_infinite(self):
        g = Graph.from_edges(3, [(0, 1)], weights=[2.0])
        run = run_vectorized(SSSP(0), g)
        assert run.values[2] == UNREACHABLE

    def test_initial_active_is_one(self, small_rmat):
        assert SSSP().initial_active(small_rmat) == 1


class TestSpMV:
    def test_matches_scipy(self, weighted_graph):
        run = run_vectorized(SpMV(), weighted_graph)
        x = np.ones(weighted_graph.num_vertices)
        expected = weighted_graph.to_csr().T @ x
        np.testing.assert_allclose(run.values, expected)

    def test_custom_input_vector(self, weighted_graph, rng):
        x = rng.normal(size=weighted_graph.num_vertices)
        run = run_vectorized(SpMV(x), weighted_graph)
        expected = weighted_graph.to_csr().T @ x
        np.testing.assert_allclose(run.values, expected)

    def test_single_iteration(self, weighted_graph):
        run = run_vectorized(SpMV(), weighted_graph)
        assert run.iterations == 1

    def test_unweighted_defaults_to_unit_weights(self, small_rmat):
        run = run_vectorized(SpMV(), small_rmat)
        expected = small_rmat.in_degrees().astype(float)
        np.testing.assert_allclose(run.values, expected)

    def test_rejects_wrong_vector_shape(self, small_rmat):
        with pytest.raises(ValueError):
            run_vectorized(SpMV(np.ones(3)), small_rmat)
