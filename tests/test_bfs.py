"""Tests for edge-centric BFS."""

import networkx as nx
import pytest

from repro.algorithms import BFS, UNREACHED, run_vectorized
from repro.errors import GraphError
from repro.graph import Graph, path, star


class TestCorrectness:
    def test_matches_networkx(self, small_rmat):
        run = run_vectorized(BFS(0), small_rmat)
        lengths = nx.single_source_shortest_path_length(
            small_rmat.to_networkx(), 0
        )
        for v in range(small_rmat.num_vertices):
            expected = lengths.get(v, UNREACHED)
            assert run.values[v] == expected

    def test_path_levels(self):
        run = run_vectorized(BFS(0), path(6))
        assert run.values.tolist() == [0, 1, 2, 3, 4, 5]

    def test_star_one_hop(self):
        run = run_vectorized(BFS(0), star(5))
        assert run.values[0] == 0
        assert (run.values[1:] == 1).all()

    def test_unreachable_vertices_keep_sentinel(self):
        g = Graph.from_edges(4, [(0, 1)])
        run = run_vectorized(BFS(0), g)
        assert run.values[2] == UNREACHED
        assert run.values[3] == UNREACHED

    def test_custom_root(self):
        run = run_vectorized(BFS(3), path(6))
        assert run.values[3] == 0
        assert run.values[5] == 2
        assert run.values[0] == UNREACHED

    def test_iterations_equal_depth_plus_fixpoint_pass(self):
        run = run_vectorized(BFS(0), path(6))
        # 5 productive sweeps + 1 confirming convergence.
        assert run.iterations == 6


class TestValidation:
    def test_rejects_root_out_of_range(self):
        with pytest.raises(GraphError):
            run_vectorized(BFS(10), path(5))

    def test_rejects_negative_root(self):
        with pytest.raises(ValueError):
            BFS(-1)

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphError):
            run_vectorized(BFS(0), Graph.empty(0))


class TestActivity:
    def test_initial_active_is_one(self, small_rmat):
        assert BFS(0).initial_active(small_rmat) == 1

    def test_active_sources_recorded(self):
        run = run_vectorized(BFS(0), path(4))
        assert len(run.active_sources) == run.iterations
        assert run.active_sources[0] == 1

    def test_activity_shrinks_at_fixpoint(self, small_rmat):
        run = run_vectorized(BFS(0), small_rmat)
        assert run.active_sources[-1] < small_rmat.num_vertices
