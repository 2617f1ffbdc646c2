"""Tests for graph shape statistics (Table 1 machinery)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph, complete, star
from repro.graph.stats import (
    CROSSBAR_DIM,
    DegreeStats,
    GraphShape,
    average_edges_per_nonempty_block,
    fixed_block_keys,
    nonempty_block_count,
    skew_gini,
)


class TestBlockKeys:
    def test_same_tile_same_key(self):
        g = Graph.from_edges(16, [(0, 1), (2, 3), (8, 9)])
        keys = fixed_block_keys(g)
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]

    def test_rejects_bad_block_size(self, tiny_graph):
        with pytest.raises(GraphError):
            fixed_block_keys(tiny_graph, 0)


class TestNonemptyBlocks:
    def test_empty_graph(self):
        assert nonempty_block_count(Graph.empty(64)) == 0

    def test_single_tile(self):
        g = Graph.from_edges(8, [(0, 1), (2, 3), (7, 7)])
        assert nonempty_block_count(g) == 1

    def test_dense_tile_block(self):
        g = complete(8)  # fits exactly one 8x8 tile
        assert nonempty_block_count(g) == 1
        assert average_edges_per_nonempty_block(g) == 56.0

    def test_spread_star(self):
        g = star(63)  # hub 0 -> leaves 1..63 spread over 8 tile columns
        assert nonempty_block_count(g) == 8

    def test_custom_block_size(self):
        g = Graph.from_edges(8, [(0, 1), (4, 5)])
        assert nonempty_block_count(g, block_size=4) == 2
        assert nonempty_block_count(g, block_size=8) == 1


class TestNavg:
    def test_empty(self):
        assert average_edges_per_nonempty_block(Graph.empty(10)) == 0.0

    def test_definition(self, medium_rmat):
        navg = average_edges_per_nonempty_block(medium_rmat)
        blocks = nonempty_block_count(medium_rmat)
        assert navg == pytest.approx(medium_rmat.num_edges / blocks)

    def test_at_least_one_for_nonempty(self, small_rmat):
        assert average_edges_per_nonempty_block(small_rmat) >= 1.0

    def test_at_most_tile_capacity_times_duplicates(self):
        g = complete(8)
        assert average_edges_per_nonempty_block(g) <= 64.0


class TestDegreeStats:
    def test_of_uniform(self):
        stats = DegreeStats.of(np.full(10, 3))
        assert stats.mean == 3.0
        assert stats.maximum == 3
        assert stats.zeros == 0

    def test_of_empty(self):
        stats = DegreeStats.of(np.empty(0, dtype=int))
        assert stats.mean == 0.0

    def test_zeros_counted(self):
        stats = DegreeStats.of(np.array([0, 0, 5]))
        assert stats.zeros == 2


class TestGini:
    def test_uniform_is_zero(self):
        assert skew_gini(np.full(100, 7)) == pytest.approx(0.0, abs=1e-9)

    def test_star_is_high(self):
        degrees = star(100).out_degrees()
        assert skew_gini(degrees) > 0.9

    def test_empty(self):
        assert skew_gini(np.empty(0)) == 0.0

    def test_bounded(self, medium_rmat):
        g = skew_gini(medium_rmat.out_degrees())
        assert 0.0 <= g <= 1.0


class TestGraphShape:
    def test_snapshot(self, tiny_graph):
        shape = GraphShape.of(tiny_graph)
        assert shape.num_vertices == 8
        assert shape.num_edges == 11
        assert shape.navg > 0
        assert shape.nonempty_8x8_blocks >= 1
        assert CROSSBAR_DIM == 8
