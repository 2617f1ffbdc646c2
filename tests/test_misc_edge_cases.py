"""Edge-case tests across subsystems (failure injection and odd inputs)."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SpMV, run_vectorized
from repro.arch.config import HyVEConfig, Workload
from repro.arch.machine import AcceleratorMachine
from repro.errors import ConfigError, GraphError
from repro.graph import Graph
from repro.graph.partition import IntervalBlockPartition


class TestDegenerateGraphs:
    def test_single_vertex_no_edges(self):
        g = Graph.empty(1)
        run = run_vectorized(PageRank(), g)
        assert run.values.tolist() == [1.0]

    def test_all_self_loops(self):
        g = Graph.from_edges(3, [(0, 0), (1, 1), (2, 2)])
        run = run_vectorized(PageRank(iterations=20), g)
        np.testing.assert_allclose(run.values.sum(), 1.0)

    def test_parallel_edges_weighted_spmv(self):
        g = Graph.from_edges(2, [(0, 1), (0, 1)], weights=[2.0, 3.0])
        run = run_vectorized(SpMV(), g)
        assert run.values[1] == pytest.approx(5.0)

    def test_partition_single_vertex(self):
        p = IntervalBlockPartition.build(Graph.from_edges(1, [(0, 0)]), 1)
        assert p.block_edge_count(0, 0) == 1

    def test_maximally_partitioned(self, tiny_graph):
        # One vertex per interval.
        p = IntervalBlockPartition.build(tiny_graph, 8)
        assert p.max_interval_size() == 1
        assert p.block_counts.sum() == tiny_graph.num_edges


class TestConfigAbuse:
    def test_num_intervals_must_divide(self):
        with pytest.raises(ConfigError):
            HyVEConfig(num_intervals=10, num_pus=8)

    def test_num_intervals_override_respected(self, small_rmat):
        machine = AcceleratorMachine(
            HyVEConfig(label="p24", num_intervals=24)
        )
        counts = machine.run_counts(PageRank(), small_rmat)
        assert counts.num_intervals == 24

    def test_workload_with_only_edges_reported(self, small_rmat):
        wl = Workload(small_rmat, reported_edges=small_rmat.num_edges * 10)
        assert wl.edge_scale == pytest.approx(10.0)
        assert wl.vertex_scale == 1.0
        report = AcceleratorMachine().run(PageRank(), wl).report
        assert report.edges_traversed == pytest.approx(
            10 * 10 * small_rmat.num_edges
        )


class TestGraphAbuse:
    def test_weights_on_empty_edge_list(self):
        g = Graph.from_edges(3, [], weights=None)
        assert not g.is_weighted

    def test_two_dimensional_arrays_rejected(self):
        with pytest.raises(GraphError):
            Graph(4, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_float_ids_truncate_consistently(self):
        # Float arrays are coerced to int64 on construction.
        g = Graph(4, np.array([1.0, 2.0]), np.array([2.0, 3.0]))
        assert g.src.dtype == np.int64
        assert g.has_edge(1, 2)

    def test_relabel_empty_graph(self):
        g = Graph.empty(0)
        out = g.relabel(np.empty(0, dtype=np.int64))
        assert out.num_vertices == 0
