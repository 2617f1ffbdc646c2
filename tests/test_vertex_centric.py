"""Tests for the vertex-centric executor (Section 2.1)."""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    ConnectedComponents,
    PageRank,
    SSSP,
    SpMV,
    run_vectorized,
    run_vertex_centric,
)
from repro.algorithms.vertex_centric import _changed, _csr, _expand_ranges
from repro.errors import ConvergenceError
from repro.graph import Graph, path, star


ALGORITHMS = [PageRank, BFS, ConnectedComponents, SSSP, SpMV]


def _run_vertex_centric_scalar(algorithm, graph):
    """Reference executor: one ``process_edges`` call *per edge*.

    The pre-vectorization semantics, kept as the identity baseline for
    the gather/scatter executor: same synchronous previous-iteration
    values, same frontier rules, but every active vertex's out-edges
    are pushed through length-1 slices in CSR order.  Returns
    ``(values, iterations, edges_examined)``.
    """
    from repro.algorithms.runner import transform_cached

    streamed = transform_cached(algorithm, graph)
    indptr, src, dst, weights = _csr(streamed)
    values = algorithm.initial_values(streamed)
    if (not algorithm.supports_frontier
            or algorithm.initial_active(streamed) >= streamed.num_vertices):
        active = np.ones(streamed.num_vertices, dtype=bool)
    else:
        uniques, inverse = np.unique(values, return_inverse=True)
        bulk = np.bincount(inverse).argmax()
        active = values != uniques[bulk]

    edges_examined = 0
    iterations = 0
    while True:
        acc = algorithm.iteration_start(values, streamed)
        for v in np.nonzero(active)[0].tolist():
            for e in range(int(indptr[v]), int(indptr[v + 1])):
                w = None if weights is None else weights[e:e + 1]
                algorithm.process_edges(
                    values, acc, src[e:e + 1], dst[e:e + 1], w, streamed
                )
                edges_examined += 1
        result = algorithm.iteration_end(values, acc, streamed, iterations)
        if algorithm.supports_frontier:
            active = _changed(values, result.values)
        else:
            active = np.ones(streamed.num_vertices, dtype=bool)
        values = result.values
        iterations += 1
        if result.converged:
            break
        if iterations > algorithm.max_iterations:
            raise ConvergenceError(f"{algorithm.name} did not converge")
    return values, iterations, edges_examined


class TestVectorizedScalarIdentity:
    """The vectorized executor must be indistinguishable from per-edge
    scalar execution: exact for the integer-valued traversals, 1e-12
    for the float accumulators (summation order differs)."""

    @pytest.mark.parametrize("factory", ALGORITHMS)
    def test_identity_on_rmat(self, factory, small_rmat):
        vec = run_vertex_centric(factory(), small_rmat)
        values, iterations, edges = _run_vertex_centric_scalar(
            factory(), small_rmat
        )
        assert vec.run.iterations == iterations
        assert vec.edges_examined == edges
        if vec.run.values.dtype.kind == "f":
            np.testing.assert_allclose(vec.run.values, values,
                                       rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(vec.run.values, values)

    @pytest.mark.parametrize("factory", [BFS, SSSP])
    def test_identity_on_sparse_frontier(self, factory):
        # A long path keeps the frontier at one vertex per sweep — the
        # branch the full-frontier fast path must never mishandle.
        g = path(24)
        vec = run_vertex_centric(factory(), g)
        values, iterations, edges = _run_vertex_centric_scalar(
            factory(), g
        )
        assert vec.run.iterations == iterations
        assert vec.edges_examined == edges
        np.testing.assert_allclose(vec.run.values, values)


class TestEquivalence:
    @pytest.mark.parametrize("factory", ALGORITHMS)
    def test_matches_edge_centric(self, factory, small_rmat):
        vc = run_vertex_centric(factory(), small_rmat)
        ec = run_vectorized(factory(), small_rmat)
        np.testing.assert_allclose(vc.run.values, ec.values)
        assert vc.run.iterations == ec.iterations

    def test_empty_graph(self):
        vc = run_vertex_centric(ConnectedComponents(), Graph.empty(5))
        assert vc.edges_examined == 0


class TestTraffic:
    def test_pagerank_examines_every_edge(self, small_rmat):
        vc = run_vertex_centric(PageRank(), small_rmat)
        assert vc.edges_examined == vc.run.total_edges
        assert vc.edge_savings == 0.0

    def test_bfs_examines_fewer_edges(self, medium_rmat):
        vc = run_vertex_centric(BFS(0), medium_rmat)
        assert vc.edges_examined < vc.run.total_edges
        assert vc.edge_savings > 0.3

    def test_bfs_path_examines_each_edge_once(self):
        vc = run_vertex_centric(BFS(0), path(6))
        # Frontier is one vertex per level: 5 edges examined in total.
        assert vc.edges_examined == 5

    def test_star_bfs_single_scan_of_hub(self):
        vc = run_vertex_centric(BFS(0), star(10))
        assert vc.edges_examined == 10

    def test_vertices_scanned_bounded(self, small_rmat):
        vc = run_vertex_centric(ConnectedComponents(), small_rmat)
        streamed = ConnectedComponents().transform_graph(small_rmat)
        assert vc.vertices_scanned <= (
            vc.run.iterations * streamed.num_vertices
        )


class TestExpandRanges:
    def test_simple(self):
        out = _expand_ranges(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_zero_length_ranges_skipped(self):
        out = _expand_ranges(np.array([5, 7, 9]), np.array([2, 0, 1]))
        assert out.tolist() == [5, 6, 9]

    def test_all_empty(self):
        out = _expand_ranges(np.array([1, 2]), np.array([0, 0]))
        assert out.size == 0

    def test_single_range(self):
        out = _expand_ranges(np.array([4]), np.array([4]))
        assert out.tolist() == [4, 5, 6, 7]

    def test_matches_naive_expansion(self, rng):
        starts = rng.integers(0, 100, size=20)
        lengths = rng.integers(0, 6, size=20)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in zip(starts, lengths)]
        ) if lengths.sum() else np.empty(0, dtype=np.int64)
        out = _expand_ranges(starts, lengths)
        np.testing.assert_array_equal(out, expected)


class TestAblationDriver:
    def test_execution_model_ablation_shapes(self):
        from repro.experiments.ablations import run_execution_model

        result = run_execution_model()
        for row in result.rows:
            algo, _, edge_ratio, energy_ratio = row
            assert 0.0 < edge_ratio <= 1.0
            if algo == "PR":
                # Full sweeps: vertex-centric only adds random-access cost.
                assert edge_ratio == pytest.approx(1.0)
                assert energy_ratio > 1.0
            else:
                # Traversals: vertex-centric skips most edges.
                assert edge_ratio < 0.6
