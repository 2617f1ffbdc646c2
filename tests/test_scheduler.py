"""Tests for the schedule counting (Equations (3)-(8))."""

import pytest

from repro.algorithms import BFS, PageRank, run_cached
from repro.arch.config import HyVEConfig, MemoryTechnology, Workload
from repro.arch.scheduler import (
    ScheduleCounts,
    clear_imbalance_cache,
    estimate_imbalance,
    imbalance_reference_intervals,
)
from repro.graph import Graph, hash_partition, imbalance, rmat
from repro.graph.partition import IntervalBlockPartition, partition_cache_len
from repro.perf.cache import temporary_run_cache


def counts_for(graph_or_workload, algorithm=None, **config_kwargs):
    workload = (
        graph_or_workload
        if isinstance(graph_or_workload, Workload)
        else Workload(graph_or_workload)
    )
    algorithm = algorithm or PageRank()
    config = HyVEConfig(label="t", **config_kwargs)
    run = run_cached(algorithm, workload.graph)
    return ScheduleCounts.compute(run, workload, config), run


class TestEdgeStream:
    def test_every_edge_read_once_per_iteration(self, medium_rmat):
        counts, run = counts_for(medium_rmat)
        assert counts.edges_total == run.iterations * medium_rmat.num_edges

    def test_stream_bits_use_edge_width(self, medium_rmat):
        counts, run = counts_for(medium_rmat)
        assert counts.edge_stream_bits == counts.edges_total * 64

    def test_scaled_to_reported_size(self, lj_workload):
        counts, run = counts_for(lj_workload)
        expected = run.iterations * 69_000_000
        assert counts.edges_total == pytest.approx(expected)


class TestOnchipTraffic:
    """Equations (3)-(4): per edge, two random reads and one write."""

    def test_random_traffic_tied_to_edges(self, medium_rmat):
        counts, _ = counts_for(medium_rmat)
        assert counts.onchip_read_bits == 2 * counts.edges_total * 32
        assert counts.onchip_write_bits == counts.edges_total * 32

    def test_pu_ops_equal_edges(self, medium_rmat):
        counts, _ = counts_for(medium_rmat)
        assert counts.pu_ops == counts.edges_total


class TestIntervalScheduling:
    """Equations (7)-(8) and the sharing factor."""

    def test_sharing_cuts_source_loads_by_n(self, lj_workload):
        shared, run = counts_for(lj_workload, data_sharing=True)
        unshared, _ = counts_for(lj_workload, data_sharing=False)
        p, n = shared.num_intervals, shared.num_pus
        # loads = (src_factor + 1 dst) * Nv * activity; the src factor
        # shrinks from P to P/N.
        ratio = unshared.offchip_load_bits / shared.offchip_load_bits
        expected = (p + 1) / (p / n + 1)
        assert ratio == pytest.approx(expected, rel=1e-6)

    def test_stores_unaffected_by_sharing(self, lj_workload):
        shared, _ = counts_for(lj_workload, data_sharing=True)
        unshared, _ = counts_for(lj_workload, data_sharing=False)
        assert shared.offchip_store_bits == unshared.offchip_store_bits

    def test_equation8_for_fully_active_algorithm(self, lj_workload):
        # PageRank keeps every vertex active: loads must equal
        # ((P/N) + 1) * Nv * iters exactly.
        counts, run = counts_for(lj_workload, data_sharing=True)
        p, n = counts.num_intervals, counts.num_pus
        expected = (
            (p / n + 1.0) * counts.vertices * run.vertex_bits
            * run.iterations
        )
        assert counts.offchip_load_bits == pytest.approx(expected)

    def test_bfs_activity_reduces_loads(self, lj_workload):
        bfs_counts, bfs_run = counts_for(lj_workload, algorithm=BFS())
        # If every iteration were fully active the loads would be:
        p, n = bfs_counts.num_intervals, bfs_counts.num_pus
        full = (
            (p / n + 1.0)
            * bfs_counts.vertices
            * bfs_run.vertex_bits
            * bfs_run.iterations
        )
        assert bfs_counts.offchip_load_bits < 0.9 * full


class TestNoScratchpad:
    def test_random_ops_replace_interval_traffic(self, medium_rmat):
        counts, _ = counts_for(
            medium_rmat,
            onchip_vertex=MemoryTechnology.NONE,
            data_sharing=False,
        )
        assert counts.offchip_load_bits == 0
        assert counts.onchip_read_bits == 0
        assert counts.random_read_ops == 2 * counts.edges_total
        assert counts.random_write_ops == counts.edges_total


class TestRouter:
    def test_sharing_routes_remote_source_reads(self, medium_rmat):
        counts, _ = counts_for(medium_rmat, data_sharing=True)
        n = counts.num_pus
        expected = counts.edges_total * (n - 1) / n * 2  # PR: 64-bit vertex
        assert counts.router_words == pytest.approx(expected)

    def test_no_sharing_no_router_traffic(self, medium_rmat):
        counts, _ = counts_for(medium_rmat, data_sharing=False)
        assert counts.router_words == 0
        assert counts.reroute_events == 0

    def test_steps_count(self, lj_workload):
        counts, run = counts_for(lj_workload)
        p, n = counts.num_intervals, counts.num_pus
        assert counts.steps_total == pytest.approx(
            (p / n) ** 2 * n * run.iterations
        )


class TestImbalance:
    def test_at_least_one(self, lj_workload):
        run = run_cached(PageRank(), lj_workload.graph)
        assert estimate_imbalance(run, lj_workload, 8) >= 1.0

    def test_cached(self, lj_workload):
        run = run_cached(PageRank(), lj_workload.graph)
        a = estimate_imbalance(run, lj_workload, 8)
        b = estimate_imbalance(run, lj_workload, 8)
        assert a == b

    def test_counts_carry_imbalance(self, lj_workload):
        counts, _ = counts_for(lj_workload)
        assert counts.imbalance >= 1.0


class TestImbalanceReference:
    """The histogram estimate equals :func:`imbalance` of the reference
    partition it no longer builds, float for float."""

    @staticmethod
    def fresh_estimate(graph, num_pus, hash_placement):
        clear_imbalance_cache()
        with temporary_run_cache():
            # The estimate reads only the workload's graph, not the run.
            return estimate_imbalance(None, Workload(graph), num_pus,
                                      hash_placement=hash_placement)

    @pytest.mark.parametrize("num_pus", [1, 2, 4, 8, 16, 32])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("hash_placement", [True, False])
    def test_matches_reference_partition(self, num_pus, seed,
                                         hash_placement):
        g = rmat(1001, 6000, seed=seed)
        p = imbalance_reference_intervals(g.num_vertices, num_pus)
        assert g.num_vertices % p != 0
        part = (hash_partition(g, p)[0] if hash_placement
                else IntervalBlockPartition.build(g, p))
        expected = imbalance(part, num_pus)
        assert self.fresh_estimate(g, num_pus, hash_placement) == expected

    @pytest.mark.parametrize("hash_placement", [True, False])
    def test_more_intervals_than_vertices_is_balanced(self, hash_placement):
        g = rmat(5, 20, seed=0)
        assert imbalance_reference_intervals(g.num_vertices, 8) > 5
        assert self.fresh_estimate(g, 8, hash_placement) == 1.0

    @pytest.mark.parametrize("num_vertices", [0, 100])
    @pytest.mark.parametrize("hash_placement", [True, False])
    def test_empty_graph_is_balanced(self, num_vertices, hash_placement):
        g = Graph.empty(num_vertices)
        assert self.fresh_estimate(g, 4, hash_placement) == 1.0

    @pytest.mark.parametrize("hash_placement", [True, False])
    def test_builds_no_partition(self, hash_placement):
        g = rmat(1001, 6000, seed=2)
        before = partition_cache_len()
        self.fresh_estimate(g, 8, hash_placement)
        assert partition_cache_len() == before


class TestPlacement:
    def test_hash_placement_balances(self, lj_workload):
        from repro.algorithms import PageRank, run_cached

        run = run_cached(PageRank(), lj_workload.graph)
        hashed = estimate_imbalance(run, lj_workload, 8,
                                    hash_placement=True)
        natural = estimate_imbalance(run, lj_workload, 8,
                                     hash_placement=False)
        assert 1.0 <= hashed < natural

    def test_config_flag_reaches_counts(self, lj_workload):
        natural, _ = counts_for(lj_workload, hash_placement=False)
        hashed, _ = counts_for(lj_workload, hash_placement=True)
        assert natural.imbalance > hashed.imbalance
