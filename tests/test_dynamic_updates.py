"""Tests for request generation, replay and the Fig. 20 update counts."""

import pytest

from repro.dynamic import (
    DEFAULT_MIX,
    DynamicGraphStore,
    GraphRDynamicStore,
    Request,
    RequestKind,
    apply_requests,
    compare_dynamic_throughput,
    generate_requests,
)
from repro.errors import DynamicGraphError
from repro.experiments import fig20
from repro.experiments.common import workloads
from repro.graph import rmat


class TestGenerate:
    def test_mix_respected(self, medium_rmat):
        requests = generate_requests(medium_rmat, 8000, seed=0)
        kinds = [r.kind for r in requests]
        add_share = kinds.count(RequestKind.ADD_EDGE) / len(kinds)
        del_share = kinds.count(RequestKind.DELETE_EDGE) / len(kinds)
        assert add_share == pytest.approx(0.45, abs=0.03)
        assert del_share == pytest.approx(0.45, abs=0.03)

    def test_deterministic(self, small_rmat):
        a = generate_requests(small_rmat, 500, seed=7)
        b = generate_requests(small_rmat, 500, seed=7)
        assert a == b

    def test_replay_never_raises(self, small_rmat):
        requests = generate_requests(small_rmat, 2000, seed=3)
        store = DynamicGraphStore(small_rmat, num_intervals=8)
        apply_requests(store, requests)  # must not raise

    def test_replay_on_graphr_store(self, small_rmat):
        requests = generate_requests(small_rmat, 1000, seed=3)
        store = GraphRDynamicStore(small_rmat)
        apply_requests(store, requests)

    def test_both_stores_agree_on_edge_count(self, small_rmat):
        requests = generate_requests(small_rmat, 1500, seed=5)
        hyve = DynamicGraphStore(small_rmat, num_intervals=8)
        graphr = GraphRDynamicStore(small_rmat)
        apply_requests(hyve, requests)
        apply_requests(graphr, requests)
        assert hyve.num_edges == graphr.num_edges

    def test_custom_mix(self, small_rmat):
        requests = generate_requests(
            small_rmat, 1000, mix={"add_edge": 1.0}, seed=1
        )
        assert all(r.kind is RequestKind.ADD_EDGE for r in requests)

    def test_rejects_zero_weight_mix(self, small_rmat):
        with pytest.raises(DynamicGraphError):
            generate_requests(small_rmat, 10, mix={"add_edge": 0.0})

    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)


class TestApply:
    def test_returns_changed_edges(self, small_rmat):
        store = DynamicGraphStore(small_rmat, num_intervals=8)
        requests = [
            Request(RequestKind.ADD_EDGE, 0, 1),
            Request(RequestKind.ADD_EDGE, 1, 2),
            Request(RequestKind.DELETE_EDGE, 0, 1),
            Request(RequestKind.ADD_VERTEX),
        ]
        changed = apply_requests(store, requests)
        assert changed == 3  # vertex add changes no edges


def _replayed_counts(graph, requests):
    """Both stores' ``DynamicStats`` after a per-request replay of
    ``requests``."""
    hyve = DynamicGraphStore(graph, num_intervals=fig20.NUM_INTERVALS)
    graphr = GraphRDynamicStore(graph)
    for store in (hyve, graphr):
        apply_requests(store, requests)
    return hyve.stats, graphr.stats


def _assert_counts_match(counts, hyve, graphr):
    for stats in (hyve, graphr):
        assert (counts.edges_added, counts.edges_deleted,
                counts.vertices_added, counts.vertices_deleted) == (
            stats.edges_added, stats.edges_deleted,
            stats.vertices_added, stats.vertices_deleted)
    assert counts.hyve_extensions == hyve.extensions_allocated
    assert counts.graphr_tiles == graphr.tiles_allocated
    assert counts.graphr_regrowths == graphr.repartitions


class TestThroughput:
    def test_compare_returns_both(self, small_rmat):
        counts = compare_dynamic_throughput(small_rmat, num_requests=1500)
        assert counts.edges_changed > 0
        assert counts.vertices_changed > 0
        assert counts.graphr_tiles > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_per_request_replay(self, small_rmat, seed):
        counts = compare_dynamic_throughput(
            small_rmat, num_requests=1500,
            num_intervals=fig20.NUM_INTERVALS, seed=seed)
        requests = generate_requests(small_rmat, 1500, seed=seed)
        _assert_counts_match(counts, *_replayed_counts(small_rmat, requests))

    def test_counts_match_per_request_replay_across_repartitions(self):
        # 64 vertices leave 20 ids of interval slack: the stream's ~75
        # vertex additions make the HyVE store re-lay its blocks.
        graph = rmat(64, 256, seed=3, name="tiny-rmat")
        counts = compare_dynamic_throughput(
            graph, num_requests=1500, num_intervals=fig20.NUM_INTERVALS)
        hyve, graphr = _replayed_counts(
            graph, generate_requests(graph, 1500, seed=0))
        assert hyve.repartitions >= 2
        _assert_counts_match(counts, hyve, graphr)

    def test_counts_match_per_request_replay_on_capped_yt(self):
        graph = fig20._capped(workloads()["YT"].graph)
        requests = generate_requests(graph, 20_000, seed=fig20.SEED)
        hyve, graphr = _replayed_counts(graph, requests)
        _assert_counts_match(fig20.counts()["YT"], hyve, graphr)
        assert hyve.repartitions == 0

    def test_hyve_moves_fewer_bytes(self, medium_rmat):
        counts = compare_dynamic_throughput(medium_rmat, num_requests=4000)
        assert counts.hyve_bytes() < counts.graphr_bytes()
        assert counts.hyve_bytes() >= 16 * counts.edges_changed

    def test_counted_ratio_near_paper(self):
        # Paper measures 8.04x; every dataset's counted ratio is near.
        ratios = [c.modeled_ratio() for c in fig20.counts().values()]
        assert all(r == pytest.approx(8.04, rel=0.05) for r in ratios)
