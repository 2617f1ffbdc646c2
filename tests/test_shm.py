"""Shared-memory graph handoff: lifecycle and fallback.

The experiment fan-out publishes graph arrays into named shared-memory
segments once and ships workers tiny refs; the segments are owned by
the publishing process and are unlinked on release.  When shared
memory is unavailable everything must degrade to the old
pickle-per-task path with identical results.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.algorithms.runner import run_cached, run_vectorized
from repro.arch.config import Workload
from repro.graph import rmat
from repro.graph.graph import Graph
from repro.obs import metrics as obs_metrics
from repro.perf import shm


@pytest.fixture
def graph():
    return rmat(128, 512, seed=23, name="shm-rmat")


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with no published segments."""
    shm.release_all()
    yield
    shm.release_all()


def _attach_in_subprocess(ref):
    counter = obs_metrics.get_metrics().counter(
        obs_metrics.SHM_GRAPHS_ATTACHED
    )
    before = counter.value  # forked workers inherit parent counts
    g = shm.attach_graph(ref)
    memo_hit = shm.attach_graph(ref) is g
    return (g.num_edges, int(g.src.sum()), int(g.dst.sum()),
            memo_hit, counter.value - before, g.fingerprint())


class TestLifecycle:
    def test_share_attach_round_trip(self, graph):
        ref = shm.share_graph(graph)
        assert ref is not None
        assert ref.fingerprint == graph.fingerprint()
        attached = shm.attach_graph(ref)
        assert attached.num_vertices == graph.num_vertices
        assert np.array_equal(attached.src, graph.src)
        assert np.array_equal(attached.dst, graph.dst)
        # Zero-copy views over the segments are read-only.
        assert not attached.src.flags.writeable
        with pytest.raises(ValueError):
            attached.src[0] = 1

    def test_share_is_idempotent_per_fingerprint(self, graph):
        ref = shm.share_graph(graph)
        again = shm.share_graph(graph)
        assert again is ref
        assert shm.owned_fingerprints() == [graph.fingerprint()]

    def test_attach_is_memoised(self, graph):
        ref = shm.share_graph(graph)
        assert shm.attach_graph(ref) is shm.attach_graph(ref)

    def test_weighted_graph_round_trips(self):
        g = rmat(64, 256, seed=5, name="shm-w").with_unit_weights()
        ref = shm.share_graph(g)
        attached = shm.attach_graph(ref)
        assert np.array_equal(attached.weights, g.weights)

    def test_empty_graph_round_trips(self):
        g = Graph.empty(8, name="shm-empty")
        attached = shm.attach_graph(shm.share_graph(g))
        assert attached.num_vertices == 8
        assert attached.num_edges == 0

    def test_release_unlinks_segments(self, graph):
        ref = shm.share_graph(graph)
        assert shm.release_graph(graph.fingerprint())
        assert shm.owned_fingerprints() == []
        with pytest.raises(FileNotFoundError):
            shm.attach_graph(ref)
        # Releasing twice is a clean no-op.
        assert not shm.release_graph(graph.fingerprint())

    def test_release_all_clears_everything(self, graph):
        shm.share_graph(graph)
        shm.share_graph(rmat(32, 64, seed=1, name="shm-2"))
        shm.release_all()
        assert shm.owned_fingerprints() == []

    def test_worker_process_attaches_and_counts(self, graph):
        ref = shm.share_graph(graph)
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            edges, ssum, dsum, memo_hit, counted, fingerprint = (
                pool.submit(_attach_in_subprocess, ref).result()
            )
        assert edges == graph.num_edges
        assert ssum == int(graph.src.sum())
        assert dsum == int(graph.dst.sum())
        assert memo_hit
        assert counted == 1.0
        # The attached graph hashes like the parent's, so run-cache keys
        # (and every result priced from them) match the serial path.
        assert fingerprint == graph.fingerprint()
        # A worker attaching never steals ownership.
        assert shm.owned_fingerprints() == [graph.fingerprint()]

    def test_run_cached_accepts_ref(self, graph):
        ref = shm.share_graph(graph)
        via_ref = run_cached(PageRank(), ref)
        direct = run_vectorized(PageRank(), graph)
        assert np.allclose(via_ref.values, direct.values)


class TestWorkloadHandoff:
    def test_share_and_resolve_workload(self, graph):
        wl = Workload(graph, reported_vertices=128_000,
                      reported_edges=512_000)
        payload = shm.share_workload(wl)
        assert isinstance(payload, shm.SharedWorkloadRef)
        resolved = shm.resolve_workload(payload)
        assert resolved.reported_vertices == 128_000
        assert resolved.reported_edges == 512_000
        assert np.array_equal(resolved.graph.src, graph.src)

    def test_resolve_passes_plain_workload_through(self, graph):
        wl = Workload(graph)
        assert shm.resolve_workload(wl) is wl

    def test_experiment_manifest_attaches(self, monkeypatch, graph):
        from repro.experiments import common

        wl = Workload(graph)
        monkeypatch.setattr(common, "_WORKLOADS", {})
        monkeypatch.setattr(common, "DATASET_ORDER", [])
        manifest = {"XX": shm.share_workload(wl)}
        common.attach_workloads(manifest)
        assert np.array_equal(common._WORKLOADS["XX"].graph.src, graph.src)


class TestFallback:
    def test_share_returns_none_without_shared_memory(
        self, monkeypatch, graph
    ):
        monkeypatch.setattr(shm, "_shared_memory", None)
        assert not shm.shared_memory_available()
        assert shm.share_graph(graph) is None
        wl = Workload(graph)
        assert shm.share_workload(wl) is wl

    def test_parallel_experiments_identical_without_shared_memory(
        self, monkeypatch
    ):
        """With shared memory gated off the experiment pool falls back to
        pickling the workloads into its workers — same tables, byte for
        byte.  Two names, because a single experiment runs serially."""
        from repro.experiments import run_selected

        monkeypatch.setattr(shm, "_shared_memory", None)
        names = ["table3", "table2"]
        serial = run_selected(names, save=False)
        fanned = run_selected(names, save=False, jobs=2)
        for name in names:
            assert fanned[name].format() == serial[name].format()
            assert fanned[name].to_csv() == serial[name].to_csv()

    def test_creation_failure_cleans_up_partial_segments(
        self, monkeypatch, graph
    ):
        created = []
        real = shm._segment_of

        def failing(array, name_hint):
            if name_hint.endswith("-d"):
                raise OSError("no space left on /dev/shm")
            seg = real(array, name_hint)
            created.append(seg)
            return seg

        monkeypatch.setattr(shm, "_segment_of", failing)
        assert shm.share_graph(graph) is None
        assert shm.owned_fingerprints() == []
        # The src segment created before the failure was unlinked.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0].name)
