"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    complete,
    cycle,
    erdos_renyi,
    grid_2d,
    path,
    random_weights,
    rmat,
    star,
)
from repro.graph.datasets import DATASETS as DATASETS_BY_KEY
from repro.graph.generators import GENERATOR_VERSION
from repro.graph.stats import skew_gini


class TestRmat:
    def test_exact_sizes(self):
        g = rmat(100, 500, seed=0)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_deterministic(self):
        a = rmat(128, 512, seed=42)
        b = rmat(128, 512, seed=42)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = rmat(128, 512, seed=1)
        b = rmat(128, 512, seed=2)
        assert not np.array_equal(a.src, b.src)

    def test_ids_in_range(self):
        g = rmat(100, 2000, seed=3)  # non-power-of-two vertex count
        assert g.src.max() < 100
        assert g.dst.max() < 100
        assert g.src.min() >= 0

    def test_higher_skew_more_unequal_degrees(self):
        lo = rmat(1024, 8192, a=0.30, b=0.25, c=0.25, seed=5)
        hi = rmat(1024, 8192, a=0.70, b=0.10, c=0.10, seed=5)
        assert skew_gini(hi.out_degrees()) > skew_gini(lo.out_degrees())

    def test_no_self_loops_option(self):
        g = rmat(64, 1000, seed=7, allow_self_loops=False)
        assert (g.src != g.dst).all()

    def test_zero_edges(self):
        g = rmat(10, 0, seed=0)
        assert g.num_edges == 0

    def test_single_vertex(self):
        g = rmat(1, 5, seed=0)
        assert (g.src == 0).all() and (g.dst == 0).all()

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            rmat(0, 10)

    def test_rejects_negative_edges(self):
        with pytest.raises(GraphError):
            rmat(10, -1)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphError):
            rmat(10, 10, a=0.6, b=0.3, c=0.3)


class TestGeneratorOutputPinned:
    """The R-MAT output behind every evaluation graph, pinned by
    fingerprint.  The run cache keys dataset records on the generator
    parameters and ``GENERATOR_VERSION``, not on the edges, so a
    generator change that moves any edge must fail here (and bump the
    version) instead of silently serving stale records."""

    DATASETS = {
        "YT": "518976daec8793744c3c101b5c9cef58",
        "WK": "cb69e5d1cb13b157f758f1efd090e92b",
        "AS": "520becf4281ca0eec9aca89ecdab01a3",
        "LJ": "2a739d1a82fb2d2f35effc8b38fc13fd",
        "TW": "e77fc97d8a950ebd13a5a35b6cd92d1a",
    }

    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_dataset(self, key):
        # A new fingerprint here comes with a new version.
        assert (GENERATOR_VERSION,
                DATASETS_BY_KEY[key].generate().fingerprint()) \
            == ("rmat-v1", self.DATASETS[key])

    def test_temporal_base(self):
        from repro.experiments import temporal

        graph = rmat(temporal.NUM_VERTICES, temporal.NUM_EDGES, seed=10,
                     name="temporal-base")
        assert graph.fingerprint() == "c423f9f7b599a40162e5fa2b430469c5"

    def test_outofcore_base(self, tmp_path):
        from repro.experiments import outofcore
        from repro.graph.shards import write_rmat_shards

        store = write_rmat_shards(
            tmp_path / "store", outofcore.NUM_VERTICES, outofcore.NUM_EDGES,
            seed=8, shard_edges=outofcore.SHARD_EDGES)
        assert store.fingerprint == "807d284393ced4406abc84f9f1ce67b4"


class TestErdosRenyi:
    def test_sizes(self):
        g = erdos_renyi(50, 200, seed=0)
        assert g.num_vertices == 50
        assert g.num_edges == 200

    def test_deterministic(self):
        a = erdos_renyi(50, 100, seed=9)
        b = erdos_renyi(50, 100, seed=9)
        np.testing.assert_array_equal(a.src, b.src)

    def test_roughly_uniform_degrees(self):
        g = erdos_renyi(100, 10000, seed=1)
        assert skew_gini(g.out_degrees()) < 0.3


class TestStructured:
    def test_path(self):
        g = path(5)
        assert g.num_edges == 4
        assert g.has_edge(0, 1) and g.has_edge(3, 4)

    def test_path_single_vertex(self):
        assert path(1).num_edges == 0

    def test_cycle(self):
        g = cycle(4)
        assert g.num_edges == 4
        assert g.has_edge(3, 0)

    def test_cycle_empty(self):
        assert cycle(0).num_vertices == 0

    def test_star(self):
        g = star(6)
        assert g.num_vertices == 7
        assert (g.src == 0).all()
        assert g.out_degrees()[0] == 6

    def test_star_rejects_negative(self):
        with pytest.raises(GraphError):
            star(-1)

    def test_complete(self):
        g = complete(4)
        assert g.num_edges == 12
        assert (g.src != g.dst).all()

    def test_grid(self):
        g = grid_2d(3, 4)
        assert g.num_vertices == 12
        # (rows * (cols-1)) right edges + ((rows-1) * cols) down edges.
        assert g.num_edges == 3 * 3 + 2 * 4

    def test_grid_degenerate(self):
        assert grid_2d(1, 1).num_edges == 0
        assert grid_2d(0, 5).num_vertices == 0


class TestRandomWeights:
    def test_in_range(self, small_rmat):
        g = random_weights(small_rmat, 2.0, 5.0, seed=1)
        assert g.weights.min() >= 2.0
        assert g.weights.max() < 5.0

    def test_deterministic(self, small_rmat):
        a = random_weights(small_rmat, seed=4)
        b = random_weights(small_rmat, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_rejects_empty_range(self, small_rmat):
        with pytest.raises(GraphError):
            random_weights(small_rmat, 5.0, 2.0)
