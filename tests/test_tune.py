"""Design-space autotuner: spaces, Pareto extraction, engines, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.arch.config import NAMED_CONFIGS, HyVEConfig, Workload
from repro.arch.cpu import CPUMachine
from repro.arch.graphr import GraphRMachine, price_configs
from repro.arch.machine import AcceleratorMachine
from repro.arch.sweep import sweep_axis
from repro.cli import main
from repro.errors import ConfigError
from repro.perf.batch import run_grid
from repro.perf.cache import CacheStats
from repro.tune import (
    BACKENDS,
    SearchSpace,
    default_space,
    exhaustive_search,
    frontiers_to_csv,
    guided_search,
    pareto_mask,
    recommend,
    search,
)
from repro.units import GBIT

#: A small mixed-axis space (one pricing axis, one structural axis)
#: used by several engine tests: 3 x 2 = 6 configs over 2 counts keys.
SMALL_AXES = {
    "region_hit_rate": (0.6, 0.85, 1.0),
    "num_pus": (4, 8),
}


# --- Pareto extraction edge cases --------------------------------------------


class TestParetoMask:
    def test_empty_input(self):
        mask = pareto_mask(np.empty((0, 3)))
        assert mask.shape == (0,) and mask.dtype == bool

    def test_single_point_survives(self):
        assert pareto_mask(np.array([[5.0, 5.0, 5.0]])).tolist() == [True]

    def test_duplicates_all_survive_together(self):
        # Two identical optimal points: neither strictly dominates the
        # other, so both stay; the copy of a dominated point falls too.
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
        assert pareto_mask(pts).tolist() == [True, True, False, False]

    def test_all_dominated_chain_keeps_only_head(self):
        chain = np.array([[float(i), float(i)] for i in range(10)])
        assert pareto_mask(chain).tolist() == [True] + [False] * 9

    def test_classic_tradeoff_curve(self):
        pts = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        assert pareto_mask(pts).tolist() == [True, True, True, False]

    def test_order_independence(self):
        rng = np.random.default_rng(2026)
        pts = rng.random((300, 3))
        base = pareto_mask(pts)
        perm = rng.permutation(len(pts))
        assert (pareto_mask(pts[perm]) == base[perm]).all()

    def test_blocked_path_matches_naive(self):
        # More points than the dominance block size, checked against a
        # direct O(n^2) Python scan.
        rng = np.random.default_rng(7)
        pts = rng.integers(0, 6, size=(400, 2)).astype(float)
        mask = pareto_mask(pts)
        for i, a in enumerate(pts):
            dominated = any(
                (b <= a).all() and (b < a).any() for b in pts
            )
            assert mask[i] == (not dominated)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_ties_and_special_values_match_naive(self, k):
        # Signed zeros compare equal; a NaN compares false, so its row
        # neither dominates nor is dominated.
        rng = np.random.default_rng(k)
        values = np.array([-np.inf, -0.0, 0.0, 1.0, 2.0, np.inf, np.nan])
        for _ in range(40):
            pts = rng.choice(values, size=(int(rng.integers(1, 30)), k))
            assert pareto_mask(pts).tolist() == _naive_mask(pts)

    def test_frontier_spanning_many_blocks_matches_naive(self):
        # 700 trade-off points all survive, so later blocks test against
        # a frontier several blocks long; each has a dominated shadow.
        rng = np.random.default_rng(11)
        x = rng.random(700)
        front = np.stack([x, 1.0 - x, rng.random(700)], axis=1)
        pts = np.concatenate([front, front + rng.random((700, 1)) * 1e-3])
        perm = rng.permutation(len(pts))
        mask = pareto_mask(pts[perm])
        assert mask.tolist() == _naive_mask(pts[perm])
        assert (mask == (perm < 700)).all()

    def test_no_columns_keeps_every_row(self):
        assert pareto_mask(np.empty((3, 0))).tolist() == [True] * 3

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pareto_mask(np.array([1.0, 2.0]))


def _naive_mask(pts: np.ndarray) -> list[bool]:
    """Row i survives iff no row is <= it everywhere and < somewhere."""
    return [
        not ((pts <= a).all(axis=1) & (pts < a).any(axis=1)).any()
        for a in pts
    ]


# --- SearchSpace -------------------------------------------------------------


class TestSearchSpace:
    def test_size_is_cross_product(self):
        space = SearchSpace.from_axes(SMALL_AXES)
        assert space.size == 6
        candidates, skipped = space.candidates()
        assert len(candidates) == 6 and skipped == 0
        assert [c.index for c in candidates] == list(range(6))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            SearchSpace.from_axes({"warp_speed": (1,)})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown tuner backend"):
            SearchSpace.from_axes({}, backend="tpu")

    def test_unknown_machine_value_rejected(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            SearchSpace.from_axes({"machine": ("acc+Nope",)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="at least one value"):
            SearchSpace.from_axes({"num_pus": ()})

    def test_invalid_corners_skipped_and_counted(self):
        # acc+DRAM has no scratchpad, so data_sharing=True is an
        # invalid machine: it must be skipped, not raised.
        space = SearchSpace.from_axes(
            {"machine": ("acc+DRAM",), "data_sharing": (True, False)}
        )
        candidates, skipped = space.candidates()
        assert skipped == 1
        assert [c.config.data_sharing for c in candidates] == [False]

    def test_labels_encode_assignment(self):
        space = SearchSpace.from_axes(
            {"density_gbit": (4,), "bpg_timeout_us": (0.5,)}
        )
        (cand,), _ = space.candidates()
        assert cand.label == "density_gbit=4|bpg_timeout_us=0.5"
        assert cand.config.label == cand.label

    def test_derived_axes_reach_nested_dataclasses(self):
        space = SearchSpace.from_axes(
            {"density_gbit": (16,), "mlc_bits": (2,),
             "bpg_timeout_us": (5.0,)}
        )
        (cand,), _ = space.candidates()
        cfg = cand.config
        assert cfg.reram.density_bits == 16 * GBIT
        assert cfg.dram.density_bits == 16 * GBIT
        assert cfg.reram.cell.cell_bits == 2
        assert cfg.power_gating.idle_timeout == pytest.approx(5e-6)

    def test_machine_axis_swaps_base(self):
        space = SearchSpace.from_axes({"machine": tuple(NAMED_CONFIGS)})
        candidates, skipped = space.candidates()
        assert skipped == 0
        onchip = {c.config.onchip_vertex for c in candidates}
        assert len(candidates) == len(NAMED_CONFIGS)
        assert "none" in onchip and "sram" in onchip

    def test_pricing_only_classification(self):
        assert SearchSpace.from_axes(
            {"region_hit_rate": (0.8,), "density_gbit": (4,)}
        ).pricing_only
        assert not SearchSpace.from_axes(SMALL_AXES).pricing_only
        assert SearchSpace.from_axes(
            {}, backend="graphr"
        ).pricing_only

    def test_default_spaces_enumerate(self):
        for backend in BACKENDS:
            space = default_space(backend)
            candidates, _ = space.candidates()
            assert candidates, backend
        structural = default_space("hyve", structural=True)
        assert structural.size > default_space("hyve").size


# --- exhaustive engine vs brute force ---------------------------------------


class TestExhaustiveEngine:
    def test_frontier_matches_brute_force(self, small_rmat):
        workload = Workload(small_rmat)
        spaces = [
            SearchSpace.from_axes(SMALL_AXES),
            SearchSpace.from_axes({}, backend="graphr"),
            SearchSpace.from_axes({}, backend="cpu"),
        ]
        frontier = exhaustive_search(PageRank(), workload, spaces)

        reports = []
        for space in spaces:
            candidates, _ = space.candidates()
            for cand in candidates:
                machine = {
                    "hyve": AcceleratorMachine,
                    "graphr": GraphRMachine,
                    "cpu": CPUMachine,
                }[cand.backend](cand.config)
                reports.append(machine.run(PageRank(), workload).report)
        assert frontier.evaluated == len(reports)
        brute = {
            i for i, a in enumerate(reports)
            if not any(
                b.time <= a.time
                and b.total_energy <= a.total_energy
                and b.edp <= a.edp
                and (b.time < a.time
                     or b.total_energy < a.total_energy
                     or b.edp < a.edp)
                for b in reports
            )
        }
        assert {p.index for p in frontier.points} == brute
        for point in frontier.points:
            serial = reports[point.index]
            assert point.time == serial.time
            assert point.energy == serial.total_energy
            assert point.edp == serial.edp

    def test_points_sorted_by_time(self, small_rmat):
        frontier = exhaustive_search(
            PageRank(), small_rmat, SearchSpace.from_axes(SMALL_AXES)
        )
        times = [p.time for p in frontier.points]
        assert times == sorted(times)

    def test_unknown_engine_rejected(self, small_rmat):
        with pytest.raises(ConfigError, match="unknown tuner engine"):
            search(PageRank(), small_rmat,
                   SearchSpace.from_axes(SMALL_AXES), engine="random")


# --- guided engine -----------------------------------------------------------


class TestGuidedEngine:
    def test_full_budget_has_zero_regret(self, small_rmat):
        space = SearchSpace.from_axes(SMALL_AXES)
        exhaustive = exhaustive_search(BFS(), small_rmat, space)
        guided = guided_search(BFS(), small_rmat, space,
                               budget=space.size, seed=3)
        assert guided.evaluated == exhaustive.evaluated
        assert (
            [(p.index, p.label, p.time, p.energy, p.edp)
             for p in guided.points]
            == [(p.index, p.label, p.time, p.energy, p.edp)
                for p in exhaustive.points]
        )

    def test_budget_is_respected(self, small_rmat):
        space = SearchSpace.from_axes(
            {"region_hit_rate": (0.5, 0.7, 0.9, 1.0),
             "num_pus": (2, 4, 8)}
        )
        guided = guided_search(PageRank(), small_rmat, space,
                               budget=5, seed=0)
        assert 0 < guided.evaluated <= 5

    def test_same_seed_same_frontier(self, small_rmat):
        space = SearchSpace.from_axes(
            {"region_hit_rate": (0.5, 0.7, 0.9, 1.0),
             "num_pus": (2, 4, 8)}
        )
        a = guided_search(PageRank(), small_rmat, space, budget=6, seed=11)
        b = guided_search(PageRank(), small_rmat, space, budget=6, seed=11)
        assert a.to_csv() == b.to_csv()
        assert a.evaluated == b.evaluated

    def test_guided_frontier_points_are_truly_priced(self, small_rmat):
        # Every frontier point of a budgeted search must carry a real
        # report (non-dominated within the priced subset).
        space = SearchSpace.from_axes(
            {"region_hit_rate": (0.5, 0.75, 1.0), "num_pus": (2, 4)}
        )
        guided = guided_search(BFS(), small_rmat, space, budget=4, seed=5)
        assert guided.points
        for point in guided.points:
            assert point.report.total_energy == point.energy

    def test_budget_must_cover_deterministic_backends(self, small_rmat):
        spaces = [
            SearchSpace.from_axes(SMALL_AXES),
            SearchSpace.from_axes({}, backend="cpu"),
        ]
        with pytest.raises(ConfigError, match="budget"):
            search(PageRank(), small_rmat, spaces,
                   engine="guided", budget=1)

    def test_nonpositive_budget_rejected(self, small_rmat):
        with pytest.raises(ConfigError, match="budget"):
            search(PageRank(), small_rmat,
                   SearchSpace.from_axes(SMALL_AXES),
                   engine="guided", budget=0)


# --- GraphR pricing ----------------------------------------------------------


class TestGraphRPricing:
    @pytest.fixture()
    def space(self):
        return default_space("graphr")

    def test_reports_match_machine_run(self, small_rmat, space):
        workload = Workload(small_rmat)
        frontier = exhaustive_search(PageRank(), workload, space)
        candidates, _ = space.candidates()
        configs = [cand.config for cand in candidates]
        # GraphR's frontier is one point here, so every candidate's
        # priced report is checked too.
        got = [(cand.index, report) for cand, report in zip(
            candidates, price_configs(configs, PageRank(), workload))]
        got += [(point.index, point.report) for point in frontier.points]
        assert frontier.points and len(got) > len(configs)
        for index, report in got:
            want = GraphRMachine(configs[index]).run(
                PageRank(), workload).report
            # json writes floats by repr: equal text is equal bits.
            assert json.dumps(report.__dict__) == json.dumps(want.__dict__)

    def test_one_counts_lookup_per_search(self, small_rmat, space,
                                          monkeypatch):
        calls = []
        original = GraphRMachine.scheduled_counts

        def counting(machine, *args):
            calls.append(machine.config.label)
            return original(machine, *args)

        monkeypatch.setattr(GraphRMachine, "scheduled_counts", counting)
        frontier = exhaustive_search(
            PageRank(), small_rmat,
            [SearchSpace.from_axes(SMALL_AXES), space])
        assert frontier.evaluated > space.size
        assert len(calls) == 1

    def test_fold_counter_counts_candidates(self, small_rmat, space):
        from repro.obs import metrics as obs_metrics

        candidates, _ = space.candidates()
        try:
            obs_metrics.set_metrics(None)
            exhaustive_search(PageRank(), small_rmat, space)
            snap = obs_metrics.get_metrics().snapshot()
        finally:
            obs_metrics.set_metrics(None)
        assert snap[obs_metrics.GRAPHR_FOLD_CONFIGS]["value"] == len(
            candidates)


# --- frontier object ---------------------------------------------------------


class TestFrontier:
    @pytest.fixture()
    def frontier(self, small_rmat):
        return exhaustive_search(
            PageRank(), small_rmat, SearchSpace.from_axes(SMALL_AXES)
        )

    def test_best_respects_single_objective_weight(self, frontier):
        fastest = frontier.best({"time": 1.0})
        assert fastest.time == min(p.time for p in frontier.points)
        frugal = frontier.best({"energy": 1.0})
        assert frugal.energy == min(p.energy for p in frontier.points)

    def test_best_rejects_unknown_objective(self, frontier):
        with pytest.raises(ConfigError, match="unknown objective"):
            frontier.best({"beauty": 1.0})

    def test_csv_shape(self, frontier):
        lines = frontier.to_csv().splitlines()
        assert lines[0].startswith("graph,algorithm,engine,backend,label")
        assert len(lines) == 1 + len(frontier.points)

    def test_frontiers_to_csv_single_header(self, frontier):
        combined = frontiers_to_csv([frontier, frontier]).splitlines()
        assert combined.count(combined[0]) == 1
        assert len(combined) == 1 + 2 * len(frontier.points)

    def test_json_round_trip(self, frontier):
        payload = json.loads(frontier.to_json())
        assert payload["evaluated"] == frontier.evaluated
        assert len(payload["points"]) == len(frontier.points)
        assert payload["points"][0]["label"] == frontier.points[0].label

    def test_recommend_table(self, frontier):
        recs = recommend([frontier], weights={"edp": 1.0})
        assert len(recs) == 1
        assert recs[0].point.edp == min(p.edp for p in frontier.points)

    def test_empty_frontier_best_raises(self):
        from repro.tune.frontier import ParetoFrontier

        empty = ParetoFrontier(graph="g", algorithm="pr",
                               engine="exhaustive", evaluated=0,
                               skipped=0, points=())
        with pytest.raises(ConfigError, match="empty"):
            empty.best()


# --- sweep_axis and metrics ---------------------------------------------------


class TestSweepAxis:
    def test_matches_direct_run_grid(self, small_rmat):
        workload = Workload(small_rmat)
        values = (0.5, 0.8, 1.0)

        def make_config(v: float) -> HyVEConfig:
            return HyVEConfig(label=f"rhr={v}", region_hit_rate=v)

        via_helper = sweep_axis(values, make_config, PageRank, workload)
        direct = run_grid(PageRank(), workload,
                          [make_config(v) for v in values])
        assert len(via_helper) == len(direct) == 3
        for a, b in zip(via_helper, direct):
            assert a.report.to_dict() == b.report.to_dict()


class TestTuneMetrics:
    def test_search_updates_instruments(self, small_rmat):
        from repro.obs.metrics import (
            TUNE_CONFIGS_PRICED,
            TUNE_FRONTIER_SIZE,
            get_metrics,
        )

        before = get_metrics().counter(TUNE_CONFIGS_PRICED).value
        frontier = exhaustive_search(
            PageRank(), small_rmat, SearchSpace.from_axes(SMALL_AXES)
        )
        registry = get_metrics()
        assert (registry.counter(TUNE_CONFIGS_PRICED).value
                == before + frontier.evaluated)
        assert (registry.gauge(TUNE_FRONTIER_SIZE).value
                == len(frontier.points))


class TestCountsHitRate:
    def test_ratio_and_summary(self):
        stats = CacheStats(counts_memory_hits=3, counts_disk_hits=1,
                           counts_misses=4)
        assert stats.counts_hit_rate == 0.5
        assert "50.0% hit rate" in stats.counts_summary()

    def test_no_lookups(self):
        stats = CacheStats()
        assert stats.counts_hit_rate == 0.0
        assert "no lookups" in stats.counts_summary()


# --- CLI ---------------------------------------------------------------------


class TestOptimizeCLI:
    def test_optimize_writes_frontier_and_table(self, tmp_path, capsys):
        out = tmp_path / "frontier.csv"
        assert main([
            "optimize", "--dataset", "YT", "--algorithm", "pr",
            "--backend", "hyve", "--backend", "cpu",
            "--frontier-out", str(out),
        ]) == 0
        captured = capsys.readouterr()
        assert "recommended machine" in captured.out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("graph,algorithm,engine")
        assert len(lines) > 1

    def test_optimize_json_output(self, capsys):
        assert main([
            "optimize", "--dataset", "YT", "--algorithm", "bfs",
            "--backend", "cpu", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["algorithm"] == "BFS"

    def test_optimize_guided_with_weights(self, capsys):
        assert main([
            "optimize", "--dataset", "YT", "--algorithm", "pr",
            "--backend", "hyve", "--engine", "guided",
            "--budget", "40", "--weight", "edp=2", "--weight", "time=1",
        ]) == 0
        assert "recommended machine" in capsys.readouterr().out

    def test_bad_weight_is_operator_error(self, capsys):
        assert main([
            "optimize", "--dataset", "YT", "--backend", "cpu",
            "--weight", "beauty=1",
        ]) == 2
        assert "error:" in capsys.readouterr().err
