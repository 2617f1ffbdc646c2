"""Tests for the generic design-space sweep helper."""

import dataclasses
import importlib

import pytest

from repro.algorithms import PageRank
from repro.arch.config import HyVEConfig, Workload
from repro.arch.machine import AcceleratorMachine
from repro.arch.sweep import sweep
from repro.errors import ConfigError, SweepPointError
from repro.graph import rmat
from repro.obs import metrics as obs_metrics
from repro.perf import batch
from repro.units import MB
from repro.verify.oracles import assert_reports_identical

# The module, not the re-exported ``repro.arch.sweep`` function.
sweep_module = importlib.import_module("repro.arch.sweep")


@pytest.fixture(scope="module")
def workload():
    graph = rmat(2048, 16000, seed=97, name="sweep")
    return Workload(graph, reported_vertices=2_048_000,
                    reported_edges=16_000_000)


class TestSweep:
    def test_sram_axis(self, workload):
        points = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB],
                       PageRank, workload)
        assert len(points) == 3
        assert {p.value for p in points} == {2 * MB, 4 * MB, 8 * MB}
        assert all(p.report.total_energy > 0 for p in points)

    def test_boolean_axis(self, workload):
        points = sweep("data_sharing", [True, False], PageRank, workload)
        on, off = points
        assert on.report.mteps_per_watt > off.report.mteps_per_watt

    def test_labels_carry_value(self, workload):
        points = sweep("num_pus", [4, 8], PageRank, workload)
        assert points[0].config.label == "num_pus=4"

    def test_accepts_bare_graph(self):
        graph = rmat(256, 1000, seed=1)
        points = sweep("num_pus", [2], PageRank, graph)
        assert len(points) == 1

    def test_rejects_unknown_field(self, workload):
        with pytest.raises(ConfigError):
            sweep("sram_banks", [1], PageRank, workload)

    def test_rejects_empty_values(self, workload):
        with pytest.raises(ConfigError):
            sweep("num_pus", [], PageRank, workload)

    def test_one_kernel_pass_identical_to_run(self, workload):
        priced = obs_metrics.get_metrics().counter(
            obs_metrics.FOLD_MANY_CONFIGS
        )
        # A pricing-only axis: every point shares one counts key.
        values = [0.5, 0.85, 1.0]
        before = priced.value
        points = sweep("region_hit_rate", values, PageRank, workload)
        assert priced.value - before == len(values)
        for point, direct in zip(points, _direct_reports(
                "region_hit_rate", values, workload)):
            assert_reports_identical(direct, point.report,
                                     point.config.label)


def _direct_reports(field, values, workload):
    """The per-value ``run()`` loop a sweep must reproduce."""
    return [
        AcceleratorMachine(
            dataclasses.replace(HyVEConfig(), **{field: value,
                                                 "label": f"{field}={value}"}),
        ).run(PageRank(), workload).report
        for value in values
    ]


class TestRobustSweep:
    """Error isolation: strict sweeps raise, isolating sweeps record."""

    def test_failing_point_kills_strict_sweep(self, workload):
        with pytest.raises(SweepPointError):
            sweep("num_pus", [4, -1], PageRank, workload)

    def test_failing_point_isolated(self, workload):
        points = sweep("num_pus", [4, -1, 8], PageRank, workload,
                       isolate_errors=True)
        assert len(points) == 3
        assert [p.value for p in points if p.ok] == [4, 8]
        failed = points[1]
        assert not failed.ok
        assert failed.report is None
        assert "ConfigError" in failed.error
        with pytest.raises(SweepPointError):
            _ = failed.mteps_per_watt

    def test_empty_selection_after_failures(self, workload):
        points = sweep("num_pus", [-1, -2], PageRank, workload,
                       isolate_errors=True)
        assert not any(p.ok for p in points)
        assert all("ConfigError" in p.error for p in points)


class TestConvergenceFailure:
    """The shared convergence runs once; its failure fails every point."""

    @staticmethod
    def _exploding(calls):
        def factory():
            calls.append(1)
            raise RuntimeError("diverged")
        return factory

    def test_every_point_fails_isolated(self, workload):
        calls = []
        points = sweep("num_pus", [2, 4, 8], self._exploding(calls),
                       workload, isolate_errors=True)
        assert len(calls) == 1
        assert [p.error for p in points] == ["RuntimeError: diverged"] * 3
        assert not any(p.ok for p in points)

    def test_strict_names_first_value(self, workload):
        calls = []
        with pytest.raises(SweepPointError, match="num_pus=2") as info:
            sweep("num_pus", [2, 4, 8], self._exploding(calls), workload)
        assert len(calls) == 1
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_diverging_algorithm_converges_once(self, workload):
        calls = []

        class Diverging(PageRank):
            def transform_graph(self, graph):
                calls.append(1)
                raise RuntimeError("diverged")

        points = sweep("num_pus", [2, 4, 8], Diverging, workload,
                       isolate_errors=True)
        assert len(calls) == 1
        assert [p.error for p in points] == ["RuntimeError: diverged"] * 3


class TestGridFallback:
    """When ``run_grid`` raises, the points are priced one by one."""

    @pytest.fixture
    def broken_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise ConfigError("grid refused")
        monkeypatch.setattr(batch, "run_grid", refuse)

    def test_reports_match_run(self, workload, broken_grid):
        values = [2, 4, 8]
        points = sweep("num_pus", values, PageRank, workload)
        for point, direct in zip(points, _direct_reports(
                "num_pus", values, workload)):
            assert_reports_identical(direct, point.report,
                                     f"fallback {point.config.label}")

    def test_raises_on_first_failing_value(self, workload, broken_grid,
                                           monkeypatch):
        evaluated = []

        class FlakyMachine(AcceleratorMachine):
            def run(self, algorithm, workload):
                evaluated.append(self.config.num_pus)
                if self.config.num_pus in (4, 8):
                    raise RuntimeError(f"cannot price {self.label}")
                return super().run(algorithm, workload)

        monkeypatch.setattr(sweep_module, "AcceleratorMachine",
                            FlakyMachine)
        with pytest.raises(SweepPointError, match="num_pus=8"):
            sweep("num_pus", [2, 8, 4], PageRank, workload)
        assert evaluated == [2, 8]
        evaluated.clear()
        points = sweep("num_pus", [2, 8, 4], PageRank, workload,
                       isolate_errors=True)
        assert evaluated == [2, 8, 4]
        assert [p.ok for p in points] == [True, False, False]
        assert points[1].error == "RuntimeError: cannot price num_pus=8"
