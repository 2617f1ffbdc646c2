"""Tests for the columnar HyVE pricing kernel.

The kernel resolves each distinct device object of a grid once and
prices every config as a row of NumPy columns.  The contract is the
scalar model's: every report and objective column is bit-identical to pricing each config alone with ``machine.run``, and
the metrics counters add up to the same totals.
"""

import io
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.algorithms.runner import run_cached
from repro.arch import machine
from repro.arch.config import (
    NAMED_CONFIGS,
    HyVEConfig,
    MemoryTechnology,
    Workload,
)
from repro.arch.machine import AcceleratorMachine, fold_many
from repro.arch.router import RouterModel
from repro.errors import ConfigError, MemoryModelError
from repro.memory.powergate import PowerGatingPolicy
from repro.obs import get_tracer, set_tracer
from repro.obs import metrics as obs_metrics
from repro.perf import batch
from repro.perf.batch import price_grid, run_grid, scheduled_counts
from repro.tune import exhaustive_search
from repro.tune.space import default_space
from repro.units import GBIT, US

RERAM, DRAM, NONE = (MemoryTechnology.RERAM, MemoryTechnology.DRAM,
                     MemoryTechnology.NONE)


@pytest.fixture
def workload(weighted_graph):
    return Workload(weighted_graph, reported_vertices=256_000,
                    reported_edges=1_024_000)


def _mixed_grid() -> list[HyVEConfig]:
    """BPG-gated and ungated ReRAM edges, DRAM edges, scratchpad-less
    machines, and device objects both shared and equal-but-distinct."""
    opt = HyVEConfig(label="opt")
    dram_only = NAMED_CONFIGS["acc+DRAM"]()
    reram_only = NAMED_CONFIGS["acc+ReRAM"]()
    return [
        opt,
        # Shares opt's device objects (replace keeps the references).
        replace(opt, label="opt-hit-0.7", region_hit_rate=0.7),
        # Equal to opt's devices, but distinct objects.
        replace(opt, label="opt-equal-devices", reram=replace(opt.reram),
                dram=replace(opt.dram),
                power_gating=replace(opt.power_gating)),
        replace(opt, label="opt-ungated",
                power_gating=PowerGatingPolicy(enabled=False)),
        replace(opt, label="opt-timeout-5us",
                power_gating=PowerGatingPolicy(idle_timeout=5.0 * US)),
        replace(opt, label="opt-8gbit-mlc2", reram=replace(
            opt.reram, density_bits=8 * GBIT,
            cell=replace(opt.reram.cell, cell_bits=2))),
        replace(opt, label="opt-bank-interleaved",
                reram=replace(opt.reram, subbank_interleaving=False)),
        replace(opt, label="sd-policy-enabled", edge_memory=DRAM),
        replace(opt, label="opt-reram-vertex", offchip_vertex=RERAM),
        dram_only,
        replace(dram_only, label="dram-hit-0.5-mlp-2", region_hit_rate=0.5,
                random_access_mlp=2),
        reram_only,
        replace(reram_only, label="reram-gated",
                power_gating=PowerGatingPolicy()),
    ]


def _exact(value):
    return json.dumps(value, default=repr)


class TestGridIdentity:
    @pytest.mark.parametrize("factory", [PageRank, BFS], ids=["pr", "bfs"])
    def test_grid_matches_run_loop(self, workload, factory):
        configs = _mixed_grid()
        batched = run_grid(factory(), workload, configs)
        fold = price_grid(factory(), workload, configs)
        for i, config in enumerate(configs):
            serial = AcceleratorMachine(config).run(factory(), workload)
            for report in (batched[i].report, fold.reports[i]):
                assert report.__dict__ == serial.report.__dict__
                assert list(report.energy.items()) == list(
                    serial.report.energy.items()
                )
            assert repr(fold.time[i].item()) == repr(serial.report.time)
            assert repr(fold.total_energy[i].item()) == repr(
                serial.report.total_energy
            )

    @pytest.mark.parametrize("factory", [PageRank, BFS], ids=["pr", "bfs"])
    def test_secded_grid_matches_run_loop(self, workload, factory):
        # No driver prices a SECDED grid, but the kernel's SECDED rows
        # and scratchpad edits are columnar like every other term.
        configs = _mixed_grid()
        run = run_cached(factory(), workload.graph)
        table, group = [], []
        for config in configs:
            counts = scheduled_counts(run, workload, config)
            if counts not in table:
                table.append(counts)
            group.append(table.index(counts))
        fold = machine._fold_kernel(run, table, workload, configs, True,
                                    np.array(group, np.intp))
        for i, config in enumerate(configs):
            want = AcceleratorMachine(config, secded=True).run(
                factory(), workload).report
            assert _exact(fold.reports[i].__dict__) == _exact(want.__dict__)
            assert list(fold.reports[i].energy) == list(want.energy)
            ideal = AcceleratorMachine(config).run(factory(), workload)
            assert want.total_energy > ideal.report.total_energy

    def test_columns_follow_grid_order(self, workload):
        configs = list(reversed(_mixed_grid()))
        fold = price_grid(PageRank(), workload, configs)
        assert [r.machine for r in fold.reports] == [c.label for c in configs]
        assert fold.time.tolist() == [r.time for r in fold.reports]
        assert fold.total_energy.tolist() == [
            r.total_energy for r in fold.reports
        ]

    def test_empty_grid(self, workload):
        fold = price_grid(PageRank(), workload, [])
        assert fold.reports == [] and fold.time.shape == (0,)

    def test_secded_wraps_only_protected_devices(self, workload):
        # Ideal machines wrap nothing; a SECDED machine wraps exactly
        # its off-chip devices (the scratchpad is priced, not wrapped).
        config = HyVEConfig(label="opt")
        machine.clear_device_memos()
        try:
            AcceleratorMachine(config).run(PageRank(), workload)
            assert not [key for key in machine._DEVICE_MEMO if key[1]]
            AcceleratorMachine(config, secded=True).run(PageRank(), workload)
            wrapped = {device for device, secded in machine._DEVICE_MEMO
                       if secded}
        finally:
            machine.clear_device_memos()
        assert wrapped == {config.reram, config.dram}


def _structural_shuffled() -> list[HyVEConfig]:
    """The structural HyVE space in a seeded random order, so counts
    groups and configs with and without a scratchpad interleave."""
    cands, _ = default_space("hyve", structural=True).candidates()
    configs = [c.config for c in cands]
    random.Random(19).shuffle(configs)
    return configs


def _traced_attribution(price) -> tuple[list, list]:
    """(``price()``'s result, the attribution events it traced)."""
    sink = io.StringIO()
    set_tracer(None)
    tracer = get_tracer()
    tracer.start(sink)
    try:
        result = price()
    finally:
        tracer.stop()
        set_tracer(None)
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    return result, [
        [r["name"], r.get("tags", {})] for r in records
        if r["kind"] == "event"
        and r["name"] in ("phase_time", "energy", "phase_detail", "report")
    ]


class TestInterleavedGrid:
    def test_grid_matches_run_loop(self, workload):
        configs = _structural_shuffled()
        for flags in ([c.has_onchip for c in configs],
                      [c.schedule_shape for c in configs]):
            # Neither component sets nor counts groups are contiguous.
            assert sum(a != b for a, b in zip(flags, flags[1:])) > 100
        counters = (obs_metrics.FOLD_MANY_CONFIGS, obs_metrics.EDGES_STREAMED,
                    obs_metrics.ROUTER_ROTATIONS, obs_metrics.BPG_BANK_WAKES)
        try:
            obs_metrics.set_metrics(None)
            serial, serial_events = _traced_attribution(lambda: [
                AcceleratorMachine(config).run(PageRank(), workload)
                for config in configs
            ])
            loop = obs_metrics.get_metrics().snapshot()
            obs_metrics.set_metrics(None)
            batched, grid_events = _traced_attribution(
                lambda: run_grid(PageRank(), workload, configs)
            )
            grid = obs_metrics.get_metrics().snapshot()
        finally:
            obs_metrics.set_metrics(None)
        fold = price_grid(PageRank(), workload, configs)
        for i, want in enumerate(serial):
            for report in (batched[i].report, fold.reports[i]):
                assert _exact(report.__dict__) == _exact(want.report.__dict__)
            assert repr(fold.time[i].item()) == repr(want.report.time)
            assert repr(fold.total_energy[i].item()) == repr(
                want.report.total_energy)
        # Event by event, so a failure reports one event, not a diff of
        # the whole trace.
        assert len(grid_events) == len(serial_events)
        for i, (got, want) in enumerate(zip(grid_events, serial_events)):
            assert _exact(got) == _exact(want), f"event {i}"
        machines = [tags["machine"] for name, tags in grid_events
                    if name == "report"]
        assert machines == [c.label for c in configs]
        for name in counters[1:]:
            assert repr(grid[name]["value"]) == repr(loop[name]["value"])
        assert grid[counters[0]]["value"] == len(configs)
        assert grid[obs_metrics.BPG_BANK_WAKES]["value"] > 0

    def test_one_kernel_pass_per_grid(self, workload, monkeypatch):
        calls = []
        original = machine._fold_kernel

        def counting(run, table, workload, configs, *args, **kwargs):
            calls.append(len(configs))
            return original(run, table, workload, configs, *args, **kwargs)

        monkeypatch.setattr(machine, "_fold_kernel", counting)
        monkeypatch.setattr(batch, "_fold_kernel", counting)
        configs = _structural_shuffled()
        price_grid(PageRank(), workload, configs)
        # The grid spans every counts group and both component sets.
        assert calls == [len(configs)]


class TestOnDemandReports:
    def test_report_matches_run_grid(self, workload):
        configs = _mixed_grid() + [
            replace(c, label=f"{c.label}-n4", num_pus=4)
            for c in _mixed_grid()
        ]
        run = run_cached(PageRank(), workload.graph)
        assert len(batch.group_by_counts_key(run, workload, configs)) > 2
        assert {c.has_onchip for c in configs} == {True, False}
        want = run_grid(PageRank(), workload, configs)
        fold = price_grid(PageRank(), workload, configs)
        # Out of order, and before anything builds the whole list.
        for i in reversed(range(len(configs))):
            got = fold.report(i)
            assert _exact(got.__dict__) == _exact(want[i].report.__dict__)
            assert list(got.energy) == list(want[i].report.energy)
        assert fold.reports[0] is fold.report(0)

    def test_search_builds_only_frontier_reports(self, workload,
                                                 monkeypatch):
        built = []

        class Counting(machine.EnergyReport):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["machine"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(machine, "EnergyReport", Counting)
        space = default_space("hyve", structural=True)
        frontier = exhaustive_search(PageRank(), workload, space)
        assert 0 < len(frontier.points) < frontier.evaluated
        assert sorted(built) == sorted(p.report.machine
                                       for p in frontier.points)
        assert all(isinstance(p.report, Counting) for p in frontier.points)


class TestCounters:
    def test_grid_totals_equal_run_loop(self, workload):
        names = (obs_metrics.EDGES_STREAMED, obs_metrics.BPG_BANK_WAKES,
                 obs_metrics.ROUTER_ROTATIONS)
        configs = _mixed_grid()
        try:
            obs_metrics.set_metrics(None)
            for config in configs:
                AcceleratorMachine(config).run(PageRank(), workload)
            serial = obs_metrics.get_metrics().snapshot()
            obs_metrics.set_metrics(None)
            run_grid(PageRank(), workload, configs)
            grid = obs_metrics.get_metrics().snapshot()
        finally:
            obs_metrics.set_metrics(None)
        for name in names:
            assert repr(grid[name]["value"]) == repr(serial[name]["value"])
        assert grid[obs_metrics.BPG_BANK_WAKES]["value"] > 0
        assert grid[obs_metrics.FOLD_MANY_CONFIGS]["value"] == len(configs)


@pytest.fixture
def patched_costs(monkeypatch):
    """Patch every memory device's unit-cost row through ``edit(row)``."""
    original = machine._device_cost_table

    def patch(edit):
        monkeypatch.setattr(machine, "_device_cost_table",
                            lambda device: edit(list(original(device))))
        machine.clear_device_memos()

    yield patch
    monkeypatch.undo()
    machine.clear_device_memos()


class TestErrors:
    def test_negative_dynamic_energy_names_component(self, workload,
                                                     patched_costs):
        def negate_stream_energy(row):
            row[machine._SR_EN] = -row[machine._SR_EN]
            return row

        patched_costs(negate_stream_energy)
        with pytest.raises(ConfigError, match="negative energy for "
                                              "edge_memory: -"):
            AcceleratorMachine(HyVEConfig()).run(PageRank(), workload)
        with pytest.raises(ConfigError, match="negative energy for "
                                              "edge_memory: -"):
            run_grid(PageRank(), workload, _mixed_grid())

    def test_negative_background_names_component(self, workload,
                                                 patched_costs):
        def negate_standby(row):
            row[machine._STANDBY] = -row[machine._STANDBY]
            return row

        patched_costs(negate_standby)
        with pytest.raises(ConfigError, match="negative energy for "
                                              "edge_memory_background"):
            run_grid(PageRank(), workload, _mixed_grid())

    def test_negative_duration_names_component(self, workload,
                                               patched_costs):
        def negate_latencies(row):
            for col in (machine._SR_LAT, machine._SW_LAT, machine._RR_LAT,
                        machine._RW_LAT):
                row[col] = -1e9 * row[col]
            return row

        patched_costs(negate_latencies)
        ungated = NAMED_CONFIGS["acc+SRAM+DRAM"]()
        with pytest.raises(MemoryModelError,
                           match="edge_memory_background: negative duration"):
            run_grid(PageRank(), workload, [ungated])


class TestRouterColumns:
    @pytest.mark.parametrize("field, message", [
        ("router_words", "negative word count: -3.0"),
        ("reroute_events", "negative event count: -3.0"),
        ("steps_total", "negative step count: -3.0"),
    ])
    def test_negative_count_row_names_value(self, workload, field, message):
        configs = [HyVEConfig(label="a"), HyVEConfig(label="b", num_pus=4)]
        run = run_cached(PageRank(), workload.graph)
        table = [scheduled_counts(run, workload, c) for c in configs]
        table[1] = replace(table[1], **{field: -3.0})
        with pytest.raises(ConfigError) as scalar:
            router = RouterModel(table[1].num_pus)
            {"router_words": router.transfer_energy,
             "reroute_events": router.reroute_energy,
             "steps_total": router.fill_latency}[field](-3.0)
        with pytest.raises(ConfigError) as folded:
            machine._fold_kernel(run, table, workload, configs,
                                 group=np.array([0, 1]))
        assert str(folded.value) == str(scalar.value) == message

    def test_port_column_names_value(self):
        with pytest.raises(ConfigError, match="at least one port, got 0"):
            RouterModel(np.array([8, 0, 4]))


class TestScheduleChecks:
    def test_mixed_grid_message_lists_every_knob(self, small_rmat):
        workload = Workload(small_rmat)
        head = HyVEConfig(label="a")
        off = HyVEConfig(label="b", num_pus=4, onchip_vertex=NONE,
                         data_sharing=False, hash_placement=False)
        run = run_cached(PageRank(), workload.graph)
        counts = scheduled_counts(run, workload, head)
        expected = (
            "fold_many: config 'b' does not share the grid's schedule — "
            "num_pus=4, counts expect 8; "
            f"partitions into 4 intervals, counts expect "
            f"{counts.num_intervals}; "
            "has_onchip=False differs from the grid's True; "
            "data_sharing=False differs from the grid's True; "
            "hash_placement=False differs from the grid's True; "
            "group configs by counts key first"
        )
        assert counts.num_intervals != 4
        grid = [head, replace(head, label="c", region_hit_rate=0.5), off,
                HyVEConfig(label="d", num_pus=16)]
        with pytest.raises(ConfigError) as excinfo:
            fold_many(run, counts, workload, grid)
        assert str(excinfo.value) == expected

    def test_partitions_derived_once_per_shape(self, workload, monkeypatch):
        from repro.arch import config as config_module
        from repro.perf import batch

        calls = []
        original = config_module.choose_num_intervals

        def counting(config, *args):
            calls.append(config.label)
            return original(config, *args)

        monkeypatch.setattr(config_module, "choose_num_intervals", counting)
        monkeypatch.setattr(batch, "choose_num_intervals", counting)
        configs = _mixed_grid() + [
            replace(c, label=f"{c.label}-no-hash", hash_placement=False)
            for c in _mixed_grid()
        ]
        shapes = {c.schedule_shape for c in configs}
        partitions = {c.partition_shape for c in configs}
        run_grid(PageRank(), workload, configs)
        # Grouping derives P once per partition shape, and checking the
        # grid once per schedule shape; each group's counts lookup reuses
        # the key the grouping built.
        assert len(partitions) < len(shapes) < len(configs)
        assert len(calls) == len(partitions) + len(shapes)


def test_search_space_interns_device_objects():
    cands, _ = default_space(structural=True).candidates()
    for field in ("reram", "dram", "power_gating"):
        objects = [getattr(c.config, field) for c in cands]
        assert len({id(o) for o in objects}) == len(set(objects))
