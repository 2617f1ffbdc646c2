"""Tests for the fault-injection subsystem and its resilience costs.

The two contracts everything else leans on:

1. **Zero-fault pass-through** — an all-zero profile produces reports
   bit-identical to an uninstrumented machine (no float drift, no
   spurious components).
2. **Determinism** — the same profile + seed injects the identical
   fault population on every run.
"""

import math

import pytest

from repro.arch.config import NAMED_CONFIGS
from repro.arch.machine import make_machine
from repro.arch.config import Workload
from repro.dynamic.store import DynamicGraphStore
from repro.dynamic.updates import apply_requests, generate_requests
from repro.errors import ConfigError, FaultError, ReproError, SweepPointError
from repro.faults import (
    FAULT_PROFILES,
    BankSparingPlan,
    FaultInjector,
    FaultProfile,
    SECDEDDevice,
    derive_seed,
    expected_write_rounds,
    make_profile,
    secded_factor,
    write_give_up_probability,
)
from repro.graph import rmat
from repro.memory.base import (
    AccessCost,
    AccessKind,
    AccessPattern,
    MemoryDevice,
)
from repro.units import GB, PJ


@pytest.fixture(scope="module")
def workload():
    return Workload(rmat(2048, 16000, seed=41, name="faults"),
                    reported_vertices=2_048_000,
                    reported_edges=16_000_000)


class TestErrors:
    def test_fault_error_is_repro_error(self):
        assert issubclass(FaultError, ReproError)
        assert issubclass(SweepPointError, ReproError)


class TestProfile:
    def test_zero_profile_is_zero(self):
        assert FaultProfile.zero().is_zero
        assert FAULT_PROFILES["none"].is_zero

    def test_named_profiles_nonzero(self):
        for name in ("mild", "harsh", "worn"):
            assert not FAULT_PROFILES[name].is_zero

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            FaultProfile(reram_stuck_cell_rate=1.5)
        with pytest.raises(ConfigError):
            FaultProfile(bank_failure_rate=-0.1)

    def test_rejects_certain_write_failure(self):
        with pytest.raises(ConfigError):
            FaultProfile(reram_write_fail_rate=1.0)

    def test_rejects_nonfinite_rates(self):
        with pytest.raises(ConfigError):
            FaultProfile(sram_upset_rate=float("inf"))

    def test_make_profile_unknown(self):
        with pytest.raises(ConfigError):
            make_profile("catastrophic")

    def test_make_profile_seed_override(self):
        assert make_profile("mild", seed=99).seed == 99
        assert make_profile("mild").seed == FAULT_PROFILES["mild"].seed

    def test_wear_fresh_device_no_wear(self):
        assert FaultProfile(reram_endurance_writes=1e8).wear_stuck_fraction == 0

    def test_wear_half_at_rated_endurance(self):
        p = FaultProfile(reram_endurance_writes=1e8,
                         reram_lifetime_writes=1e8)
        assert p.wear_stuck_fraction == pytest.approx(0.5)

    def test_wear_monotonic(self):
        young = FaultProfile(reram_endurance_writes=1e8,
                             reram_lifetime_writes=1e7)
        old = FaultProfile(reram_endurance_writes=1e8,
                           reram_lifetime_writes=9e7)
        assert young.wear_stuck_fraction < old.wear_stuck_fraction


class TestInjectorDeterminism:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "tag") == derive_seed(1, "tag")
        assert derive_seed(1, "tag") != derive_seed(2, "tag")
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_same_seed_same_banks(self):
        profile = make_profile("harsh", seed=5)
        a = FaultInjector(profile, "t").sample_failed_banks(64)
        b = FaultInjector(profile, "t").sample_failed_banks(64)
        assert a == b

    def test_different_tags_decorrelated(self):
        profile = make_profile("harsh", seed=5)
        flips_a = FaultInjector(profile, "a").sample_transient_flips(
            1e15, profile.dram_upset_rate)
        flips_b = FaultInjector(profile, "b").sample_transient_flips(
            1e15, profile.dram_upset_rate)
        assert flips_a != flips_b  # 1e4 expected events; collision ~0

    def test_all_banks_failing_raises(self):
        profile = FaultProfile(bank_failure_rate=1.0, seed=1)
        with pytest.raises(FaultError):
            FaultInjector(profile, "t").sample_failed_banks(8)


class TestResilienceMath:
    def test_write_rounds_ideal(self):
        assert expected_write_rounds(0.0, 5) == 1.0

    def test_write_rounds_formula(self):
        p = 0.5
        assert expected_write_rounds(p, 3) == pytest.approx(
            1 + p + p * p)

    def test_give_up_probability(self):
        assert write_give_up_probability(0.0, 5) == 0.0
        assert write_give_up_probability(0.1, 3) == pytest.approx(1e-3)

    def test_sparing_no_failures_no_loss(self):
        plan, chips = BankSparingPlan.build(
            footprint_bits=1 * GB, chips=2, banks_per_chip=8,
            bank_capacity_bits=4 * GB / 8, density_bits=4 * GB,
            failed_banks=0)
        assert plan.capacity_loss_fraction == 0.0
        assert plan.transition_factor == 1.0
        assert chips == 2

    def test_sparing_adds_chips_when_capacity_short(self):
        plan, chips = BankSparingPlan.build(
            footprint_bits=7.5 * GB, chips=2, banks_per_chip=8,
            bank_capacity_bits=4 * GB / 8, density_bits=4 * GB,
            failed_banks=4)
        assert chips > 2
        assert plan.spare_chips == chips - 2
        assert plan.transition_factor > 1.0

    def test_sparing_rejects_hopeless_wordloss(self):
        with pytest.raises(FaultError):
            BankSparingPlan.build(
                footprint_bits=1 * GB, chips=2, banks_per_chip=8,
                bank_capacity_bits=4 * GB / 8, density_bits=4 * GB,
                failed_banks=0, bad_word_fraction=0.6)


class _ToyDevice(MemoryDevice):
    """Minimal concrete device for wrapper tests."""

    access_bits = 64
    standby_power = 1e-3
    gated_power = 1e-4
    mats_per_bank = 7  # device-specific attribute the wrapper forwards

    def access_cost(self, kind, pattern):
        return AccessCost(latency=1e-9, energy=1.0 * PJ)


class TestSECDEDDevice:
    def test_factor(self):
        assert secded_factor() == pytest.approx(72 / 64)

    def test_access_cost_scaled(self):
        raw = _ToyDevice()
        ecc = SECDEDDevice(raw)
        raw_cost = raw.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
        ecc_cost = ecc.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
        assert ecc_cost.latency == pytest.approx(
            raw_cost.latency * secded_factor())
        # Energy: traffic factor plus per-word logic energy.
        assert ecc_cost.energy > raw_cost.energy * secded_factor()

    def test_background_power_scaled(self):
        ecc = SECDEDDevice(_ToyDevice())
        assert ecc.standby_power == pytest.approx(1e-3 * secded_factor())
        assert ecc.gated_power == pytest.approx(1e-4 * secded_factor())

    def test_data_facing_width_preserved(self):
        assert SECDEDDevice(_ToyDevice()).access_bits == 64

    def test_forwards_inner_attributes(self):
        assert SECDEDDevice(_ToyDevice()).mats_per_bank == 7


class TestZeroFaultPassThrough:
    """The central invariant: all-zero rates change nothing at all."""

    @pytest.mark.parametrize("config_name", sorted(NAMED_CONFIGS))
    def test_reports_bit_identical(self, config_name, workload):
        from repro.algorithms import PageRank

        baseline = make_machine(config_name).run(
            PageRank(), workload).report
        instrumented = make_machine(
            config_name, faults=FaultProfile.zero()
        ).run(PageRank(), workload)
        assert instrumented.faults is None
        assert instrumented.report.to_dict() == baseline.to_dict()

    def test_algorithm_results_untouched(self, workload):
        """Faults live in the device/energy layer: the algorithm's
        computed values are identical with and without instrumentation
        (vectorised and blocked execution alike)."""
        import numpy as np

        from repro.algorithms import PageRank, run_blocked, run_vectorized

        plain = make_machine("acc+HyVE-opt").run(PageRank(), workload)
        faulted = make_machine(
            "acc+HyVE-opt", faults=make_profile("harsh", seed=1)
        ).run(PageRank(), workload)
        np.testing.assert_array_equal(plain.run.values, faulted.run.values)
        assert plain.run.iterations == faulted.run.iterations
        # And the executors themselves agree, as always.
        vec = run_vectorized(PageRank(), workload.graph)
        blk = run_blocked(PageRank(), workload.graph, num_intervals=4,
                          num_pus=2)
        np.testing.assert_allclose(vec.values, blk.values)

    def test_none_profile_via_name(self, workload):
        from repro.algorithms import BFS

        baseline = make_machine("acc+HyVE-opt").run(BFS(), workload).report
        instrumented = make_machine(
            "acc+HyVE-opt", faults=make_profile("none")
        ).run(BFS(), workload).report
        assert instrumented.to_dict() == baseline.to_dict()


class TestFaultedRuns:
    @pytest.mark.parametrize("profile_name", ["mild", "harsh", "worn"])
    def test_deterministic_across_runs(self, profile_name, workload):
        from repro.algorithms import PageRank

        profile = make_profile(profile_name, seed=11)
        sims = [
            make_machine("acc+HyVE-opt", faults=profile).run(
                PageRank(), workload)
            for _ in range(2)
        ]
        assert sims[0].faults is not None
        assert sims[0].faults.total_injected == sims[1].faults.total_injected
        assert sims[0].faults.to_dict() == sims[1].faults.to_dict()
        assert sims[0].report.to_dict() == sims[1].report.to_dict()

    def test_faults_cost_efficiency(self, workload):
        from repro.algorithms import PageRank

        ideal = make_machine("acc+HyVE-opt").run(PageRank(), workload).report
        faulted = make_machine(
            "acc+HyVE-opt", faults=make_profile("harsh", seed=3)
        ).run(PageRank(), workload).report
        assert faulted.mteps_per_watt < ideal.mteps_per_watt

    def test_seed_changes_population(self, workload):
        from repro.algorithms import PageRank

        a = make_machine(
            "acc+HyVE-opt", faults=make_profile("worn", seed=1)
        ).run(PageRank(), workload).faults
        b = make_machine(
            "acc+HyVE-opt", faults=make_profile("worn", seed=2)
        ).run(PageRank(), workload).faults
        assert a.to_dict() != b.to_dict()

    def test_fault_report_serialisable(self, workload):
        import json

        from repro.algorithms import PageRank

        sim = make_machine(
            "acc+HyVE", faults=make_profile("mild", seed=7)
        ).run(PageRank(), workload)
        payload = json.loads(json.dumps(sim.faults.to_dict()))
        assert payload["total_injected"] == sim.faults.total_injected
        assert math.isfinite(payload["resilience_energy_j"])


class TestDynamicUpdateFaults:
    def _store_and_requests(self):
        graph = rmat(256, 2000, seed=5, name="dyn")
        store = DynamicGraphStore(graph, num_intervals=4)
        requests = generate_requests(graph, 500, seed=9)
        return store, requests

    def test_drops_reduce_applied_requests(self):
        store, requests = self._store_and_requests()
        profile = FaultProfile(update_drop_rate=0.5, seed=3)
        injector = FaultInjector(profile, "updates")
        apply_requests(store, requests, injector=injector)
        counts = injector.update_counts
        assert counts.dropped > 0
        assert counts.duplicated == 0

    def test_duplicates_absorbed_as_conflicts(self):
        store, requests = self._store_and_requests()
        profile = FaultProfile(update_duplicate_rate=0.3, seed=3)
        injector = FaultInjector(profile, "updates")
        apply_requests(store, requests, injector=injector)
        counts = injector.update_counts
        assert counts.duplicated > 0
        # A duplicated deletion targets an already-deleted edge; the
        # replay absorbs it instead of raising.
        assert counts.conflicts > 0

    def test_perturbation_deterministic(self):
        graph = rmat(256, 2000, seed=5, name="dyn")
        requests = generate_requests(graph, 500, seed=9)
        profile = FaultProfile(update_drop_rate=0.2,
                               update_duplicate_rate=0.2, seed=8)
        a = FaultInjector(profile, "t").perturb_requests(requests)
        b = FaultInjector(profile, "t").perturb_requests(requests)
        assert a == b

    def test_no_injector_keeps_strict_semantics(self):
        store, requests = self._store_and_requests()
        changed = apply_requests(store, requests)
        assert changed > 0
