"""Tests for SECDED protection: the device wrapper and the machine switch.

``AcceleratorMachine(config, secded=True)`` is the one device-protection
ablation; it prices every memory level with a (72, 64) SECDED code and
leaves the algorithm's results untouched.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.arch.config import NAMED_CONFIGS, Workload
from repro.arch.machine import AcceleratorMachine
from repro.graph import rmat
from repro.memory.base import (
    AccessCost,
    AccessKind,
    AccessPattern,
    MemoryDevice,
)
from repro.memory.ecc import SECDEDDevice, secded_factor
from repro.units import PJ


@pytest.fixture(scope="module")
def workload():
    return Workload(rmat(2048, 16000, seed=41, name="faults"),
                    reported_vertices=2_048_000,
                    reported_edges=16_000_000)


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


class TestSECDEDMachine:
    @pytest.mark.parametrize("config_name", sorted(NAMED_CONFIGS))
    def test_costs_efficiency_not_results(self, config_name, workload):
        make = NAMED_CONFIGS[config_name]
        ideal = AcceleratorMachine(make()).run(PageRank(), workload)
        protected = AcceleratorMachine(make(), secded=True).run(
            PageRank(), workload)
        np.testing.assert_array_equal(ideal.values, protected.values)
        assert protected.report.iterations == ideal.report.iterations
        assert list(protected.report.energy) == list(ideal.report.energy)
        assert (protected.report.mteps_per_watt
                < ideal.report.mteps_per_watt)


class TestZeroFaultPassThrough:
    def test_algorithm_results_untouched(self, workload):
        """Protection lives in the device/energy layer: the algorithm's
        computed values are identical with and without SECDED
        (vectorised and blocked execution alike)."""
        from repro.algorithms import run_blocked, run_vectorized

        config = NAMED_CONFIGS["acc+HyVE-opt"]
        plain = AcceleratorMachine(config()).run(PageRank(), workload)
        protected = AcceleratorMachine(config(), secded=True).run(
            PageRank(), workload)
        np.testing.assert_array_equal(plain.run.values,
                                      protected.run.values)
        assert plain.run.iterations == protected.run.iterations
        # And the executors themselves agree, as always.
        vec = run_vectorized(PageRank(), workload.graph)
        blk = run_blocked(PageRank(), workload.graph, num_intervals=4,
                          num_pus=2)
        np.testing.assert_allclose(vec.values, blk.values)


class TestFaultedRuns:
    def test_faults_cost_efficiency(self, workload):
        config = NAMED_CONFIGS["acc+HyVE-opt"]
        ideal = AcceleratorMachine(config()).run(
            PageRank(), workload).report
        protected = AcceleratorMachine(config(), secded=True).run(
            PageRank(), workload).report
        assert protected.mteps_per_watt < ideal.mteps_per_watt
