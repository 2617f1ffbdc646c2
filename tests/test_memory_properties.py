"""Property-based invariants on the device models (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    AccessKind,
    AccessPattern,
    DDR4Chip,
    NvSimLite,
    OnChipSRAM,
    OptimizationTarget,
    ReRAMCellParams,
    ReRAMChip,
    ReRAMConfig,
)
from repro.units import GBIT, MB

DEVICES = [ReRAMChip(), DDR4Chip(), OnChipSRAM()]
KINDS = [AccessKind.READ, AccessKind.WRITE]
PATTERNS = [AccessPattern.SEQUENTIAL, AccessPattern.RANDOM]


@given(
    st.sampled_from(DEVICES),
    st.sampled_from(KINDS),
    st.sampled_from(PATTERNS),
    st.floats(min_value=0.0, max_value=1e12),
)
@settings(max_examples=120, deadline=None)
def test_transfer_cost_non_negative_and_monotone(device, kind, pattern, bits):
    cost = device.transfer_cost(kind, bits, pattern)
    bigger = device.transfer_cost(kind, bits * 2 + device.access_bits,
                                  pattern)
    assert cost.energy >= 0 and cost.latency >= 0
    assert bigger.energy >= cost.energy
    assert bigger.latency >= cost.latency


@given(
    st.sampled_from(DEVICES),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_background_energy_bounds(device, duration, gated):
    energy = device.background_energy(duration, gated)
    full = device.background_energy(duration, 0.0)
    assert 0.0 <= energy <= full + 1e-12


@given(
    st.sampled_from(DEVICES),
    st.sampled_from(KINDS),
)
@settings(max_examples=30, deadline=None)
def test_random_never_cheaper_than_sequential_latency(device, kind):
    seq = device.access_cost(kind, AccessPattern.SEQUENTIAL)
    rnd = device.access_cost(kind, AccessPattern.RANDOM)
    assert rnd.latency >= seq.latency


@given(st.sampled_from([64, 128, 256, 512, 1024]),
       st.sampled_from(list(OptimizationTarget)),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_nvsim_points_well_formed(bits, target, cell_bits):
    point = NvSimLite(ReRAMCellParams(cell_bits=cell_bits)).solve(
        bits, target
    )
    assert point.read_energy > 0
    assert point.read_period > 0
    assert point.write_energy > point.read_energy * 0.1
    assert point.write_latency >= 10e-9  # at least one set pulse


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=30, deadline=None)
def test_sram_scaling_monotone(capacity_mb):
    small = OnChipSRAM(capacity_mb * MB)
    big = OnChipSRAM(2 * capacity_mb * MB)
    sc = small.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    bc = big.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    assert bc.energy > sc.energy
    assert bc.latency > sc.latency
    assert big.standby_power > small.standby_power


@given(st.sampled_from([4, 8, 16, 32]))
@settings(max_examples=20, deadline=None)
def test_density_scaling_monotone(density_gbit):
    small = ReRAMChip(ReRAMConfig(density_bits=density_gbit * GBIT))
    big = ReRAMChip(ReRAMConfig(density_bits=2 * density_gbit * GBIT))
    assert (
        big.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL).energy
        >= small.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL).energy
    )
    assert big.standby_power >= small.standby_power


def test_modeled_absolute_update_throughput_near_paper():
    from repro.dynamic import modeled_absolute_throughput

    # Paper: 42.43-46.98 M edges/s per thread.
    assert modeled_absolute_throughput() == pytest.approx(45e6, rel=0.3)
