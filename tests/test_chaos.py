"""Tests for the infrastructure-chaos injector and its store wiring.

The central invariants, mirroring the device-fault layer of PR 1: the
injector is deterministic per (profile, seed), an all-zero profile
draws no entropy and perturbs nothing, and every injected fault is
*absorbed* by the robustness machinery — torn writes and bit flips are
quarantined and recomputed, and results stay bit-identical.
"""

import numpy as np
import pytest

from repro.errors import ChaosError
from repro.faults.chaos import (
    CHAOS_PROFILES,
    ChaosInjector,
    ChaosProfile,
    chaos_context,
    get_chaos,
    make_chaos_profile,
    set_chaos,
)
from repro.obs import metrics as obs_metrics
from repro.perf.store import SQLiteStore


class TestProfile:
    def test_rates_validated(self):
        with pytest.raises(ChaosError):
            ChaosProfile(torn_write_rate=1.5)
        with pytest.raises(ChaosError):
            ChaosProfile(bit_flip_rate=-0.1)
        with pytest.raises(ChaosError):
            ChaosProfile(slow_io_max_s=float("nan"))

    def test_zero_profile_is_zero(self):
        assert ChaosProfile.zero().is_zero
        assert not ChaosProfile(torn_write_rate=0.01).is_zero

    def test_named_profiles(self):
        assert CHAOS_PROFILES["none"].is_zero
        assert not CHAOS_PROFILES["hostile"].is_zero
        profile = make_chaos_profile("flaky-disk", seed=99)
        assert profile.seed == 99
        assert profile.torn_write_rate == (
            CHAOS_PROFILES["flaky-disk"].torn_write_rate
        )
        with pytest.raises(ChaosError, match="unknown chaos profile"):
            make_chaos_profile("apocalypse")


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        profile = ChaosProfile(seed=7, torn_write_rate=0.5)
        a = ChaosInjector(profile)
        b = ChaosInjector(profile)
        payload = bytes(range(200))
        outcomes_a = [a.filter_payload("k", payload) for _ in range(50)]
        outcomes_b = [b.filter_payload("k", payload) for _ in range(50)]
        assert outcomes_a == outcomes_b
        assert a.counts == b.counts
        assert a.counts["torn_write"] > 0

    def test_different_seed_diverges(self):
        payload = bytes(range(200))
        a = ChaosInjector(ChaosProfile(seed=1, torn_write_rate=0.5))
        b = ChaosInjector(ChaosProfile(seed=2, torn_write_rate=0.5))
        outcomes_a = [a.filter_payload("k", payload) for _ in range(50)]
        outcomes_b = [b.filter_payload("k", payload) for _ in range(50)]
        assert outcomes_a != outcomes_b


class TestZeroPassThrough:
    def test_zero_profile_draws_no_entropy(self):
        injector = ChaosInjector(ChaosProfile.zero(seed=5))
        state_before = injector._rng.bit_generator.state
        payload = b"x" * 100
        assert injector.filter_payload("k", payload) is payload
        injector.io_delay()
        assert injector._rng.bit_generator.state == state_before
        assert injector.total_injections == 0

    def test_zero_profile_store_writes_untouched(self, tmp_path):
        with chaos_context(ChaosProfile.zero()) as injector:
            store = SQLiteStore(tmp_path / "store")
            rng = np.random.default_rng(3)
            payloads = {f"k{i}": rng.bytes(300) for i in range(20)}
            for key, payload in payloads.items():
                store.put(key, payload, kind="run")
            for key, payload in payloads.items():
                assert store.get(key) == payload
        assert injector.total_injections == 0


class TestInstallation:
    def test_context_installs_and_restores(self):
        assert get_chaos() is None
        with chaos_context(ChaosProfile.zero()) as injector:
            assert get_chaos() is injector
        assert get_chaos() is None

    def test_set_chaos_explicit(self):
        injector = ChaosInjector(ChaosProfile.zero())
        set_chaos(injector)
        try:
            assert get_chaos() is injector
        finally:
            set_chaos(None)


class TestStoreAbsorbsChaos:
    def test_torn_writes_quarantined_and_recomputed(self, tmp_path):
        profile = ChaosProfile(seed=11, torn_write_rate=1.0)
        store = SQLiteStore(tmp_path / "store")
        payload = bytes(range(256))
        with chaos_context(profile) as injector:
            store.put("k", payload, kind="run")
            assert injector.counts["torn_write"] == 1
            # The torn entry fails its checksum: quarantined, not served.
            assert store.get("k") is None
        assert store.quarantine_count() == 1
        # The recompute (chaos off) lands whole.
        store.put("k", payload, kind="run")
        assert store.get("k") == payload

    def test_bit_flips_quarantined(self, tmp_path):
        profile = ChaosProfile(seed=2, bit_flip_rate=1.0)
        store = SQLiteStore(tmp_path / "store")
        with chaos_context(profile) as injector:
            store.put("k", bytes(64), kind="run")
            assert injector.counts["bit_flip"] == 1
            assert store.get("k") is None
        assert store.quarantine_count() == 1

    def test_injections_counted_in_metrics(self, tmp_path):
        registry = obs_metrics.get_metrics()
        before = registry.counter(obs_metrics.CHAOS_INJECTIONS).value
        with chaos_context(ChaosProfile(seed=1, torn_write_rate=1.0)):
            store = SQLiteStore(tmp_path / "store")
            store.put("k", bytes(64), kind="run")
        after = registry.counter(obs_metrics.CHAOS_INJECTIONS).value
        assert after == before + 1
