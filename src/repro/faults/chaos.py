"""Infrastructure-fault injection: chaos for the *host-side* machinery.

This module injects faults into the infrastructure the reproduction
itself runs on — the SQLite result store (:mod:`repro.perf.store`):

* **torn writes** — a stored payload is truncated while its checksum
  describes the full write (the classic crash-mid-write shape);
* **bit flips** — one payload bit of a committed entry is flipped in
  place, checksum untouched (bit rot / torn page);
* **slow I/O** — bounded random sleeps before store operations
  (saturated disk, network filesystem).

Everything is seeded and deterministic per installed injector, rates
follow :class:`ChaosProfile`, and an all-zero profile is an **exact
pass-through**: no entropy is drawn, no hook fires, results are
bit-identical to running without the injector installed.  The verify harness enforces both directions with
the ``chaos-recovery`` and ``zero-chaos`` oracles (docs/robustness.md
has the taxonomy and recovery contract).

Install via :func:`chaos_context` (or :func:`set_chaos`); hooks are
consulted through :func:`get_chaos` by the store and cost one
``None`` check when chaos is off.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ChaosError
from ..obs import metrics as obs_metrics

#: Chaos rates interpreted as probabilities.
_RATE_FIELDS = (
    "torn_write_rate",
    "bit_flip_rate",
    "slow_io_rate",
)


@dataclass(frozen=True)
class ChaosProfile:
    """Rates for one infrastructure-chaos deployment.

    Attributes:
        seed: base seed of the injector's deterministic stream.
        torn_write_rate: probability a store write persists only a
            prefix of its payload (checksum still covers the whole).
        bit_flip_rate: probability a committed entry gets one payload
            bit flipped in place after the write.
        slow_io_rate: probability a store operation sleeps first.
        slow_io_max_s: upper bound of one injected sleep (seconds).
    """

    seed: int = 0
    torn_write_rate: float = 0.0
    bit_flip_rate: float = 0.0
    slow_io_rate: float = 0.0
    slow_io_max_s: float = 0.002

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChaosError(
                    f"{name} must be a probability in [0, 1]: {value}"
                )
        if self.slow_io_max_s < 0 or not math.isfinite(self.slow_io_max_s):
            raise ChaosError(
                f"slow_io_max_s must be finite and >= 0: "
                f"{self.slow_io_max_s}"
            )

    @property
    def is_zero(self) -> bool:
        """True when every rate is zero: the injector must be a no-op."""
        return all(getattr(self, f.name) == 0
                   for f in fields(self)
                   if f.name in _RATE_FIELDS)

    @classmethod
    def zero(cls, seed: int = 0) -> "ChaosProfile":
        """The all-zero (guaranteed pass-through) profile."""
        return cls(seed=seed)


#: Named severities (mirroring faults.profile.FAULT_PROFILES).
CHAOS_PROFILES: dict[str, ChaosProfile] = {
    # No infrastructure faults: pure pass-through.
    "none": ChaosProfile(),
    # A tired disk: occasional torn writes and slow I/O.
    "flaky-disk": ChaosProfile(
        torn_write_rate=0.05,
        bit_flip_rate=0.01,
        slow_io_rate=0.10,
    ),
    # Everything at once: torn writes, rotting media, slow I/O.
    "hostile": ChaosProfile(
        torn_write_rate=0.25,
        bit_flip_rate=0.20,
        slow_io_rate=0.20,
    ),
}


def make_chaos_profile(name: str, seed: int | None = None) -> ChaosProfile:
    """Look up a named chaos profile, optionally overriding its seed."""
    if name not in CHAOS_PROFILES:
        known = ", ".join(CHAOS_PROFILES)
        raise ChaosError(f"unknown chaos profile {name!r}; known: {known}")
    profile = CHAOS_PROFILES[name]
    if seed is not None:
        profile = ChaosProfile(
            **{**{f.name: getattr(profile, f.name)
                  for f in fields(profile)}, "seed": seed}
        )
    return profile


class ChaosInjector:
    """Seeded decision stream + the hooks the infrastructure consults.

    One injector is one deterministic fault schedule: the same profile
    and seed produce the same injection decisions in the same call
    order.  ``counts`` tallies what actually fired, and every injection
    also bumps the ``chaos_injections`` metric.

    A zero profile draws no entropy at all — each ``_fire`` guard
    checks the rate before touching the RNG — which is what makes the
    zero-chaos pass-through *exact* rather than merely likely.
    """

    def __init__(self, profile: ChaosProfile) -> None:
        self.profile = profile
        self._rng = np.random.default_rng(
            np.random.SeedSequence([0xC4A05, profile.seed & 0xFFFFFFFF])
        )
        self.counts: dict[str, int] = {
            "torn_write": 0,
            "bit_flip": 0,
            "slow_io": 0,
        }

    @property
    def total_injections(self) -> int:
        return sum(self.counts.values())

    def _fire(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        return bool(self._rng.random() < rate)

    def _record(self, kind: str) -> None:
        self.counts[kind] += 1
        obs_metrics.get_metrics().counter(
            obs_metrics.CHAOS_INJECTIONS
        ).add(1)

    # --- store hooks ------------------------------------------------------

    def io_delay(self) -> None:
        """Maybe sleep before a store operation (slow I/O)."""
        if self._fire(self.profile.slow_io_rate):
            self._record("slow_io")
            if self.profile.slow_io_max_s > 0:
                time.sleep(float(
                    self._rng.random() * self.profile.slow_io_max_s
                ))

    def filter_payload(self, key: str, payload: bytes) -> bytes:
        """Maybe tear a write: persist only a prefix of ``payload``."""
        del key
        if len(payload) > 1 and self._fire(self.profile.torn_write_rate):
            self._record("torn_write")
            cut = 1 + int(self._rng.integers(0, len(payload) - 1))
            return payload[:cut]
        return payload

    def after_put(self, store, key: str) -> None:
        """Maybe flip one bit of the entry just committed."""
        if self._fire(self.profile.bit_flip_rate):
            self._record("bit_flip")
            store.corrupt_bit(key, int(self._rng.integers(0, 1 << 20)))

    def summary(self) -> str:
        parts = [f"{kind}={count}"
                 for kind, count in self.counts.items() if count]
        return ("chaos: " + ", ".join(parts)) if parts else "chaos: none"


# --- process-wide installation -----------------------------------------------

_CHAOS: ChaosInjector | None = None


def get_chaos() -> ChaosInjector | None:
    """The installed injector, or ``None`` (chaos off, zero overhead)."""
    return _CHAOS


def set_chaos(injector: ChaosInjector | None) -> None:
    """Install (or remove, with ``None``) the process-wide injector."""
    global _CHAOS
    _CHAOS = injector


@contextlib.contextmanager
def chaos_context(profile: ChaosProfile):
    """Install a fresh injector for the duration; restores the previous
    one (usually ``None``) on exit.  Yields the injector so callers can
    assert on its ``counts``."""
    previous = _CHAOS
    injector = ChaosInjector(profile)
    set_chaos(injector)
    try:
        yield injector
    finally:
        set_chaos(previous)
