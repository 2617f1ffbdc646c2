"""Deterministic, seedable fault injection.

One :class:`FaultInjector` owns a ``numpy`` generator derived from the
profile seed and a caller-supplied tag (machine label, algorithm, graph
name), so every (machine, workload) pair draws an independent but fully
reproducible fault pattern: two runs with the same profile and tag
inject identical faults.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import FaultError
from ..memory.ecc import SECDED_DATA_BITS
from .profile import FaultProfile


def derive_seed(seed: int, tag: str) -> int:
    """Mix a base seed with a context tag, stably across processes.

    ``hash()`` is randomised per interpreter; CRC32 is not.
    """
    return (seed & 0xFFFFFFFF) ^ zlib.crc32(tag.encode())


@dataclass
class UpdateFaultCounts:
    """Tally of perturbations applied to one dynamic-update stream."""

    dropped: int = 0
    duplicated: int = 0
    conflicts: int = 0  # replay errors absorbed (e.g. double-delete)


@dataclass(frozen=True)
class StuckWordStats:
    """How SECDED words fare under a given stuck-cell rate.

    Attributes:
        correctable_fraction: words with exactly one stuck bit (ECC
            corrects in place).
        uncorrectable_fraction: words with two or more stuck bits
            (remapped to spare rows; capacity loss).
    """

    correctable_fraction: float
    uncorrectable_fraction: float


class FaultInjector:
    """Samples fault events for one simulated execution."""

    def __init__(self, profile: FaultProfile, tag: str = "") -> None:
        self.profile = profile
        self.tag = tag
        self.rng = np.random.default_rng(derive_seed(profile.seed, tag))
        self.update_counts = UpdateFaultCounts()

    # --- whole-bank failures -------------------------------------------------

    def sample_failed_banks(self, total_banks: int) -> int:
        """Banks dead at boot, binomially sampled.

        Raises :class:`FaultError` if every bank failed — nothing left
        to spare into.
        """
        if total_banks <= 0 or self.profile.bank_failure_rate == 0.0:
            return 0
        failed = int(self.rng.binomial(total_banks,
                                       self.profile.bank_failure_rate))
        if failed >= total_banks:
            raise FaultError(
                f"all {total_banks} edge-memory banks failed "
                f"(rate {self.profile.bank_failure_rate}); "
                "no capacity left to remap into"
            )
        return failed

    # --- stuck-at cells ------------------------------------------------------

    def stuck_word_stats(
        self, word_bits: int = SECDED_DATA_BITS
    ) -> StuckWordStats:
        """Expected per-word outcome under the effective stuck rate."""
        p = self.profile.effective_stuck_rate
        if p == 0.0:
            return StuckWordStats(0.0, 0.0)
        clean = (1.0 - p) ** word_bits
        single = word_bits * p * (1.0 - p) ** (word_bits - 1)
        return StuckWordStats(
            correctable_fraction=single,
            uncorrectable_fraction=max(0.0, 1.0 - clean - single),
        )

    def sample_stuck_cells(self, capacity_bits: float) -> int:
        """Stuck cells in an image of ``capacity_bits`` bits."""
        p = self.profile.effective_stuck_rate
        if p == 0.0 or capacity_bits <= 0:
            return 0
        return int(self.rng.poisson(capacity_bits * p))

    # --- transient upsets ----------------------------------------------------

    def sample_transient_flips(self, bits: float, rate: float) -> int:
        """Bit flips across ``bits`` accessed bits at ``rate`` per bit."""
        if rate == 0.0 or bits <= 0:
            return 0
        return int(self.rng.poisson(bits * rate))

    def uncorrectable_flip_count(
        self, bits: float, rate: float, word_bits: int = SECDED_DATA_BITS
    ) -> int:
        """Expected multi-flip words (beyond SECDED), sampled.

        The probability that one word suffers two or more flips is
        ``C(w, 2) * rate^2`` to leading order.
        """
        if rate == 0.0 or bits <= 0:
            return 0
        words = bits / word_bits
        per_word = 0.5 * word_bits * (word_bits - 1) * rate * rate
        return int(self.rng.poisson(words * per_word))

    # --- dynamic-update perturbation ----------------------------------------

    def perturb_requests(self, requests: list) -> list:
        """Drop and duplicate update requests per the profile's rates.

        Returns the perturbed stream; tallies land in
        :attr:`update_counts`.  Duplicates are delivered back-to-back
        (the common network-retry pattern).
        """
        drop = self.profile.update_drop_rate
        dup = self.profile.update_duplicate_rate
        if drop == 0.0 and dup == 0.0:
            return list(requests)
        out = []
        n = len(requests)
        if n == 0:
            return out
        dropped_mask = self.rng.random(n) < drop
        duplicated_mask = self.rng.random(n) < dup
        for req, is_dropped, is_duplicated in zip(
            requests, dropped_mask, duplicated_mask
        ):
            if is_dropped:
                self.update_counts.dropped += 1
                continue
            out.append(req)
            if is_duplicated:
                out.append(req)
                self.update_counts.duplicated += 1
        return out
