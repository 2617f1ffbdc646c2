"""Resilience mechanisms and their costs.

Three mechanisms absorb the injected faults, each with an explicit
energy/latency/capacity price the machine model folds into its report:

* **SECDED ECC** — a (72, 64) Hamming code on every protected memory
  path: 8 check bits ride along with each 64-bit word (12.5% more bits
  moved per access) plus a small encode/decode logic energy per word.
  Corrects every single-bit stuck cell or transient flip.
* **Write-verify with bounded retries** — each ReRAM program round is
  verified; a failed round is retried up to the configured bound.  The
  expected round count multiplies write energy and latency.
* **Bank remap/sparing** — whole-bank failures and multi-bit word
  clusters are remapped; capacity degrades gracefully (extra chips are
  provisioned only when the loss exceeds the footprint slack) and the
  remapped stream crosses bank boundaries more often, eroding the
  power-gating win.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError, FaultError
from .profile import FaultProfile

#: Retry rounds the write-verify controller issues beyond which it
#: gives up and remaps the word (bounded retry energy).
WRITE_RETRY_BOUND = 5


def expected_write_rounds(fail_rate: float, max_rounds: int) -> float:
    """Expected program rounds under write-verify with a retry bound.

    Each round independently fails verify with ``fail_rate``; the
    controller retries up to ``max_rounds`` total rounds.  The expected
    number of rounds issued is ``sum_{k=0}^{R-1} p^k = (1 - p^R)/(1 - p)``.
    """
    if not 0.0 <= fail_rate < 1.0:
        raise ConfigError(f"write fail rate must be in [0, 1): {fail_rate}")
    if max_rounds < 1:
        raise ConfigError(f"need at least one write round: {max_rounds}")
    if fail_rate == 0.0:
        return 1.0
    return (1.0 - fail_rate ** max_rounds) / (1.0 - fail_rate)


def write_give_up_probability(fail_rate: float, max_rounds: int) -> float:
    """Probability a write still fails after every retry round."""
    if fail_rate == 0.0:
        return 0.0
    return fail_rate ** max_rounds


@dataclass(frozen=True)
class BankSparingPlan:
    """Outcome of remapping failed banks and bad word clusters.

    Attributes:
        total_banks: banks provisioned (including spare chips).
        failed_banks: banks dead at boot, spared out.
        spare_chips: extra chips added because the loss exceeded the
            footprint slack reserve.
        capacity_loss_fraction: share of raw capacity lost to failures
            and remapped multi-bit words.
        transition_factor: multiplier on power-gating wake transitions —
            a remapped stream crosses bank boundaries more often.
    """

    total_banks: int
    failed_banks: int = 0
    spare_chips: int = 0
    capacity_loss_fraction: float = 0.0
    transition_factor: float = 1.0

    @classmethod
    def build(
        cls,
        *,
        footprint_bits: float,
        chips: int,
        banks_per_chip: int,
        bank_capacity_bits: float,
        density_bits: float,
        failed_banks: int,
        bad_word_fraction: float = 0.0,
    ) -> tuple["BankSparingPlan", int]:
        """Plan sparing; returns the plan and the (possibly grown) chip
        count.

        Dead banks and remapped word clusters shrink usable capacity;
        when the remainder no longer holds the graph image, whole spare
        chips are provisioned to restore it (graceful degradation with
        an explicit cost, not silent failure).
        """
        if bad_word_fraction >= 0.5:
            raise FaultError(
                f"{bad_word_fraction * 100:.0f}% of words carry multi-bit "
                "stuck clusters; beyond SECDED + remap capability"
            )
        total_banks = chips * banks_per_chip
        usable = (total_banks - failed_banks) * bank_capacity_bits
        usable *= max(0.0, 1.0 - bad_word_fraction)
        spare_chips = 0
        while usable < footprint_bits:
            spare_chips += 1
            if spare_chips > 4 * chips:
                raise FaultError(
                    "bank sparing cannot restore capacity within a 4x "
                    f"chip budget ({failed_banks}/{total_banks} banks "
                    f"failed, {bad_word_fraction * 100:.1f}% words remapped)"
                )
            usable += density_bits * (1.0 - bad_word_fraction)
        total_banks += spare_chips * banks_per_chip
        raw = total_banks * bank_capacity_bits
        loss = failed_banks * bank_capacity_bits + (
            (total_banks - failed_banks) * bank_capacity_bits
            * bad_word_fraction
        )
        # Every boundary crossing that lands on a spared bank detours to
        # its remap target and back: two extra wakes per affected
        # crossing.
        fail_share = failed_banks / max(1, total_banks)
        return cls(
            total_banks=total_banks,
            failed_banks=failed_banks,
            spare_chips=spare_chips,
            capacity_loss_fraction=loss / raw if raw else 0.0,
            transition_factor=1.0 + 2.0 * fail_share,
        ), chips + spare_chips


@dataclass
class FaultReport:
    """Everything injected into (and absorbed during) one execution.

    Attached to :class:`repro.arch.machine.SimulationResult` when a
    non-zero profile is active; ``None`` otherwise (pass-through).
    """

    profile: FaultProfile
    failed_banks: int = 0
    spare_chips: int = 0
    capacity_loss_fraction: float = 0.0
    stuck_cells: int = 0
    corrected_word_fraction: float = 0.0
    remapped_word_fraction: float = 0.0
    transient_flips_corrected: int = 0
    transient_flips_uncorrectable: int = 0
    expected_write_rounds: float = 1.0
    write_give_up_probability: float = 0.0
    resilience_energy: float = 0.0  # total extra joules paid (ECC + retries...)
    updates_dropped: int = 0
    updates_duplicated: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def total_injected(self) -> int:
        """Discrete fault events injected (for determinism checks)."""
        return (
            self.failed_banks
            + self.stuck_cells
            + self.transient_flips_corrected
            + self.transient_flips_uncorrectable
            + self.updates_dropped
            + self.updates_duplicated
        )

    def add_energy(self, joules: float) -> None:
        if joules < 0:
            raise ConfigError(f"negative resilience energy: {joules}")
        self.resilience_energy += joules

    def to_dict(self) -> dict:
        return {
            "failed_banks": self.failed_banks,
            "spare_chips": self.spare_chips,
            "capacity_loss_fraction": self.capacity_loss_fraction,
            "stuck_cells": self.stuck_cells,
            "corrected_word_fraction": self.corrected_word_fraction,
            "remapped_word_fraction": self.remapped_word_fraction,
            "transient_flips_corrected": self.transient_flips_corrected,
            "transient_flips_uncorrectable":
                self.transient_flips_uncorrectable,
            "expected_write_rounds": self.expected_write_rounds,
            "write_give_up_probability": self.write_give_up_probability,
            "resilience_energy_j": self.resilience_energy,
            "updates_dropped": self.updates_dropped,
            "updates_duplicated": self.updates_duplicated,
            "total_injected": self.total_injected,
        }

    def summary(self) -> str:
        return (
            f"faults: {self.total_injected} injected "
            f"({self.failed_banks} banks, {self.stuck_cells} stuck cells, "
            f"{self.transient_flips_corrected} flips corrected), "
            f"{self.capacity_loss_fraction * 100:.2f}% capacity lost, "
            f"{self.resilience_energy * 1e3:.4f} mJ resilience energy"
        )
