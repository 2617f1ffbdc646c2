"""Bank-level power gating (BPG) for the nonvolatile edge memory
(Section 4.1, Fig. 6).

The three classic power-gating limitations and how HyVE's setting voids
them:

1. *State must be saved* — ReRAM is nonvolatile, nothing to save.
2. *Transition overhead* — the edge stream is strictly sequential, so a
   bank-boundary crossing (the only wake event) is predictable and rare:
   one per ``bank_capacity`` bits streamed.
3. *Power-gate area* — one gate per bank (not per mat) because sub-bank
   interleaving keeps exactly one bank active.  The model prices the
   gates' energy and time; it does not model silicon area.

The controller also re-gates an active bank that receives no command for
``idle_timeout``; the model charges that window at full bank power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError
from ..units import NJ, NS, US


@dataclass(frozen=True)
class PowerGatingPolicy:
    """BPG controller parameters.

    Attributes:
        enabled: whether BPG is applied at all.
        idle_timeout: time a bank stays powered after its last command.
        wake_latency: time to un-gate a bank (virtual-VDD ramp).
        wake_energy: energy of one gate transition (header/footer switch
            plus virtual-rail recharge).
    """

    enabled: bool = True
    idle_timeout: float = 1.0 * US
    wake_latency: float = 50.0 * NS
    wake_energy: float = 0.5 * NJ

    def __post_init__(self) -> None:
        if self.idle_timeout < 0 or self.wake_latency < 0 or self.wake_energy < 0:
            raise ConfigError(f"power-gating parameters must be >= 0: {self}")


@dataclass(frozen=True)
class GatingReport:
    """Outcome of applying BPG to one execution.

    Attributes:
        gated_fraction: time-weighted fraction of the chip's banks that
            were power-gated (feeds ``background_energy``).
        transitions: number of gate wake events.
        overhead_energy: total transition energy (J).
        overhead_time: total transition latency serialised into the
            stream (s); tiny because transitions are rare and the
            controller wakes the next bank ahead of the stream.
    """

    gated_fraction: float
    transitions: int
    overhead_energy: float
    overhead_time: float


class GatingColumns(NamedTuple):
    """:class:`GatingReport` fields as columns, one row per planned run
    (``transitions`` is an integer column)."""

    gated_fraction: np.ndarray
    transitions: np.ndarray
    overhead_energy: np.ndarray
    overhead_time: np.ndarray


def plan_columns(
    policy: tuple,
    num_banks,
    active_banks,
    streamed_bits,
    bank_capacity_bits,
    duration,
) -> GatingColumns:
    """Plan BPG for many runs at once (see :meth:`BankPowerGating.plan`).

    ``policy`` is the ``(enabled, idle_timeout, wake_latency,
    wake_energy)`` of each run; every argument is a scalar or a column,
    and they broadcast against each other.  Row ``i`` is bit-identical
    to planning run ``i`` on its own.
    """
    enabled, idle_timeout, wake_latency, wake_energy = policy
    (num_banks, active_banks, streamed_bits, bank_capacity_bits,
     duration) = map(np.asarray, (
        num_banks, active_banks, streamed_bits, bank_capacity_bits,
        duration))

    def first(values, mask):
        return np.broadcast_to(values, mask.shape)[mask][0]

    if np.count_nonzero((num_banks <= 0) | (active_banks <= 0)):
        raise ConfigError("bank counts must be positive")
    over = active_banks > num_banks
    if np.count_nonzero(over):
        raise ConfigError(f"{first(active_banks, over)} active banks > "
                          f"{first(num_banks, over)} total")
    if np.count_nonzero((streamed_bits < 0) | (duration < 0)):
        raise ConfigError("streamed bits and duration must be >= 0")
    # With gating disabled (or all banks active) a run's row is all-zeros.
    on = (enabled != 0) & (active_banks < num_banks)
    if np.count_nonzero(on & (bank_capacity_bits <= 0)):
        raise ConfigError("bank capacity must be positive")

    # One wake per bank-boundary crossing of the sequential stream.
    crossings = np.ceil(streamed_bits / np.where(on, bank_capacity_bits, 1))
    crossings = np.where(streamed_bits > 0, np.maximum(crossings, 1.0), 0.0)
    transitions = np.where(on, crossings, 0.0).astype(np.int64)

    # Idle-timeout keeps the previous bank powered a little longer
    # after each crossing; express that as extra average-active banks.
    timed = duration > 0
    timeout_share = np.where(timed, np.minimum(
        (num_banks - active_banks).astype(np.float64),
        transitions * idle_timeout / np.where(timed, duration, 1.0),
    ), 0.0)
    avg_active = np.minimum(num_banks.astype(np.float64),
                            active_banks + timeout_share)
    gated_fraction = np.where(on, (num_banks - avg_active) / num_banks, 0.0)
    # The controller pre-wakes the next bank while the current one still
    # streams; only a small fraction of the wake latency leaks into the
    # critical path.
    return GatingColumns(
        gated_fraction=gated_fraction,
        transitions=transitions,
        overhead_energy=transitions * wake_energy,
        overhead_time=transitions * wake_latency * 0.1,
    )


class BankPowerGating:
    """Applies a :class:`PowerGatingPolicy` to a sequential edge stream."""

    def __init__(self, policy: PowerGatingPolicy | None = None) -> None:
        self.policy = policy or PowerGatingPolicy()

    def plan(
        self,
        num_banks: int,
        active_banks: int,
        streamed_bits: float,
        bank_capacity_bits: float,
        duration: float,
    ) -> GatingReport:
        """Plan gating for a run that streams ``streamed_bits`` overall.

        Args:
            num_banks: banks in the chip.
            active_banks: banks a stream keeps busy simultaneously (1
                with sub-bank interleaving, ``num_banks`` with bank
                interleaving — which defeats gating entirely).
            streamed_bits: total bits read over the whole execution.
            bank_capacity_bits: capacity of one bank.
            duration: modelled execution time (s).

        Returns:
            A :class:`GatingReport`; with gating disabled (or all banks
            active) the report is all-zeros.
        """
        p = self.policy
        row = plan_columns(
            (p.enabled, p.idle_timeout, p.wake_latency, p.wake_energy),
            num_banks, active_banks, streamed_bits, bank_capacity_bits,
            duration,
        )
        return GatingReport(
            gated_fraction=row.gated_fraction.item(),
            transitions=row.transitions.item(),
            overhead_energy=row.overhead_energy.item(),
            overhead_time=row.overhead_time.item(),
        )
