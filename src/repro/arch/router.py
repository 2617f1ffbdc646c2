"""Pipelined N-to-N router for source-interval sharing (Section 4.2).

During a super-block step, each PU reads its source vertices from
another PU's source section through the router; because source data is
read-only during a step there are no hazards and the router can be fully
pipelined — throughput is unaffected and only a fill latency per step
remains (the paper bounds remote access at ~5-10 SRAM cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from . import params


def _check_count(values, what: str) -> None:
    """Reject a negative count, naming the first offending value."""
    negative = values < 0
    if np.count_nonzero(negative):
        raise ConfigError(
            f"negative {what}: {np.extract(negative, values)[0]}"
        )


@dataclass(frozen=True)
class RouterModel:
    """Energy/latency model of the data-sharing router.

    Counts (and ``num_ports``) may be NumPy columns, one router per
    row; each row is bit-identical to the scalar call.
    """

    num_ports: int

    def __post_init__(self) -> None:
        low = self.num_ports <= 0
        if np.count_nonzero(low):
            raise ConfigError(
                "router needs at least one port, got "
                f"{np.extract(low, self.num_ports)[0]}"
            )

    def transfer_energy(self, words: float) -> float:
        """Energy to move ``words`` 32-bit words between PUs."""
        _check_count(words, "word count")
        return words * params.ROUTER_HOP_ENERGY_PER_WORD

    def reroute_energy(self, events: float) -> float:
        """Control energy of ``events`` rerouting operations."""
        _check_count(events, "event count")
        return events * params.ROUTER_REROUTE_ENERGY

    def fill_latency(self, steps: float) -> float:
        """Pipeline-fill latency across ``steps`` super-block steps."""
        _check_count(steps, "step count")
        return steps * params.ROUTER_FILL_LATENCY

    @property
    def leakage_power(self) -> float:
        return params.ROUTER_LEAKAGE
