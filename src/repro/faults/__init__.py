"""Fault injection and resilience modelling.

The paper assumes ideal devices; this package answers "what does HyVE's
energy win look like once real ReRAM imperfections — stuck cells, finite
endurance, write variability, whole-bank failures — and transient vertex
path upsets are paid for?"  Everything is deterministic and seedable,
and an all-zero profile is a guaranteed pass-through (bit-identical
reports).

Entry points: named profiles in :data:`FAULT_PROFILES`
(``none``/``mild``/``harsh``/``worn``), built with
:func:`make_profile` and threaded into any accelerator via
``AcceleratorMachine(config, faults=profile)`` — or from the CLI with
``repro run --faults harsh --seed 7``.  The run's
:class:`~repro.arch.machine.SimulationResult` then carries a
:class:`FaultReport` tallying what was injected, corrected and paid
for.  The subsystem is documented in docs/api.md (API surface) and
docs/architecture.md (mechanisms and costs).

:mod:`repro.faults.chaos` extends the same discipline to the
*infrastructure* the reproduction runs on (the SQLite result store):
seedable torn writes, bit flips and slow I/O, with an all-zero profile
guaranteed to be an exact pass-through.  See docs/robustness.md.
"""

from .chaos import (
    CHAOS_PROFILES,
    ChaosInjector,
    ChaosProfile,
    chaos_context,
    get_chaos,
    make_chaos_profile,
    set_chaos,
)
from ..memory.ecc import (
    SECDED_CHECK_BITS,
    SECDED_DATA_BITS,
    SECDEDDevice,
    secded_factor,
    secded_logic_energy,
)
from .injector import (
    FaultInjector,
    StuckWordStats,
    UpdateFaultCounts,
    derive_seed,
)
from .profile import FAULT_PROFILES, FaultProfile, make_profile
from .resilience import (
    BankSparingPlan,
    FaultReport,
    WRITE_RETRY_BOUND,
    expected_write_rounds,
    write_give_up_probability,
)

__all__ = [
    "CHAOS_PROFILES",
    "ChaosInjector",
    "ChaosProfile",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultProfile",
    "FaultReport",
    "BankSparingPlan",
    "chaos_context",
    "get_chaos",
    "make_chaos_profile",
    "set_chaos",
    "SECDED_CHECK_BITS",
    "SECDED_DATA_BITS",
    "SECDEDDevice",
    "StuckWordStats",
    "UpdateFaultCounts",
    "WRITE_RETRY_BOUND",
    "derive_seed",
    "expected_write_rounds",
    "make_profile",
    "secded_factor",
    "secded_logic_energy",
    "write_give_up_probability",
]
