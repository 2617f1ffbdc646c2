"""Infrastructure chaos for the result store.

:mod:`repro.faults.chaos` injects seedable torn writes, bit flips and
slow I/O into the SQLite result store the reproduction runs on, with an
all-zero profile guaranteed to be an exact pass-through.  See
docs/robustness.md.

The simulated devices themselves are ideal, as in the paper; the one
device-protection ablation is ``AcceleratorMachine(config,
secded=True)`` (:mod:`repro.memory.ecc`).
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

__all__ = [
    "CHAOS_PROFILES",
    "ChaosInjector",
    "ChaosProfile",
    "chaos_context",
    "get_chaos",
    "make_chaos_profile",
    "set_chaos",
]
