"""Differential conformance and fuzzing for every execution engine.

The codebase offers several redundant ways to produce the same answer —
serial :meth:`AcceleratorMachine.run`, the block-major executor, the
vectorized ``fold_many`` grid pricer, cache-warm replays, and the
(batched / parallel) sweep drivers — each promising identical results.
This package is the machinery that holds them to it:

* :mod:`repro.verify.cases` — seedable, JSON-serialisable random cases
  (graph x machine x algorithm x scale);
* :mod:`repro.verify.oracles` — the oracle registry: cross-engine
  report identity, executor output equivalence, and metamorphic
  invariants (permutation, interval count, scale linearity);
* :mod:`repro.verify.shrink` — greedy minimisation of failing cases;
* :mod:`repro.verify.corpus` — replayable repro files and the
  committed regression corpus under ``tests/corpus/``;
* :mod:`repro.verify.harness` — the ``repro verify --seed S --cases K``
  driver.

See docs/verification.md for the full workflow.
"""

from .cases import Case, generate_cases
from .corpus import (
    REPRO_SCHEMA,
    ReplayResult,
    corpus_files,
    load_repro,
    replay_file,
    repro_record,
    write_repro,
)
from .harness import (
    Failure,
    OracleStats,
    VerifySummary,
    run_oracle_on_case,
    run_verify,
)
from .oracles import ORACLES, Oracle, get_oracles, oracle
from .shrink import shrink_case

__all__ = [
    "Case",
    "Failure",
    "ORACLES",
    "Oracle",
    "OracleStats",
    "REPRO_SCHEMA",
    "ReplayResult",
    "VerifySummary",
    "corpus_files",
    "generate_cases",
    "get_oracles",
    "load_repro",
    "oracle",
    "replay_file",
    "repro_record",
    "run_oracle_on_case",
    "run_verify",
    "shrink_case",
    "write_repro",
]
