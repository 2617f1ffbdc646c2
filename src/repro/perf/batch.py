"""Simulate-once / price-many batched evaluation.

The analytic pipeline factors as *convergence* (what the algorithm
does), *schedule counts* (what the machine does — Equations (3)-(8)),
and *folding* (what that costs on concrete devices).  Convergence has
been cached on disk since PR 2; this module adds the second level:
schedule counts are memoized on their minimal key, and a whole grid of
device configurations is priced against one counts record with
:func:`repro.arch.machine.fold_many` — cf. the access-pattern
characterizations that price one trace against many memory configs
(Dann & Ritter, arXiv:2104.07776).

The counts key is exactly the set of knobs that change Equations
(3)-(8): graph content, the converged run, P, N, the on-chip /
data-sharing / placement flags, and the workload's reported scale.
Everything else (ReRAM/DRAM density, BPG timeout, cell bits, SRAM
technology point, region hit rate, MLP) only changes *pricing*, so
sweeps over those axes share one counts computation.

Entry points:

* :func:`scheduled_counts` — drop-in memoized
  :meth:`~repro.arch.scheduler.ScheduleCounts.compute`.
* :func:`run_grid` — evaluate one algorithm x workload against many
  configurations (under an optional fault profile), grouping them by
  counts key and pricing each group with one pass of the pricing
  kernel; bit-identical to a loop of :meth:`AcceleratorMachine.run`
  calls, which price through the same kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable, Sequence

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..arch.config import HyVEConfig, Workload, choose_num_intervals
from ..arch.machine import SimulationResult, fold_grid
from ..arch.scheduler import ScheduleCounts
from ..graph.graph import Graph
from ..obs.trace import get_tracer
from .cache import get_run_cache

#: ScheduleCounts fields declared ``int`` — everything else is a float.
#: JSON round-trips both exactly, but the coercion keeps the rebuilt
#: dataclass type-identical to a freshly computed one.
_COUNTS_INT_FIELDS = frozenset(
    {"iterations", "num_pus", "num_intervals", "edge_bits", "vertex_bits"}
)


def _run_digest(run: AlgorithmRun) -> str:
    """Digest of the run fields that feed Equations (3)-(8).

    ``values`` is deliberately excluded: the counts depend on the
    iteration structure (``iterations``, ``active_sources``) and the
    serialised widths, never on the converged values themselves.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in (
        run.algorithm,
        str(run.iterations),
        str(run.num_vertices),
        str(run.edges_per_iteration),
        str(run.vertex_bits),
        str(run.edge_bits),
        repr(run.active_sources),
    ):
        h.update(part.encode())
        h.update(b"|")
    return h.hexdigest()


def counts_cache_key(
    run: AlgorithmRun, workload: Workload, config: HyVEConfig
) -> str:
    """Content key under which this configuration's counts are shared.

    Two configurations with equal keys produce field-identical
    :class:`ScheduleCounts`; device-level knobs (densities, BPG policy,
    the SRAM operating point at fixed P, hit rates, MLP) do not appear
    here, which is what lets a sweep over them simulate once.
    """
    vertices = run.num_vertices * workload.vertex_scale
    p = choose_num_intervals(config, vertices, run.vertex_bits)
    return "|".join(
        (
            workload.graph.fingerprint(),
            _run_digest(run),
            f"n{config.num_pus}",
            f"p{p}",
            f"oc{int(config.has_onchip)}",
            f"ds{int(config.data_sharing)}",
            f"hp{int(config.hash_placement)}",
            f"vs{workload.vertex_scale!r}",
            f"es{workload.edge_scale!r}",
        )
    )


def _counts_from_record(record: dict) -> ScheduleCounts:
    kwargs = {}
    for f in dataclasses.fields(ScheduleCounts):
        value = record[f.name]
        kwargs[f.name] = (
            int(value) if f.name in _COUNTS_INT_FIELDS else float(value)
        )
    return ScheduleCounts(**kwargs)


def scheduled_counts(
    run: AlgorithmRun, workload: Workload, config: HyVEConfig
) -> ScheduleCounts:
    """Memoized :meth:`ScheduleCounts.compute`.

    Keyed on :func:`counts_cache_key` in the two-level run cache, so a
    device-knob sweep — or a fresh process pricing the same schedule —
    expands Equations (3)-(8) once.  The stored record round-trips
    every field exactly (JSON ints and shortest-round-trip floats), so
    a cache hit folds bit-identically to a fresh computation.
    """
    key = counts_cache_key(run, workload, config)

    def compute() -> dict:
        counts = ScheduleCounts.compute(run, workload, config)
        return dataclasses.asdict(counts)

    record = get_run_cache().get_or_counts(key, compute)
    return _counts_from_record(record)


def group_by_counts_key(
    run: AlgorithmRun,
    workload: Workload,
    configs: Sequence[HyVEConfig],
) -> dict[str, list[int]]:
    """Indices of ``configs`` grouped by shared counts key (ordered)."""
    groups: dict[str, list[int]] = {}
    for idx, config in enumerate(configs):
        groups.setdefault(
            counts_cache_key(run, workload, config), []
        ).append(idx)
    return groups


def run_grid(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    configs: Iterable[HyVEConfig],
    faults=None,
) -> list[SimulationResult]:
    """Evaluate ``algorithm`` on ``workload`` under many configurations.

    Bit-identical to ``[AcceleratorMachine(c, faults=faults).run(...)
    for c in configs]`` but structured simulate-once / price-many: the
    algorithm converges once (run cache), each distinct counts key is
    expanded once (counts cache), and every group of configurations
    sharing a key is priced by one vectorized :func:`fold_grid` pass —
    fault profiles included (each config's injector seeds on its
    label, so the draws match the per-config runs).
    """
    if isinstance(workload, Graph):
        workload = Workload(workload)
    configs = list(configs)
    if not configs:
        return []
    tracer = get_tracer()
    with tracer.span(
        "run_grid",
        algorithm=algorithm.name,
        graph=workload.name,
        configs=len(configs),
    ):
        with tracer.span("algorithm.converge", algorithm=algorithm.name):
            run = run_cached(algorithm, workload.graph)
        groups = group_by_counts_key(run, workload, configs)
        results: list[SimulationResult | None] = [None] * len(configs)
        for indices in groups.values():
            with tracer.span("schedule.counts"):
                counts = scheduled_counts(
                    run, workload, configs[indices[0]]
                )
            priced = fold_grid(
                run, counts, workload, [configs[i] for i in indices],
                faults,
            )
            for idx, (report, fault_report) in zip(indices, priced):
                results[idx] = SimulationResult(
                    report=report, run=run, faults=fault_report
                )
    return results  # type: ignore[return-value]
