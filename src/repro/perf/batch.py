"""Simulate-once / price-many batched evaluation.

The analytic pipeline factors as *convergence* (what the algorithm
does), *schedule counts* (what the machine does — Equations (3)-(8)),
and *folding* (what that costs on concrete devices).  Convergence has
been cached on disk since PR 2; this module adds the second level:
schedule counts are memoized on their minimal key, and a whole grid of
device configurations is priced against its counts records in one pass
of the pricing kernel — cf. the access-pattern characterizations that
price one trace against many memory configs (Dann & Ritter,
arXiv:2104.07776).

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
  configurations, grouping them by
  counts key and pricing the whole grid, every group's counts as
  per-config columns, with one pass of the pricing kernel;
  bit-identical to a loop of :meth:`AcceleratorMachine.run` calls.
* :func:`price_grid` — the same pricing as one
  :class:`~repro.arch.machine.GridFold`, with time and total-energy
  columns for callers that rank the grid.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..arch.config import (
    SCHEDULE_FLAGS,
    HyVEConfig,
    Workload,
    choose_num_intervals,
)
from ..arch.machine import (
    GridFold,
    SimulationResult,
    _check_grid_config,
    _fold_kernel,
)
from ..arch.scheduler import ScheduleCounts
from ..graph.graph import Graph
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .cache import get_run_cache


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
    [key] = _counts_groups(run, workload, [config])
    return key


def _counts_groups(
    run: AlgorithmRun, workload: Workload, configs: Sequence[HyVEConfig]
) -> dict[str, tuple[list[int], list[HyVEConfig]]]:
    """Per :func:`counts_cache_key`, in first-seen order: the indices of
    ``configs`` sharing it, and the first config of each distinct
    schedule shape among them.

    Each config's schedule shape is read once.  The run digest, the
    costly part of a key, is hashed once per grid; each distinct shape
    joins its key once, and each distinct partition shape derives P once.
    """
    vertices = run.num_vertices * workload.vertex_scale
    head = (workload.graph.fingerprint(), _run_digest(run))
    tail = (f"vs{workload.vertex_scale!r}", f"es{workload.edge_scale!r}")
    keys: dict[tuple, str] = {}
    intervals: dict[tuple, int] = {}
    groups: dict[str, tuple[list[int], list[HyVEConfig]]] = {}
    for idx, config in enumerate(configs):
        shape = config.schedule_shape
        key = keys.get(shape)
        if key is None:
            partition = config.partition_shape
            p = intervals.get(partition)
            if p is None:
                p = intervals[partition] = choose_num_intervals(
                    config, vertices, run.vertex_bits
                )
            flags = (f"{tag}{int(getattr(config, flag))}"
                     for flag, tag in SCHEDULE_FLAGS.items())
            key = keys[shape] = "|".join(
                (*head, f"n{config.num_pus}", f"p{p}", *flags, *tail)
            )
            groups.setdefault(key, ([], []))[1].append(config)
        groups[key][0].append(idx)
    return groups


def scheduled_counts(
    run: AlgorithmRun,
    workload: Workload,
    config: HyVEConfig,
) -> ScheduleCounts:
    """Memoized :meth:`ScheduleCounts.compute`.

    Keyed on :func:`counts_cache_key` in the two-level run cache, so a
    device-knob sweep — or a fresh process pricing the same schedule —
    expands Equations (3)-(8) once.  The stored record round-trips
    every field exactly (JSON ints and shortest-round-trip floats), so
    a cache hit folds bit-identically to a fresh computation.
    """
    return get_run_cache().get_or_counts(
        counts_cache_key(run, workload, config),
        lambda: ScheduleCounts.compute(run, workload, config),
        ScheduleCounts)


def group_by_counts_key(
    run: AlgorithmRun,
    workload: Workload,
    configs: Sequence[HyVEConfig],
) -> dict[str, list[int]]:
    """Indices of ``configs`` grouped by shared counts key (ordered)."""
    return {key: indices for key, (indices, _) in
            _counts_groups(run, workload, configs).items()}


def run_grid(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    configs: Iterable[HyVEConfig],
) -> list[SimulationResult]:
    """Evaluate ``algorithm`` on ``workload`` under many configurations.

    Bit-identical to ``[AcceleratorMachine(c).run(...) for c in
    configs]`` but structured simulate-once / price-many: the algorithm
    converges once (run cache), each distinct counts key is expanded
    once (counts cache), and one columnar pass of the pricing kernel
    prices every configuration against its group's counts.
    """
    run, fold = _price_groups(algorithm, workload, list(configs))
    return [SimulationResult(report=report, run=run)
            for report in fold.reports]


def price_grid(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    configs: Sequence[HyVEConfig],
) -> GridFold:
    """:func:`run_grid` as one :class:`~repro.arch.machine.GridFold` in
    ``configs`` order: the reports plus their time and total-energy
    columns, so a caller ranking the grid never sums a report."""
    return _price_groups(algorithm, workload, list(configs))[1]


def _price_groups(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    configs: list[HyVEConfig],
) -> tuple[AlgorithmRun | None, GridFold]:
    """(the converged run, or ``None`` for an empty grid; the grid's
    pricing in ``configs`` order)."""
    if isinstance(workload, Graph):
        workload = Workload(workload)
    if not configs:
        return None, GridFold.empty()
    tracer = get_tracer()
    with tracer.span(
        "run_grid",
        algorithm=algorithm.name,
        graph=workload.name,
        configs=len(configs),
    ):
        with tracer.span("algorithm.converge", algorithm=algorithm.name):
            run = run_cached(algorithm, workload.graph)
        # One counts record per group, all looked up in one batched
        # read; the kernel gathers them per config.  Checking a group's
        # first config of each shape checks them all.
        groups = _counts_groups(run, workload, configs)

        def compute(key: str) -> ScheduleCounts:
            return ScheduleCounts.compute(run, workload, groups[key][1][0])

        with tracer.span("schedule.counts"):
            records = get_run_cache().get_or_counts_many(
                groups, compute, ScheduleCounts)
        table: list[ScheduleCounts] = []
        group = np.empty(len(configs), dtype=np.intp)
        for key, (indices, shapes) in groups.items():
            counts = records[key]
            _check_grid_config(shapes, counts)
            group[indices] = len(table)
            table.append(counts)
        obs_metrics.get_metrics().counter(
            obs_metrics.FOLD_MANY_CONFIGS).add(len(configs))
        with tracer.span("fold_many", algorithm=run.algorithm,
                         graph=workload.name, configs=len(configs)):
            fold = _fold_kernel(run, table, workload, configs, group=group)
    return run, fold
