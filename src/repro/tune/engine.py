"""The two search engines behind ``repro optimize``.

* :func:`exhaustive_search` prices *every* candidate.  HyVE candidates
  route through :func:`repro.perf.batch.price_grid`, so the space is
  grouped by counts key and the whole grid is priced by one columnar
  pass of the pricing kernel, whose time and total-energy columns
  become the objective rows directly; only the frontier's reports are
  assembled.  On a warm counts cache the median search over the
  1,100-point structural spaces takes about 15 ms (``python3
  bench/run.py --workload design-sweep``, ``op_p50_ms`` on a 2-core
  x86-64 host) while staying bit-identical to a serial ``run()`` loop.

* :func:`guided_search` runs seeded successive halving over counts-key
  *groups* for the axes that change the schedule (N, the SRAM point,
  placement, data sharing): each rung samples a few configurations per
  surviving group, ranks groups by their best EDP so far, and halves.
  With ``budget >= space.size`` it degenerates to exhaustive pricing,
  which is what guarantees zero regret on enumerable spaces (the
  ``tuner-identity`` oracle checks the exhaustive side).

Both return a :class:`~repro.tune.frontier.ParetoFrontier` extracted by
one exact :func:`~repro.tune.pareto.pareto_mask` pass over everything
priced.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import run_cached
from ..arch.config import Workload
from ..arch.cpu import CPUMachine
from ..arch.graphr import price_configs
from ..arch.report import EnergyReport
from ..errors import ConfigError
from ..graph.graph import Graph
from ..obs.metrics import (
    TUNE_CONFIGS_PRICED,
    TUNE_FRONTIER_SIZE,
    get_metrics,
)
from ..obs.trace import get_tracer
from ..perf.batch import group_by_counts_key, price_grid
from .frontier import FrontierPoint, ParetoFrontier
from .pareto import pareto_mask
from .space import BACKEND_GRAPHR, BACKEND_HYVE, Candidate, SearchSpace

#: Engine names (the CLI's ``--engine`` vocabulary).
EXHAUSTIVE = "exhaustive"
GUIDED = "guided"
ENGINES = (EXHAUSTIVE, GUIDED)


def _enumerate(
    spaces: Sequence[SearchSpace],
) -> tuple[list[Candidate], int]:
    """Concatenate spaces into one globally indexed candidate list.

    A space numbers its candidates from 0, so only the spaces after the
    first need re-indexing.
    """
    candidates: list[Candidate] = []
    skipped = 0
    for space in spaces:
        cands, skip = space.candidates()
        skipped += skip
        offset = len(candidates)
        candidates.extend(
            replace(cand, index=offset + cand.index) if offset else cand
            for cand in cands
        )
    return candidates, skipped


class _Priced(NamedTuple):
    """Objective rows in candidate order, and where each candidate's
    report comes from: a ``(build, row)`` pair, so a search assembles
    reports only for the points it keeps."""

    builds: list[tuple[Callable[[int], EnergyReport], int]]
    objectives: np.ndarray

    def report(self, i: int) -> EnergyReport:
        build, row = self.builds[i]
        return build(row)


def _price(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload,
    candidates: Sequence[Candidate],
) -> _Priced:
    """Price candidates in order, batching per backend.

    HyVE configs go through the simulate-once/price-many grid
    (:func:`~repro.perf.batch.price_grid`), whose time and total-energy
    columns become objective rows; its reports are built on demand.
    GraphR configurations share one counts lookup per (run, workload),
    so each config is a one-cell kernel fold; the CPU baseline is
    closed-form.
    """
    builds: list = [None] * len(candidates)
    objectives = np.empty((len(candidates), 3))
    by_backend: dict[str, list[int]] = {}
    for i, cand in enumerate(candidates):
        by_backend.setdefault(cand.backend, []).append(i)
    tracer = get_tracer()
    for backend, indices in by_backend.items():
        configs = [candidates[i].config for i in indices]
        with tracer.span(
            "tune.price", backend=backend, configs=len(indices)
        ):
            if backend == BACKEND_HYVE:
                fold = price_grid(algorithm, workload, configs)
                build = fold.report
                objectives[indices, 0] = fold.time
                objectives[indices, 1] = fold.total_energy
            else:
                if backend == BACKEND_GRAPHR:
                    reports = price_configs(configs, algorithm, workload)
                else:
                    reports = [CPUMachine(config).run(algorithm, workload)
                               .report for config in configs]
                build = reports.__getitem__
                objectives[indices, :2] = [
                    (report.time, report.total_energy) for report in reports
                ]
        for row, i in enumerate(indices):
            builds[i] = (build, row)
    # EDP is time x energy (Equation (5)), exactly as report.edp.
    objectives[:, 2] = objectives[:, 0] * objectives[:, 1]
    return _Priced(builds, objectives)


def _extract(
    workload: Workload,
    algorithm: EdgeCentricAlgorithm,
    engine: str,
    candidates: "list[Candidate]",
    priced: _Priced,
    skipped: int,
) -> ParetoFrontier:
    """One exact Pareto pass over everything an engine priced; only the
    frontier's reports are built."""
    metrics = get_metrics()
    metrics.counter(TUNE_CONFIGS_PRICED).add(len(candidates))
    with get_tracer().span("tune.pareto", points=len(candidates)):
        mask = (pareto_mask(priced.objectives) if candidates
                else np.zeros(0, dtype=bool))
        points = [
            FrontierPoint(
                index=cand.index,
                backend=cand.backend,
                label=cand.label,
                time=report.time,
                energy=report.total_energy,
                edp=report.edp,
                mteps_per_watt=report.mteps_per_watt,
                report=report,
            )
            for cand, report in (
                (candidates[i], priced.report(i))
                for i in np.flatnonzero(mask).tolist()
            )
        ]
    points.sort(key=lambda p: (p.time, p.energy, p.edp, p.label, p.index))
    metrics.gauge(TUNE_FRONTIER_SIZE).set(len(points))
    return ParetoFrontier(
        graph=workload.name,
        algorithm=algorithm.name,
        engine=engine,
        evaluated=len(candidates),
        skipped=skipped,
        points=tuple(points),
    )


def _merge(
    parts: "list[tuple[list[Candidate], _Priced]]",
) -> "tuple[list[Candidate], _Priced]":
    """Concatenate priced parts, ordered by candidate index."""
    cands = [cand for part, _ in parts for cand in part]
    builds = [build for _, priced in parts for build in priced.builds]
    objectives = np.concatenate(
        [priced.objectives for _, priced in parts] or [np.empty((0, 3))]
    )
    order = sorted(range(len(cands)), key=lambda i: cands[i].index)
    return ([cands[i] for i in order],
            _Priced([builds[i] for i in order], objectives[order]))


def _successive_halving(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload,
    candidates: "list[Candidate]",
    budget: int,
    seed: int,
    eta: int,
) -> "list[tuple[list[Candidate], _Priced]]":
    """Seeded successive halving over counts-key groups.

    Configurations sharing a counts key fold against the same schedule
    expansion, so the rungs sample *groups* (the expensive unit) and
    spend the pricing budget inside whichever groups keep producing the
    best EDP.  Deterministic for a fixed (space, budget, seed).  Returns
    the priced parts, one per pricing call.
    """
    if not candidates:
        return []
    if budget >= len(candidates):
        return [(candidates, _price(algorithm, workload, candidates))]
    run = run_cached(algorithm, workload.graph)
    survivors = list(group_by_counts_key(
        run, workload, [cand.config for cand in candidates]
    ).values())
    rng = np.random.default_rng(seed)
    parts: list[tuple[list[Candidate], _Priced]] = []
    edp: dict[int, float] = {}
    remaining = budget

    def price_positions(positions: "list[int]") -> None:
        nonlocal remaining
        todo = [p for p in positions if p not in edp]
        if len(todo) > remaining:
            todo = todo[:remaining]
        if not todo:
            return
        picked = [candidates[p] for p in todo]
        priced = _price(algorithm, workload, picked)
        parts.append((picked, priced))
        edp.update(zip(todo, priced.objectives[:, 2].tolist()))
        remaining -= len(todo)

    rounds = max(1, math.ceil(math.log(len(survivors), eta))
                 ) if len(survivors) > 1 else 1
    per_rung = max(1, budget // (rounds + 1))
    while remaining > 0 and len(survivors) > 1:
        quota = max(1, per_rung // len(survivors))
        sample: list[int] = []
        for group in survivors:
            unpriced = [p for p in group if p not in edp]
            if not unpriced:
                continue
            order = rng.permutation(len(unpriced))
            sample.extend(sorted(unpriced[i] for i in order[:quota]))
        if not sample:
            break
        price_positions(sample)
        ranked = sorted(
            range(len(survivors)),
            key=lambda gi: (
                min(
                    (edp[p] for p in survivors[gi] if p in edp),
                    default=math.inf,
                ),
                gi,
            ),
        )
        keep = max(1, math.ceil(len(survivors) / eta))
        survivors = [survivors[gi] for gi in sorted(ranked[:keep])]
    # Spend whatever budget is left fully pricing the surviving groups.
    for group in survivors:
        if remaining <= 0:
            break
        price_positions(group)
    return parts


def _guided(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload,
    candidates: "list[Candidate]",
    budget: int,
    seed: int,
    eta: int,
) -> "tuple[list[Candidate], _Priced]":
    """Guided pricing: halve the HyVE space, enumerate the rest.

    The GraphR and CPU spaces are a handful of points sharing cached
    traffic expansions, so they are always priced outright and charged
    against the budget first; successive halving spends the remainder
    on the HyVE counts-key groups.
    """
    others = [c for c in candidates if c.backend != BACKEND_HYVE]
    hyve = [c for c in candidates if c.backend == BACKEND_HYVE]
    if budget < len(others) + (1 if hyve else 0):
        raise ConfigError(
            f"guided budget {budget} is too small: the space holds "
            f"{len(others)} deterministic-backend config(s) plus "
            f"{len(hyve)} HyVE config(s); raise --budget"
        )
    return _merge([(others, _price(algorithm, workload, others))]
                  + _successive_halving(algorithm, workload, hyve,
                                        budget - len(others), seed, eta))


def search(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    spaces: "SearchSpace | Sequence[SearchSpace]",
    engine: str = EXHAUSTIVE,
    budget: int | None = None,
    seed: int = 0,
    eta: int = 2,
) -> ParetoFrontier:
    """Search one or more spaces for the (time, energy, EDP) frontier.

    ``engine`` selects exhaustive pricing or budgeted successive
    halving; the guided engine with ``budget=None`` (or a budget at
    least the space size) prices everything, making it exactly
    exhaustive — the zero-regret fallback for enumerable spaces.
    """
    if isinstance(spaces, SearchSpace):
        spaces = [spaces]
    spaces = list(spaces)
    if isinstance(workload, Graph):
        workload = Workload(workload)
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown tuner engine {engine!r}; "
            f"known: {', '.join(ENGINES)}"
        )
    if budget is not None and budget <= 0:
        raise ConfigError(f"search budget must be positive, got {budget}")
    candidates, skipped = _enumerate(spaces)
    with get_tracer().span(
        "tune.search",
        algorithm=algorithm.name,
        graph=workload.name,
        engine=engine,
        configs=len(candidates),
    ):
        if (
            engine == EXHAUSTIVE
            or budget is None
            or budget >= len(candidates)
        ):
            priced = _price(algorithm, workload, candidates)
        else:
            candidates, priced = _guided(
                algorithm, workload, candidates, budget, seed, eta
            )
        return _extract(workload, algorithm, engine, candidates, priced,
                        skipped)


def exhaustive_search(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    spaces: "SearchSpace | Sequence[SearchSpace]",
) -> ParetoFrontier:
    """Price every candidate; the frontier is exact by construction."""
    return search(algorithm, workload, spaces, engine=EXHAUSTIVE)


def guided_search(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    spaces: "SearchSpace | Sequence[SearchSpace]",
    budget: int,
    seed: int = 0,
    eta: int = 2,
) -> ParetoFrontier:
    """Budgeted successive-halving search (seeded, deterministic)."""
    return search(
        algorithm, workload, spaces,
        engine=GUIDED, budget=budget, seed=seed, eta=eta,
    )
