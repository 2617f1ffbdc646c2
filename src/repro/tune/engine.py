"""The two search engines behind ``repro optimize``.

* :func:`exhaustive_search` prices *every* candidate.  HyVE candidates
  route through :func:`repro.arch.sweep.sweep_axis` /
  :func:`repro.perf.batch.run_grid`, so the space is grouped by counts
  key and each group is priced by a handful of vectorized
  :func:`~repro.arch.machine.fold_many` passes — on a warm counts cache
  this prices >10^4 configurations/second (``tools/bench.py --scenario
  tune``) while staying bit-identical to a serial ``run()`` loop.

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
from typing import Sequence

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import run_cached
from ..arch.config import Workload
from ..arch.cpu import CPUMachine
from ..arch.graphr import GraphRMachine
from ..arch.report import EnergyReport
from ..errors import ConfigError
from ..graph.graph import Graph
from ..obs.metrics import (
    TUNE_CONFIGS_PRICED,
    TUNE_FRONTIER_SIZE,
    get_metrics,
)
from ..obs.trace import get_tracer
from ..perf.batch import counts_cache_key
from .frontier import FrontierPoint, ParetoFrontier
from .pareto import pareto_mask
from .space import BACKEND_HYVE, Candidate, SearchSpace

#: Engine names (the CLI's ``--engine`` vocabulary).
EXHAUSTIVE = "exhaustive"
GUIDED = "guided"
ENGINES = (EXHAUSTIVE, GUIDED)


def _enumerate(
    spaces: Sequence[SearchSpace],
) -> tuple[list[Candidate], int]:
    """Concatenate spaces into one globally indexed candidate list."""
    candidates: list[Candidate] = []
    skipped = 0
    for space in spaces:
        cands, skip = space.candidates()
        skipped += skip
        for cand in cands:
            candidates.append(replace(cand, index=len(candidates)))
    return candidates, skipped


def _price(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload,
    candidates: Sequence[Candidate],
) -> list[EnergyReport]:
    """Price candidates in order, batching per backend.

    HyVE configs go through the simulate-once/price-many grid
    (:func:`~repro.arch.sweep.sweep_axis`); GraphR configurations share
    one cached traffic expansion per (run, workload), so each extra
    config is a cheap one-cell fold; the CPU baseline is closed-form.
    """
    from ..arch.sweep import sweep_axis

    reports: list[EnergyReport | None] = [None] * len(candidates)
    by_backend: dict[str, list[int]] = {}
    for i, cand in enumerate(candidates):
        by_backend.setdefault(cand.backend, []).append(i)
    tracer = get_tracer()
    for backend, indices in by_backend.items():
        with tracer.span(
            "tune.price", backend=backend, configs=len(indices)
        ):
            if backend == BACKEND_HYVE:
                results = sweep_axis(
                    [candidates[i] for i in indices],
                    lambda cand: cand.config,
                    lambda: algorithm,
                    workload,
                )
                for i, result in zip(indices, results):
                    reports[i] = result.report
            else:
                machine_cls = (
                    GraphRMachine if backend == "graphr" else CPUMachine
                )
                for i in indices:
                    machine = machine_cls(candidates[i].config)
                    reports[i] = machine.run(algorithm, workload).report
    return reports  # type: ignore[return-value]


def _extract(
    workload: Workload,
    algorithm: EdgeCentricAlgorithm,
    engine: str,
    pairs: "list[tuple[Candidate, EnergyReport]]",
    skipped: int,
) -> ParetoFrontier:
    """One exact Pareto pass over everything an engine priced."""
    metrics = get_metrics()
    metrics.counter(TUNE_CONFIGS_PRICED).add(len(pairs))
    with get_tracer().span("tune.pareto", points=len(pairs)):
        if pairs:
            objectives = np.array(
                [[r.time, r.total_energy, r.edp] for _, r in pairs],
                dtype=float,
            )
            mask = pareto_mask(objectives)
        else:
            mask = np.zeros(0, dtype=bool)
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
            for (cand, report), keep in zip(pairs, mask)
            if keep
        ]
    points.sort(key=lambda p: (p.time, p.energy, p.edp, p.label, p.index))
    metrics.gauge(TUNE_FRONTIER_SIZE).set(len(points))
    return ParetoFrontier(
        graph=workload.name,
        algorithm=algorithm.name,
        engine=engine,
        evaluated=len(pairs),
        skipped=skipped,
        points=tuple(points),
    )


def _successive_halving(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload,
    candidates: "list[Candidate]",
    budget: int,
    seed: int,
    eta: int,
) -> "list[tuple[Candidate, EnergyReport]]":
    """Seeded successive halving over counts-key groups.

    Configurations sharing a counts key fold against the same schedule
    expansion, so the rungs sample *groups* (the expensive unit) and
    spend the pricing budget inside whichever groups keep producing the
    best EDP.  Deterministic for a fixed (space, budget, seed).
    """
    if not candidates:
        return []
    if budget >= len(candidates):
        return list(zip(candidates, _price(algorithm, workload, candidates)))
    run = run_cached(algorithm, workload.graph)
    groups: dict[str, list[int]] = {}
    for pos, cand in enumerate(candidates):
        key = counts_cache_key(run, workload, cand.config)
        groups.setdefault(key, []).append(pos)
    survivors = list(groups.values())
    rng = np.random.default_rng(seed)
    priced: dict[int, EnergyReport] = {}
    remaining = budget

    def price_positions(positions: "list[int]") -> None:
        nonlocal remaining
        todo = [p for p in positions if p not in priced]
        if len(todo) > remaining:
            todo = todo[:remaining]
        if not todo:
            return
        picked = [candidates[p] for p in todo]
        for p, report in zip(todo, _price(algorithm, workload, picked)):
            priced[p] = report
        remaining -= len(todo)

    rounds = max(1, math.ceil(math.log(len(survivors), eta))
                 ) if len(survivors) > 1 else 1
    per_rung = max(1, budget // (rounds + 1))
    while remaining > 0 and len(survivors) > 1:
        quota = max(1, per_rung // len(survivors))
        sample: list[int] = []
        for group in survivors:
            unpriced = [p for p in group if p not in priced]
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
                    (priced[p].edp for p in survivors[gi] if p in priced),
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
    return [(candidates[p], priced[p]) for p in sorted(priced)]


def _guided_pairs(
    algorithm: EdgeCentricAlgorithm,
    workload: Workload,
    candidates: "list[Candidate]",
    budget: int,
    seed: int,
    eta: int,
) -> "list[tuple[Candidate, EnergyReport]]":
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
    pairs = list(zip(others, _price(algorithm, workload, others)))
    pairs += _successive_halving(
        algorithm, workload, hyve, budget - len(others), seed, eta
    )
    pairs.sort(key=lambda pair: pair[0].index)
    return pairs


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
            pairs = list(
                zip(candidates, _price(algorithm, workload, candidates))
            )
        else:
            pairs = _guided_pairs(
                algorithm, workload, candidates, budget, seed, eta
            )
        return _extract(workload, algorithm, engine, pairs, skipped)


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
