"""Experiment drivers: one module per table/figure of the evaluation."""

import concurrent.futures
import traceback

from ..errors import ConfigError

from . import (
    ablations,
    autotune,
    headline,
    outofcore,
    resilience,
    sensitivity,
    temporal,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    table1,
    table2,
    table3,
    table4,
)
from .common import (
    ALL_ALGORITHM_FACTORIES,
    CORE_ALGORITHM_FACTORIES,
    ExperimentResult,
    RESULTS_DIR,
    workloads,
)

#: Every experiment driver, keyed by id, in the paper's order.
ALL_EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "fig09": fig09.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "table3": table3.run,
    "fig13": fig13.run,
    "table4": table4.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "fig17": fig17.run,
    "fig18": fig18.run,
    "fig19": fig19.run,
    "fig20": fig20.run,
    "fig21": fig21.run,
    "ablation_interleaving": ablations.run_interleaving,
    "ablation_bpg_timeout": ablations.run_bpg_timeout,
    "ablation_pu_count": ablations.run_pu_count,
    "ablation_execution_model": ablations.run_execution_model,
    "ablation_density": ablations.run_density,
    "ablation_init_cost": ablations.run_init_cost,
    "ablation_placement": ablations.run_placement,
    "headline": headline.run,
    "autotune": autotune.run,
    "sensitivity": sensitivity.run,
    "resilience": resilience.run,
    "outofcore": outofcore.run,
    "temporal": temporal.run,
}


def _failure_result(name: str, exc: BaseException) -> ExperimentResult:
    tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return ExperimentResult(
        experiment=name,
        title=f"FAILED: {name}",
        headers=["Error"],
        rows=[[tail]],
        notes="experiment raised; remaining experiments ran",
    )


def _run_experiment_worker(name: str) -> ExperimentResult:
    """Process-pool worker: run one experiment by id (no saving).

    Module-level so it pickles; results come back to the parent, which
    saves them in the canonical experiment order.  Workers share the
    on-disk run cache, so convergence runs computed by one worker are
    disk hits for the others.
    """
    return ALL_EXPERIMENTS[name]()


def run_selected(
    names: list[str] | None = None,
    save: bool = True,
    isolate_errors: bool = False,
    jobs: int = 1,
) -> dict[str, ExperimentResult]:
    """Run a subset of experiments (all of them when ``names`` is None).

    ``jobs`` above 1 fans the drivers out over a
    ``ProcessPoolExecutor``; results are collected, saved, and returned
    in the canonical experiment order regardless of completion order,
    so saved text/CSV artifacts are identical to a serial run.  With
    ``isolate_errors`` a driver that raises does not abort the batch:
    its slot holds a structured failure table (single "Error" column
    carrying the traceback tail) and the remaining experiments still
    run.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1: {jobs}")
    if names is None:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise ConfigError(
            f"unknown experiment(s) {unknown}; "
            f"valid: {sorted(ALL_EXPERIMENTS)}"
        )

    out: dict[str, ExperimentResult] = {}
    if jobs > 1 and len(names) > 1:
        # Generate the evaluation datasets once, in the parent: forked
        # workers inherit them, other start methods unpickle them once
        # per worker through the initializer.
        from .common import attach_workloads, workloads

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(names)),
            initializer=attach_workloads, initargs=(workloads(),),
        ) as pool:
            futures = {
                name: pool.submit(_run_experiment_worker, name)
                for name in names
            }
            for name in names:
                try:
                    out[name] = futures[name].result()
                except Exception as exc:
                    if not isolate_errors:
                        raise
                    out[name] = _failure_result(name, exc)
    else:
        for name in names:
            try:
                out[name] = ALL_EXPERIMENTS[name]()
            except Exception as exc:
                if not isolate_errors:
                    raise
                out[name] = _failure_result(name, exc)
    if save:
        for result in out.values():
            result.save()
            result.save_csv()
    return out


def run_all(
    save: bool = True, isolate_errors: bool = False, jobs: int = 1
) -> dict[str, ExperimentResult]:
    """Run every experiment; optionally save text + CSV under results/.

    A thin wrapper over :func:`run_selected` with ``names=None``; see
    there for the ``jobs`` and ``isolate_errors`` semantics.
    """
    return run_selected(None, save=save, isolate_errors=isolate_errors,
                        jobs=jobs)


__all__ = [
    "ALL_ALGORITHM_FACTORIES",
    "ALL_EXPERIMENTS",
    "CORE_ALGORITHM_FACTORIES",
    "ExperimentResult",
    "RESULTS_DIR",
    "run_all",
    "run_selected",
    "workloads",
]
