"""Generic design-space sweep helper.

One call evaluates a machine configuration axis against a workload —
the workhorse of architecture exploration (the Table 4 / Figs. 13
methodology, exposed as API)::

    from repro.arch.sweep import sweep
    points = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB],
                   PageRank, Workload.from_dataset("LJ"))
    best = max(points, key=lambda p: p.report.mteps_per_watt)

A sweep is simulate-once / price-many: the algorithm converges once
and every point is priced by one :func:`repro.perf.batch.run_grid`
call, microseconds per point.  With ``isolate_errors=True`` a failing
point becomes a structured :class:`SweepPoint` carrying the error
instead of killing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Sequence

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import run_cached
from ..errors import ConfigError, SweepPointError
from ..graph.graph import Graph
from .config import HyVEConfig, Workload
from .machine import AcceleratorMachine
from .report import EnergyReport


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration.

    ``report`` is ``None`` for a point that failed under
    ``isolate_errors``; ``error`` then carries the failure message.
    """

    field: str
    value: Any
    config: HyVEConfig | None
    report: EnergyReport | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.report is not None

    @property
    def mteps_per_watt(self) -> float:
        if self.report is None:
            raise SweepPointError(
                f"point {self.field}={self.value!r} failed: {self.error}"
            )
        return self.report.mteps_per_watt


def _failure(config: HyVEConfig, exc: Exception,
             isolate_errors: bool) -> tuple[None, str]:
    """A failed point's outcome, or its :class:`SweepPointError`."""
    message = f"{type(exc).__name__}: {exc}"
    if not isolate_errors:
        raise SweepPointError(
            f"sweep point {config.label!r} failed: {message}"
        ) from exc
    return None, message


def _price(
    configs: list[HyVEConfig],
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload,
    isolate_errors: bool,
) -> list[tuple[EnergyReport | None, str | None]]:
    """``(report, error)`` per config, in order."""
    from ..perf.batch import run_grid

    try:
        algorithm = algorithm_factory()
        run_cached(algorithm, workload.graph)
    except Exception as exc:
        # Every point shares this convergence, so its failure is every
        # point's failure; it is not re-run once per point.
        return [_failure(config, exc, isolate_errors) for config in configs]
    try:
        results = run_grid(algorithm, workload, configs)
    except Exception:
        # Some point cannot be priced: price each one on its own so the
        # failure is pinned to the points that cause it.
        outcomes = []
        for config in configs:
            try:
                report = AcceleratorMachine(config).run(
                    algorithm, workload
                ).report
            except Exception as exc:
                outcomes.append(_failure(config, exc, isolate_errors))
            else:
                outcomes.append((report, None))
        return outcomes
    return [(result.report, None) for result in results]


def sweep(
    field: str,
    values: Sequence[Any],
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload | Graph,
    base_config: HyVEConfig | None = None,
    isolate_errors: bool = False,
) -> list[SweepPoint]:
    """Evaluate one config field across ``values``.

    ``field`` must be a top-level :class:`HyVEConfig` field (e.g.
    ``sram_bits``, ``num_pus``, ``data_sharing``, ``edge_memory``);
    device-level axes are swept by passing prepared ``ReRAMConfig`` /
    ``DRAMConfig`` values for the ``reram`` / ``dram`` fields.

    ``algorithm_factory`` is called once.  Every valid point is priced
    by one :func:`repro.perf.batch.run_grid` call, bit-identical to a
    loop of ``AcceleratorMachine(config).run(...)``; if that call
    raises, the points are priced one by one in value order.
    By default the first failing point raises :class:`SweepPointError`
    (the cause chained); with ``isolate_errors=True`` each failure
    becomes a :class:`SweepPoint` with ``report=None`` and the sweep
    continues.
    """
    base_config = base_config or HyVEConfig()
    valid = {f.name for f in fields(HyVEConfig)}
    if field not in valid:
        raise ConfigError(
            f"unknown HyVEConfig field {field!r}; valid: {sorted(valid)}"
        )
    if not values:
        raise ConfigError("sweep needs at least one value")
    if isinstance(workload, Graph):
        workload = Workload(workload)

    # An invalid value fails at config construction, before any
    # evaluation; it is isolated the same way as an evaluation error.
    configs: list[HyVEConfig | None] = []
    errors: list[str | None] = []
    for value in values:
        try:
            configs.append(replace(base_config, **{
                field: value, "label": f"{field}={value}",
            }))
            errors.append(None)
        except Exception as exc:
            if not isolate_errors:
                raise SweepPointError(
                    f"sweep value {field}={value!r} rejected: {exc}"
                ) from exc
            configs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")

    pending = [config for config in configs if config is not None]
    outcomes = iter(_price(pending, algorithm_factory, workload,
                           isolate_errors) if pending else [])
    points = []
    for value, config, error in zip(values, configs, errors):
        report = None
        if config is not None:
            report, error = next(outcomes)
        points.append(SweepPoint(field, value, config, report, error))
    return points


def sweep_axis(
    values: Sequence[Any],
    make_config: Callable[[Any], HyVEConfig],
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload | Graph,
):
    """Price one axis of prepared configurations simulate-once.

    The cacti-style component-sweep idiom shared by the figure drivers
    and the autotuner: map each axis value to a full
    :class:`HyVEConfig` with ``make_config`` and price the whole axis
    through :func:`repro.perf.batch.run_grid` (converge once, expand
    each distinct counts key once, fold each group vectorized).
    Returns one :class:`~repro.arch.machine.SimulationResult` per
    value, in order, bit-identical to a serial ``run()`` loop.

    Unlike :func:`sweep` this takes a config *constructor*, so axes
    that live inside nested device dataclasses (densities, BPG
    timeouts, cell bits) sweep without hand-building the grid at every
    call site.
    """
    from ..perf.batch import run_grid

    return run_grid(
        algorithm_factory(),
        workload,
        [make_config(value) for value in values],
    )


def points_to_csv(points: list[SweepPoint]) -> str:
    """Render a sweep as CSV (one row per point, in sweep order).

    Failed points appear with empty metric columns and the error
    message in the ``error`` column.
    """
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([
        "field", "value", "label", "energy_j", "time_s",
        "mteps_per_watt", "iterations", "edges_streamed", "error",
    ])
    for point in points:
        if point.report is None:
            writer.writerow([
                point.field, repr(point.value),
                point.config.label if point.config else "",
                "", "", "", "", "", point.error or "",
            ])
        else:
            writer.writerow([
                point.field, repr(point.value), point.config.label,
                repr(point.report.total_energy), repr(point.report.time),
                repr(point.report.mteps_per_watt),
                point.report.iterations,
                repr(point.report.edges_traversed), "",
            ])
    return buffer.getvalue()

