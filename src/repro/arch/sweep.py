"""Generic design-space sweep helper.

One call evaluates a machine configuration axis against a workload —
the workhorse of architecture exploration (the Table 4 / Figs. 13
methodology, exposed as API)::

    from repro.arch.sweep import sweep
    points = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB],
                   PageRank, Workload.from_dataset("LJ"))
    best = max(points, key=lambda p: p.report.mteps_per_watt)

Long sweeps are robust by policy (:class:`SweepPolicy`): each point can
be bounded by a wall-clock timeout, retried with exponential backoff,
isolated so one failing configuration yields a structured
:class:`SweepPoint` carrying the error instead of killing the sweep,
and checkpointed to a JSONL file so an interrupted sweep resumes
without re-evaluating finished points.

Parallel sweeps are additionally *supervised*: a worker process dying
(OOM kill, segfault, chaos injection) breaks the whole
``ProcessPoolExecutor``, so the parent detects the break, respawns the
pool, re-dispatches only the points whose results were lost (charging
each a lost attempt), and after :data:`MAX_POOL_FAILURES` consecutive
pool deaths degrades to in-parent serial evaluation — a sweep finishes
with structured results no matter how workers die.  See
docs/robustness.md for the supervision policy.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..errors import ConfigError, SweepPointError
from ..graph.graph import Graph
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from ..perf.shm import resolve_workload, share_workload
from .config import HyVEConfig, Workload
from .machine import AcceleratorMachine, fold_grid
from .report import EnergyReport

#: Consecutive broken-pool events a parallel sweep absorbs by
#: respawning before it gives up on process isolation and finishes the
#: remaining points serially in the parent.
MAX_POOL_FAILURES = 2


@dataclass(frozen=True)
class SweepPolicy:
    """Robustness knobs for :func:`sweep`.

    Attributes:
        timeout: wall-clock budget (seconds) for one evaluation attempt;
            ``None`` means unbounded.  A timed-out attempt counts as a
            failure (and is retried if retries remain).
        retries: extra attempts after the first failure of a point.
        backoff: sleep before retry ``k`` is ``backoff * 2**(k - 1)``
            seconds — transient failures (memory pressure, flaky I/O)
            get breathing room without stalling a healthy sweep.
        isolate_errors: when True, a point whose every attempt failed
            becomes a structured failed :class:`SweepPoint` (``report``
            is None, ``error`` holds the message) and the sweep
            continues; when False the :class:`SweepPointError` (with the
            underlying cause chained) propagates.
        checkpoint_path: JSONL file recording each finished point.  A
            sweep started with an existing checkpoint reuses every
            successful point recorded there (keyed on the swept field
            and ``repr(value)``) and only evaluates the rest; failed
            points are re-attempted on resume.
        max_workers: process fan-out.  1 (the default) evaluates points
            serially in-process; above 1 the points are distributed over
            a ``ProcessPoolExecutor``.  Results keep the order of
            ``values`` exactly, per-point timeout/retry/isolation apply
            inside each worker, the checkpoint is appended by the parent
            in deterministic order, and the workers warm the shared
            on-disk run cache (:mod:`repro.perf.cache`) as they go.
            The pool is supervised: a dying worker triggers a respawn
            and re-dispatch of only the lost points, degrading to
            serial evaluation after :data:`MAX_POOL_FAILURES` broken
            pools.  Requires a picklable ``algorithm_factory`` (a
            class or a module-level function, not a lambda).
        batch: evaluate the serial path simulate-once / price-many: the
            pending points are grouped by shared schedule-counts key
            (:class:`BatchPlan`) and each group is priced by one
            vectorized :func:`repro.arch.machine.fold_grid` call,
            bit-identical per point to the plain loop.  Batching only
            engages when it cannot change semantics — no per-point
            timeout, serial evaluation — and any
            batch failure falls back to the per-point path (with its
            full retry/backoff/isolation behaviour).  Set False to
            force the plain per-point loop.
    """

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.1
    isolate_errors: bool = False
    checkpoint_path: str | Path | None = None
    max_workers: int = 1
    batch: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive: {self.timeout}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0: {self.retries}")
        if self.backoff < 0:
            raise ConfigError(f"backoff must be >= 0: {self.backoff}")
        if self.max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1: {self.max_workers}"
            )


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration.

    ``report`` is ``None`` for a point that failed under an
    error-isolating policy; ``error`` then carries the final failure
    message and ``attempts`` how many tries were spent.
    """

    field: str
    value: Any
    config: HyVEConfig | None
    report: EnergyReport | None
    error: str | None = None
    attempts: int = 1

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

    @property
    def metrics(self) -> dict:
        """Deterministic per-point metrics (CSV / checkpoint columns).

        Derived from the evaluated report, never from process state, so
        a parallel sweep renders byte-identically to a serial one.
        """
        out = {"retries": max(self.attempts - 1, 0)}
        if self.report is not None:
            out["iterations"] = self.report.iterations
            out["edges_streamed"] = self.report.edges_traversed
        return out


def _point_key(field: str, value: Any) -> str:
    return f"{field}={value!r}"


def _load_checkpoint(path: Path) -> dict[str, dict]:
    """Read a JSONL checkpoint; later lines win for the same key.

    A process killed mid-append (SIGKILL, power loss) leaves exactly
    one truncated *trailing* line — recognisable because the append
    never reached its terminating newline.  That one shape is tolerated
    with a warning: the point it described is simply re-evaluated.
    Anything else — corruption before the tail, or a complete
    (newline-terminated) line that does not parse — cannot come from a
    torn append and raises :class:`ConfigError`.
    """
    entries: dict[str, dict] = {}
    if not path.exists():
        return entries
    text = path.read_text(encoding="utf-8")
    torn_tail = bool(text) and not text.endswith("\n")
    numbered = [(lineno, line.strip())
                for lineno, line in enumerate(text.splitlines(), start=1)]
    numbered = [(lineno, line) for lineno, line in numbered if line]
    last_lineno = numbered[-1][0] if numbered else None
    for lineno, line in numbered:
        try:
            record = json.loads(line)
            entries[record["key"]] = record
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if lineno == last_lineno and torn_tail:
                warnings.warn(
                    f"{path}:{lineno}: dropping truncated trailing "
                    f"checkpoint line (torn append; the point will be "
                    f"re-evaluated): {exc}",
                    stacklevel=2,
                )
                continue
            raise ConfigError(
                f"{path}:{lineno}: corrupt sweep checkpoint line "
                f"({exc})"
            ) from exc
    return entries


def _append_checkpoint(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.flush()


def _evaluate_once(
    config: HyVEConfig,
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload,
    faults,
    timeout: float | None,
    executor: concurrent.futures.ThreadPoolExecutor | None = None,
) -> EnergyReport:
    """One evaluation attempt, optionally bounded by a timeout.

    The timeout runs the model on a worker thread (from the per-point
    ``executor``) and abandons it on expiry — the orphaned thread
    finishes in the background (the model is pure compute with no side
    effects), but the sweep moves on.
    """
    def run() -> EnergyReport:
        return AcceleratorMachine(config, faults=faults).run(
            algorithm_factory(), workload
        ).report

    if timeout is None:
        return run()
    future = executor.submit(run)
    try:
        return future.result(timeout=timeout)
    except concurrent.futures.TimeoutError:
        future.cancel()
        raise SweepPointError(
            f"evaluation exceeded {timeout:g}s timeout"
        ) from None


def _evaluate_point(
    config: HyVEConfig,
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload,
    faults,
    policy: SweepPolicy,
    first_error: BaseException | None = None,
) -> tuple[EnergyReport | None, str | None, int]:
    """Retry loop around one point: (report, error, attempts spent).

    ``first_error`` records a failure that already consumed this
    point's first attempt before the loop (the batch planner's shared
    convergence failing); the loop then starts directly at the first
    *retry*, with its usual backoff and retry accounting.
    """
    from ..faults.chaos import get_chaos

    chaos = get_chaos()
    if chaos is not None:
        # Only ever fires in a pool worker (PID-guarded): the sweep
        # supervisor and serial sweeps are never killed.
        chaos.maybe_kill_worker()
    last_error: BaseException | None = first_error
    attempts = 1 if first_error is not None else 0
    tracer = get_tracer()
    executor: concurrent.futures.ThreadPoolExecutor | None = None
    if policy.timeout is not None:
        # One pool per point, sized so every retry gets a fresh thread
        # even while earlier timed-out attempts still occupy theirs:
        # an orphaned attempt finishes in the background while the
        # sweep moves on.
        executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=policy.retries + 1
        )
    try:
        for attempt in range(attempts, policy.retries + 1):
            if attempt > 0:
                obs_metrics.get_metrics().counter(
                    obs_metrics.SWEEP_POINT_RETRIES
                ).add()
                if policy.backoff > 0:
                    time.sleep(policy.backoff * 2 ** (attempt - 1))
            attempts += 1
            try:
                with tracer.span("sweep_point", label=config.label,
                                 attempt=attempts):
                    report = _evaluate_once(config, algorithm_factory,
                                            workload, faults,
                                            policy.timeout, executor)
                return report, None, attempts
            except Exception as exc:  # isolated per point by design
                last_error = exc
    finally:
        if executor is not None:
            executor.shutdown(wait=False)
    message = f"{type(last_error).__name__}: {last_error}"
    if policy.isolate_errors:
        return None, message, attempts
    raise SweepPointError(
        f"sweep point {config.label!r} failed after "
        f"{attempts} attempt(s): {message}"
    ) from last_error


def _evaluate_point_task(
    config: HyVEConfig,
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload_payload,
    faults,
    policy: SweepPolicy,
) -> tuple[EnergyReport | None, str | None, int]:
    """Pool-worker entry: resolve the workload payload, then evaluate.

    ``workload_payload`` is whatever :func:`repro.perf.shm.share_workload`
    produced in the parent — a :class:`~repro.perf.shm.SharedWorkloadRef`
    (workers attach to the published graph segments, memoised per
    fingerprint, instead of unpickling the edge arrays per task) or the
    plain workload when shared memory was unavailable.  Shard-backed
    workloads (:func:`repro.graph.shards.sharded_workload`) arrive the
    same way: their ref carries a shard-store directory and workers
    memory-map the files instead of attaching segments, so paper-scale
    sweeps fan out without the edge list ever crossing a pipe.
    """
    return _evaluate_point(
        config, algorithm_factory, resolve_workload(workload_payload),
        faults, policy,
    )


def _evaluate_parallel(
    slots: Sequence["SweepPoint | HyVEConfig"],
    pending: Sequence[int],
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload,
    faults,
    policy: SweepPolicy,
    outcomes: dict[int, tuple[EnergyReport | None, str | None, int]],
) -> None:
    """Dispatch pending points over a supervised process pool.

    A dying worker (OOM kill, segfault, chaos) poisons the whole
    ``ProcessPoolExecutor`` — every outstanding future raises
    :class:`BrokenProcessPool`.  The supervisor harvests whatever
    results completed before the break, respawns the pool, and
    re-dispatches only the lost points, charging each one lost attempt
    so ``SweepPoint.attempts`` reflects the real cost.  After
    :data:`MAX_POOL_FAILURES` consecutive broken pools it stops
    trusting process isolation and evaluates the remainder serially in
    the parent, which cannot be killed by a worker fault.
    """
    # Workers always isolate; the parent re-raises in deterministic
    # order in pass 3, so strict sweeps fail on the same point they
    # would have serially.  Each worker process shares the on-disk run
    # cache, warming it for the others.
    worker_policy = replace(policy, isolate_errors=True,
                            checkpoint_path=None, max_workers=1)
    # Publish the workload's graph once; every task then ships a tiny
    # ref instead of a pickled edge list.  The segments stay owned by
    # the parent, so they survive pool respawns, and ``share_workload``
    # falls back to the plain workload when shared memory is missing.
    workload_payload = share_workload(workload)
    metrics = obs_metrics.get_metrics()
    remaining = list(pending)
    lost_attempts = {idx: 0 for idx in remaining}
    pool_failures = 0
    while remaining:
        if pool_failures >= MAX_POOL_FAILURES:
            metrics.counter(obs_metrics.SWEEP_SERIAL_FALLBACKS).add(1)
            for idx in remaining:
                report, error, attempts = _evaluate_point(
                    slots[idx], algorithm_factory, workload, faults,
                    worker_policy,
                )
                outcomes[idx] = (report, error,
                                 attempts + lost_attempts[idx])
            return
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(policy.max_workers, len(remaining))
        )
        lost: list[int] = []
        try:
            try:
                futures = {
                    idx: pool.submit(
                        _evaluate_point_task, slots[idx],
                        algorithm_factory, workload_payload, faults,
                        worker_policy,
                    )
                    for idx in remaining
                }
            except BrokenProcessPool:
                # The pool broke during dispatch: everything not yet
                # submitted (and everything submitted) is lost.
                lost = list(remaining)
            else:
                for idx in remaining:
                    try:
                        outcomes[idx] = futures[idx].result()
                    except BrokenProcessPool:
                        # This point's worker died (or the pool was
                        # already broken when its turn came).  Keep
                        # harvesting: futures that completed before the
                        # break still hold real results.
                        lost.append(idx)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if not lost:
            break
        pool_failures += 1
        for idx in lost:
            lost_attempts[idx] += 1
        if pool_failures < MAX_POOL_FAILURES:
            metrics.counter(obs_metrics.SWEEP_POOL_RESPAWNS).add(1)
        remaining = lost
    for idx in pending:
        if lost_attempts[idx] and idx in outcomes:
            report, error, attempts = outcomes[idx]
            outcomes[idx] = (report, error,
                             attempts + lost_attempts[idx])


@dataclass(frozen=True)
class BatchPlan:
    """Pending sweep points grouped by shared schedule-counts key.

    Built once per serial sweep: the algorithm converges once
    (``run``), then each group — configurations whose
    :func:`repro.perf.batch.counts_cache_key` matches — shares one
    Equations (3)-(8) expansion and is priced by a single vectorized
    :func:`repro.arch.machine.fold_grid` pass (under the sweep's fault
    profile, if any).  Any group that fails to
    batch is re-priced point by point with the full retry/backoff/
    isolation loop, so the observable results (reports, attempt counts,
    error messages, checkpoint records) match the plain loop exactly.
    """

    run: AlgorithmRun
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def build(
        cls,
        run: AlgorithmRun,
        workload: Workload,
        configs_by_index: Sequence[tuple[int, HyVEConfig]],
    ) -> "BatchPlan":
        from ..perf.batch import group_by_counts_key

        groups = group_by_counts_key(
            run, workload, [config for _, config in configs_by_index]
        )
        return cls(
            run=run,
            groups=tuple(
                tuple(configs_by_index[pos][0] for pos in positions)
                for positions in groups.values()
            ),
        )

    def evaluate(
        self,
        slots: Sequence["SweepPoint | HyVEConfig"],
        workload: Workload,
        algorithm_factory: Callable[[], EdgeCentricAlgorithm],
        faults,
        policy: SweepPolicy,
        outcomes: dict[int, tuple[EnergyReport | None, str | None, int]],
    ) -> None:
        from ..perf.batch import scheduled_counts

        tracer = get_tracer()
        for group in self.groups:
            configs = [slots[idx] for idx in group]
            try:
                with tracer.span("sweep_batch", points=len(group)):
                    counts = scheduled_counts(
                        self.run, workload, configs[0]
                    )
                    priced = fold_grid(
                        self.run, counts, workload, configs, faults
                    )
            except Exception:
                # The batched fold rejected the group; price its
                # points individually (full retry semantics).
                for idx in group:
                    outcomes[idx] = _evaluate_point(
                        slots[idx], algorithm_factory, workload,
                        faults, replace(policy, isolate_errors=True),
                    )
                continue
            for idx, (report, _) in zip(group, priced):
                outcomes[idx] = (report, None, 1)


def sweep(
    field: str,
    values: Sequence[Any],
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload | Graph,
    base_config: HyVEConfig | None = None,
    policy: SweepPolicy | None = None,
    faults=None,
) -> list[SweepPoint]:
    """Evaluate one config field across ``values``.

    ``field`` must be a top-level :class:`HyVEConfig` field (e.g.
    ``sram_bits``, ``num_pus``, ``data_sharing``, ``edge_memory``);
    device-level axes are swept by passing prepared ``ReRAMConfig`` /
    ``DRAMConfig`` values for the ``reram`` / ``dram`` fields.

    ``policy`` governs per-point timeout/retry/error isolation and
    checkpoint/resume; the default policy is strict (no timeout, no
    retries, first failure propagates), matching a plain loop.
    ``faults`` optionally threads a :class:`repro.faults.FaultProfile`
    into every evaluated machine.
    """
    base_config = base_config or HyVEConfig()
    policy = policy or SweepPolicy()
    valid = {f.name for f in fields(HyVEConfig)}
    if field not in valid:
        raise ConfigError(
            f"unknown HyVEConfig field {field!r}; valid: {sorted(valid)}"
        )
    if not values:
        raise ConfigError("sweep needs at least one value")
    if isinstance(workload, Graph):
        workload = Workload(workload)

    checkpoint: dict[str, dict] = {}
    checkpoint_path: Path | None = None
    if policy.checkpoint_path is not None:
        checkpoint_path = Path(policy.checkpoint_path)
        checkpoint = _load_checkpoint(checkpoint_path)

    # Pass 1 — plan: construct configs, resolve checkpoint reuse, and
    # collect the points that actually need evaluating.  ``slots`` holds
    # one entry per value, either a finished SweepPoint or a config
    # pending evaluation; result order therefore always matches
    # ``values`` exactly, serial or parallel.
    slots: list[SweepPoint | HyVEConfig] = []
    pending: list[int] = []
    for value in values:
        key = _point_key(field, value)
        try:
            config = replace(base_config, **{field: value,
                                             "label": f"{field}={value}"})
        except Exception as exc:
            # An invalid value fails at config construction, before any
            # evaluation; isolate it the same way as an evaluation error.
            if not policy.isolate_errors:
                raise SweepPointError(
                    f"sweep value {field}={value!r} rejected: {exc}"
                ) from exc
            error = f"{type(exc).__name__}: {exc}"
            slots.append(SweepPoint(field, value, None, None,
                                    error=error, attempts=0))
            if checkpoint_path is not None:
                _append_checkpoint(checkpoint_path, {
                    "key": key, "field": field, "value_repr": repr(value),
                    "report": None, "error": error, "attempts": 0,
                    "metrics": {"retries": 0},
                })
            continue
        cached = checkpoint.get(key)
        if cached is not None and cached.get("report") is not None:
            slots.append(SweepPoint(
                field, value, config,
                EnergyReport.from_dict(cached["report"]),
                attempts=int(cached.get("attempts", 1)),
            ))
            continue
        pending.append(len(slots))
        slots.append(config)

    # Pass 2 — evaluate pending points, serially or over a process pool.
    outcomes: dict[int, tuple[EnergyReport | None, str | None, int]] = {}
    if policy.max_workers > 1 and len(pending) > 1:
        _evaluate_parallel(slots, pending, algorithm_factory, workload,
                           faults, policy, outcomes)
    else:
        plan: BatchPlan | None = None
        batch_error: BaseException | None = None
        # Batching must be invisible: a per-point timeout bounds each
        # evaluation's wall clock individually, so it forces the plain
        # per-point loop.
        if pending and policy.batch and policy.timeout is None:
            try:
                run = run_cached(algorithm_factory(), workload.graph)
            except Exception as exc:
                # The shared convergence is exactly the work the first
                # pending point's first attempt would have done; charge
                # the failure to that point's retry budget below.
                batch_error = exc
            else:
                try:
                    plan = BatchPlan.build(
                        run, workload,
                        [(idx, slots[idx]) for idx in pending],
                    )
                except Exception:
                    plan = None  # un-batchable shape: plain loop
        if plan is not None:
            plan.evaluate(slots, workload, algorithm_factory, faults,
                          policy, outcomes)
        else:
            for n, idx in enumerate(pending):
                outcomes[idx] = _evaluate_point(
                    slots[idx], algorithm_factory, workload, faults,
                    replace(policy, isolate_errors=True),
                    first_error=batch_error if n == 0 else None,
                )

    # Pass 3 — assemble points in value order, appending the checkpoint
    # and enforcing strict-mode propagation deterministically.
    points: list[SweepPoint] = []
    for i, (value, slot) in enumerate(zip(values, slots)):
        if isinstance(slot, SweepPoint):
            points.append(slot)
            continue
        config = slot
        report, error, attempts = outcomes[i]
        if error is not None and not policy.isolate_errors:
            raise SweepPointError(
                f"sweep point {config.label!r} failed after "
                f"{attempts} attempt(s): {error}"
            )
        point = SweepPoint(field, value, config, report,
                           error=error, attempts=attempts)
        points.append(point)
        if checkpoint_path is not None:
            _append_checkpoint(checkpoint_path, {
                "key": _point_key(field, value),
                "field": field,
                "value_repr": repr(value),
                "report": report.to_dict() if report else None,
                "error": error,
                "attempts": attempts,
                "metrics": point.metrics,
            })
    return points


def sweep_axis(
    values: Sequence[Any],
    make_config: Callable[[Any], HyVEConfig],
    algorithm_factory: Callable[[], EdgeCentricAlgorithm],
    workload: Workload | Graph,
    faults=None,
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
        faults=faults,
    )


def points_to_csv(points: list[SweepPoint]) -> str:
    """Render a sweep as CSV (one row per point, in sweep order).

    Failed points appear with empty metric columns and the error
    message in the ``error`` column, so a parallel sweep and a serial
    sweep over the same values render byte-identically.
    """
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([
        "field", "value", "label", "energy_j", "time_s",
        "mteps_per_watt", "iterations", "edges_streamed", "retries",
        "attempts", "error",
    ])
    for point in points:
        m = point.metrics
        if point.report is None:
            writer.writerow([
                point.field, repr(point.value),
                point.config.label if point.config else "",
                "", "", "", "", "", m["retries"],
                point.attempts, point.error or "",
            ])
        else:
            writer.writerow([
                point.field, repr(point.value), point.config.label,
                repr(point.report.total_energy), repr(point.report.time),
                repr(point.report.mteps_per_watt),
                m["iterations"], repr(m["edges_streamed"]), m["retries"],
                point.attempts, "",
            ])
    return buffer.getvalue()


def successful_points(points: list[SweepPoint]) -> list[SweepPoint]:
    """The subset of points that evaluated cleanly."""
    return [p for p in points if p.ok]


def best_point(points: list[SweepPoint]) -> SweepPoint:
    """The most energy-efficient successful point of a sweep."""
    candidates = successful_points(points)
    if not candidates:
        raise ConfigError("empty sweep")
    return max(candidates, key=lambda p: p.report.mteps_per_watt)


def pareto_front(points: list[SweepPoint]) -> list[SweepPoint]:
    """Points not dominated on (energy, time) — lower is better on both."""
    candidates = successful_points(points)
    front: list[SweepPoint] = []
    for candidate in candidates:
        dominated = any(
            other.report.total_energy <= candidate.report.total_energy
            and other.report.time <= candidate.report.time
            and (
                other.report.total_energy < candidate.report.total_energy
                or other.report.time < candidate.report.time
            )
            for other in candidates
        )
        if not dominated:
            front.append(candidate)
    return front
