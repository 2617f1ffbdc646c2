"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — list datasets, machines, algorithms and experiments.
* ``run`` — simulate one (machine, algorithm, workload) and print the
  report (``--json`` for machine-readable output).
* ``compare`` — run every machine on one workload and print a ranking.
* ``experiment`` — regenerate one or more tables/figures
  (``--jobs N`` fans the drivers out over worker processes).
* ``cache`` — inspect (``cache info``) or wipe (``cache clear``) the
  persistent run cache that skips re-running converged algorithms.
* ``trace`` — run one experiment with span tracing enabled, write the
  JSONL trace, and print its per-phase time/energy attribution.
* ``metrics`` — run one simulation and print the metrics registry.
* ``verify`` — fuzz the differential-conformance oracles: random
  graphs/configs through every redundant execution path, mismatches
  shrunk and written as replayable repro files (docs/verification.md).
* ``optimize`` — search the machine design space (HyVE, GraphR, CPU
  backends) for Pareto-optimal (time, energy, EDP) configurations and
  print a recommended machine per (dataset, algorithm) cell
  (docs/autotuning.md).
* ``stream`` — replay an ``hyve-updates-v1`` update log (or a seeded
  synthetic stream) through the bounded-staleness engine, check the
  incremental values against a from-scratch rebuild, and print the
  staleness and throughput tables (docs/streaming.md).

``run``, ``compare`` and ``experiment`` also accept ``--trace-out PATH``
to record a trace of whatever they execute (see docs/observability.md).

Examples::

    python -m repro info
    python -m repro run --machine acc+HyVE-opt --algorithm pr --dataset LJ
    python -m repro run --algorithm bfs --graph edges.txt --json
    python -m repro compare --algorithm pr --dataset YT
    python -m repro experiment fig16 fig21
    python -m repro experiment --jobs 4
    python -m repro cache info
    python -m repro trace headline --trace-out trace.jsonl
    python -m repro metrics --algorithm pr --dataset YT --json
    python -m repro verify --seed 0 --cases 50
    python -m repro verify --list
    python -m repro verify --replay tests/corpus/some-repro.json
    python -m repro optimize --dataset YT --dataset LJ --algorithm pr
    python -m repro optimize --engine guided --budget 200 --weight edp=1
    python -m repro optimize --backend hyve --frontier-out frontier.csv
    python -m repro stream --log updates.jsonl --k 16
    python -m repro stream --vertices 200 --updates 2000 --json

Operator errors (unknown names, unreadable graph files, malformed edge
lists) print one ``error:`` line on stderr and exit with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .algorithms import make_algorithm
from .arch.config import NAMED_CONFIGS, Workload
from .arch.cpu import CPU_DRAM, CPU_DRAM_OPT, CPUMachine
from .arch.graphr import GraphRMachine
from .arch.machine import make_machine
from .errors import ReproError
from .graph.datasets import DATASET_ORDER, DATASETS
from .graph import io as graph_io

#: Machines addressable from the CLI.
MACHINE_NAMES = tuple(NAMED_CONFIGS) + ("CPU+DRAM", "CPU+DRAM-opt", "GraphR")

ALGORITHM_NAMES = ("pr", "bfs", "cc", "sssp", "spmv")


def build_machine(name: str):
    """Build a machine by its CLI name."""
    if name == "CPU+DRAM":
        return CPUMachine(CPU_DRAM)
    if name == "CPU+DRAM-opt":
        return CPUMachine(CPU_DRAM_OPT)
    if name == "GraphR":
        return GraphRMachine()
    return make_machine(name)


def load_workload(args: argparse.Namespace) -> Workload:
    if args.graph:
        graph = graph_io.load_edge_list(args.graph)
        return Workload(graph)
    return Workload.from_dataset(args.dataset)


def cmd_info(args: argparse.Namespace) -> int:
    del args
    print("datasets (synthetic stand-ins at paper-reported scale):")
    for key in DATASET_ORDER:
        spec = DATASETS[key]
        print(f"  {key}: {spec.full_name}, "
              f"{spec.paper_vertices:,} vertices / "
              f"{spec.paper_edges:,} edges "
              f"(synthetic {spec.num_vertices:,}/{spec.num_edges:,})")
    print("\nmachines:")
    for name in MACHINE_NAMES:
        print(f"  {name}")
    print("\nalgorithms:", ", ".join(ALGORITHM_NAMES))
    from .experiments import ALL_EXPERIMENTS

    print("\nexperiments:", ", ".join(ALL_EXPERIMENTS))
    return 0


def _print_cache_stats() -> None:
    from .perf.cache import get_run_cache

    stats = get_run_cache().stats
    print(f"[run cache] {stats.summary()}")
    print(f"[counts cache] {stats.counts_summary()}")


@contextlib.contextmanager
def _tracing(path: str | None):
    """Record a trace to ``path`` for the duration; no-op when None.

    The completion note goes to stderr so machine-readable stdout
    (``--json``, CSV redirects) stays clean.
    """
    if not path:
        yield None
        return
    from .obs.trace import get_tracer

    tracer = get_tracer()
    tracer.start(path)
    try:
        yield tracer
    finally:
        records = tracer.records_written
        tracer.stop()
        print(f"[trace written to {path} ({records} records)]",
              file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    workload = load_workload(args)
    machine = build_machine(args.machine)
    algorithm = make_algorithm(args.algorithm)
    with _tracing(args.trace_out):
        result = machine.run(algorithm, workload)
    if args.json:
        print(json.dumps(result.report.to_dict(), indent=2))
    else:
        print(result.report.summary())
        print("breakdown:")
        for bucket, share in result.report.breakdown().items():
            print(f"  {bucket:18s} {100 * share:5.1f}%")
    if args.verbose:
        _print_cache_stats()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .perf.batch import run_grid

    workload = load_workload(args)
    rows = []
    with _tracing(args.trace_out):
        # The named accelerators share one convergence and (per counts
        # key) one schedule expansion; price them as one grid.  CPU and
        # GraphR models keep their own run paths.
        acc_names = list(NAMED_CONFIGS)
        grid = run_grid(make_algorithm(args.algorithm), workload,
                        [NAMED_CONFIGS[n]() for n in acc_names])
        batched = {n: r.report for n, r in zip(acc_names, grid)}
        for name in MACHINE_NAMES:
            report = batched.get(name)
            if report is None:
                machine = build_machine(name)
                report = machine.run(make_algorithm(args.algorithm),
                                     workload).report
            rows.append((name, report.mteps_per_watt, report.total_energy,
                         report.time))
    rows.sort(key=lambda r: -r[1])
    print(f"{'machine':16s} {'MTEPS/W':>10s} {'energy (mJ)':>12s} "
          f"{'time (ms)':>10s}")
    for name, eff, energy, time in rows:
        print(f"{name:16s} {eff:10.1f} {energy * 1e3:12.3f} "
              f"{time * 1e3:10.2f}")
    if args.verbose:
        _print_cache_stats()
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS, run_selected

    names = args.names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if args.trace_out and args.jobs > 1:
        print("error: --trace-out requires serial execution (--jobs 1); "
              "worker processes cannot share one trace stream",
              file=sys.stderr)
        return 2
    with _tracing(args.trace_out):
        results = run_selected(names, save=False, jobs=args.jobs)
    for name in names:
        result = results[name]
        print(result.format())
        if not args.no_save:
            path = result.save()
            result.save_csv()
            print(f"[saved to {path}]")
        print()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS, run_selected

    if args.experiment not in ALL_EXPERIMENTS:
        print(f"unknown experiment: {args.experiment} "
              f"(choose from {', '.join(ALL_EXPERIMENTS)})",
              file=sys.stderr)
        return 2
    with _tracing(args.trace_out):
        results = run_selected([args.experiment], save=False, jobs=1)
    if not args.quiet:
        print(results[args.experiment].format())
        print()
    from .obs import AttributionError, fold_records, format_attribution
    from .obs.trace import read_trace

    attribution = fold_records(read_trace(args.trace_out))
    try:
        print(format_attribution(attribution))
    except AttributionError:
        # Experiments over non-accelerator machines only carry spans,
        # not attribution events; the trace file is still valid.
        print(f"({attribution.span_count} spans, "
              f"{attribution.event_count} events; no accelerator report "
              f"events to attribute)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import get_metrics

    workload = load_workload(args)
    machine = build_machine(args.machine)
    algorithm = make_algorithm(args.algorithm)
    registry = get_metrics()
    registry.reset()
    with _tracing(args.trace_out):
        machine.run(algorithm, workload)
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2))
    else:
        print(registry.format())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import get_oracles, replay_file, run_verify

    if args.list:
        for oracle in get_oracles():
            stride = (f" [every {oracle.stride} cases]"
                      if oracle.stride > 1 else "")
            print(f"{oracle.name}: {oracle.description}{stride}")
        return 0
    if args.replay:
        failed = 0
        for path in args.replay:
            result = replay_file(path)
            if result.ok:
                print(f"{path}: PASS ({result.oracle} on "
                      f"{result.case.describe()})")
            else:
                failed += 1
                print(f"{path}: FAIL ({result.oracle})\n  {result.error}")
        return 1 if failed else 0
    summary = run_verify(
        seed=args.seed,
        cases=args.cases,
        oracle_names=args.oracle or None,
        failures_dir=args.failures_dir,
        max_failures=args.max_failures,
        shrink=not args.no_shrink,
    )
    print(summary.format())
    return 0 if summary.ok else 1


def _parse_weights(pairs: "list[str] | None") -> dict[str, float] | None:
    """Parse repeated ``--weight name=value`` flags into a dict."""
    from .tune import OBJECTIVES

    if not pairs:
        return None
    weights: dict[str, float] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or name not in OBJECTIVES:
            raise ReproError(
                f"bad --weight {pair!r}; expected name=value with name "
                f"in {{{', '.join(OBJECTIVES)}}}"
            )
        try:
            weights[name] = float(raw)
        except ValueError:
            raise ReproError(
                f"bad --weight {pair!r}: {raw!r} is not a number"
            ) from None
    return weights


def cmd_optimize(args: argparse.Namespace) -> int:
    from .algorithms import make_algorithm as _make_algorithm
    from .tune import (
        BACKENDS,
        default_space,
        format_recommendations,
        frontiers_to_csv,
        recommend,
        search,
    )

    datasets = args.dataset or ["YT", "LJ"]
    algorithms = args.algorithm or ["pr", "bfs"]
    backends = args.backend or list(BACKENDS)
    weights = _parse_weights(args.weight)
    # The guided engine only guides when it cannot afford everything;
    # the structural HyVE space is what makes a budget meaningful.
    structural = args.engine == "guided"
    spaces = [default_space(b, structural=structural) for b in backends]
    frontiers = []
    with _tracing(args.trace_out):
        for dataset in datasets:
            workload = Workload.from_dataset(dataset)
            for algorithm_name in algorithms:
                frontier = search(
                    _make_algorithm(algorithm_name),
                    workload,
                    spaces,
                    engine=args.engine,
                    budget=args.budget,
                    seed=args.seed,
                )
                frontiers.append(frontier)
                print(
                    f"[{dataset} {algorithm_name}] priced "
                    f"{frontier.evaluated} config(s) "
                    f"({frontier.skipped} invalid corner(s) skipped), "
                    f"frontier holds {len(frontier)} point(s)",
                    file=sys.stderr,
                )
    if args.frontier_out:
        from pathlib import Path

        Path(args.frontier_out).write_text(frontiers_to_csv(frontiers))
        print(f"[frontier written to {args.frontier_out}]",
              file=sys.stderr)
    if args.json:
        print(json.dumps([f.to_dict() for f in frontiers], indent=2,
                         sort_keys=True))
    else:
        print(format_recommendations(recommend(frontiers, weights)))
    if args.verbose:
        _print_cache_stats()
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    import numpy as np

    from .algorithms import make_algorithm as _make_algorithm
    from .algorithms.runner import run_vectorized
    from .dynamic.stream import (READ_HEAVY, UPDATE_HEAVY, UPDATES_SCHEMA,
                                 StreamEngine, UpdateLog,
                                 generate_update_log, measure_stream)
    from .graph.generators import rmat
    from .perf.cache import temporary_run_cache

    if args.log:
        log = UpdateLog.load(args.log)
    else:
        base = rmat(args.vertices, args.edges, seed=args.seed,
                    name="stream-cli")
        log = generate_update_log(base, args.updates, seed=args.seed,
                                  delete_fraction=args.delete_fraction)
    events = log.to_arrays()
    deletes = int(np.count_nonzero(events[:, 1] == 1))

    with temporary_run_cache(""):
        engine = StreamEngine(log.num_vertices, k=args.k, name=log.name) \
            if args.k else StreamEngine(log.num_vertices, name=log.name)
        engine.replay(log)
        snapshot = engine.snapshot()
        conforming = True
        for name in engine.algorithms:
            rebuilt = run_vectorized(_make_algorithm(name), snapshot).values
            got = engine.query(name)
            ok = (np.allclose(got, rebuilt, rtol=1e-12, atol=1e-12)
                  if name == "pr" else np.array_equal(got, rebuilt))
            conforming = conforming and ok
        stats = engine.stats

    mixes = {m.name: m for m in (UPDATE_HEAVY, READ_HEAVY)}
    chosen = args.mix or list(mixes)
    results = [measure_stream(log, mixes[m], k=args.k or None)
               for m in chosen]

    if args.json:
        pending = stats.pending_at_flush
        print(json.dumps({
            "schema": UPDATES_SCHEMA,
            "log": log.name,
            "num_vertices": log.num_vertices,
            "events": len(log),
            "deletes": deletes,
            "logical_time": engine.logical_time,
            "live_edges": engine.num_edges,
            "k": engine.k,
            "incremental_matches_rebuild": bool(conforming),
            "staleness": {
                "flushes": stats.flushes,
                "max_pending_at_flush": stats.max_pending_at_flush,
                "mean_pending_at_flush":
                    sum(pending) / len(pending) if pending else 0.0,
                "incremental_refreshes": stats.incremental_refreshes,
                "rebuilds": stats.rebuilds,
            },
            "mixes": [{
                "mix": r.mix,
                "num_updates": r.num_updates,
                "num_queries": r.num_queries,
                "flushes": r.flushes,
                "updates_per_second": r.updates_per_second,
                "speedup_vs_serial": r.speedup_vs_serial,
            } for r in results],
        }, indent=2, sort_keys=True))
        return 0

    print(f"log:          {log.name} ({UPDATES_SCHEMA})")
    print(f"vertices:     {log.num_vertices}")
    print(f"events:       {len(log)} ({len(log) - deletes} adds / "
          f"{deletes} deletes, t0..t{engine.logical_time})")
    print(f"live edges:   {engine.num_edges}")
    print(f"incremental values match from-scratch rebuild: {conforming}")
    print(f"\nstaleness contract (k={engine.k}, "
          f"algorithms: {', '.join(engine.algorithms)}):")
    pending = stats.pending_at_flush
    mean_pending = sum(pending) / len(pending) if pending else 0.0
    print(f"  flushes                {stats.flushes}")
    print(f"  max pending at flush   {stats.max_pending_at_flush}")
    print(f"  mean pending at flush  {mean_pending:.1f}")
    print(f"  incremental refreshes  {stats.incremental_refreshes}")
    print(f"  rebuilds               {stats.rebuilds}")
    print("\nthroughput:")
    for r in results:
        print(f"  {r.mix}: {r.updates_per_second:,.0f} updates/s "
              f"({r.speedup_vs_serial:.2f}x vs serial; "
              f"{r.num_updates} updates, {r.num_queries} queries, "
              f"{r.flushes} flushes)")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .errors import StoreError
    from .perf.cache import get_run_cache

    cache = get_run_cache()
    if args.action == "clear":
        removed = cache.clear(disk=True)
        print(f"removed {removed} cached run(s)")
        return 0
    if args.action == "verify":
        try:
            report = cache.verify_store()
        except StoreError as exc:
            print(f"verify failed: {exc}", file=sys.stderr)
            return 1
        print(report.format())
        return 0 if report.clean else 1
    if args.action == "vacuum":
        try:
            result = cache.vacuum()
        except StoreError as exc:
            print(f"vacuum failed: {exc}", file=sys.stderr)
            return 1
        print(f"{result['bytes_before']:,} B -> "
              f"{result['bytes_after']:,} B")
        return 0
    info = cache.info()
    print(f"directory:      {info['directory'] or '(disk cache disabled)'}")
    print(f"backend:        {info['backend'] or '(none)'}")
    print(f"salt:           {info['salt']}")
    print(f"disk entries:   {info['disk_entries']}")
    print(f"disk bytes:     {info['disk_bytes']:,}"
          + (f" (budget {info['max_bytes']:,})"
             if info['max_bytes'] else ""))
    print(f"memory entries: {info['memory_entries']} "
          f"(limit {info['memory_limit']})")
    print(f"session stats:  {cache.stats.summary()}")
    print(f"counts stats:   {cache.stats.counts_summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyVE hybrid vertex-edge memory hierarchy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets, machines and experiments")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=DATASET_ORDER, default="YT",
                       help="evaluation dataset (default YT)")
        p.add_argument("--graph", metavar="FILE",
                       help="edge-list file instead of a dataset")
        p.add_argument("--algorithm", choices=ALGORITHM_NAMES, default="pr")

    def add_trace_arg(p: argparse.ArgumentParser,
                      default: str | None = None) -> None:
        p.add_argument("--trace-out", metavar="PATH", default=default,
                       help="record a JSONL span trace of the execution "
                            "to PATH (see docs/observability.md)"
                            + (f" (default {default})" if default else ""))

    run = sub.add_parser("run", help="simulate one machine")
    add_workload_args(run)
    add_trace_arg(run)
    run.add_argument("--machine", choices=MACHINE_NAMES,
                     default="acc+HyVE-opt")
    run.add_argument("--json", action="store_true",
                     help="print the full report as JSON")
    run.add_argument("--verbose", action="store_true",
                     help="print run-cache statistics after the report")

    compare = sub.add_parser("compare", help="rank every machine")
    add_workload_args(compare)
    add_trace_arg(compare)
    compare.add_argument("--verbose", action="store_true",
                         help="print run-cache statistics after the "
                              "ranking")

    exp = sub.add_parser("experiment",
                         help="regenerate paper tables/figures")
    exp.add_argument("names", nargs="*",
                     help="experiment ids (default: all)")
    exp.add_argument("--no-save", action="store_true",
                     help="print only; do not write under results/")
    exp.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run drivers over N worker processes "
                          "(default 1: serial)")
    add_trace_arg(exp)

    trace = sub.add_parser("trace",
                           help="run one experiment with tracing on and "
                                "print its per-phase attribution")
    trace.add_argument("experiment",
                       help="experiment id (see `repro info`)")
    add_trace_arg(trace, default="trace.jsonl")
    trace.add_argument("--quiet", action="store_true",
                       help="skip the experiment table; print only the "
                            "attribution")

    metrics = sub.add_parser("metrics",
                             help="run one simulation and print the "
                                  "metrics registry")
    add_workload_args(metrics)
    add_trace_arg(metrics)
    metrics.add_argument("--machine", choices=MACHINE_NAMES,
                         default="acc+HyVE-opt")
    metrics.add_argument("--json", action="store_true",
                         help="print the snapshot as JSON")

    verify = sub.add_parser(
        "verify",
        help="fuzz the differential-conformance oracles "
             "(cross-engine identity, executor equivalence, "
             "metamorphic invariants)")
    verify.add_argument("--seed", type=int, default=0,
                        help="case-generation seed (default 0; same "
                             "seed => same cases)")
    verify.add_argument("--cases", type=int, default=50,
                        help="number of random cases (default 50)")
    verify.add_argument("--oracle", action="append", metavar="NAME",
                        help="run only this oracle (repeatable; "
                             "default: all; see --list)")
    verify.add_argument("--failures-dir", metavar="DIR",
                        default="verify-failures",
                        help="where shrunk repro files are written "
                             "(default verify-failures/)")
    verify.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many distinct failures "
                             "(default 5)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimising them")
    verify.add_argument("--list", action="store_true",
                        help="list the registered oracles and exit")
    verify.add_argument("--replay", nargs="+", metavar="FILE",
                        help="replay repro file(s) instead of fuzzing; "
                             "exits 1 if any still fails")

    optimize = sub.add_parser(
        "optimize",
        help="search the machine design space for Pareto-optimal "
             "(time, energy, EDP) configurations (docs/autotuning.md)")
    optimize.add_argument("--dataset", action="append",
                          choices=DATASET_ORDER, metavar="NAME",
                          help="dataset to tune for (repeatable; "
                               "default: YT and LJ)")
    optimize.add_argument("--algorithm", action="append",
                          choices=ALGORITHM_NAMES, metavar="NAME",
                          help="algorithm to tune for (repeatable; "
                               "default: pr and bfs)")
    optimize.add_argument("--backend", action="append",
                          choices=("hyve", "graphr", "cpu"),
                          help="backend space(s) to search (repeatable; "
                               "default: all three)")
    optimize.add_argument("--engine", choices=("exhaustive", "guided"),
                          default="exhaustive",
                          help="exhaustive: price every configuration; "
                               "guided: budgeted successive halving over "
                               "the structural space")
    optimize.add_argument("--budget", type=int, default=None,
                          metavar="N",
                          help="max configurations the guided engine "
                               "prices (default: everything)")
    optimize.add_argument("--seed", type=int, default=0,
                          help="guided-engine sampling seed (default 0; "
                               "same seed => same frontier)")
    optimize.add_argument("--weight", action="append", metavar="OBJ=W",
                          help="objective weight for the recommendation, "
                               "e.g. --weight edp=2 --weight time=1 "
                               "(repeatable; named objectives: time, "
                               "energy, edp; unnamed ones drop to 0)")
    optimize.add_argument("--frontier-out", metavar="PATH",
                          help="write every frontier point as CSV")
    optimize.add_argument("--json", action="store_true",
                          help="print the frontiers as JSON instead of "
                               "the recommendation table")
    optimize.add_argument("--verbose", action="store_true",
                          help="print run-cache statistics at the end")
    add_trace_arg(optimize)

    stream = sub.add_parser(
        "stream",
        help="replay an update log through the bounded-staleness "
             "streaming engine and print staleness + throughput tables "
             "(docs/streaming.md)")
    stream.add_argument("--log", metavar="FILE",
                        help="hyve-updates-v1 JSONL log to replay "
                             "(default: a seeded synthetic stream)")
    stream.add_argument("--vertices", type=int, default=200,
                        help="synthetic base-graph vertices (default 200)")
    stream.add_argument("--edges", type=int, default=800,
                        help="synthetic base-graph edges (default 800)")
    stream.add_argument("--updates", type=int, default=2000,
                        help="synthetic update count (default 2000)")
    stream.add_argument("--delete-fraction", type=float, default=0.25,
                        help="synthetic delete share (default 0.25)")
    stream.add_argument("--seed", type=int, default=0,
                        help="synthetic stream seed (default 0)")
    stream.add_argument("--k", type=int, default=None,
                        help="staleness bound: flush after K pending "
                             "updates (default: engine/mix defaults)")
    stream.add_argument("--mix", action="append",
                        choices=("update-heavy", "read-heavy"),
                        help="throughput mix to bench (repeatable; "
                             "default: both)")
    stream.add_argument("--json", action="store_true",
                        help="print everything as JSON")

    cache = sub.add_parser("cache",
                           help="inspect or maintain the persistent run "
                                "cache (see docs/robustness.md)")
    cache.add_argument("action",
                       choices=("info", "clear", "verify", "vacuum"),
                       help="info: show location/size/stats; "
                            "clear: delete all cached runs; "
                            "verify: integrity-scan the store "
                            "(exit 1 on any checksum mismatch); "
                            "vacuum: compact the database")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "run": cmd_run,
        "compare": cmd_compare,
        "experiment": cmd_experiment,
        "cache": cmd_cache,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "verify": cmd_verify,
        "optimize": cmd_optimize,
        "stream": cmd_stream,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        # Operator errors (unknown names, unreadable files, malformed
        # inputs) get one line on stderr and exit code 2 — not a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
