#!/usr/bin/env python
"""Timing harness CLI: record experiment wall-clock into BENCH_*.json.

Two modes:

* default — time experiment drivers in-process (optionally fanned out
  with ``--jobs``) via :func:`repro.perf.bench.bench_experiments` and
  write the payload::

      PYTHONPATH=src python tools/bench.py --output BENCH_2.json
      PYTHONPATH=src python tools/bench.py --jobs 4

* ``--smoke`` — the CI regression check: run one experiment twice in
  fresh subprocesses sharing a fresh run-cache directory, and fail
  (exit 1) unless the cache-warm second run is measurably faster than
  the cache-cold first run.  The measured times are written to
  ``--output`` as well, so CI can upload them as an artifact::

      python tools/bench.py --smoke --output BENCH_2.json

* ``--scenario sweep`` — the simulate-once / price-many check: price a
  32-point density x BPG-timeout grid with the pre-batching per-point
  pipeline and with the batched evaluator (cold and warm memos), and
  fail unless the batched cold pass beats the serial one by
  ``--min-speedup``::

      python tools/bench.py --scenario sweep --min-speedup 2 \\
          --output BENCH_4.json
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

# CI regression floors (referenced by .github/workflows/ci.yml).  Both
# are deliberately far below the speedups recorded in the committed
# BENCH payloads (cache-warm reruns and batched sweeps measure >= 2x on
# a quiet machine) so shared-runner noise cannot flake the gate, while
# a genuine regression — a cache that stopped caching, a batcher that
# fell back to per-point pricing — still fails it.
SMOKE_MIN_SPEEDUP = 1.05
SWEEP_MIN_SPEEDUP = 1.4
HOTPATH_MIN_SPEEDUP = 1.3

# --scenario outofcore floor: the streamed PR convergence must sustain
# at least this many edge-traversals per second.  Far below what the
# vectorized kernels measure (tens of millions/s) so runner noise and
# slow CI disks cannot flake the gate, while a path that silently fell
# back to per-edge work would still fail it.
OUTOFCORE_MIN_EDGES_PER_S = 500_000.0

# --scenario stream floors: the bounded-staleness engine must sustain
# at least this many updates/second on an append-only stream, and
# answering the update+query schedule through incremental maintenance
# must not lose badly to serial from-scratch replay.  The committed
# BENCH_10.json records >= 1.0x (the ISSUE 10 acceptance bar: engine
# no slower than serial) and six-figure updates/s on a quiet machine;
# the CI floors sit below so shared-runner noise cannot flake the
# gate, while an engine that fell back to rebuild-per-query (~0.3x on
# the read-heavy mix) still fails it clearly.
STREAM_MIN_SPEEDUP = 0.85
STREAM_MIN_UPDATES_PER_S = 25_000.0

# --scenario tune floor: the exhaustive autotuner engine must price at
# least this many configurations per second on a warm counts cache.
# The committed BENCH_9.json records >= 10,000/s on a quiet machine
# (the ISSUE 9 acceptance bar); the CI floor sits well below so shared
# runners cannot flake it, while an engine that fell back to per-point
# scheduling (~50/s) still fails by orders of magnitude.
TUNE_MIN_CONFIGS_PER_S = 2_500.0

# --smoke parallel_not_slower: jobs=2 may exceed serial wall-clock by
# at most this factor on >= 2 cores (grace absorbs shared-runner
# noise; a fan-out that genuinely loses to serial — e.g. graphs
# pickled per task again — blows well past it).
PARALLEL_GRACE = 1.10


def run_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import bench_experiments, write_bench

    payload = bench_experiments(args.experiments or None, jobs=args.jobs)
    if args.baseline_total_s is not None:
        payload["baseline"] = {
            "total_s": args.baseline_total_s,
            "note": args.baseline_note,
            "speedup": args.baseline_total_s / payload["total_s"],
        }
    path = write_bench(payload, args.output)
    print(f"wrote {path}: {len(payload['experiments'])} experiment(s), "
          f"total {payload['total_s']:.2f}s, jobs={args.jobs}")
    return 0


def run_sweep_scenario(args: argparse.Namespace) -> int:
    from repro.perf.bench import bench_sweep_scenario, write_bench

    min_speedup = (SWEEP_MIN_SPEEDUP if args.min_speedup is None
                   else args.min_speedup)
    payload = bench_sweep_scenario()
    payload["min_speedup"] = min_speedup
    path = write_bench(payload, args.output)
    print(f"sweep scenario [{payload['points']} points]: "
          f"serial {payload['serial_s']:.3f}s, "
          f"batch cold {payload['batch_cold_s']:.3f}s "
          f"({payload['speedup_cold']:.2f}x), "
          f"warm {payload['batch_warm_s']:.3f}s "
          f"({payload['speedup_warm']:.2f}x); wrote {path}")
    if payload["speedup_cold"] < min_speedup:
        print(f"FAIL: batched cold sweep was not >= "
              f"{min_speedup:.2f}x faster than the serial path",
              file=sys.stderr)
        return 1
    return 0


def run_hotpath_scenario(args: argparse.Namespace) -> int:
    from repro.perf.bench import bench_hotpath_scenario, write_bench

    min_speedup = (HOTPATH_MIN_SPEEDUP if args.min_speedup is None
                   else args.min_speedup)
    payload = bench_hotpath_scenario(jobs=max(args.jobs, 2))
    payload["min_speedup"] = min_speedup
    path = write_bench(payload, args.output)
    parallel = payload["parallel"]
    if parallel.get("skipped"):
        parallel_note = f"parallel skipped ({parallel['reason']})"
    else:
        parallel_note = (f"serial {parallel['serial_s']:.2f}s vs "
                         f"jobs{parallel['jobs']} "
                         f"{parallel['jobs_s']:.2f}s "
                         f"({parallel['speedup']:.2f}x)")
    print(f"hotpath scenario: cold {payload['cold_total_s']:.2f}s, "
          f"warm {payload['warm_total_s']:.2f}s; replay serial "
          f"{payload['replay_serial_s']:.3f}s vs batched "
          f"{payload['replay_batched_s']:.3f}s "
          f"({payload['speedup_replay']:.2f}x, need >= "
          f"{min_speedup:.2f}x); {parallel_note}; wrote {path}")
    failed = False
    if payload["speedup_replay"] < min_speedup:
        print(f"FAIL: batched request replay was not >= "
              f"{min_speedup:.2f}x faster than per-request replay",
              file=sys.stderr)
        failed = True
    if not parallel.get("skipped") \
            and parallel["jobs_s"] > parallel["serial_s"] * PARALLEL_GRACE:
        print("FAIL: parallel hot-path run was slower than serial on a "
              "multi-core host", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def run_outofcore_scenario(args: argparse.Namespace) -> int:
    from repro.perf.bench import bench_outofcore_scenario, write_bench

    floor = (OUTOFCORE_MIN_EDGES_PER_S if args.min_edges_per_s is None
             else args.min_edges_per_s)
    payload = bench_outofcore_scenario(
        num_vertices=args.ooc_vertices,
        num_edges=args.ooc_edges,
        shard_edges=args.ooc_shard_edges,
    )
    payload["min_edges_per_s"] = floor
    path = write_bench(payload, args.output)
    budget = payload["memory_budget"]
    pr = payload["algorithms"]["PR"]
    print(f"outofcore scenario [|V|={payload['num_vertices']:,} "
          f"|E|={payload['num_edges']:,}, "
          f"{payload['num_shards']} shard(s)]: "
          f"generate {payload['generate_s']:.1f}s "
          f"({payload['generate_edges_per_s']:,.0f} e/s), "
          f"verify {payload['verify_s']:.1f}s, "
          f"PR x{pr['iterations']} {pr['converge_s']:.1f}s "
          f"({pr['edges_per_s']:,.0f} e/s), "
          f"counts {payload['counts_s']:.1f}s; resident "
          f"{budget['resident_bytes'] / 2**20:,.0f} MiB vs "
          f"{budget['disk_bytes'] / 2**20:,.0f} MiB on disk; wrote {path}")
    if pr["edges_per_s"] < floor:
        print(f"FAIL: streamed PR sustained {pr['edges_per_s']:,.0f} "
              f"edges/s, floor is {floor:,.0f}", file=sys.stderr)
        return 1
    return 0


def run_tune_scenario(args: argparse.Namespace) -> int:
    from repro.perf.bench import bench_tune_scenario, write_bench

    floor = (TUNE_MIN_CONFIGS_PER_S if args.min_configs_per_s is None
             else args.min_configs_per_s)
    payload = bench_tune_scenario()
    payload["min_configs_per_s"] = floor
    path = write_bench(payload, args.output)
    guided = payload["guided"]
    print(f"tune scenario [{payload['points']} pricing configs x "
          f"{payload['repeats']} repeat(s)]: "
          f"cold {payload['exhaustive_cold_s']:.3f}s, warm "
          f"{payload['exhaustive_warm_s']:.3f}s "
          f"({payload['configs_per_s_warm']:,.0f} configs/s, need >= "
          f"{floor:,.0f}); guided full-budget regret "
          f"{guided['full_budget']['edp_regret']:.3g}, reduced-budget "
          f"({guided['reduced_budget']['budget']}/"
          f"{guided['space_size']}) regret "
          f"{guided['reduced_budget']['edp_regret']:.3g}; wrote {path}")
    failed = False
    if payload["configs_per_s_warm"] < floor:
        print(f"FAIL: exhaustive engine priced "
              f"{payload['configs_per_s_warm']:,.0f} configs/s, floor "
              f"is {floor:,.0f}", file=sys.stderr)
        failed = True
    if not guided["full_budget"]["frontier_matches_exhaustive"]:
        print("FAIL: guided engine at full budget did not reproduce "
              "the exhaustive frontier (expected zero regret)",
              file=sys.stderr)
        failed = True
    if guided["full_budget"]["edp_regret"] != 0.0:
        print("FAIL: guided engine at full budget has non-zero EDP "
              "regret", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def run_stream_scenario(args: argparse.Namespace) -> int:
    from repro.perf.bench import bench_stream_scenario, write_bench

    min_speedup = (STREAM_MIN_SPEEDUP if args.min_speedup is None
                   else args.min_speedup)
    floor = (STREAM_MIN_UPDATES_PER_S if args.min_updates_per_s is None
             else args.min_updates_per_s)
    payload = bench_stream_scenario()
    payload["min_speedup"] = min_speedup
    payload["min_updates_per_s"] = floor
    path = write_bench(payload, args.output)
    churn = payload["churn"]
    parts = []
    for name, leg in payload["mixes"].items():
        parts.append(f"{name} {leg['updates_per_second']:,.0f} up/s "
                     f"({leg['speedup_vs_serial']:.2f}x vs serial)")
    print(f"stream scenario [{payload['num_updates']:,} updates x "
          f"{payload['repeats']} repeat(s), insert-only]: "
          f"{'; '.join(parts)}; churn(df=0.2) "
          f"{churn['speedup_vs_serial']:.2f}x (not gated); wrote {path}")
    failed = False
    for name, leg in payload["mixes"].items():
        if leg["speedup_vs_serial"] < min_speedup:
            print(f"FAIL: {name} engine path was {leg['speedup_vs_serial']:.2f}x "
                  f"vs serial replay, floor is {min_speedup:.2f}x",
                  file=sys.stderr)
            failed = True
        # The rate floor gates only the ingest-dominated mix: the
        # read-heavy mix's updates/s is bounded by its query cadence,
        # which is the point of that leg, not a regression.
        if name == "update-heavy" and leg["updates_per_second"] < floor:
            print(f"FAIL: {name} sustained {leg['updates_per_second']:,.0f} "
                  f"updates/s, floor is {floor:,.0f}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _timed_subprocess(experiment: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "from repro.experiments import ALL_EXPERIMENTS; "
         f"ALL_EXPERIMENTS[{experiment!r}]()"],
        env=env, check=True, cwd=REPO_ROOT,
    )
    return time.perf_counter() - start


def _timed_run_selected(names: list[str], jobs: int, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "from repro.experiments import run_selected; "
         f"run_selected({names!r}, save=False, jobs={jobs})"],
        env=env, check=True, cwd=REPO_ROOT,
    )
    return time.perf_counter() - start


def _parallel_not_slower_check(env: dict) -> dict:
    """``--smoke``'s fan-out guard: jobs=2 must not lose to serial.

    Runs fig20+fig21 cold (fresh cache directory per leg, fresh
    subprocesses) serially and with two workers.  Skipped — recorded,
    not silently passed — on single-core hosts, where fan-out cannot
    win and the old misleading green would reappear.
    """
    cpu = os.cpu_count() or 1
    names = ["fig20", "fig21"]
    check: dict = {"check": "parallel_not_slower", "cpu_count": cpu,
                   "experiments": names, "grace": PARALLEL_GRACE}
    if cpu < 2:
        check["skipped"] = True
        check["reason"] = f"cpu_count={cpu} < 2: fan-out cannot win"
        return check
    serial_env = dict(env)
    serial_env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
        prefix="repro-bench-pns-serial-"
    )
    jobs_env = dict(env)
    jobs_env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
        prefix="repro-bench-pns-jobs-"
    )
    check["skipped"] = False
    check["serial_s"] = _timed_run_selected(names, 1, serial_env)
    check["jobs2_s"] = _timed_run_selected(names, 2, jobs_env)
    check["speedup"] = check["serial_s"] / check["jobs2_s"]
    check["ok"] = check["jobs2_s"] <= check["serial_s"] * PARALLEL_GRACE
    return check


def run_smoke(args: argparse.Namespace) -> int:
    from repro.perf.bench import BENCH_SCHEMA, write_bench

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-smoke-")
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    min_speedup = (SMOKE_MIN_SPEEDUP if args.min_speedup is None
                   else args.min_speedup)
    experiment = args.experiments[0] if args.experiments else "headline"
    cold = _timed_subprocess(experiment, env)
    warm = _timed_subprocess(experiment, env)
    speedup = cold / warm if warm > 0 else float("inf")

    parallel = _parallel_not_slower_check(env)

    payload = {
        "schema": BENCH_SCHEMA,
        "mode": "smoke",
        "experiment": experiment,
        "cold_s": cold,
        "warm_s": warm,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "parallel_not_slower": parallel,
    }
    path = write_bench(payload, args.output)
    if parallel.get("skipped"):
        parallel_note = f"parallel check skipped ({parallel['reason']})"
    else:
        parallel_note = (f"parallel fig20+fig21 serial "
                         f"{parallel['serial_s']:.2f}s vs jobs2 "
                         f"{parallel['jobs2_s']:.2f}s")
    print(f"smoke [{experiment}]: cold {cold:.2f}s, warm {warm:.2f}s, "
          f"speedup {speedup:.2f}x (need >= {min_speedup:.2f}x); "
          f"{parallel_note}; wrote {path}")
    failed = False
    if speedup < min_speedup:
        print("FAIL: cache-warm run was not measurably faster",
              file=sys.stderr)
        failed = True
    if not parallel.get("skipped") and not parallel["ok"]:
        print("FAIL: jobs=2 was slower than serial on a multi-core "
              "host (parallel_not_slower)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--experiments", nargs="*", metavar="NAME",
                        help="experiment ids (default: all; in --smoke "
                             "mode only the first is used, default "
                             "'headline')")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--output", default="BENCH.json",
                        help="payload path (default BENCH.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="cold-vs-warm cache regression check")
    parser.add_argument("--scenario",
                        choices=["sweep", "hotpath", "outofcore", "tune",
                                 "stream"],
                        help="timed scenario: 'sweep' prices a "
                             "32-point density x BPG-timeout grid "
                             "serially and batched (cold + warm); "
                             "'hotpath' times fig20/fig21/the "
                             "executor-model ablation cold+warm plus "
                             "batched-vs-serial request replay and a "
                             "jobs-vs-serial fan-out on >= 2 cores; "
                             "'outofcore' streams an R-MAT to an "
                             "on-disk shard store at paper scale "
                             "(default: live-journal's 4.85M/69M) and "
                             "times generation, verification, streamed "
                             "PR/BFS and the serial per-shard counts "
                             "merge (--jobs does not apply); "
                             "'tune' times the autotuner's exhaustive "
                             "engine over a 360-point pricing space "
                             "(configs/s, warm counts cache) and gates "
                             "the guided engine's zero-regret promise "
                             "at full budget; "
                             "'stream' replays an append-only update "
                             "log through the bounded-staleness engine "
                             "under the update-heavy and read-heavy "
                             "mixes and gates sustained updates/s plus "
                             "engine-vs-serial-rebuild parity")
    parser.add_argument("--ooc-vertices", type=int, default=4_850_000,
                        help="--scenario outofcore: vertex count "
                             "(default: live-journal's 4,850,000)")
    parser.add_argument("--ooc-edges", type=int, default=69_000_000,
                        help="--scenario outofcore: edge count "
                             "(default: live-journal's 69,000,000)")
    parser.add_argument("--ooc-shard-edges", type=int, default=1 << 22,
                        help="--scenario outofcore: edges per shard "
                             "(default 2^22)")
    parser.add_argument("--min-edges-per-s", type=float, default=None,
                        help="--scenario outofcore: minimum sustained "
                             "streamed-PR rate (defaults to "
                             f"{OUTOFCORE_MIN_EDGES_PER_S:,.0f})")
    parser.add_argument("--min-updates-per-s", type=float, default=None,
                        help="--scenario stream: minimum sustained "
                             "ingest rate (defaults to "
                             f"{STREAM_MIN_UPDATES_PER_S:,.0f})")
    parser.add_argument("--min-configs-per-s", type=float, default=None,
                        help="--scenario tune: minimum warm exhaustive "
                             "pricing rate (defaults to "
                             f"{TUNE_MIN_CONFIGS_PER_S:,.0f})")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="--smoke / --scenario: minimum speedup "
                             "ratio (defaults to "
                             f"SMOKE_MIN_SPEEDUP={SMOKE_MIN_SPEEDUP} / "
                             f"SWEEP_MIN_SPEEDUP={SWEEP_MIN_SPEEDUP} / "
                             f"HOTPATH_MIN_SPEEDUP={HOTPATH_MIN_SPEEDUP})")
    parser.add_argument("--baseline-total-s", type=float, default=None,
                        help="record a reference total (e.g. the "
                             "pre-optimization serial wall-clock) in "
                             "the payload")
    parser.add_argument("--baseline-note", default="",
                        help="annotation for --baseline-total-s")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    if args.scenario == "sweep":
        return run_sweep_scenario(args)
    if args.scenario == "hotpath":
        return run_hotpath_scenario(args)
    if args.scenario == "outofcore":
        return run_outofcore_scenario(args)
    if args.scenario == "tune":
        return run_tune_scenario(args)
    if args.scenario == "stream":
        return run_stream_scenario(args)
    return run_bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
