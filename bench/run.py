"""Run the benchmark: every workload, its checks, and its metrics.

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace {0,1}] [--out PATH] [--trace-out DIR]

Each workload runs in a fresh worker process (``workloads.py run``).
``--trace 0`` measures the end-to-end metrics with the tracer off;
``--trace 1`` makes one traced run that reports the per-layer metrics;
without ``--trace`` both run, untraced first.  Every metric is printed
by name with its unit, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (names
are prefixed ``<workload>/`` when more than one workload runs).
``--out`` appends this run to a ``hyve-bench-v2`` results file, which
``compare.py`` reads.  All scratch files stay in ``.bench_work/`` under
the checkout and are deleted before the command exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

from workloads import (ROOT, WORKLOADS, BenchError, child_env,
                       make_work_dir, run_worker)

SCHEMA = "hyve-bench-v2"

#: A workload run still going after this long is killed with every
#: process it started, so one invocation of one workload ends within
#: three minutes.
WORKER_TIMEOUT_S = 170


def host_facts() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "machine": platform.machine()}


def append_run(path: Path, run: dict) -> None:
    document = {"schema": SCHEMA, "runs": []}
    if path.exists():
        document = json.loads(path.read_text())
        if document.get("schema") != SCHEMA:
            raise BenchError(f"{path} is not a {SCHEMA} file")
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0: the paper datasets)")
    parser.add_argument("--seconds", type=float,
                        help="measured time per untraced run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: traced run only "
                             "(default: both)")
    parser.add_argument("--out", type=Path,
                        help="append this run to a hyve-bench-v2 file")
    parser.add_argument("--trace-out", type=Path,
                        help="also write the raw traces under this directory")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro/__init__.py", "results/headline.csv")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a checkout of the program "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]

    results: dict[str, dict] = {}
    work = make_work_dir()
    try:
        for name in workloads:
            merged = {"correct": True, "attempted": 0, "failed": 0,
                      "end_to_end": {}, "per_layer": {}, "info": {}}
            for trace in modes:
                child_work = work / f"{name}-{trace}"
                child_work.mkdir()
                child_args = ["run", name, "--seed", str(args.seed),
                              "--seconds", str(seconds),
                              "--trace", str(trace),
                              "--work", str(child_work)]
                if trace and args.trace_out:
                    child_args += ["--trace-out",
                                   str((args.trace_out / name).resolve())]
                result = run_worker(child_args, child_env(child_work),
                                    WORKER_TIMEOUT_S, own_group=True)
                merged["correct"] &= result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["per_layer" if trace else "end_to_end"].update(
                    result["metrics"])
                merged["info"].update(result["info"])
            results[name] = merged
            for kind in ("end_to_end", "per_layer"):
                for metric, m in merged[kind].items():
                    samples = (f"  (n={m['samples']})" if "samples" in m
                               else "")
                    print(f"{name:13s} {metric:40s} {m['value']:16.6g} "
                          f"{m['unit']}{samples}")
            for key, value in merged["info"].items():
                if isinstance(value, float):
                    print(f"{name:13s} {key:40s} {value:16.6g} (unbounded)")
            status = "ok" if merged["correct"] else "FAILED"
            print(f"{name:13s} checks: {status}, {merged['failed']} of "
                  f"{merged['attempted']} operations failed")
            for line in merged["info"].get("failures", []):
                print(f"{name:13s}   {line}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.out:
        append_run(args.out, {
            "created": datetime.now(timezone.utc).isoformat(),
            "host": host_facts(), "seed": args.seed, "seconds": seconds,
            "workloads": results,
        })
    qualify = len(workloads) > 1
    metrics = {}
    for name, result in results.items():
        for kind in ("end_to_end", "per_layer"):
            for metric, m in result[kind].items():
                key = f"{name}/{metric}" if qualify else metric
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
