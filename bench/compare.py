"""Compare benchmark runs against the bounds in BENCHMARK.json.

    python bench/compare.py --base A.json [A2.json ...] [--head B.json ...]

Every file is a ``hyve-bench-v2`` document written by ``run.py --out``;
every run in it is one sample.  For each workload and metric the median
and quartiles of each side are printed.  An end-to-end metric's spread
is its interquartile range over its median, and its verdict is:

* ``unresolved`` -- the spread of either side exceeds the metric's bound
  and not every head run beats every base run (``better`` if they all
  do);
* ``regressed`` -- the head median is worse than the base median by more
  than the bound;
* ``ok`` -- otherwise.

Without ``--head`` only the spread is judged (``steady`` or
``unresolved``).  Per-layer metrics have no bound and get no verdict.
Exits 1 when any end-to-end metric is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA = "hyve-bench-v2"
ROOT = Path(__file__).resolve().parent.parent
FAILING = ("regressed", "unresolved")


def load_runs(paths: list[Path]) -> list[dict]:
    runs = []
    for path in paths:
        document = json.loads(path.read_text())
        if document.get("schema") != SCHEMA:
            raise SystemExit(f"error: {path} is not a {SCHEMA} file")
        runs += document["runs"]
    return runs


def samples(runs: list[dict], kind: str) -> dict[tuple[str, str], list]:
    """(workload, metric) -> values over the runs, for one metric kind."""
    out: dict[tuple[str, str], list] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, m in result.get(kind, {}).items():
                out.setdefault((workload, metric), []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], head: list[float] | None, bound: float,
            better: str) -> str:
    if head is None:
        return "steady" if spread(base) <= bound else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    if spread(base) > bound or spread(head) > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "better"
        return "unresolved"
    base_median = statistics.median(base)
    worse = sign * (statistics.median(head) - base_median) / abs(base_median)
    return "regressed" if worse > bound else "ok"


def compare(base_runs: list[dict], head_runs: list[dict] | None,
            spec: dict) -> list[dict]:
    """One row per (workload, metric) seen in the base runs."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for kind in ("end_to_end", "per_layer"):
        base = samples(base_runs, kind)
        head = samples(head_runs, kind) if head_runs is not None else {}
        for key, values in base.items():
            row = {"workload": key[0], "metric": key[1], "kind": kind,
                   "base": quartiles(values), "base_spread": spread(values),
                   "head": None, "verdict": ""}
            head_values = head.get(key)
            if head_values:
                row["head"] = quartiles(head_values)
                row["head_spread"] = spread(head_values)
            metric = bounds.get(key[1])
            if kind == "end_to_end" and metric is not None:
                if head_runs is not None and not head_values:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = verdict(values, head_values,
                                             metric["bound"],
                                             metric["better"])
            rows.append(row)
    return rows


def _format(q: tuple[float, float, float] | None) -> str:
    if q is None:
        return "-"
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, nargs="+", required=True,
                        help="results of the reference code")
    parser.add_argument("--head", type=Path, nargs="+",
                        help="results of the changed code")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    head_runs = load_runs(args.head) if args.head else None
    rows = compare(load_runs(args.base), head_runs, spec)
    print(f"{'workload':13s} {'metric':40s} {'base median [q1, q3]':36s} "
          f"{'head median [q1, q3]':36s} spread   verdict")
    for row in rows:
        spreads = f"{row['base_spread']:.3f}"
        if row["head"] is not None:
            spreads += f"/{row['head_spread']:.3f}"
        print(f"{row['workload']:13s} {row['metric']:40s} "
              f"{_format(row['base']):36s} {_format(row['head']):36s} "
              f"{spreads:8s} {row['verdict']}")
    return 1 if any(row["verdict"] in FAILING for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
