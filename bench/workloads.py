"""The benchmark's four workloads, and the worker processes that run them.

Every workload is a closed loop: one client in one process issues the
next operation when the previous one returns.

* ``paper-cold`` -- each operation is one *pass*: every
  ``ALL_EXPERIMENTS`` driver, serially, in a fresh process against an
  empty private run cache.  What a fresh checkout or a CI run pays.
* ``paper-warm`` -- the same pass against a store that one untimed
  set-up pass filled, so convergence and schedule counts become store
  reads.
* ``design-sweep`` -- each operation is one exhaustive
  ``repro.tune.search`` over the structural HyVE, GraphR and CPU spaces,
  rotating over the five dataset specs x {PR, BFS, CC} in a warm process.
  The rotation holds about twice as many cache entries as the in-memory
  LRU, so counts lookups fall through to the store.
* ``stream-churn`` -- each operation ingests a 500-event batch into a
  ``StreamEngine(k=500)`` maintaining CC and BFS, then queries both;
  operations replay a seeded log (base graph, then 20% deletes) from an
  empty engine, in whole replays.

Run as a script this module is the worker side: ``run`` measures one
workload in this process and prints its result as one JSON line,
``pass`` runs one paper pass, ``setup`` times one set-up, and
``expected`` rewrites the seed-0 design-sweep digests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = ROOT / "results"
EXPECTED_SWEEP = HERE / "expected" / "design-sweep-seed0.json"
#: Scratch space; every run deletes its own subdirectory when it ends.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("paper-cold", "paper-warm", "design-sweep", "stream-churn")

#: Every end-to-end metric, with its unit (BENCHMARK.json lists the same).
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}

#: A paper pass that takes longer than this has hung.
PASS_TIMEOUT_S = 120

#: Fewest timed passes per paper run, however long they take.
MIN_PASSES = 3

#: Set-ups per design-sweep / stream-churn run (one in the measuring
#: process, the rest in fresh processes so each one starts cold).
SETUPS = 3

#: Columns that carry host wall-clock, blanked before outputs compare.
WALL_CLOCK_COLUMNS = {
    "fig20": ("HyVE (M edges/s)", "GraphR (M edges/s)", "Measured ratio"),
    "outofcore": ("Edges/s",),
}
#: Host rates the temporal driver writes into its text cells.
WALL_CLOCK_RATE = {"temporal": re.compile(r"[\d,.]+(?= ev/s| up/s|x vs )")}

SWEEP_ALGORITHMS = ("PR", "BFS", "CC")

STREAM_VERTICES = 20_000
STREAM_EDGES = 160_000
STREAM_UPDATES = 100_000
STREAM_DELETE_FRACTION = 0.2
STREAM_BATCH = 500
STREAM_CHECKPOINTS = 4


class BenchError(Exception):
    """A worker failed or the checkout cannot run the benchmark."""


# --- statistics ---------------------------------------------------------------


def end_to_end(setups: list[float], op_p50_s: float, ops: int,
               rss_mib: float) -> dict:
    """The :data:`END_TO_END` metrics, each with its sample count."""
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_p50_ms": (op_p50_s * 1e3, ops),
        "peak_rss_mib": (rss_mib, 1),
    }
    return {name: {"value": value, "unit": END_TO_END[name],
                   "samples": samples}
            for name, (value, samples) in values.items()}


def tail_and_rate(ops: list[float], items: float) -> dict:
    """Unbounded extras: the 90th percentile, which keeps at least ten
    samples beyond it, and work items per second of operation time.
    Bursts of slowness on a shared host move both too much to bound."""
    tail = statistics.quantiles(ops, n=10, method="inclusive")[-1]
    return {"op_p90_ms": tail * 1e3, "items_per_s": items / sum(ops)}


def per_layer(profile, overhead: float) -> dict:
    from layers import PER_LAYER

    return {name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in profile.metrics(overhead).items()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- worker processes ---------------------------------------------------------


def child_env(work: Path, cache_dir: Path | None = None) -> dict:
    """Environment that keeps a worker's files inside ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    env["REPRO_CACHE_DIR"] = str(cache_dir or work / "default-cache")
    return env


def run_worker(args: list[str], env: dict, timeout: float,
               own_group: bool = False) -> dict:
    """Run this module as a worker and parse its last stdout line.

    With ``own_group`` the worker leads a new process group and a timeout
    kills the whole group: the worker and every process it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__)), *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=own_group,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        if own_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args[:2])} did not finish "
                         f"within {timeout} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"worker {' '.join(args[:2])} exited "
                         f"{proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def make_work_dir() -> Path:
    """A fresh scratch directory inside the checkout."""
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def confine_to(work: Path) -> None:
    """Point this process's temporary files into ``work``."""
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)


# --- paper passes -------------------------------------------------------------


def masked_csv(name: str, text: str) -> str:
    """``text`` with experiment ``name``'s host wall-clock values blanked."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        return text
    blank = {rows[0].index(col) for col in WALL_CLOCK_COLUMNS.get(name, ())
             if col in rows[0]}
    rate = WALL_CLOCK_RATE.get(name)
    if not blank and rate is None:
        return text
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(rows[0])
    for row in rows[1:]:
        writer.writerow([
            "#" if i in blank else (rate.sub("#", cell) if rate else cell)
            for i, cell in enumerate(row)
        ])
    return out.getvalue()


def check_output(name: str, result) -> str:
    """``ok``/``mismatch`` against ``results/``, else a digest to compare
    pass to pass."""
    text = masked_csv(name, result.to_csv())
    committed = RESULTS_DIR / f"{name}.csv"
    if committed.exists():
        with committed.open(newline="") as fh:
            expected = masked_csv(name, fh.read())
        return "ok" if text == expected else "mismatch"
    return "digest:" + hashlib.blake2b(text.encode(),
                                       digest_size=16).hexdigest()


def model_error_pct(headline) -> float:
    """Geomean of |reproduced / paper - 1| over the headline numbers, %."""
    number = re.compile(r"\d+(?:\.\d+)?")
    errors = []
    for _, paper, reproduced in headline.rows:
        for p, r in zip(number.findall(paper), number.findall(reproduced)):
            errors.append(abs(float(r) / float(p) - 1.0))
    return 100.0 * math.exp(sum(math.log(e) for e in errors) / len(errors))


def paper_pass(trace: bool, trace_dir: str | None) -> dict:
    """One pass of every driver in this (fresh) process."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.obs.trace import get_tracer

    profile = None
    if trace:
        from layers import LayerProfile

        profile = LayerProfile(trace_dir)
    results, checks, times = {}, {}, {}
    with profile.traced("bench.pass") if profile else nullcontext():
        tracer = get_tracer()
        start = time.perf_counter()
        for name, driver in ALL_EXPERIMENTS.items():
            t = time.perf_counter()
            try:
                with tracer.span(f"experiments.{name}"):
                    results[name] = driver()
            except Exception as exc:  # a failed driver is a failed op
                checks[name] = f"error: {type(exc).__name__}: {exc}"
            times[name] = time.perf_counter() - t
        pass_s = time.perf_counter() - start
    for name, result in results.items():
        checks[name] = check_output(name, result)
    return {
        "pass_s": pass_s,
        "drivers": times,
        "checks": checks,
        "rss_mib": peak_rss_mib(),
        "model_error_pct": (model_error_pct(results["headline"])
                            if "headline" in results else None),
        "profile": profile.to_dict() if profile else None,
    }


class PassChecks:
    """Tally of driver outputs over the passes of one run.

    Drivers with committed CSVs are judged in the pass itself; the others
    must produce the same masked digest in every pass of the run.
    """

    def __init__(self) -> None:
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, checks: dict[str, str]) -> None:
        for name, verdict in checks.items():
            self.attempted += 1
            if verdict.startswith("digest:"):
                verdict = ("ok" if self.reference.setdefault(name, verdict)
                           == verdict else "changed between passes")
            if verdict != "ok":
                self.failed += 1
                self.failures.append(f"{name}: {verdict}")


def timed_pass(work: Path, cache_dir: Path, trace: bool = False,
               trace_dir: str | None = None) -> tuple[float, dict]:
    args = ["pass", "--trace", str(int(trace))]
    if trace_dir:
        args += ["--trace-out", trace_dir]
    start = time.perf_counter()
    result = run_worker(args, child_env(work, cache_dir), PASS_TIMEOUT_S)
    return time.perf_counter() - start, result


def paper(warm: bool, seconds: float, trace: bool, work: Path,
          trace_dir: str | None) -> dict:
    checks = PassChecks()
    setups: list[float] = []
    shared = work / "store"
    if warm:
        wall, fill = timed_pass(work, shared)
        checks.add(fill["checks"])
        setups.append(wall)

    def one_pass(traced: bool = False) -> tuple[float, dict]:
        cache_dir = shared if warm else Path(tempfile.mkdtemp(dir=work))
        try:
            return timed_pass(work, cache_dir, traced, trace_dir)
        finally:
            if not warm:
                shutil.rmtree(cache_dir)

    info: dict = {}
    if trace:
        _, plain = one_pass()
        _, with_trace = one_pass(traced=True)
        passes = [plain, with_trace]
        from layers import LayerProfile

        profile = LayerProfile()
        profile.merge(with_trace["profile"])
        metrics = per_layer(profile,
                            with_trace["pass_s"] / plain["pass_s"] - 1)
        info["traced_wall_s"] = profile.wall_s
    else:
        runs = []
        start = time.perf_counter()
        while (len(runs) < MIN_PASSES
               or time.perf_counter() - start < seconds):
            runs.append(one_pass())
        passes = [result for _, result in runs]
        if not warm:
            setups = [wall - result["pass_s"] for wall, result in runs]
        # The typical pass is each driver's median over the passes,
        # summed: a burst of host slowness that hits one driver in one
        # pass then moves nothing.
        typical = sum(statistics.median(p["drivers"][name] for p in passes)
                      for name in passes[0]["drivers"])
        metrics = end_to_end(setups, typical, len(passes),
                             max(p["rss_mib"] for p in passes))
        info["pass_s"] = [p["pass_s"] for p in passes]
    for result in passes:
        checks.add(result["checks"])
    info["model_error_pct"] = passes[-1]["model_error_pct"]
    info["failures"] = checks.failures
    return {"attempted": checks.attempted, "failed": checks.failed,
            "metrics": metrics, "info": info}


# --- design-sweep -------------------------------------------------------------


def frontier_digest(frontier) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in frontier.points:
        h.update(f"{p.index}|{p.label}|{p.time!r}|{p.energy!r}|{p.edp!r}\n"
                 .encode())
    return h.hexdigest()


def sweep_setup(seed: int, cache_dir: Path) -> tuple[float, dict]:
    """Build the seeded datasets and spaces, then fill the store with one
    rotation.  Returns (seconds, state)."""
    from dataclasses import replace

    from repro.arch.config import Workload
    from repro.experiments.common import CORE_ALGORITHM_FACTORIES
    from repro.graph.datasets import DATASET_ORDER, DATASETS
    from repro.perf.cache import RunCache, set_run_cache
    from repro.tune import search
    from repro.tune.space import BACKENDS, default_space

    start = time.perf_counter()
    set_run_cache(RunCache(directory=cache_dir))
    workloads = {}
    for key in DATASET_ORDER:
        spec = DATASETS[key]
        workloads[key] = Workload(replace(spec, seed=spec.seed + seed)
                                  .generate(),
                                  reported_vertices=spec.paper_vertices,
                                  reported_edges=spec.paper_edges)
    spaces = [default_space(b, structural=True) for b in BACKENDS]
    pairs = [(key, name, CORE_ALGORITHM_FACTORIES[name]())
             for key in DATASET_ORDER for name in SWEEP_ALGORITHMS]
    digests = {f"{key}/{name}": frontier_digest(
                   search(algorithm, workloads[key], spaces))
               for key, name, algorithm in pairs}
    state = {"workloads": workloads, "spaces": spaces, "pairs": pairs,
             "digests": digests}
    return time.perf_counter() - start, state


def sweep_rotation(state: dict, reference: dict[str, str]
                   ) -> tuple[list[float], int, int]:
    """One timed search per pair: (seconds each, configs priced, failed)."""
    from repro.tune import search

    spaces = state["spaces"]
    times, priced, failed = [], 0, 0
    for key, name, algorithm in state["pairs"]:
        start = time.perf_counter()
        frontier = search(algorithm, state["workloads"][key], spaces)
        times.append(time.perf_counter() - start)
        priced += frontier.evaluated
        failed += frontier_digest(frontier) != reference[f"{key}/{name}"]
    return times, priced, failed


def sweep_reference(seed: int, digests: dict[str, str]) -> tuple[dict, int]:
    """Digests every search must reproduce, and how many set-up digests
    already disagree with them."""
    if seed != 0:
        return digests, 0
    expected = json.loads(EXPECTED_SWEEP.read_text())["digests"]
    return expected, sum(digests[k] != expected[k] for k in expected)


def design_sweep(seed: int, seconds: float, trace: bool, work: Path,
                 trace_dir: str | None) -> dict:
    if trace:
        from layers import LayerProfile

        profile = LayerProfile(trace_dir)
        with profile.traced("bench.setup"):
            _, state = sweep_setup(seed, work / "store")
        reference, failed = sweep_reference(seed, state["digests"])
        plain, _, bad = sweep_rotation(state, reference)
        failed += bad
        with profile.traced("bench.op"):
            traced, _, bad = sweep_rotation(state, reference)
        failed += bad
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        return {"attempted": len(reference) + len(plain) + len(traced),
                "failed": failed, "metrics": per_layer(profile, overhead),
                "info": {"traced_wall_s": profile.wall_s}}

    setups = [run_worker(["setup", "design-sweep", "--seed", str(seed)],
                         child_env(work, work / f"setup-{i}"),
                         PASS_TIMEOUT_S)["setup_s"]
              for i in range(SETUPS - 1)]
    setup_s, state = sweep_setup(seed, work / "store")
    setups.append(setup_s)
    reference, failed = sweep_reference(seed, state["digests"])
    ops: list[float] = []
    priced = 0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        times, configs, bad = sweep_rotation(state, reference)
        ops += times
        priced += configs
        failed += bad
    return {"attempted": len(reference) + len(ops), "failed": failed,
            "metrics": end_to_end(setups, statistics.median(ops), len(ops),
                                  peak_rss_mib()),
            "info": tail_and_rate(ops, priced)}


def write_expected_sweep(work: Path) -> None:
    """Record the seed-0 frontier digests the design-sweep checks against."""
    _, state = sweep_setup(0, work / "store")
    EXPECTED_SWEEP.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED_SWEEP.write_text(json.dumps(
        {"seed": 0, "digests": state["digests"]}, indent=2) + "\n")


# --- stream-churn -------------------------------------------------------------


def stream_setup(seed: int) -> tuple[float, dict]:
    """Generate the seeded base graph and update log.  Returns (seconds,
    state)."""
    from repro.dynamic.stream import generate_update_log
    from repro.graph.generators import rmat
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    start = time.perf_counter()
    with tracer.span("graph.build"):
        base = rmat(STREAM_VERTICES, STREAM_EDGES, seed=seed, name="churn")
    with tracer.span("dynamic.log"):
        log = generate_update_log(base, STREAM_UPDATES, seed=seed,
                                  delete_fraction=STREAM_DELETE_FRACTION,
                                  name="churn")
    events = log.to_arrays()
    return time.perf_counter() - start, {"events": events,
                                         "vertices": log.num_vertices}


def stream_replay(state: dict, check: bool) -> tuple[list[float], int]:
    """Replay the whole log from an empty engine, one timed operation per
    batch.  With ``check``, the answers at a few batches are compared
    with from-scratch runs on the engine's snapshot, untimed.  Returns
    (seconds per operation, failed checks)."""
    import numpy as np

    from repro.algorithms import BFS, make_algorithm
    from repro.algorithms.runner import run_vectorized
    from repro.dynamic.stream import StreamEngine

    events = state["events"]
    batches = math.ceil(len(events) / STREAM_BATCH)
    checkpoints = {batches * (i + 1) // STREAM_CHECKPOINTS - 1
                   for i in range(STREAM_CHECKPOINTS)} if check else set()
    engine = StreamEngine(state["vertices"], algorithms=("cc", "bfs"),
                          k=STREAM_BATCH, name="churn")
    times, failed = [], 0
    for i in range(batches):
        batch = events[i * STREAM_BATCH:(i + 1) * STREAM_BATCH]
        start = time.perf_counter()
        engine.ingest(batch)
        cc = engine.query("cc")
        bfs = engine.query("bfs")
        times.append(time.perf_counter() - start)
        if i in checkpoints:
            snapshot = engine.snapshot()
            expected_cc = run_vectorized(make_algorithm("cc"), snapshot)
            expected_bfs = run_vectorized(BFS(root=0), snapshot)
            failed += not (np.array_equal(cc, expected_cc.values)
                           and np.array_equal(bfs, expected_bfs.values))
    return times, failed


def stream_churn(seed: int, seconds: float, trace: bool, work: Path,
                 trace_dir: str | None) -> dict:
    from repro.perf.cache import RunCache, set_run_cache

    set_run_cache(RunCache(directory=work / "store"))
    if trace:
        from layers import LayerProfile

        profile = LayerProfile(trace_dir)
        with profile.traced("bench.setup"):
            _, state = stream_setup(seed)
        plain, failed = stream_replay(state, check=True)
        with profile.traced("bench.op"):
            traced, _ = stream_replay(state, check=False)
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        return {"attempted": len(plain) + len(traced), "failed": failed,
                "metrics": per_layer(profile, overhead),
                "info": {"traced_wall_s": profile.wall_s}}

    setups = [run_worker(["setup", "stream-churn", "--seed", str(seed)],
                         child_env(work), PASS_TIMEOUT_S)["setup_s"]
              for _ in range(SETUPS - 1)]
    setup_s, state = stream_setup(seed)
    setups.append(setup_s)
    ops: list[float] = []
    failed = replays = 0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        times, bad = stream_replay(state, check=not ops)
        ops += times
        failed += bad
        replays += 1
    return {"attempted": len(ops), "failed": failed,
            "metrics": end_to_end(setups, statistics.median(ops), len(ops),
                                  peak_rss_mib()),
            "info": tail_and_rate(ops, len(state["events"]) * replays)}


# --- worker entry point ------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, trace_dir: str | None) -> dict:
    if name in ("paper-cold", "paper-warm"):
        result = paper(name == "paper-warm", seconds, trace, work, trace_dir)
    elif name == "design-sweep":
        result = design_sweep(seed, seconds, trace, work, trace_dir)
    else:
        result = stream_churn(seed, seconds, trace, work, trace_dir)
    result["correct"] = result["failed"] == 0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure one workload in this process")
    run.add_argument("workload", choices=WORKLOADS)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--work", type=Path, required=True)
    run.add_argument("--trace-out")
    one = sub.add_parser("pass", help="one paper pass in this process")
    one.add_argument("--trace", type=int, choices=(0, 1), required=True)
    one.add_argument("--trace-out")
    setup = sub.add_parser("setup", help="time one set-up")
    setup.add_argument("workload", choices=("design-sweep", "stream-churn"))
    setup.add_argument("--seed", type=int, required=True)
    sub.add_parser("expected", help="rewrite "
                   f"{EXPECTED_SWEEP.relative_to(ROOT)}")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.command == "pass":
        result = paper_pass(bool(args.trace), args.trace_out)
    elif args.command == "setup":
        if args.workload == "design-sweep":
            seconds, _ = sweep_setup(args.seed,
                                     Path(os.environ["REPRO_CACHE_DIR"]))
        else:
            seconds, _ = stream_setup(args.seed)
        result = {"setup_s": seconds}
    elif args.command == "expected":
        work = make_work_dir()
        try:
            confine_to(work)
            write_expected_sweep(work)
        finally:
            shutil.rmtree(work)
        result = {"wrote": str(EXPECTED_SWEEP)}
    else:
        confine_to(args.work)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.work, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
