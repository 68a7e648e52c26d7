"""Benchmark of reachkit: one seeded workload per process, closed loop, one
client, BLAS pinned to one thread.

    python3 perfbench/run.py --workload select --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` runs every task once untraced and once
traced and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in its own child process and prints
each report.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; child processes inherit the setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("REACHKIT_MAX_EXACT_N", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (imports reachkit from src/)
from tracer import Tracer, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("select", "synth", "analyze", "cli")

# Cold starts timed for setup_s; one start varies by about 25%, so the
# median is reported.
SETUP_REPEATS = 3

# Passes every timed run makes at least; a task's latency is the median of
# its runs.
MIN_PASSES = 2

# Host-speed correction.  The cores of this kind of host are shared, and its
# speed swings by up to 1.7x over seconds to minutes, for the program and
# for any other code alike.  Every timed call is therefore paired with the
# reference kernel below, run right before it, and scaled by REF_S / (the
# reference's duration): times read as on the host in its fast state, where
# the kernel takes REF_S.  Raw times are printed alongside.
REF_S = 1e-3
_REF_MATRIX = np.random.default_rng(0).standard_normal((12, 6))


def reference(repeats: int = 100) -> float:
    """Seconds for ``repeats`` singular-value decompositions of a fixed
    12x6 matrix, in units of REF_S work (100 decompositions)."""
    start = perf_counter()
    for _ in range(repeats):
        np.linalg.svd(_REF_MATRIX, compute_uv=False)
    return (perf_counter() - start) * 100 / repeats


class Outcome(NamedTuple):
    label: str
    latency: float  # raw wall time of the call
    scaled: float  # latency * REF_S / reference duration right before it
    error: str | None
    known_defect: str | None


def run_task(task, tracer: Tracer | None = None) -> Outcome:
    """Run one task, traced when a tracer is given, and judge its output."""
    exc = out = None
    ref = reference()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        out = task.call()
    except Exception as caught:  # judged below against task.raises
        exc = caught
    latency = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        if isinstance(out, workloads.CliOutput):
            tracer.counts["cli.stdout_bytes"] += len(out.stdout.encode())
    error = known = None
    if task.raises is not None:
        if not isinstance(exc, task.raises):
            error = f"expected {task.raises.__name__}, got {exc or out!r}"
    elif exc is not None:
        error = f"raised {type(exc).__name__}: {exc}"
    else:
        error = task.check(out)
        if error is not None and task.known_defect is not None:
            known = task.known_defect(out)
    return Outcome(task.label, latency, latency * REF_S / ref, error, known)


def timed_passes(tasks, seconds: float) -> list[list[Outcome]]:
    """Whole passes over the task list, at least ``MIN_PASSES``, and more
    while the next one fits in ``seconds``."""
    deadline = perf_counter() + seconds
    passes: list[list[Outcome]] = []
    while True:
        begin = perf_counter()
        passes.append([run_task(task) for task in tasks])
        now = perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - begin) > deadline:
            return passes


def per_task(passes: list[list[Outcome]]) -> list[Outcome]:
    """Per task: median times over its runs, failed if any run failed."""
    merged = []
    for runs in zip(*passes):
        judged = next((o for o in runs if o.error is not None), runs[0])
        merged.append(judged._replace(
            latency=statistics.median(o.latency for o in runs),
            scaled=statistics.median(o.scaled for o in runs),
        ))
    return merged


def tasks_per_s(outcomes: list[Outcome], scaled: bool = True) -> float:
    verified = sum(o.error is None for o in outcomes)
    return verified / sum(o.scaled if scaled else o.latency for o in outcomes)


def probe_setup(workdir: Path) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh ``python -m reachkit.cli check-feasible --json``
    processes on a 5-node star file."""
    n = 5
    A = [[0.0] * n for _ in range(n)]
    A[0][1:] = [1.0] * (n - 1)
    star = {
        "n": n, "m": n, "A": A, "B": "identity", "t0": 0.0, "t1": 1.0,
        "x0": [0.0] * n, "x1": [1.0] + [0.0] * (n - 1),
    }
    path = workdir / "setup_star5.json"
    path.write_text(json.dumps(star))
    cmd = [sys.executable, "-m", "reachkit.cli", "check-feasible", str(path),
           "--actuate", "1", "--json"]
    env = dict(os.environ, PYTHONPATH="src")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference(1000)
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        raw.append(perf_counter() - start)
        if proc.returncode != 0 or json.loads(proc.stdout).get("feasible") is not True:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr}")
        speed = (before + reference(1000)) / (2 * REF_S)
        scaled.append(raw[-1] / speed)
    return raw, scaled


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report_failures(outcomes: list[Outcome]) -> None:
    seen = Counter((o.label, o.error, o.known_defect) for o in outcomes if o.error)
    for (label, error, known), count in seen.items():
        note = f"  [known defect: {known}]" if known else ""
        print(f"  FAIL x{count} {label}: {error}{note}")


def measure(args, tasks, workdir: Path) -> tuple[dict[str, float], list[Outcome]]:
    setup_raw, setup = probe_setup(workdir)
    passes = timed_passes(tasks, args.seconds)
    tasks_med = per_task(passes)
    runs = [o for p in passes for o in p]
    lat = [o.scaled for o in tasks_med]
    raw = [o.latency for o in tasks_med]
    metrics = {
        "tasks_per_s": tasks_per_s(tasks_med),
        "task_p50_s": statistics.median(lat),
        "task_p90_s": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    unscaled = {
        "tasks_per_s": tasks_per_s(tasks_med, scaled=False),
        "task_p50_s": statistics.median(raw),
        "task_p90_s": statistics.quantiles(raw, n=10)[8],
        "setup_s": statistics.median(setup_raw),
    }
    n = len(tasks_med)
    verified = sum(o.error is None for o in tasks_med)
    failed = sum(o.error is not None for o in runs)
    known = sum(o.known_defect is not None for o in runs)
    print(f"{args.workload} seed={args.seed}: {n} tasks x {len(passes)} passes, "
          f"{sum(o.latency for o in runs):.2f} s in the program "
          "(closed loop, 1 client, untraced; per-task median over passes)")
    samples = {
        "tasks_per_s": f"n={verified} verified tasks",
        "task_p50_s": f"n={n} tasks",
        "task_p90_s": f"n={n} tasks",
        "peak_rss_mb": "n=1 process (ru_maxrss)",
        "setup_s": f"n={len(setup)} cold starts, median",
    }
    units = declared_metrics("end_to_end")
    for name, value in metrics.items():
        note = f"  (raw {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:<12} {value:12.6g} {units[name]:<4} {samples[name]}{note}")
    print(f"  {'error_rate':<12} {failed / len(runs):12.6g} {'1':<4} n={len(runs)} task runs "
          f"({failed} failed, {known} of them known defects)")
    report_failures(runs)
    return metrics, runs


def traced(args, tasks) -> tuple[dict[str, float], list[Outcome]]:
    """Each task untraced, then traced right after, so both runs of a task
    see the same host load."""
    tracer = Tracer()
    plain, spans = [], []
    for i, task in enumerate(tasks):
        plain.append(run_task(task))
        tracer.task = i
        spans.append(run_task(task, tracer))
    layers = layer_metrics(tracer)
    base_tps, traced_tps = tasks_per_s(plain), tasks_per_s(spans)
    layers["trace.untraced_tasks_per_s"] = (base_tps, "1/s", "one untraced run of each task")
    layers["trace.traced_tasks_per_s"] = (traced_tps, "1/s", "one traced run of each task")
    layers["trace.overhead_ratio"] = (
        base_tps / traced_tps, "ratio", "untraced tasks_per_s / traced tasks_per_s")
    layers["trace.spans"] = (len(tracer.span_start), "count", "")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.write(span_file, provenance(args))
    print(f"{args.workload} seed={args.seed}: {len(tasks)} tasks run untraced, then traced, "
          f"{len(tracer.span_start)} spans written to {span_file.relative_to(ROOT)}")
    for name, (value, unit, base) in layers.items():
        print(f"  {name:<48} {value:14.6g} {unit:<5} {base}")
    report_failures(plain + spans)
    return {name: v[0] for name, v in layers.items()}, plain + spans


def run_workload(args) -> int:
    # One core for the program, the reference kernel and the cold starts, so
    # the kernel measures the speed of the core the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, outcomes = traced(args, tasks)
            units = declared_metrics("per_layer")
        else:
            metrics, outcomes = measure(args, tasks, workdir)
            units = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    failed = sum(o.error is not None for o in outcomes)
    unexplained = sum(o.error is not None and o.known_defect is None for o in outcomes)
    print("provenance", json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": unexplained == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so ru_maxrss belongs to it."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
