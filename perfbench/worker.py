"""One workload process of the benchmark.

``run.py`` starts this script once per set-up probe, measured run and
traced run, with the thread and worker environment already pinned, and
reads the JSON it writes to ``--result``:

- ``setup``: build the inputs and stop at the first optimisation step.
- ``measure``: run whole rounds of tasks for about ``--seconds`` with
  tracing off.
- ``trace``: the same with every layer wrapped, then one more task with
  tracemalloc on for the per-step allocation peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("THREADS")},
            "latentgraph_workers": os.environ.get("LATENTGRAPH_WORKERS")}


def run_task(workload: workloads.Workload, task, mark) -> workloads.TaskResult:
    """Run one task; one that raises counts all its jobs as failed."""
    try:
        return workload.run_task(task, mark)
    except workloads.SetupDone:
        raise
    except Exception:
        jobs = workload.jobs_per_task
        return workloads.TaskResult(jobs, jobs, reasons=[
            traceback.format_exc(limit=3).strip().splitlines()[-1]])


def run_loop(workload: workloads.Workload, seconds: float) -> dict:
    """Run whole rounds of tasks from the first optimisation step, and
    stop at the round end nearest to ``seconds`` after it (at least one
    round).

    Each task is timed from its first optimisation step to its end.
    ``steps_per_s`` is the steps of the jobs that passed their checks,
    divided by the summed time of all tasks of the run. The speed of a
    shared host switches between a fast and a slow state within a
    second, and the time-weighted mean over the whole run averages that.
    """
    attempted = failed = 0
    accuracies, reasons, round_rates = [], [], []
    total_steps = total_time = 0.0
    first_step = None
    while True:
        round_steps = round_time = 0.0
        for task in workload.tasks():
            start: dict = {}

            def mark() -> None:
                if not start:
                    start["monotonic"] = time.monotonic()
                    start["t"] = time.perf_counter()

            result = run_task(workload, task, mark)
            mark()  # a task that failed before its first step
            end = time.perf_counter()
            round_time += end - start["t"]
            round_steps += result.steps
            attempted += result.attempted
            failed += result.failed
            reasons += result.reasons
            if first_step is None:
                first_step = start
            if len(round_rates) == 0 and result.accuracy is not None:
                accuracies.append(result.accuracy)
        round_rates.append(round_steps / round_time)
        total_steps += round_steps
        total_time += round_time
        if end - first_step["t"] + round_time / 2 >= seconds:
            return {"first_step": first_step["monotonic"], "round_rates": round_rates,
                    "steps_per_s": total_steps / total_time, "attempted": attempted,
                    "failed": failed,
                    "accuracy": statistics.fmean(accuracies) if accuracies else 0.0,
                    "reasons": reasons[:20]}


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its reaped children (fold
    workers), in MiB; Linux reports ru_maxrss in KiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def trace(workload: workloads.Workload, seconds: float, work_dir: Path) -> dict:
    time_dir, memory_dir = work_dir / "spans-time", work_dir / "spans-memory"
    time_dir.mkdir()
    memory_dir.mkdir()
    with tracer.Tracer(time_dir) as timing:
        out = run_loop(workload, seconds)
    spans = timing.snapshots()
    with tracer.Tracer(memory_dir, memory=True) as memory:
        result = run_task(workload, workload.memory_task(), lambda: None)
    out["attempted"] += result.attempted
    out["failed"] += result.failed
    out["reasons"] += result.reasons
    out["layers"] = tracer.per_layer_metrics(
        spans, memory.snapshots(),
        workers=int(os.environ["LATENTGRAPH_WORKERS"]),
        memory_nodes=workload.n_nodes,
        iterations_per_cell=workloads.synthetic.RecoveryConfig().iterations)
    out["step_accounting_s"] = tracer.step_accounting(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    work_dir = Path(args.work_dir)
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    variant = args.seed % workloads.VARIANTS
    workload = workloads.load(args.workload, variant, work_dir, reference)

    if args.mode == "setup":
        def stop() -> None:
            raise workloads.SetupDone(time.monotonic())
        workload.prepare()
        try:
            workload.run_task(workload.tasks()[0], stop)
        except workloads.SetupDone as done:
            out = {"first_step": done.args[0]}
        else:
            raise RuntimeError("task finished without an optimisation step")
    elif args.mode == "measure":
        workload.prepare()
        out = run_loop(workload, args.seconds)
        out["peak_rss_mb"] = peak_rss_mb()
        out["env"] = {**environment(), "input_variant": variant}
    else:
        workload.prepare()
        out = trace(workload, args.seconds, work_dir)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
