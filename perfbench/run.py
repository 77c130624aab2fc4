"""Benchmark of latentgraph's training workloads (see README.md).

    python3 perfbench/run.py --workload cv_n300 --seed 3 --seconds 34 --trace 0

Runs from the root of a checkout, with the package taken from ``src/``.
Every workload process gets one BLAS/OpenMP thread and an explicit
LATENTGRAPH_WORKERS. With ``--trace 0`` the command times the set-up
several times before and after it measures for ``--seconds`` with
tracing off; with
``--trace 1`` it measures untraced and traced for half of ``--seconds``
each and reports the per-layer split. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("cv_n300", "train_n2000", "recover_small")
# Fold worker processes per workload; the others run in one process.
FANOUT = {"cv_n300": 2}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 8           # set-up-only processes, besides the measured one
DEADLINE_S = 170.0         # per workload, for every process it starts


class BenchError(Exception):
    pass


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def workload_env(workload: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    cpus = len(os.sched_getaffinity(0))
    env["LATENTGRAPH_WORKERS"] = str(min(FANOUT.get(workload, 1), cpus))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Starts the worker processes of one workload, one at a time."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = workload_env(workload)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def __call__(self, mode: str, seconds: float = 0.0) -> tuple[dict, float]:
        """Run one worker; returns its result and the monotonic time it was
        started at."""
        self.count += 1
        stem = self.work_dir / f"{self.count:02d}-{mode}"
        result_path = stem.with_suffix(".json")
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode, "--seconds", str(seconds),
                "--work-dir", str(self.work_dir), "--result", str(result_path)]
        with open(stem.with_suffix(".log"), "w") as log:
            started = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchError(f"{self.workload} {mode} run passed the deadline") from None
        if code != 0:
            tail = stem.with_suffix(".log").read_text().strip().splitlines()[-15:]
            raise BenchError(f"{self.workload} {mode} run exited {code}:\n" + "\n".join(tail))
        return json.loads(result_path.read_text()), started


def metric_units() -> dict:
    """The unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 units: dict) -> dict:
    work_dir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        run = Runner(workload, seed, work_dir)
        if not traced:
            # Probes before and after the measured run sample the host's
            # speed over the whole run, not over its first seconds. The
            # minimum is no steadier than the median: the shared host also
            # runs faster in bursts, and the minimum follows them.
            setups = [probe["first_step"] - started
                      for probe, started in (run("setup") for _ in range(SETUP_PROBES // 2))]
            main, started = run("measure", seconds)
            setups.append(main["first_step"] - started)
            setups += [probe["first_step"] - started
                       for probe, started in (run("setup") for _ in range(SETUP_PROBES // 2))]
            metrics = {"setup_s": statistics.median(setups), "steps_per_s": main["steps_per_s"],
                       "peak_rss_mb": main["peak_rss_mb"]}
            runs = [main]
        else:
            plain, _ = run("measure", seconds / 2)
            main, _ = run("trace", seconds / 2)
            metrics = dict(main["layers"])
            metrics["bench.trace_overhead"] = main["steps_per_s"] / plain["steps_per_s"]
            runs = [plain, main]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"== {workload}  seed {seed}  trace {int(traced)}")
    print("env " + json.dumps({**runs[0]["env"], "git_commit": git_commit()}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload}  {name:45s} {value:14.6g} {units[name]}")
    if not traced:
        print(f"{workload}  set-up samples (s): " + " ".join(f"{s:.4f}" for s in setups))
    for r in runs:
        print(f"{workload}  steps/s per round: " + " ".join(f"{x:.6g}" for x in r["round_rates"]))
    print(f"{workload}  {'accuracy':45s} {main['accuracy']:14.6g} ratio  (checked, not bounded)")
    print(f"{workload}  {'failed_fraction':45s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    if traced:
        steps_s, accounted_s = main["step_accounting_s"]
        print(f"{workload}  counted steps {steps_s:.6f} s; self times + other {accounted_s:.6f} s")
    for reason in sum((r["reasons"] for r in runs), []):
        print(f"{workload}  FAILED CHECK {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latentgraph" / "__init__.py").is_file():
        print(f"perfbench: no latentgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units()
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), units)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        metrics = {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()}
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"],
                      "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
