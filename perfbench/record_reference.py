"""Record the loss fingerprints and accuracy floors in reference.json.

    python3 perfbench/record_reference.py [workload ...]
    python3 perfbench/record_reference.py --compare --blas-threads 2 [workload ...]

Runs one round of every task of each workload on every input variant,
with the same pinned environment as the benchmark, and writes what the
output checks compare against. Re-record only when the model, optimiser
or input generators change on purpose; a reassociated or fused op must
still pass against the old record.

``--compare`` writes nothing: it prints, per workload, the largest
relative deviation of the fingerprints from reference.json and whether
it is within the checks' tolerance. With ``--blas-threads 2`` this shows
how far a last-bit change of the BLAS kernels moves the fingerprints.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

import run

ROOT = run.ROOT
# Absolute margin below the lowest recorded accuracy of a workload.
FLOOR_MARGIN = 0.1


def record(workloads, name: str, work_dir: Path) -> tuple[dict, float | None]:
    fingerprints, lowest = {}, math.inf
    for variant in range(workloads.VARIANTS):
        workload = workloads.load(name, variant, work_dir, None)
        workload.prepare()
        fingerprints[str(variant)] = {}
        accuracies = []
        for task in workload.tasks():
            result = workload.run_task(task, lambda: None)
            if result.failed:
                raise SystemExit(f"{name} variant {variant}: {result.reasons}")
            fingerprints[str(variant)].update(result.fingerprints)
            accuracies.append(result.accuracy)
        lowest = min(lowest, *accuracies)
        print(f"{name} variant {variant}: accuracy mean {sum(accuracies) / len(accuracies):.4f}"
              f" min {min(accuracies):.4f}", flush=True)
    floor = math.floor(100 * (lowest - FLOOR_MARGIN)) / 100
    return fingerprints, floor if workloads.WORKLOADS[name].has_floor else None


def deviation(got: dict, want: dict) -> float:
    """Largest relative difference between two fingerprint records."""
    worst = 0.0
    for variant, jobs in want.items():
        for key, losses in jobs.items():
            new = got[variant][key]
            if len(new) != len(losses):
                return math.inf
            worst = max([worst] + [abs(g - w) / abs(w) for g, w in zip(new, losses)])
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="workload")
    parser.add_argument("--compare", action="store_true",
                        help="compare with reference.json instead of writing it")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS/OpenMP threads (the benchmark pins 1)")
    args = parser.parse_args(argv)
    os.environ.update({k: v for k, v in run.workload_env("cv_n300").items()
                       if k in run.THREAD_VARS or k == "LATENTGRAPH_WORKERS"})
    for var in run.THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # after the thread pinning, which numpy reads at import

    names = args.names or list(workloads.WORKLOADS)
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else \
        {"fingerprints": {}, "accuracy_floor": {}}
    work_dir = run.WORK_ROOT / f"record-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            fingerprints, floor = record(workloads, name, work_dir)
            if args.compare:
                worst = deviation(fingerprints, reference["fingerprints"][name])
                verdict = "within" if worst <= workloads.FINGERPRINT_RTOL else "OUTSIDE"
                print(f"{name}: {args.blas_threads} BLAS threads, largest relative deviation "
                      f"{worst:.3g}, {verdict} rtol {workloads.FINGERPRINT_RTOL:g}", flush=True)
                continue
            reference["fingerprints"][name] = fingerprints
            reference["accuracy_floor"][name] = floor
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
