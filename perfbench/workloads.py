"""The benchmark's workloads: their inputs, their tasks and their output checks.

A workload process runs the tasks of a workload round after round, one
at a time, each finishing before the next starts (a closed loop with one
client). A task is one call into latentgraph and holds one or more jobs:
a fold, a training run or a recovery cell. Every job is checked: its
losses must be finite, its loss fingerprint (the loss at fixed steps)
must match ``reference.json``, and its accuracy must not fall below the
workload's recorded floor, where it has one.

``--seed`` selects one of ``VARIANTS`` input sets, so every run's
fingerprint can be checked against a recorded value.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from latentgraph import cli, data_io, synthetic, training

REFERENCE_PATH = Path(__file__).with_name("reference.json")
VARIANTS = 10
FINGERPRINT_STEPS = (0, 1, 5, 20, 100)
# Far above the last-bit changes of a different BLAS thread split or a
# reassociated op (at most 2.2e-9 relative by step 100, see README.md),
# tight enough that a changed model or optimiser shows.
FINGERPRINT_RTOL = 1e-6

# The acceptance configuration of the classification benchmark.
MODEL = dict(embed_hidden=(), embed_dim=16, gc_widths=(16, 8))
FOLDS = 10
CV_EPOCHS = 100
TRAIN_NODES = 2000
TRAIN_EPOCHS = 10
RECOVER_NODES = (5, 10, 20)
RECOVER_DIMS = (2, 16)
RECOVER_EDGE_PROB = 0.3


class SetupDone(Exception):
    """Raised at the first optimisation step when only set-up is timed."""


@dataclass
class TaskResult:
    attempted: int
    failed: int = 0
    steps: int = 0          # optimisation steps of the jobs that passed
    accuracy: float | None = None
    fingerprints: dict = field(default_factory=dict)   # job key -> losses
    reasons: list = field(default_factory=list)


def fingerprint(losses) -> list[float]:
    return [float(losses[s]) for s in FINGERPRINT_STEPS if s < len(losses)]


@contextlib.contextmanager
def patched(module, attr: str, value):
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Workload:
    """Inputs made from a variant, plus the checks every job must pass.

    ``expected`` maps job keys to recorded fingerprints; ``None`` skips
    the fingerprint check (used when recording them).
    """

    name = ""
    n_nodes = 0            # nodes of the largest graph a task builds
    jobs_per_task = 1
    has_floor = True       # whether accuracy is checked against a floor

    def __init__(self, variant: int, work_dir: Path, expected: dict | None,
                 floor: float | None):
        self.variant = variant
        self.work_dir = Path(work_dir)
        self.expected = expected
        self.floor = floor

    def check(self, key: str, losses, accuracy: float | None = None) -> str | None:
        if not all(math.isfinite(v) for v in losses):
            return f"{key}: non-finite loss"
        if self.expected is not None:
            got, want = fingerprint(losses), self.expected.get(key)
            if want is None or len(got) != len(want) or not all(
                    math.isclose(g, w, rel_tol=FINGERPRINT_RTOL) for g, w in zip(got, want)):
                return f"{key}: loss fingerprint {got} does not match recorded {want}"
        if accuracy is not None and self.floor is not None and accuracy < self.floor:
            return f"{key}: accuracy {accuracy:.4f} below floor {self.floor}"
        return None

    def job_result(self, key: str, losses, accuracy: float, steps: int) -> TaskResult:
        """The checked result of a task that is one job of ``steps`` steps."""
        reason = self.check(key, losses, accuracy)
        return TaskResult(1, failed=int(reason is not None), steps=0 if reason else steps,
                          accuracy=accuracy, fingerprints={key: fingerprint(losses)},
                          reasons=[reason] if reason else [])

    def prepare(self) -> None:
        raise NotImplementedError

    def tasks(self) -> list:
        raise NotImplementedError

    def memory_task(self):
        """The task the tracemalloc pass runs: the one with the largest graph."""
        return self.tasks()[-1]

    def run_task(self, task, mark) -> TaskResult:
        """Run one task; ``mark()`` is called at its first optimisation step."""
        raise NotImplementedError


def _first_heldout(train_mask, n: int) -> int:
    return int(np.setdiff1d(np.arange(n), train_mask)[0])


def _capturing(train, capture_dir: Path):
    """``training.train`` that also appends each fold's losses to a
    per-process file, so losses from fold worker processes come back."""

    @functools.wraps(train)
    def wrapper(dataset, cfg, train_mask=None, val_mask=None, adjacency=None):
        params, history = train(dataset, cfg, train_mask, val_mask, adjacency)
        record = {"key": str(_first_heldout(train_mask, len(dataset.y))),
                  "losses": [r.loss for r in history]}
        with open(capture_dir / f"{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        return params, history
    return wrapper


def _marking(fn, mark):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        mark()
        return fn(*args, **kwargs)
    return wrapper


class CvN300(Workload):
    """Stratified 10-fold CV of the acceptance benchmark through the CLI,
    reading the dataset from CSV; folds fan out over LATENTGRAPH_WORKERS."""

    name = "cv_n300"
    n_nodes = 300
    jobs_per_task = FOLDS

    def prepare(self) -> None:
        dataset = synthetic.make_classification_dataset(seed=self.variant)
        csv_path = self.work_dir / "cv_n300.csv"
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "dx", *dataset.feature_names])
            for node_id, label, row in zip(dataset.node_ids, dataset.y, dataset.X):
                writer.writerow([node_id, dataset.class_names[label],
                                 *(format(v, ".17g") for v in row)])
        self.out_dir = self.work_dir / "cv_out"
        self.capture_dir = self.work_dir / "fold_losses"
        self.capture_dir.mkdir(exist_ok=True)
        self.argv = ["cross-validate", "--data", str(csv_path), "--label-col", "dx",
                     "--folds", str(FOLDS), "--epochs", str(CV_EPOCHS),
                     "--embed-hidden", "", "--embed-dim", str(MODEL["embed_dim"]),
                     "--gc-widths", ",".join(map(str, MODEL["gc_widths"])),
                     "--seed", str(self.variant), "--out-dir", str(self.out_dir)]

    def tasks(self) -> list:
        return ["cv"]

    def run_task(self, task, mark) -> TaskResult:
        for path in self.capture_dir.glob("*.jsonl"):
            path.unlink()
        (self.out_dir / "metrics.json").unlink(missing_ok=True)
        with patched(training, "cross_validate", _marking(training.cross_validate, mark)), \
                patched(training, "train", _capturing(training.train, self.capture_dir)):
            code = cli.run(self.argv)
        if code != 0:
            return TaskResult(FOLDS, FOLDS, reasons=[f"cross-validate exited {code}"])
        try:
            metrics = json.loads((self.out_dir / "metrics.json").read_text())
            accuracy = float(metrics["model"]["accuracy_mean"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return TaskResult(FOLDS, FOLDS, reasons=[f"metrics.json unreadable: {exc!r}"])
        records = [json.loads(line) for path in sorted(self.capture_dir.glob("*.jsonl"))
                   for line in path.read_text().splitlines()]
        result = TaskResult(FOLDS, accuracy=accuracy)
        for record in records:
            result.fingerprints[record["key"]] = fingerprint(record["losses"])
            reason = self.check(record["key"], record["losses"])
            if reason:
                result.reasons.append(reason)
        failed = len(result.reasons) + max(0, FOLDS - len(records))
        if len(records) != FOLDS:
            result.reasons.append(f"{len(records)} fold loss records for {FOLDS} folds")
        if self.floor is not None and accuracy < self.floor:
            result.reasons.append(f"CV accuracy {accuracy:.4f} below floor {self.floor}")
            failed = FOLDS
        result.failed = min(FOLDS, failed)
        result.steps = (FOLDS - result.failed) * CV_EPOCHS
        return result


class TrainN2000(Workload):
    """One transductive fold at N=2000, single process: the dense N x N
    chain dominates every epoch."""

    name = "train_n2000"
    n_nodes = TRAIN_NODES
    # Ten epochs leave this model near chance, so a floor could not fail;
    # the loss fingerprint alone checks this workload.
    has_floor = False

    def prepare(self) -> None:
        self.dataset = synthetic.make_classification_dataset(
            n_nodes=TRAIN_NODES, seed=self.variant)
        self.dataset.X = data_io.standardize(self.dataset.X)  # as the CLI does
        split = training.stratified_kfold(self.dataset.y, FOLDS, self.variant)
        self.train_idx, self.test_idx = split.train_indices[0], split.test_indices[0]
        self.cfg = training.TrainConfig(epochs=TRAIN_EPOCHS, seed=self.variant, **MODEL)

    def tasks(self) -> list:
        return ["fold0"]

    def run_task(self, task, mark) -> TaskResult:
        mark()
        params, history = training.train(self.dataset, self.cfg, train_mask=self.train_idx)
        accuracy = training.evaluate(params, self.dataset, self.test_idx).accuracy
        return self.job_result(task, [r.loss for r in history], accuracy, TRAIN_EPOCHS)


class RecoverSmall(Workload):
    """Serial graph recovery over a grid of small cells: per-op dispatch,
    tape building and Adam dominate, not N x N flops."""

    name = "recover_small"
    n_nodes = max(RECOVER_NODES)

    def prepare(self) -> None:
        self.cells = []
        for n in RECOVER_NODES:
            for dim in RECOVER_DIMS:
                graph = synthetic.generate_graph(n, RECOVER_EDGE_PROB, self.variant)
                targets = synthetic.neighbor_sum_targets(graph, np.eye(n))
                cfg = synthetic.RecoveryConfig(embedding_dim=dim, seed=self.variant)
                self.cells.append((f"n{n}-d{dim}-s{self.variant}", targets, cfg))

    def tasks(self) -> list:
        return self.cells

    def run_task(self, task, mark) -> TaskResult:
        key, targets, cfg = task
        mark()
        result = synthetic.recover_graph(targets, cfg)
        return self.job_result(key, result.loss_history, result.agreement, cfg.iterations)


WORKLOADS = {w.name: w for w in (CvN300, TrainN2000, RecoverSmall)}


def load(name: str, variant: int, work_dir: Path, reference: dict | None) -> Workload:
    """The workload ``name`` on input set ``variant``; ``reference`` is the
    parsed reference.json, or None to skip fingerprint and floor checks."""
    if reference is None:
        return WORKLOADS[name](variant, work_dir, None, None)
    expected = reference["fingerprints"].get(name, {}).get(str(variant), {})
    return WORKLOADS[name](variant, work_dir, expected, reference["accuracy_floor"][name])
