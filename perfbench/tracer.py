"""Per-layer tracing of latentgraph from outside the package.

``Tracer.install()`` replaces every public function defined in the six
layer modules (``autodiff``, ``graph_learning``, ``gcn``, ``training``,
``synthetic``, ``data_io``) with a wrapper that records a span, and
rebinds every alias of that function in the other ``latentgraph``
modules (``from .training import adam_step`` and the package
re-exports). For autodiff ops the wrapper also replaces the ``_adjoint``
of the returned tensor, so backward time shows per op as
``autodiff.<op>.bwd``. ``uninstall()`` restores every patched attribute.
No source file of the package is changed.

Spans are aggregated as they close (per name: calls, inclusive and self
seconds), so a long run stays small in memory. Time is cut into
optimisation steps: a step ends when ``training.adam_step`` returns
directly inside a loop owner (``training.train`` or
``synthetic.recover_graph``), and step k runs from the end of step k-1 to
the end of step k. The first step of each loop (it starts with model
initialisation) and whatever follows the last ``adam_step`` are not
counted. Within counted steps the self times of all spans, plus the part
of the step that no direct child of the loop owner covers (``other``),
add up to the step time.

Fork children (cross-validation fold workers) reset the state they
inherit and rewrite ``<span_dir>/trace-<pid>-<ns>.json`` whenever one of
their top-level spans closes, so the parent can merge them after the
pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

LAYERS = ("autodiff", "graph_learning", "gcn", "training", "synthetic", "data_io")

# Leaf constructors that run inside every op; a span around them would
# cost more than the work it measures.
UNWRAPPED = frozenset({"autodiff.as_tensor", "autodiff.parameter"})

LOOP_OWNERS = frozenset({"training.train", "synthetic.recover_graph"})
STEP_END = "training.adam_step"

# Spans kept one by one, for per-call and per-fold figures.
EVENT_NAMES = frozenset({
    "training.train", "training.evaluate", "training.cross_validate",
    "synthetic.recover_graph", "data_io.load_csv", "data_io.standardize"})

# Ops reported as autodiff.<op>.fwd_ms / .bwd_ms.
OPS = ("pairwise_euclidean", "sigmoid", "row_normalize", "mul", "subtract",
       "matmul", "add", "relu", "softplus", "tanh", "scalar_mul", "sum_all",
       "row_softmax_cross_entropy", "concat_rows")

MIB = float(1 << 20)

# Installed tracers; the fork hook resets them in the child.
_installed: list["Tracer"] = []
_fork_hook = []


def _after_fork_in_child() -> None:
    for tracer in _installed:
        tracer._start_child()


def _add(table: dict, name: str, calls: int, incl: float, self_s: float) -> None:
    row = table.get(name)
    if row is None:
        table[name] = [calls, incl, self_s]
    else:
        row[0] += calls
        row[1] += incl
        row[2] += self_s


def _merge_totals(into: dict, table: dict) -> None:
    for name, (calls, incl, self_s) in table.items():
        _add(into, name, calls, incl, self_s)


def _merge_counts(into: dict, table: dict) -> None:
    for key, value in table.items():
        into[key] = into.get(key, 0) + value


class _Owner:
    """Open loop owner: its stack depth and the step in progress."""

    __slots__ = ("depth", "last_end", "covered", "totals", "counts")

    def __init__(self, depth: int):
        self.depth = depth
        self.last_end: float | None = None
        self.covered = 0.0
        self.totals: dict = {}
        self.counts: dict = {}


class Tracer:
    """Wraps the layer functions and aggregates their spans.

    ``memory=True`` also runs tracemalloc and records the peak traced
    allocation of every counted step.
    """

    def __init__(self, span_dir=None, memory: bool = False):
        self.span_dir = Path(span_dir) if span_dir is not None else None
        self.memory = memory
        self._patches: list[tuple[object, str, object]] = []
        self._child_file: Path | None = None
        self.wrapped_names: set[str] = set()   # ``layer.function`` names
        self._reset()

    def _reset(self) -> None:
        self.stack: list[list] = []          # [name, t0, child seconds]
        self.owners: list[_Owner] = []
        self.step_totals: dict = {}          # name -> [calls, incl s, self s]
        self.outside_totals: dict = {}
        self.step_counts: dict = {}
        self.steps: list[list] = []          # [seconds, other seconds, peak bytes]
        self.events: list[list] = []         # [name, t0, t1]

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        from latentgraph.autodiff import Tensor
        wrappers = {}
        self.wrapped_names = set()
        for layer in LAYERS:
            module = importlib.import_module(f"latentgraph.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(fn)] = self._wrap(name, fn, Tensor if layer == "autodiff" else None)
                    self.wrapped_names.add(name)
        for key in sorted(sys.modules):
            if key != "latentgraph" and not key.startswith("latentgraph."):
                continue
            module = sys.modules[key]
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if not _fork_hook:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook.append(True)
        _installed.append(self)
        if self.memory:
            tracemalloc.start()
        return self

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        if self in _installed:
            _installed.remove(self)
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn, tensor_type):
        enter, leave = self._enter, self._leave
        if tensor_type is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
            return wrapper

        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def op_wrapper(*args, **kwargs):
            enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave()
            if isinstance(out, tensor_type):
                if out._adjoint is not None:
                    out._adjoint = self._timed_adjoint(bwd_name, out._adjoint)
                shape = out.values.shape
                if len(shape) == 2 and shape[0] == shape[1] > 1:
                    self._count("autodiff.nxn_out_bytes", out.values.nbytes)
            elif name == "autodiff.build_tape":
                self._count("autodiff.tape_nodes", len(out))
            return out
        return op_wrapper

    def _timed_adjoint(self, name: str, adjoint):
        enter, leave = self._enter, self._leave

        def timed(grad):
            enter(name)
            try:
                adjoint(grad)
            finally:
                leave()
        return timed

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])
        if name in LOOP_OWNERS:
            self.owners.append(_Owner(len(self.stack) - 1))

    def _leave(self) -> None:
        t1 = time.perf_counter()
        stack = self.stack
        name, t0, child = stack.pop()
        seconds = t1 - t0
        depth = len(stack)
        if depth:
            stack[-1][2] += seconds
        owners = self.owners
        if owners and owners[-1].depth == depth:
            done = owners.pop()  # a step still open when its loop ends is not counted
            _merge_totals(self.outside_totals, done.totals)
        owner = owners[-1] if owners else None
        if owner is not None and owner.last_end is not None:
            _add(owner.totals, name, 1, seconds, seconds - child)
            if depth == owner.depth + 1:
                owner.covered += seconds
        else:
            _add(self.outside_totals, name, 1, seconds, seconds - child)
        if name == STEP_END and owner is not None and depth == owner.depth + 1:
            self._close_step(owner, t1)
        if name in EVENT_NAMES:
            self.events.append([name, t0, t1])
        if depth == 0 and self._child_file is not None:
            self._child_file.write_text(json.dumps(self.snapshot()))

    def _close_step(self, owner: _Owner, t1: float) -> None:
        peak = None
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
        if owner.last_end is not None:
            seconds = t1 - owner.last_end
            self.steps.append([seconds, seconds - owner.covered, peak])
            _merge_totals(self.step_totals, owner.totals)
            _merge_counts(self.step_counts, owner.counts)
            owner.totals, owner.counts = {}, {}
        owner.last_end = t1
        owner.covered = 0.0

    def _count(self, key: str, n: int) -> None:
        """Add ``n`` to a per-step counter; counts outside steps are dropped."""
        owner = self.owners[-1] if self.owners else None
        if owner is not None and owner.last_end is not None:
            owner.counts[key] = owner.counts.get(key, 0) + n

    def _start_child(self) -> None:
        self._reset()
        if self.memory:
            tracemalloc.reset_peak()
        if self.span_dir is not None:
            self._child_file = self.span_dir / f"trace-{os.getpid()}-{time.monotonic_ns()}.json"

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"step_totals": self.step_totals, "outside_totals": self.outside_totals,
                "step_counts": self.step_counts, "steps": self.steps, "events": self.events}

    def snapshots(self) -> list[dict]:
        """This process's snapshot followed by those its fork children wrote."""
        out = [self.snapshot()]
        if self.span_dir is not None:
            out += [json.loads(p.read_text()) for p in sorted(self.span_dir.glob("trace-*.json"))]
        return out


def _folds(snapshots: list[dict]) -> list[float]:
    """Seconds from each ``train`` start to the end of the next ``evaluate``
    in the same process: one fold job."""
    folds = []
    for snap in snapshots:
        start = None
        for name, t0, t1 in snap["events"]:
            if name == "training.train":
                start = t0
            elif name == "training.evaluate" and start is not None:
                folds.append(t1 - start)
                start = None
    return folds


def _event_seconds(snapshots: list[dict], name: str) -> list[float]:
    return [t1 - t0 for snap in snapshots for ev, t0, t1 in snap["events"] if ev == name]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)] if ordered else 0.0


def per_layer_metrics(snapshots: list[dict], memory_snapshots: list[dict], *,
                      workers: int, memory_nodes: int,
                      iterations_per_cell: int) -> dict[str, float]:
    """Per-layer figures of a traced run, keyed by metric name.

    ``snapshots`` come from the timing pass, ``memory_snapshots`` from a
    pass with tracemalloc on, whose largest graph has ``memory_nodes``
    nodes. Per-step figures divide by the number of counted steps; a layer
    that did not run reports 0.
    """
    totals: dict = {}
    counts: dict = {}
    steps: list[list] = []
    for snap in snapshots:
        _merge_totals(totals, snap["step_totals"])
        _merge_counts(counts, snap["step_counts"])
        steps += snap["steps"]
    n = len(steps)

    def per_step_ms(name: str, column: int) -> float:
        row = totals.get(name)
        return 1000.0 * row[column] / n if row and n else 0.0

    def per_step(value: float) -> float:
        return value / n if n else 0.0

    INCL, SELF = 1, 2
    m: dict[str, float] = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_ms"] = per_step_ms(f"autodiff.{op}", SELF)
        m[f"autodiff.{op}.bwd_ms"] = per_step_ms(f"autodiff.{op}.bwd", SELF)
    m["autodiff.calls"] = per_step(sum(
        row[0] for name, row in totals.items()
        if name.startswith("autodiff.") and not name.endswith(".bwd")))
    m["autodiff.tape_nodes"] = per_step(counts.get("autodiff.tape_nodes", 0))
    m["autodiff.build_tape_ms"] = per_step_ms("autodiff.build_tape", INCL)
    m["autodiff.backward_ms"] = per_step_ms("autodiff.backward", INCL)
    m["autodiff.nxn_out_mb"] = per_step(counts.get("autodiff.nxn_out_bytes", 0)) / MIB
    m["graph_learning.embed_ms"] = per_step_ms("graph_learning.embed", INCL)
    m["graph_learning.soft_adjacency_ms"] = per_step_ms("graph_learning.soft_adjacency", INCL)
    m["gcn.forward_ms"] = per_step_ms("gcn.forward", INCL)
    m["gcn.gc_layer_ms"] = per_step_ms("gcn.gc_layer", INCL)

    epoch_s = [s[0] for s in steps]
    m["training.epoch_ms.p50"] = 1000.0 * statistics.median(epoch_s) if epoch_s else 0.0
    m["training.epoch_ms.p90"] = 1000.0 * _p90(epoch_s)
    m["training.loss_ms"] = (per_step_ms("autodiff.row_softmax_cross_entropy", INCL)
                             + per_step_ms("autodiff.row_softmax_cross_entropy.bwd", INCL))
    m["training.optimizer_ms"] = per_step_ms("training.adam_step", INCL)
    m["training.evaluate_ms"] = 1000.0 * _mean(_event_seconds(snapshots, "training.evaluate"))
    m["training.other_ms"] = 1000.0 * per_step(sum(s[1] for s in steps))

    folds = _folds(snapshots)
    m["training.fold_s.p50"] = statistics.median(folds) if folds else 0.0
    m["training.fold_s.max"] = max(folds, default=0.0)
    cv_wall = sum(_event_seconds(snapshots, "training.cross_validate"))
    m["training.fanout_idle_share"] = 1.0 - sum(folds) / (workers * cv_wall) if cv_wall else 0.0

    peaks = [s[2] for snap in memory_snapshots for s in snap["steps"] if s[2] is not None]
    peak = max(peaks, default=0)
    m["training.peak_alloc_mb"] = peak / MIB
    m["training.peak_nxn_buffers"] = peak / (8.0 * memory_nodes ** 2)

    cells = _event_seconds(snapshots, "synthetic.recover_graph")
    m["synthetic.cell_s"] = _mean(cells)
    m["synthetic.iteration_ms"] = 1000.0 * _mean(cells) / iterations_per_cell
    m["data_io.load_csv_ms"] = 1000.0 * _mean(_event_seconds(snapshots, "data_io.load_csv"))
    m["data_io.standardize_ms"] = 1000.0 * _mean(_event_seconds(snapshots, "data_io.standardize"))
    return m


def step_accounting(snapshots: list[dict]) -> tuple[float, float]:
    """(sum of counted step seconds, sum of in-step self seconds + other).

    The two agree up to rounding when every span inside a step is
    accounted for exactly once.
    """
    step_s = other_s = self_s = 0.0
    for snap in snapshots:
        step_s += sum(s[0] for s in snap["steps"])
        other_s += sum(s[1] for s in snap["steps"])
        self_s += sum(row[2] for row in snap["step_totals"].values())
    return step_s, self_s + other_s
