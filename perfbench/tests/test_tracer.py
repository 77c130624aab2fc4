"""Tracer fidelity: wrapping the layers must not change any result, must
cover every op a model records on its tape, and must be fully undone.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from latentgraph import autodiff as ad  # noqa: E402
from latentgraph import gcn, synthetic, training  # noqa: E402

import tracer  # noqa: E402


@pytest.fixture
def small():
    dataset = synthetic.make_classification_dataset(n_nodes=40, n_nuisance=6, seed=1)
    cfg = training.TrainConfig(epochs=8, embed_hidden=(), embed_dim=4,
                               gc_widths=(4, 3), seed=2, folds=2)
    return dataset, cfg


def module_attributes() -> dict:
    return {(key, attr): id(value)
            for key, module in list(sys.modules.items())
            if key == "latentgraph" or key.startswith("latentgraph.")
            for attr, value in vars(module).items()}


def test_traced_training_is_bit_identical(small):
    dataset, cfg = small
    _, plain = training.train(dataset, cfg)
    with tracer.Tracer() as traced_run:
        _, traced = training.train(dataset, cfg)
    assert [r.loss for r in traced] == [r.loss for r in plain]
    assert len(traced_run.steps) == cfg.epochs - 1


def test_every_op_on_a_model_tape_is_wrapped(small):
    dataset, _ = small
    params = gcn.init_model(dataset.X, 3, embed_hidden=(), embed_dim=4, gc_widths=(4, 3),
                            rng=np.random.default_rng(0))
    with tracer.Tracer() as traced:
        loss = ad.row_softmax_cross_entropy(
            gcn.forward(dataset.X, params), dataset.y, np.arange(dataset.n_nodes))
        ad.backward(loss)
    ops = {node.op for node in ad.build_tape(loss) if node.op}
    assert {"pairwise_euclidean", "sigmoid", "row_normalize", "matmul"} <= ops
    for op in ops:
        assert f"autodiff.{op}" in traced.wrapped_names
        assert f"autodiff.{op}" in traced.outside_totals
        assert f"autodiff.{op}.bwd" in traced.outside_totals


def test_every_patched_attribute_is_restored():
    before = module_attributes()
    with tracer.Tracer():
        during = module_attributes()
    assert during != before
    assert module_attributes() == before


def test_self_times_and_other_add_up_to_step_time(small):
    dataset, cfg = small
    with tracer.Tracer() as traced:
        training.train(dataset, cfg)
    steps_s, accounted_s = tracer.step_accounting([traced.snapshot()])
    assert steps_s > 0
    assert accounted_s == pytest.approx(steps_s, rel=1e-9)


def test_fold_worker_spans_reach_the_parent(small, tmp_path):
    dataset, cfg = small
    with tracer.Tracer(tmp_path) as traced:
        training.cross_validate(dataset, cfg, n_workers=2)
    snapshots = traced.snapshots()
    assert len(snapshots) > 1  # the parent's plus one per fold worker
    metrics = tracer.per_layer_metrics(snapshots, [], workers=2, memory_nodes=40,
                                       iterations_per_cell=1)
    assert metrics["training.fold_s.p50"] > 0
    assert 0 <= metrics["training.fanout_idle_share"] < 1
    assert sum(len(s["steps"]) for s in snapshots) == cfg.folds * (cfg.epochs - 1)


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(tracer.per_layer_metrics([], [], workers=1, memory_nodes=1,
                                            iterations_per_cell=1))
    assert produced | {"bench.trace_overhead"} == declared
