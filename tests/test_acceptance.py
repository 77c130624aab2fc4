"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
The classification criteria run the full 600-epoch protocol on the
shipped synthetic benchmark; expect a couple of minutes of runtime.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from latentgraph import autodiff as ad
from latentgraph import gcn
from latentgraph import graph_learning as gl
from latentgraph import synthetic as syn
from latentgraph import training as tr
from latentgraph.data_io import standardize
from latentgraph.gradcheck import end_to_end_check, op_checks

BENCHMARK_CONFIG = dict(epochs=600, seed=0, embed_hidden=(), embed_dim=16)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def benchmark_dataset():
    dataset = syn.make_classification_dataset(seed=0)
    dataset.X = standardize(dataset.X)
    return dataset


def test_criterion_1_gradient_correctness():
    start = time.time()
    per_op = op_checks(seed=0, instances=10)
    end_to_end = end_to_end_check(seed=0, instances=10)
    elapsed = time.time() - start
    worst_op = max(per_op.values())
    ok = worst_op < 1e-4 and end_to_end < 1e-3 and elapsed < 30.0
    _report("1 gradient correctness", ok,
            f"max per-op {worst_op:.2e} < 1e-4, end-to-end {end_to_end:.2e} "
            f"< 1e-3, {elapsed:.1f}s < 30s")


def test_criterion_2_gc_layer_oracle():
    rng = np.random.default_rng(2)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.05, 1.0, size=(6, 6))
        h = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3))
        averaged = np.zeros((6, 4))
        for i in range(6):
            degree = sum(a[i, j] for j in range(6))
            for j in range(6):
                averaged[i] += a[i, j] * h[j] / degree
        expected = averaged @ w
        got = gcn.gc_layer(a, h, w).values
        worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report("2 gc-layer oracle equivalence", ok,
            f"max abs dev {worst:.2e} < 1e-10 on 20 instances, "
            f"{elapsed:.2f}s < 1s")


def test_criterion_3_graph_recovery():
    start = time.time()
    mses, agreements = [], []
    for seed in range(5):
        graph = syn.generate_graph(10, 0.3, seed)
        targets = syn.neighbor_sum_targets(graph, np.eye(10))
        result = syn.recover_graph(
            targets, syn.RecoveryConfig(embedding_dim=8, seed=seed))
        mses.append(result.mse)
        agreements.append(result.agreement)
    elapsed = time.time() - start
    mean_mse = float(np.mean(mses))
    mean_agreement = float(np.mean(agreements))
    ok = mean_mse < 1e-2 and mean_agreement >= 0.95 and elapsed < 120.0
    _report("3 graph recovery (N=10, dim=8)", ok,
            f"mean MSE {mean_mse:.2e} < 1e-2, agreement {mean_agreement:.3f} "
            f">= 0.95, {elapsed:.0f}s < 120s")


@pytest.fixture(scope="module")
def recovery_grid():
    start = time.time()
    cells = syn.recovery_curves([5, 10, 20], [2, 16], seeds=range(5))
    return syn.summarize_curves(cells), time.time() - start


def test_criterion_4_embedding_dimension_trend(recovery_grid):
    summary, elapsed = recovery_grid
    low_dim = summary[(20, 2)][0]
    high_dim = summary[(20, 16)][0]
    ok = low_dim > high_dim and elapsed < 300.0
    _report("4 embedding-dimension trend (N=20)", ok,
            f"mean MSE dim=2 {low_dim:.2e} > dim=16 {high_dim:.2e}, "
            f"{elapsed:.0f}s < 300s")


def test_criterion_5_node_count_trend(recovery_grid):
    summary, _ = recovery_grid
    mses = [summary[(n, 16)][0] for n in (5, 10, 20)]
    ok = mses[0] <= mses[1] <= mses[2]
    _report("5 node-count trend (dim=16)", ok,
            "mean MSE non-decreasing over N=5,10,20: "
            + ", ".join(f"{m:.2e}" for m in mses))


def test_criterion_6_baseline_ordering(benchmark_dataset):
    start = time.time()
    cfg = tr.TrainConfig(**BENCHMARK_CONFIG)
    split = tr.stratified_kfold(benchmark_dataset.y, cfg.folds, cfg.seed)
    latent = tr.cross_validate(benchmark_dataset, cfg)
    ridge = tr.linear_baseline(benchmark_dataset, split)
    knn = tr.cross_validate(benchmark_dataset, cfg,
                            adjacency=tr.knn_adjacency(benchmark_dataset.X, 10))
    elapsed = time.time() - start
    ok = (latent.accuracy_mean >= ridge.accuracy_mean + 0.05
          and latent.accuracy_mean >= knn.accuracy_mean
          and elapsed < 600.0)
    _report("6 baseline ordering (10-fold CV)", ok,
            f"latent {latent.accuracy_mean:.3f} >= ridge "
            f"{ridge.accuracy_mean:.3f}+0.05 and >= knn "
            f"{knn.accuracy_mean:.3f}, {elapsed:.0f}s < 600s")


def test_criterion_7_inductive_gap(benchmark_dataset):
    start = time.time()
    cfg = tr.TrainConfig(**BENCHMARK_CONFIG)
    split = tr.stratified_kfold(benchmark_dataset.y, 10, cfg.seed)
    train_idx, test_idx = split.train_indices[0], split.test_indices[0]

    params, _ = tr.train(benchmark_dataset, cfg, train_mask=train_idx)
    transductive = tr.evaluate(params, benchmark_dataset, test_idx).accuracy

    held_in = syn.TabularDataset(
        node_ids=[benchmark_dataset.node_ids[i] for i in train_idx],
        X=benchmark_dataset.X[train_idx], y=benchmark_dataset.y[train_idx],
        class_names=benchmark_dataset.class_names,
        feature_names=benchmark_dataset.feature_names)
    params_inductive, _ = tr.train(held_in, cfg)
    preds = tr.inductive_infer(params_inductive, held_in.X,
                               benchmark_dataset.X[test_idx])
    inductive = float(np.mean(preds == benchmark_dataset.y[test_idx]))
    elapsed = time.time() - start
    gap = abs(transductive - inductive)
    ok = gap <= 0.03 and elapsed < 180.0
    _report("7 inductive gap (90/10 split)", ok,
            f"transductive {transductive:.3f} vs inductive {inductive:.3f}, "
            f"|gap| {gap:.3f} <= 0.03, {elapsed:.0f}s < 180s")


def test_criterion_8_invariant_suite():
    start = time.time()
    rng = np.random.default_rng(8)
    x = rng.normal(size=(15, 6))
    embedder = gl.init_embedder([6, 10, 4], np.random.default_rng(1))
    edge = gl.init_edge_params(gl.embed(x, embedder))
    adjacency = gl.soft_adjacency(gl.embed(x, embedder), edge).values

    checks = []
    checks.append(("entries in (0,1)",
                   bool(np.all(adjacency > 0) and np.all(adjacency < 1))))
    checks.append(("symmetry", bool(np.array_equal(adjacency, adjacency.T))))
    t = float(edge.temperature().values)
    theta = float(edge.threshold.values)
    diag_target = 1.0 / (1.0 + np.exp(-t * theta))
    checks.append(("diagonal = sigmoid(t*theta)",
                   bool(np.allclose(np.diag(adjacency), diag_target, atol=1e-12))))
    row_sums = ad.row_normalize(adjacency).values.sum(axis=1)
    checks.append(("row-stochastic within 1e-9",
                   bool(np.allclose(row_sums, 1.0, atol=1e-9))))

    params = gcn.init_model(x, 3, embed_hidden=(10,), embed_dim=4,
                            gc_widths=(6, 4), rng=np.random.default_rng(2))
    logits = gcn.forward(x, params).values
    equivariant = True
    for k in range(5):
        perm = np.random.default_rng(100 + k).permutation(15)
        permuted = gcn.forward(x[perm], params).values
        equivariant &= bool(np.allclose(permuted, logits[perm], atol=1e-10))
    checks.append(("permutation equivariance x5", equivariant))

    labels = rng.integers(0, 3, size=60)
    split = tr.stratified_kfold(labels, 5, seed=3)
    gathered = np.sort(np.concatenate(split.test_indices))
    stratified = bool(np.array_equal(gathered, np.arange(60)))
    for cls in range(3):
        per_fold = [int((labels[te] == cls).sum()) for te in split.test_indices]
        stratified &= (max(per_fold) - min(per_fold) <= 1)
    checks.append(("stratified fold partition", stratified))

    blob_x = rng.normal(size=(20, 4))
    blob_y = np.array([0, 1] * 10)
    ds = syn.TabularDataset(node_ids=[str(i) for i in range(20)], X=blob_x,
                            y=blob_y, class_names=["a", "b"],
                            feature_names=list("abcd"))
    cfg = tr.TrainConfig(epochs=15, seed=5, embed_hidden=(), embed_dim=3,
                         gc_widths=(4,))
    _, h1 = tr.train(ds, cfg)
    _, h2 = tr.train(ds, cfg)
    checks.append(("seed determinism",
                   [(r.loss, r.train_acc) for r in h1] ==
                   [(r.loss, r.train_acc) for r in h2]))

    elapsed = time.time() - start
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 60.0
    _report("8 invariant suite", ok,
            f"{len(checks)} checks, failed: {failed or 'none'}, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_9_real_data_protocol_documented():
    from latentgraph.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["cross-validate", "--data", "d.csv",
                              "--label-col", "dx"])
    protocol_ok = (args.epochs == 600 and args.folds == 10
                   and args.lr == 0.01 and args.lr_min == 0.0001
                   and args.seed == 0)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = all(marker in readme for marker in
                     ["92.91", "2.50", "94.49", "3.70", "91.85"])
    ok = protocol_ok and documented
    _report("9 real-data protocol documented", ok,
            f"CLI defaults 600 epochs / lr 0.01->0.0001 / 10 folds: "
            f"{protocol_ok}; reference numbers in README: {documented}")
