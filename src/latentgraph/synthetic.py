"""Synthetic studies: seeded random graphs, neighbor-sum regression
targets, graph-recovery optimization, and benchmark dataset generators.

The recovery experiment asks the graph-learning module to reproduce a
known binary graph from neighbor-sum targets with identity node
features; with identity features the model's adjacency is the only free
quantity, so the off-diagonal squared error measures how well the
learned graph matches the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import graph_learning as gl
from .data_io import TabularDataset
from .errors import ContractError, DimensionError, NumericalError
from .training import AdamState, adam_step, parallel_map


@dataclass
class GroundTruthGraph:
    """Seeded binary graph: symmetric, zero diagonal, no isolated nodes."""

    n: int
    adjacency: np.ndarray
    edge_probability: float
    seed: int


def generate_graph(n: int, p: float, seed: int = 0) -> GroundTruthGraph:
    """Erdos-Renyi G(n, p) with an isolated-node repair pass.

    Each undirected pair is kept with probability ``p``; any node left
    isolated afterwards gets one edge to a uniformly random other node.
    Deterministic given the seed.
    """
    if n < 2:
        raise ContractError(f"need at least 2 nodes, got {n}")
    if not (0.0 < p < 1.0):
        raise ContractError(f"edge probability must lie in (0, 1), got {p}")
    rng = np.random.default_rng(seed)
    draws = rng.random((n, n))
    upper = np.triu(draws < p, k=1)
    adjacency = (upper | upper.T).astype(np.float64)
    for node in np.flatnonzero(adjacency.sum(axis=1) == 0):
        other = int(rng.integers(n - 1))
        if other >= node:
            other += 1
        adjacency[node, other] = 1.0
        adjacency[other, node] = 1.0
    return GroundTruthGraph(n=n, adjacency=adjacency, edge_probability=p, seed=seed)


def neighbor_sum_targets(graph: GroundTruthGraph, features) -> np.ndarray:
    """Row i is the sum of feature rows over node i's neighbors.

    With identity features this is exactly the adjacency matrix.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != graph.n:
        raise DimensionError(
            f"features have {features.shape[0]} rows for a {graph.n}-node graph")
    return graph.adjacency @ features


@dataclass
class RecoveryConfig:
    """Optimizer settings for the graph-recovery objective."""

    embedding_dim: int = 8
    hidden: tuple[int, ...] = (64,)
    lr: float = 0.01
    iterations: int = 2000
    seed: int = 0
    divergence_threshold: float = 1e6


@dataclass
class RecoveryResult:
    adjacency: np.ndarray
    mse: float
    agreement: float
    loss_history: list[float] = field(repr=False)


def edge_agreement(a_learned: np.ndarray, a_true: np.ndarray,
                   threshold: float = 0.5) -> float:
    """Fraction of off-diagonal entries whose thresholded bit matches."""
    a_learned = np.asarray(a_learned)
    a_true = np.asarray(a_true)
    if a_learned.shape != a_true.shape:
        raise DimensionError(
            f"shape mismatch: {a_learned.shape} vs {a_true.shape}")
    off = ~np.eye(a_learned.shape[0], dtype=bool)
    learned_bits = a_learned[off] >= threshold
    true_bits = a_true[off] >= threshold
    return float(np.mean(learned_bits == true_bits))


def recover_graph(targets: np.ndarray, cfg: RecoveryConfig) -> RecoveryResult:
    """Fit the graph-learning module so its adjacency reproduces ``targets``.

    Node features are the identity, so the predicted neighbor sums equal
    the learned adjacency itself and the objective is the mean squared
    off-diagonal error against ``targets``. Diagonal entries are excluded:
    the target graph has no self-loops while the learned adjacency
    structurally assigns its largest weight to the zero self-distance.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != targets.shape[1]:
        raise DimensionError(f"targets must be square, got {targets.shape}")
    n = targets.shape[0]
    rng = np.random.default_rng(cfg.seed)
    embedder = gl.init_embedder([n, *cfg.hidden, cfg.embedding_dim], rng)
    features = ad.as_tensor(np.eye(n))
    edge = gl.init_edge_params(gl.embed(features, embedder))
    params = [*embedder.tensors(), *edge.tensors()]
    state = AdamState(params)
    target_tensor = ad.as_tensor(targets)
    off_diag = ad.as_tensor(1.0 - np.eye(n))
    scale = 1.0 / (n * (n - 1))
    history: list[float] = []

    def objective() -> ad.Tensor:
        adjacency = gl.soft_adjacency(gl.embed(features, embedder), edge)
        residual = ad.mul(ad.subtract(target_tensor, adjacency), off_diag)
        return ad.scalar_mul(ad.sum_all(ad.mul(residual, residual)), scale)

    for iteration in range(cfg.iterations):
        loss = objective()
        value = loss.item()
        if not np.isfinite(value) or value > cfg.divergence_threshold:
            raise NumericalError(
                f"recovery diverged at iteration {iteration}: loss={value!r}")
        history.append(value)
        ad.backward(loss)
        adam_step(params, [p.grad for p in params], state, cfg.lr)

    adjacency = gl.soft_adjacency(gl.embed(features, embedder), edge).values
    off = ~np.eye(n, dtype=bool)
    mse = float(np.mean((targets[off] - adjacency[off]) ** 2))
    agreement = edge_agreement(adjacency, targets)
    return RecoveryResult(adjacency=adjacency, mse=mse,
                          agreement=agreement, loss_history=history)


@dataclass
class RecoveryCell:
    """One (nodes, embedding dim, seed) run of the recovery experiment."""

    n: int
    embedding_dim: int
    seed: int
    mse: float
    agreement: float


def _run_recovery_cell(args) -> RecoveryCell:
    n, dim, seed, edge_probability, base = args
    graph = generate_graph(n, edge_probability, seed)
    targets = neighbor_sum_targets(graph, np.eye(n))
    result = recover_graph(targets, replace(base, embedding_dim=dim, seed=seed))
    return RecoveryCell(n=n, embedding_dim=dim, seed=seed,
                        mse=result.mse, agreement=result.agreement)


def recovery_curves(n_list: Sequence[int], dim_list: Sequence[int],
                    seeds: Sequence[int], edge_probability: float = 0.3,
                    base_cfg: RecoveryConfig | None = None) -> list[RecoveryCell]:
    """Recovery error over a (node count, embedding dim, seed) grid.

    Each cell generates a fresh graph from its seed, runs the recovery
    optimization, and records the final off-diagonal MSE and edge
    agreement. Every other setting comes from ``base_cfg``. Cells run
    through :func:`~latentgraph.training.parallel_map`. Aggregate with
    :func:`summarize_curves`.
    """
    if not n_list or not dim_list or not len(seeds):
        raise ContractError("node, dimension, and seed lists must be non-empty")
    base = base_cfg or RecoveryConfig()
    jobs = [(n, dim, seed, edge_probability, base)
            for n in n_list for dim in dim_list for seed in seeds]
    return parallel_map(_run_recovery_cell, jobs)


def summarize_curves(cells: Sequence[RecoveryCell]):
    """Mean and std of MSE per (n, embedding_dim), keyed by that pair."""
    grouped: dict[tuple[int, int], list[float]] = {}
    for cell in cells:
        grouped.setdefault((cell.n, cell.embedding_dim), []).append(cell.mse)
    return {key: (float(np.mean(v)), float(np.std(v)))
            for key, v in sorted(grouped.items())}


def make_classification_dataset(n_nodes: int = 300, n_classes: int = 3,
                                n_informative: int = 10, n_nuisance: int = 90,
                                clusters_per_class: int = 2,
                                separation: float = 6.0,
                                cluster_std: float = 0.1,
                                nuisance_scale: float = 3.0,
                                nuisance_factor_weight: float = 0.5,
                                seed: int = 0) -> TabularDataset:
    """Clustered benchmark where raw distances are dominated by noise.

    Each class occupies ``clusters_per_class`` Gaussian clusters of
    spread ``cluster_std`` in the informative subspace; with two clusters
    they sit at antipodal points, which defeats linear decision
    boundaries. The nuisance features are label-free noise, optionally
    mixed with a shared per-node factor (weight ``nuisance_factor_weight``
    in [0, 1)) that mimics global confounds such as site or age effects:
    it dominates raw pairwise distances, so neighbor graphs built from
    raw features sort by the confound, while the informative subspace
    still cleanly separates the clusters.
    """
    if n_classes < 2 or clusters_per_class < 1:
        raise ContractError("need at least 2 classes and 1 cluster per class")
    rng = np.random.default_rng(seed)
    counts = np.full(n_classes, n_nodes // n_classes)
    counts[: n_nodes % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), counts)
    centers = []
    for _ in range(n_classes):
        direction = rng.normal(size=n_informative)
        direction /= np.linalg.norm(direction)
        if clusters_per_class == 2:
            centers.append(np.stack([separation * direction,
                                     -separation * direction]))
        else:
            cluster_dirs = rng.normal(size=(clusters_per_class, n_informative))
            cluster_dirs /= np.linalg.norm(cluster_dirs, axis=1, keepdims=True)
            centers.append(separation * cluster_dirs)
    informative = np.empty((n_nodes, n_informative))
    for i, cls in enumerate(labels):
        cluster = rng.integers(clusters_per_class)
        informative[i] = centers[cls][cluster] + \
            rng.normal(scale=cluster_std, size=n_informative)
    noise = rng.normal(size=(n_nodes, n_nuisance))
    if nuisance_factor_weight > 0.0:
        if not nuisance_factor_weight < 1.0:
            raise ContractError("nuisance_factor_weight must lie in [0, 1)")
        factor = rng.normal(size=(n_nodes, 1))
        loadings = rng.choice([-1.0, 1.0], size=(1, n_nuisance))
        noise = (np.sqrt(nuisance_factor_weight) * factor * loadings
                 + np.sqrt(1.0 - nuisance_factor_weight) * noise)
    nuisance = nuisance_scale * noise
    x = np.hstack([informative, nuisance])
    order = rng.permutation(n_nodes)
    x, labels = x[order], labels[order]
    feature_names = [f"inf{i:03d}" for i in range(n_informative)] + \
                    [f"noise{i:03d}" for i in range(n_nuisance)]
    return TabularDataset(
        node_ids=[f"n{i:04d}" for i in range(n_nodes)],
        X=x,
        y=labels.astype(np.intp),
        class_names=[f"class{c}" for c in range(n_classes)],
        feature_names=feature_names,
    )
