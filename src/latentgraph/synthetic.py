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


def generate_graph(n: int, p: float, seed: int = 0) -> np.ndarray:
    """Erdos-Renyi G(n, p) adjacency with an isolated-node repair pass.

    Each undirected pair is kept with probability ``p``; any node left
    isolated afterwards gets one edge to a uniformly random other node.
    The result is binary, symmetric, with a zero diagonal and no isolated
    node. Deterministic given the seed.
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
    return adjacency


def neighbor_sum_targets(adjacency: np.ndarray, features) -> np.ndarray:
    """Row i is the sum of feature rows over node i's neighbors.

    With identity features this is exactly the adjacency matrix.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != adjacency.shape[0]:
        raise DimensionError(
            f"features have {features.shape[0]} rows for a "
            f"{adjacency.shape[0]}-node graph")
    return adjacency @ features


# Fixed settings of the recovery study: the embedder's hidden widths,
# Adam's learning rate, and the loss above which a run counts as diverged.
RECOVERY_HIDDEN = (64,)
RECOVERY_LR = 0.01
RECOVERY_MAX_LOSS = 1e6
# Edge weight at or above which a learned entry counts as an edge.
EDGE_CUTOFF = 0.5


@dataclass
class RecoveryConfig:
    """Embedding width, iteration count and seed of one recovery run."""

    embedding_dim: int = 8
    iterations: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ContractError("embedding_dim must be at least 1")
        if self.iterations < 0 or self.seed < 0:
            raise ContractError("iterations and seed must be non-negative")


@dataclass
class RecoveryResult:
    adjacency: np.ndarray
    mse: float
    agreement: float
    loss_history: list[float] = field(repr=False)


def edge_agreement(a_learned: np.ndarray, a_true: np.ndarray) -> float:
    """Fraction of off-diagonal entries whose bit (entry >= EDGE_CUTOFF)
    matches."""
    a_learned = np.asarray(a_learned)
    a_true = np.asarray(a_true)
    if a_learned.shape != a_true.shape:
        raise DimensionError(
            f"shape mismatch: {a_learned.shape} vs {a_true.shape}")
    off = ~np.eye(a_learned.shape[0], dtype=bool)
    learned_bits = a_learned[off] >= EDGE_CUTOFF
    true_bits = a_true[off] >= EDGE_CUTOFF
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
    if n < 2:
        raise ContractError(f"need at least 2 nodes, got {n}")
    rng = np.random.default_rng(cfg.seed)
    embedder = gl.init_embedder([n, *RECOVERY_HIDDEN, cfg.embedding_dim], rng)
    features = ad.as_tensor(np.eye(n))
    with ad.no_grad():
        edge = gl.init_edge_params(gl.embed(features, embedder))
    state = AdamState([*embedder.tensors(), *edge.tensors()])
    # A - T is -(T - A) bit for bit, and the residual is squared
    negated_targets = ad.as_tensor(-targets)
    off_diag = ad.as_tensor(1.0 - np.eye(n))
    scale = ad.as_tensor(1.0 / (n * (n - 1)))
    history: list[float] = []

    def objective() -> ad.Tensor:
        adjacency = gl.soft_adjacency(gl.embed(features, embedder), edge)
        residual = ad.mul(ad.add(adjacency, negated_targets), off_diag)
        return ad.mul(ad.sum_all(ad.mul(residual, residual)), scale)

    for iteration in range(cfg.iterations):
        loss = objective()
        value = loss.item()
        if not np.isfinite(value) or value > RECOVERY_MAX_LOSS:
            raise NumericalError(
                f"recovery diverged at iteration {iteration}: loss={value!r}")
        history.append(value)
        ad.backward(loss)
        adam_step(state, RECOVERY_LR)

    with ad.no_grad():
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
    n, edge_probability, cfg = args
    graph = generate_graph(n, edge_probability, cfg.seed)
    result = recover_graph(neighbor_sum_targets(graph, np.eye(n)), cfg)
    return RecoveryCell(n=n, embedding_dim=cfg.embedding_dim, seed=cfg.seed,
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
    jobs = [(n, edge_probability, replace(base, embedding_dim=dim, seed=seed))
            for n in n_list for dim in dim_list for seed in seeds]
    return parallel_map(_run_recovery_cell, jobs)


def summarize_curves(cells: Sequence[RecoveryCell]):
    """Mean and std of MSE per (n, embedding_dim), keyed by that pair."""
    grouped: dict[tuple[int, int], list[float]] = {}
    for cell in cells:
        grouped.setdefault((cell.n, cell.embedding_dim), []).append(cell.mse)
    return {key: (float(np.mean(v)), float(np.std(v)))
            for key, v in sorted(grouped.items())}


# Fixed shape of the classification benchmark: per class, two antipodal
# Gaussian clusters in the informative subspace; nuisance features mixed
# with a shared per-node factor of weight NUISANCE_FACTOR_WEIGHT.
N_CLASSES = 3
N_INFORMATIVE = 10
SEPARATION = 6.0
CLUSTER_STD = 0.1
NUISANCE_SCALE = 3.0
NUISANCE_FACTOR_WEIGHT = 0.5


def make_classification_dataset(n_nodes: int = 300, n_nuisance: int = 90,
                                seed: int = 0) -> TabularDataset:
    """Clustered benchmark where raw distances are dominated by noise.

    Each of the ``N_CLASSES`` classes occupies two Gaussian clusters of
    spread ``CLUSTER_STD`` at antipodal points ``±SEPARATION`` along a
    random direction of the ``N_INFORMATIVE``-dimensional informative
    subspace, which defeats linear decision boundaries. The nuisance
    features are label-free noise mixed with a shared per-node factor
    (weight ``NUISANCE_FACTOR_WEIGHT``) that mimics global confounds such
    as site or age effects: it dominates raw pairwise distances, so
    neighbor graphs built from raw features sort by the confound, while
    the informative subspace still cleanly separates the clusters.
    """
    rng = np.random.default_rng(seed)
    counts = np.full(N_CLASSES, n_nodes // N_CLASSES)
    counts[: n_nodes % N_CLASSES] += 1
    labels = np.repeat(np.arange(N_CLASSES), counts)
    centers = []
    for _ in range(N_CLASSES):
        direction = rng.normal(size=N_INFORMATIVE)
        direction /= np.linalg.norm(direction)
        centers.append(np.stack([SEPARATION * direction, -SEPARATION * direction]))
    informative = np.empty((n_nodes, N_INFORMATIVE))
    for i, cls in enumerate(labels):
        cluster = rng.integers(2)
        informative[i] = centers[cls][cluster] + \
            rng.normal(scale=CLUSTER_STD, size=N_INFORMATIVE)
    noise = rng.normal(size=(n_nodes, n_nuisance))
    factor = rng.normal(size=(n_nodes, 1))
    loadings = rng.choice([-1.0, 1.0], size=(1, n_nuisance))
    noise = (np.sqrt(NUISANCE_FACTOR_WEIGHT) * factor * loadings
             + np.sqrt(1.0 - NUISANCE_FACTOR_WEIGHT) * noise)
    x = np.hstack([informative, NUISANCE_SCALE * noise])
    order = rng.permutation(n_nodes)
    x, labels = x[order], labels[order]
    feature_names = [f"inf{i:03d}" for i in range(N_INFORMATIVE)] + \
                    [f"noise{i:03d}" for i in range(n_nuisance)]
    return TabularDataset(
        node_ids=[f"n{i:04d}" for i in range(n_nodes)],
        X=x,
        y=labels.astype(np.intp),
        class_names=[f"class{c}" for c in range(N_CLASSES)],
        feature_names=feature_names,
    )
