"""End-to-end optimization, cross-validation, metrics, and baselines.

Training is full batch: every step embeds the nodes, rebuilds the soft
adjacency, runs the graph convolutions, and backpropagates the masked
cross-entropy through the whole pipeline, adjacency included. Adam with
a piecewise-constant learning-rate decay drives the updates.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import gcn
from .autodiff import Tensor
from .errors import ContractError, DataError, DimensionError, NumericalError

WORKERS_ENV_VAR = "LATENTGRAPH_WORKERS"


# The paper's fixed optimisation protocol. The learning rate is multiplied
# by ``(lr_min / lr0) ** (1 / LR_DECAYS)`` every ``LR_DECAY_INTERVAL``
# epochs and reaches ``lr_min`` after ``LR_DECAYS`` decays: 0.01 decays to
# 0.0001 by epoch 500 of 600. Adam uses the standard moment rates.
LR_DECAY_INTERVAL = 100
LR_DECAYS = 5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    """Learning-rate range, CV protocol, and architecture widths.

    The decay schedule and Adam's constants are fixed module constants
    (``LR_DECAY_INTERVAL``, ``LR_DECAYS``, ``ADAM_BETA1``, ``ADAM_BETA2``,
    ``ADAM_EPSILON``).
    """

    epochs: int = 600
    lr0: float = 0.01
    lr_min: float = 0.0001
    seed: int = 0
    folds: int = 10
    embed_hidden: tuple[int, ...] = (64,)
    embed_dim: int = 16
    gc_widths: tuple[int, ...] = (16, 8)

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.seed < 0:
            raise ContractError("epochs and seed must be non-negative")
        if not (0.0 < self.lr_min <= self.lr0):
            raise ContractError("need 0 < lr_min <= lr0")
        if self.folds < 2:
            raise ContractError("fold count must be at least 2")
        if not self.gc_widths:
            raise ContractError("need at least one graph-convolution layer")
        if min((*self.embed_hidden, self.embed_dim, *self.gc_widths)) < 1:
            raise ContractError("layer widths must be at least 1")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-constant geometric decay, clamped below at ``lr_min``."""
    factor = (cfg.lr_min / cfg.lr0) ** (1.0 / LR_DECAYS)
    return max(cfg.lr_min, cfg.lr0 * factor ** (epoch // LR_DECAY_INTERVAL))


class AdamState:
    """A parameter list with its step count and its first/second moments,
    each one flat vector over all the parameters in order. ``update`` is a
    step's update in the same layout; ``shares`` are its views in the
    parameters' shapes."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.sizes = [p.values.size for p in self.params]
        self.m = np.zeros(sum(self.sizes))
        self.v = np.zeros(sum(self.sizes))
        self.update = np.zeros(sum(self.sizes))
        ends = np.cumsum(self.sizes).tolist()
        self.shares = [self.update[end - size:end].reshape(p.values.shape)
                       for p, size, end in zip(self.params, self.sizes, ends)]
        self.step = 0


def adam_step(state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update of ``state.params`` from their ``grad``,
    applied in place. Adam is elementwise, so it runs once over all the
    gradients concatenated, each element through the same arithmetic as a
    per-parameter update. A missing or mis-sized gradient raises
    ``ContractError`` before anything changes."""
    grads = [p.grad for p in state.params]
    for i, (p, g, size) in enumerate(zip(state.params, grads, state.sizes)):
        if g is None or g.size != size:
            got = "no gradient" if g is None else f"a gradient of shape {g.shape}"
            raise ContractError(f"parameter {i} of shape {p.shape} has {got}")
    # ravel, not axis=None: a 0-d gradient may be a numpy scalar, which
    # concatenate would convert at about 1 us each
    g = np.concatenate([g.ravel() for g in grads])
    state.step += 1
    t = state.step
    m, v, update = state.m, state.v, state.update
    m *= ADAM_BETA1
    m += g * (1.0 - ADAM_BETA1)
    g *= g
    g *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=update)
    update *= lr
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** t, out=g)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    update /= denom
    for p, share in zip(state.params, state.shares):
        p.values -= share


@dataclass
class FoldSplit:
    """Per-fold train/test index arrays; folds partition all indices."""

    train_indices: list[np.ndarray]
    test_indices: list[np.ndarray]


def stratified_kfold(labels, k: int, seed: int = 0) -> FoldSplit:
    """Deterministic stratified k-fold split.

    Within each class the (seeded) shuffled indices are dealt round-robin
    across folds, so per-class counts across folds differ by at most one.
    Classes with fewer than k members are rejected.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ContractError("fold count must be at least 2")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise DataError(
                f"class {cls} has only {members.size} members, need >= {k} "
                f"for {k}-fold stratification")
        rng.shuffle(members)
        for j, idx in enumerate(members):
            fold_members[j % k].append(int(idx))
    all_indices = np.arange(n)
    test_indices = [np.sort(np.array(f, dtype=np.intp)) for f in fold_members]
    train_indices = [np.setdiff1d(all_indices, t) for t in test_indices]
    return FoldSplit(train_indices=train_indices, test_indices=test_indices)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    loss: float
    train_acc: float
    val_acc: Optional[float] = None


def train(dataset, cfg: TrainConfig, train_mask=None, val_mask=None,
          adjacency: Optional[np.ndarray] = None):
    """Full-batch training loop.

    ``dataset`` needs ``X`` (N x d) and ``y`` (N integer labels); the loss
    only sees rows selected by ``train_mask`` (default: all). Returns the
    final parameters and the per-epoch history. Deterministic given
    ``cfg.seed``. A non-finite loss or row sum aborts with diagnostics.
    """
    x = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y)
    n = x.shape[0]
    train_idx = np.arange(n) if train_mask is None else ad.row_indices(train_mask, n)
    val_idx = None if val_mask is None else ad.row_indices(val_mask, n)
    if np.unique(y[train_idx]).size < 2:
        raise ContractError("training mask must contain at least 2 classes")
    rng = np.random.default_rng(cfg.seed)
    params = gcn.init_model(
        x[train_idx], int(y.max()) + 1, embed_hidden=cfg.embed_hidden,
        embed_dim=cfg.embed_dim, gc_widths=cfg.gc_widths, rng=rng,
        learn_graph=adjacency is None)
    tensors = params.tensors()
    state = AdamState(tensors)
    history: list[EpochRecord] = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        try:
            logits = gcn.forward(x, params, adjacency=adjacency)
            loss = ad.row_softmax_cross_entropy(logits, y, train_idx)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericalError("non-finite loss")
        except NumericalError as exc:  # a non-finite loss or row sum
            norms = ", ".join(f"{np.linalg.norm(t.values):.3e}" for t in tensors)
            raise NumericalError(
                f"{exc} at epoch {epoch}; parameter norms: [{norms}]") from None
        ad.backward(loss)
        adam_step(state, lr)
        preds = gcn.predict(logits)
        # free this epoch's tape before the next forward builds one
        del logits, loss
        train_acc = float(np.mean(preds[train_idx] == y[train_idx]))
        val_acc = None
        if val_idx is not None:
            val_acc = float(np.mean(preds[val_idx] == y[val_idx]))
        history.append(EpochRecord(epoch, lr, loss_value, train_acc, val_acc))
    return params, history


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    """Accuracy and macro one-vs-rest AUC for one evaluation.

    ``auc`` is None when no class has both positives and negatives among
    the evaluated rows (e.g. a single-class mask).
    """

    accuracy: float
    auc: Optional[float]


@dataclass
class CVMetrics:
    """Per-fold metrics plus their mean and (population) std."""

    folds: list[Metrics]
    accuracy_mean: float = field(init=False)
    accuracy_std: float = field(init=False)
    auc_mean: Optional[float] = field(init=False)
    auc_std: Optional[float] = field(init=False)

    def __post_init__(self) -> None:
        accs = np.array([m.accuracy for m in self.folds])
        self.accuracy_mean = float(accs.mean())
        self.accuracy_std = float(accs.std())
        aucs = [m.auc for m in self.folds if m.auc is not None]
        if aucs:
            arr = np.array(aucs)
            self.auc_mean = float(arr.mean())
            self.auc_std = float(arr.std())
        else:
            self.auc_mean = None
            self.auc_std = None

    def summary(self) -> str:
        line = f"accuracy: {self.accuracy_mean:.4f} ± {self.accuracy_std:.4f}"
        if self.auc_mean is not None:
            line += f", auc: {self.auc_mean:.4f} ± {self.auc_std:.4f}"
        else:
            line += ", auc: undefined"
        return line


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average rank: a group of tied
    scores ending at sorted position ``end`` spans ``end - count + 1 .. end``."""
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def binary_auc(scores, positives) -> Optional[float]:
    """ROC AUC by the rank-statistic (Mann-Whitney) formulation.

    Equivalent to pair counting with ties earning 0.5 credit. Returns
    None when either class is empty.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    rank_sum = ranks[positives].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_ovr_auc(scores: np.ndarray, labels: np.ndarray) -> Optional[float]:
    """Macro average of per-class one-vs-rest AUCs.

    Classes without both positives and negatives among the evaluated rows
    are skipped; returns None if every class is skipped.
    """
    per_class = []
    for cls in range(scores.shape[1]):
        auc = binary_auc(scores[:, cls], labels == cls)
        if auc is not None:
            per_class.append(auc)
    if not per_class:
        return None
    return float(np.mean(per_class))


def evaluate(params: gcn.ModelParams, dataset, mask,
             adjacency: Optional[np.ndarray] = None) -> Metrics:
    """Accuracy and macro OvR AUC (from softmax probabilities) on ``mask``.

    ``dataset.y`` must hold integer class ids, as the training loss reads
    them; float labels raise ContractError instead of scoring silently.
    """
    x = np.asarray(dataset.X, dtype=np.float64)
    y = ad._class_labels(dataset.y)
    idx = ad.row_indices(mask, x.shape[0])
    if idx.size == 0:
        raise ContractError("evaluation mask must be non-empty")
    with ad.no_grad():
        logits = gcn.forward(x, params, adjacency=adjacency)
    e = np.exp(logits.values - logits.values.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    preds = gcn.predict(logits)
    accuracy = float(np.mean(preds[idx] == y[idx]))
    auc = macro_ovr_auc(probs[idx], y[idx])
    return Metrics(accuracy=accuracy, auc=auc)


# ---------------------------------------------------------------------------
# cross-validation and inference


# The function and shared arguments of the running ``parallel_map``, set
# once in each of its worker processes by the pool initializer.
_worker_call = None


def _set_worker_call(fn, shared: tuple) -> None:
    global _worker_call
    _worker_call = (fn, shared)


def _run_worker_job(job):
    fn, shared = _worker_call
    return fn(*shared, job)


def parallel_map(fn, jobs: Sequence, n_workers: Optional[int] = None,
                 shared: tuple = ()) -> list:
    """``[fn(*shared, job) for job in jobs]``, fanned out over worker
    processes.

    ``n_workers`` defaults to the LATENTGRAPH_WORKERS environment variable
    (1 when unset or not an integer). No more processes start than there
    are jobs, and with one worker the jobs run in this process. ``fn`` and
    ``shared`` reach each worker once, when it starts, so a job carries
    only what differs between jobs. ``fn``, ``shared`` and the jobs must
    be picklable.
    """
    if n_workers is None:
        try:
            n_workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
        except ValueError:
            n_workers = 1
    workers = min(max(1, n_workers), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_call,
                                 initargs=(fn, shared)) as pool:
            return list(pool.map(_run_worker_job, jobs))
    return [fn(*shared, job) for job in jobs]


def _run_cv_fold(dataset, cfg: TrainConfig, split: FoldSplit,
                 adjacency: Optional[np.ndarray], fold: int) -> Metrics:
    params, _ = train(dataset, cfg, train_mask=split.train_indices[fold],
                      adjacency=adjacency)
    return evaluate(params, dataset, split.test_indices[fold], adjacency=adjacency)


def cross_validate(dataset, cfg: TrainConfig,
                   adjacency: Optional[np.ndarray] = None,
                   n_workers: Optional[int] = None) -> CVMetrics:
    """Stratified k-fold CV of the full model (transductive protocol).

    Every fold trains on the whole graph with only its train rows
    labeled, then scores the held-out rows. Without ``adjacency`` the
    graph is learned; with one (e.g. :func:`knn_adjacency`) every fold
    trains on that fixed graph. Fold jobs run through :func:`parallel_map`
    with ``n_workers``; the dataset, the split and the adjacency are
    shared, so a job is its fold number.
    """
    split = stratified_kfold(dataset.y, cfg.folds, cfg.seed)
    return CVMetrics(folds=parallel_map(_run_cv_fold, range(cfg.folds), n_workers,
                                        shared=(dataset, cfg, split, adjacency)))


def inductive_infer(params: gcn.ModelParams, train_X, test_X) -> np.ndarray:
    """Predict labels for unseen nodes with frozen parameters.

    The union of training and test rows is embedded, the adjacency is
    built over that union, and predictions are returned for the test rows
    only, so unseen nodes receive messages from the training population.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    test_X = np.asarray(test_X, dtype=np.float64)
    if train_X.shape[1] != test_X.shape[1]:
        raise DimensionError(
            f"test features have width {test_X.shape[1]}, expected {train_X.shape[1]}")
    with ad.no_grad():
        logits = gcn.forward(np.vstack([train_X, test_X]), params)
    return gcn.predict(logits)[train_X.shape[0]:]


# ---------------------------------------------------------------------------
# baselines

# L2 penalty of the ridge baseline.
RIDGE_PENALTY = 1.0


def ridge_fit(features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-vs-rest ridge weights by the regularized normal equations.

    Features are augmented with a constant column; the regularizer keeps
    the system nonsingular for any input.
    """
    x = np.hstack([features, np.ones((features.shape[0], 1))])
    targets = np.zeros((x.shape[0], n_classes))
    targets[np.arange(x.shape[0]), labels] = 1.0
    gram = x.T @ x + RIDGE_PENALTY * np.eye(x.shape[1])
    return np.linalg.solve(gram, x.T @ targets)


def linear_baseline(dataset, folds: FoldSplit) -> CVMetrics:
    """Ridge-regression classifier under the same CV protocol."""
    x = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y)
    n_classes = int(y.max()) + 1
    fold_metrics = []
    for tr, te in zip(folds.train_indices, folds.test_indices):
        weights = ridge_fit(x[tr], y[tr], n_classes)
        scores = np.hstack([x[te], np.ones((te.size, 1))]) @ weights
        accuracy = float(np.mean(np.argmax(scores, axis=1) == y[te]))
        auc = macro_ovr_auc(scores, y[te])
        fold_metrics.append(Metrics(accuracy=accuracy, auc=auc))
    return CVMetrics(folds=fold_metrics)


def knn_adjacency(features: np.ndarray, k_neighbors: int) -> np.ndarray:
    """Symmetrized binary kNN graph on raw feature distances. Each node
    picks its ``k_neighbors`` nearest other nodes; among equal distances
    the lowest node indices win."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if not (0 < k_neighbors < n):
        raise ContractError(f"need 0 < k_neighbors < {n}, got {k_neighbors}")
    dists = ad.pairwise_euclidean(features).values
    np.fill_diagonal(dists, np.inf)
    # every distance below the k-th smallest, then the lowest columns among
    # those equal to it: a stable sort's first k, without sorting the rows
    kth = np.partition(dists, k_neighbors - 1, axis=1)[:, k_neighbors - 1:k_neighbors]
    below = dists < kth
    ties = dists == kth
    open_slots = k_neighbors - below.sum(axis=1, keepdims=True)
    adjacency = (below | (ties & (np.cumsum(ties, axis=1) <= open_slots))).astype(np.float64)
    return np.maximum(adjacency, adjacency.T)
