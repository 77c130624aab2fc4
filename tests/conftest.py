import csv

import numpy as np
# np.unique and np.median import numpy.ma on first use; imported here, the
# module's allocations fall outside every tracemalloc window, so a memory
# bound reads the same whether its test runs alone or after others
import numpy.ma  # noqa: F401
import pytest

from latentgraph import autodiff as ad
from latentgraph.data_io import TabularDataset


def zero_fill_backward(loss):
    """Reference sweep: a zeroed gradient for every tape node up front, in
    the form the node takes (an empty list of shares for a
    ``row_normalize`` output, a zeroed N x (k + 1) contraction for
    distances), each adjoint adds into it, and every buffer is kept. Edge
    weights take one gradient, which becomes their buffer, so theirs
    starts at None."""
    tape = ad.build_tape(loss)
    for t in tape:
        if isinstance(t, ad._RowNormalized):
            t.grad = []
        elif isinstance(t, ad._EdgeWeights):
            t.grad = None
        elif isinstance(t, ad._Distances):
            t.grad = np.zeros((t.shape[0], t.rows.shape[1] + 1))
        else:
            t.grad = np.zeros(t.shape)
    loss.grad = np.ones(())
    for t in reversed(tape):
        if t._adjoint is not None:
            t._adjoint(t.grad)


def make_blobs(n_per_class=20, n_classes=2, n_features=5, separation=6.0, seed=0):
    """Well-separated Gaussian blobs; linearly separable by construction."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, n_features))
    centers = separation * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    rows, labels = [], []
    for cls in range(n_classes):
        rows.append(centers[cls] + rng.normal(size=(n_per_class, n_features)))
        labels.extend([cls] * n_per_class)
    x = np.vstack(rows)
    y = np.array(labels, dtype=np.intp)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    return TabularDataset(
        node_ids=[f"n{i:03d}" for i in range(len(y))],
        X=x, y=y,
        class_names=[f"c{c}" for c in range(n_classes)],
        feature_names=[f"f{j}" for j in range(n_features)],
    )


def write_dataset_csv(path, dataset, label_col="dx", fmt=".17g"):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", label_col, *dataset.feature_names])
        for i in range(dataset.n_nodes):
            writer.writerow([dataset.node_ids[i],
                             dataset.class_names[dataset.y[i]],
                             *(format(v, fmt) for v in dataset.X[i])])


@pytest.fixture
def blobs():
    return make_blobs()


@pytest.fixture
def forbid_forming_the_operator(monkeypatch):
    """Call it to make every later read of a ``row_normalize`` output's
    ``values``, which forms P = A / rowsum(A), fail the test."""
    def formed(self):
        raise AssertionError("the row-normalized operator P was formed")

    def forbid():
        monkeypatch.setattr(ad._RowNormalized, "values", property(formed))
    return forbid


@pytest.fixture
def forbid_mirroring_the_edge_weights(monkeypatch):
    """Call it to make every later read of ``sigmoid``'s edge weights'
    ``values``, which mirrors their tile pairs into an N x N array, fail
    the test."""
    def mirrored(self):
        raise AssertionError("the edge weights were mirrored into an N x N array")

    def forbid():
        monkeypatch.setattr(ad._EdgeWeights, "values", property(mirrored))
    return forbid
