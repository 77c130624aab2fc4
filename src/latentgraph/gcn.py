"""Node classifier: degree-normalized graph convolutions over the learned
graph, or over a static one the model keeps, then a fully connected head."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import graph_learning as gl
from .autodiff import Tensor
from .errors import DimensionError


@dataclass
class ModelParams:
    """Every trainable tensor of the model, and its static graph if any.

    ``embedder`` and ``edge`` are None for the static-graph variant, which
    keeps its fixed adjacency, row-normalized once, as ``graph``. The
    graph convolutions have no bias; the FC head does.
    """

    embedder: gl.EmbedderParams | None
    edge: gl.EdgeParams | None
    gc_weights: list[Tensor]
    fc_weight: Tensor
    fc_bias: Tensor
    graph: Tensor | None

    def tensors(self) -> list[Tensor]:
        learned = [] if self.graph is not None else [
            *self.embedder.tensors(), *self.edge.tensors()]
        return [*learned, *self.gc_weights, self.fc_weight, self.fc_bias]


def init_model(features: np.ndarray, n_classes: int, *,
               embed_hidden: Sequence[int] = (64,), embed_dim: int = 16,
               gc_widths: Sequence[int] = (16, 8),
               rng: np.random.Generator,
               adjacency: np.ndarray | None = None) -> ModelParams:
    """Initialize all parameters for an N x d feature matrix.

    The edge scalars are calibrated on the embedding of ``features``
    under the freshly initialized embedder, so the initial graph starts
    with a sensible mix of strong and weak edges. A square ``adjacency``
    over every node replaces the learned graph, row-normalized once.
    """
    features = np.asarray(features, dtype=np.float64)
    n_features = features.shape[1]
    embedder = edge = graph = None
    if adjacency is None:
        embedder = gl.init_embedder([n_features, *embed_hidden, embed_dim], rng)
        with ad.no_grad():
            edge = gl.init_edge_params(gl.embed(features, embedder))
    else:
        a = ad.as_tensor(adjacency)
        if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency must be square, got {a.shape}")
        graph = ad.row_normalize(a)
    gc_weights = []
    width_in = n_features
    for width_out in gc_widths:
        gc_weights.append(ad.parameter(gl.glorot_uniform(rng, width_in, width_out)))
        width_in = width_out
    fc_weight = ad.parameter(gl.glorot_uniform(rng, width_in, n_classes))
    fc_bias = ad.parameter(np.zeros((1, n_classes)))
    return ModelParams(embedder=embedder, edge=edge, gc_weights=gc_weights,
                       fc_weight=fc_weight, fc_bias=fc_bias, graph=graph)


def forward(features, params: ModelParams) -> Tensor:
    """Logits for every node.

    Pipeline: embed -> soft adjacency -> stacked graph convolutions with
    ReLU after each -> linear FC head. Each convolution maps row i to
    (sum_j a_ij * h_j / sum_j a_ij) @ W; the adjacency's row sums are
    computed once per forward pass and shared by all layers, and the
    normalized adjacency is never formed. A static-graph model skips the
    graph-learning stage; its ``graph`` must have a row per feature row.
    """
    x = ad.as_tensor(features)
    if params.graph is None:
        operator = ad.row_normalize(
            gl.soft_adjacency(gl.embed(x, params.embedder), params.edge))
    else:
        operator = params.graph
        if operator.shape[0] != x.shape[0]:
            raise DimensionError(f"adjacency {operator.shape} does not match features {x.shape}")
    h = x
    for w in params.gc_weights:
        h = ad.relu(ad.matmul(operator, ad.matmul(h, w)))
    return ad.add(ad.matmul(h, params.fc_weight), params.fc_bias)


def predict(logits) -> np.ndarray:
    """Row-wise argmax; ties break toward the lowest class index."""
    values = logits.values if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(values, axis=1)
