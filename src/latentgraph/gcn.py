"""Node classifier: degree-normalized graph convolutions over the learned
adjacency, followed by a fully connected head."""

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
    """Every trainable tensor of the model.

    ``embedder`` and ``edge`` are None for the static-graph variant that
    trains over a fixed adjacency instead of learning one. The graph
    convolutions have no bias; the FC head does.
    """

    embedder: gl.EmbedderParams | None
    edge: gl.EdgeParams | None
    gc_weights: list[Tensor]
    fc_weight: Tensor
    fc_bias: Tensor

    def tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        if self.embedder is not None:
            out.extend(self.embedder.tensors())
        if self.edge is not None:
            out.extend(self.edge.tensors())
        return [*out, *self.gc_weights, self.fc_weight, self.fc_bias]


def init_model(features: np.ndarray, n_classes: int, *,
               embed_hidden: Sequence[int] = (64,), embed_dim: int = 16,
               gc_widths: Sequence[int] = (16, 8),
               rng: np.random.Generator, learn_graph: bool = True) -> ModelParams:
    """Initialize all parameters for an N x d feature matrix.

    The edge scalars are calibrated on the embedding of ``features``
    under the freshly initialized embedder, so the initial graph starts
    with a sensible mix of strong and weak edges.
    """
    features = np.asarray(features, dtype=np.float64)
    n_features = features.shape[1]
    embedder = None
    edge = None
    if learn_graph:
        embedder = gl.init_embedder([n_features, *embed_hidden, embed_dim], rng)
        with ad.no_grad():
            edge = gl.init_edge_params(gl.embed(features, embedder))
    gc_weights = []
    width_in = n_features
    for width_out in gc_widths:
        gc_weights.append(ad.parameter(gl.glorot_uniform(rng, width_in, width_out)))
        width_in = width_out
    fc_weight = ad.parameter(gl.glorot_uniform(rng, width_in, n_classes))
    fc_bias = ad.parameter(np.zeros((1, n_classes)))
    return ModelParams(embedder=embedder, edge=edge, gc_weights=gc_weights,
                       fc_weight=fc_weight, fc_bias=fc_bias)


def forward(features, params: ModelParams, adjacency=None) -> Tensor:
    """Logits for every node.

    Pipeline: embed -> soft adjacency -> stacked graph convolutions with
    ReLU after each -> linear FC head. Each convolution maps row i to
    (sum_j a_ij * h_j / sum_j a_ij) @ W; the adjacency's row sums are
    computed once per forward pass and shared by all layers, and the
    normalized adjacency is never formed. Passing ``adjacency``
    short-circuits the graph-learning stage (static-graph baseline).
    """
    x = ad.as_tensor(features)
    if adjacency is None:
        if params.embedder is None or params.edge is None:
            raise DimensionError(
                "model has no graph-learning parameters; pass an adjacency")
        embedding = gl.embed(x, params.embedder)
        a = gl.soft_adjacency(embedding, params.edge)
    else:
        a = ad.as_tensor(adjacency)
    if a.values.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"adjacency must be square, got {a.shape}")
    if a.shape[1] != x.shape[0]:
        raise DimensionError(f"adjacency {a.shape} does not match features {x.shape}")
    operator = ad.row_normalize(a)
    h = x
    for w in params.gc_weights:
        h = ad.relu(ad.matmul(operator, ad.matmul(h, w)))
    return ad.add(ad.matmul(h, params.fc_weight), params.fc_bias)


def predict(logits) -> np.ndarray:
    """Row-wise argmax; ties break toward the lowest class index."""
    values = logits.values if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(values, axis=1)
