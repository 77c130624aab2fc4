"""Learned population graph: feature embedder and soft adjacency.

Node features are embedded into a low-dimensional Euclidean space by a
small MLP; edge weights are a sigmoid of a learnable affine function of
the embedded pairwise distances,

    a_ij = sigmoid(temperature * (threshold - d_ij)),

so edges decay smoothly with embedded distance and the temperature
sharpens the graph toward a binary one as it grows. Both scalars are
trained jointly with everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

# One dense N x N float64 matrix is 8 * N^2 bytes (3.2 GB at the cap), and a
# training step holds about 18 of them at its peak: ~58 GB at the cap. The
# cap bounds the matrix size only; it does not check available memory.
MAX_GRAPH_NODES = 20_000

# Effective temperature at initialization; softplus(raw) == this value.
INITIAL_TEMPERATURE = 2.0


@dataclass
class EmbedderParams:
    """Weights and biases of the embedding MLP (tanh hidden activations)."""

    weights: list[Tensor]
    biases: list[Tensor]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.weights[-1].shape[1]

    def tensors(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


@dataclass
class EdgeParams:
    """Learnable edge scalars.

    ``raw_temperature`` is unconstrained; the effective temperature is
    softplus(raw_temperature) > 0. ``threshold`` is the embedded distance
    at which an edge weight crosses 0.5.
    """

    raw_temperature: Tensor
    threshold: Tensor

    def temperature(self) -> Tensor:
        return ad.softplus(self.raw_temperature)

    def tensors(self) -> list[Tensor]:
        return [self.raw_temperature, self.threshold]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


def init_embedder(widths: Sequence[int], rng: np.random.Generator) -> EmbedderParams:
    """MLP parameters for layer widths ``[d, hidden..., k]``; zero biases."""
    if len(widths) < 2:
        raise ContractError("embedder needs at least input and output widths")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(ad.parameter(glorot_uniform(rng, fan_in, fan_out)))
        biases.append(ad.parameter(np.zeros((1, fan_out))))
    return EmbedderParams(weights=weights, biases=biases)


def embed(features, params: EmbedderParams) -> Tensor:
    """Row-wise embedding of ``features`` (N x d) into N x k.

    tanh between layers, linear output layer; differentiable with
    respect to both the features and the MLP parameters.
    """
    x = ad.as_tensor(features)
    if x.values.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(
            f"embedder expects (N,{params.input_dim}) features, got {x.shape}")
    last = len(params.weights) - 1
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.tanh(h)
    return h


def pairwise_distances(values: np.ndarray) -> np.ndarray:
    """Plain-numpy pairwise Euclidean distances (no gradient)."""
    return ad.pairwise_euclidean(np.asarray(values, dtype=np.float64)).values


def init_edge_params(initial_embedding) -> EdgeParams:
    """Edge scalars calibrated on the initial embedding.

    The threshold starts at the median off-diagonal pairwise distance so
    roughly half of all candidate edges start above 0.5; the raw
    temperature is the softplus preimage of INITIAL_TEMPERATURE. With
    fewer than two rows the threshold defaults to 1.0.
    """
    values = initial_embedding.values if isinstance(initial_embedding, Tensor) \
        else np.asarray(initial_embedding, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        threshold = 1.0
    else:
        dists = pairwise_distances(values)
        off_diag = dists[~np.eye(n, dtype=bool)]
        threshold = float(np.median(off_diag))
    raw_temperature = float(np.log(np.expm1(INITIAL_TEMPERATURE)))
    return EdgeParams(
        raw_temperature=ad.parameter(np.asarray(raw_temperature)),
        threshold=ad.parameter(np.asarray(threshold)),
    )


def soft_adjacency(embedding, edge: EdgeParams) -> Tensor:
    """Weighted adjacency from embedded features.

    Entry (i, j) is sigmoid(temperature * (threshold - d_ij)) where d_ij
    is the embedded Euclidean distance. The result is exactly symmetric,
    has every entry strictly inside (0, 1) barring float underflow at
    extreme saturation, equals sigmoid(temperature * threshold) on the
    diagonal, and is strictly decreasing in distance.
    """
    e = ad.as_tensor(embedding)
    n = e.shape[0]
    if n > MAX_GRAPH_NODES:
        raise ContractError(
            f"{n} nodes exceeds the dense-adjacency cap of {MAX_GRAPH_NODES} "
            f"(an N x N float64 matrix at N={n} is ~{8 * n * n / 1e9:.1f} GB)")
    distances = ad.pairwise_euclidean(e)
    temperature = edge.temperature()
    return ad.sigmoid(ad.mul(temperature, ad.subtract(edge.threshold, distances)))
