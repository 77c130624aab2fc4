"""Learned population graph: feature embedder and soft adjacency.

Node features are embedded into a low-dimensional Euclidean space by a
small MLP; edge weights are a sigmoid of a learnable affine function of
the embedded pairwise distances,

    a_ij = sigmoid(temperature * (threshold - d_ij)),

so edges decay smoothly with embedded distance and the temperature
sharpens the graph toward a binary one as it grows. Both scalars are
trained jointly with everything else. The affine map is folded into the
sigmoid op, and the distances are lazy, so a step stores one N x N value
here, the edge weights, as their upper tile pairs: about half an N x N
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

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
        # the distances are exactly symmetric, so the median of the pairs
        # above the diagonal, gathered tile pair by tile pair into one
        # buffer, is the off-diagonal median, bit for bit
        dists = ad.pairwise_euclidean(values)  # checks the node cap first
        upper = np.empty(n * (n - 1) // 2)
        filled = 0
        for rows, cols, d in dists.tile_pairs():
            pairs = d[np.triu_indices(len(d), 1)] if rows == cols else d.ravel()
            upper[filled:filled + pairs.size] = pairs
            filled += pairs.size
        threshold = float(np.median(upper, overwrite_input=True))
    raw_temperature = float(np.log(np.expm1(INITIAL_TEMPERATURE)))
    return EdgeParams(
        raw_temperature=ad.parameter(np.asarray(raw_temperature)),
        threshold=ad.parameter(np.asarray(threshold)),
    )


def soft_adjacency(embedding, edge: EdgeParams) -> Tensor:
    """Weighted adjacency from embedded features.

    Entry (i, j) is sigmoid(temperature * (threshold - d_ij)) where d_ij
    is the embedded Euclidean distance; one ``ad.sigmoid`` call on the
    lazy distances and the two edge scalars computes it tile pair by tile
    pair and keeps each upper tile pair once, so the edge weights are the
    one N x N value stored, in about half an N x N array; reading their
    ``values`` forms the whole array. This is the
    one form the learned graph's ops take a gradient in: the distances only
    through this sigmoid, its edge weights from one consumer, either
    ``ad.row_normalize`` or an elementwise op as in the recovery objective.
    The result is exactly symmetric, has every entry strictly inside (0, 1)
    barring float underflow at extreme saturation, equals
    sigmoid(temperature * threshold) on the diagonal, and is strictly
    decreasing in distance.
    ``ad.pairwise_euclidean`` enforces the node cap before allocating.
    """
    return ad.sigmoid(ad.pairwise_euclidean(embedding), edge.temperature(), edge.threshold)
