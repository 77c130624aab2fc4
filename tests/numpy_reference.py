"""The learned graph in plain numpy, to check the tiled kernels against.

Nothing here calls ``latentgraph.autodiff``. The edge weights over the rows
of an embedding e are s_ij = 1 / (1 + exp(t (d_ij - theta))), with the
distances d_ij = |e_i - e_j| formed from the differences, not from the Gram
matrix, and the graph operator is P = S / rowsum(S). Each ``*_vjp`` is the
closed form of a gradient: the gradients of sum(dX * X) for the inputs of
X, given dX.
"""

import numpy as np

# the engine's smoothing: the gradient of d_ij divides by
# sqrt(d_ij^2 + DISTANCE_EPS), which defines it as 0 at coincident points
from latentgraph.autodiff import DISTANCE_EPS


def differences(e):
    """e_i - e_j for every pair, N x N x k."""
    return e[:, None, :] - e[None, :, :]


def distances(e):
    return np.sqrt((differences(e) ** 2).sum(axis=-1))


def edge_weights(e, t, theta):
    return 1.0 / (1.0 + np.exp(t * (distances(e) - theta)))


def pairwise_gradient(w, e):
    """The gradient of sum(w * D(e)) for e, with the smoothed denominator
    and 0 on the diagonal."""
    diff = differences(e)
    s = (w + w.T) / np.sqrt((diff ** 2).sum(axis=-1) + DISTANCE_EPS)
    np.fill_diagonal(s, 0.0)
    return (s[:, :, None] * diff).sum(axis=1)


def edge_weights_vjp(e, t, theta, ds):
    """The gradients of sum(ds * S) for e, t and theta, where S is
    ``edge_weights(e, t, theta)``."""
    d = distances(e)
    s = 1.0 / (1.0 + np.exp(t * (d - theta)))
    dz = ds * s * (1.0 - s)  # the gradient of z = t (theta - d)
    return pairwise_gradient(-t * dz, e), (dz * (theta - d)).sum(), t * dz.sum()


def row_normalize_vjp(a, dp):
    """The gradient of sum(dp * P) for A, where P = A / rowsum(A):
    (dP - rowdot(dP, P)) / rowsum(A)."""
    sums = a.sum(axis=1, keepdims=True)
    return (dp - (dp * (a / sums)).sum(axis=1, keepdims=True)) / sums
