"""Finite-difference validation of every autodiff operation.

The oracle is central differences on the forward values only; it never
touches the recorded adjoints, so it independently checks them. Shared
by the test suite and the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import gcn
from .autodiff import Tensor

# Largest accepted relative error against finite differences: for each op
# alone, and for the whole model loss, whose longer chain of rounding
# (the learned adjacency and its normalization included) needs more room.
OP_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3
# Step of the central differences.
FD_STEP = 1e-5


def finite_difference(fn: Callable[[Sequence[np.ndarray]], float],
                      arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradients (step ``FD_STEP``) of a scalar function
    of arrays."""
    grads = []
    for k, base in enumerate(arrays):
        grad = np.zeros_like(base)
        flat = base.ravel()
        grad_flat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + FD_STEP
            up = fn(arrays)
            flat[i] = original - FD_STEP
            down = fn(arrays)
            flat[i] = original
            grad_flat[i] = (up - down) / (2.0 * FD_STEP)
        grads.append(grad)
    return grads


def max_relative_error(analytic: Sequence[np.ndarray],
                       numeric: Sequence[np.ndarray]) -> float:
    """Max |a - b| normalized by the largest reference magnitude."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        scale = max(float(np.max(np.abs(b))), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


def _check(build: Callable[[list[Tensor]], Tensor],
           shapes: Sequence[tuple[int, ...]],
           rng: np.random.Generator, instances: int) -> float:
    """Worst relative error of autodiff vs finite differences."""
    worst = 0.0
    for _ in range(instances):
        arrays = [rng.uniform(-2.0, 2.0, size=s) for s in shapes]

        def value(arrs: Sequence[np.ndarray]) -> float:
            return build([ad.as_tensor(a) for a in arrs]).item()

        params = [ad.parameter(a.copy()) for a in arrays]
        loss = build(params)
        ad.backward(loss)
        analytic = [p.grad for p in params]
        numeric = finite_difference(value, [a.copy() for a in arrays])
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def _scalarize(out: Tensor, weight: np.ndarray) -> Tensor:
    # Random linear functional of the op output, so each op check
    # exercises a scalar loss with non-uniform output gradients.
    return ad.sum_all(ad.mul(out, ad.as_tensor(weight)))


def op_checks(seed: int = 0, instances: int = 10) -> dict[str, float]:
    """Finite-difference error per operation, keyed by op name."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def weight(shape: tuple[int, ...]) -> np.ndarray:
        return rng.normal(size=shape)

    w_mat = weight((4, 3))
    results["matmul"] = _check(
        lambda t: _scalarize(ad.matmul(t[0], t[1]), w_mat),
        [(4, 5), (5, 3)], rng, instances)
    w_sq = weight((4, 4))
    results["add"] = _check(
        lambda t: _scalarize(ad.add(t[0], t[1]), w_sq),
        [(4, 4), (4, 4)], rng, instances)
    results["add_broadcast"] = _check(
        lambda t: _scalarize(ad.add(t[0], t[1]), w_sq),
        [(4, 4), (1, 4)], rng, instances)
    results["subtract"] = _check(
        lambda t: _scalarize(ad.subtract(t[0], t[1]), w_sq),
        [(4, 4), (4, 4)], rng, instances)
    results["subtract_scalar"] = _check(
        lambda t: _scalarize(ad.subtract(t[0], t[1]), w_sq),
        [(), (4, 4)], rng, instances)
    results["mul"] = _check(
        lambda t: _scalarize(ad.mul(t[0], t[1]), w_sq),
        [(4, 4), (4, 4)], rng, instances)
    results["mul_scalar_tensor"] = _check(
        lambda t: _scalarize(ad.mul(t[0], t[1]), w_sq),
        [(), (4, 4)], rng, instances)
    results["scalar_mul"] = _check(
        lambda t: _scalarize(ad.scalar_mul(t[0], 1.7), w_sq),
        [(4, 4)], rng, instances)
    results["sum_all"] = _check(
        lambda t: ad.sum_all(t[0]), [(4, 4)], rng, instances)
    results["relu"] = _check(
        lambda t: _scalarize(ad.relu(t[0]), w_sq),
        [(4, 4)], rng, instances)
    results["sigmoid"] = _check(
        lambda t: _scalarize(ad.sigmoid(t[0]), w_sq),
        [(4, 4)], rng, instances)
    results["tanh"] = _check(
        lambda t: _scalarize(ad.tanh(t[0]), w_sq),
        [(4, 4)], rng, instances)
    results["softplus"] = _check(
        lambda t: _scalarize(ad.softplus(t[0]), w_sq),
        [(4, 4)], rng, instances)
    w_pair = weight((6, 6))
    results["pairwise_euclidean"] = _check(
        lambda t: _scalarize(ad.pairwise_euclidean(t[0]), w_pair),
        [(6, 3)], rng, instances)
    w_norm = weight((5, 5))
    results["row_normalize"] = _check(
        lambda t: _scalarize(ad.row_normalize(ad.sigmoid(t[0])), w_norm),
        [(5, 5)], rng, instances)
    ce_labels = rng.integers(0, 3, size=6)
    ce_mask = np.array([True, False, True, True, False, True])
    results["row_softmax_cross_entropy"] = _check(
        lambda t: ad.row_softmax_cross_entropy(t[0], ce_labels, ce_mask),
        [(6, 3)], rng, instances)
    return results


def end_to_end_check(seed: int = 0, instances: int = 10) -> float:
    """Finite differences through the whole model loss, all parameters.

    Covers the full pipeline including the learned adjacency and its
    row normalization; its tolerance, ``END_TO_END_TOLERANCE``, is looser
    than ``OP_TOLERANCE`` for individual ops.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n, d, classes = 9, 5, 3
        x = rng.uniform(-2.0, 2.0, size=(n, d))
        y = rng.integers(0, classes, size=n)
        mask = np.ones(n, dtype=bool)
        mask[rng.integers(0, n)] = False
        params = gcn.init_model(x, classes, embed_hidden=(6,), embed_dim=3,
                                gc_widths=(5, 4), rng=rng)
        tensors = params.tensors()

        def loss_value(arrays: Sequence[np.ndarray]) -> float:
            for t, a in zip(tensors, arrays):
                t.values = a.astype(np.float64)
            logits = gcn.forward(x, params)
            return ad.row_softmax_cross_entropy(logits, y, mask).item()

        arrays = [t.values.copy() for t in tensors]
        loss = ad.row_softmax_cross_entropy(gcn.forward(x, params), y, mask)
        ad.backward(loss)
        analytic = [t.grad.copy() for t in tensors]
        numeric = finite_difference(loss_value, arrays)
        for t, a in zip(tensors, arrays):
            t.values = a
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def run_gradcheck(seed: int = 0) -> dict[str, float]:
    """Per-op and end-to-end finite-difference errors, 10 instances each."""
    results = op_checks(seed=seed)
    results["end_to_end"] = end_to_end_check(seed=seed)
    return results
