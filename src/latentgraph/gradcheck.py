"""Finite-difference validation of the autodiff operations and the model.

One harness, :func:`relative_error`, checks every gradient: it runs
``backward`` on a scalar loss, then perturbs each parameter entry in place
by ±``FD_STEP``, re-evaluates the loss forward only, and restores the entry
exactly. The oracle never reads the recorded adjoints, so it checks them
independently. An op check scores the op on random parameters by a random
linear functional of its output; the end-to-end check is the model's masked
cross-entropy over all of its parameters. Used by the tests and the
``gradcheck`` CLI command.
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


def relative_error(loss_of: Callable[[], Tensor],
                   params: Sequence[Tensor]) -> float:
    """Worst error of the autodiff gradients of ``loss_of()`` against central
    differences, each scaled by its largest reference magnitude; every
    parameter entry is perturbed in place and restored bit for bit."""
    ad.backward(loss_of())
    worst = 0.0
    for p in params:
        numeric = np.empty_like(p.values)
        for i in np.ndindex(p.shape):
            original = p.values[i]
            p.values[i] = original + FD_STEP
            up = loss_of().item()
            p.values[i] = original - FD_STEP
            down = loss_of().item()
            p.values[i] = original
            numeric[i] = (up - down) / (2.0 * FD_STEP)
        scale = max(float(np.max(np.abs(numeric))), 1e-6)
        worst = max(worst, float(np.max(np.abs(p.grad - numeric))) / scale)
    return worst


def _shared_operator(a: Tensor, h: Tensor, w: Tensor) -> Tensor:
    """Two graph convolutions sharing one row-normalized operator, as in
    the GCN, so the operator's gradient arrives as the factors of two
    ``matmul``s."""
    operator = ad.row_normalize(ad.sigmoid(a, -1.0, 0.0))
    return ad.matmul(operator, ad.matmul(ad.matmul(operator, h), w))


def op_checks(seed: int = 0, instances: int = 10) -> dict[str, float]:
    """Worst finite-difference error over ``instances`` random inputs,
    keyed by op name."""
    rng = np.random.default_rng(seed)
    labels = np.array([0, 2, 1, 1, 0, 2])
    mask = np.array([True, False, True, True, False, True])
    # name -> (op on parameter tensors, shapes of those parameters); a name
    # "<op>_<variant>" checks another operand layout of <op>
    checks = {
        "matmul": (ad.matmul, [(4, 5), (5, 3)]),
        "add": (ad.add, [(4, 4), (4, 4)]),
        "add_broadcast": (ad.add, [(4, 4), (1, 4)]),
        "mul": (ad.mul, [(4, 4), (4, 4)]),
        "mul_scalar_tensor": (ad.mul, [(), (4, 4)]),
        "sum_all": (ad.sum_all, [(4, 4)]),
        "relu": (ad.relu, [(4, 4)]),
        "sigmoid": (ad.sigmoid, [(5, 5), (), ()]),
        "tanh": (ad.tanh, [(4, 4)]),
        "softplus": (ad.softplus, [(4, 4)]),
        "pairwise_euclidean": (ad.pairwise_euclidean, [(6, 3)]),
        "row_normalize": (lambda a: ad.row_normalize(ad.sigmoid(a, -1.0, 0.0)), [(5, 5)]),
        "row_normalize_operator": (_shared_operator, [(5, 5), (5, 3), (3, 2)]),
        "row_softmax_cross_entropy": (
            lambda z: ad.row_softmax_cross_entropy(z, labels, mask), [(6, 3)]),
    }
    results: dict[str, float] = {}
    for name, (op, shapes) in checks.items():
        worst = 0.0
        for _ in range(instances):
            params = [ad.parameter(rng.uniform(-2.0, 2.0, size=s)) for s in shapes]
            # a random linear functional gives non-uniform output gradients
            weight = rng.normal(size=op(*params).shape)
            worst = max(worst, relative_error(
                lambda: ad.sum_all(ad.mul(op(*params), weight)), params))
        results[name] = worst
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
        worst = max(worst, relative_error(
            lambda: ad.row_softmax_cross_entropy(gcn.forward(x, params), y, mask),
            params.tensors()))
    return worst


def run_gradcheck(seed: int = 0) -> dict[str, float]:
    """Per-op and end-to-end finite-difference errors, 10 instances each."""
    results = op_checks(seed=seed)
    results["end_to_end"] = end_to_end_check(seed=seed)
    return results
