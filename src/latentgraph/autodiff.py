"""Minimal dense-tensor reverse-mode automatic differentiation.

Every differentiable operation computes its result eagerly on float64
numpy buffers and records an adjoint closure on the output tensor. The
recorded graph is dynamic: it is rebuilt on every forward pass, and
``backward`` replays the adjoints in reverse execution order. Only
tensors that depend on a parameter are recorded and get a gradient:
constants (features, a static adjacency, targets) are never on the tape,
and their ``grad`` stays None. A tensor's first gradient contribution
becomes its buffer and later ones are added into it; a recorded tensor's
gradient is released once its adjoint has run, so after ``backward`` only
the leaves and the root hold one. The engine is deliberately small; it
supports exactly the operations the graph-learning models need, all in
double precision so that gradients can be validated against central
finite differences to tight tolerances.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

# Smoothing added under the square root when differentiating pairwise
# distances, so the gradient at coincident points is 0 instead of NaN.
DISTANCE_EPS = 1e-12

# Guard added to row sums before normalization.
DEGREE_EPS = 1e-12


class Tensor:
    """Dense float64 array with a gradient buffer and an op record.

    Leaves are built directly from data. An op output that depends on a
    parameter also carries the op name, the inputs that need a gradient,
    and a closure that propagates the output gradient to them; any other
    op output is a constant that never reaches a tape, so ``grad`` stays
    None.
    """

    __slots__ = ("values", "grad", "requires_grad", "op", "parents", "_adjoint")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self._adjoint: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        tag = self.op or ("param" if self.requires_grad else "leaf")
        return f"Tensor(shape={self.shape}, op={tag})"


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant leaves; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def parameter(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(values, requires_grad=True)


def _record(values: np.ndarray, op: str, inputs: tuple[Tensor, ...],
            adjoint: Callable[[np.ndarray], None]) -> Tensor:
    """The output of ``op``: recorded, with the inputs that need a gradient
    as ``parents`` (the only ones ``adjoint`` may write to), or, when no
    input needs one, a constant that never reaches a tape."""
    # a list comprehension costs less than a generator on this per-op path
    parents = tuple([t for t in inputs if t.requires_grad])
    if not parents:
        return Tensor(values)
    out = Tensor(values, requires_grad=True)
    out.op = op
    out.parents = parents
    out._adjoint = adjoint
    return out


def build_tape(root: Tensor) -> list[Tensor]:
    """All tensors reachable from ``root``, inputs before outputs.

    The returned list is a valid forward execution order, so replaying
    adjoints over ``reversed(tape)`` visits every recorded operation
    exactly once with its output gradient fully accumulated.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Compute dLoss/dTensor for every tensor on the tape.

    ``loss`` must be a scalar (shape ``()``). Constants are not on the
    tape, so their ``grad`` stays None. Every ``grad`` on the tape is
    cleared first, so repeated calls do not leak gradients across passes.
    The first contribution a tensor receives becomes its buffer. A
    recorded tensor's gradient is released as soon as its adjoint has run,
    so afterwards only the leaves hold a gradient, and ``loss.grad`` is 1.
    """
    if loss.values.ndim != 0:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}")
    tape = build_tape(loss)
    for t in tape:
        t.grad = None
    loss.grad = np.ones(())
    for t in reversed(tape):
        if t._adjoint is not None:
            g, t.grad = t.grad, None
            t._adjoint(g)
    # the root's first buffer may now belong to a parent
    loss.grad = np.ones(())


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add the contribution ``g`` to ``t.grad``. The first one becomes the
    buffer itself, so an adjoint passes only a ``g`` nothing else holds."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values + b.values

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            # a may have taken g as its buffer; b must not share it
            _accumulate(b, gb.copy() if gb is a.grad else gb)

    return _record(values, "add", (a, b), adjoint)


def subtract(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values - b.values

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, np.negative(_unbroadcast(g, b.shape)))

    return _record(values, "subtract", (a, b), adjoint)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    values = a.values * b.values

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _record(values, "mul", (a, b), adjoint)


def scalar_mul(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    values = a.values * c

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return _record(values, "scalar_mul", (a,), adjoint)


def sum_all(a) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = as_tensor(a)
    values = np.asarray(a.values.sum())

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, np.full(a.shape, g))

    return _record(values, "sum_all", (a,), adjoint)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0
    values = np.maximum(a.values, 0.0)  # propagates NaN instead of hiding it

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _record(values, "relu", (a,), adjoint)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) in one buffer. exp overflows for x < -709.78 (result
    # 0, where the exact value is subnormal) and underflows for large x
    # (result 1); both saturations are benign, so their flags are silenced.
    out = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore", under="ignore"):
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    values = _sigmoid_values(a.values)

    def adjoint(g: np.ndarray) -> None:
        d = np.subtract(1.0, values)
        d *= values
        d *= g
        _accumulate(a, d)

    return _record(values, "sigmoid", (a,), adjoint)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    values = np.tanh(a.values)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - values * values))

    return _record(values, "tanh", (a,), adjoint)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), stable for large |x|; derivative is sigmoid(x)."""
    a = as_tensor(a)
    values = np.maximum(a.values, 0.0) + np.log1p(np.exp(-np.abs(a.values)))

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g * _sigmoid_values(a.values))

    return _record(values, "softplus", (a,), adjoint)


# ---------------------------------------------------------------------------
# linear algebra and row structure


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul requires (m,k) x (k,n) operands, got {a.shape} x {b.shape}")
    values = a.values @ b.values

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ g)

    return _record(values, "matmul", (a, b), adjoint)


def pairwise_euclidean(e) -> Tensor:
    """All-pairs Euclidean distances between the rows of ``e``.

    The result is exactly symmetric with an exactly zero diagonal. The
    gradient uses the smoothed denominator sqrt(d^2 + DISTANCE_EPS), which
    defines the derivative at coincident points (and on the diagonal) as 0.
    """
    e = as_tensor(e)
    if e.values.ndim != 2:
        raise DimensionError(f"pairwise_euclidean expects an (N,k) matrix, got {e.shape}")
    # Exact symmetry by construction: numpy computes v @ v.T for one
    # contiguous buffer with syrk and mirrors the triangle, and
    # n_i + n_j == n_j + n_i, so no transposed pass is needed.
    v = np.ascontiguousarray(e.values)
    sq_norms = (v * v).sum(axis=1)
    sq = sq_norms[:, None] + sq_norms[None, :]
    sq -= 2.0 * (v @ v.T)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    values = np.sqrt(sq, out=sq)

    def adjoint(g: np.ndarray) -> None:
        # sqrt(d^2 + eps) rebuilt from the distances, so no squared
        # distances outlive the forward pass
        w = np.multiply(values, values)
        w += DISTANCE_EPS
        np.sqrt(w, out=w)
        np.divide(g, w, out=w)
        np.fill_diagonal(w, 0.0)  # diagonal is constant 0, no gradient
        # d_ij depends on rows i and j alike: pull w and w.T through
        # without forming w + w.T
        degree = w.sum(axis=1) + w.sum(axis=0)
        _accumulate(e, degree[:, None] * v - (w @ v + w.T @ v))

    return _record(values, "pairwise_euclidean", (e,), adjoint)


def row_normalize(a) -> Tensor:
    """Divide each row by its sum (plus a small guard).

    Rows must have strictly positive sums; a non-positive row raises a
    NumericalError naming the offending row.
    """
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise DimensionError(f"row_normalize expects a matrix, got {a.shape}")
    sums = a.values.sum(axis=1)
    if np.any(sums <= 0.0):
        i = int(np.argmin(sums))
        raise NumericalError(
            f"row_normalize: row {i} has non-positive sum {sums[i]!r}")
    denom = (sums + DEGREE_EPS)[:, None]
    values = a.values / denom

    def adjoint(g: np.ndarray) -> None:
        d = np.multiply(g, values)
        row_dot = d.sum(axis=1, keepdims=True)
        np.subtract(g, row_dot, out=d)
        d /= denom
        _accumulate(a, d)

    return _record(values, "row_normalize", (a,), adjoint)


def row_softmax_cross_entropy(logits, labels, mask) -> Tensor:
    """Mean softmax cross-entropy over the masked rows of ``logits``.

    ``labels`` holds integer class ids per row (any other dtype raises
    ContractError rather than being truncated); ``mask`` selects the rows
    that contribute to the loss, as :func:`row_indices` reads it. Uses the
    max-shifted softmax for stability.
    """
    logits = as_tensor(logits)
    if logits.values.ndim != 2:
        raise DimensionError(f"expected (N,C) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != logits.shape[:1]:
        raise DimensionError(
            f"labels of shape {labels.shape} for {logits.shape[0]} logits rows")
    idx = row_indices(mask, logits.shape[0])
    if idx.size == 0:
        raise ContractError("cross entropy needs at least one masked row")
    y = labels[idx].astype(np.intp)
    if np.any(y < 0) or np.any(y >= logits.shape[1]):
        raise ContractError("label outside [0, C) among masked rows")
    z = logits.values[idx]
    z = z - z.max(axis=1, keepdims=True)
    exp_z = np.exp(z)
    sum_exp = exp_z.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sum_exp)
    losses = -log_probs[np.arange(idx.size), y]
    values = np.asarray(losses.mean())

    def adjoint(g: np.ndarray) -> None:
        d = exp_z / sum_exp
        d[np.arange(idx.size), y] -= 1.0
        d *= float(g) / idx.size
        full = np.zeros_like(logits.values)
        full[idx] = d
        _accumulate(logits, full)

    return _record(values, "row_softmax_cross_entropy", (logits,), adjoint)


def row_indices(mask, n: int) -> np.ndarray:
    """Indices of the rows ``mask`` selects among ``n``: a boolean vector
    of ``n`` entries, or integer row indices in ``[0, n)`` (none counted
    from the end)."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        if mask.shape != (n,):
            raise DimensionError(f"boolean mask of shape {mask.shape} for {n} rows")
        return np.flatnonzero(mask)
    if not np.issubdtype(mask.dtype, np.integer):
        raise ContractError(f"row indices must be integers, got dtype {mask.dtype}")
    idx = mask.astype(np.intp)
    if np.any(idx < 0) or np.any(idx >= n):
        raise ContractError(f"row index outside [0, {n})")
    return idx


def softmax_rows(values: np.ndarray) -> np.ndarray:
    """Plain-numpy row softmax (no gradient), shared by evaluation code."""
    z = values - values.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
