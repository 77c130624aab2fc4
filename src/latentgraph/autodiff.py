"""Minimal dense-tensor reverse-mode automatic differentiation.

Every differentiable operation computes its result eagerly on float64
numpy buffers and records an adjoint closure on the output tensor. The
recorded graph is dynamic: it is rebuilt on every forward pass, and
``backward`` replays the adjoints in reverse execution order. Only
tensors that depend on a parameter are recorded and get a gradient:
constants (features, a static adjacency, targets) are never on the tape,
and their ``grad`` stays None; inside ``no_grad`` nothing is recorded.
A tensor's first gradient contribution becomes its buffer and later ones
are added into it; a recorded tensor's gradient is released when its
adjoint runs, and the adjoint may overwrite it, so after ``backward`` only
the leaves and the root hold one. The N x N kernels make their passes over
row blocks that stay in cache. ``row_normalize`` keeps only the row sums
of its input, and the matmuls that read the normalized operator multiply
through the input and those sums, so the operator is never formed. They
hand it their gradient shares as thin factors, and ``row_normalize``'s
adjoint forms the one N x N gradient from them, block by block into its
one buffer. The engine is deliberately small; it supports
exactly the operations the graph-learning models need, all in double
precision so that gradients can be validated against central finite
differences to tight tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

# Smoothing added under the square root when differentiating pairwise
# distances, so the gradient at coincident points is 0 instead of NaN.
DISTANCE_EPS = 1e-12

# N x N kernels make several passes over each block of about this many
# bytes of rows while it is still in cache, instead of each pass streaming
# the whole array through memory.
BLOCK_BYTES = 1 << 18

# False inside ``no_grad``: no op is recorded.
_recording = True


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


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no op inside the block: every output is a constant, so a
    forward pass builds no tape and each intermediate is freed as soon as
    nothing reads it."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class _RowNormalized(Tensor):
    """P = A / rowsum(A), kept as A and its row sums: ``matmul`` multiplies
    through them, and reading ``values`` forms P anew each time."""

    __slots__ = ("adjacency", "denom")

    def __init__(self, adjacency: np.ndarray, denom: np.ndarray):
        self.adjacency, self.denom = adjacency, denom
        self.grad = None
        self.requires_grad = False
        self.op = None
        self.parents = ()
        self._adjoint = None

    @property
    def values(self) -> np.ndarray:
        return self.adjacency / self.denom

    @property
    def shape(self) -> tuple[int, ...]:
        return self.adjacency.shape


def _record(values: np.ndarray | Tensor, op: str, inputs: tuple[Tensor, ...],
            adjoint: Callable[[np.ndarray], None]) -> Tensor:
    """The output of ``op``: recorded, with the inputs that need a gradient
    as ``parents`` (the only ones ``adjoint`` may write to), or, when no
    input needs one or inside ``no_grad``, a constant that never reaches a
    tape. An output not stored as one array arrives built, as a constant."""
    # a list comprehension costs less than a generator on this per-op path
    parents = tuple([t for t in inputs if t.requires_grad]) if _recording else ()
    out = values if isinstance(values, Tensor) else Tensor(values)
    if not parents:
        return out
    out.requires_grad = True
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
    recorded tensor's gradient is released before its adjoint runs, so
    the adjoint owns the ``g`` it receives and may overwrite it, for
    instance to hand it on as its input's gradient. Afterwards only the
    leaves hold a gradient, and ``loss.grad`` is 1.
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
    buffer itself, so an adjoint passes only a ``g`` nothing else holds,
    and the adjoint that later receives that buffer may overwrite it."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


class _OperatorGrad:
    """The gradient of a ``row_normalize`` output P: a dense part (None
    until one arrives) plus ``left @ right``. Each ``matmul`` P @ y puts in
    its share g @ y.T as factors; the last column of ``left``, against a row
    of ones, subtracts the shares' row dots with P, read off P @ y. So no
    N x N product and no pass over P precede ``row_normalize``'s adjoint."""

    __slots__ = ("dense", "left", "right")

    def __init__(self, dense: np.ndarray | None, n: int):
        self.dense = dense
        self.left = np.zeros((n, 1))
        self.right = np.ones((1, n))

    def __iadd__(self, g: np.ndarray) -> "_OperatorGrad":
        # a dense contribution, added by _accumulate. The first is copied:
        # ``add`` checks only ``grad`` itself before handing the same buffer
        # to its other operand, and this one is written in place.
        if self.dense is None:
            self.dense = g.copy()
        else:
            self.dense += g
        return self


def _accumulate_factors(t: Tensor, g: np.ndarray, y: np.ndarray,
                        product: np.ndarray) -> None:
    """Add the contribution ``g @ y.T`` to the gradient of the
    ``row_normalize`` output ``t`` as factors; ``product`` is t @ y."""
    if not isinstance(t.grad, _OperatorGrad):
        t.grad = _OperatorGrad(t.grad, t.shape[0])
    grad = t.grad
    grad.left = np.hstack([g, grad.left])
    grad.left[:, -1] -= np.einsum("ij,ij->i", g, product)
    # C order: the adjoint's product of width w + 1 runs about twice as fast
    grad.right = np.ascontiguousarray(np.vstack([y.T, grad.right]))


def _by_row_blocks(kernel: Callable[..., object], *arrays: np.ndarray) -> None:
    """Run ``kernel`` on matching row blocks of ``arrays``, in row order,
    each block of the first array about ``BLOCK_BYTES``; an array that fits
    in one block is passed whole."""
    first = arrays[0]
    if first.nbytes <= BLOCK_BYTES:
        kernel(*arrays)
        return
    step = max(1, BLOCK_BYTES // first[0].nbytes)
    for i in range(0, first.shape[0], step):
        kernel(*[x[i:i + step] for x in arrays])


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting; a
    ``grad`` of that shape already is returned as it is."""
    if grad.shape == shape:
        return grad
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


def _sigmoid_block(x: np.ndarray, out: np.ndarray, t, theta) -> None:
    # t * (x - theta) has the same bits as -(t * (theta - x)), and at
    # t = -1, theta = 0 the same bits as -x
    np.subtract(x, theta, out=out)
    out *= t
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)


def _sigmoid_grad_block(g: np.ndarray, s: np.ndarray, x: np.ndarray, t, theta,
                        sums: np.ndarray | None) -> None:
    d = np.subtract(1.0, s)
    d *= s
    g *= d
    # t's gradient reads g before it is scaled, theta's after; d is reused
    # for theta - x. Scaling by -t gives x's gradient in one pass and the
    # same bits as scaling by t and negating.
    if sums is not None:
        np.subtract(theta, x, out=d)
        sums[0] += np.vdot(g, d)
    g *= -t
    if sums is not None:
        sums[1] -= g.sum()


def sigmoid(a, temperature, threshold) -> Tensor:
    """Elementwise sigmoid(temperature * (threshold - a)) for two 0-d
    tensors: the edge weights of a learned graph in one op, so neither the
    affine map nor its inputs' difference is recorded. Its adjoint rebuilds
    threshold - a a row block at a time."""
    a = as_tensor(a)
    t = None if temperature is None else as_tensor(temperature)
    theta = None if threshold is None else as_tensor(threshold)
    if t is None or theta is None or t.values.ndim or theta.values.ndim:
        raise DimensionError(
            "sigmoid expects a 0-d temperature and a 0-d threshold, got "
            f"{getattr(t, 'shape', None)} and {getattr(theta, 'shape', None)}")
    # 1 / (1 + exp(-z)) in one buffer. exp overflows for z < -709.78 (result
    # 0, where the exact value is subnormal) and underflows for large z
    # (result 1); both saturations are benign, so their flags are silenced.
    values = np.empty_like(a.values)
    with np.errstate(over="ignore", under="ignore"):
        _by_row_blocks(lambda x, out: _sigmoid_block(
            x, out, t.values, theta.values), a.values, values)

    def adjoint(g: np.ndarray) -> None:
        g = np.asarray(g)  # the g of a 0-d output may be a numpy scalar
        # one 2-vector collects the sums of every block, in row order
        sums = np.zeros(2) if t.requires_grad or theta.requires_grad else None
        _by_row_blocks(lambda g, s, x: _sigmoid_grad_block(
            g, s, x, t.values, theta.values, sums), g, values, a.values)
        if t.requires_grad:
            _accumulate(t, sums[0])
        if theta.requires_grad:
            _accumulate(theta, sums[1])
        if a.requires_grad:
            _accumulate(a, g)

    return _record(values, "sigmoid", (a, t, theta), adjoint)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    values = np.tanh(a.values)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - values * values))

    return _record(values, "tanh", (a,), adjoint)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), stable for large |x|. Its derivative sigmoid(x) is
    read off the output as 1 - exp(-softplus(x)) = -expm1(-softplus(x)),
    which neither overflows nor cancels."""
    a = as_tensor(a)
    values = np.maximum(a.values, 0.0) + np.log1p(np.exp(-np.abs(a.values)))

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g * -np.expm1(-values))

    return _record(values, "softplus", (a,), adjoint)


# ---------------------------------------------------------------------------
# linear algebra and row structure


def _transposed_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x.T @ y``. An ``x`` of more than one block is multiplied as
    ``(y.T @ x).T``, about twice as fast for a skinny ``y``; a smaller one
    keeps the C-ordered result, which later elementwise passes read faster."""
    if x.nbytes > BLOCK_BYTES:
        return (y.T @ x).T
    return x.T @ y


def matmul(a, b) -> Tensor:
    """a @ b. A row-normalized ``a`` is multiplied through its factors,
    (A @ b) / rowsum(A), and takes its gradient as factors too."""
    a, b = as_tensor(a), as_tensor(b)
    if len(a.shape) != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul requires (m,k) x (k,n) operands, got {a.shape} x {b.shape}")
    operator = isinstance(a, _RowNormalized)
    left = a.adjacency if operator else a.values
    values = left @ b.values
    if operator:
        values /= a.denom

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            if operator:
                _accumulate_factors(a, g, b.values, values)
            else:
                _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, _transposed_matmul(left, g / a.denom if operator else g))

    return _record(values, "matmul", (a, b), adjoint)


def _distance_block(gram: np.ndarray, row_norms: np.ndarray,
                    sq_norms: np.ndarray) -> None:
    # -2 g_ij + (n_i + n_j) has the same bits as (n_i + n_j) - 2 g_ij
    gram *= -2.0
    gram += row_norms[:, None] + sq_norms[None, :]
    np.maximum(gram, 0.0, out=gram)
    np.sqrt(gram, out=gram)


def _distance_grad_block(g: np.ndarray, values: np.ndarray, row_sums: np.ndarray,
                         col_sums: np.ndarray) -> None:
    w = np.multiply(values, values)
    w += DISTANCE_EPS
    np.sqrt(w, out=w)
    g /= w
    g.sum(axis=1, out=row_sums)
    col_sums += g.sum(axis=0)


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
    # the distances are computed inside the Gram buffer
    values = v @ v.T
    _by_row_blocks(lambda gram, row_norms: _distance_block(gram, row_norms, sq_norms),
                   values, sq_norms)
    np.fill_diagonal(values, 0.0)

    def adjoint(g: np.ndarray) -> None:
        # w = g / sqrt(d^2 + eps), rebuilt from the distances so no squared
        # distances outlive the forward pass, and the row and column sums
        # of w taken in the same pass. The diagonal is constant 0 and has
        # no gradient; zeroed first, it stays 0 under the division.
        np.fill_diagonal(g, 0.0)
        row_sums, col_sums = np.empty(g.shape[0]), np.zeros(g.shape[0])
        # every block adds into one col_sums vector, so the extra memory
        # stays O(N) however many blocks there are
        _by_row_blocks(lambda g, values, row_sums:
                       _distance_grad_block(g, values, row_sums, col_sums),
                       g, values, row_sums)
        # d_ij depends on rows i and j alike: pull w and w.T through
        # without forming w + w.T
        degree = row_sums + col_sums
        _accumulate(e, degree[:, None] * v - (g @ v + _transposed_matmul(g, v)))

    return _record(values, "pairwise_euclidean", (e,), adjoint)


def _row_normalize_grad_block(out: np.ndarray, adjacency: np.ndarray,
                              denom: np.ndarray, left: np.ndarray, right: np.ndarray,
                              dense: bool) -> None:
    # left @ right is the factors' share of the gradient, already projected
    # and scaled; A is read only for the row dots of a dense part with P,
    # rowdot(dP, A) / denom, and ``out`` then holds that part. Without one,
    # ``out`` is blank and written once.
    if dense:
        row_dot = np.einsum("ij,ij->i", out, adjacency)[:, None]
        row_dot /= denom
        out -= row_dot
        out /= denom
        out += left @ right
    else:
        np.matmul(left, right, out=out)


def row_normalize(a) -> Tensor:
    """Divide each row by its sum; whenever no error is raised, every row
    of the result sums to 1.

    Only the row sums are computed: the result keeps ``a`` and them, and
    ``matmul`` multiplies through both, so P itself is never stored.
    Reading the result's ``values`` costs one N x N pass and a fresh N x N
    array each time. Rows must have strictly positive sums; any other row,
    NaN included, raises a NumericalError naming the offending row.
    """
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise DimensionError(f"row_normalize expects a matrix, got {a.shape}")
    denom = a.values.sum(axis=1, keepdims=True)
    if not np.all(denom > 0.0):
        i = int(np.argmin(denom))  # the first NaN row, if there is one
        raise NumericalError(
            f"row_normalize: row {i} has sum {float(denom[i, 0])!r}, not strictly positive")

    def adjoint(g: np.ndarray | _OperatorGrad) -> None:
        # dS = (dP - rowdot(dP, P)) / denom: the factors' share is one
        # product of width w + 1 per row block, formed in the dense part's
        # buffer or a fresh one, the one N x N gradient of the step
        if not isinstance(g, _OperatorGrad):
            g = _OperatorGrad(g, a.shape[0])
        g.left /= denom
        dense = g.dense is not None
        out = g.dense if dense else np.empty(a.shape)
        _by_row_blocks(lambda out, adjacency, denom, left: _row_normalize_grad_block(
            out, adjacency, denom, left, g.right, dense), out, a.values, denom, g.left)
        _accumulate(a, out)

    return _record(_RowNormalized(a.values, denom), "row_normalize", (a,), adjoint)


def row_softmax_cross_entropy(logits, labels, mask) -> Tensor:
    """Mean softmax cross-entropy over the masked rows of ``logits``.

    ``labels`` holds integer class ids per row, as :func:`_class_labels`
    reads them; ``mask`` selects the rows
    that contribute to the loss, as :func:`row_indices` reads it. Uses the
    max-shifted softmax for stability.
    """
    logits = as_tensor(logits)
    if logits.values.ndim != 2:
        raise DimensionError(f"expected (N,C) logits, got {logits.shape}")
    labels = _class_labels(labels)
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


def _class_labels(labels) -> np.ndarray:
    """``labels`` as an array of integer class ids; any other dtype raises
    ContractError rather than being truncated or compared as floats. The
    loss and ``training.evaluate`` share this check."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    return labels


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
