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
the leaves and the root hold one.

Every N x N path starts at ``pairwise_euclidean``, which alone enforces
``MAX_GRAPH_NODES``. Its distances are lazy: they keep the embedding rows
and their norms, and ``sigmoid`` computes the learned graph's edge weights
from them once per pair of ``TILE``-row blocks. It keeps each upper tile
pair (I, J >= I) once, in one packed buffer of about half an N x N array,
and never mirrors them; that buffer is the one N x N value a learned graph
stores. ``row_normalize`` keeps only its input's row sums, summed tile by
tile, and the matmuls that read the normalized operator P multiply
through the tiles and those sums, so P is never formed, and neither is
the N x N array of edge weights unless a caller reads their ``values``.

Each lazy N x N output takes its input and its gradient in one form, the
model's: distances only through ``sigmoid``, edge weights into
``row_normalize``, P only as ``matmul``'s left operand. Each matmul hands
P its share as thin factors. The edge weights take one gradient from one
consumer: the factors ``row_normalize`` hands on, or a dense array from
the recovery objective. ``sigmoid``'s adjoint walks the tile pairs again,
so no N x N gradient is formed and the distances' gradient arrives
contracted to N x (k + 1). Any other input or consumer that needs a
gradient raises ContractError. Results depend on ``TILE`` in their last
bits; two runs give the same bits.

The engine is deliberately small; it supports exactly the operations the
graph-learning models need, all in double precision so that gradients
can be validated against central finite differences to tight tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

# Smoothing added under the square root when differentiating pairwise
# distances, so the gradient at coincident points is 0 instead of NaN.
DISTANCE_EPS = 1e-12

# Most rows ``pairwise_euclidean`` takes: one N x N float64 matrix is 8 N^2
# bytes (3.2 GB at the cap). The learned graph keeps its upper tile pairs,
# about half of one, and a training step peaks at 0.65 of them, ``evaluate``
# at 0.56, the kNN baseline at 1.08 and threshold calibration at 0.53
# (tracemalloc, N=2000), per fold worker process. It bounds the matrix size
# only; it does not check available memory.
MAX_GRAPH_NODES = 20_000

# Rows per tile of the distances and edge weights, and per block of the
# kNN baseline's sort. Each tile pair's temporaries stay in cache. In
# one-process A/B training steps on a 2-vCPU host, tiles of 64 and 256 rows
# ran 4% and 35% slower at N=300 and 24% and 2% slower at N=2000; 96 and
# 192 rows ran no faster.
TILE = 128

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
    """Pass tensors through; wrap arrays/scalars, not None, as constants."""
    if isinstance(x, Tensor):
        return x
    if x is None:
        raise ContractError("expected an array or a tensor, got None")
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
    """P = A / rowsum(A), kept as the tensor A and its row sums: ``matmul``
    multiplies through them, and reading ``values`` forms P anew each time.
    Its ``grad`` is the list of shares the matmuls that read it hand it."""

    __slots__ = ("adjacency", "denom")

    def __init__(self, adjacency: Tensor, denom: np.ndarray):
        self.adjacency, self.denom = adjacency, denom
        self.grad = None
        self.requires_grad = False
        self.op = None
        self.parents = ()
        self._adjoint = None

    @property
    def values(self) -> np.ndarray:
        return self.adjacency.values / self.denom

    @property
    def shape(self) -> tuple[int, ...]:
        return self.adjacency.shape

    def product(self, y: np.ndarray, transpose: bool = False) -> np.ndarray:
        """A @ y, or A.T @ y, without the division by the row sums. Edge
        weights walk their tile pairs, and are symmetric, so A.T is A."""
        a = self.adjacency
        if isinstance(a, _EdgeWeights):
            return _product(a.tiles, y)
        # A.T @ y as (y.T @ A).T runs faster for an N x N array
        return (y.T @ a.values).T if transpose else a.values @ y


class _Distances(Tensor):
    """D, the distances between the rows of an N x k embedding, kept as
    the rows and their squared norms. ``tile_pairs`` computes D one pair
    of ``TILE``-row blocks at a time, and reading ``values`` forms D anew
    from them each time. A graph of at most ``TILE`` rows keeps its one
    tile. Only ``sigmoid`` hands it a gradient, contracted to the
    N x (k + 1) matrix [W v, W 1], where W is the symmetric gradient of the
    unordered distances divided by sqrt(d^2 + DISTANCE_EPS); any other
    consumer of its gradient raises ContractError."""

    __slots__ = ("rows", "sq_norms", "tile")

    def __init__(self, rows: np.ndarray):
        self.rows = np.ascontiguousarray(rows)
        self.sq_norms = (self.rows * self.rows).sum(axis=1)
        self.grad = None
        self.requires_grad = False
        self.op = None
        self.parents = ()
        self._adjoint = None
        n = len(self.rows)
        self.tile = self._tile(slice(0, n), slice(0, n)) if n <= TILE else None

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.rows), len(self.rows))

    @property
    def values(self) -> np.ndarray:
        return _mirrored(len(self.rows), self.tile_pairs())

    def _tile(self, rows: slice, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        # d_ij = sqrt(-2 g_ij + (n_i + n_j)): a diagonal tile's Gram block
        # v_I @ v_I.T is one syrk call, exactly symmetric, and n_i + n_j ==
        # n_j + n_i, so the tile is exactly symmetric too. A tile made in
        # ``out`` takes its broadcast sum from scratch too; a one-tile
        # graph's kept tile takes new arrays
        v = self.rows
        d = np.matmul(v[rows], v[cols].T, out=out)
        d *= -2.0
        d += np.add(self.sq_norms[rows, None], self.sq_norms[cols],
                    out=None if out is None else _scratch(1, d.shape))
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        if rows == cols:
            # the diagonal; np.fill_diagonal costs about 1 us more per call,
            # which shows on the 20-node graphs of the recovery study
            d.ravel()[::len(d) + 1] = 0.0
        return d

    def tile_pairs(self) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """(I, J, D[I, J]) for every pair of ``TILE``-row blocks with J at
        or after I, in row order; D[J, I] is the transpose. A yielded tile
        must not be written to, and it is valid only until the next one is
        asked for: every tile but a one-tile graph's is made in the same
        scratch buffer."""
        n = len(self.rows)
        for i in range(0, n, TILE):
            rows = slice(i, min(i + TILE, n))
            for j in range(i, n, TILE):
                cols = slice(j, min(j + TILE, n))
                yield rows, cols, self.tile if self.tile is not None else self._tile(
                    rows, cols, _scratch(0, (rows.stop - i, cols.stop - j)))


# The tile loops' temporaries in graphs of more than one tile: a distance
# tile (slot 0), its broadcast sum or the backward's q (slot 1) and the
# backward's h (slot 2), each a view of one of three buffers of at least
# TILE x TILE that the process keeps. Tile loops never nest. Reusing them
# keeps each step from handing heap memory back to the system and faulting
# it in again: allocated per tile or per loop, they raised the page faults of
# 15 trainings at N=300 (one BLAS thread) from 45k to about 300k. A one-tile
# graph allocates its few small temporaries, which costs less than finding
# the views.
_workspace: list[np.ndarray] = []


def _scratch(slot: int, shape: tuple[int, int]) -> np.ndarray:
    """Scratch buffer ``slot`` as a contiguous array of ``shape``, at most
    TILE x TILE."""
    if not _workspace or _workspace[0].size < TILE * TILE:
        _workspace[:] = [np.empty(TILE * TILE) for _ in range(3)]
    return _workspace[slot][:shape[0] * shape[1]].reshape(shape)


def _mirrored(n: int, tiles) -> np.ndarray:
    """The N x N array with each tile (I, J, T) at [I, J] and, off the
    diagonal, T.T at [J, I]."""
    out = np.empty((n, n))
    for rows, cols, tile in tiles:
        out[rows, cols] = tile
        if rows != cols:
            out[cols, rows] = tile.T
    return out


def _product(tiles: list[tuple[slice, slice, np.ndarray]], y: np.ndarray) -> np.ndarray:
    """S @ y for the symmetric N x N matrix S whose upper tile pairs are
    ``tiles``: each tile adds T @ y[J] to rows I and, off the diagonal,
    T.T @ y[I] to rows J."""
    out = np.zeros(y.shape)
    for rows, cols, tile in tiles:
        out[rows] += tile @ y[cols]
        if rows != cols:
            out[cols] += tile.T @ y[rows]
    return out


class _EdgeWeights(Tensor):
    """The output of ``sigmoid``: the symmetric edge weights S as the list
    ``tiles`` of (I, J, S[I, J]) for every pair of ``TILE``-row blocks with
    J at or after I, in row order. The tiles are contiguous and share one
    packed buffer, which holds about half of S; a graph of at most ``TILE``
    rows keeps its one array. Reading ``values`` returns that array, or
    forms S anew, mirrored, each time. It is the one input for which
    ``row_normalize`` takes a gradient. Its ``grad`` is what its one
    consumer hands it: the factors (L, R) of the gradient L @ R.T from
    ``row_normalize``, or a dense N x N gradient from an elementwise
    consumer, as the recovery objective's."""

    __slots__ = ("tiles",)

    def __init__(self, tiles: list[tuple[slice, slice, np.ndarray]]):
        self.tiles = tiles
        self.grad = None
        self.requires_grad = False
        self.op = None
        self.parents = ()
        self._adjoint = None

    @property
    def shape(self) -> tuple[int, ...]:
        n = self.tiles[-1][1].stop
        return (n, n)

    @property
    def values(self) -> np.ndarray:
        if len(self.tiles) == 1:
            return self.tiles[0][2]
        return _mirrored(self.shape[0], self.tiles)


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


def _accumulate(t: Tensor, g) -> None:
    """Add the contribution ``g`` to ``t.grad``. The first one becomes the
    buffer itself, so an adjoint passes only a ``g`` nothing else holds,
    and the adjoint that later receives that buffer may overwrite it. Of
    the lazy N x N outputs only edge weights take a contribution here, and
    only one. A ``row_normalize`` output takes its gradient only as
    ``matmul``'s left operand, and distances only from ``sigmoid``, so a
    second or any other consumer of theirs raises ContractError."""
    if type(t) is not Tensor:
        if isinstance(t, _EdgeWeights) and t.grad is None:
            t.grad = g
            return
        raise ContractError(
            "sigmoid's edge weights take a gradient from one consumer"
            if isinstance(t, _EdgeWeights)
            else "a row_normalize output takes a gradient only as matmul's left operand"
            if isinstance(t, _RowNormalized)
            else "pairwise_euclidean's distances take a gradient only from sigmoid")
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


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
            # a may hold g as its buffer; b must not share it
            _accumulate(b, gb.copy() if gb is g and a.requires_grad else gb)

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


def _edge_weights(d: np.ndarray, t: Tensor, theta: Tensor,
                  out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(t * (theta - d)) as 1 / (1 + exp(t * (d - theta))), in
    ``out`` or one new contiguous buffer. exp overflows for
    t * (theta - d) < -709.78 (result 0, where the exact value is
    subnormal) and underflows for large values (result 1); callers silence
    both benign flags. t * (d - theta) has the same bits as
    -(t * (theta - d)), and at t = -1, theta = 0 the same bits as -d."""
    s = np.subtract(d, theta.values, out=out)
    s *= t.values
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def _edge_weight_grads(h: np.ndarray, s: np.ndarray, d: np.ndarray, t: Tensor,
                       theta: Tensor, q: np.ndarray) -> tuple[float, float]:
    """Scale ``h``, a gradient of s = sigmoid(t * (theta - d)), in place
    into the gradient of d, and return the gradients of t and theta; ``q``
    is scratch of the same shape."""
    np.subtract(1.0, s, out=q)
    q *= s
    h *= q
    np.subtract(theta.values, d, out=q)
    dt = np.vdot(h, q)
    # scaling by -t gives d's gradient in one pass and the same bits as
    # scaling by t and negating
    h *= -t.values
    return dt, -h.sum()


def sigmoid(a, temperature, threshold) -> Tensor:
    """A learned graph's edge weights sigmoid(temperature * (threshold - d))
    over ``pairwise_euclidean``'s distances d, for two 0-d tensors, in one
    op; any other ``a`` raises ContractError. It runs once per pair of
    ``TILE``-row blocks and keeps each upper tile pair once, packed, so the
    result is exactly symmetric and no N x N array is stored (see
    ``_EdgeWeights``). Backward, each tile pair recomputes its distances (a
    graph of one tile keeps them) and forms the gradient
    H = G[I, J] + G[J, I].T of its unordered pairs from the edge weights'
    one gradient G: L[I] @ R[J].T + R[I] @ L[J].T for factors (L, R), two
    slices for a dense G. A diagonal tile counts each pair
    twice, so its t and theta sums are halved. When the distances need a
    gradient, W = H / sqrt(d^2 + DISTANCE_EPS), 0 on the diagonal, is
    contracted into it as [W v, W 1], so no N x N gradient is formed."""
    a, t, theta = as_tensor(a), as_tensor(temperature), as_tensor(threshold)
    if not isinstance(a, _Distances):
        raise ContractError(
            f"sigmoid takes only pairwise_euclidean's distances, got shape {a.shape}")
    if t.values.ndim or theta.values.ndim:
        raise DimensionError(
            "sigmoid expects a 0-d temperature and a 0-d threshold, "
            f"got {t.shape} and {theta.shape}")
    n = a.shape[0]
    with np.errstate(over="ignore", under="ignore"):
        if a.tile is not None:
            everything = slice(0, n)
            tiles = [(everything, everything, _edge_weights(a.tile, t, theta))]
        else:
            # the upper tile pairs hold (N^2 + sum of the diagonal tiles' sizes) / 2
            packed = np.empty((n * n + sum(min(TILE, n - i) ** 2
                                           for i in range(0, n, TILE))) // 2)
            tiles, end = [], 0
            for rows, cols, d in a.tile_pairs():
                out = packed[end:end + d.size].reshape(d.shape)
                end += d.size
                tiles.append((rows, cols, _edge_weights(d, t, theta, out)))

    def adjoint(g: np.ndarray | tuple[np.ndarray, np.ndarray]) -> None:
        factors = type(g) is tuple
        if a.requires_grad:
            k = a.rows.shape[1]
            v1 = np.empty((n, k + 1))
            v1[:, :k] = a.rows
            v1[:, k] = 1.0
            m = np.zeros_like(v1)
        dt = dtheta = 0.0
        for (rows, cols, d), (_, _, s) in zip(a.tile_pairs(), tiles):
            if a.tile is None:
                h, q = _scratch(2, s.shape), _scratch(1, s.shape)
            else:
                h, q = np.empty(s.shape), np.empty(s.shape)
            if factors:
                # two products in scratch rather than one over N-row copies
                # [L, R] and [R, L]: the copies made a step at N=300 give heap
                # memory back and fault it in again, in about half the runs
                np.matmul(g[0][rows], g[1][cols].T, out=h)
                h += np.matmul(g[1][rows], g[0][cols].T, out=q)
            else:
                np.add(g[rows, cols], g[cols, rows].T, out=h)
            tile_dt, tile_dtheta = _edge_weight_grads(h, s, d, t, theta, q)
            share = 0.5 if rows == cols else 1.0
            dt += share * tile_dt
            dtheta += share * tile_dtheta
            if not a.requires_grad:
                continue
            np.multiply(d, d, out=q)
            q += DISTANCE_EPS
            np.sqrt(q, out=q)
            h /= q
            if rows == cols:
                h.ravel()[::len(h) + 1] = 0.0
            else:
                m[cols] += h.T @ v1[rows]
            m[rows] += h @ v1[cols]
        if t.requires_grad:
            _accumulate(t, np.float64(dt))
        if theta.requires_grad:
            _accumulate(theta, np.float64(dtheta))
        if a.requires_grad:
            if a.grad is None:
                a.grad = m
            else:
                a.grad += m

    return _record(_EdgeWeights(tiles), "sigmoid", (a, t, theta), adjoint)


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


def matmul(a, b) -> Tensor:
    """a @ b. A row-normalized ``a`` is multiplied through its factors,
    (A @ b) / rowsum(A). It is the one operand that takes the operator's
    gradient: its share g @ b.T is kept as (g, b, a @ b) for
    ``row_normalize``'s adjoint. A row-normalized ``b`` that needs a
    gradient raises ContractError in the backward pass."""
    a, b = as_tensor(a), as_tensor(b)
    if len(a.shape) != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul requires (m,k) x (k,n) operands, got {a.shape} x {b.shape}")
    operator = isinstance(a, _RowNormalized)
    values = a.product(b.values) if operator else a.values @ b.values
    if operator:
        values /= a.denom

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            if operator:
                if a.grad is None:
                    a.grad = []
                a.grad.append((g, b.values, values))
            else:
                _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.product(g / a.denom, transpose=True) if operator
                        else a.values.T @ g)

    return _record(values, "matmul", (a, b), adjoint)


def pairwise_euclidean(e) -> Tensor:
    """All-pairs Euclidean distances between the rows of ``e``, kept lazy.

    The result holds the rows and their squared norms; its tiles and its
    ``values`` are exactly symmetric with an exactly zero diagonal.
    ``sigmoid`` reads it one tile pair at a time. More than
    ``MAX_GRAPH_NODES`` rows raise ContractError before anything N x N is
    allocated. The gradient uses the smoothed denominator
    sqrt(d^2 + DISTANCE_EPS), which defines the derivative at coincident
    points (and on the diagonal) as 0.
    """
    e = as_tensor(e)
    if e.values.ndim != 2:
        raise DimensionError(f"pairwise_euclidean expects an (N,k) matrix, got {e.shape}")
    n = e.shape[0]
    if n > MAX_GRAPH_NODES:
        raise ContractError(
            f"{n} nodes exceeds the dense-adjacency cap of {MAX_GRAPH_NODES} "
            f"(an N x N float64 matrix at N={n} is ~{8 * n * n / 1e9:.1f} GB)")
    out = _Distances(e.values)
    v = out.rows

    def adjoint(m: np.ndarray) -> None:
        # d_ij depends on rows i and j alike: row i's gradient is
        # sum_j w_ij (v_i - v_j), the row sum of w times v_i minus w @ v
        _accumulate(e, m[:, -1:] * v - m[:, :-1])

    return _record(out, "pairwise_euclidean", (e,), adjoint)


def row_normalize(a) -> Tensor:
    """Divide each row by its sum; whenever no error is raised, every row
    of the result sums to 1. Rows must have strictly positive sums; any
    other row, NaN included, raises a NumericalError naming the offending
    row.

    Only the row sums are computed, from the tile pairs for edge weights:
    the result keeps ``a`` and them, and ``matmul`` multiplies through
    both, so P itself is never stored. Reading the result's ``values``
    costs one N x N pass and a fresh N x N array each time.

    The result takes a gradient only as ``matmul``'s left operand; any
    other consumer that would hand it one raises ContractError in the
    backward pass. The input takes a gradient only if it is ``sigmoid``'s
    edge weights, which take it as thin factors; any other input that
    needs one raises ContractError here, before anything N x N. Constant
    adjacencies, such as the kNN and static graphs, need none.
    """
    a = as_tensor(a)
    if _recording and a.requires_grad and not isinstance(a, _EdgeWeights):
        raise ContractError(
            "row_normalize takes a gradient only for sigmoid's edge weights, "
            "not for this input")
    if len(a.shape) != 2:
        raise DimensionError(f"row_normalize expects a matrix, got {a.shape}")
    if isinstance(a, _EdgeWeights):
        # a tile's row sums go to its rows and, off the diagonal, its column
        # sums to its columns
        denom = np.zeros((a.shape[0], 1))
        for rows, cols, tile in a.tiles:
            denom[rows, 0] += tile.sum(axis=1)
            if rows != cols:
                denom[cols, 0] += tile.sum(axis=0)
    else:
        denom = a.values.sum(axis=1, keepdims=True)
    if not np.all(denom > 0.0):
        i = int(np.argmin(denom))  # the first NaN row, if there is one
        raise NumericalError(
            f"row_normalize: row {i} has sum {float(denom[i, 0])!r}, not strictly positive")

    def adjoint(shares: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        # dA = (dP - rowdot(dP, P)) / denom with dP = sum_l G_l @ Y_l.T, as
        # the factors of left @ right.T of width w + 1: the last column of
        # ``left``, against a column of ones, subtracts the row dots, read
        # off the products P @ Y_l
        gs, ys, products = zip(*shares)
        row_dots = sum(np.einsum("ij,ij->i", g, p) for g, p in zip(gs, products))
        left = np.hstack([*gs, -row_dots[:, None]])
        left /= denom
        right = np.hstack([*ys, np.ones((a.shape[0], 1))])
        _accumulate(a, (left, right))

    return _record(_RowNormalized(a, denom), "row_normalize", (a,), adjoint)


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
