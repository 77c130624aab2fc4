import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentgraph import autodiff as ad
from latentgraph import gcn
from latentgraph import graph_learning as gl
from latentgraph.errors import DimensionError, NumericalError
from latentgraph.training import knn_adjacency

import numpy_reference as ref
from conftest import zero_fill_backward

RNG = np.random.default_rng(42)


def gc_layer_oracle(a, h, w):
    """Triple loop: degree-normalized neighbor average, then linear map."""
    n, p = h.shape
    averaged = np.zeros((n, p))
    for i in range(n):
        degree = sum(a[i, j] for j in range(n))
        for j in range(n):
            averaged[i] += a[i, j] * h[j] / degree
    return averaged @ w


class TestGCLayer:
    def test_identity_adjacency(self):
        h = RNG.normal(size=(4, 3))
        w = RNG.normal(size=(3, 2))
        np.testing.assert_allclose(gc_layer_oracle(np.eye(4), h, w), h @ w,
                                   atol=1e-12)
        np.testing.assert_allclose(gc_layer(np.eye(4), h, w), h @ w, atol=1e-12)

    def test_all_ones_averages_rows(self):
        h = RNG.normal(size=(5, 3))
        w = RNG.normal(size=(3, 2))
        out = gc_layer(np.ones((5, 5)), h, w)
        expected_row = h.mean(axis=0) @ w
        for i in range(5):
            np.testing.assert_allclose(out[i], expected_row, atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        for _ in range(20):
            a = RNG.uniform(0.05, 1.0, size=(6, 6))
            h = RNG.normal(size=(6, 4))
            w = RNG.normal(size=(4, 3))
            np.testing.assert_allclose(gc_layer(a, h, w),
                                       gc_layer_oracle(a, h, w), atol=1e-10)

    def test_zero_row_sum_names_node(self):
        a = np.ones((3, 3))
        a[2] = 0.0
        with pytest.raises(NumericalError, match="row 2"):
            gc_layer(a, np.ones((3, 2)), np.ones((2, 2)))

    def test_row_stochastic_preserves_constants(self):
        a = RNG.uniform(0.1, 1.0, size=(5, 5))
        h = np.full((5, 5), 3.25)
        out = gc_layer(a, h, np.eye(5))
        np.testing.assert_allclose(out, h, atol=1e-9)

    def test_normalized_rows_sum_to_one(self):
        a = RNG.uniform(0.1, 1.0, size=(8, 8))
        p = ad.row_normalize(a).values
        np.testing.assert_allclose(p.sum(axis=1), np.ones(8), atol=1e-9)


def gc_layer(a, h, w):
    """One graph convolution as ``gcn.forward`` runs it."""
    return ad.matmul(ad.row_normalize(a), ad.matmul(h, w)).values


def init_small_model(n_features=4, n_classes=3, seed=5, n_nodes=10, adjacency=None):
    rng = np.random.default_rng(seed)
    x = np.random.default_rng(seed + 1).normal(size=(n_nodes, n_features))
    params = gcn.init_model(x, n_classes, embed_hidden=(6,), embed_dim=3,
                            gc_widths=(5, 4), rng=rng, adjacency=adjacency)
    return x, params


def forward_oracle(x, params):
    """Straight-line composition of the published operations."""
    h = x.copy()
    weights, biases = params.embedder.weights, params.embedder.biases
    for i in range(len(weights)):
        h = h @ weights[i].values + biases[i].values
        if i < len(weights) - 1:
            h = np.tanh(h)
    t = np.log1p(np.exp(params.edge.raw_temperature.values))
    a = ref.edge_weights(h, t, params.edge.threshold.values)
    h = x.copy()
    for w in params.gc_weights:
        h = np.maximum(a @ h / a.sum(axis=1, keepdims=True) @ w.values, 0.0)
    return h @ params.fc_weight.values + params.fc_bias.values


def gc_logits(operator, x, params):
    """``gcn.forward``'s graph convolutions and head over a given operator."""
    h = x
    for w in params.gc_weights:
        h = ad.relu(ad.matmul(operator, ad.matmul(h, w)))
    return ad.add(ad.matmul(h, params.fc_weight), params.fc_bias)


def loss_and_gradients(loss_of, params):
    loss = loss_of()
    ad.backward(loss)
    return loss.item(), [t.grad.copy() for t in params]


def reference_graph(embedding, edge):
    """The numpy reference's edge weights over ``embedding``, and a map
    from their gradient to the gradients of the embedding, the raw
    temperature and the threshold."""
    e, raw, theta = embedding.values, edge.raw_temperature.values, edge.threshold.values
    t = np.log1p(np.exp(raw))  # softplus

    def gradients(ds):
        de, dt, dtheta = ref.edge_weights_vjp(e, t, theta, ds)
        # softplus' derivative is sigmoid(raw)
        return [de, dt / (1.0 + np.exp(-raw)), dtheta]

    return ref.edge_weights(e, t, theta), gradients


class TestTilesAgainstTheNumpyReference:
    """In tiles of 8 rows, 30 nodes leave a ragged last tile. The loss and
    the gradients of the embedding, t, theta and the GC weights, of the
    model and of the recovery objective, match the numpy reference."""

    N = 30

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(ad, "TILE", 8)

    @staticmethod
    def assert_matches(tiled, tiled_grads, reference, reference_grads):
        assert tiled == pytest.approx(reference, rel=1e-12)
        for got, want in zip(tiled_grads, reference_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_model(self):
        x, params = init_small_model(seed=21, n_nodes=self.N)
        np.testing.assert_allclose(gcn.forward(x, params).values, forward_oracle(x, params),
                                   rtol=1e-12, atol=1e-12)
        embedding = ad.parameter(gl.embed(x, params.embedder).values)
        y, mask = np.arange(self.N) % 3, np.arange(25)

        def loss_over(operator):
            return ad.row_softmax_cross_entropy(gc_logits(operator, x, params), y, mask)

        tiled, tiled_grads = loss_and_gradients(
            lambda: loss_over(ad.row_normalize(gl.soft_adjacency(embedding, params.edge))),
            [embedding, *params.edge.tensors(), *params.gc_weights])
        # dP from the same loss over P as a dense parameter, through plain
        # matmuls, then the closed forms back to the embedding and scalars
        s, edge_gradients = reference_graph(embedding, params.edge)
        p = ad.parameter(s / s.sum(axis=1, keepdims=True))
        reference, (dp, *gc_grads) = loss_and_gradients(
            lambda: loss_over(p), [p, *params.gc_weights])
        self.assert_matches(tiled, tiled_grads, reference,
                            [*edge_gradients(ref.row_normalize_vjp(s, dp)), *gc_grads])

    def test_recovery_objective(self):
        rng = np.random.default_rng(22)
        embedding = ad.parameter(rng.normal(size=(self.N, 4)))
        edge = gl.init_edge_params(embedding.values)
        targets = (rng.random((self.N, self.N)) < 0.3).astype(float)
        off_diag = 1.0 - np.eye(self.N)

        def objective():
            residual = ad.mul(ad.add(gl.soft_adjacency(embedding, edge), -targets), off_diag)
            return ad.sum_all(ad.mul(residual, residual))

        tiled, tiled_grads = loss_and_gradients(objective, [embedding, *edge.tensors()])
        s, edge_gradients = reference_graph(embedding, edge)
        residual = (s - targets) * off_diag
        self.assert_matches(tiled, tiled_grads, (residual ** 2).sum(),
                            edge_gradients(2.0 * residual))


class TestTileBoundaries:
    """In tiles of 8 rows, graphs of TILE - 1, TILE + 1 and 2 TILE + 3
    nodes: one tile, a partial last tile, and partial tiles off the
    diagonal. Each consumer of the edge weights' tile pairs matches the
    dense numpy chain, which a lost column sum or transpose term in an
    off-diagonal or partial tile would break."""

    TILE = 8

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(ad, "TILE", self.TILE)

    @pytest.mark.parametrize("n", [TILE - 1, TILE + 1, 2 * TILE + 3])
    def test_loss_and_every_parameter_gradient(self, n):
        x, params = init_small_model(seed=n, n_nodes=n)
        y, mask = np.arange(n) % 3, np.arange(n - 2)
        tiled, tiled_grads = loss_and_gradients(
            lambda: ad.row_softmax_cross_entropy(gcn.forward(x, params), y, mask),
            params.tensors())
        # the same loss over P = S / rowsum(S) from the numpy reference as a
        # dense parameter, through plain matmuls; the closed forms take dP
        # back to the embedding and the edge scalars, and the embedder's
        # dense ops take the embedding's gradient back to its parameters
        head = [*params.gc_weights, params.fc_weight, params.fc_bias]
        s, edge_gradients = reference_graph(gl.embed(x, params.embedder), params.edge)
        p = ad.parameter(s / s.sum(axis=1, keepdims=True))
        reference, (dp, *head_grads) = loss_and_gradients(
            lambda: ad.row_softmax_cross_entropy(gc_logits(p, x, params), y, mask),
            [p, *head])
        de, *edge_grads = edge_gradients(ref.row_normalize_vjp(s, dp))
        _, embedder_grads = loss_and_gradients(
            lambda: ad.sum_all(ad.mul(gl.embed(x, params.embedder), de)),
            params.embedder.tensors())
        # the distances stay put when every embedding row moves alike, so
        # the embedder's output bias has a gradient of 0 up to rounding
        output_bias = len(embedder_grads) - 1
        np.testing.assert_allclose(tiled_grads.pop(output_bias), embedder_grads.pop(),
                                   rtol=0.0, atol=1e-15)
        TestTilesAgainstTheNumpyReference.assert_matches(
            tiled, tiled_grads, reference, [*embedder_grads, *edge_grads, *head_grads])

    @pytest.mark.parametrize("n", [TILE - 1, TILE + 1, 2 * TILE + 3])
    def test_row_sums_and_products(self, n):
        # the row sums, both GC products P @ Y and the backward product
        # P.T @ G, which the tiles form as S @ (G / rowsum(S))
        rng = np.random.default_rng(n)
        e = rng.normal(size=(n, 3))
        edge = gl.init_edge_params(e)
        operator = ad.row_normalize(gl.soft_adjacency(e, edge))
        s = ref.edge_weights(e, edge.temperature().values, edge.threshold.values)
        np.testing.assert_allclose(operator.denom, s.sum(axis=1, keepdims=True),
                                   rtol=1e-12, atol=0.0)
        p = s / s.sum(axis=1, keepdims=True)
        ys = [ad.parameter(rng.normal(size=(n, width))) for width in (5, 2)]
        gs = [rng.normal(size=(n, width)) for width in (5, 2)]
        products = [ad.matmul(operator, y) for y in ys]
        ad.backward(ad.add(*(ad.sum_all(ad.mul(out, g)) for out, g in zip(products, gs))))
        for y, out, g in zip(ys, products, gs):
            np.testing.assert_allclose(out.values, p @ y.values, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(y.grad, p.T @ g, rtol=1e-12, atol=1e-15)


class TestInitModel:
    def test_records_no_op(self, monkeypatch):
        # the edge scalars are calibrated on the initial embedding's values,
        # which are never differentiated, so no tape is built
        record = ad._record
        recorded = []

        def spy(values, op, inputs, adjoint):
            out = record(values, op, inputs, adjoint)
            if out.op is not None:
                recorded.append(op)
            return out

        monkeypatch.setattr(ad, "_record", spy)
        _, params = init_small_model()
        assert recorded == []
        assert all(t.requires_grad for t in params.tensors())


class TestForward:
    def test_single_node_is_finite_and_matches_fc_of_relu(self):
        x, params = init_small_model(n_nodes=1)
        logits = gcn.forward(x, params).values
        assert logits.shape == (1, 3) and np.all(np.isfinite(logits))
        h = x.copy()
        for w in params.gc_weights:
            h = np.maximum(h @ w.values, 0.0)  # self-loop normalizes to 1
        expected = h @ params.fc_weight.values + params.fc_bias.values
        np.testing.assert_allclose(logits, expected, atol=1e-9)

    def test_permutation_equivariance(self):
        x, params = init_small_model()
        logits = gcn.forward(x, params).values
        perm = np.random.default_rng(3).permutation(x.shape[0])
        permuted = gcn.forward(x[perm], params).values
        np.testing.assert_allclose(permuted, logits[perm], rtol=0.0, atol=1e-10)

    def test_matches_compositional_oracle(self):
        x, params = init_small_model(seed=8)
        np.testing.assert_allclose(gcn.forward(x, params).values,
                                   forward_oracle(x, params), atol=1e-10)

    @pytest.mark.parametrize("static", [False, True])
    def test_shared_operator_matches_gc_layer_composition(self, static):
        a = np.abs(RNG.normal(size=(10, 10))) + 0.05 if static else None
        x, params = init_small_model(seed=9, adjacency=a)
        if not static:
            a = gl.soft_adjacency(gl.embed(x, params.embedder), params.edge).values
        logits = gcn.forward(x, params).values
        h = x
        for w in params.gc_weights:
            h = ad.relu(gc_layer(a, h, w))
        expected = ad.add(ad.matmul(h, params.fc_weight), params.fc_bias).values
        np.testing.assert_allclose(logits, expected, rtol=0.0, atol=1e-12)

    def test_static_adjacency_path(self):
        a = np.abs(RNG.normal(size=(10, 10))) + 0.05
        x, params = init_small_model(adjacency=a)
        logits = gcn.forward(x, params).values
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("shape, message", [
        ((10, 9), "must be square"), ((10,), "must be square"),
        ((9, 9), r"\(9, 9\) does not match features \(10, 4\)")])
    def test_static_adjacency_shape_is_checked(self, shape, message):
        # a square graph is checked when the model is built, its row count
        # against the features on the forward pass
        with pytest.raises(DimensionError, match=message):
            x, params = init_small_model(adjacency=np.ones(shape))
            gcn.forward(x, params)


class TestConstantInputs:
    def test_learned_graph_leaves_feature_grad_unset(self):
        x, params = init_small_model()
        features = ad.as_tensor(x)
        loss = ad.row_softmax_cross_entropy(gcn.forward(features, params),
                                            np.arange(10) % 3, np.arange(10))
        ad.backward(loss)
        assert features.grad is None
        assert all(t.grad is not None for t in params.tensors())

    def test_static_graph_puts_no_nxn_tensor_on_the_tape(self):
        n = 12
        x = np.random.default_rng(2).normal(size=(n, 4))
        params = gcn.init_model(x, 3, gc_widths=(5, 4), rng=np.random.default_rng(3),
                                adjacency=knn_adjacency(x, 3))
        logits = gcn.forward(x, params)
        loss = ad.row_softmax_cross_entropy(logits, np.arange(n) % 3, np.arange(n))
        assert [t.shape for t in ad.build_tape(loss) if t.shape == (n, n)] == []
        ad.backward(loss)
        assert all(t.grad is not None for t in params.tensors())


class TestBackwardSweep:
    @pytest.mark.parametrize("graph, small_tiles", [
        pytest.param(graph, small, id=graph + ("-tiles_of_4" if small else ""))
        for graph in ["learned", "learned_no_hidden", "static"] for small in [False, True]])
    def test_interior_grads_released_and_parameter_grads_match_zero_fill(
            self, graph, small_tiles, monkeypatch):
        n = 10
        if small_tiles:  # the N x N kernels run in tiles of 4 rows
            monkeypatch.setattr(ad, "TILE", 4)
        x = np.random.default_rng(6).normal(size=(n, 4))
        params = gcn.init_model(x, 3, embed_hidden=() if graph == "learned_no_hidden" else (6,),
                                embed_dim=3, gc_widths=(5, 4), rng=np.random.default_rng(7),
                                adjacency=knn_adjacency(x, 3) if graph == "static" else None)
        loss = ad.row_softmax_cross_entropy(gcn.forward(x, params),
                                            np.arange(n) % 3, np.arange(n))
        zero_fill_backward(loss)
        expected = [t.grad.copy() for t in params.tensors()]
        ad.backward(loss)
        interior = [t for t in ad.build_tape(loss) if t.op is not None and t is not loss]
        assert interior and all(t.grad is None for t in interior)
        assert loss.grad == 1.0
        for t, want in zip(params.tensors(), expected):
            assert np.array_equal(t.grad, want)


class TestPredict:
    def test_argmax(self):
        assert gcn.predict(np.array([[0.2, 0.9, 0.1]]))[0] == 1

    def test_tie_breaks_low(self):
        assert gcn.predict(np.array([[0.5, 0.5]]))[0] == 0

    @given(arrays(np.float64, (6, 4), elements=st.floats(-5, 5, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_matches_scan_oracle(self, logits):
        preds = gcn.predict(logits)
        for i in range(logits.shape[0]):
            best, best_v = 0, logits[i, 0]
            for c in range(1, logits.shape[1]):
                if logits[i, c] > best_v:
                    best, best_v = c, logits[i, c]
            assert preds[i] == best


class TestEndToEndGradient:
    def test_threshold_gradient_matches_finite_differences(self):
        x, params = init_small_model(seed=12)
        y = np.random.default_rng(12).integers(0, 3, size=10)
        mask = np.ones(10, dtype=bool)

        def loss_at(theta: float) -> float:
            params.edge.threshold.values = np.asarray(theta)
            logits = gcn.forward(x, params)
            return ad.row_softmax_cross_entropy(logits, y, mask).item()

        theta0 = float(params.edge.threshold.values)
        loss = ad.row_softmax_cross_entropy(gcn.forward(x, params), y, mask)
        ad.backward(loss)
        analytic = float(params.edge.threshold.grad)
        h = 1e-5
        numeric = (loss_at(theta0 + h) - loss_at(theta0 - h)) / (2 * h)
        params.edge.threshold.values = np.asarray(theta0)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-6) < 1e-3
