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


def init_small_model(n_features=4, n_classes=3, seed=5, n_nodes=10):
    rng = np.random.default_rng(seed)
    x = np.random.default_rng(seed + 1).normal(size=(n_nodes, n_features))
    params = gcn.init_model(x, n_classes, embed_hidden=(6,), embed_dim=3,
                            gc_widths=(5, 4), rng=rng)
    return x, params


def forward_oracle(x, params):
    """Straight-line composition of the published operations."""
    h = x.copy()
    weights, biases = params.embedder.weights, params.embedder.biases
    for i in range(len(weights)):
        h = h @ weights[i].values + biases[i].values
        if i < len(weights) - 1:
            h = np.tanh(h)
    d = ad.pairwise_euclidean(h).values
    t = np.log1p(np.exp(params.edge.raw_temperature.values))
    a = 1.0 / (1.0 + np.exp(-t * (params.edge.threshold.values - d)))
    h = x.copy()
    for w in params.gc_weights:
        h = np.maximum(a @ h / a.sum(axis=1, keepdims=True) @ w.values, 0.0)
    return h @ params.fc_weight.values + params.fc_bias.values


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
        x, params = init_small_model(seed=9)
        if static:
            a = np.abs(RNG.normal(size=(10, 10))) + 0.05
            logits = gcn.forward(x, params, adjacency=a).values
        else:
            a = gl.soft_adjacency(gl.embed(x, params.embedder), params.edge).values
            logits = gcn.forward(x, params).values
        h = x
        for w in params.gc_weights:
            h = ad.relu(gc_layer(a, h, w))
        expected = ad.add(ad.matmul(h, params.fc_weight), params.fc_bias).values
        np.testing.assert_allclose(logits, expected, rtol=0.0, atol=1e-12)

    def test_static_adjacency_path(self):
        x, params = init_small_model()
        a = np.abs(RNG.normal(size=(10, 10))) + 0.05
        logits = gcn.forward(x, params, adjacency=a).values
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("shape, message", [
        ((10, 9), "must be square"), ((10,), "must be square"),
        ((9, 9), r"\(9, 9\) does not match features \(10, 4\)")])
    def test_static_adjacency_shape_is_checked(self, shape, message):
        x, params = init_small_model()
        with pytest.raises(DimensionError, match=message):
            gcn.forward(x, params, adjacency=np.ones(shape))


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
                                learn_graph=False)
        logits = gcn.forward(x, params, adjacency=knn_adjacency(x, 3))
        loss = ad.row_softmax_cross_entropy(logits, np.arange(n) % 3, np.arange(n))
        assert [t.shape for t in ad.build_tape(loss) if t.shape == (n, n)] == []
        ad.backward(loss)
        assert all(t.grad is not None for t in params.tensors())


class TestBackwardSweep:
    @pytest.mark.parametrize("graph, one_row_blocks", [
        pytest.param(graph, one_row, id=graph + ("-one_row_blocks" if one_row else ""))
        for graph in ["learned", "learned_no_hidden", "static"] for one_row in [False, True]])
    def test_interior_grads_released_and_parameter_grads_match_zero_fill(
            self, graph, one_row_blocks, monkeypatch):
        n = 10
        if one_row_blocks:  # every N x N kernel runs row by row
            monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * n)
        x = np.random.default_rng(6).normal(size=(n, 4))
        params = gcn.init_model(x, 3, embed_hidden=() if graph == "learned_no_hidden" else (6,),
                                embed_dim=3, gc_widths=(5, 4), rng=np.random.default_rng(7),
                                learn_graph=graph != "static")
        adjacency = knn_adjacency(x, 3) if graph == "static" else None
        loss = ad.row_softmax_cross_entropy(gcn.forward(x, params, adjacency=adjacency),
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
