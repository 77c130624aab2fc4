import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentgraph import autodiff as ad
from latentgraph import graph_learning as gl
from latentgraph.errors import ContractError, DimensionError

RNG = np.random.default_rng(99)


def embed_oracle(x, params):
    """Layer-by-layer loop with explicit tanh between layers."""
    h = x.copy()
    n_layers = len(params.weights)
    for i in range(n_layers):
        h = h @ params.weights[i].values + params.biases[i].values
        if i < n_layers - 1:
            h = np.tanh(h)
    return h


def sigma(x):
    return 1.0 / (1.0 + np.exp(-x))


def edge_params(temperature, threshold):
    return gl.EdgeParams(
        raw_temperature=ad.parameter(np.asarray(np.log(np.expm1(temperature)))),
        threshold=ad.parameter(np.asarray(float(threshold))))


class TestEmbed:
    def test_zero_params_give_zero_embeddings(self):
        params = gl.init_embedder([3, 4, 2], np.random.default_rng(0))
        for w in params.weights:
            w.values[:] = 0.0
        out = gl.embed(RNG.normal(size=(5, 3)), params)
        assert np.array_equal(out.values, np.zeros((5, 2)))

    def test_single_identity_layer_is_identity(self):
        params = gl.init_embedder([3, 3], np.random.default_rng(0))
        params.weights[0].values[:] = np.eye(3)
        x = RNG.normal(size=(4, 3))
        assert np.array_equal(gl.embed(x, params).values, x)

    def test_matches_layer_loop_oracle(self):
        params = gl.init_embedder([5, 7, 3], np.random.default_rng(3))
        x = RNG.normal(size=(6, 5))
        np.testing.assert_allclose(gl.embed(x, params).values,
                                   embed_oracle(x, params), atol=1e-10)

    def test_width_mismatch(self):
        params = gl.init_embedder([5, 3], np.random.default_rng(0))
        with pytest.raises(DimensionError):
            gl.embed(np.zeros((2, 4)), params)

    def test_glorot_scale(self):
        w = gl.glorot_uniform(np.random.default_rng(0), 30, 50)
        bound = np.sqrt(6.0 / 80.0)
        assert np.max(np.abs(w)) <= bound


class TestSoftAdjacency:
    def test_distance_equal_threshold_gives_half(self):
        e = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5
        for temperature in (0.5, 2.0, 17.0):
            a = gl.soft_adjacency(e, edge_params(temperature, 5.0)).values
            assert abs(a[0, 1] - 0.5) < 1e-12

    def test_hard_threshold_limit(self):
        e = np.array([[0.0], [1.0], [10.0]])  # d01=1 < 4, d02=10 > 4
        a = gl.soft_adjacency(e, edge_params(500.0, 4.0)).values
        assert a[0, 1] > 1.0 - 1e-12
        assert a[0, 2] < 1e-12

    def test_known_value(self):
        # temperature 2, threshold 1.5, distance 0.5 -> sigmoid(2)
        e = np.array([[0.0], [0.5]])
        a = gl.soft_adjacency(e, edge_params(2.0, 1.5)).values
        assert abs(a[0, 1] - 0.8807970779778823) < 1e-12

    def test_node_cap_enforced(self):
        e = ad.Tensor(np.zeros((ad.MAX_GRAPH_NODES + 1, 1)))
        with pytest.raises(ContractError, match="GB"):
            gl.soft_adjacency(e, edge_params(2.0, 1.0))


class TestInitEdgeParams:
    def test_identical_embeddings_give_zero_threshold(self):
        params = gl.init_edge_params(np.ones((4, 3)))
        assert params.threshold.values == 0.0

    def test_two_points_distance_four(self):
        params = gl.init_edge_params(np.array([[0.0], [4.0]]))
        assert params.threshold.values == 4.0

    def test_median_matches_sort_oracle(self):
        e = RNG.normal(size=(10, 3))
        dists = sorted(np.sqrt(((e[i] - e[j]) ** 2).sum())
                       for i in range(10) for j in range(10) if i != j)
        k = len(dists)
        expected = (dists[k // 2 - 1] + dists[k // 2]) / 2 if k % 2 == 0 \
            else dists[k // 2]
        params = gl.init_edge_params(e)
        assert abs(params.threshold.values - expected) < 1e-12

    @pytest.mark.parametrize("n, tile", [(5, None), (6, None), (300, 16)],
                             ids=["even_pairs", "odd_pairs", "tiles_of_16"])
    def test_threshold_has_the_bits_of_the_off_diagonal_median(self, n, tile, monkeypatch):
        # gathered from the tile pairs, the median is that of the formed D
        if tile is not None:
            monkeypatch.setattr(ad, "TILE", tile)
        e = RNG.normal(size=(n, 3))
        dists = ad.pairwise_euclidean(e).values
        expected = np.median(dists[~np.eye(n, dtype=bool)])
        assert gl.init_edge_params(e).threshold.values.tobytes() == expected.tobytes()

    def test_peak_memory_is_about_half_an_nxn_buffer(self, monkeypatch):
        # the N (N - 1) / 2 distances above the diagonal, not D; in 16-row
        # tiles, so that a tile is as small beside N x N at N=400 as a
        # 128-row tile is at N=2000
        monkeypatch.setattr(ad, "TILE", 16)
        n = 400
        e = RNG.normal(size=(n, 16))
        tracemalloc.start()
        try:
            gl.init_edge_params(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 8 * n * n

    def test_single_row_defaults_to_one(self):
        params = gl.init_edge_params(np.zeros((1, 3)))
        assert params.threshold.values == 1.0

    def test_initial_temperature_is_two(self):
        params = gl.init_edge_params(RNG.normal(size=(5, 2)))
        assert abs(params.temperature().values - 2.0) < 1e-12


class TestAdjacencyInvariants:
    def setup_method(self):
        self.embedder = gl.init_embedder([4, 8, 3], np.random.default_rng(5))
        self.x = RNG.normal(size=(12, 4))
        embedding = gl.embed(self.x, self.embedder)
        self.edge = gl.init_edge_params(embedding)
        self.adjacency = gl.soft_adjacency(embedding, self.edge).values

    def test_entries_strictly_in_unit_interval(self):
        assert np.all(self.adjacency > 0.0) and np.all(self.adjacency < 1.0)

    def test_exact_symmetry(self):
        assert np.array_equal(self.adjacency, self.adjacency.T)

    def test_diagonal_is_sigma_t_theta(self):
        t = self.edge.temperature().values
        theta = self.edge.threshold.values
        np.testing.assert_allclose(np.diag(self.adjacency),
                                   np.full(12, sigma(t * theta)), atol=1e-15)

    def test_strictly_decreasing_in_distance(self):
        e = gl.embed(self.x, self.embedder)
        d = ad.pairwise_euclidean(e).values
        iu = np.triu_indices(12, k=1)
        order = np.argsort(d[iu])
        a_sorted = self.adjacency[iu][order]
        assert np.all(np.diff(a_sorted) <= 0.0)

    def test_permutation_equivariance(self):
        perm = np.random.default_rng(11).permutation(12)
        embedding = gl.embed(self.x[perm], self.embedder)
        permuted = gl.soft_adjacency(embedding, self.edge).values
        np.testing.assert_allclose(permuted, self.adjacency[np.ix_(perm, perm)],
                                   rtol=0.0, atol=1e-12)

    def test_gradients_reach_edge_scalars(self):
        embedding = gl.embed(self.x, self.embedder)
        a = gl.soft_adjacency(embedding, self.edge)
        ad.backward(ad.sum_all(ad.mul(a, RNG.normal(size=(12, 12)))))
        assert self.edge.threshold.grad != 0.0
        assert self.edge.raw_temperature.grad != 0.0


@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(-2.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_monotonicity_property(d_small_base, gap, threshold):
    d1, d2 = d_small_base, d_small_base + gap
    e = np.array([[0.0], [d1], [-d2]])
    a = gl.soft_adjacency(e, edge_params(2.0, threshold)).values
    assert a[0, 1] > a[0, 2]
