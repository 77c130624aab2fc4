import numpy as np
import pytest

from latentgraph import synthetic as syn
from latentgraph.errors import ContractError, DimensionError

RNG = np.random.default_rng(31)


class TestGenerateGraph:
    def test_p_near_one_gives_complete_graph(self):
        a = syn.generate_graph(8, 0.999999, seed=0)
        assert np.array_equal(a, np.ones((8, 8)) - np.eye(8))

    def test_two_nodes_never_isolated(self):
        for seed in range(20):
            a = syn.generate_graph(2, 0.01, seed=seed)
            assert a.sum(axis=1).min() >= 1
            assert a[0, 1] == a[1, 0] == 1.0

    def test_edge_count_in_binomial_99_interval(self):
        # 99% quantiles of Binomial(C(50,2)=1225, 0.2), computed by an
        # exact quantile oracle: [210, 282] around the mean of 245
        a = syn.generate_graph(50, 0.2, seed=12345)
        edges = int(a.sum() // 2)
        assert 210 <= edges <= 282

    def test_structure_invariants(self):
        a = syn.generate_graph(30, 0.15, seed=4)
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(30))
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert a.sum(axis=1).min() >= 1  # repair leaves no isolated node

    def test_deterministic(self):
        a = syn.generate_graph(25, 0.3, seed=7)
        b = syn.generate_graph(25, 0.3, seed=7)
        assert np.array_equal(a, b)

    def test_invalid_arguments(self):
        with pytest.raises(ContractError):
            syn.generate_graph(1, 0.5)
        with pytest.raises(ContractError):
            syn.generate_graph(5, 1.0)


class TestNeighborSumTargets:
    def test_identity_features_return_adjacency_bits(self):
        a = syn.generate_graph(12, 0.3, seed=2)
        targets = syn.neighbor_sum_targets(a, np.eye(12))
        assert np.array_equal(targets, a)

    def test_edgeless_graph_gives_zero(self):
        assert np.array_equal(
            syn.neighbor_sum_targets(np.zeros((5, 5)), RNG.normal(size=(5, 5))),
            np.zeros((5, 5)))

    def test_matches_per_node_loop_oracle(self):
        a = syn.generate_graph(9, 0.4, seed=6)
        x = RNG.normal(size=(9, 4))
        expected = np.zeros((9, 4))
        for i in range(9):
            for j in range(9):
                if a[i, j]:
                    expected[i] += x[j]
        np.testing.assert_allclose(syn.neighbor_sum_targets(a, x), expected,
                                   atol=1e-12)


class TestEdgeAgreement:
    def test_identical_binary_matrices(self):
        g = syn.generate_graph(6, 0.4, seed=1)
        assert syn.edge_agreement(g, g) == 1.0

    def test_complement(self):
        g = syn.generate_graph(6, 0.4, seed=1)
        complement = 1.0 - g
        np.fill_diagonal(complement, 0.0)
        off = ~np.eye(6, dtype=bool)
        # complement flips every off-diagonal bit
        assert syn.edge_agreement(complement, g) == 0.0

    def test_one_wrong_edge_among_twenty(self):
        g = syn.generate_graph(5, 0.5, seed=3)
        flipped = g.copy()
        flipped[0, 1] = 1.0 - flipped[0, 1]
        assert syn.edge_agreement(flipped, g) == pytest.approx(19.0 / 20.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            syn.edge_agreement(np.zeros((3, 3)), np.zeros((4, 4)))


class TestRecoverGraph:
    def test_edgeless_target_drives_all_edges_below_half(self):
        targets = np.zeros((6, 6))
        cfg = syn.RecoveryConfig(embedding_dim=4, iterations=600, seed=0)
        result = syn.recover_graph(targets, cfg)
        off = ~np.eye(6, dtype=bool)
        assert np.all(result.adjacency[off] < 0.5)

    def test_small_graph_recovered(self):
        g = syn.generate_graph(5, 0.4, seed=11)
        targets = syn.neighbor_sum_targets(g, np.eye(5))
        result = syn.recover_graph(targets, syn.RecoveryConfig(seed=11))
        assert result.agreement >= 0.9
        assert result.mse < 1e-2
        assert len(result.loss_history) == 2000

    def test_deterministic_per_seed(self):
        g = syn.generate_graph(6, 0.3, seed=5)
        targets = syn.neighbor_sum_targets(g, np.eye(6))
        cfg = syn.RecoveryConfig(embedding_dim=4, iterations=150, seed=9)
        a = syn.recover_graph(targets, cfg)
        b = syn.recover_graph(targets, cfg)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert a.loss_history == b.loss_history

    def test_non_square_targets_rejected(self):
        with pytest.raises(DimensionError):
            syn.recover_graph(np.zeros((3, 4)), syn.RecoveryConfig())

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes_rejected(self, n):
        with pytest.raises(ContractError):
            syn.recover_graph(np.zeros((n, n)), syn.RecoveryConfig())


class TestRecoveryConfig:
    @pytest.mark.parametrize("fields", [
        dict(embedding_dim=0), dict(embedding_dim=-2), dict(iterations=-1)])
    def test_invalid_fields_rejected(self, fields):
        with pytest.raises(ContractError):
            syn.RecoveryConfig(**fields)

    def test_zero_iterations_accepted(self):
        result = syn.recover_graph(np.zeros((3, 3)), syn.RecoveryConfig(iterations=0))
        assert result.loss_history == []

    def test_invalid_grid_dimension_rejected_before_any_cell_runs(self, monkeypatch):
        runs = []
        monkeypatch.delenv("LATENTGRAPH_WORKERS", raising=False)
        monkeypatch.setattr(syn, "recover_graph", lambda *args: runs.append(args))
        with pytest.raises(ContractError):
            syn.recovery_curves([5], [4, 0], seeds=[0])
        assert runs == []


class TestRecoveryCurves:
    def test_single_cell_equals_single_run(self):
        # the non-default base setting must reach the cell's run
        cfg = syn.RecoveryConfig(iterations=150)
        cells = syn.recovery_curves([6], [4], seeds=[3], base_cfg=cfg)
        assert len(cells) == 1
        targets = syn.neighbor_sum_targets(syn.generate_graph(6, 0.3, seed=3), np.eye(6))
        direct = syn.recover_graph(
            targets, syn.RecoveryConfig(embedding_dim=4, iterations=150, seed=3))
        assert cells[0].mse == direct.mse
        assert cells[0].agreement == direct.agreement

    def test_worker_processes_match_serial(self, monkeypatch):
        cfg = syn.RecoveryConfig(iterations=100)
        monkeypatch.delenv("LATENTGRAPH_WORKERS", raising=False)
        serial = syn.recovery_curves([5], [2, 4], seeds=[0], base_cfg=cfg)
        monkeypatch.setenv("LATENTGRAPH_WORKERS", "2")
        parallel = syn.recovery_curves([5], [2, 4], seeds=[0], base_cfg=cfg)
        assert parallel == serial

    def test_summarize_groups_by_cell(self):
        cells = [syn.RecoveryCell(5, 2, s, mse, 1.0)
                 for s, mse in [(0, 0.1), (1, 0.3)]]
        summary = syn.summarize_curves(cells)
        mean, std = summary[(5, 2)]
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(0.1)

    def test_empty_lists_rejected(self):
        with pytest.raises(ContractError):
            syn.recovery_curves([], [4], seeds=[0])


class TestClassificationDataset:
    def test_shapes_and_balance(self):
        ds = syn.make_classification_dataset(n_nodes=90, seed=1)
        assert ds.X.shape == (90, 100)
        assert np.array_equal(np.bincount(ds.y), [30, 30, 30])
        assert len(ds.node_ids) == 90
        assert len(ds.class_names) == 3

    def test_deterministic(self):
        a = syn.make_classification_dataset(n_nodes=60, seed=5)
        b = syn.make_classification_dataset(n_nodes=60, seed=5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_informative_features_carry_cluster_structure(self):
        ds = syn.make_classification_dataset(n_nodes=120, seed=0)
        informative = ds.X[:, :10]
        # every sample sits on a tight cluster (spread 0.1) at radius 6
        norms = np.linalg.norm(informative, axis=1)
        assert np.all(np.abs(norms - 6.0) < 1.0)
