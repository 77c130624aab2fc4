import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentgraph import autodiff as ad
from latentgraph import gcn, synthetic
from latentgraph import graph_learning as gl
from latentgraph import training as tr
from latentgraph.data_io import TabularDataset
from latentgraph.errors import ContractError, DataError, DimensionError, NumericalError

from conftest import make_blobs

RNG = np.random.default_rng(77)

FAST = dict(epochs=120, embed_hidden=(), embed_dim=4, gc_widths=(8, 4))


class TestLrSchedule:
    def setup_method(self):
        self.cfg = tr.TrainConfig()

    def test_starts_at_lr0(self):
        assert tr.lr_schedule(0, self.cfg) == 0.01

    def test_reaches_lr_min_by_the_end(self):
        assert abs(tr.lr_schedule(599, self.cfg) - 0.0001) < 1e-12
        assert abs(tr.lr_schedule(500, self.cfg) - 0.0001) < 1e-12

    def test_first_decay_step(self):
        # geometric interpolation over 5 steps: 0.01 * (1e-2)^(1/5)
        assert abs(tr.lr_schedule(100, self.cfg) - 0.0039810717055349725) < 1e-12

    def test_piecewise_constant_within_a_step(self):
        assert tr.lr_schedule(100, self.cfg) == tr.lr_schedule(199, self.cfg)

    def test_clamped_below(self):
        cfg = tr.TrainConfig(epochs=2000)
        assert tr.lr_schedule(1999, cfg) == cfg.lr_min


class TestTrainConfig:
    @pytest.mark.parametrize("fields", [
        dict(gc_widths=()), dict(gc_widths=(0,)), dict(gc_widths=(8, -1)),
        dict(embed_dim=0), dict(embed_hidden=(16, 0)),
        dict(epochs=-1), dict(folds=1), dict(lr0=0.001, lr_min=0.01),
        dict(seed=-1)])
    def test_invalid_fields_rejected(self, fields):
        with pytest.raises(ContractError):
            tr.TrainConfig(**fields)

    def test_smallest_valid_widths_accepted(self):
        cfg = tr.TrainConfig(embed_hidden=(), embed_dim=1, gc_widths=(1,))
        assert cfg.gc_widths == (1,)


def adam_oracle(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scripted Adam on a single parameter vector."""
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(x.copy())
    return trajectory


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.parameter(RNG.normal(size=(3, 2)))
        before = p.values.copy()
        state = tr.AdamState([p])
        p.grad = np.zeros((3, 2))
        tr.adam_step(state, lr=0.1)
        assert np.array_equal(p.values, before)

    def test_first_step_closed_form(self):
        g = RNG.normal(size=(4,))
        p = ad.parameter(np.zeros(4))
        state = tr.AdamState([p])
        p.grad = g
        tr.adam_step(state, lr=0.05)
        expected = -0.05 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.values, expected, atol=1e-12)

    def test_each_parameter_steps_on_its_own_grad(self):
        grads = [RNG.normal(size=(2, 3)), RNG.normal(size=(5,))]
        params = [ad.parameter(np.zeros(g.shape)) for g in grads]
        state = tr.AdamState(params)
        for p, g in zip(params, grads):
            p.grad = g
        tr.adam_step(state, lr=0.05)
        for p, g in zip(params, grads):
            np.testing.assert_allclose(p.values, -0.05 * g / (np.abs(g) + 1e-8), atol=1e-12)

    def test_ten_step_quadratic_matches_oracle(self):
        # minimize 0.5 * x^T diag(c) x; gradient c * x
        c = np.array([1.0, 4.0, 0.25])
        x0 = np.array([2.0, -1.0, 3.0])
        expected = adam_oracle(x0, lambda x: c * x, lr=0.1, steps=10)
        p = ad.parameter(x0.copy())
        state = tr.AdamState([p])
        actual = []
        for _ in range(10):
            p.grad = c * p.values
            tr.adam_step(state, lr=0.1)
            actual.append(p.values.copy())
        for got, want in zip(actual, expected):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_flat_update_matches_per_tensor_loop_bit_for_bit(self):
        # a 0-d parameter whose gradient is a numpy scalar (as sigmoid's
        # threshold sum is), a vector and a matrix
        rng = np.random.default_rng(5)
        shapes = [(), (4,), (3, 5)]
        start = [rng.normal(size=s) for s in shapes]
        params = [ad.parameter(x.copy()) for x in start]
        captured = [p.values for p in params]
        state = tr.AdamState(params)
        expected = [x.copy() for x in start]
        m = [np.zeros_like(x) for x in start]
        v = [np.zeros_like(x) for x in start]
        for t in range(1, 6):
            grads = [np.float64(rng.normal()), *(rng.normal(size=s) for s in shapes[1:])]
            for p, g in zip(params, grads):
                p.grad = g
            tr.adam_step(state, lr=0.05)
            for i, g in enumerate(grads):
                m[i] = tr.ADAM_BETA1 * m[i] + (1.0 - tr.ADAM_BETA1) * g
                v[i] = tr.ADAM_BETA2 * v[i] + (1.0 - tr.ADAM_BETA2) * (g * g)
                m_hat = m[i] / (1.0 - tr.ADAM_BETA1 ** t)
                v_hat = v[i] / (1.0 - tr.ADAM_BETA2 ** t)
                expected[i] -= 0.05 * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPSILON)
            for p, values, want in zip(params, captured, expected):
                assert p.values is values
                assert np.array_equal(values, want)

    @pytest.mark.parametrize("grad, message", [
        (None, "parameter 1 of shape \\(3,\\) has no gradient"),
        (np.ones(1), "parameter 1 of shape \\(3,\\) has a gradient of shape \\(1,\\)"),
        (np.ones((2, 2)), "parameter 1 of shape \\(3,\\) has a gradient of shape \\(2, 2\\)"),
    ], ids=["missing", "broadcastable", "too_large"])
    def test_bad_gradient_raises_before_anything_changes(self, grad, message):
        a, b = ad.parameter(np.ones(3)), ad.parameter(np.ones(3))
        state = tr.AdamState([a, b])
        a.grad, b.grad = np.ones(3), np.ones(3)
        tr.adam_step(state, lr=0.1)
        before = [a.values.copy(), b.values.copy(), state.m.copy(), state.v.copy()]
        a.grad, b.grad = np.ones(3), grad
        with pytest.raises(ContractError, match=message):
            tr.adam_step(state, lr=0.1)
        assert state.step == 1
        after = [a.values, b.values, state.m, state.v]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


class TestStratifiedKFold:
    def test_balanced_two_class(self):
        labels = np.array([0, 1] * 10)
        split = tr.stratified_kfold(labels, 10, seed=0)
        for test_idx in split.test_indices:
            counts = np.bincount(labels[test_idx], minlength=2)
            assert np.array_equal(counts, [1, 1])

    def test_singleton_classes_rejected(self):
        labels = np.arange(6)  # 6 classes, one member each
        with pytest.raises(DataError, match="class"):
            tr.stratified_kfold(labels, 6, seed=0)

    def test_imbalanced_counts(self):
        labels = np.array([0] * 30 + [1] * 10)
        split = tr.stratified_kfold(labels, 5, seed=3)
        for test_idx in split.test_indices:
            counts = np.bincount(labels[test_idx], minlength=2)
            assert np.array_equal(counts, [6, 2])

    def test_partition(self):
        labels = RNG.integers(0, 3, size=47)
        while np.bincount(labels, minlength=3).min() < 5:
            labels = RNG.integers(0, 3, size=47)
        split = tr.stratified_kfold(labels, 5, seed=1)
        gathered = np.sort(np.concatenate(split.test_indices))
        assert np.array_equal(gathered, np.arange(47))
        for train_idx, test_idx in zip(split.train_indices, split.test_indices):
            assert np.intersect1d(train_idx, test_idx).size == 0
            assert train_idx.size + test_idx.size == 47

    def test_deterministic(self):
        labels = RNG.integers(0, 2, size=30)
        a = tr.stratified_kfold(labels, 3, seed=9)
        b = tr.stratified_kfold(labels, 3, seed=9)
        for x, y in zip(a.test_indices, b.test_indices):
            assert np.array_equal(x, y)

    @given(st.integers(2, 4), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_per_class_counts_differ_by_at_most_one(self, k, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=40)
        if np.bincount(labels, minlength=3).min() < k:
            return
        split = tr.stratified_kfold(labels, k, seed=seed)
        for cls in range(3):
            per_fold = [int((labels[te] == cls).sum()) for te in split.test_indices]
            assert max(per_fold) - min(per_fold) <= 1


def pair_count_auc(scores, positives):
    """O(n^2) enumeration with 0.5 credit for ties."""
    pos = np.flatnonzero(positives)
    neg = np.flatnonzero(~np.asarray(positives, dtype=bool))
    if pos.size == 0 or neg.size == 0:
        return None
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (pos.size * neg.size)


def tie_loop_ranks(scores):
    """1-based average ranks by walking each run of ties in sorted order."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAuc:
    def test_perfect_scores(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert tr.binary_auc(scores, labels) == 1.0

    def test_null_distribution(self):
        rng = np.random.default_rng(5)
        scores = rng.random(4000)
        labels = rng.random(4000) < 0.5
        assert abs(tr.binary_auc(scores, labels) - 0.5) < 0.05

    def test_three_class_matches_pair_count_oracle(self):
        rng = np.random.default_rng(8)
        scores = rng.random((30, 3))
        labels = rng.integers(0, 3, size=30)
        expected = np.mean([pair_count_auc(scores[:, c], labels == c)
                            for c in range(3)])
        assert abs(tr.macro_ovr_auc(scores, labels) - expected) < 1e-12

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                    min_size=4, max_size=12),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_tie_convention_matches_oracle(self, score_list, seed):
        scores = np.array(score_list)
        labels = np.random.default_rng(seed).random(scores.size) < 0.5
        expected = pair_count_auc(scores, labels)
        got = tr.binary_auc(scores, labels)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12

    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_average_ranks_match_tie_loop(self, score_list):
        scores = np.array(score_list)
        assert np.array_equal(tr._average_ranks(scores), tie_loop_ranks(scores))

    def test_single_class_mask_gives_none(self):
        assert tr.binary_auc(np.array([1.0, 2.0]), np.array([True, True])) is None
        assert tr.macro_ovr_auc(np.ones((3, 2)), np.zeros(3, dtype=int)) is None


class TestTrain:
    def test_separable_blobs_reach_full_train_accuracy(self, blobs):
        cfg = tr.TrainConfig(seed=0, **FAST)
        params, history = tr.train(blobs, cfg)
        assert history[-1].train_acc == 1.0
        # cross-check against the linear oracle: blobs are separable
        split = tr.stratified_kfold(blobs.y, 4, 0)
        assert tr.linear_baseline(blobs, split).accuracy_mean == 1.0

    def test_zero_epochs_returns_initialized_params(self, blobs):
        cfg = tr.TrainConfig(seed=0, epochs=0, embed_hidden=(), embed_dim=4)
        params, history = tr.train(blobs, cfg)
        assert history == []
        assert params.fc_weight.values.shape[1] == 2

    def test_seed_determinism(self, blobs):
        cfg = tr.TrainConfig(seed=4, **FAST)
        _, h1 = tr.train(blobs, cfg)
        _, h2 = tr.train(blobs, cfg)
        assert [(r.loss, r.train_acc) for r in h1] == \
               [(r.loss, r.train_acc) for r in h2]

    def test_tile_size_changes_only_the_last_bits(self, monkeypatch):
        # at N = 300, tiles of 16 rows make 190 tile pairs, 128 rows 6 and
        # 512 rows one tile. Adam scales a gradient that rounding alone sets
        # up to a step of its own, so the weights agree less closely than
        # the losses
        dataset = synthetic.make_classification_dataset(seed=0)
        cfg = tr.TrainConfig(seed=0, epochs=5)
        runs = []
        for tile in (16, 128, 512):
            monkeypatch.setattr(ad, "TILE", tile)
            params, history = tr.train(dataset, cfg, train_mask=np.arange(0, 300, 2))
            runs.append(([r.loss for r in history], [t.values for t in params.tensors()]))
        for losses, values in runs[1:]:
            np.testing.assert_allclose(losses, runs[0][0], rtol=1e-12, atol=0.0)
            for got, want in zip(values, runs[0][1]):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_single_class_mask_rejected(self, blobs):
        cfg = tr.TrainConfig(seed=0, **FAST)
        only_zero = np.flatnonzero(blobs.y == 0)
        with pytest.raises(ContractError):
            tr.train(blobs, cfg, train_mask=only_zero)

    def test_non_finite_loss_aborts_with_epoch(self, blobs):
        blobs.X[0, 0] = np.inf
        cfg = tr.TrainConfig(seed=0, **FAST)
        with pytest.raises(NumericalError, match="epoch 0"):
            with np.errstate(all="ignore"):
                tr.train(blobs, cfg)

    def test_loss_decreases_in_expectation(self):
        # scaled-down trend check: late-window median loss beats early-window
        window = 20
        diffs = []
        for seed in range(10):
            ds = make_blobs(n_per_class=30, n_classes=3, separation=4.0, seed=seed)
            cfg = tr.TrainConfig(seed=seed, **FAST)
            _, history = tr.train(ds, cfg)
            losses = [r.loss for r in history]
            diffs.append(np.median(losses[-window:]) < np.median(losses[:window]))
        assert all(diffs)

    def test_backward_forms_no_nxn_temporary(self, monkeypatch):
        # the GC layers multiply through the edge weights' tile pairs and
        # their row sums and hand the operator's gradient over as factors,
        # row_normalize hands them on to sigmoid, and sigmoid's adjoint works
        # tile pair by tile pair, so the peak is the edge weights' upper tile
        # pairs, about 0.53 of an N x N buffer, plus tiles and thin arrays:
        # 0.65 in all
        buffers = traced_step_buffers(monkeypatch)
        assert buffers <= 0.8, f"{buffers:.2f} N x N buffers"

    def test_graph_operator_is_never_formed(self, blobs, forbid_forming_the_operator):
        # P = A / rowsum(A) is read only through A and its row sums, in
        # training and evaluation, on a learned and on a static graph
        forbid_forming_the_operator()
        with pytest.raises(AssertionError, match="operator P was formed"):
            ad.row_normalize(np.ones((3, 3))).values
        cfg = tr.TrainConfig(seed=0, **{**FAST, "epochs": 2})
        everyone = np.arange(blobs.n_nodes)
        for adjacency in (None, tr.knn_adjacency(blobs.X, 5)):
            params, _ = tr.train(blobs, cfg, adjacency=adjacency)
            tr.evaluate(params, blobs, everyone)

    def test_static_graph_is_row_normalized_once(self, blobs, monkeypatch):
        # the model keeps its static graph row-normalized, so no epoch's
        # forward pass sums its rows again
        adjacency = tr.knn_adjacency(blobs.X, 5)
        calls = []
        row_normalize = ad.row_normalize

        def counting_row_normalize(a):
            calls.append(a)
            return row_normalize(a)

        monkeypatch.setattr(ad, "row_normalize", counting_row_normalize)
        tr.train(blobs, tr.TrainConfig(seed=0, **{**FAST, "epochs": 3}), adjacency=adjacency)
        assert len(calls) == 1

    def test_edge_weights_are_never_mirrored(self, blobs, monkeypatch,
                                             forbid_mirroring_the_edge_weights):
        # every consumer in training and evaluation walks the learned
        # graph's tile pairs; 40 nodes in tiles of 8 rows make 15 of them
        monkeypatch.setattr(ad, "TILE", 8)
        forbid_mirroring_the_edge_weights()
        with pytest.raises(AssertionError, match="edge weights were mirrored"):
            gl.soft_adjacency(blobs.X, gl.init_edge_params(blobs.X)).values
        cfg = tr.TrainConfig(seed=0, **{**FAST, "epochs": 2})
        params, _ = tr.train(blobs, cfg)
        tr.evaluate(params, blobs, np.arange(blobs.n_nodes))


def traced_step_buffers(monkeypatch):
    """Peak traced memory of a training step in N x N float64 buffers
    (8 * N^2 bytes each), for the model and size of the train_n2000
    benchmark. A step runs from the end of one Adam update to the end of
    the next, so a tape kept from the previous epoch counts against the
    next step. At N=2000 the N x 16 activations and the 128-row tiles are
    small beside one N x N buffer; at N=400 they weigh about 0.9 of one."""
    n = 2000
    dataset = synthetic.make_classification_dataset(n_nodes=n, seed=0)
    cfg = tr.TrainConfig(epochs=3, embed_hidden=(), embed_dim=16, gc_widths=(16, 8))
    forward, adam_step = gcn.forward, tr.adam_step
    held_before = []
    peaks = []

    def marked_forward(*args, **kwargs):
        if not held_before:  # lazy imports and parameters, not the step
            held_before.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return forward(*args, **kwargs)

    def traced_adam_step(state, lr):
        adam_step(state, lr)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    monkeypatch.setattr(gcn, "forward", marked_forward)
    monkeypatch.setattr(tr, "adam_step", traced_adam_step)
    tracemalloc.start()
    try:
        tr.train(dataset, cfg, np.arange(n)[: n * 9 // 10])
    finally:
        tracemalloc.stop()
    assert len(peaks) == cfg.epochs
    return (max(peaks) - held_before[0]) / (8.0 * n * n)


class TestEvaluate:
    def test_evaluate_and_inductive_infer_record_no_tape(self, blobs, monkeypatch):
        params, _ = tr.train(blobs, tr.TrainConfig(seed=0, **{**FAST, "epochs": 2}))
        forward = gcn.forward
        outputs = []

        def recording_forward(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(gcn, "forward", recording_forward)
        tr.evaluate(params, blobs, np.arange(blobs.n_nodes))
        tr.inductive_infer(params, blobs.X[:30], blobs.X[30:])
        assert len(outputs) == 2
        assert all(t.op is None and not t.requires_grad for t in outputs)
        assert forward(blobs.X, params).op is not None

    def test_peak_memory_is_about_three_quarters_of_an_nxn_buffer(self, monkeypatch):
        # the edge weights' upper tile pairs, the one N x N value of a
        # forward pass, about 0.52 of an N x N buffer, and thin arrays: 0.75
        # in all. In 16-row tiles, so that a tile is as small beside N x N at
        # N=400 as a 128-row tile is at N=2000
        monkeypatch.setattr(ad, "TILE", 16)
        n = 400
        dataset = synthetic.make_classification_dataset(n_nodes=n, seed=0)
        params, _ = tr.train(dataset, tr.TrainConfig(epochs=1, embed_hidden=(), embed_dim=16))
        tracemalloc.start()
        try:
            tr.evaluate(params, dataset, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 8 * n * n

    def test_perfect_predictions(self, blobs):
        cfg = tr.TrainConfig(seed=0, **FAST)
        params, _ = tr.train(blobs, cfg)
        metrics = tr.evaluate(params, blobs, np.arange(blobs.n_nodes))
        assert metrics.accuracy == 1.0
        assert metrics.auc == 1.0

    def test_single_class_mask_reports_absent_auc(self, blobs):
        cfg = tr.TrainConfig(seed=0, **FAST)
        params, _ = tr.train(blobs, cfg)
        mask = np.flatnonzero(blobs.y == 1)
        metrics = tr.evaluate(params, blobs, mask)
        assert metrics.auc is None
        assert 0.0 <= metrics.accuracy <= 1.0

    def test_empty_mask_rejected(self, blobs):
        cfg = tr.TrainConfig(seed=0, epochs=0)
        params, _ = tr.train(blobs, cfg)
        with pytest.raises(ContractError):
            tr.evaluate(params, blobs, np.array([], dtype=int))

    def test_negative_row_index_rejected(self, blobs):
        params, _ = tr.train(blobs, tr.TrainConfig(seed=0, epochs=0))
        with pytest.raises(ContractError):
            tr.evaluate(params, blobs, [-1])

    def test_float_labels_rejected(self):
        # compared with the integer predictions, such labels would score
        # accuracy 0 with no AUC instead of raising
        dataset = make_blobs(n_per_class=4, n_classes=3)
        params, _ = tr.train(dataset, tr.TrainConfig(seed=0, **FAST))
        shifted = dataclasses.replace(dataset, y=dataset.y + 0.4)
        with pytest.raises(ContractError, match="labels must be integers"):
            tr.evaluate(params, shifted, np.arange(dataset.n_nodes))


class TestCrossValidate:
    def test_reproducible_and_aggregated(self, blobs):
        cfg = tr.TrainConfig(seed=1, folds=3, **{**FAST, "epochs": 60})
        a = tr.cross_validate(blobs, cfg)
        b = tr.cross_validate(blobs, cfg)
        assert a.accuracy_mean == b.accuracy_mean
        assert a.accuracy_std == b.accuracy_std
        assert len(a.folds) == 3

    def test_parallel_workers_match_serial(self, blobs):
        cfg = tr.TrainConfig(seed=1, folds=2, **{**FAST, "epochs": 30})
        serial = tr.cross_validate(blobs, cfg, n_workers=1)
        parallel = tr.cross_validate(blobs, cfg, n_workers=2)
        assert serial.accuracy_mean == parallel.accuracy_mean

    def test_parallel_workers_match_serial_on_a_static_graph(self, blobs):
        # the adjacency reaches the workers through the pool initializer
        cfg = tr.TrainConfig(seed=1, folds=2, **{**FAST, "epochs": 30})
        adjacency = tr.knn_adjacency(blobs.X, 5)
        serial = tr.cross_validate(blobs, cfg, adjacency, n_workers=1)
        parallel = tr.cross_validate(blobs, cfg, adjacency, n_workers=2)
        assert serial.folds == parallel.folds


class TestParallelMap:
    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """A stand-in for the process pool that starts no process: it runs
        the initializer and the jobs here, and records the size of each
        pool and the pickled size of each job it is handed."""

        class FakePool:
            sizes = []
            job_bytes = []

            def __init__(self, max_workers, initializer, initargs):
                self.sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                self.job_bytes.extend(len(pickle.dumps((fn, job))) for job in jobs)
                return map(fn, jobs)

        monkeypatch.setattr(tr, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(tr, "_worker_call", None)
        monkeypatch.delenv(tr.WORKERS_ENV_VAR, raising=False)
        return FakePool

    @pytest.fixture
    def pool_sizes(self, fake_pool):
        """Sizes of the process pools parallel_map asks for; starts none."""
        return fake_pool.sizes

    def test_never_more_workers_than_jobs(self, pool_sizes):
        assert tr.parallel_map(abs, [-1, -2, -3], n_workers=64) == [1, 2, 3]
        assert pool_sizes == [3]

    def test_env_sets_worker_count(self, pool_sizes, monkeypatch):
        monkeypatch.setenv(tr.WORKERS_ENV_VAR, "64")
        assert tr.parallel_map(abs, list(range(-10, 0))) == list(range(10, 0, -1))
        monkeypatch.setenv(tr.WORKERS_ENV_VAR, "2")
        tr.parallel_map(abs, list(range(10)))
        assert pool_sizes == [10, 2]

    @pytest.mark.parametrize("env", [None, "1", "0", "-3", "two", ""])
    def test_unset_or_unparsable_env_runs_in_process(self, pool_sizes, monkeypatch, env):
        if env is not None:
            monkeypatch.setenv(tr.WORKERS_ENV_VAR, env)
        assert tr.parallel_map(abs, [-1, -2]) == [1, 2]
        assert pool_sizes == []

    def test_explicit_count_overrides_env(self, pool_sizes, monkeypatch):
        monkeypatch.setenv(tr.WORKERS_ENV_VAR, "8")
        tr.parallel_map(abs, [1, 2, 3], n_workers=1)
        tr.parallel_map(abs, [1, 2, 3], n_workers=2)
        assert pool_sizes == [2]

    def test_single_job_starts_no_pool(self, pool_sizes):
        assert tr.parallel_map(abs, [-5], n_workers=4) == [5]
        assert tr.parallel_map(abs, [], n_workers=4) == []
        assert pool_sizes == []

    def test_shared_arguments_come_first(self, pool_sizes):
        for n_workers in (1, 2):
            assert tr.parallel_map(divmod, [2, 3], n_workers, shared=(7,)) == [(3, 1), (2, 1)]
        assert pool_sizes == [2]

    def test_fold_job_does_not_grow_with_the_graph(self, fake_pool):
        # the dataset, the split and a static N x N adjacency reach each
        # worker once; a fold job is its fold number, whatever N is
        cfg = tr.TrainConfig(seed=0, folds=2, **{**FAST, "epochs": 1})
        per_size = []
        for n_per_class in (5, 60):
            dataset = make_blobs(n_per_class=n_per_class, seed=1)
            fake_pool.job_bytes.clear()
            tr.cross_validate(dataset, cfg, adjacency=tr.knn_adjacency(dataset.X, 3),
                              n_workers=2)
            per_size.append(list(fake_pool.job_bytes))
        assert len(per_size[0]) == 2
        assert per_size[0] == per_size[1]
        assert max(per_size[1]) < 200


class TestInductive:
    def setup_method(self):
        self.ds = make_blobs(n_per_class=25, seed=2)
        cfg = tr.TrainConfig(seed=0, **FAST)
        self.params, _ = tr.train(self.ds, cfg)

    def test_training_subset_predictions_match_transductive(self):
        from latentgraph import gcn
        logits = gcn.forward(self.ds.X, self.params)
        transductive = gcn.predict(logits)
        subset = np.arange(0, 20)
        preds = tr.inductive_infer(self.params, self.ds.X, self.ds.X[subset])
        assert np.array_equal(preds, transductive[subset])

    def test_duplicated_unseen_node_gets_identical_predictions(self):
        unseen = self.ds.X[:1] + 0.05
        doubled = np.vstack([unseen, unseen])
        preds = tr.inductive_infer(self.params, self.ds.X, doubled)
        assert preds[0] == preds[1]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            tr.inductive_infer(self.params, self.ds.X, np.zeros((2, 99)))

    def test_static_graph_model_is_rejected_before_any_forward_pass(self, monkeypatch):
        # its graph has rows for the training nodes only
        cfg = tr.TrainConfig(seed=0, **{**FAST, "epochs": 1})
        params, _ = tr.train(self.ds, cfg, adjacency=tr.knn_adjacency(self.ds.X, 3))

        def forward(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(gcn, "forward", forward)
        with pytest.raises(ContractError, match="fixed graph cannot infer unseen rows"):
            tr.inductive_infer(params, self.ds.X, self.ds.X[:2])


class TestLinearBaseline:
    def test_separable_blobs(self, blobs):
        split = tr.stratified_kfold(blobs.y, 4, 0)
        assert tr.linear_baseline(blobs, split).accuracy_mean == 1.0

    def test_pure_noise_is_chance_level(self):
        rng = np.random.default_rng(0)
        ds = TabularDataset(node_ids=[str(i) for i in range(300)],
                            X=rng.normal(size=(300, 10)),
                            y=np.repeat(np.arange(3), 100),
                            class_names=["a", "b", "c"],
                            feature_names=[f"f{i}" for i in range(10)])
        split = tr.stratified_kfold(ds.y, 5, 0)
        acc = tr.linear_baseline(ds, split).accuracy_mean
        assert abs(acc - 1.0 / 3.0) < 0.12

    def test_float_labels_rejected(self, blobs):
        # ridge_fit would index its one-hot targets with them
        split = tr.stratified_kfold(blobs.y, 4, 0)
        shifted = dataclasses.replace(blobs, y=blobs.y + 0.4)
        with pytest.raises(ContractError, match="labels must be integers"):
            tr.linear_baseline(shifted, split)

    def test_weights_match_augmented_lstsq_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12)
        weights = tr.ridge_fit(x, y, 2)
        # oracle: ridge == least squares on rows augmented with sqrt(lambda) I
        xa = np.hstack([x, np.ones((12, 1))])
        targets = np.eye(2)[y]
        stacked_x = np.vstack([xa, np.sqrt(1.0) * np.eye(4)])
        stacked_t = np.vstack([targets, np.zeros((4, 2))])
        expected, *_ = np.linalg.lstsq(stacked_x, stacked_t, rcond=None)
        np.testing.assert_allclose(weights, expected, atol=1e-8)


class TestNodeCap:
    """``ad.pairwise_euclidean`` checks the cap before it allocates, so a
    path that starts with the distances raises before any N x N buffer."""

    N = 600

    @pytest.mark.parametrize("path", ["train", "knn_adjacency"])
    def test_raises_before_the_first_nxn_buffer(self, path, monkeypatch):
        monkeypatch.setattr(ad, "MAX_GRAPH_NODES", 50)
        data = make_blobs(n_per_class=self.N // 2)
        run = {"train": lambda: tr.train(data, tr.TrainConfig(seed=0, **FAST)),
               "knn_adjacency": lambda: tr.knn_adjacency(data.X, 10)}[path]
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match=f"{self.N} nodes exceeds .* cap of 50"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * self.N ** 2


def stable_sort_knn(x, k):
    """The kNN graph from a stable sort of each row's distances: among
    equal distances the lowest columns come first."""
    n = x.shape[0]
    dists = ad.pairwise_euclidean(x).values
    np.fill_diagonal(dists, np.inf)
    cols = np.argsort(dists, axis=1, kind="stable")[:, :k]
    expected = np.zeros((n, n))
    expected[np.repeat(np.arange(n), k), cols.ravel()] = 1.0
    return np.maximum(expected, expected.T)


class TestKnnBaseline:
    def test_full_k_equals_complete_graph(self):
        x = RNG.normal(size=(7, 3))
        a = tr.knn_adjacency(x, 6)
        assert np.array_equal(a, np.ones((7, 7)) - np.eye(7))

    def test_adjacency_symmetric_with_min_degree(self):
        x = RNG.normal(size=(20, 4))
        a = tr.knn_adjacency(x, 3)
        assert np.array_equal(a, a.T)
        assert np.all(a.sum(axis=1) >= 3)
        assert np.array_equal(np.diag(a), np.zeros(20))

    @pytest.mark.parametrize("k", [1, 4, 10, 20])
    def test_ties_go_to_the_lowest_columns_as_in_a_stable_sort(self, k):
        # features on a small integer grid: many rows have several nodes
        # at their k-th distance
        n = 30
        x = RNG.integers(0, 3, size=(n, 3)).astype(float)
        dists = ad.pairwise_euclidean(x).values
        np.fill_diagonal(dists, np.inf)
        kth = np.sort(dists, axis=1)[:, k - 1:k]
        assert np.any((dists <= kth).sum(axis=1) > k)
        assert np.array_equal(tr.knn_adjacency(x, k), stable_sort_knn(x, k))

    @pytest.mark.parametrize("k", [1, 3, 4, 9, 29])
    def test_duplicated_rows_pick_neighbours_as_a_stable_sort(self, k):
        # each of 10 feature rows three times: every row has two partners at
        # distance 0, and whole groups of three tie at each distance after
        x = np.repeat(RNG.normal(size=(10, 4)), 3, axis=0)[RNG.permutation(30)]
        assert np.array_equal(tr.knn_adjacency(x, k), stable_sort_knn(x, k))

    @pytest.mark.parametrize("tile", [1, 4])
    def test_tiles_pick_neighbours_as_a_stable_sort(self, tile, monkeypatch):
        # the sort runs in blocks of TILE rows
        n = 30
        monkeypatch.setattr(ad, "TILE", tile)
        x = RNG.integers(0, 3, size=(n, 3)).astype(float)
        for k in (1, 4, 29):
            assert np.array_equal(tr.knn_adjacency(x, k), stable_sort_knn(x, k))

    def test_peak_memory_is_about_one_nxn_buffer(self):
        # the graph is written into the distance buffer, not a second one
        n = 1000
        x = RNG.normal(size=(n, 8))
        tracemalloc.start()
        try:
            tr.knn_adjacency(x, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n

    def test_invalid_k_rejected(self):
        with pytest.raises(ContractError):
            tr.knn_adjacency(np.zeros((5, 2)), 5)

    def test_informative_clusters_beat_chance(self, blobs):
        cfg = tr.TrainConfig(seed=0, folds=4, **{**FAST, "epochs": 60})
        metrics = tr.cross_validate(blobs, cfg, adjacency=tr.knn_adjacency(blobs.X, 5))
        assert metrics.accuracy_mean > 0.6
