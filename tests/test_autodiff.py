import ast
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentgraph import autodiff as ad
from latentgraph import gcn
from latentgraph.errors import ContractError, DimensionError, NumericalError
from latentgraph.gradcheck import (END_TO_END_TOLERANCE, OP_TOLERANCE,
                                   end_to_end_check, op_checks, relative_error)

from conftest import zero_fill_backward

RNG = np.random.default_rng(1234)

finite_matrices = arrays(np.float64, (4, 3),
                         elements=st.floats(-1e3, 1e3, allow_nan=False))


def plain_sigmoid(x):
    return ad.sigmoid(x, -1.0, 0.0)  # 1 / (1 + exp(-x)), bit for bit


def matmul_oracle(a, b):
    """Brute-force triple loop."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def pairwise_oracle(e):
    """Per-pair loop with library sqrt."""
    n = e.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sqrt(((e[i] - e[j]) ** 2).sum())
    return out


class TestMatmul:
    def test_identity(self):
        m = RNG.normal(size=(3, 3))
        assert np.array_equal(ad.matmul(np.eye(3), m).values, m)

    def test_hand_sum(self):
        out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
        assert np.array_equal(out.values, [[3.0], [7.0]])

    def test_matches_triple_loop(self):
        a = RNG.normal(size=(4, 5))
        b = RNG.normal(size=(5, 3))
        np.testing.assert_allclose(ad.matmul(a, b).values,
                                   matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_adjoints(self):
        a = ad.parameter(RNG.normal(size=(3, 4)))
        b = ad.parameter(RNG.normal(size=(4, 2)))
        g = RNG.normal(size=(3, 2))
        loss = ad.sum_all(ad.mul(ad.matmul(a, b), g))
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, g @ b.values.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.values.T @ g, atol=1e-12)


class TestPairwiseEuclidean:
    def test_3_4_5_triangle(self):
        d = ad.pairwise_euclidean([[0.0, 0.0], [3.0, 4.0]]).values
        assert d[0, 1] == 5.0 and d[1, 0] == 5.0

    def test_zero_diagonal(self):
        d = ad.pairwise_euclidean(RNG.normal(size=(7, 4))).values
        assert np.array_equal(np.diag(d), np.zeros(7))

    def test_matches_per_pair_oracle(self):
        e = RNG.normal(size=(6, 3))
        np.testing.assert_allclose(ad.pairwise_euclidean(e).values,
                                   pairwise_oracle(e), atol=1e-9)

    def test_exact_symmetry(self):
        e = RNG.normal(size=(9, 5)) * 37.1
        d = ad.pairwise_euclidean(e).values
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_exact_symmetry_for_non_c_contiguous_inputs(self, layout):
        base = RNG.normal(size=(18, 12)) * 37.1
        e = np.asfortranarray(base[:9]) if layout == "fortran" else base[::2, 1::3]
        assert not e.flags["C_CONTIGUOUS"]
        d = ad.pairwise_euclidean(e).values
        assert np.array_equal(d, d.T)
        np.testing.assert_allclose(d, pairwise_oracle(e), atol=1e-9)

    def test_coincident_points_gradient_is_finite(self):
        e = ad.parameter(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
        loss = ad.sum_all(ad.pairwise_euclidean(e))
        ad.backward(loss)
        assert np.all(np.isfinite(e.grad))


class TestSigmoid:
    def test_zero(self):
        assert plain_sigmoid(np.asarray(0.0)).values == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            hi = plain_sigmoid(np.asarray(40.0)).values
            lo = plain_sigmoid(np.asarray(-745.0)).values
        assert abs(hi - 1.0) < 1e-15
        assert lo >= 0.0

    def test_value_at_two(self):
        # frozen from a 40-digit evaluation of 1 / (1 + exp(-2))
        assert abs(plain_sigmoid(np.asarray(2.0)).values - 0.8807970779778823) < 1e-15

    def test_matches_two_branch_reference(self):
        # The former kernel: both branches exponentiate only -|x|.
        def two_branch(x):
            ez = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))

        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                            np.linspace(-745.0, -709.0, 3_601),
                            [-np.inf, np.inf, -0.0]])
        with np.errstate(under="ignore"):
            expected = two_branch(x)
        with np.errstate(all="raise"):
            got = plain_sigmoid(x).values
        tiny = np.finfo(np.float64).tiny
        normal = expected >= tiny
        assert normal.any() and (~normal).any()
        # both formulas round at most a few times: 4 ulp apart at worst
        rel = np.abs(got[normal] - expected[normal]) / expected[normal]
        assert rel.max() <= 4 * np.finfo(np.float64).eps
        # below the smallest normal (x < -708.4) only absolute agreement
        assert np.all(got[~normal] >= 0.0)
        assert np.all(np.abs(got[~normal] - expected[~normal]) <= tiny)

    def test_adjoint_uses_s_times_one_minus_s(self):
        x = ad.parameter(np.array([0.3, -1.2]))
        out = plain_sigmoid(x)
        ad.backward(ad.sum_all(out))
        s = out.values
        np.testing.assert_allclose(x.grad, s * (1 - s), atol=1e-15)

    def test_adjoint_of_a_scalar_receiving_a_numpy_scalar(self):
        # mul by a 0-d operand hands the other 0-d input the numpy scalar
        # np.vdot(g, c), which the in-place adjoint must still scale
        x = ad.parameter(np.asarray(0.3))
        out = plain_sigmoid(x)
        ad.backward(ad.mul(out, 3.0))
        s = out.values
        np.testing.assert_allclose(x.grad, 3.0 * s * (1 - s), rtol=1e-15)


class TestSoftplus:
    @pytest.mark.filterwarnings("error")
    def test_adjoint_matches_two_branch_sigmoid(self):
        # the adjoint reads sigmoid(x) off the output as -expm1(-softplus(x))
        def two_branch(x):
            ez = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))

        x = np.concatenate([np.linspace(-745.0, 1000.0, 200_001),
                            np.linspace(-40.0, 40.0, 80_001),
                            [-745.0, -709.79, -0.0, 37.0, 710.0, 1000.0]])
        expected = two_branch(x)
        p = ad.parameter(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ad.backward(ad.sum_all(ad.softplus(p)))
        assert np.all(np.isfinite(p.grad))
        # the saturated ends are included: subnormal below, 1 above
        assert expected[0] < np.finfo(np.float64).tiny and expected[-1] == 1.0
        assert np.all(np.abs(p.grad - expected) <= 4.5e-16 * expected)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [-745.0, -3.0, 0.0, 2.0, 1000.0])
    def test_adjoint_of_a_0d_input(self, x):
        p = ad.parameter(np.asarray(x))
        ad.backward(ad.mul(ad.softplus(p), 3.0))
        ez = np.exp(-abs(x))
        s = 1.0 / (1.0 + ez) if x >= 0 else ez / (1.0 + ez)
        assert abs(p.grad - 3.0 * s) <= 4.5e-16 * 3.0 * s


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.parameter(RNG.normal(size=(3, 4)))
        ad.backward(ad.sum_all(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_squared_norm_gives_2w(self):
        w = ad.parameter(RNG.normal(size=(3, 4)))
        ad.backward(ad.sum_all(ad.mul(w, w)))
        np.testing.assert_allclose(w.grad, 2 * w.values, atol=1e-12)

    def test_loss_grad_is_one(self):
        w = ad.parameter(np.array([2.0]))
        loss = ad.sum_all(ad.mul(w, w))
        ad.backward(loss)
        assert loss.grad == 1.0

    def test_non_scalar_rejected(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ContractError):
            ad.backward(ad.mul(w, w))

    def test_grads_zeroed_between_passes(self):
        w = ad.parameter(np.array([1.0, 2.0]))
        loss = ad.sum_all(w)
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        assert np.array_equal(w.grad, first)

    def test_tape_visits_each_op_once(self):
        # diamond: both branches share one input
        w = ad.parameter(np.array([1.0, 2.0]))
        a = ad.mul(w, 2.0)
        loss = ad.sum_all(ad.add(a, a))
        tape = ad.build_tape(loss)
        assert len(tape) == len({id(t) for t in tape})
        recorded = [t for t in tape if t.op is not None]
        assert len(recorded) == 3  # mul, add, sum_all
        ad.backward(loss)
        assert np.array_equal(w.grad, np.array([4.0, 4.0]))

    @pytest.mark.parametrize("extra", ["a", "b"])
    @pytest.mark.parametrize("branch_first", [True, False])
    def test_add_operands_do_not_share_a_gradient_buffer(self, extra, branch_first):
        # add passes its output gradient straight through; when both of its
        # distinct parameters take it as their first contribution, a later
        # contribution to one of them must not reach the other
        p = ad.parameter(RNG.normal(size=(3, 2)))
        q = ad.parameter(RNG.normal(size=(3, 2)))
        w1, w2 = RNG.normal(size=(3, 2)), RNG.normal(size=(3, 2))
        target = p if extra == "a" else q
        if branch_first:
            branch = ad.mul(ad.mul(target, 3.0), w2)
            joint = ad.mul(ad.add(p, q), w1)
        else:
            joint = ad.mul(ad.add(p, q), w1)
            branch = ad.mul(ad.mul(target, 3.0), w2)
        loss = ad.sum_all(ad.add(joint, branch))
        ad.backward(loss)
        other = q if extra == "a" else p
        np.testing.assert_allclose(target.grad, w1 + 3.0 * w2, rtol=1e-15)
        assert np.array_equal(other.grad, w1)

    def test_root_passed_through_keeps_unit_grad(self):
        # the root's gradient reaches p and q through two adds
        p = ad.parameter(np.asarray(1.5))
        q = ad.parameter(np.asarray(-2.0))
        loss = ad.add(ad.add(p, q), ad.mul(p, 2.0))
        for _ in range(2):
            ad.backward(loss)
            assert loss.grad == 1.0
            assert p.grad == 3.0 and q.grad == 1.0

    def test_negation_passes_on_a_numpy_scalar_gradient(self):
        # mul by a 0-d operand hands the 0-d difference the numpy scalar
        # np.vdot(g, c), which has no buffer to write in place
        t = ad.parameter(np.asarray(0.4))
        ad.backward(ad.mul(ad.add(2.0, ad.mul(-1.0, t)), 3.0))
        assert t.grad == -3.0

    def test_no_grad_records_nothing_and_is_restored_after_an_error(self):
        w = ad.parameter(RNG.normal(size=(2, 3)))
        with pytest.raises(ContractError):
            with ad.no_grad():
                out = ad.sum_all(plain_sigmoid(w))
                assert out.op is None and not out.requires_grad
                raise ContractError("leaves the block")
        assert ad.sum_all(plain_sigmoid(w)).op == "sum_all"

    def test_a_tensor_added_to_its_negation_gives_zero(self):
        w = ad.parameter(RNG.normal(size=(2, 3)))
        ad.backward(ad.sum_all(ad.mul(ad.add(w, ad.mul(-1.0, w)), RNG.normal(size=(2, 3)))))
        assert np.array_equal(w.grad, np.zeros((2, 3)))


def pairwise_gradient(w, e):
    """Gradient of sum(w * D(e)) per pair, with the smoothed denominator."""
    diff = e[:, None, :] - e[None, :, :]
    s = (w + w.T) / np.sqrt((diff ** 2).sum(axis=-1) + ad.DISTANCE_EPS)
    np.fill_diagonal(s, 0.0)
    return [(s[:, :, None] * diff).sum(axis=1)]


def forward_and_gradients(op, values, weight):
    """Output of ``op`` on fresh parameters, and their gradients under the
    loss sum(op(...) * weight)."""
    params = [ad.parameter(v.copy()) for v in values]
    out = op(*params)
    ad.backward(ad.sum_all(ad.mul(out, weight)))
    return out.values, [p.grad for p in params]


class TestRowBlocks:
    """With ``BLOCK_BYTES`` cut to one row, every blocked N x N kernel must
    give exactly its one-block result."""

    N = 9

    @pytest.fixture
    def one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * self.N)

    def test_blocks_cover_every_row_once_in_order(self, one_row_blocks):
        a, b = RNG.normal(size=(self.N, self.N)), RNG.normal(size=(self.N, 2))
        seen = []
        ad._by_row_blocks(lambda x, y: seen.append((x.copy(), y.copy())), a, b)
        assert len(seen) == self.N
        assert np.array_equal(np.vstack([x for x, _ in seen]), a)
        assert np.array_equal(np.vstack([y for _, y in seen]), b)

    def test_array_of_one_block_is_passed_whole(self):
        a = RNG.normal(size=(self.N, self.N))
        seen = []
        ad._by_row_blocks(lambda x: seen.append(x), a)
        assert len(seen) == 1 and seen[0] is a

    @pytest.mark.parametrize("op, shape", [
        (ad.pairwise_euclidean, (N, 4)),
        (plain_sigmoid, (N, N)),
        (lambda a: ad.row_normalize(plain_sigmoid(a)), (N, N)),
    ], ids=["pairwise_euclidean", "sigmoid", "row_normalize"])
    def test_forward_and_adjoint_equal_one_block(self, op, shape, monkeypatch):
        values = [RNG.uniform(-2.0, 2.0, size=shape)]
        weight = RNG.normal(size=(self.N, self.N))
        whole, whole_grads = forward_and_gradients(op, values, weight)
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * self.N)
        blocked, blocked_grads = forward_and_gradients(op, values, weight)
        assert np.array_equal(blocked, whole)
        for got, want in zip(blocked_grads, whole_grads):
            assert np.array_equal(got, want)

    def test_blocked_distances_exactly_symmetric_with_zero_diagonal(self, one_row_blocks):
        d = ad.pairwise_euclidean(RNG.normal(size=(self.N, 5))).values
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(self.N))

    @pytest.mark.filterwarnings("error")
    def test_row_normalize_names_a_row_in_a_later_block(self, one_row_blocks):
        a = RNG.uniform(0.5, 1.0, size=(self.N, self.N))
        a[6] = 0.0
        with pytest.raises(NumericalError, match="row 6 "):
            ad.row_normalize(a)

    @pytest.mark.parametrize("op, shapes, expected", [
        (ad.add, [(), (N, N)], lambda w, p, q: [w.sum(), w]),
        (ad.add, [(N, N), ()], lambda w, p, q: [w, w.sum()]),
        (ad.mul, [(), (N, N)], lambda w, p, q: [(w * q).sum(), w * p]),
        (ad.mul, [(N, N), ()], lambda w, p, q: [w * q, (w * p).sum()]),
        (ad.pairwise_euclidean, [(N, 4)], pairwise_gradient),
        (lambda a, b, c: ad.add(ad.matmul(a, b), ad.matmul(a, c)), [(N, N), (N, 2), (N, 2)],
         lambda w, a, b, c: [w @ (b + c).T, a.T @ w, a.T @ w]),
    ], ids=["add_scalar", "add_scalar_right", "mul_scalar", "mul_scalar_right",
            "pairwise_euclidean", "matmul_two_contributions"])
    def test_adjoints_match_closed_forms_in_multi_row_blocks(self, op, shapes, expected,
                                                              monkeypatch):
        # three rows per block: a partial sum or product per block
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * self.N * 3)
        values = [RNG.uniform(-1.0, 1.0, size=s) for s in shapes]
        weight = RNG.normal(size=op(*values).shape)
        _, grads = forward_and_gradients(op, values, weight)
        for got, want in zip(grads, expected(weight, *values)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_pairwise_adjoint_holds_no_nxn_temporary_in_one_row_blocks(self, monkeypatch):
        # one row per block is the most blocks an N x N adjoint can take;
        # its extra memory must stay a few N-vectors, far below one N x N
        # buffer, however many blocks there are
        n = 300
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * n)
        out = ad.pairwise_euclidean(ad.parameter(RNG.normal(size=(n, 3))))
        g = RNG.normal(size=(n, n))
        tracemalloc.start()
        try:
            out._adjoint(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * n * n

    def test_blocked_ops_match_finite_differences(self, monkeypatch):
        # every array of more than one element is cut into single rows, and
        # every transposed product is formed as (y.T @ x).T
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8)
        for name, err in op_checks(seed=5, instances=3).items():
            assert err < OP_TOLERANCE, f"{name}: {err}"
        assert end_to_end_check(seed=5, instances=2) < END_TO_END_TOLERANCE


def affine_chain(d, t, theta):
    """The edge weights sigmoid(t * (theta - d)) as four recorded ops;
    theta + (-d) has the same bits as theta - d."""
    return plain_sigmoid(ad.mul(t, ad.add(theta, ad.mul(-1.0, d))))


class TestAffineSigmoid:
    """``sigmoid(d, t, theta)`` is ``affine_chain`` in one op."""

    N = 9

    def inputs(self):
        d = ad.pairwise_euclidean(RNG.normal(size=(self.N, 3))).values
        return [d, np.asarray(1.7), np.asarray(0.9 * np.median(d))]

    @pytest.mark.parametrize("rows_per_block", [None, 1, 4],
                             ids=["one_block", "one_row_blocks", "four_row_blocks"])
    def test_matches_the_reference_chain(self, rows_per_block, monkeypatch):
        if rows_per_block is not None:
            monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * self.N * rows_per_block)
        values = self.inputs()
        weight = RNG.normal(size=(self.N, self.N))
        fused, fused_grads = forward_and_gradients(ad.sigmoid, values, weight)
        chain, chain_grads = forward_and_gradients(affine_chain, values, weight)
        assert np.array_equal(fused, chain)
        for got, want in zip(fused_grads, chain_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t_theta", [800.0, -800.0])
    def test_saturated_values_and_gradients_stay_finite(self, t_theta):
        values = self.inputs()
        values[2] = np.asarray(t_theta / values[1])
        weight = RNG.normal(size=(self.N, self.N))
        fused, grads = forward_and_gradients(ad.sigmoid, values, weight)
        chain, _ = forward_and_gradients(affine_chain, values, weight)
        assert np.array_equal(fused, chain)
        assert all(np.all(np.isfinite(g)) for g in [fused, *grads])

    def test_constant_distances_get_no_grad(self):
        d, t, theta = self.inputs()
        weight = RNG.normal(size=(self.N, self.N))
        _, grads = forward_and_gradients(ad.sigmoid, [d, t, theta], weight)
        scalars = [ad.parameter(t), ad.parameter(theta)]
        distances = ad.as_tensor(d)
        ad.backward(ad.sum_all(ad.mul(ad.sigmoid(distances, *scalars), weight)))
        assert distances.grad is None
        assert [p.grad for p in scalars] == grads[1:]

    @pytest.mark.parametrize("temperature, threshold", [
        (np.ones(3), 0.5), (1.0, np.ones((1, 1))), (1.0, None), (None, 0.5)],
        ids=["vector_temperature", "matrix_threshold", "no_threshold",
             "no_temperature"])
    def test_edge_scalars_must_be_two_0d_inputs(self, temperature, threshold):
        with pytest.raises(DimensionError, match="0-d"):
            ad.sigmoid(np.zeros((3, 3)), temperature, threshold)


class TestPrunedGraphOperator:
    """The learned operator P = D^-1 A of a hard-pruned graph: every edge
    weight, the self-loops included, is far below 1, yet no row sum is 0."""

    @pytest.mark.parametrize("t_theta", [-28.0, -40.0, -700.0])
    def test_rows_sum_to_one_with_finite_gradients(self, t_theta):
        rng = np.random.default_rng(50)
        e = ad.parameter(rng.normal(size=(50, 4)))
        t = ad.parameter(np.asarray(2.0))
        theta = ad.parameter(np.asarray(t_theta / 2.0))
        p = ad.row_normalize(ad.sigmoid(ad.pairwise_euclidean(e), t, theta))
        assert np.max(np.abs(p.values.sum(axis=1) - 1.0)) <= 1e-12
        ad.backward(ad.sum_all(ad.mul(p, rng.normal(size=(50, 50)))))
        for param in (e, t, theta):
            assert np.all(np.isfinite(param.grad))


class TestFactoredOperatorGradient:
    """The ``matmul``s that read a row-normalized operator P hand it their
    gradient shares G @ Y.T as factors; ``row_normalize``'s adjoint must
    give what the dense dP and the row-normalize adjoint give."""

    N = 9

    def loss(self, a, consumers, dense):
        """sum_l sum((P @ y_l) * w_l), plus sum(P) before ("first") or after
        ("last") the products when ``dense`` says so; returns it and P."""
        p = ad.row_normalize(a)
        terms = [ad.sum_all(ad.mul(ad.matmul(p, y), w)) for y, w in consumers]
        if dense == "first":
            terms.insert(0, ad.sum_all(p))
        elif dense == "last":
            terms.append(ad.sum_all(p))
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        return loss, p

    @staticmethod
    def dense_reference(a, consumers, dense_grad=0.0):
        # dP = sum_l G_l @ Y_l.T with G_l = w_l, plus the dense part;
        # then dS = (dP - rowdot(dP, P)) / rowsum(A)
        sums = a.sum(axis=1, keepdims=True)
        dp = sum(w @ y.T for y, w in consumers) + dense_grad
        return (dp - (dp * (a / sums)).sum(axis=1, keepdims=True)) / sums

    @pytest.mark.parametrize("rows_per_block", [None, 1, 4],
                             ids=["one_block", "one_row_blocks", "four_row_blocks"])
    @pytest.mark.parametrize("n_consumers, dense", [
        (1, None), (2, None), (2, "first"), (2, "last")],
        ids=["one_consumer", "two_consumers", "mixed_dense_first", "mixed_dense_last"])
    def test_matches_the_dense_reference(self, n_consumers, dense, rows_per_block,
                                         monkeypatch, forbid_forming_the_operator):
        if rows_per_block is not None:
            monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * self.N * rows_per_block)
        values = RNG.uniform(0.5, 1.5, size=(self.N, self.N))
        consumers = [(RNG.normal(size=(self.N, 2)), RNG.normal(size=(self.N, 2)))
                     for _ in range(n_consumers)]
        a = ad.parameter(values.copy())
        if dense is None:
            # the matmuls multiply through A and its row sums
            forbid_forming_the_operator()
        loss, p = self.loss(a, consumers, dense)
        # the adjoint never forms P, also beside a dense part
        forbid_forming_the_operator()
        ad.backward(loss)
        want = self.dense_reference(values, consumers, 0.0 if dense is None else 1.0)
        assert np.max(np.abs(a.grad - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("b_first", [True, False])
    def test_add_hands_the_operator_and_its_other_operand_separate_buffers(self, b_first):
        # add hands the same g to both operands. When P already holds
        # factors and b has no gradient yet, the dense part P keeps must not
        # be the buffer b takes, which b's later contribution is added into
        # and P's adjoint writes in place
        a = ad.parameter(RNG.uniform(0.5, 1.5, size=(self.N, self.N)))
        b = ad.parameter(RNG.normal(size=(self.N, self.N)))
        y, w, w_sum, w_b = (RNG.normal(size=s) for s in
                            [(self.N, 2), (self.N, 2), (self.N, self.N), (self.N, self.N)])
        p = ad.row_normalize(a)
        product = ad.sum_all(ad.mul(ad.matmul(p, y), w))
        shared = ad.sum_all(ad.mul(ad.add(p, b), w_sum))
        b_alone = ad.sum_all(ad.mul(b, w_b))
        terms = [b_alone, product, shared] if b_first else [product, shared, b_alone]
        ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
        want = self.dense_reference(a.values, [(y, w)], w_sum)
        np.testing.assert_allclose(a.grad, want, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b.grad, w_sum + w_b, rtol=1e-12, atol=1e-14)

    def test_consumers_get_their_dense_gradients(self):
        a = ad.parameter(RNG.uniform(0.5, 1.5, size=(self.N, self.N)))
        ys = [ad.parameter(RNG.normal(size=(self.N, 2))) for _ in range(2)]
        ws = [RNG.normal(size=(self.N, 2)) for _ in range(2)]
        loss, p = self.loss(a, list(zip(ys, ws)), None)
        ad.backward(loss)
        for y, w in zip(ys, ws):
            assert isinstance(y.grad, np.ndarray)
            np.testing.assert_allclose(y.grad, p.values.T @ w, rtol=1e-12, atol=1e-14)


class TestGradientBuffers:
    """An adjoint may write into the gradient it receives, so no two
    tensors may end up holding one buffer, and no buffer may be written
    after a tensor took it."""

    N = 6

    @pytest.mark.parametrize("op, shapes, expected", [
        (ad.add, [(N, N), (N, N)], lambda w, p, q: [w, w]),
        (ad.add, [(), (N, N)], lambda w, p, q: [w.sum(), w]),
        (ad.add, [(N, N), ()], lambda w, p, q: [w, w.sum()]),
        (ad.mul, [(N, N), (N, N)], lambda w, p, q: [w * q, w * p]),
        (ad.mul, [(), (N, N)], lambda w, p, q: [(w * q).sum(), w * p]),
        (ad.mul, [(N, N), ()], lambda w, p, q: [w * q, (w * p).sum()]),
        (lambda w: ad.mul(w, w), [(N, N)], lambda w, p: [2.0 * w * p]),
    ], ids=["add", "add_scalar", "add_scalar_right", "mul", "mul_scalar",
            "mul_scalar_right", "mul_self"])
    def test_gradients_are_owned_and_match_zero_fill(self, op, shapes, expected,
                                                      monkeypatch):
        # the op feeds the blocked sigmoid and row_normalize kernels, one
        # row per block
        monkeypatch.setattr(ad, "BLOCK_BYTES", 8 * self.N)
        values = [RNG.uniform(-1.0, 1.0, size=s) for s in shapes]
        weight = RNG.normal(size=(self.N, self.N))
        params = [ad.parameter(v.copy()) for v in values]
        loss = ad.sum_all(ad.mul(ad.row_normalize(plain_sigmoid(op(*params))), weight))
        zero_fill_backward(loss)
        reference = [p.grad.copy() for p in params]
        ad.backward(loss)
        grads = [p.grad for p in params]
        for got, want in zip(grads, reference):
            assert np.array_equal(got, want)
        for i, g in enumerate(grads):
            for other in [*grads[i + 1:], weight, *(p.values for p in params)]:
                assert not np.shares_memory(g, other)

        # the op alone: each gradient is its closed form
        op_weight = RNG.normal(size=(self.N, self.N))
        fresh = [ad.parameter(v.copy()) for v in values]
        ad.backward(ad.sum_all(ad.mul(op(*fresh), op_weight)))
        for p, want in zip(fresh, expected(op_weight, *values)):
            np.testing.assert_allclose(p.grad, want, rtol=1e-12, atol=1e-14)
        assert all(np.array_equal(p.values, v) for p, v in zip(fresh, values))


class TestConstantOperands:
    @pytest.mark.parametrize("op, shape_a, shape_b", [
        (ad.add, (4, 3), (4, 3)),
        (ad.add, (4, 3), (1, 3)),  # broadcast bias
        (ad.add, (), (4, 3)),  # scalar
        (ad.mul, (4, 3), (4, 3)),
        (ad.matmul, (4, 5), (5, 3)),
    ], ids=["add", "add_bias", "add_scalar", "mul", "matmul"])
    @pytest.mark.parametrize("constant", [0, 1], ids=["constant_a", "constant_b"])
    def test_constant_gets_no_grad_and_other_grad_is_unchanged(
            self, op, shape_a, shape_b, constant):
        values = [RNG.normal(size=shape_a), RNG.normal(size=shape_b)]
        weight = RNG.normal(size=(4, 3))
        both = [ad.parameter(v) for v in values]
        ad.backward(ad.sum_all(ad.mul(op(*both), weight)))
        inputs = [ad.parameter(v) for v in values]
        inputs[constant] = ad.as_tensor(values[constant])
        ad.backward(ad.sum_all(ad.mul(op(*inputs), weight)))
        assert inputs[constant].grad is None
        other = 1 - constant
        assert np.array_equal(inputs[other].grad, both[other].grad)


class TestPlumbingOps:
    def test_add_mul_match_numpy(self):
        a, b = RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3))
        assert np.array_equal(ad.add(a, b).values, a + b)
        assert np.array_equal(ad.mul(a, b).values, a * b)
        assert np.array_equal(ad.mul(a, 2.5).values, a * 2.5)

    def test_broadcast_add_bias_row(self):
        h = ad.parameter(RNG.normal(size=(4, 3)))
        bias = ad.parameter(RNG.normal(size=(1, 3)))
        out = ad.add(h, bias)
        ad.backward(ad.sum_all(out))
        assert np.array_equal(bias.grad, np.full((1, 3), 4.0))

    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(ad.relu(x).values, [[0.0, 0.0, 2.0]])

    def test_row_normalize_rows_sum_to_one(self):
        a = np.abs(RNG.normal(size=(5, 5))) + 0.1
        out = ad.row_normalize(a).values
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-9)

    def test_row_normalize_matches_loop_oracle(self):
        a = np.abs(RNG.normal(size=(4, 4))) + 0.1
        expected = np.array([row / row.sum() for row in a])
        np.testing.assert_allclose(ad.row_normalize(a).values, expected, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_row_normalize_zero_row_names_node(self):
        a = np.ones((3, 3))
        a[1] = 0.0
        with pytest.raises(NumericalError, match="row 1"):
            ad.row_normalize(a)

    @pytest.mark.filterwarnings("error")
    def test_row_normalize_nan_row_names_node(self):
        # NaN <= 0 is False, so the positivity test must be written as > 0
        a = np.ones((3, 3))
        a[2, 0] = np.nan
        with pytest.raises(NumericalError, match="row 2 has sum nan"):
            ad.row_normalize(a)

    def test_cross_entropy_matches_loop_oracle(self):
        logits = RNG.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        mask = np.array([True, True, False, True, True])
        expected = []
        for i in np.flatnonzero(mask):
            z = logits[i]
            expected.append(np.log(np.exp(z).sum()) - z[labels[i]])
        loss = ad.row_softmax_cross_entropy(logits, labels, mask)
        np.testing.assert_allclose(loss.values, np.mean(expected), atol=1e-12)

    @pytest.mark.parametrize("length", [3, 7])
    def test_cross_entropy_boolean_mask_of_wrong_length_rejected(self, length):
        with pytest.raises(DimensionError):
            ad.row_softmax_cross_entropy(np.zeros((5, 2)), np.zeros(5, dtype=int),
                                         np.ones(length, dtype=bool))

    @pytest.mark.parametrize("index", [-1, 5])
    def test_cross_entropy_row_index_outside_rows_rejected(self, index):
        with pytest.raises(ContractError):
            ad.row_softmax_cross_entropy(np.zeros((5, 2)), np.zeros(5, dtype=int),
                                         np.array([0, index]))

    def test_cross_entropy_labels_of_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="labels"):
            ad.row_softmax_cross_entropy(np.zeros((5, 2)), np.zeros(3, dtype=int),
                                         np.arange(5))

    def test_cross_entropy_rejects_non_integer_labels(self):
        # truncating would score these as classes 0, 1, 2
        with pytest.raises(ContractError, match="integers"):
            ad.row_softmax_cross_entropy(np.zeros((3, 3)), np.array([0.9, 1.5, 2.7]),
                                         np.ones(3, dtype=bool))

    @pytest.mark.parametrize("mask", [[0.7, 2.9], [0.0, 2.0]])
    def test_row_indices_reject_non_integer_indices(self, mask):
        with pytest.raises(ContractError, match="integers"):
            ad.row_indices(np.array(mask), 5)

    def test_cross_entropy_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            ad.row_softmax_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int),
                                         np.zeros(2, dtype=bool))

    def test_softplus_and_tanh_values(self):
        x = np.array([-700.0, 0.0, 700.0])
        with np.errstate(over="raise"):
            sp = ad.softplus(x).values
        assert sp[0] >= 0.0 and abs(sp[1] - np.log(2)) < 1e-15 and sp[2] == 700.0
        assert np.array_equal(ad.tanh(np.asarray([0.5])).values, np.tanh([0.5]))


def skew_factors(g):
    """The factors of an operator gradient made 1% too large; a dense
    gradient is passed on as it is."""
    if isinstance(g, ad._OperatorGrad):
        g.left *= 1.01
    return g


class TestGradientCorrectness:
    def test_every_op_matches_finite_differences(self):
        results = op_checks(seed=7, instances=10)
        for name, err in results.items():
            assert err < 1e-4, f"{name}: {err}"

    @pytest.mark.parametrize("op, skew, reported, unaffected", [
        # built on a sigmoid, both row_normalize checks see its skew
        ("sigmoid", lambda g: 1.01 * g,
         ["sigmoid", "row_normalize", "row_normalize_operator"], ["matmul"]),
        # only the operator path hands row_normalize factors
        ("row_normalize", skew_factors,
         ["row_normalize_operator"], ["row_normalize", "sigmoid", "matmul"]),
    ], ids=["sigmoid", "row_normalize_factors"])
    def test_wrong_adjoint_is_reported(self, op, skew, reported, unaffected,
                                       monkeypatch):
        # every ``op`` records an adjoint whose gradient is skewed by 1%
        record = ad._record

        def skewed(values, name, inputs, adjoint):
            if name == op:
                return record(values, name, inputs, lambda g: adjoint(skew(g)))
            return record(values, name, inputs, adjoint)

        monkeypatch.setattr(ad, "_record", skewed)
        results = op_checks(seed=0, instances=2)
        for name in reported:
            assert results[name] > OP_TOLERANCE, name
        for name in unaffected:
            assert results[name] < OP_TOLERANCE, name
        assert end_to_end_check(seed=0, instances=2) > END_TO_END_TOLERANCE

    def test_relative_error_leaves_parameters_untouched(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        params = gcn.init_model(x, 3, embed_hidden=(5,), embed_dim=3,
                                gc_widths=(4,), rng=rng)
        tensors = params.tensors()
        before = [t.values.copy() for t in tensors]
        error = relative_error(
            lambda: ad.row_softmax_cross_entropy(gcn.forward(x, params), y, np.arange(5)),
            tensors)
        assert error < END_TO_END_TOLERANCE
        for t, values in zip(tensors, before):
            assert np.array_equal(t.values, values)

    def test_every_recorded_op_has_a_check(self):
        # op names passed to _record in autodiff: each needs a gradcheck
        # entry, and each entry (or variant "<op>_...") needs a live op
        tree = ast.parse(inspect.getsource(ad))
        recorded = {node.args[1].value for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_record"}
        assert "pairwise_euclidean" in recorded and "matmul" in recorded
        checked = set(op_checks(seed=0, instances=1))
        assert recorded <= checked, sorted(recorded - checked)
        orphans = [name for name in checked
                   if not any(name == op or name.startswith(op + "_") for op in recorded)]
        assert not orphans

    def test_only_leaves_and_record_construct_a_tensor(self):
        # whether an op output is recorded is decided in _record alone; an
        # op that builds its own Tensor would fork the gradient rule
        tree = ast.parse(inspect.getsource(ad))
        builders = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Tensor"}
        assert builders == {"as_tensor", "parameter", "_record"}


class TestNumericalHygiene:
    @given(finite_matrices)
    @settings(max_examples=25, deadline=None)
    def test_no_nan_inf_for_bounded_inputs(self, x):
        with np.errstate(over="raise", invalid="raise"):
            assert np.all(np.isfinite(plain_sigmoid(x).values))
            assert np.all(np.isfinite(ad.softplus(x).values))
            assert np.all(np.isfinite(ad.tanh(x).values))
            labels = np.zeros(x.shape[0], dtype=int)
            loss = ad.row_softmax_cross_entropy(x, labels, np.ones(x.shape[0], bool))
            assert np.isfinite(loss.values)

    def test_forward_determinism_bit_identical(self):
        e = RNG.normal(size=(6, 4))
        first = plain_sigmoid(ad.pairwise_euclidean(e)).values
        second = plain_sigmoid(ad.pairwise_euclidean(e)).values
        assert np.array_equal(first, second)
