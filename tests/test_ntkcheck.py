import numpy as np
import pytest

from learnpath.metrics import spearman
from learnpath.ntkcheck import (actual_delta_q, decompose_pair, empirical_ntk,
                                predicted_delta_q, residual_scaling_test,
                                similarity_trace_study, softmax_jacobian,
                                trace_evolution)
from learnpath.numerics import (MlpModel, init_mlp, mlp_backward, mlp_forward,
                                softmax)
from learnpath.toygauss import GaussianSpec, sample_dataset


def random_simplex(rng, n=200, k=3):
    return rng.dirichlet(np.ones(k), size=n)


def linear_model(dim, k=3, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.3, size=(k, dim))
    b = rng.normal(scale=0.1, size=k)
    return MlpModel((dim, k), [w], [b])


def per_seed_jacobian(model, x):
    """Reference logit Jacobian: one backward pass per unit seed e_k."""
    cache = mlp_forward(model, x)
    return np.vstack([np.concatenate([np.concatenate([dw.ravel(), db])
                                      for dw, db in mlp_backward(model, cache, e)])
                      for e in np.eye(model.num_classes)])


class TestSoftmaxJacobian:
    def test_entrywise_formula(self, rng):
        for q in random_simplex(rng, 50):
            a = softmax_jacobian(q)
            for i in range(3):
                for j in range(3):
                    want = q[i] * ((1.0 if i == j else 0.0) - q[j])
                    assert a[i, j] == pytest.approx(want, abs=1e-15)

    def test_symmetric_psd(self, rng):
        for q in random_simplex(rng, 100):
            a = softmax_jacobian(q)
            assert np.array_equal(a, a.T)
            assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_rows_sum_to_zero(self, rng):
        for q in random_simplex(rng, 100):
            assert np.allclose(softmax_jacobian(q) @ np.ones(3), 0.0, atol=1e-15)

    def test_trace_identity_and_bound(self, rng):
        for q in random_simplex(rng, 100, k=4):
            tr = np.trace(softmax_jacobian(q))
            assert tr == pytest.approx(1.0 - (q * q).sum(), abs=1e-14)
            assert -1e-15 <= tr <= 1.0 - 0.25 + 1e-12

    def test_uniform_trace_is_two_thirds(self):
        tr = np.trace(softmax_jacobian(np.full(3, 1 / 3)))
        assert tr == pytest.approx(2 / 3, abs=1e-15)

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            softmax_jacobian(np.array([0.5, 0.6, 0.1]))
        with pytest.raises(ValueError):
            softmax_jacobian(np.array([1.2, -0.2, 0.0]))
        with pytest.raises(ValueError):
            softmax_jacobian(np.full((2, 3), 1 / 6))


class TestEmpiricalNtk:
    def test_linear_model_closed_form(self, rng):
        # logits z = Wx + b make K(x, x') = (x.x' + 1) I exactly
        model = linear_model(6)
        for _ in range(10):
            x_o = rng.normal(size=6)
            x_u = rng.normal(size=6)
            want = (float(x_o @ x_u) + 1.0) * np.eye(3)
            assert np.allclose(empirical_ntk(model, x_o, x_u), want, atol=1e-12)

    def test_linear_orthogonal_inputs_give_identity(self):
        model = linear_model(4)
        x_o = np.array([1.0, 0.0, 0.0, 0.0])
        x_u = np.array([0.0, 2.0, 0.0, 0.0])
        assert np.allclose(empirical_ntk(model, x_o, x_u), np.eye(3), atol=1e-13)

    def test_self_pair_psd(self, rng):
        model = init_mlp((5, 16, 3), seed=3)
        for _ in range(20):
            x = rng.normal(size=5)
            k = empirical_ntk(model, x, x)
            assert np.allclose(k, k.T, atol=1e-12)
            assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_cross_pair_transpose(self, rng):
        model = init_mlp((5, 16, 3), seed=4)
        x_o, x_u = rng.normal(size=(2, 5))
        assert np.allclose(empirical_ntk(model, x_o, x_u),
                           empirical_ntk(model, x_u, x_o).T, atol=1e-13)


class TestDeltas:
    def test_predicted_move_sums_to_zero(self, rng):
        # A's rows sum to zero, so any A v keeps the simplex sum fixed
        model = init_mlp((5, 16, 3), seed=5)
        x_o, x_u = rng.normal(size=(2, 5))
        q_o = softmax(mlp_forward(model, x_o).logits)
        q_u = softmax(mlp_forward(model, x_u).logits)
        pred = predicted_delta_q(0.05, softmax_jacobian(q_o),
                                 empirical_ntk(model, x_o, x_u),
                                 rng.dirichlet(np.ones(3)), q_u)
        assert abs(pred.sum()) < 1e-12

    def test_actual_move_sums_to_zero(self, rng):
        model = init_mlp((5, 16, 3), seed=6)
        x_o, x_u = rng.normal(size=(2, 5))
        act = actual_delta_q(model, x_o, x_u, rng.dirichlet(np.ones(3)), 0.05)
        assert abs(act.sum()) < 1e-10

    def test_zero_eta_means_no_move(self, rng):
        model = init_mlp((5, 16, 3), seed=7)
        x_o, x_u = rng.normal(size=(2, 5))
        act = actual_delta_q(model, x_o, x_u, np.array([1.0, 0, 0]), 0.0)
        assert np.array_equal(act, np.zeros(3))

    def test_actual_leaves_model_untouched(self, rng):
        model = init_mlp((5, 16, 3), seed=8)
        before = model.flat()
        x_o, x_u = rng.normal(size=(2, 5))
        actual_delta_q(model, x_o, x_u, np.array([0.0, 1.0, 0.0]), 0.1)
        assert np.array_equal(model.flat(), before)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            predicted_delta_q(-0.1, np.eye(3), np.eye(3),
                              np.full(3, 1 / 3), np.full(3, 1 / 3))


def decomposition_pairs(n_pairs, seed=0):
    ds = sample_dataset(GaussianSpec(seed=seed), 200)
    rng = np.random.default_rng(seed + 17)
    pairs = []
    for _ in range(n_pairs):
        o, u = rng.choice(ds.n, size=2, replace=False)
        pairs.append((ds.x[o], ds.x[u], ds.p_star[u]))
    return pairs


class TestDecomposition:
    def test_record_fields_consistent(self, rng):
        model = init_mlp((30, 16, 3), seed=9)
        (x_o, x_u, p_tar) = decomposition_pairs(1)[0]
        [rec] = decompose_pair(model, x_o, x_u, p_tar, (0.01,), pair_id=3)
        assert rec.pair_id == 3 and rec.eta == 0.01
        assert rec.residual_norm == pytest.approx(
            np.linalg.norm(rec.actual - rec.predicted), abs=0)
        q_o = softmax(mlp_forward(model, x_o).logits)
        assert rec.trace_a == pytest.approx(1.0 - (q_o * q_o).sum(), abs=1e-14)

    def test_residual_shrinks_quadratically(self):
        # halving eta should shrink the first-order residual about 4x
        model = init_mlp((30, 16, 3), seed=10)
        pairs = decomposition_pairs(25, seed=1)
        records, medians = residual_scaling_test(
            model, pairs, (1e-2, 5e-3, 2.5e-3))
        assert len(records) == 75
        assert [e for e, _ in medians] == [1e-2, 5e-3, 2.5e-3]
        for (_, r1), (_, r2) in zip(medians, medians[1:]):
            assert 3.0 <= r1 / r2 <= 5.0

    @pytest.mark.parametrize("sizes", [(30, 3), (30, 16, 3), (30, 32, 32, 3)])
    def test_hoisted_records_match_per_eta_reference(self, sizes):
        # everything but the step is computed once per pair; each record
        # must still match predicted_delta_q / actual_delta_q at its eta
        model = init_mlp(sizes, seed=len(sizes))
        pairs = decomposition_pairs(4, seed=2)
        grid = (1e-2, 5e-3, 2.5e-3)
        records, _ = residual_scaling_test(model, pairs, grid)
        assert [(r.pair_id, r.eta) for r in records] == \
            [(pid, eta) for eta in grid for pid in range(len(pairs))]
        for rec in records:
            x_o, x_u, p_tar = pairs[rec.pair_id]
            q_o = softmax(mlp_forward(model, x_o).logits)
            q_u = softmax(mlp_forward(model, x_u).logits)
            kernel = empirical_ntk(model, x_o, x_u)
            pred = predicted_delta_q(rec.eta, softmax_jacobian(q_o), kernel,
                                     p_tar, q_u)
            act = actual_delta_q(model, x_o, x_u, p_tar, rec.eta)
            assert np.allclose(rec.predicted, pred, rtol=0, atol=1e-12)
            assert np.allclose(rec.actual, act, rtol=0, atol=1e-12)
            assert rec.trace_kernel == pytest.approx(np.trace(kernel), rel=1e-12)

    def test_model_untouched(self):
        model = init_mlp((30, 16, 3), seed=4)
        before = model.flat()
        x_o, x_u, p_tar = decomposition_pairs(1)[0]
        decompose_pair(model, x_o, x_u, p_tar, (0.5, 0.1))
        assert np.array_equal(model.flat(), before)

    def test_bad_inputs(self):
        model = init_mlp((30, 16, 3), seed=0)
        pairs = decomposition_pairs(2)
        with pytest.raises(ValueError):
            residual_scaling_test(model, [], (1e-2,))
        with pytest.raises(ValueError):
            residual_scaling_test(model, pairs, ())
        with pytest.raises(ValueError):
            residual_scaling_test(model, pairs, (0.0,))


class TestSimilarity:
    def test_self_pair_has_unit_cosine(self):
        model = init_mlp((8, 12, 3), seed=11)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(5, 8))
        out = similarity_trace_study(model, xs[2], xs)
        assert out["cosine"][2] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(out["index"], np.arange(5))

    def test_zero_vector_gets_zero_cosine(self):
        model = init_mlp((4, 8, 3), seed=12)
        xs = np.vstack([np.zeros(4), np.ones(4)])
        out = similarity_trace_study(model, np.ones(4), xs)
        assert out["cosine"][0] == 0.0

    def test_cosine_and_trace_rank_correlate_at_init(self):
        # seeded setup with a comfortably strong monotone relation
        model = init_mlp((30, 32, 3), seed=0)
        ds = sample_dataset(GaussianSpec(seed=0), 300)
        out = similarity_trace_study(model, ds.x[0], ds.x[1:201])
        rho = spearman(out["cosine"], out["trace"])
        assert abs(rho) >= 0.3

    @pytest.mark.parametrize("sizes", [(8, 3), (8, 12, 3), (8, 16, 16, 4)])
    def test_factored_trace_matches_full_jacobians(self, sizes):
        # 300 rows cross the 256-row block boundary
        model = init_mlp(sizes, seed=5)
        rng = np.random.default_rng(3)
        x_o, xs = rng.normal(size=8), rng.normal(size=(300, 8))
        out = similarity_trace_study(model, x_o, xs)
        j_o = per_seed_jacobian(model, x_o)
        want = [(j_o * per_seed_jacobian(model, x_u)).sum() for x_u in xs]
        assert np.allclose(out["trace"], want, rtol=1e-12, atol=0)

    def test_bad_xs_shape(self):
        model = init_mlp((4, 8, 3), seed=0)
        with pytest.raises(ValueError):
            similarity_trace_study(model, np.ones(4), np.ones(4))


class TestTraceEvolution:
    def test_bounds_hold_across_checkpoints(self, rng):
        models = [init_mlp((6, 10, 3), seed=s) for s in range(6)]
        x = rng.normal(size=6)
        traces = trace_evolution(models, x)
        assert traces.shape == (6,)
        assert np.all(traces >= -1e-12)
        assert np.all(traces <= 2 / 3 + 1e-12)

    def test_zero_weights_give_uniform_trace(self):
        model = init_mlp((6, 10, 3), seed=0)
        for w in model.weights:
            w[:] = 0.0
        got = trace_evolution([model], np.ones(6))
        assert got[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_confident_logits_give_near_zero_trace(self):
        model = MlpModel((4, 3), [np.zeros((3, 4))],
                         [np.array([50.0, 0.0, 0.0])])
        got = trace_evolution([model], np.ones(4))
        assert got[0] == pytest.approx(0.0, abs=1e-10)
