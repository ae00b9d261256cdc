import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from learnpath.numerics import (MlpModel, finite_diff_grad, init_mlp,
                                logits_jacobian, mlp_backward, mlp_forward,
                                predict_proba, sgd_step, softmax)

# softmax(1, 2, 3) evaluated with mpmath at 50 digits, rounded to float64
SOFTMAX_123 = (0.090030573170380457998,
               0.24472847105479765247,
               0.66524095577482188953)


def naive_forward(model, x):
    """Independent forward pass: plain python loops, no shared code path."""
    a = [float(v) for v in x]
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = []
        for row, bias in zip(w, b):
            s = float(bias)
            for wij, aj in zip(row, a):
                s += float(wij) * float(aj)
            z.append(s)
        last = layer == model.num_layers - 1
        a = z if last else [max(v, 0.0) for v in z]
    return np.array(a)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_dominance(self):
        q = softmax(np.array([0.0, -1e3, -1e3]))
        assert q[0] == pytest.approx(1.0, abs=1e-12)

    def test_high_precision_oracle(self):
        q = softmax(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(q, SOFTMAX_123, rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        z = np.array([3.0, -1.0, 0.5])
        assert np.allclose(softmax(z), softmax(z + 123.456), atol=1e-15)

    def test_large_logits_stable(self):
        q = softmax(np.array([1e4, 1e4 - 5.0, 0.0]))
        assert np.isfinite(q).all() and q.sum() == pytest.approx(1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))

    @given(arrays(np.float64, 5, elements=st.floats(-50, 50)))
    def test_simplex_output(self, z):
        q = softmax(z)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert (q >= 0).all()


class TestForward:
    def test_zero_weights_give_biases(self):
        model = init_mlp((4, 3), seed=0)
        model.weights[0][:] = 0.0
        model.biases[0][:] = (0.5, -1.0, 2.0)
        out = mlp_forward(model, np.ones(4)).logits
        assert np.allclose(out, [0.5, -1.0, 2.0], atol=0)

    def test_single_layer_is_affine(self):
        model = init_mlp((4, 2), seed=1)
        x = np.arange(4.0)
        want = model.weights[0] @ x + model.biases[0]
        assert np.allclose(mlp_forward(model, x).logits, want, atol=0)

    def test_matches_naive_reimplementation(self):
        model = init_mlp((6, 5, 4, 3), seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=6)
            got = mlp_forward(model, x).logits
            assert np.allclose(got, naive_forward(model, x), rtol=1e-12, atol=1e-12)

    def test_last_layer_not_rectified(self):
        model = init_mlp((3, 4, 2), seed=2)
        logits = [mlp_forward(model, x).logits
                  for x in np.random.default_rng(4).normal(size=(40, 3))]
        assert any(l.min() < 0 for l in logits)

    def test_dimension_mismatch(self):
        model = init_mlp((3, 2), seed=0)
        with pytest.raises(ValueError):
            mlp_forward(model, np.zeros(5))

    def test_cache_logits_alias(self):
        model = init_mlp((3, 4, 2), seed=0)
        cache = mlp_forward(model, np.ones(3))
        assert cache.logits is cache.pre_activations[-1]


def ce_loss_fn(x, target):
    def loss(m):
        q = softmax(mlp_forward(m, x).logits)
        return float(-(target * np.log(q)).sum())
    return loss


def flat_grads(grads):
    return np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grads])


class TestBackward:
    def test_zero_grad_logits(self):
        model = init_mlp((4, 3, 2), seed=0)
        cache = mlp_forward(model, np.ones(4))
        grads = mlp_backward(model, cache, np.zeros(2))
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)

    def test_linearity_in_grad_logits(self):
        model = init_mlp((4, 3, 2), seed=5)
        cache = mlp_forward(model, np.linspace(-1, 1, 4))
        g = np.array([0.3, -0.7])
        one = mlp_backward(model, cache, g)
        two = mlp_backward(model, cache, 2 * g)
        for (dw1, db1), (dw2, db2) in zip(one, two):
            assert np.allclose(2 * dw1, dw2, rtol=1e-12, atol=1e-15)
            assert np.allclose(2 * db1, db2, rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences(self):
        # central differences straddle the ReLU kink, so triples whose
        # hidden pre-activations land on 0 (dead upstream layer) are redrawn
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            model = init_mlp((5, 6, 4, 3), seed=int(rng.integers(1 << 20)))
            x = rng.normal(size=5)
            target = rng.dirichlet(np.ones(3))
            cache = mlp_forward(model, x)
            hidden = np.concatenate([z.ravel() for z in cache.pre_activations[:-1]])
            if np.abs(hidden).min() < 1e-6:
                continue
            q = softmax(cache.logits)
            analytic = flat_grads(mlp_backward(model, cache, q - target))
            numeric = flat_grads(finite_diff_grad(ce_loss_fn(x, target), model))
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert err < 1e-6
            checked += 1

    def test_model_restored_by_finite_diff(self):
        model = init_mlp((3, 4, 2), seed=9)
        before = model.flat().copy()
        finite_diff_grad(ce_loss_fn(np.ones(3), np.array([0.5, 0.5])), model)
        assert np.array_equal(model.flat(), before)


class TestJacobian:
    def test_linear_model_rows(self):
        model = init_mlp((3, 1), seed=0)
        x = np.array([2.0, -1.0, 0.5])
        jac = logits_jacobian(model, x)
        assert jac.shape == (1, 4)
        assert np.allclose(jac[0], [*x, 1.0], atol=0)

    def test_directional_consistency(self):
        model = init_mlp((4, 5, 3), seed=6)
        x = np.linspace(-1, 1, 4)
        jac = logits_jacobian(model, x)
        rng = np.random.default_rng(2)
        direction = rng.normal(size=model.num_params)
        direction /= np.linalg.norm(direction)
        eps = 1e-6
        bumped = model.copy()
        bumped.set_flat(model.flat() + eps * direction)
        dipped = model.copy()
        dipped.set_flat(model.flat() - eps * direction)
        numeric = (mlp_forward(bumped, x).logits
                   - mlp_forward(dipped, x).logits) / (2 * eps)
        assert np.allclose(jac @ direction, numeric, rtol=1e-5, atol=1e-8)

    def test_row_matches_backward(self):
        model = init_mlp((3, 4, 2), seed=8)
        x = np.ones(3)
        cache = mlp_forward(model, x)
        jac = logits_jacobian(model, x)
        seed_vec = np.array([1.0, 0.0])
        grads = mlp_backward(model, cache, seed_vec)
        assert np.array_equal(jac[0], flat_grads(grads))


class TestBatchedJacobian:
    """logits_jacobian's single (K, width) backward vs K seeded passes."""

    @staticmethod
    def per_seed_reference(model, x):
        cache = mlp_forward(model, x)
        return np.vstack([flat_grads(mlp_backward(model, cache, e))
                          for e in np.eye(model.num_classes)])

    @pytest.mark.parametrize("sizes", [(6, 3), (5, 1), (4, 7, 2),
                                       (30, 32, 32, 32, 3), (8, 16, 9, 5)])
    def test_matches_per_seed_backward(self, sizes):
        model = init_mlp(sizes, seed=len(sizes))
        rng = np.random.default_rng(sum(sizes))
        for x in rng.normal(size=(4, sizes[0])):
            want = self.per_seed_reference(model, x)
            got = logits_jacobian(model, x)
            assert got.shape == (model.num_classes, model.num_params)
            assert np.allclose(got, want, rtol=1e-12, atol=0)


def zeros_like_params(model):
    return [(np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(model.weights, model.biases)]


class TestSgdStep:
    def test_zero_grads_identity(self):
        model = init_mlp((3, 2), seed=0)
        before = model.flat().copy()
        sgd_step(model, zeros_like_params(model), 0.5)
        assert np.array_equal(model.flat(), before)

    def test_zero_eta_identity(self):
        model = init_mlp((3, 2), seed=0)
        cache = mlp_forward(model, np.ones(3))
        grads = mlp_backward(model, cache, np.array([1.0, -1.0]))
        before = model.flat().copy()
        sgd_step(model, grads, 0.0)
        assert np.array_equal(model.flat(), before)

    def test_scalar_update(self):
        model = MlpModel(layer_sizes=(1, 1), weights=[np.array([[1.0]])],
                         biases=[np.array([0.0])])
        sgd_step(model, [(np.array([[2.0]]), np.array([0.0]))], 0.1)
        assert model.weights[0][0, 0] == pytest.approx(0.8, abs=0)

    def test_negative_eta_rejected(self):
        model = init_mlp((2, 2), seed=0)
        with pytest.raises(ValueError):
            sgd_step(model, zeros_like_params(model), -0.1)


class TestFiniteDiff:
    def test_quadratic(self):
        model = MlpModel(layer_sizes=(1, 1), weights=[np.array([[3.0]])],
                         biases=[np.array([0.0])])
        grads = finite_diff_grad(lambda m: 0.5 * float(m.weights[0][0, 0]) ** 2, model)
        assert grads[0][0][0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_constant_loss(self):
        model = init_mlp((2, 3, 2), seed=0)
        grads = finite_diff_grad(lambda m: 1.0, model)
        assert np.allclose(flat_grads(grads), 0.0, atol=0)


class TestInit:
    def test_deterministic(self):
        a = init_mlp((5, 4, 3), seed=10)
        b = init_mlp((5, 4, 3), seed=10)
        assert np.array_equal(a.flat(), b.flat())
        c = init_mlp((5, 4, 3), seed=11)
        assert not np.array_equal(a.flat(), c.flat())

    def test_zero_biases_and_fan_in_scale(self):
        model = init_mlp((200, 300, 3), seed=0)
        assert all(np.all(b == 0) for b in model.biases)
        std = model.weights[0].std()
        assert std == pytest.approx(np.sqrt(2 / 200), rel=0.1)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_mlp((5,), seed=0)
        with pytest.raises(ValueError):
            init_mlp((5, 0, 3), seed=0)


class TestModelPlumbing:
    def test_flat_round_trip(self):
        model = init_mlp((4, 3, 2), seed=1)
        flat = model.flat().copy()
        other = init_mlp((4, 3, 2), seed=2)
        other.set_flat(flat)
        assert np.array_equal(other.flat(), flat)

    def test_copy_is_deep(self):
        model = init_mlp((3, 2), seed=0)
        clone = model.copy()
        clone.weights[0][0, 0] += 1.0
        assert model.weights[0][0, 0] != clone.weights[0][0, 0]

    def test_num_params(self):
        model = init_mlp((4, 5, 3), seed=0)
        assert model.num_params == 4 * 5 + 5 + 5 * 3 + 3
        assert model.flat().shape == (model.num_params,)

    def test_predict_proba_matches_single(self):
        model = init_mlp((4, 3), seed=5)
        xs = np.random.default_rng(3).normal(size=(7, 4))
        batch = predict_proba(model, xs)
        assert batch.shape == (7, 3)
        for i, x in enumerate(xs):
            single = softmax(mlp_forward(model, x).logits)
            assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-15)
        assert np.allclose(batch.sum(axis=1), 1.0, atol=1e-12)
