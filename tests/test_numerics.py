import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from learnpath.numerics import (MlpModel, finite_diff_grad, init_mlp,
                                jacobian_factors, mlp_backward, mlp_forward,
                                param_views, predict_proba, sgd_step, softmax)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_supervision import reference_forward, reference_step  # noqa: E402

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

    @pytest.mark.parametrize("k", [3, 7])
    def test_stack_rows_have_the_bits_of_the_formula(self, rng, k):
        # exp(z - max) / sum as written, per row, with rows at +-700
        z = rng.normal(scale=20.0, size=(40, k))
        z[3, :2], z[8, -2:], z[11] = (700.0, -700.0), (-700.0, 699.5), -700.0
        q = softmax(z)
        for row, q_r in zip(z, q):
            e = np.exp(row - row.max())
            assert q_r.tobytes() == (e / e.sum()).tobytes()
            assert softmax(row).tobytes() == q_r.tobytes()

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
        out = mlp_forward(model, np.ones(4))[-1]
        assert np.allclose(out, [0.5, -1.0, 2.0], atol=0)

    def test_single_layer_is_affine(self):
        model = init_mlp((4, 2), seed=1)
        x = np.arange(4.0)
        want = model.weights[0] @ x + model.biases[0]
        assert np.allclose(mlp_forward(model, x)[-1], want, atol=0)

    def test_matches_naive_reimplementation(self):
        model = init_mlp((6, 5, 4, 3), seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=6)
            got = mlp_forward(model, x)[-1]
            assert np.allclose(got, naive_forward(model, x), rtol=1e-12, atol=1e-12)

    def test_last_layer_not_rectified(self):
        model = init_mlp((3, 4, 2), seed=2)
        logits = [mlp_forward(model, x)[-1]
                  for x in np.random.default_rng(4).normal(size=(40, 3))]
        assert any(l.min() < 0 for l in logits)

    def test_dimension_mismatch(self):
        model = init_mlp((3, 2), seed=0)
        with pytest.raises(ValueError):
            mlp_forward(model, np.zeros(5))

    @pytest.mark.parametrize("sizes", [(30, 3), (5, 6, 4, 3), (30, 32, 32, 32, 3)])
    def test_rows_have_the_bits_of_each_input_alone(self, sizes):
        # one model over (n, in): every entry gains the row axis, and row i
        # is the pass of input i alone
        model = init_mlp(sizes, seed=2)
        xs = np.random.default_rng(6).normal(size=(9, sizes[0]))
        acts = mlp_forward(model, xs)
        assert [a.shape for a in acts] == [(9, s) for s in sizes]
        for i, x in enumerate(xs):
            for got, want in zip(acts, mlp_forward(model, x)):
                assert np.array_equal(got[i], want)

    def test_stack_rows_read_their_own_inputs(self):
        # a stack of R over (R, in): run r reads row r, as its model alone
        sizes = (30, 16, 16, 3)
        models = [init_mlp(sizes, seed=s) for s in range(4)]
        stack = MlpModel(sizes, np.stack([m.params for m in models]))
        xs = np.random.default_rng(7).normal(size=(4, 30))
        acts = mlp_forward(stack, xs)
        assert [a.shape for a in acts] == [(4, s) for s in sizes]
        for r, (model, x) in enumerate(zip(models, xs)):
            for got, want in zip(acts, mlp_forward(model, x)):
                assert np.array_equal(got[r], want)

    @pytest.mark.parametrize("runs, shape", [
        (None, ()), (None, (4,)), (None, (2, 4)), (None, (2, 2, 3)),
        (3, (4,)), (3, (3, 4)), (3, (2, 3)), (3, (4, 3)), (3, (1, 3)),
        (3, (3, 3, 3))])
    def test_wrong_input_shape_rejected(self, runs, shape):
        # a wrong width, or a stack's input rows not one per run
        model = init_mlp((3, 2), seed=0)
        if runs is not None:
            model = MlpModel((3, 2), np.tile(model.params, (runs, 1)))
        with pytest.raises(ValueError, match="input shape"):
            mlp_forward(model, np.ones(shape))

    def test_returns_layer_inputs_then_logits(self):
        # [x, a_1, a_2, z_3]; a stack's entries after x have a run axis
        model = init_mlp((3, 4, 5, 2), seed=0)
        x = np.linspace(-1, 1, 3)
        acts = mlp_forward(model, x)
        assert [a.shape for a in acts] == [(3,), (4,), (5,), (2,)]
        assert np.array_equal(acts[0], x)
        for l in (1, 2):
            z = model.weights[l - 1] @ acts[l - 1] + model.biases[l - 1]
            assert np.array_equal(acts[l], np.maximum(z, 0.0))
        assert np.array_equal(acts[-1], naive_forward(model, x))
        stack = MlpModel(model.layer_sizes, np.stack([model.params] * 2))
        stacked = mlp_forward(stack, x)
        assert [a.shape for a in stacked] == [(3,), (2, 4), (2, 5), (2, 2)]
        assert all(np.array_equal(a, b[1]) for a, b in zip(acts[1:], stacked[1:]))


def hidden_pre_activations(model, acts):
    """Every hidden layer's z = w @ a + b, from mlp_forward's layer inputs."""
    return np.concatenate([w @ a + b for w, b, a in
                           zip(model.weights[:-1], model.biases[:-1], acts)])


def ce_loss_fn(x, target):
    def loss(m):
        q = softmax(mlp_forward(m, x)[-1])
        return float(-(target * np.log(q)).sum())
    return loss


class TestBackward:
    def test_zero_grad_logits(self):
        model = init_mlp((4, 3, 2), seed=0)
        acts = mlp_forward(model, np.ones(4))
        grad = mlp_backward(model, acts, np.zeros(2))
        assert grad.shape == (model.num_params,)
        assert np.all(grad == 0)

    def test_linearity_in_grad_logits(self):
        model = init_mlp((4, 3, 2), seed=5)
        acts = mlp_forward(model, np.linspace(-1, 1, 4))
        g = np.array([0.3, -0.7])
        one = mlp_backward(model, acts, g)
        two = mlp_backward(model, acts, 2 * g)
        assert np.allclose(2 * one, two, rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences(self):
        # central differences straddle the ReLU kink, so triples whose
        # hidden pre-activations land on 0 (dead upstream layer) are redrawn
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            model = init_mlp((5, 6, 4, 3), seed=int(rng.integers(1 << 20)))
            x = rng.normal(size=5)
            target = rng.dirichlet(np.ones(3))
            acts = mlp_forward(model, x)
            if np.abs(hidden_pre_activations(model, acts)).min() < 1e-6:
                continue
            q = softmax(acts[-1])
            analytic = mlp_backward(model, acts, q - target)
            numeric = finite_diff_grad(ce_loss_fn(x, target), model)
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert err < 1e-6
            checked += 1

    def test_stack_rows_equal_each_model_alone(self):
        # R = 3: every row of the stacked pass is bitwise its model's own
        # pass, and its gradient matches central differences
        sizes = (5, 6, 4, 3)
        rng = np.random.default_rng(13)
        models = [init_mlp(sizes, seed=s) for s in (3, 4, 5)]
        stack = MlpModel(sizes, np.stack([m.params for m in models]))
        x = rng.normal(size=5)
        targets = rng.dirichlet(np.ones(3), size=3)
        acts = mlp_forward(stack, x)
        assert acts[-1].shape == (3, 3)
        buf = MlpModel(sizes, np.zeros((3, stack.num_params)))
        grads = mlp_backward(stack, acts, softmax(acts[-1]) - targets, out=buf)
        assert grads is buf.params
        for r, (model, target) in enumerate(zip(models, targets)):
            alone = mlp_forward(model, x)
            # clear of the ReLU kinks
            assert np.abs(hidden_pre_activations(model, alone)).min() > 1e-6
            for got, want in zip(acts[1:], alone[1:]):
                assert np.array_equal(got[r], want)
            grad = mlp_backward(model, alone, softmax(alone[-1]) - target)
            assert np.array_equal(grads[r], grad)
            numeric = finite_diff_grad(ce_loss_fn(x, target), model)
            assert np.linalg.norm(grad - numeric) / np.linalg.norm(numeric) < 1e-6

    @pytest.mark.parametrize("sizes", [(30, 3), (5, 6, 4, 3), (30, 32, 32, 3)])
    def test_many_inputs_have_the_bits_of_each_alone(self, sizes):
        # one model over (n, in) rows: gradient row i is input i's alone
        model = init_mlp(sizes, seed=1)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(6, sizes[0]))
        targets = rng.dirichlet(np.ones(sizes[-1]), size=6)
        acts = mlp_forward(model, xs)
        grads = mlp_backward(model, acts, softmax(acts[-1]) - targets)
        assert grads.shape == (6, model.num_params)
        for x, target, got in zip(xs, targets, grads):
            alone = mlp_forward(model, x)
            assert np.array_equal(got, mlp_backward(model, alone, softmax(alone[-1]) - target))

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 3)])
    def test_wrong_grad_logits_shape_rejected(self, shape):
        stack = MlpModel((3, 2), np.zeros((3, 8)))
        acts = mlp_forward(stack, np.ones(3))
        with pytest.raises(ValueError, match="grad_logits shape"):
            mlp_backward(stack, acts, np.zeros(shape))
        rows = mlp_forward(MlpModel((3, 2), np.zeros(8)), np.ones((4, 3)))
        with pytest.raises(ValueError, match="grad_logits shape"):
            mlp_backward(MlpModel((3, 2), np.zeros(8)), rows, np.zeros(shape))

    def test_model_restored_by_finite_diff(self):
        model = init_mlp((3, 4, 2), seed=9)
        before = model.params.copy()
        finite_diff_grad(ce_loss_fn(np.ones(3), np.array([0.5, 0.5])), model)
        assert np.array_equal(model.params, before)


class TestReluKink:
    """ReLU's derivative is 0 at a pre-activation of exactly 0.0 or -0.0,
    where the mask a > 0 on the layer input must agree with z > 0."""

    # (layer, unit) of the two kinked hidden units
    KINKS = ((0, 1), (1, 2))

    @classmethod
    def kinked(cls):
        # zero weights in, zero bias: z = +0.0 + bias is exactly 0.0 for
        # bias 0.0 and for bias -0.0 alike, since a gemv sum starts at +0.0
        model = init_mlp((4, 5, 4, 3), seed=3)
        for (l, u), bias in zip(cls.KINKS, (0.0, -0.0)):
            model.weights[l][u] = 0.0
            model.biases[l][u] = bias
        x = np.array([0.5, -1.0, 2.0, 0.25])
        g = np.array([0.3, -0.5, 0.2])
        return model, x, g

    def assert_unit_cut(self, model, grad):
        dw, db = param_views(model.layer_sizes, grad)
        for l, u in self.KINKS:
            # what a mask of z >= 0 would let through is not zero
            upstream = db[l + 1] @ model.weights[l + 1]
            assert upstream[u] != 0.0
            assert db[l][u] == 0.0 and not dw[l][u].any()

    def test_backward_at_zero(self):
        model, x, g = self.kinked()
        acts = mlp_forward(model, x)
        assert all(acts[l + 1][u] == 0.0 for l, u in self.KINKS)
        grad = mlp_backward(model, acts, g)
        self.assert_unit_cut(model, grad)
        stepped = sgd_step(model.copy(), grad, 0.1)
        want = model.copy()
        reference_step(want, *reference_forward(want, x), g, 0.1)
        assert np.array_equal(stepped.params, want.params)

    def test_backward_at_negative_zero(self):
        # no bias makes the kernel's z -0.0, so hand mlp_backward the list
        # a z of -0.0 gives: np.maximum(-0.0, 0.0) is -0.0
        model, x, g = self.kinked()
        acts = mlp_forward(model, x)
        want = model.copy()
        inputs, pre = reference_forward(want, x)
        for l, u in self.KINKS:
            acts[l + 1][u] = inputs[l + 1][u] = pre[l][u] = -0.0
        grad = mlp_backward(model, acts, g)
        self.assert_unit_cut(model, grad)
        stepped = sgd_step(model.copy(), grad, 0.1)
        reference_step(want, inputs, pre, g, 0.1)
        assert np.array_equal(stepped.params, want.params)

    def test_float_mask_has_the_bytes_of_the_bool_mask(self):
        # layer inputs of +0.0, -0.0, the smallest subnormal and +inf: the
        # mask sign(a) gives the gradient the bytes of the bool mask a > 0,
        # -0.0 included where a negative upstream entry is masked out; the
        # reference is the kernel's own products with the bool mask
        model = init_mlp((4, 4, 3), seed=5)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        g = np.array([0.3, -0.5, 0.2])
        acts = mlp_forward(model, x)
        acts[1][:] = [0.0, -0.0, 5e-324, np.inf]
        grad = mlp_backward(model, acts, g)
        back = np.matmul(g[None, :], model.weights[1])[0, :]
        assert (back[:2] < 0).any()
        delta = back * (acts[1] > 0.0)
        want = np.concatenate([np.einsum("i,j->ij", delta, x).ravel(), delta,
                               np.einsum("i,j->ij", g, acts[1]).ravel(), g])
        assert grad.tobytes() == want.tobytes()

    def test_jacobian_factors_at_zero(self):
        model, x, _ = self.kinked()
        factors = jacobian_factors(model, x[None])
        for l, u in self.KINKS:
            inputs, deltas = factors[l + 1]
            assert inputs[0, u] == 0.0
            assert (deltas[0] @ model.weights[l + 1])[:, u].any()
            assert not factors[l][1][0, :, u].any()


def logits_jacobian(model, x):
    """The (K, P) logit Jacobian at x, assembled from jacobian_factors: per
    layer, the outer products of the deltas with the input, then the deltas."""
    k = model.num_classes
    parts = []
    for inputs, deltas in jacobian_factors(model, np.asarray(x, dtype=np.float64)[None]):
        parts += [(deltas[0][:, :, None] * inputs[0]).reshape(k, -1), deltas[0]]
    return np.concatenate(parts, axis=1)


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
        bumped = MlpModel(model.layer_sizes, model.params + eps * direction)
        dipped = MlpModel(model.layer_sizes, model.params - eps * direction)
        numeric = (mlp_forward(bumped, x)[-1]
                   - mlp_forward(dipped, x)[-1]) / (2 * eps)
        assert np.allclose(jac @ direction, numeric, rtol=1e-5, atol=1e-8)

    def test_row_matches_backward(self):
        model = init_mlp((3, 4, 2), seed=8)
        x = np.ones(3)
        acts = mlp_forward(model, x)
        jac = logits_jacobian(model, x)
        seed_vec = np.array([1.0, 0.0])
        assert np.array_equal(jac[0], mlp_backward(model, acts, seed_vec))


class TestBatchedJacobian:
    """jacobian_factors' single (K, width) backward vs K seeded passes."""

    @staticmethod
    def per_seed_reference(model, x):
        acts = mlp_forward(model, x)
        return np.vstack([mlp_backward(model, acts, e)
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


    @pytest.mark.parametrize("sizes", [(6, 3), (30, 16, 3), (30, 32, 32, 32, 3)])
    def test_groups_have_the_bits_of_separate_calls(self, sizes):
        # (G, 2, in): each group's factors are those of its own 2-row call;
        # at G = 40 one (80, in) gemm over the flattened groups would not
        # have those bits for the deep net
        model = init_mlp(sizes, seed=3)
        xs = np.random.default_rng(9).normal(size=(40, 2, sizes[0]))
        batch = jacobian_factors(model, xs)
        for g, x in enumerate(xs):
            for (a, d), (a_g, d_g) in zip(batch, jacobian_factors(model, x)):
                assert a[g].shape == a_g.shape and d[g].shape == d_g.shape
                assert np.array_equal(a[g], a_g) and np.array_equal(d[g], d_g)

    @pytest.mark.parametrize("shape", [(6,), (4, 5), (3, 2, 7)])
    def test_wrong_batch_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="one model expects"):
            jacobian_factors(init_mlp((6, 4, 3), seed=0), np.ones(shape))


class TestSgdStep:
    def test_zero_grads_identity(self):
        model = init_mlp((3, 2), seed=0)
        before = model.params.copy()
        sgd_step(model, np.zeros(model.num_params), 0.5)
        assert np.array_equal(model.params, before)

    def test_zero_eta_identity(self):
        model = init_mlp((3, 2), seed=0)
        acts = mlp_forward(model, np.ones(3))
        grad = mlp_backward(model, acts, np.array([1.0, -1.0]))
        before = model.params.copy()
        sgd_step(model, grad, 0.0)
        assert np.array_equal(model.params, before)

    def test_scalar_update(self):
        model = MlpModel(layer_sizes=(1, 1), params=np.array([1.0, 0.0]))
        sgd_step(model, np.array([2.0, 0.0]), 0.1)
        assert model.weights[0][0, 0] == pytest.approx(0.8, abs=0)

    @pytest.mark.parametrize("eta", [-0.1, -1.0])
    def test_negative_eta_rejected(self, eta):
        model = init_mlp((2, 2), seed=0)
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(model, np.zeros(model.num_params), eta)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected(self, eta):
        model = init_mlp((2, 2), seed=0)
        before = model.params.copy()
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(model, np.zeros(model.num_params), eta)
        assert np.array_equal(model.params, before)

    @pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), ()])
    def test_wrong_gradient_shape_rejected(self, shape):
        model = init_mlp((2, 2), seed=0)  # 6 parameters
        with pytest.raises(ValueError, match="gradient shape"):
            sgd_step(model, np.zeros(shape), 0.1)

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           eta=st.floats(0.0, 10.0), seed=st.integers(0, 1000))
    def test_flat_step_equals_per_layer_reference(self, sizes, eta, seed):
        model = init_mlp(sizes, seed=seed)
        grad = np.random.default_rng(seed).normal(size=model.num_params)
        ref_w = [w.copy() for w in model.weights]
        ref_b = [b.copy() for b in model.biases]
        dws, dbs = param_views(model.layer_sizes, grad)
        for w, b, dw, db in zip(ref_w, ref_b, dws, dbs):
            w -= eta * dw
            b -= eta * db
        sgd_step(model, grad, eta)
        for w, b, want_w, want_b in zip(model.weights, model.biases, ref_w, ref_b):
            assert np.array_equal(w, want_w) and np.array_equal(b, want_b)


class TestFiniteDiff:
    def test_quadratic(self):
        model = MlpModel(layer_sizes=(1, 1), params=np.array([3.0, 0.0]))
        grad = finite_diff_grad(lambda m: 0.5 * float(m.weights[0][0, 0]) ** 2, model)
        assert grad.shape == (2,)
        assert grad[0] == pytest.approx(3.0, abs=1e-6)

    def test_constant_loss(self):
        model = init_mlp((2, 3, 2), seed=0)
        grad = finite_diff_grad(lambda m: 1.0, model)
        assert np.allclose(grad, 0.0, atol=0)

    def test_perturbs_the_model_in_place(self):
        # each probe moves one entry of the model's own params, bit-exactly back
        model = init_mlp((2, 3, 2), seed=1)
        params, before = model.params, model.params.copy()
        seen = []

        def loss(m):
            assert m is model and m.params is params
            seen.append(np.flatnonzero(m.params != before))
            return 0.0
        finite_diff_grad(loss, model)
        assert [list(d) for d in seen] == [[i] for i in range(params.size)
                                           for _ in (0, 1)]
        assert np.array_equal(model.params, before)


class TestInit:
    def test_deterministic(self):
        a = init_mlp((5, 4, 3), seed=10)
        b = init_mlp((5, 4, 3), seed=10)
        assert np.array_equal(a.params, b.params)
        c = init_mlp((5, 4, 3), seed=11)
        assert not np.array_equal(a.params, c.params)

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
        flat = model.params.copy()
        other = init_mlp((4, 3, 2), seed=2)
        other.params[...] = flat
        assert np.array_equal(other.params, flat)
        flat[0] += 1.0  # a copy, not a view
        assert model.params[0] != flat[0]

    def test_copy_is_deep(self):
        model = init_mlp((3, 2), seed=0)
        clone = model.copy()
        clone.weights[0][0, 0] += 1.0
        clone.biases[0][1] += 1.0
        assert model.weights[0][0, 0] != clone.weights[0][0, 0]
        assert model.biases[0][1] != clone.biases[0][1]
        assert not np.shares_memory(model.params, clone.params)

    def test_num_params(self):
        model = init_mlp((4, 5, 3), seed=0)
        assert model.num_params == 4 * 5 + 5 + 5 * 3 + 3
        assert model.params.shape == (model.num_params,)

    def test_layout_is_w_row_major_then_b(self):
        sizes = (4, 5, 3)
        model = MlpModel(sizes, np.arange(4 * 5 + 5 + 5 * 3 + 3, dtype=np.float64))
        assert np.array_equal(model.weights[0], np.arange(20.0).reshape(5, 4))
        assert np.array_equal(model.biases[0], np.arange(20.0, 25.0))
        assert np.array_equal(model.weights[1], np.arange(25.0, 40.0).reshape(3, 5))
        assert np.array_equal(model.biases[1], np.arange(40.0, 43.0))

    def test_weights_and_biases_write_through(self):
        model = init_mlp((4, 5, 3), seed=2)
        model.weights[1][2, 3] = 7.0
        model.biases[0][4] = -2.0
        assert model.params[25 + 2 * 5 + 3] == 7.0
        assert model.params[20 + 4] == -2.0
        model.params[:] = 0.0
        assert all(not w.any() for w in model.weights)
        assert all(not b.any() for b in model.biases)

    def test_model_on_a_row_of_a_stack(self):
        sizes = (3, 4, 2)
        stack = np.zeros((3, init_mlp(sizes, seed=0).num_params))
        model = MlpModel(sizes, stack[1])
        sgd_step(model, np.ones(model.num_params), 0.5)
        assert np.all(stack[1] == -0.5)
        assert not stack[0].any() and not stack[2].any()
        weights, biases = param_views(sizes, stack)
        assert [w.shape for w in weights] == [(3, 4, 3), (3, 2, 4)]
        assert [b.shape for b in biases] == [(3, 4), (3, 2)]
        assert all(np.shares_memory(w, stack) for w in weights + biases)
        assert np.array_equal(weights[1][1], model.weights[1])

    @pytest.mark.parametrize("params", [np.zeros(5), np.zeros(7), np.zeros((1, 1, 6)),
                                        np.zeros((3, 5)), np.zeros(6, dtype=np.float32),
                                        [0.0] * 6])
    def test_wrong_params_rejected(self, params):
        with pytest.raises(ValueError, match="params must be"):
            MlpModel((2, 2), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, bad):
        params = np.zeros(6)
        params[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MlpModel((2, 2), params)

    def test_batch_functions_reject_a_stack(self):
        stack = MlpModel((3, 3), np.zeros((2, 12)))
        with pytest.raises(ValueError, match="one model"):
            predict_proba(stack, np.ones((4, 3)))
        with pytest.raises(ValueError, match="one model"):
            jacobian_factors(stack, np.ones((4, 3)))

    def test_predict_proba_matches_single(self):
        model = init_mlp((4, 3), seed=5)
        xs = np.random.default_rng(3).normal(size=(7, 4))
        batch = predict_proba(model, xs)
        assert batch.shape == (7, 3)
        for i, x in enumerate(xs):
            single = softmax(mlp_forward(model, x)[-1])
            assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-15)
        assert np.allclose(batch.sum(axis=1), 1.0, atol=1e-12)
