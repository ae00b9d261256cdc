import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from learnpath.metrics import spearman
from learnpath.ntkcheck import (_BLOCK_PAIRS, empirical_ntk, predicted_delta_q,
                                residual_scaling_test, similarity_trace_study,
                                softmax_jacobian, trace_evolution)
from learnpath.numerics import (MlpModel, init_mlp, jacobian_factors,
                                mlp_backward, mlp_forward, sgd_step, softmax)
from learnpath.supervision import DivergenceError
from learnpath.toygauss import GaussianSpec, sample_dataset


def random_simplex(rng, n=200, k=3):
    return rng.dirichlet(np.ones(k), size=n)


def linear_model(dim, k=3, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.3, size=(k, dim))
    b = rng.normal(scale=0.1, size=k)
    return MlpModel((dim, k), np.concatenate([w.ravel(), b]))


def per_seed_jacobian(model, x):
    """Reference logit Jacobian: one backward pass per unit seed e_k."""
    acts = mlp_forward(model, x)
    return np.vstack([mlp_backward(model, acts, e) for e in np.eye(model.num_classes)])


def actual_delta_q(model, x_o, x_u, p_tar_u, eta):
    """Reference move of q(x_o) after one real SGD step on x_u, on a copy.

    The step descends cross entropy against p_tar_u, whose logit
    gradient is q(x_u) - p_tar_u.
    """
    q_before = softmax(mlp_forward(model, x_o)[-1])
    stepped = model.copy()
    acts = mlp_forward(stepped, x_u)
    sgd_step(stepped, mlp_backward(stepped, acts, softmax(acts[-1]) - p_tar_u), eta)
    return softmax(mlp_forward(stepped, x_o)[-1]) - q_before


# one (pair, eta) row of the reference pass
Record = namedtuple("Record", "pair_id eta predicted actual residual_norm "
                              "trace_a trace_kernel")


def reference_decompose_pair(model, x_o, x_u, p_tar_u, eta_grid, pair_id=0):
    """Both sides of the decomposition for one pair, every eta: the
    per-pair pass that residual_scaling_test batches over all pairs.

    q, A, K and the loss gradient at x_u are computed once; row e of a
    stack of copies of the model takes the real SGD step at eta_grid[e],
    and one forward pass of the stack gives q(x_o) after every step.
    """
    p_tar_u = np.asarray(p_tar_u, dtype=np.float64)
    acts_u = mlp_forward(model, x_u)
    q_u = softmax(acts_u[-1])
    q_o = softmax(mlp_forward(model, x_o)[-1])
    a_matrix = softmax_jacobian(q_o)
    kernel = empirical_ntk(model, x_o, x_u)
    grad = mlp_backward(model, acts_u, q_u - p_tar_u)
    trace_a, trace_kernel = float(np.trace(a_matrix)), float(np.trace(kernel))
    etas = np.array(eta_grid, dtype=np.float64)
    stepped = MlpModel(model.layer_sizes, np.tile(model.params, (etas.size, 1)))
    stepped.params -= etas[:, None] * grad
    stepped_logits = mlp_forward(stepped, x_o)[-1]
    records = []
    for eta, logits in zip(eta_grid, stepped_logits):
        pred = predicted_delta_q(eta, a_matrix, kernel, p_tar_u, q_u)
        if not np.isfinite(logits).all():
            raise DivergenceError("non-finite logits after the decomposition step "
                                  f"of pair {pair_id} at eta = {eta:g}: {logits!r}")
        act = softmax(logits) - q_o
        records.append(Record(
            pair_id=pair_id, eta=float(eta), predicted=pred, actual=act,
            residual_norm=float(np.linalg.norm(act - pred)),
            trace_a=trace_a, trace_kernel=trace_kernel))
    return records


def reference_residual_scaling(model, x_o, x_u, p_tar, eta_grid):
    """residual_scaling_test's rows, eta-major, from the per-pair pass."""
    per_pair = [reference_decompose_pair(model, *pair, eta_grid, pair_id=pid)
                for pid, pair in enumerate(zip(x_o, x_u, p_tar))]
    return [recs[e] for e in range(len(eta_grid)) for recs in per_pair]


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

    def test_has_the_bits_of_diag_minus_outer(self, rng):
        qs = random_simplex(rng, 20)
        batch = softmax_jacobian(qs)
        for q, a in zip(qs, batch):
            want = np.diag(q) - np.outer(q, q)
            assert np.array_equal(softmax_jacobian(q), want)
            assert np.array_equal(a, want)

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

    @pytest.mark.parametrize("sizes", [(6, 3), (30, 16, 3), (30, 32, 32, 32, 3)])
    def test_rows_have_the_bits_of_the_pair_alone(self, sizes):
        # one (2, in) group per pair: each K equals the layer sum of the
        # pair's own jacobian_factors call, bit for bit
        model = init_mlp(sizes, seed=1)
        xs = np.random.default_rng(5).normal(size=(40, 2, sizes[0]))
        batch = empirical_ntk(model, xs[:, 0], xs[:, 1])
        assert batch.shape == (40, sizes[-1], sizes[-1])
        for (x_o, x_u), got in zip(xs, batch):
            want = sum((a[0] @ a[1] + 1.0) * (d[0] @ d[1].T)
                       for a, d in jacobian_factors(model, np.stack([x_o, x_u])))
            assert np.array_equal(empirical_ntk(model, x_o, x_u), want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sizes", [(6, 3), (4, 7, 2), (30, 32, 32, 32, 3),
                                       (8, 16, 9, 5)])
    def test_matches_full_jacobian_product(self, sizes):
        model = init_mlp(sizes, seed=len(sizes))
        rng = np.random.default_rng(sum(sizes))
        for x_o, x_u in rng.normal(size=(4, 2, sizes[0])):
            want = per_seed_jacobian(model, x_o) @ per_seed_jacobian(model, x_u).T
            assert np.allclose(empirical_ntk(model, x_o, x_u), want, rtol=1e-12, atol=0)


class TestDeltas:
    def test_predicted_move_sums_to_zero(self, rng):
        # A's rows sum to zero, so any A v keeps the simplex sum fixed
        model = init_mlp((5, 16, 3), seed=5)
        x_o, x_u = rng.normal(size=(2, 5))
        q_o = softmax(mlp_forward(model, x_o)[-1])
        q_u = softmax(mlp_forward(model, x_u)[-1])
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
        before = model.params.copy()
        x_o, x_u = rng.normal(size=(2, 5))
        actual_delta_q(model, x_o, x_u, np.array([0.0, 1.0, 0.0]), 0.1)
        assert np.array_equal(model.params, before)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            predicted_delta_q(-0.1, np.eye(3), np.eye(3),
                              np.full(3, 1 / 3), np.full(3, 1 / 3))
        with pytest.raises(ValueError):
            predicted_delta_q(np.array([0.1, -0.1])[:, None, None], np.eye(3),
                              np.eye(3), np.full(3, 1 / 3), np.full(3, 1 / 3))

    def test_batched_move_has_the_bits_of_each_row(self, rng):
        etas = np.array([0.3, 0.01])
        a = rng.normal(size=(5, 3, 3))
        k = rng.normal(size=(5, 3, 3))
        p, q = random_simplex(rng, 5), random_simplex(rng, 5)
        got = predicted_delta_q(etas[:, None, None], a, k, p, q)
        assert got.shape == (2, 5, 3)
        for e, eta in enumerate(etas):
            for i in range(5):
                want = eta * (a[i] @ (k[i] @ (p[i] - q[i])))
                assert np.array_equal(predicted_delta_q(eta, a[i], k[i], p[i], q[i]), want)
                assert np.array_equal(got[e, i], want)


def decomposition_pairs(n_pairs, seed=0):
    """(x_o, x_u, p_tar), row i the pair i."""
    ds = sample_dataset(GaussianSpec(seed=seed), 200)
    rng = np.random.default_rng(seed + 17)
    o, u = np.array([rng.choice(ds.n, size=2, replace=False)
                     for _ in range(n_pairs)]).T
    return ds.x[o], ds.x[u], ds.p_star[u]


class TestDecomposition:
    def test_record_fields_consistent(self, rng):
        model = init_mlp((30, 16, 3), seed=9)
        pair = decomposition_pairs(1)
        rec = residual_scaling_test(model, *(np.repeat(a, 4, axis=0) for a in pair),
                                    (0.01,))[0][3]
        assert rec["pair_id"] == 3 and rec["eta"] == 0.01
        assert rec["residual_norm"] == pytest.approx(
            np.linalg.norm(rec["actual"] - rec["predicted"]), abs=0)
        q_o = softmax(mlp_forward(model, pair[0][0])[-1])
        assert rec["trace_a"] == pytest.approx(1.0 - (q_o * q_o).sum(), abs=1e-14)

    def test_residual_shrinks_quadratically(self):
        # halving eta should shrink the first-order residual about 4x
        model = init_mlp((30, 16, 3), seed=10)
        pairs = decomposition_pairs(25, seed=1)
        records, medians = residual_scaling_test(
            model, *pairs, (1e-2, 5e-3, 2.5e-3))
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
        records, _ = residual_scaling_test(model, *pairs, grid)
        assert list(zip(records["pair_id"].tolist(), records["eta"].tolist())) == \
            [(pid, eta) for eta in grid for pid in range(len(pairs[0]))]
        for rec in records:
            x_o, x_u, p_tar = (a[rec["pair_id"]] for a in pairs)
            q_o = softmax(mlp_forward(model, x_o)[-1])
            q_u = softmax(mlp_forward(model, x_u)[-1])
            kernel = empirical_ntk(model, x_o, x_u)
            pred = predicted_delta_q(rec["eta"], softmax_jacobian(q_o), kernel,
                                     p_tar, q_u)
            act = actual_delta_q(model, x_o, x_u, p_tar, rec["eta"])
            assert np.allclose(rec["predicted"], pred, rtol=0, atol=1e-12)
            assert np.allclose(rec["actual"], act, rtol=0, atol=1e-12)
            assert rec["trace_kernel"] == pytest.approx(np.trace(kernel), rel=1e-12)

    def test_model_untouched(self):
        model = init_mlp((30, 16, 3), seed=4)
        before = model.params.copy()
        residual_scaling_test(model, *decomposition_pairs(1), (0.5, 0.1))
        assert np.array_equal(model.params, before)

    @pytest.mark.parametrize("grid", [(1e-2,), (1e-2, 5e-3, 2.5e-3)])
    @pytest.mark.parametrize("n_pairs", [1, _BLOCK_PAIRS, _BLOCK_PAIRS + 1])
    @pytest.mark.parametrize("sizes", [(30, 3), (30, 16, 3), (30, 32, 32, 3)])
    def test_records_equal_the_per_pair_reference(self, sizes, n_pairs, grid):
        # the batched pass computes every row as its pair alone: each
        # column has the reference's bits, field by field
        model = init_mlp(sizes, seed=len(sizes))
        pairs = decomposition_pairs(n_pairs, seed=3)
        records, medians = residual_scaling_test(model, *pairs, grid)
        want = reference_residual_scaling(model, *pairs, grid)
        assert len(records) == len(want) == n_pairs * len(grid)
        assert records.dtype.names == ("pair_id", "eta", "residual_norm", "predicted",
                                       "actual", "trace_a", "trace_kernel")
        for field in records.dtype.names:
            column = np.array([getattr(ref, field) for ref in want])
            assert np.array_equal(records[field], column), field
        for e, (eta, median) in enumerate(medians):
            column = want[e * n_pairs:(e + 1) * n_pairs]
            assert (eta, median) == (grid[e], float(np.median(
                [r.residual_norm for r in column])))

    @pytest.mark.parametrize("first", [1, _BLOCK_PAIRS + 1])
    def test_divergence_names_the_first_pair_and_eta(self, first):
        # the pairs before `first` have their own q as target, so a zero
        # gradient that no step moves; every later pair overflows at
        # eta = 1e300 and the first of them is named as the reference does
        model = init_mlp((30, 16, 3), seed=4)
        pairs = decomposition_pairs(_BLOCK_PAIRS + 3, seed=5)
        for i in range(first):
            pairs[2][i] = softmax(mlp_forward(model, pairs[1][i])[-1])
        grid = (1e-3, 1e300, 1e301)
        with pytest.raises(DivergenceError) as want:
            reference_residual_scaling(model, *pairs, grid)
        with pytest.raises(DivergenceError) as got:
            residual_scaling_test(model, *pairs, grid)
        assert str(got.value) == str(want.value)
        assert f"of pair {first} at eta = 1e+300: array([" in str(got.value)

    def test_non_finite_unstepped_logits_raise_softmax_error(self):
        model = init_mlp((30, 16, 3), seed=4)
        model.weights[0][:] = 1e200
        model.weights[1][:] = 1e200
        with pytest.raises(ValueError, match="softmax got non-finite logits"):
            residual_scaling_test(model, *decomposition_pairs(2), (1e-2,))

    def test_bad_inputs(self):
        model = init_mlp((30, 16, 3), seed=0)
        x_o, x_u, p_tar = decomposition_pairs(2)
        with pytest.raises(ValueError):
            residual_scaling_test(model, x_o[:0], x_u[:0], p_tar[:0], (1e-2,))
        with pytest.raises(ValueError):
            residual_scaling_test(model, x_o, x_u, p_tar, ())
        with pytest.raises(ValueError):
            residual_scaling_test(model, x_o, x_u, p_tar, (0.0,))
        with pytest.raises(ValueError, match="row-aligned"):
            residual_scaling_test(model, x_o, x_u[:1], p_tar, (1e-2,))
        with pytest.raises(ValueError, match="row-aligned"):
            residual_scaling_test(model, x_o, x_u, p_tar[0], (1e-2,))

    def test_transient_memory_does_not_grow_with_pairs(self):
        # each block of pairs forwards only its own rows, so past the
        # result (88 bytes per pair and eta) 800 pairs peak as 8 do. The
        # first call warms numpy's caches, which would count against 8 pairs.
        model = init_mlp((30, 32, 32, 32, 3), seed=0)
        pairs = decomposition_pairs(800)
        peaks = []
        for n in (8, 8, 800):
            tracemalloc.start()
            try:
                out, _ = residual_scaling_test(model, *(a[:n] for a in pairs),
                                               (1e-2, 5e-3, 2.5e-3))
                peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < 250_000, peaks


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

    def test_cosine_has_the_bits_of_the_per_row_formula(self):
        # 300 rows, one of them zero, against a per-row dot and 2-norm
        model = init_mlp((8, 12, 3), seed=6)
        rng = np.random.default_rng(4)
        x_o, xs = rng.normal(size=8), rng.normal(size=(300, 8))
        xs[7] = 0.0
        want = []
        for x_u in xs:
            denom = float(np.linalg.norm(x_o)) * float(np.linalg.norm(x_u))
            want.append(float(x_o @ x_u) / denom if denom > 0 else 0.0)
        got = similarity_trace_study(model, x_o, xs)["cosine"]
        assert np.array_equal(got, want)
        assert got[7] == 0.0

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

    def test_stack_equals_each_checkpoint_alone(self, rng):
        models = [init_mlp((6, 10, 3), seed=s) for s in range(4)]
        x = rng.normal(size=6)
        want = []
        for m in models:
            q = softmax(mlp_forward(m, x)[-1])
            want.append(1.0 - float((q * q).sum()))
        assert np.array_equal(trace_evolution(models, x), want)

    def test_zero_weights_give_uniform_trace(self):
        model = init_mlp((6, 10, 3), seed=0)
        for w in model.weights:
            w[:] = 0.0
        got = trace_evolution([model], np.ones(6))
        assert got[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_confident_logits_give_near_zero_trace(self):
        model = MlpModel((4, 3), np.r_[np.zeros(12), 50.0, 0.0, 0.0])
        got = trace_evolution([model], np.ones(4))
        assert got[0] == pytest.approx(0.0, abs=1e-10)
