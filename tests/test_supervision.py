from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import learnpath.supervision as supervision
from learnpath.metrics import accuracy
from learnpath.numerics import init_mlp, predict_proba, softmax
from learnpath.rngstreams import stream
from learnpath.supervision import (DivergenceError, TargetTable, TrainConfig,
                                   TrainResult, extract_eskd_targets,
                                   extract_kd_targets, kd_loss_and_grad,
                                   make_gt_targets, make_ls_targets,
                                   make_onehot_targets, train_model,
                                   train_models, train_stack,
                                   train_teacher_filterkd_multi)
from learnpath.supervision import _aligned_rows
from learnpath.toygauss import (GaussianSpec, flip_labels, sample_dataset,
                                split_dataset)

TINY = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=4,
                   patience=0, seed=0)


def reference_forward(model, x):
    """One model's forward pass on plain `w @ a`, independent of numerics'
    kernel; returns (layer inputs, pre-activations), logits last."""
    inputs, pre, a = [], [], x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        pre.append(w @ a + b)
        a = pre[-1] if l == model.num_layers - 1 else np.maximum(pre[-1], 0.0)
    return inputs, pre


def reference_step(model, inputs, pre, grad_logits, eta):
    """One model's backward pass on `np.outer` and `W.T @ d`, then its SGD
    step, independent of numerics' kernel."""
    parts, delta = [], grad_logits
    for l in range(model.num_layers - 1, -1, -1):
        parts[:0] = [np.outer(delta, inputs[l]).ravel(), delta]
        if l:
            delta = (model.weights[l].T @ delta) * (pre[l - 1] > 0.0)
    model.params -= eta * np.concatenate(parts)


class TestTargetTable:
    def test_valid_rows_accepted(self, small_ds):
        table = TargetTable(small_ds.p_star.copy())
        assert table.n == small_ds.n and table.num_classes == 3

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            TargetTable(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            TargetTable(np.array([[1.2, -0.2]]))

    def test_rounding_negatives_clipped_and_renormalized(self):
        # at tau = 1.5 the raw row gives a NaN loss and gradient
        rows = np.array([[1 + 5e-13, -5e-13, 0.0], [0.2, 0.3, 0.5]])
        raw = rows.copy()
        table = TargetTable(rows)
        assert np.array_equal(rows, raw)  # the caller's array is not touched
        assert np.all(table.rows >= 0.0)
        assert table.rows[0].sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(table.rows[1], raw[1])
        loss, grad = kd_loss_and_grad(np.array([0.5, -0.2, 0.1]), table.rows[0],
                                      y=0, temperature=1.5)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_rows_in_range_keep_their_bits(self, small_ds):
        rows = small_ds.p_star.copy()
        assert np.array_equal(TargetTable(rows).rows, rows)


class TestBuilders:
    def test_onehot_rows(self, small_ds):
        table = make_onehot_targets(small_ds)
        assert np.array_equal(table.rows.argmax(axis=1), small_ds.y)
        assert np.all(table.rows.sum(axis=1) == 1.0)
        assert set(np.unique(table.rows)) == {0.0, 1.0}

    def test_onehot_follows_flipped_labels(self, small_ds):
        flipped = flip_labels(small_ds, 1.0, seed=0)
        table = make_onehot_targets(flipped)
        idx = flipped.flipped_indices
        assert np.array_equal(table.rows[idx].argmax(axis=1), flipped.y[idx])
        assert not np.array_equal(table.rows[idx].argmax(axis=1),
                                  flipped.original_y[idx])

    def test_ls_frozen_example(self, small_ds):
        table = make_ls_targets(small_ds, 0.1)
        i = int(np.flatnonzero(small_ds.y == 2)[0])
        want = np.array([1 / 30, 1 / 30, 1 - 0.1 + 1 / 30])
        assert np.allclose(table.rows[i], want, atol=1e-15)

    def test_ls_extremes(self, small_ds):
        zero = make_ls_targets(small_ds, 0.0)
        assert np.array_equal(zero.rows, make_onehot_targets(small_ds).rows)
        one = make_ls_targets(small_ds, 1.0)
        assert np.allclose(one.rows, 1 / 3, atol=1e-15)

    def test_ls_bad_epsilon(self, small_ds):
        with pytest.raises(ValueError):
            make_ls_targets(small_ds, 1.5)

    def test_gt_is_p_star(self, small_ds):
        table = make_gt_targets(small_ds)
        assert np.array_equal(table.rows, small_ds.p_star)

    def test_gt_minus_onehot_is_base_difficulty(self, small_ds):
        from learnpath.pathtrace import base_difficulty
        gt = make_gt_targets(small_ds).rows
        oht = make_onehot_targets(small_ds).rows
        gaps = np.linalg.norm(gt - oht, axis=1)
        assert np.allclose(gaps, base_difficulty(small_ds.y, small_ds.p_star),
                           rtol=0, atol=1e-12)


class TestKdLossGrad:
    def test_tau1_beta1_gradient(self, rng):
        z = rng.normal(size=3)
        p_tar = rng.dirichlet(np.ones(3))
        _, grad = kd_loss_and_grad(z, p_tar, y=0, temperature=1.0, beta=1.0)
        assert np.array_equal(grad, softmax(z) - p_tar)

    def test_beta0_plain_ce(self, rng):
        z = rng.normal(size=3)
        p_tar = rng.dirichlet(np.ones(3))
        loss, grad = kd_loss_and_grad(z, p_tar, y=2, temperature=3.0, beta=0.0)
        q = softmax(z)
        want = q.copy()
        want[2] -= 1.0
        assert np.array_equal(grad, want)
        assert loss == pytest.approx(-np.log(q[2]), abs=1e-12)

    def test_grid_matches_finite_differences(self, rng):
        eps = 1e-6
        for tau in (0.5, 1.0, 2.0, 4.0, 10.0):
            for beta in (0.0, 0.5, 1.0):
                z = rng.normal(size=3)
                p_tar = rng.dirichlet(np.ones(3))
                _, grad = kd_loss_and_grad(z, p_tar, y=1, temperature=tau, beta=beta)
                numeric = np.empty(3)
                for j in range(3):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += eps
                    zm[j] -= eps
                    lp, _ = kd_loss_and_grad(zp, p_tar, y=1, temperature=tau, beta=beta)
                    lm, _ = kd_loss_and_grad(zm, p_tar, y=1, temperature=tau, beta=beta)
                    numeric[j] = (lp - lm) / (2 * eps)
                err = (np.linalg.norm(grad - numeric)
                       / max(np.linalg.norm(numeric), 1e-12))
                assert err < 1e-5, (tau, beta)

    @pytest.mark.parametrize("tau,beta", [(1.0, 1.0), (1.0, 0.0), (1.0, 0.3),
                                          (2.0, 0.5), (0.5, 0.5), (3.0, 1.0)])
    def test_gradient_has_the_bits_of_the_formula(self, rng, tau, beta):
        # beta / tau (q_t - p_t) + (1 - beta) (q - e_y), summed on zeros
        # as written, whatever terms the kernel skips
        for z, p in zip(rng.normal(scale=3.0, size=(40, 3)),
                        rng.dirichlet(np.ones(3), size=40)):
            qt, pt = softmax(z), p
            if tau != 1.0:  # q_t = exp(log_softmax(tau z)), p_t = p^tau renormalized
                tz = tau * z
                qt = np.exp(tz - (tz.max() + np.log(np.exp(tz - tz.max()).sum())))
                pt = p ** tau / (p ** tau).sum()
            want = np.zeros(3)
            if beta > 0:
                want += (beta / tau) * (qt - pt)
            if beta < 1:
                want += (1.0 - beta) * (softmax(z) - np.eye(3)[1])
            _, grad = kd_loss_and_grad(z, p, y=1, temperature=tau, beta=beta)
            assert np.array_equal(grad, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_rejected(self):
        # a negative target entry raised to a fractional power is NaN
        with pytest.raises(ValueError, match="gradient"):
            kd_loss_and_grad(np.zeros(3), np.array([1 + 5e-13, -5e-13, 0.0]),
                             y=0, temperature=1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            kd_loss_and_grad(np.array([np.nan, 0.0, 0.0]),
                             np.array([1.0, 0.0, 0.0]), 0)


def tiny_ds(seed=21, n=60):
    return split_dataset(sample_dataset(GaussianSpec(seed=seed), n), (0.5, 0.2, 0.3))


class TestTrainModel:
    def test_empty_train_split_rejected(self):
        ds = split_dataset(sample_dataset(GaussianSpec(seed=0), 10), (0, 0.5, 0.5))
        with pytest.raises(ValueError):
            train_model(ds, make_onehot_targets(ds), TINY)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -1.0])
    def test_bad_learning_rate_rejected_by_the_config(self, eta):
        # rejected where it is given, not as a DivergenceError at step 1
        with pytest.raises(ValueError, match="learning_rate must be finite and >= 0"):
            TrainConfig(learning_rate=eta)

    def test_deterministic(self):
        ds = tiny_ds()
        a = train_model(ds, make_onehot_targets(ds), TINY)
        b = train_model(ds, make_onehot_targets(ds), TINY)
        assert np.array_equal(a.final_model.params, b.final_model.params)
        assert a.valid_acc_history == b.valid_acc_history

    def test_memorizes_small_training_set(self):
        ds = tiny_ds(seed=3, n=40)
        cfg = TrainConfig(hidden_sizes=(32, 32), learning_rate=0.05,
                          max_epochs=300, patience=0, seed=1,
                          stop_at_train_acc=1.0)
        result = train_model(ds, make_onehot_targets(ds), cfg)
        assert result.train_acc_history[-1] == 1.0
        assert result.stopped_early

    def test_histories_and_best_checkpoint(self):
        ds = tiny_ds()
        result = train_model(ds, make_onehot_targets(ds), TINY)
        assert result.epochs_run == len(result.valid_acc_history) == 4
        best = max(result.valid_acc_history)
        assert result.valid_acc_history[result.best_epoch] == best
        from learnpath.metrics import accuracy
        vi = ds.valid_indices
        got = accuracy(predict_proba(result.best_model, ds.x[vi]), ds.y[vi])
        assert got == pytest.approx(best)

    def test_patience_stops_training(self):
        ds = tiny_ds()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.0,
                          max_epochs=50, patience=3, seed=0)
        result = train_model(ds, make_onehot_targets(ds), cfg)
        # frozen model never improves after epoch 0's baseline
        assert result.epochs_run == 4 and result.stopped_early

    def test_divergence_reported(self):
        ds = tiny_ds()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=1e6,
                          max_epochs=5, patience=0, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train_model(ds, make_onehot_targets(ds), cfg)

    def test_paths_recorded_per_visit(self):
        ds = tiny_ds()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=3,
                          patience=0, seed=0, record_paths=True)
        result = train_model(ds, make_onehot_targets(ds), cfg)
        ti = ds.train_indices
        assert np.array_equal(result.paths.indices, ti)
        # one visit per epoch: epoch t's steps are a permutation of its range
        n = ti.size
        assert result.paths.preds.shape == (3, n, 3)
        for t, steps in enumerate(result.paths.steps):
            assert sorted(steps) == list(range(t * n, (t + 1) * n))
        assert np.allclose(result.paths.preds.sum(axis=2), 1.0, atol=1e-12)


class TestFilterKd:
    def test_tables_match_path_replay(self):
        # the EMA tables must equal an explicit replay of the recorded
        # pre-update predictions, starting from the init-model forward pass
        ds = tiny_ds(seed=5, n=50)
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=4,
                          patience=0, seed=2, record_paths=True)
        alphas = (0.3, 1.0)
        result, tables = train_teacher_filterkd_multi(ds, cfg, alphas)
        init_pred = predict_proba(result.init_model, ds.x)
        paths = result.paths.paths
        for a in alphas:
            replay = init_pred.copy()
            for i in ds.train_indices:
                row = replay[i]
                for q in paths[int(i)]:
                    row *= 1.0 - a
                    row += a * q
            assert np.array_equal(tables[a].rows, replay)

    def test_tables_equal_the_per_visit_reference(self):
        # a one-hot teacher on the reference passes that folds every
        # pre-update prediction into its tables before the step
        ds = tiny_ds(seed=12, n=60)
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=4,
                          patience=0, seed=3)
        alphas = (0.05, 0.2, 0.3, 0.5, 1.0)
        result, tables = train_teacher_filterkd_multi(ds, cfg, alphas)
        model = init_mlp(cfg.layer_sizes(ds.spec.input_dim, ds.num_classes), cfg.seed)
        init_pred = predict_proba(model, ds.x)
        want = {a: init_pred.copy() for a in alphas}
        ti = ds.train_indices
        for epoch in range(cfg.max_epochs):
            for i in ti[stream(cfg.seed, "shuffle", epoch).permutation(ti.size)]:
                inputs, pre = reference_forward(model, ds.x[i])
                q = softmax(pre[-1])
                for a, table in want.items():
                    table[i] *= 1.0 - a
                    table[i] += a * q
                grad = q.copy()
                grad[ds.y[i]] -= 1.0
                reference_step(model, inputs, pre, grad, cfg.learning_rate)
        assert np.array_equal(result.final_model.params, model.params)
        for a in alphas:
            assert np.array_equal(tables[a].rows, want[a]), a

    @pytest.mark.parametrize("tau,beta", [(1.0, 1.0), (2.0, 0.5)])
    def test_teacher_is_the_one_hot_table_run(self, tau, beta):
        # the teacher ignores temperature and beta: it is the one-hot
        # table run at tau = 1, beta = 1, so a distill cell's oht student
        ds = tiny_ds(seed=13, n=80)
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=8,
                          patience=3, seed=4, temperature=tau, beta=beta)
        teacher, _ = train_teacher_filterkd_multi(ds, cfg, (0.5,))
        student = train_model(ds, make_onehot_targets(ds), replace(
            cfg, temperature=1.0, beta=1.0, record_paths=True))
        assert_same_run(teacher, student)
        assert np.array_equal(teacher.paths.indices, student.paths.indices)
        assert np.array_equal(teacher.paths.preds, student.paths.preds)

    def test_alpha_one_is_last_prediction(self):
        ds = tiny_ds(seed=6, n=50)
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=3,
                          patience=0, seed=0, record_paths=True)
        result, tables = train_teacher_filterkd_multi(ds, cfg, (1.0,))
        ti = ds.train_indices
        assert np.array_equal(tables[1.0].rows[ti], result.paths.preds[-1])

    def test_non_train_rows_stay_at_init(self):
        ds = tiny_ds(seed=7, n=50)
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=2,
                          patience=0, seed=0)
        result, tables = train_teacher_filterkd_multi(ds, cfg, (0.5,))
        init_pred = predict_proba(result.init_model, ds.x)
        others = np.concatenate([ds.valid_indices, ds.test_indices])
        assert np.allclose(tables[0.5].rows[others], init_pred[others], atol=0)

    def test_hand_ema_recursion(self):
        q = np.array([1.0, 0.0, 0.0])
        target = np.array([0.0, 1.0, 0.0])
        for _ in range(2):
            q = (1 - 0.05) * q + 0.05 * target
        assert np.allclose(q, [0.9025, 0.0975, 0.0], atol=1e-15)

    def test_zero_eta_geometric_convergence(self):
        # frozen model: every visit folds in the same prediction, so the
        # table approaches it geometrically with factor (1 - alpha)
        ds = tiny_ds(seed=8, n=40)
        epochs = 5
        alpha = 0.3
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.0,
                          max_epochs=epochs, patience=0, seed=3)
        result, tables = train_teacher_filterkd_multi(ds, cfg, (alpha,))
        fixed = predict_proba(result.init_model, ds.x)
        i = int(ds.train_indices[0])
        # init table == fixed prediction, so the EMA is exactly stationary
        assert np.allclose(tables[alpha].rows[i], fixed[i], atol=1e-12)

    def test_bad_alpha_rejected(self):
        ds = tiny_ds(seed=9, n=40)
        with pytest.raises(ValueError):
            train_teacher_filterkd_multi(ds, TINY, (0.0,))
        with pytest.raises(ValueError):
            train_teacher_filterkd_multi(ds, TINY, ())


def reference_student(ds, rows, cfg, path=None):
    """The per-sample loop on the reference passes, one run at a time.

    A given path array, (max_epochs, train rows, K), receives each visit's
    pre-update softmax at [epoch, the row's place in the train split].
    """
    model = init_mlp(cfg.layer_sizes(ds.spec.input_dim, ds.num_classes), cfg.seed)
    ti, vi = ds.train_indices, ds.valid_indices
    best, best_acc, best_epoch, since = model.copy(), -np.inf, 0, 0
    valid, train, stopped = [], [], False
    for epoch in range(cfg.max_epochs):
        for column in stream(cfg.seed, "shuffle", epoch).permutation(ti.size):
            i = ti[column]
            inputs, pre = reference_forward(model, ds.x[i])
            if path is not None:
                path[epoch, column] = softmax(pre[-1])
            _, grad = kd_loss_and_grad(pre[-1], rows[i], int(ds.y[i]),
                                       cfg.temperature, cfg.beta)
            reference_step(model, inputs, pre, grad, cfg.learning_rate)
        vacc = accuracy(predict_proba(model, ds.x[vi]), ds.y[vi])
        valid.append(vacc)
        train.append(accuracy(predict_proba(model, ds.x[ti]), ds.y[ti]))
        if vacc > best_acc:
            best, best_acc, best_epoch, since = model.copy(), vacc, epoch, 0
        else:
            since += 1
        if cfg.patience > 0 and since >= cfg.patience:
            stopped = True
            break
    return model, best, best_epoch, valid, train, stopped


def assert_reference_run(got: TrainResult, reference):
    final, best, best_epoch, valid, train, stopped = reference
    assert np.array_equal(got.final_model.params, final.params)
    assert np.array_equal(got.best_model.params, best.params)
    assert (got.valid_acc_history, got.train_acc_history) == (valid, train)
    assert (got.best_epoch, got.stopped_early) == (best_epoch, stopped)


def assert_same_run(a: TrainResult, b: TrainResult):
    assert np.array_equal(a.final_model.params, b.final_model.params)
    assert np.array_equal(a.best_model.params, b.best_model.params)
    assert np.array_equal(a.init_model.params, b.init_model.params)
    assert a.valid_acc_history == b.valid_acc_history
    assert a.train_acc_history == b.train_acc_history
    assert (a.best_epoch, a.epochs_run, a.stopped_early) == \
        (b.best_epoch, b.epochs_run, b.stopped_early)


class TestLockstep:
    """A stack of runs is bitwise the same runs trained one at a time."""

    @staticmethod
    def data():
        ds = tiny_ds(seed=21, n=80)
        tables = [make_onehot_targets(ds), make_ls_targets(ds, 0.3),
                  make_gt_targets(ds), make_ls_targets(ds, 0.9)]
        return ds, tables

    @pytest.mark.parametrize("tau,beta", [(1.0, 1.0), (2.0, 0.5)])
    def test_stack_equals_separate_runs(self, tau, beta):
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=6,
                          patience=3, seed=1, temperature=tau, beta=beta)
        stacked = train_models(ds, tables, cfg)
        # the runs leave the stack at different epochs
        assert len({r.epochs_run for r in stacked}) > 1
        for table, result in zip(tables, stacked):
            assert_same_run(result, train_model(ds, table, cfg))

    def test_no_parameter_is_ever_negative_zero(self):
        # why the kernel's einsum, which makes a -0.0 gradient product
        # +0.0, steps every parameter as np.outer would (mlp_backward)
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=6,
                          patience=0, seed=1)
        seen = []
        results = train_stack([(ds, t, s) for t in tables for s in (1, 2)], cfg,
                              epoch_callback=lambda e, m: seen.append(m.params.copy()))
        seen += [r.final_model.params for r in results]
        assert len(seen) == 8 * (cfg.max_epochs + 1)
        for p in seen:
            assert not (np.signbit(p) & (p == 0)).any()

    # (1, 0) builds the gradient on zeros; (0.5, 0.5) tempers with tau < 1
    @pytest.mark.parametrize("tau,beta,record", [
        (1.0, 1.0, False), (2.0, 0.5, False), (1.0, 0.0, False), (0.5, 0.5, False),
        (2.0, 0.5, True)], ids=["1.0-1.0", "2.0-0.5", "1.0-0.0", "0.5-0.5", "2.0-0.5-paths"])
    def test_single_run_equals_reference_kernels(self, tau, beta, record):
        # the loop against reference_forward / reference_step, which share
        # no code with numerics' kernel; a recorded path holds the
        # reference's pre-update softmax at every visit
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=6,
                          patience=3, seed=1, temperature=tau, beta=beta,
                          record_paths=record)
        for table in tables[:2]:
            path = np.full((cfg.max_epochs, ds.train_indices.size, ds.num_classes), np.nan)
            got = train_model(ds, table, cfg)
            assert_reference_run(got, reference_student(ds, table.rows, cfg, path))
            if record:
                assert np.array_equal(got.paths.preds, path[:got.epochs_run])

    def test_survivors_of_a_divergence_equal_the_reference(self):
        # the middle run's scaled-up target row blows its weights up at
        # its sample's visit, halfway through epoch 0
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=6,
                          patience=3, seed=1)
        ti = ds.train_indices
        bad = tables[0].rows.copy()
        column = int(stream(cfg.seed, "shuffle", 0).permutation(ti.size)[ti.size // 2])
        bad[ti[column]] *= 1e300
        runs = [tables[1].rows, bad, tables[3].rows]
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = train_models(ds, runs, cfg)
        assert str(stacked[1]).startswith(
            f"non-finite state at epoch 0, step {ti.size // 2 + 1}: softmax got")
        for r in (0, 2):
            assert_reference_run(stacked[r], reference_student(ds, runs[r], cfg))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_run_diverging_through_its_parameters_leaves_the_next(self):
        # run 0's first gradient overflows, so its parameters and its row of
        # the gradient buffer go non-finite and it leaves at its second
        # visit; run 1 moves up into row 0 and goes on as it would alone
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=4,
                          patience=0, seed=1)
        bad = tables[0].rows * 1e308
        stacked = train_models(ds, [bad, tables[1]], cfg)
        assert str(stacked[0]).startswith(
            "non-finite state at epoch 0, step 1: softmax got")
        assert_reference_run(stacked[1], reference_student(ds, tables[1].rows, cfg))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tau,why", [(1.0, "softmax got non-finite logits"),
                                         (1.5, "non-finite distillation gradient")])
    def test_diverging_run_leaves_the_others_unchanged(self, tau, why):
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=5,
                          patience=0, seed=1, temperature=tau)
        bad = tables[0].rows.copy()
        if tau == 1.0:
            bad *= 1e300  # one step blows the weights up
        else:
            bad[ds.train_indices[5]] = [1.5, -0.5, 0.0]  # p^tau is NaN
        runs = [tables[1], bad, tables[2]]
        stacked = train_models(ds, runs, cfg)
        assert isinstance(stacked[1], DivergenceError)
        with pytest.raises(DivergenceError) as alone:
            train_model(ds, bad, cfg)
        assert str(stacked[1]) == str(alone.value)
        assert why in str(stacked[1])
        for i in (0, 2):
            assert_same_run(stacked[i], train_model(ds, runs[i], cfg))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tau,beta", [(1.0, 1.0), (2.0, 0.5)])
    @pytest.mark.parametrize("diverge", [False, True], ids=["", "diverge"])
    def test_mixed_stack_equals_separate_runs(self, tau, beta, diverge):
        # runs of their own seed, labels and targets, with paths recorded;
        # with diverge, run 2's target row at its seed's visit halfway
        # through epoch 0 is scaled up, so it leaves the stack mid-epoch
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=6,
                          patience=2, seed=0, temperature=tau, beta=beta,
                          record_paths=True)
        # (dataset, table, seed) over three seeds and two label sets: ds
        # and a copy with 30 % of its train labels flipped
        flipped = flip_labels(ds, 0.3, seed=5)
        runs = [(ds, tables[0], 1), (flipped, make_onehot_targets(flipped), 2),
                (flipped, tables[2], 1), (ds, tables[1], 3),
                (flipped, make_ls_targets(flipped, 0.3), 3)]
        if diverge:
            d, table, seed = runs[2]
            ti = d.train_indices
            column = stream(seed, "shuffle", 0).permutation(ti.size)[ti.size // 2]
            bad = table.rows.copy()
            bad[ti[column]] *= 1e300
            runs[2] = (d, bad, seed)
        stacked = train_stack(runs, cfg)
        assert len({r.epochs_run for r in stacked if isinstance(r, TrainResult)}) > 1
        for (d, table, seed), got in zip(runs, stacked):
            try:
                alone = train_model(d, table, replace(cfg, seed=seed))
            except DivergenceError as err:
                assert str(got) == str(err) and " epoch 0, " in str(err)
                continue
            assert_same_run(got, alone)
            assert np.array_equal(got.paths.preds, alone.paths.preds)
            assert np.array_equal(got.paths.steps, alone.paths.steps)
        assert isinstance(stacked[2], DivergenceError) == diverge

    def test_runs_of_a_stack_share_one_dataset(self):
        ds, tables = self.data()
        other = tiny_ds(seed=22, n=80)
        with pytest.raises(ValueError, match="copies of one dataset"):
            train_stack([(ds, tables[0], 0), (other, make_onehot_targets(other), 0)],
                        TINY)

    def test_loop_runs_on_the_numerics_kernel(self, monkeypatch):
        # one mlp_forward, softmax and mlp_backward per visit, so the loop
        # cannot grow a forward or backward pass, or a second softmax, again
        calls = {"mlp_forward": 0, "softmax": 0, "mlp_backward": 0}
        for name in calls:
            def counted(*args, _kernel=getattr(supervision, name), _name=name, **kw):
                calls[_name] += 1
                return _kernel(*args, **kw)
            monkeypatch.setattr(supervision, name, counted)
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=3,
                          patience=0, seed=1)
        results = train_models(ds, tables, cfg)
        visits = cfg.max_epochs * ds.train_indices.size
        assert calls == {"mlp_forward": visits, "softmax": visits,
                         "mlp_backward": visits}
        assert [r.epochs_run for r in results] == [cfg.max_epochs] * len(tables)

    def test_softmax_error_on_finite_logits_is_raised(self, monkeypatch):
        # no run to drop, so the visit is not redone forever
        def broken(z):
            raise ValueError("broken softmax")
        monkeypatch.setattr(supervision, "softmax", broken)
        ds, tables = self.data()
        with pytest.raises(ValueError, match="broken softmax"):
            train_models(ds, tables, TINY)

    def test_targets_checked_when_the_stack_is_built(self):
        ds, tables = self.data()
        rows = tables[0].rows.copy()
        rows[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite targets"):
            train_models(ds, [tables[1], rows], TINY)
        with pytest.raises(ValueError, match="targets shape"):
            train_models(ds, [tables[1], rows[:, :2]], TINY)
        assert train_models(ds, [], TINY) == []

    @pytest.mark.parametrize("n_rows,width", [(0, 5), (1, 3203), (6, 3203), (3, 8)])
    def test_stack_rows_start_on_cache_lines(self, n_rows, width):
        rows = _aligned_rows(n_rows, width)
        assert rows.shape == (n_rows, width) and rows.dtype == np.float64
        assert all(row.ctypes.data % 64 == 0 for row in rows)


def _stack_property_data():
    ds = tiny_ds(seed=23, n=60)
    flipped = flip_labels(ds, 0.4, seed=3)
    bad = make_onehot_targets(ds).rows * 1e300  # diverges at its first visit
    return ((ds, flipped),
            (make_onehot_targets, lambda d: make_ls_targets(d, 0.5), make_gt_targets,
             lambda d: bad))


@settings(max_examples=20, deadline=None)
@given(picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                st.integers(0, 3)), min_size=1, max_size=6),
       patience=st.integers(1, 3), lr=st.sampled_from([0.05, 0.5]))
def test_any_stack_equals_its_runs_alone(picks, patience, lr):
    # 1-6 runs over 3 seeds and 2 label sets, of which some stop early
    # and some diverge, so runs leave the stack in many orders
    sets, builders = _stack_property_data()
    cfg = TrainConfig(hidden_sizes=(8,), learning_rate=lr, max_epochs=5,
                      patience=patience, seed=0)
    runs = [(sets[l], builders[b](sets[l]), seed) for seed, l, b in picks]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = train_stack(runs, cfg)
        for (d, table, seed), got in zip(runs, stacked):
            try:
                alone = train_model(d, table, replace(cfg, seed=seed))
            except DivergenceError as err:
                assert str(got) == str(err)
                continue
            assert_same_run(got, alone)


def simplex_ok(table: TargetTable):
    rows = table.rows
    return (np.isfinite(rows).all() and (rows >= 0).all()
            and np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12)


class TestSimplexContract:
    """Every target builder returns finite, non-negative rows summing to 1."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.0, 1.0))
    def test_onehot_ls_gt(self, seed, eps):
        ds = split_dataset(sample_dataset(GaussianSpec(seed=seed), 30),
                           (0.5, 0.2, 0.3))
        assert simplex_ok(make_onehot_targets(ds))
        assert simplex_ok(make_ls_targets(ds, eps))
        assert simplex_ok(make_gt_targets(ds))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
    def test_teacher_predictions(self, seed, scale):
        # a random model; large weights push predictions into the corners
        ds = split_dataset(sample_dataset(GaussianSpec(seed=seed), 30),
                           (0.5, 0.2, 0.3))
        model = init_mlp((ds.spec.input_dim, 8, ds.num_classes), seed)
        for w in model.weights:
            w *= scale
        result = TrainResult(final_model=model, best_model=model.copy(),
                             best_epoch=0, epochs_run=1, valid_acc_history=[0.0],
                             train_acc_history=[0.0], init_model=model.copy())
        assert simplex_ok(extract_eskd_targets(result, ds))
        assert simplex_ok(extract_kd_targets(result, ds))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           alphas=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3))
    def test_filter_kd(self, seed, alphas):
        ds = split_dataset(sample_dataset(GaussianSpec(seed=seed), 30),
                           (0.5, 0.2, 0.3))
        cfg = TrainConfig(hidden_sizes=(8,), learning_rate=0.1, max_epochs=2,
                          patience=0, seed=seed)
        _, tables = train_teacher_filterkd_multi(ds, cfg, alphas)
        assert all(simplex_ok(t) for t in tables.values())


class TestExtraction:
    def test_eskd_rows_from_best_model(self):
        ds = tiny_ds(seed=10, n=60)
        result = train_model(ds, make_onehot_targets(ds), TINY)
        table = extract_eskd_targets(result, ds)
        assert np.allclose(table.rows, predict_proba(result.best_model, ds.x),
                           atol=0)

    def test_kd_rows_from_final_model(self):
        ds = tiny_ds(seed=10, n=60)
        result = train_model(ds, make_onehot_targets(ds), TINY)
        table = extract_kd_targets(result, ds)
        assert np.allclose(table.rows, predict_proba(result.final_model, ds.x),
                           atol=0)

    def test_converged_teacher_near_onehot(self):
        ds = tiny_ds(seed=11, n=40)
        cfg = TrainConfig(hidden_sizes=(32, 32), learning_rate=0.05,
                          max_epochs=400, patience=0, seed=1,
                          stop_at_train_acc=1.0)
        result = train_model(ds, make_onehot_targets(ds), cfg)
        rows = extract_kd_targets(result, ds).rows[ds.train_indices]
        onehot = np.eye(3)[ds.y[ds.train_indices]]
        assert np.linalg.norm(rows - onehot, axis=1).mean() < 0.2
