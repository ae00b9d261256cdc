import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnpath.metrics import accuracy
from learnpath.numerics import (init_mlp, mlp_backward, mlp_forward,
                                predict_proba, sgd_step, softmax)
from learnpath.rngstreams import stream
from learnpath.supervision import (PROVENANCES, DivergenceError, TargetTable,
                                   TrainConfig, TrainResult,
                                   extract_eskd_targets, extract_kd_targets,
                                   kd_loss_and_grad, make_gt_targets,
                                   make_ls_targets, make_onehot_targets,
                                   train_model, train_models,
                                   train_teacher_filterkd_multi)
from learnpath.toygauss import (GaussianSpec, flip_labels, sample_dataset,
                                split_dataset)

TINY = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=4,
                   patience=None, seed=0)


class TestTargetTable:
    def test_valid_rows_accepted(self, small_ds):
        table = TargetTable(small_ds.p_star.copy(), "ground_truth")
        assert table.n == small_ds.n and table.num_classes == 3

    def test_bad_provenance(self, small_ds):
        with pytest.raises(ValueError):
            TargetTable(small_ds.p_star.copy(), "mystery")

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            TargetTable(np.array([[0.5, 0.6]]), "custom")
        with pytest.raises(ValueError):
            TargetTable(np.array([[1.2, -0.2]]), "custom")

    def test_rounding_negatives_clipped_and_renormalized(self):
        # at tau = 1.5 the raw row gives a NaN loss and gradient
        rows = np.array([[1 + 5e-13, -5e-13, 0.0], [0.2, 0.3, 0.5]])
        raw = rows.copy()
        table = TargetTable(rows, "custom")
        assert np.array_equal(rows, raw)  # the caller's array is not touched
        assert np.all(table.rows >= 0.0)
        assert table.rows[0].sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(table.rows[1], raw[1])
        loss, grad = kd_loss_and_grad(np.array([0.5, -0.2, 0.1]), table.rows[0],
                                      y=0, temperature=1.5)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_rows_in_range_keep_their_bits(self, small_ds):
        rows = small_ds.p_star.copy()
        assert np.array_equal(TargetTable(rows, "ground_truth").rows, rows)


class TestBuilders:
    def test_onehot_rows(self, small_ds):
        table = make_onehot_targets(small_ds)
        assert table.provenance == "onehot"
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
        assert table.provenance == "ground_truth"
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
        assert np.allclose(grad, softmax(z) - p_tar, atol=1e-14)

    def test_beta0_plain_ce(self, rng):
        z = rng.normal(size=3)
        p_tar = rng.dirichlet(np.ones(3))
        loss, grad = kd_loss_and_grad(z, p_tar, y=2, temperature=3.0, beta=0.0)
        q = softmax(z)
        want = q.copy()
        want[2] -= 1.0
        assert np.allclose(grad, want, atol=1e-14)
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

    def test_deterministic(self):
        ds = tiny_ds()
        a = train_model(ds, make_onehot_targets(ds), TINY)
        b = train_model(ds, make_onehot_targets(ds), TINY)
        assert np.array_equal(a.final_model.flat(), b.final_model.flat())
        assert a.valid_acc_history == b.valid_acc_history

    def test_memorizes_small_training_set(self):
        ds = tiny_ds(seed=3, n=40)
        cfg = TrainConfig(hidden_sizes=(32, 32), learning_rate=0.05,
                          max_epochs=300, patience=None, seed=1,
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
                          max_epochs=5, patience=None, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train_model(ds, make_onehot_targets(ds), cfg)

    def test_paths_recorded_per_visit(self):
        ds = tiny_ds()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=3,
                          patience=None, seed=0, record_paths=True)
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
                          patience=None, seed=2, record_paths=True)
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
        # a one-hot teacher on the reference kernels that folds every
        # pre-update prediction into its tables before the step
        ds = tiny_ds(seed=12, n=60)
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=4,
                          patience=None, seed=3)
        alphas = (0.05, 0.2, 0.3, 0.5, 1.0)
        result, tables = train_teacher_filterkd_multi(ds, cfg, alphas)
        model = init_mlp(cfg.layer_sizes(ds.spec.input_dim, ds.num_classes), cfg.seed)
        init_pred = predict_proba(model, ds.x)
        want = {a: init_pred.copy() for a in alphas}
        ti = ds.train_indices
        for epoch in range(cfg.max_epochs):
            for i in ti[stream(cfg.seed, "shuffle", epoch).permutation(ti.size)]:
                cache = mlp_forward(model, ds.x[i])
                q = softmax(cache.logits)
                for a, table in want.items():
                    table[i] *= 1.0 - a
                    table[i] += a * q
                grad = q.copy()
                grad[ds.y[i]] -= 1.0
                sgd_step(model, mlp_backward(model, cache, grad), cfg.learning_rate)
        assert np.array_equal(result.final_model.flat(), model.flat())
        for a in alphas:
            assert np.array_equal(tables[a].rows, want[a]), a

    def test_alpha_one_is_last_prediction(self):
        ds = tiny_ds(seed=6, n=50)
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=3,
                          patience=None, seed=0, record_paths=True)
        result, tables = train_teacher_filterkd_multi(ds, cfg, (1.0,))
        ti = ds.train_indices
        assert np.array_equal(tables[1.0].rows[ti], result.paths.preds[-1])

    def test_non_train_rows_stay_at_init(self):
        ds = tiny_ds(seed=7, n=50)
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=2,
                          patience=None, seed=0)
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
                          max_epochs=epochs, patience=None, seed=3)
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


def reference_student(ds, rows, cfg):
    """The per-sample loop on the reference kernels, one run at a time."""
    model = init_mlp(cfg.layer_sizes(ds.spec.input_dim, ds.num_classes), cfg.seed)
    ti, vi = ds.train_indices, ds.valid_indices
    best, best_acc, best_epoch, since = model.copy(), -np.inf, 0, 0
    valid, train, stopped = [], [], False
    for epoch in range(cfg.max_epochs):
        for i in ti[stream(cfg.seed, "shuffle", epoch).permutation(ti.size)]:
            cache = mlp_forward(model, ds.x[i])
            _, grad = kd_loss_and_grad(cache.logits, rows[i], int(ds.y[i]),
                                       cfg.temperature, cfg.beta)
            sgd_step(model, mlp_backward(model, cache, grad), cfg.learning_rate)
        vacc = accuracy(predict_proba(model, ds.x[vi]), ds.y[vi])
        valid.append(vacc)
        train.append(accuracy(predict_proba(model, ds.x[ti]), ds.y[ti]))
        if vacc > best_acc:
            best, best_acc, best_epoch, since = model.copy(), vacc, epoch, 0
        else:
            since += 1
        if since >= cfg.patience:
            stopped = True
            break
    return model, best, best_epoch, valid, train, stopped


def assert_same_run(a: TrainResult, b: TrainResult):
    assert np.array_equal(a.final_model.flat(), b.final_model.flat())
    assert np.array_equal(a.best_model.flat(), b.best_model.flat())
    assert np.array_equal(a.init_model.flat(), b.init_model.flat())
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

    @pytest.mark.parametrize("tau,beta", [(1.0, 1.0), (2.0, 0.5)])
    def test_single_run_equals_reference_kernels(self, tau, beta):
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12, 7), learning_rate=0.05, max_epochs=6,
                          patience=3, seed=1, temperature=tau, beta=beta)
        for table in tables[:2]:
            got = train_model(ds, table, cfg)
            final, best, best_epoch, valid, train, stopped = \
                reference_student(ds, table.rows, cfg)
            assert np.array_equal(got.final_model.flat(), final.flat())
            assert np.array_equal(got.best_model.flat(), best.flat())
            assert (got.valid_acc_history, got.train_acc_history) == (valid, train)
            assert (got.best_epoch, got.stopped_early) == (best_epoch, stopped)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tau,why", [(1.0, "softmax got non-finite logits"),
                                         (1.5, "non-finite distillation gradient")])
    def test_diverging_run_leaves_the_others_unchanged(self, tau, why):
        ds, tables = self.data()
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=5,
                          patience=None, seed=1, temperature=tau)
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

    def test_targets_checked_when_the_stack_is_built(self):
        ds, tables = self.data()
        rows = tables[0].rows.copy()
        rows[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite targets"):
            train_models(ds, [tables[1], rows], TINY)
        with pytest.raises(ValueError, match="targets shape"):
            train_models(ds, [tables[1], rows[:, :2]], TINY)
        assert train_models(ds, [], TINY) == []


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
                          patience=None, seed=seed)
        _, tables = train_teacher_filterkd_multi(ds, cfg, alphas)
        assert all(simplex_ok(t) for t in tables.values())


class TestExtraction:
    def test_eskd_rows_from_best_model(self):
        ds = tiny_ds(seed=10, n=60)
        result = train_model(ds, make_onehot_targets(ds), TINY)
        table = extract_eskd_targets(result, ds)
        assert table.provenance == "eskd"
        assert np.allclose(table.rows, predict_proba(result.best_model, ds.x),
                           atol=0)

    def test_kd_rows_from_final_model(self):
        ds = tiny_ds(seed=10, n=60)
        result = train_model(ds, make_onehot_targets(ds), TINY)
        table = extract_kd_targets(result, ds)
        assert table.provenance == "kd_converged"
        assert np.allclose(table.rows, predict_proba(result.final_model, ds.x),
                           atol=0)

    def test_converged_teacher_near_onehot(self):
        ds = tiny_ds(seed=11, n=40)
        cfg = TrainConfig(hidden_sizes=(32, 32), learning_rate=0.05,
                          max_epochs=400, patience=None, seed=1,
                          stop_at_train_acc=1.0)
        result = train_model(ds, make_onehot_targets(ds), cfg)
        rows = extract_kd_targets(result, ds).rows[ds.train_indices]
        onehot = np.eye(3)[ds.y[ds.train_indices]]
        assert np.linalg.norm(rows - onehot, axis=1).mean() < 0.2


def test_provenance_enum_is_closed():
    assert PROVENANCES == ("onehot", "smoothed", "ground_truth", "kd_converged",
                           "eskd", "filter_kd", "custom")
