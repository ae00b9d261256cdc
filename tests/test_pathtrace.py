import tracemalloc

import numpy as np
import pytest

from learnpath.config import load_config
from learnpath.experiments import read_csv, run_distance_gap
from learnpath.numerics import init_mlp, predict_proba
from learnpath.pathtrace import (_EXPORT_BLOCK, PathStore, PathSums,
                                 barycentric_project, base_difficulty, ema_filter,
                                 zigzag_score)
from learnpath.supervision import TrainConfig, make_onehot_targets, train_model
from learnpath.toygauss import GaussianSpec, sample_dataset, split_dataset

SQRT23 = 0.81649658092772603273  # sqrt(2/3)
SQRT3_2 = 0.86602540378443864676  # sqrt(3)/2
SQRT3_6 = 0.28867513459481288225  # sqrt(3)/6


def one_path(qs) -> np.ndarray:
    """A single path of T points as the (T, 1, K) array of one sample."""
    return np.asarray(qs, dtype=np.float64)[:, None, :]


def col_sums(qs) -> np.ndarray:
    """The (1, K) column sums of a single path of T points, zigzag_score's input."""
    return one_path(qs).sum(axis=0)


def filter_path(qs, alpha):
    """The EMA of a path started at its own first point, as `paths` plots it."""
    qs = np.asarray(qs, dtype=np.float64)
    return ema_filter(qs[1:], alpha, qs[0])


class TestPathStore:
    def test_log_and_lookup(self):
        store = PathStore([4, 2], num_classes=3)
        assert store.indices.tolist() == [2, 4]  # row 4 is column 1
        assert store.preds.shape == (0, 2, 3) and store.steps.shape == (0, 2)
        store.log(0, 1, 0, np.array([1.0, 0.0, 0.0]))
        store.log(0, 0, 1, np.array([0.0, 1.0, 0.0]))
        assert store.preds.shape == (1, 2, 3)
        store.log(1, 1, 2, np.array([0.5, 0.5, 0.0]))
        store.log(1, 0, 3, np.array([0.0, 0.0, 1.0]))
        assert store.preds.shape == (2, 2, 3)
        assert store.steps.tolist() == [[1, 0], [3, 2]]
        assert np.array_equal(store.preds[:, 1], [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        paths = store.paths
        assert sorted(paths) == [2, 4] and len(paths[4]) == 2
        assert np.array_equal(paths[2], store.preds[:, 0])

    def test_log_copies_input(self):
        store = PathStore([0], num_classes=3)
        q = np.array([1.0, 0.0, 0.0])
        store.log(0, 0, 0, q)
        q[0] = -1.0
        assert store.preds[0, 0, 0] == 1.0

    def test_room_grows_past_any_epoch_count(self):
        store = PathStore([5, 1, 3], num_classes=2)
        for t in range(37):
            # rows 3, 1, 5 in this order; their columns are 1, 0, 2
            for j, (i, column) in enumerate(((3, 1), (1, 0), (5, 2))):
                store.log(t, column, 3 * t + j, np.array([t, i], dtype=np.float64))
            assert store.preds.shape == (t + 1, 3, 2) and store.steps.shape == (t + 1, 3)
        assert np.array_equal(store.preds[:, :, 0], np.repeat(np.arange(37.0)[:, None], 3, 1))
        assert np.array_equal(store.preds[:, :, 1], np.tile([1.0, 3.0, 5.0], (37, 1)))
        assert np.array_equal(store.steps[:, 1], 3 * np.arange(37))

    def test_export_csv_round_trip(self, tmp_path):
        store = PathStore([3, 1], num_classes=3)
        rng = np.random.default_rng(0)
        for t in range(4):
            for column in (1, 0):
                store.log(t, column, 2 * t + (column == 0), rng.dirichlet(np.ones(3)))
        out = tmp_path / "paths.csv"
        store.export_csv(out, header_lines=("# run = demo",))
        lines = out.read_text().splitlines()
        assert lines[0] == "# run = demo"
        assert lines[1] == "sample_index,step,q_0,q_1,q_2"
        assert len(lines) == 2 + 8
        # %.17g reproduces the doubles exactly, grouped by sample ascending
        first = lines[2].split(",")
        assert [int(first[0]), int(first[1])] == [1, 1]
        assert np.array_equal(np.array([float(v) for v in first[2:]]),
                              store.preds[0, 0])

    @pytest.mark.parametrize("n", [40, _EXPORT_BLOCK, 2 * _EXPORT_BLOCK + 1])
    def test_export_is_the_same_for_any_visit_order(self, tmp_path, n):
        # one epoch after another, each in its own shuffle order of the
        # columns, against the per-sample, per-visit rows written one at a time
        rng = np.random.default_rng(1)
        indices = rng.choice(1000, size=n, replace=False)
        store = PathStore(indices, num_classes=4)
        visits = {int(i): [] for i in indices}
        step = 0
        for epoch in range(6):
            for column in rng.permutation(indices.size):
                q = rng.dirichlet(np.ones(4))
                store.log(epoch, column, step, q)
                visits[int(np.sort(indices)[column])].append((step, q))
                step += 1
        out = tmp_path / "paths.csv"
        store.export_csv(out)
        want = ["sample_index,step,q_0,q_1,q_2,q_3"]
        for i in sorted(visits):
            for s, q in visits[i]:
                want.append(",".join([str(i), str(s), *(format(v, ".17g") for v in q)]))
        assert out.read_text().splitlines() == want

    def test_export_memory_is_block_sized(self, tmp_path):
        # 20 x 500 x 3 points as Python floats at once would take 2 MB
        store = PathStore(np.arange(500), num_classes=3)
        preds = np.random.default_rng(2).dirichlet(np.ones(3), size=(20, 500))
        for t, qs in enumerate(preds):
            for column, q in enumerate(qs):
                store.log(t, column, 500 * t + column, q)
        tracemalloc.start()
        try:
            store.export_csv(tmp_path / "paths.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def fixed_format_export(store, path, header_lines=()):
    """PathStore.export_csv as it was before write_csv: its own line format."""
    cols = ["sample_index", "step"] + [f"q_{j}" for j in range(store.num_classes)]
    fmt = "%d,%d," + ",".join(["%.17g"] * store.num_classes) + "\n"
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(cols) + "\n")
        for i, row_steps, qs in zip(store.indices.tolist(), store.steps.T.tolist(),
                                    store.preds.transpose(1, 0, 2).tolist()):
            for step, q in zip(row_steps, qs):
                fh.write(fmt % (i, step, *q))


class TestExportBytes:
    def test_bytes_equal_the_fixed_format_writer(self, tmp_path):
        # the smallest subnormal, +0.0 and doubles within an ulp or so of 1
        # among ordinary points, over more samples than two blocks
        edge = np.array([5e-324, 0.0, 1.0, np.nextafter(1.0, 0.0),
                         np.nextafter(1.0, 2.0), 1.0 - 2.0 ** -52, 0.1])
        n = 2 * _EXPORT_BLOCK + 5
        rng = np.random.default_rng(3)
        store = PathStore(rng.choice(5000, size=n, replace=False), num_classes=3)
        step = 0
        for epoch in range(4):
            for column in rng.permutation(n):
                q = rng.dirichlet(np.ones(3))
                edged = rng.random(3) < 0.5
                q[edged] = rng.choice(edge, size=edged.sum())
                store.log(epoch, column, step, q)
                step += 1
        assert {0.0, 5e-324, np.nextafter(1.0, 0.0)} <= set(store.preds.ravel().tolist())
        store.export_csv(tmp_path / "got.csv", header_lines=("# run = demo", "# k = 3"))
        fixed_format_export(store, tmp_path / "want.csv", ("# run = demo", "# k = 3"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestEmaFilter:
    def test_alpha_one_is_identity(self):
        qs = [(1, 0, 0), (0.2, 0.3, 0.5), (0, 0, 1)]
        assert np.array_equal(filter_path(qs, 1.0), np.asarray(qs, dtype=np.float64))

    def test_constant_path_is_fixed_point(self):
        qs = [(0.2, 0.3, 0.5)] * 5
        assert np.allclose(filter_path(qs, 0.3), qs, atol=1e-15)

    def test_three_step_hand_case(self):
        out = filter_path([(1, 0, 0), (0.5, 0.5, 0), (0.25, 0.25, 0.5)], 0.5)
        want = np.array([[1.0, 0.0, 0.0],
                         [0.75, 0.25, 0.0],
                         [0.5, 0.25, 0.25]])
        assert np.allclose(out, want, atol=1e-15)

    def test_starts_from_start(self):
        start = np.array([[0.2, 0.8], [1.0, 0.0]])
        out = ema_filter(np.zeros((0, 2, 2)), 0.5, start)
        assert out.shape == (1, 2, 2) and np.array_equal(out[0], start)

    def test_output_stays_on_simplex(self, rng):
        out = filter_path(rng.dirichlet(np.ones(3), size=200), 0.07)
        assert np.all(out >= -1e-12)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("k", [3, 10])
    def test_rows_match_the_scalar_recursion_bitwise(self, k):
        # the vectorised recursion against one row at a time; row 0's
        # points sum to 1 + 1e-9, so its average drifts and is renormalized
        rng = np.random.default_rng(k)
        t, n, alpha = 30, 25, 0.3
        qs = rng.dirichlet(np.full(k, 0.5), size=(t, n))
        qs[:, 0] *= 1.0 + 1e-9
        start = rng.dirichlet(np.ones(k), size=n)
        out = ema_filter(qs, alpha, start)
        renormalized = 0
        for j in range(n):
            acc = start[j].copy()
            assert np.array_equal(out[0, j], acc)
            for step in range(t):
                acc = (1.0 - alpha) * acc + alpha * qs[step, j]
                total = acc.sum()
                if abs(total - 1.0) > 1e-12:
                    acc = acc / total
                    renormalized += j == 0
                assert np.array_equal(out[step + 1, j], acc), (j, step)
        assert renormalized == t

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            filter_path([(1, 0, 0)], 0.0)
        with pytest.raises(ValueError):
            filter_path([(1, 0, 0)], 1.5)


class TestBarycentric:
    def test_vertices(self):
        assert np.allclose(barycentric_project([1, 0, 0]), [0.0, 0.0], atol=0)
        assert np.allclose(barycentric_project([0, 1, 0]), [1.0, 0.0], atol=0)
        assert np.allclose(barycentric_project([0, 0, 1]), [0.5, SQRT3_2],
                           atol=1e-16)

    def test_centroid(self):
        got = barycentric_project([1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(got, [0.5, SQRT3_6], atol=1e-16)

    def test_batch_matches_points_bitwise(self, rng):
        qs = rng.dirichlet(np.ones(3), size=(2, 7, 5))
        got = barycentric_project(qs)
        assert got.shape == (2, 7, 5, 2)
        for idx in np.ndindex(qs.shape[:-1]):
            assert np.array_equal(got[idx], barycentric_project(qs[idx]))

    def test_other_k_rejected(self):
        with pytest.raises(ValueError):
            barycentric_project([0.5, 0.5])
        with pytest.raises(ValueError):
            barycentric_project([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            barycentric_project(np.full((4, 2), 0.5))


class TestBaseDifficulty:
    def test_exact_label_is_zero(self):
        assert base_difficulty([1], [[0.0, 1.0, 0.0]]).tolist() == [0.0]

    def test_opposite_corner_is_sqrt2(self):
        got = base_difficulty([0], [[0.0, 0.0, 1.0]])
        assert got[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_uniform_posterior(self):
        got = base_difficulty([2, 0], np.full((2, 3), 1 / 3))
        assert got == pytest.approx([SQRT23, SQRT23], abs=1e-15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            base_difficulty([3], np.full((1, 3), 1 / 3))
        with pytest.raises(ValueError):
            base_difficulty([-1], np.full((1, 3), 1 / 3))
        with pytest.raises(ValueError):
            base_difficulty([0], np.full(3, 1 / 3))
        with pytest.raises(ValueError):
            base_difficulty([0, 1], np.full((3, 3), 1 / 3))

    @pytest.mark.parametrize("k", [3, 10])
    def test_rows_match_per_row_norm_bitwise(self, k):
        # the drivers write these values with %.17g, so the batched rows
        # must keep the bits of the per-row reference
        rng = np.random.default_rng(k)
        p = rng.dirichlet(np.full(k, 0.5), size=5000)
        y = rng.integers(0, k, size=5000)
        want = []
        for label, row in zip(y, p):
            e = np.zeros(k)
            e[label] = 1.0
            want.append(np.linalg.norm(e - row))
        assert np.array_equal(base_difficulty(y, p), want)


class TestZigzag:
    def test_confident_correct_path_scores_zero(self):
        assert zigzag_score(col_sums([(1, 0, 0)] * 4), [0]).tolist() == [0.0]

    def test_uniform_path_scores_t_over_k(self):
        got = zigzag_score(col_sums([(1 / 3, 1 / 3, 1 / 3)] * 6), [0])
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_hand_case(self):
        # columns sum to (1.5, 0.3, 0.2); strongest wrong class is 0.3
        got = zigzag_score(col_sums([(0.7, 0.2, 0.1), (0.8, 0.1, 0.1)]), [0])
        assert got[0] == pytest.approx(0.3, abs=1e-15)

    def test_oscillation_scores_higher_than_decay(self):
        osc = [(0.5, 0.5, 0), (0.1, 0.9, 0), (0.5, 0.5, 0), (0.1, 0.9, 0)]
        decay = [(0.5, 0.5, 0), (0.8, 0.2, 0), (0.95, 0.05, 0), (0.99, 0.01, 0)]
        paths = np.stack([osc, decay], axis=1)
        osc_score, decay_score = zigzag_score(paths.sum(axis=0), [0, 0])
        assert osc_score > decay_score

    @pytest.mark.parametrize("k", [3, 10])
    def test_scores_match_per_path_column_sums_bitwise(self, k):
        rng = np.random.default_rng(k)
        paths = rng.dirichlet(np.full(k, 0.3), size=(50, 200))
        y = rng.integers(0, k, size=200)
        want = []
        for j, label in enumerate(y):
            col = np.array(paths[:, j]).sum(axis=0)
            col[label] = -np.inf
            want.append(float(col.max()))
        assert np.array_equal(zigzag_score(paths.sum(axis=0), y), want)

    def test_sums_are_left_as_given(self):
        sums = col_sums([(0.7, 0.2, 0.1), (0.8, 0.1, 0.1)])
        before = sums.copy()
        zigzag_score(sums, [0])
        assert np.array_equal(sums, before)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):  # a (T, n, K) path, not its (n, K) sums
            zigzag_score(one_path([(1, 0, 0)]), [0])
        with pytest.raises(ValueError):
            zigzag_score(np.zeros(3), [0])
        with pytest.raises(ValueError):
            zigzag_score(col_sums([(1, 0, 0)]), [5])
        with pytest.raises(ValueError):
            zigzag_score(col_sums([(1, 0, 0)]), [0, 1])


class TestPathSums:
    """PathSums folds a run's path into the column sums of PathStore's path."""

    @pytest.mark.parametrize("num_classes,patience", [(3, 0), (5, 0), (3, 2), (5, 2)])
    def test_sums_equal_the_stored_path_summed_bitwise(self, num_classes, patience):
        ds = split_dataset(sample_dataset(GaussianSpec(num_classes=num_classes, seed=4),
                                          120), (0.5, 0.25, 0.25))
        cfg = TrainConfig(hidden_sizes=(12,), learning_rate=0.05, max_epochs=30,
                          patience=patience, seed=1)
        ti = ds.train_indices
        store, sums = PathStore(ti, num_classes), PathSums(ti.size, num_classes)

        def both(*visits):  # one run, both sinks
            store.log(*visits)
            sums.log(*visits)

        result = train_model(ds, make_onehot_targets(ds), cfg, paths=both)
        # patience 2 stops these runs well before max_epochs
        assert result.stopped_early == (patience > 0)
        assert len(store.preds) == result.epochs_run
        assert np.array_equal(sums.sums, store.preds.sum(axis=0))
        assert np.array_equal(zigzag_score(sums.sums, ds.y[ti]),
                              zigzag_score(store.preds.sum(axis=0), ds.y[ti]))

    def test_log_adds_each_epoch_at_its_columns(self):
        sums = PathSums(3, num_classes=2)
        sums.log(0, np.array([2, 0, 1]), np.arange(3), np.array([[1.0, 0], [0, 1], [.5, .5]]))
        sums.log(1, np.array([0, 1, 2]), np.arange(3, 6), np.array([[1.0, 0], [0, 1], [.5, .5]]))
        assert sums.sums.tolist() == [[1.0, 1.0], [0.5, 1.5], [1.5, 0.5]]


class TestDistanceGap:
    """run_distance_gap's table, recomputed by hand at the init stage."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("distance-gap")
        path = out / "run.cfg"
        path.write_text("n_samples = 150\nratios = 0.4,0.2,0.4\nmax_epochs = 2\n"
                        "hidden_sizes = 8\nsupervisions = oht,gt\n")
        cfg = load_config("distance-gap", str(path))
        run_distance_gap(cfg, str(out))
        columns, rows = read_csv(out / "distance_gap.csv")
        ds = split_dataset(sample_dataset(cfg.gaussian_spec(), cfg.n_samples),
                           cfg.ratios)
        model = init_mlp(cfg.train_config().layer_sizes(ds.spec.input_dim, 3),
                         cfg.seed)
        ti = ds.train_indices
        q = predict_proba(model, ds.x[ti])
        init = {kind: np.array([[float(v) for v in r[2:]] for r in rows
                                if r[:2] == [kind, "init"]])
                for kind in cfg.supervisions}
        return ds, q, columns, init

    def test_columns_match_manual_computation(self, run):
        ds, q, columns, init = run
        ti = ds.train_indices
        assert columns[2:] == ["sample_index", "base_difficulty", "dist_q_pstar",
                               "dist_q_ptar"]
        gt = init["gt"]
        assert np.array_equal(gt[:, 0], ti)
        assert np.array_equal(gt[:, 1], base_difficulty(ds.y[ti], ds.p_star[ti]))
        assert np.allclose(gt[:, 2], np.linalg.norm(q - ds.p_star[ti], axis=1),
                           rtol=0, atol=1e-15)
        # against ground-truth targets both distance columns agree
        assert np.array_equal(gt[:, 2], gt[:, 3])

    def test_default_targets_are_onehot(self, run):
        ds, q, _, init = run
        onehot = np.eye(3)[ds.y[ds.train_indices]]
        assert np.allclose(init["oht"][:, 3], np.linalg.norm(q - onehot, axis=1),
                           rtol=0, atol=1e-15)

