import numpy as np
import pytest

from learnpath.config import load_config
from learnpath.experiments import read_csv, run_distance_gap
from learnpath.numerics import init_mlp, predict_proba
from learnpath.pathtrace import (LearningPath, PathStore, barycentric_project,
                                 base_difficulty, ema_filter_path,
                                 zigzag_score)
from learnpath.toygauss import sample_dataset, split_dataset

SQRT23 = 0.81649658092772603273  # sqrt(2/3)
SQRT3_2 = 0.86602540378443864676  # sqrt(3)/2
SQRT3_6 = 0.28867513459481288225  # sqrt(3)/6


def make_path(qs, start=0):
    path = LearningPath(sample_index=7)
    for t, q in enumerate(qs):
        path.append(start + t, np.asarray(q, dtype=np.float64))
    return path


class TestLearningPath:
    def test_append_and_len(self):
        path = make_path([(1, 0, 0), (0.5, 0.5, 0)])
        assert len(path) == 2
        assert path.steps == [0, 1]
        assert path.as_array().shape == (2, 3)

    def test_steps_must_increase(self):
        path = make_path([(1, 0, 0)], start=5)
        with pytest.raises(ValueError):
            path.append(5, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            path.append(3, np.array([0.0, 1.0, 0.0]))

    def test_append_copies_input(self):
        q = np.array([1.0, 0.0, 0.0])
        path = LearningPath(0)
        path.append(0, q)
        q[0] = -1.0
        assert path.qs[0][0] == 1.0


class TestPathStore:
    def test_log_and_lookup(self):
        store = PathStore(num_classes=3)
        store.log(4, 0, np.array([1.0, 0.0, 0.0]))
        store.log(2, 0, np.array([0.0, 1.0, 0.0]))
        store.log(4, 1, np.array([0.5, 0.5, 0.0]))
        assert len(store) == 2
        assert store.indices() == [2, 4]
        assert len(store[4]) == 2

    def test_export_csv_round_trip(self, tmp_path):
        store = PathStore(num_classes=3)
        rng = np.random.default_rng(0)
        for i in (3, 1):
            for t in range(4):
                store.log(i, t, rng.dirichlet(np.ones(3)))
        out = tmp_path / "paths.csv"
        store.export_csv(out, header_lines=("# run = demo",))
        lines = out.read_text().splitlines()
        assert lines[0] == "# run = demo"
        assert lines[1] == "sample_index,step,q_0,q_1,q_2"
        assert len(lines) == 2 + 8
        # %.17g reproduces the doubles exactly, grouped by sample ascending
        first = lines[2].split(",")
        assert [int(first[0]), int(first[1])] == [1, 0]
        assert np.array_equal(np.array([float(v) for v in first[2:]]),
                              store[1].qs[0])


class TestEmaFilter:
    def test_alpha_one_is_identity(self):
        path = make_path([(1, 0, 0), (0.2, 0.3, 0.5), (0, 0, 1)])
        out = ema_filter_path(path, 1.0)
        assert np.array_equal(out.as_array(), path.as_array())
        assert out.steps == path.steps

    def test_constant_path_is_fixed_point(self):
        path = make_path([(0.2, 0.3, 0.5)] * 5)
        out = ema_filter_path(path, 0.3)
        assert np.allclose(out.as_array(), path.as_array(), atol=1e-15)

    def test_three_step_hand_case(self):
        path = make_path([(1, 0, 0), (0.5, 0.5, 0), (0.25, 0.25, 0.5)])
        out = ema_filter_path(path, 0.5).as_array()
        want = np.array([[1.0, 0.0, 0.0],
                         [0.75, 0.25, 0.0],
                         [0.5, 0.25, 0.25]])
        assert np.allclose(out, want, atol=1e-15)

    def test_output_stays_on_simplex(self, rng):
        path = make_path(rng.dirichlet(np.ones(3), size=200))
        out = ema_filter_path(path, 0.07).as_array()
        assert np.all(out >= -1e-12)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-10)

    def test_bad_inputs(self):
        path = make_path([(1, 0, 0)])
        with pytest.raises(ValueError):
            ema_filter_path(path, 0.0)
        with pytest.raises(ValueError):
            ema_filter_path(path, 1.5)
        with pytest.raises(ValueError):
            ema_filter_path(LearningPath(0), 0.5)


class TestBarycentric:
    def test_vertices(self):
        assert np.allclose(barycentric_project([1, 0, 0]), [0.0, 0.0], atol=0)
        assert np.allclose(barycentric_project([0, 1, 0]), [1.0, 0.0], atol=0)
        assert np.allclose(barycentric_project([0, 0, 1]), [0.5, SQRT3_2],
                           atol=1e-16)

    def test_centroid(self):
        got = barycentric_project([1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(got, [0.5, SQRT3_6], atol=1e-16)

    def test_other_k_rejected(self):
        with pytest.raises(ValueError):
            barycentric_project([0.5, 0.5])
        with pytest.raises(ValueError):
            barycentric_project([0.25, 0.25, 0.25, 0.25])


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
        path = make_path([(1, 0, 0)] * 4)
        assert zigzag_score(path, 0) == 0.0

    def test_uniform_path_scores_t_over_k(self):
        path = make_path([(1 / 3, 1 / 3, 1 / 3)] * 6)
        assert zigzag_score(path, 0) == pytest.approx(2.0, abs=1e-12)

    def test_hand_case(self):
        # columns sum to (1.5, 0.3, 0.2); strongest wrong class is 0.3
        path = make_path([(0.7, 0.2, 0.1), (0.8, 0.1, 0.1)])
        assert zigzag_score(path, 0) == pytest.approx(0.3, abs=1e-15)

    def test_oscillation_scores_higher_than_decay(self):
        osc = make_path([(0.5, 0.5, 0), (0.1, 0.9, 0), (0.5, 0.5, 0),
                         (0.1, 0.9, 0)])
        decay = make_path([(0.5, 0.5, 0), (0.8, 0.2, 0), (0.95, 0.05, 0),
                           (0.99, 0.01, 0)])
        assert zigzag_score(osc, 0) > zigzag_score(decay, 0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            zigzag_score(LearningPath(0), 0)
        with pytest.raises(ValueError):
            zigzag_score(make_path([(1, 0, 0)]), 5)


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

