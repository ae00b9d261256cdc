import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from learnpath.toygauss import (SPLIT_NAMES, TEST, TRAIN, VALID, GaussianSpec,
                                ToyDataset, compute_p_star, flip_labels,
                                gen_class_means, perturb_target, sample_dataset,
                                save_dataset, split_dataset)


def bayes_oracle(x, means, sigma):
    """Posterior via scipy densities and Bayes' rule with uniform priors."""
    dens = np.array([stats.multivariate_normal(mean=mu, cov=sigma**2).pdf(x)
                     for mu in means])
    return dens / dens.sum()


class TestMeans:
    def test_deterministic(self):
        spec = GaussianSpec(seed=5)
        assert np.array_equal(gen_class_means(spec), gen_class_means(spec))

    def test_entries_from_three_values(self):
        spec = GaussianSpec(seed=1, delta_mu=1.5)
        means = gen_class_means(spec)
        assert means.shape == (3, 30)
        assert set(np.unique(means)) <= {-1.5, 0.0, 1.5}

    def test_zero_delta_degenerate(self):
        with pytest.warns(UserWarning):
            means = gen_class_means(GaussianSpec(seed=0, delta_mu=0.0))
        assert np.all(means == 0.0)

    def test_entry_frequencies_uniform(self):
        spec = GaussianSpec(seed=2, num_classes=3, input_dim=2000)
        means = gen_class_means(spec)
        counts = [np.sum(means == v) for v in (-spec.delta_mu, 0.0, spec.delta_mu)]
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestPStar:
    def test_equidistant_uniform(self):
        means = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        p = compute_p_star(np.zeros(2), means, sigma=1.0)
        assert np.allclose(p, 1 / 3, atol=1e-12)

    def test_dominance_at_far_mean(self):
        means = np.array([[100.0, 0.0], [0.0, 0.0], [-100.0, 0.0]])
        p = compute_p_star(means[0], means, sigma=1.0)
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_density_ratio_oracle(self):
        spec = GaussianSpec(seed=3, sigma=2.0)
        means = gen_class_means(spec)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.normal(scale=2.0, size=30)
            got = compute_p_star(x, means, spec.sigma)
            want = bayes_oracle(x, means, spec.sigma)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_batch_matches_single(self):
        spec = GaussianSpec(seed=4)
        means = gen_class_means(spec)
        xs = np.random.default_rng(1).normal(size=(10, 30))
        batch = compute_p_star(xs, means, spec.sigma)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], compute_p_star(x, means, spec.sigma),
                               atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_are_simplex(self, seed):
        spec = GaussianSpec(seed=0)
        means = gen_class_means(spec)
        x = np.random.default_rng(seed).normal(scale=3.0, size=30)
        p = compute_p_star(x, means, spec.sigma)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p > 0).all()


class TestSampling:
    def test_deterministic(self):
        a = sample_dataset(GaussianSpec(seed=9), 50)
        b = sample_dataset(GaussianSpec(seed=9), 50)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = sample_dataset(GaussianSpec(seed=10), 50)
        assert not np.array_equal(a.x, c.x)

    def test_label_distribution(self):
        ds = sample_dataset(GaussianSpec(seed=0), 3000)
        counts = np.bincount(ds.y, minlength=3)
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_class_conditional_means(self):
        spec = GaussianSpec(seed=1)
        ds = sample_dataset(spec, 6000)
        means = ds.means
        for k in range(3):
            xs = ds.x[ds.y == k]
            bound = 4 * spec.sigma / np.sqrt(len(xs))
            assert np.abs(xs.mean(axis=0) - means[k]).max() < bound * 1.5

    def test_tiny_sigma_p_star_concentrates(self):
        ds = sample_dataset(GaussianSpec(seed=2, sigma=1e-3), 100)
        picked = ds.p_star[np.arange(100), ds.y]
        assert picked.min() > 1 - 1e-9

    def test_p_star_matches_recompute(self):
        ds = sample_dataset(GaussianSpec(seed=3), 40)
        want = compute_p_star(ds.x, ds.means, ds.spec.sigma)
        assert np.allclose(ds.p_star, want, atol=1e-15)

    def test_all_rows_start_train(self):
        ds = sample_dataset(GaussianSpec(seed=0), 20)
        assert np.all(ds.split == TRAIN)


class TestSplit:
    def test_exact_apportionment(self):
        ds = sample_dataset(GaussianSpec(seed=0), 100)
        out = split_dataset(ds, (0.05, 0.05, 0.9))
        assert (len(out.train_indices), len(out.valid_indices),
                len(out.test_indices)) == (5, 5, 90)

    def test_all_train(self):
        ds = sample_dataset(GaussianSpec(seed=0), 30)
        out = split_dataset(ds, (1.0, 0.0, 0.0))
        assert len(out.train_indices) == 30

    def test_thirds_cover_everything(self):
        ds = sample_dataset(GaussianSpec(seed=0), 10)
        out = split_dataset(ds, (1 / 3, 1 / 3, 1 / 3))
        sizes = sorted(len(out.indices_of(s)) for s in (TRAIN, VALID, TEST))
        assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1

    def test_deterministic_and_disjoint(self):
        ds = sample_dataset(GaussianSpec(seed=6), 200)
        a = split_dataset(ds, (0.2, 0.3, 0.5))
        b = split_dataset(ds, (0.2, 0.3, 0.5))
        assert np.array_equal(a.split, b.split)
        groups = [set(a.indices_of(s)) for s in (TRAIN, VALID, TEST)]
        assert sum(len(g) for g in groups) == 200
        assert set.union(*groups) == set(range(200))

    def test_bad_ratios(self):
        ds = sample_dataset(GaussianSpec(seed=0), 10)
        with pytest.raises(ValueError):
            split_dataset(ds, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            split_dataset(ds, (0.9, 0.2, -0.1))


@pytest.fixture(scope="module")
def split_ds():
    ds = sample_dataset(GaussianSpec(seed=8), 1250)
    return split_dataset(ds, (0.8, 0.1, 0.1))


class TestFlips:
    def test_exact_count_and_difference(self, split_ds):
        flipped = flip_labels(split_ds, 0.1, seed=0)
        idx = flipped.flipped_indices
        assert len(idx) == 100  # 0.1 * 1000 train rows
        assert np.all(flipped.y[idx] != flipped.original_y[idx])
        assert np.all(flipped.y[idx] < 3)

    def test_zero_ratio_identity(self, split_ds):
        flipped = flip_labels(split_ds, 0.0, seed=0)
        assert np.array_equal(flipped.y, split_ds.y)
        assert len(flipped.flipped_indices) == 0

    def test_full_ratio(self, split_ds):
        flipped = flip_labels(split_ds, 1.0, seed=1)
        train = flipped.train_indices
        assert np.all(flipped.y[train] != flipped.original_y[train])

    def test_non_train_untouched(self, split_ds):
        flipped = flip_labels(split_ds, 0.5, seed=2)
        other = np.concatenate([flipped.valid_indices, flipped.test_indices])
        assert np.array_equal(flipped.y[other], split_ds.y[other])

    def test_metadata_preserved(self, split_ds):
        flipped = flip_labels(split_ds, 0.3, seed=3)
        assert np.array_equal(flipped.original_y, split_ds.original_y)
        assert np.array_equal(flipped.p_star, split_ds.p_star)
        assert np.array_equal(flipped.x, split_ds.x)

    def test_source_not_mutated(self, split_ds):
        before = split_ds.y.copy()
        flip_labels(split_ds, 0.4, seed=4)
        assert np.array_equal(split_ds.y, before)


class TestPerturb:
    def test_zero_scale_identity(self):
        p = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(perturb_target(p, 0.0, seed=0), p)

    def test_simplex_contract(self):
        rng = np.random.default_rng(0)
        for scale in (0.01, 0.1, 1.0, 10.0):
            for _ in range(50):
                p = rng.dirichlet(np.ones(3))
                out = perturb_target(p, scale, rng)
                assert out.sum() == pytest.approx(1.0, abs=1e-12)
                assert (out >= 0).all()

    def test_distance_monotone_in_scale(self):
        p = np.array([0.6, 0.3, 0.1])
        grid = (0.01, 0.05, 0.2, 0.5, 1.0)
        dists = []
        for j, scale in enumerate(grid):
            rng = np.random.default_rng(100 + j)
            d = [np.linalg.norm(perturb_target(p, scale, rng) - p)
                 for _ in range(1500)]
            dists.append(np.mean(d))
        assert all(a < b for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("scale", [0.0, 0.01, 0.28, 1.0, 5.0])
    def test_table_matches_per_row_calls_bitwise(self, k, scale):
        p = np.random.default_rng(k).dirichlet(np.full(k, 0.5), size=3000)
        rng = np.random.default_rng(11)
        want = np.vstack([perturb_target(row, scale, rng) for row in p])
        got = perturb_target(p, scale, np.random.default_rng(11))
        assert np.array_equal(got, want)
        if scale >= 1.0:  # rows pushed to 0 fall back to uniform in both
            assert (got == 1.0 / k).all(axis=1).any()

    def test_large_noise_can_flip_argmax(self):
        p = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(7)
        flips = sum(np.argmax(perturb_target(p, 1.0, rng)) != 0 for _ in range(300))
        assert flips > 0


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        ds = split_dataset(sample_dataset(GaussianSpec(seed=12), 60), (0.5, 0.2, 0.3))
        ds = flip_labels(ds, 0.2, seed=1)
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + ds.n
        rows = [line.split(",") for line in lines[1:]]
        dim = ds.spec.input_dim
        assert [int(r[0]) for r in rows] == list(range(ds.n))
        assert [r[1] for r in rows] == [SPLIT_NAMES[s] for s in ds.split]
        assert np.array_equal([int(r[2]) for r in rows], ds.y)
        assert np.array_equal([int(r[3]) for r in rows], ds.original_y)
        # %.17g reads back to the same doubles
        assert np.array_equal([[float(v) for v in r[4:4 + dim]] for r in rows], ds.x)
        assert np.array_equal([[float(v) for v in r[4 + dim:]] for r in rows],
                              ds.p_star)
        header = json.loads((tmp_path / "dataset.header.json").read_text())
        assert GaussianSpec(**{f: header[f] for f in ("num_classes", "input_dim",
                                                     "sigma", "delta_mu",
                                                     "seed")}) == ds.spec
        assert np.array_equal(header["means"], ds.means)

    def test_header_json(self, tmp_path):
        ds = sample_dataset(GaussianSpec(seed=1, sigma=2.5), 10)
        save_dataset(ds, tmp_path / "d.csv")
        header = json.loads((tmp_path / "d.header.json").read_text())
        assert header["sigma"] == 2.5
        assert len(header["means"]) == 3
