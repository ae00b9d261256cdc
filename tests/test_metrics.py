import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from learnpath.metrics import (BoundReport, EceConfig, accuracy, ece,
                               kl_divergence, mean_gap, spearman,
                               spearman_perm_pvalue, xi_bounds)
from learnpath.supervision import make_gt_targets

LN2 = 0.69314718055994530942


def brute_force_ece(preds, labels, n_bins):
    """Straight transcription of the binned formula, no vectorization."""
    preds = np.asarray(preds)
    conf = preds.max(axis=1)
    pred_label = preds.argmax(axis=1)
    n = len(labels)
    total = 0.0
    for m in range(1, n_bins + 1):
        lo, hi = (m - 1) / n_bins, m / n_bins
        members = [i for i in range(n)
                   if (conf[i] > lo or (m == 1 and conf[i] <= lo)) and conf[i] <= hi]
        if not members:
            continue
        acc = sum(1 for i in members if pred_label[i] == labels[i]) / len(members)
        avg_conf = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg_conf)
    return total


def random_preds(rng, n, k=3):
    preds = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n)
    return preds, labels


class TestAccuracy:
    def test_all_correct(self):
        preds = np.eye(3)
        assert accuracy(preds, np.array([0, 1, 2])) == 1.0

    def test_all_wrong(self):
        preds = np.eye(3)
        assert accuracy(preds, np.array([1, 2, 0])) == 0.0

    def test_hand_case(self):
        preds = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert accuracy(preds, np.array([0, 1, 0, 0])) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.empty((0, 3)), np.empty(0, dtype=int))

    def test_target_table_scores_as_its_rows(self, small_ds):
        table = make_gt_targets(small_ds)
        assert accuracy(table, small_ds.y) == accuracy(table.rows, small_ds.y)


class TestEce:
    def test_single_confident_correct(self):
        assert ece(np.array([[1.0, 0.0]]), np.array([0])) == 0.0

    def test_hand_case_two_samples(self):
        preds = np.array([[0.95, 0.05, 0.0], [0.95, 0.05, 0.0]])
        labels = np.array([0, 1])  # one right, one wrong
        assert ece(preds, labels) == pytest.approx(0.45, abs=1e-15)

    def test_calibrated_case(self):
        # one bin, accuracy == mean confidence inside it
        preds = np.array([[0.75, 0.25], [0.75, 0.25], [0.75, 0.25], [0.75, 0.25]])
        labels = np.array([0, 0, 0, 1])
        assert ece(preds, labels) == pytest.approx(0.0, abs=1e-15)

    def test_brute_force_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 60))
            preds, labels = random_preds(rng, n)
            got = ece(preds, labels)
            want = brute_force_ece(preds, labels, 10)
            assert got == pytest.approx(want, abs=1e-12)

    def test_custom_bins(self, rng):
        preds, labels = random_preds(rng, 40)
        got = ece(preds, labels, EceConfig(n_bins=4))
        want = brute_force_ece(preds, labels, 4)
        assert got == pytest.approx(want, abs=1e-12)

    def test_confidence_one_lands_in_last_bin(self):
        preds = np.array([[1.0, 0.0]])
        assert ece(preds, np.array([1])) == pytest.approx(1.0, abs=1e-15)


class TestMeanGap:
    def test_identity(self):
        p = np.array([[0.2, 0.8], [0.5, 0.5]])
        assert mean_gap(p, p, "l2") == 0.0
        assert mean_gap(p, p, "l1") == 0.0

    def test_hand_case(self):
        t = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        assert mean_gap(t, p, "l2") == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert mean_gap(t, p, "l1") == pytest.approx(1.0, abs=1e-15)

    def test_bad_norm(self):
        p = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            mean_gap(p, p, "linf")


class TestKl:
    def test_identity(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_log2_case(self):
        got = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == pytest.approx(LN2, abs=1e-15)

    def test_infinite_when_q_vanishes_on_support(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        p, q = r.dirichlet(np.ones(4)), r.dirichlet(np.ones(4))
        assert kl_divergence(p, q) >= 0.0


def xi_tuple(report: BoundReport):
    return (report.xi_l2, report.xi_l1, report.xi_kl_fwd_sq, report.xi_kl_fwd,
            report.xi_kl_rev_sq, report.xi_kl_rev, report.xi_jeffreys)


class TestXiBounds:
    def test_all_vanish_at_p_star(self, rng):
        p = rng.dirichlet(np.ones(3), size=20)
        report = xi_bounds(p, p)
        assert all(v == pytest.approx(0.0, abs=1e-15) for v in xi_tuple(report))

    def test_single_pair_frozen_values(self):
        t = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        report = xi_bounds(t, p, loss_bound=1.0)
        assert report.xi_l2 == pytest.approx(1.0, abs=1e-15)
        assert report.xi_l1 == pytest.approx(1.0, abs=1e-15)
        assert report.xi_kl_fwd == pytest.approx(2 * LN2, abs=1e-14)
        assert report.xi_kl_fwd_sq == pytest.approx(2 * LN2, abs=1e-14)
        assert report.xi_kl_rev == math.inf
        assert report.xi_kl_rev_sq == math.inf
        assert report.xi_jeffreys == math.inf

    def test_orderings_random_sets(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            t = rng.dirichlet(np.ones(3), size=n)
            p = rng.dirichlet(np.ones(3), size=n)
            r = xi_bounds(t, p)
            assert all(v >= 0 for v in xi_tuple(r))
            assert r.xi_l1 <= r.xi_l2 + 1e-12
            # Pinsker: l1 lower-bounds both squared-KL terms
            assert r.xi_l1 <= r.xi_kl_fwd_sq + 1e-12
            assert r.xi_l1 <= r.xi_kl_rev_sq + 1e-12
            # Jensen: squared mean of sqrt(KL) never beats mean KL
            assert r.xi_kl_fwd_sq <= r.xi_kl_fwd + 1e-12
            assert r.xi_kl_rev_sq <= r.xi_kl_rev + 1e-12
            assert r.xi_jeffreys == pytest.approx(
                (r.xi_kl_fwd + r.xi_kl_rev) / 2, rel=1e-12)

    def test_loss_bound_scales_quadratically(self, rng):
        t = rng.dirichlet(np.ones(3), size=10)
        p = rng.dirichlet(np.ones(3), size=10)
        one = xi_bounds(t, p, loss_bound=1.0)
        five = xi_bounds(t, p, loss_bound=5.0)
        assert five.xi_l2 == pytest.approx(25 * one.xi_l2, rel=1e-12)
        assert five.xi_kl_fwd == pytest.approx(25 * one.xi_kl_fwd, rel=1e-12)

    def test_as_dict_round_trip(self, rng):
        t = rng.dirichlet(np.ones(3), size=5)
        p = rng.dirichlet(np.ones(3), size=5)
        d = xi_bounds(t, p).as_dict()
        assert set(d) >= {"xi_l2", "xi_l1", "xi_kl_fwd_sq", "xi_kl_fwd",
                          "xi_kl_rev_sq", "xi_kl_rev", "xi_jeffreys"}


class TestSpearman:
    def test_monotone_chains(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman(xs, [5, 4, 3, 2]) == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            xs = rng.integers(0, 6, size=n).astype(float)  # plenty of ties
            ys = rng.normal(size=n)
            if len(set(xs)) < 2:
                continue
            want = stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_perm_pvalue_behaviour(self, rng):
        xs = np.arange(30.0)
        ys = xs + rng.normal(scale=0.01, size=30)
        p_strong = spearman_perm_pvalue(xs, ys, 200, rng)
        assert 0 < p_strong <= 2 / 201 + 1e-12
        noise = rng.normal(size=30)
        p_noise = spearman_perm_pvalue(xs, noise, 200, rng)
        assert p_noise > 0.05
