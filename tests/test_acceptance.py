"""Package acceptance suite.

Eleven end-to-end criteria, one test each. Every test prints exactly one
verdict line straight to the terminal (bypassing capture) before its
assertion, so a failing run still shows the full pass/FAIL scoreboard.
The sweep-based criteria run the real CLI drivers at their default
settings and re-derive the headline numbers from the CSVs they wrote.
"""

import math
import os

import numpy as np
import pytest

from learnpath.cli import main as cli_main
from learnpath.config import load_config
from learnpath.experiments import (RUNNERS, read_csv, run_correlate,
                                   run_distill, run_recovery, run_zigzag)
from learnpath.metrics import ece, spearman, xi_bounds
from learnpath.ntkcheck import residual_scaling_test, softmax_jacobian
from learnpath.numerics import (finite_diff_grad, init_mlp, mlp_backward,
                                mlp_forward, softmax)
from learnpath.supervision import kd_loss_and_grad
from learnpath.toygauss import GaussianSpec, sample_dataset


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {label}: {'pass' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"criterion {num} {label}: {detail}"


def column(columns, rows, name, cast=float):
    j = columns.index(name)
    return [cast(r[j]) for r in rows]


# --------------------------------------------------------- 1: gradients


def test_criterion_01_gradient_oracle(capsys):
    rng = np.random.default_rng(42)
    shapes = ((6, 16, 3), (8, 12, 12, 3), (5, 24, 4))
    checked, worst = 0, 0.0
    while checked < 20:
        sizes = shapes[checked % len(shapes)]
        model = init_mlp(sizes, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=sizes[0])
        acts = mlp_forward(model, x)
        hidden = np.concatenate([w @ a + b for w, b, a in
                                 zip(model.weights[:-1], model.biases[:-1], acts)])
        if np.abs(hidden).min() < 1e-6:
            continue  # too close to a ReLU kink for central differences
        p_tar = rng.dirichlet(np.ones(sizes[-1]))
        analytic = mlp_backward(model, acts, softmax(acts[-1]) - p_tar)

        def loss(m, x=x, p_tar=p_tar):
            q = softmax(mlp_forward(m, x)[-1])
            return float(-(p_tar * np.log(q)).sum())

        numeric = finite_diff_grad(loss, model)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
        checked += 1
    verdict(capsys, 1, "backprop-vs-finite-differences", worst < 1e-5,
            f"max rel err = {worst:.3g} over {checked} triples")


# ---------------------------------------------- 2: update decomposition


def test_criterion_02_sgd_decomposition_residual(capsys):
    ds = sample_dataset(GaussianSpec(seed=0), 2000)
    model = init_mlp((30, 32, 32, 3), seed=0)
    rng = np.random.default_rng(99)
    o, u = np.array([rng.choice(ds.n, size=2, replace=False) for _ in range(60)]).T
    _, medians = residual_scaling_test(model, ds.x[o], ds.x[u], ds.p_star[u],
                                       (1e-2, 5e-3, 2.5e-3))
    ratios = [medians[i][1] / medians[i + 1][1] for i in range(len(medians) - 1)]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    verdict(capsys, 2, "residual-shrinks-quadratically", ok,
            "median-ratio per halving = "
            + ", ".join(f"{r:.3f}" for r in ratios) + f" over {len(o)} pairs")


# ------------------------------------------------ 3: softmax Jacobian


def test_criterion_03_softmax_jacobian_structure(capsys):
    rng = np.random.default_rng(7)
    worst_trace, worst_ones, worst_eig = 0.0, 0.0, 0.0
    symmetric = True
    for i in range(1000):
        k = (2, 3, 5, 10)[i % 4]
        conc = (0.1, 1.0, 10.0)[i % 3]
        q = rng.dirichlet(np.full(k, conc))
        a = softmax_jacobian(q)
        worst_trace = max(worst_trace, abs(np.trace(a) - (1.0 - (q * q).sum())))
        worst_ones = max(worst_ones, np.abs(a @ np.ones(k)).max())
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(a).min()))
        symmetric = symmetric and np.array_equal(a, a.T)
    ok = (worst_trace <= 1e-12 and symmetric and worst_eig >= -1e-10
          and worst_ones <= 1e-12)
    verdict(capsys, 3, "jacobian-trace-symmetry-psd", ok,
            f"1000 vectors: max trace dev = {worst_trace:.2g}, "
            f"min eig = {worst_eig:.2g}, max |A@1| = {worst_ones:.2g}")


# ------------------------------------------------- 4: correlation sweep


def test_criterion_04_gap_correlations(capsys, tmp_path):
    out = str(tmp_path / "correlate")
    os.makedirs(out)
    run_correlate(load_config("correlate"), out, jobs=1)
    cols, rows = read_csv(os.path.join(out, "runs.csv"))
    gaps = column(cols, rows, "l2_gap")
    rho_acc = spearman(gaps, column(cols, rows, "test_acc"))
    rho_ece = spearman(gaps, column(cols, rows, "test_ece"))
    ok = len(rows) >= 60 and rho_acc <= -0.7 and rho_ece >= 0.5
    verdict(capsys, 4, "supervision-gap-correlations", ok,
            f"n = {len(rows)}, spearman(gap, acc) = {rho_acc:.3f} (<= -0.7), "
            f"spearman(gap, ece) = {rho_ece:.3f} (>= 0.5)")


# ----------------------------------------------- 5: supervision ordering


def test_criterion_05_supervision_ordering(capsys, tmp_path):
    cfg = load_config("distill")
    out = str(tmp_path / "distill")
    os.makedirs(out)
    run_distill(cfg, out, jobs=1)
    cols, rows = read_csv(os.path.join(out, "distill.csv"))
    kinds = column(cols, rows, "supervision", cast=str)
    alphas = column(cols, rows, "alpha")
    seeds = column(cols, rows, "seed", cast=int)
    accs = column(cols, rows, "test_acc")
    acc_of = {}
    for kind, alpha, seed, acc in zip(kinds, alphas, seeds, accs):
        if kind == "filter_kd" and alpha != cfg.filter_alpha:
            continue
        acc_of[(kind, seed)] = acc
    shared = [s for s in cfg.seeds
              if all((k, s) in acc_of for k in ("gt", "filter_kd", "eskd", "oht"))]
    gaps = []
    for hi, lo in (("gt", "filter_kd"), ("filter_kd", "eskd"), ("eskd", "oht")):
        d = np.array([acc_of[(hi, s)] - acc_of[(lo, s)] for s in shared])
        se = d.std(ddof=1) / np.sqrt(len(d)) if len(d) > 1 else 0.0
        gaps.append((hi, lo, d.mean(), se, d.mean() + se >= 0))
    ok = len(shared) >= 5 and all(g[4] for g in gaps)
    detail = ", ".join(f"{hi}-{lo} = {m:+.4f}±{se:.4f}" for hi, lo, m, se, _ in gaps)
    verdict(capsys, 5, "distilled-accuracy-ordering", ok,
            f"{len(shared)} seeds, 20% flips: {detail}")


# --------------------------------------------------- 6: label recovery


def test_criterion_06_label_recovery(capsys, tmp_path):
    cfg = load_config("recovery")
    out = str(tmp_path / "recovery")
    os.makedirs(out)
    run_recovery(cfg, out, jobs=1)
    cols, rows = read_csv(os.path.join(out, "recovery.csv"))
    raw = column(cols, rows, "raw_recovery")
    filt = column(cols, rows, "filtered_recovery")
    init = raw[0]
    uniform = 1.0 / cfg.num_classes
    ok = (abs(init - uniform) <= 0.1 and max(filt) >= max(raw)
          and max(raw) >= raw[-1])
    verdict(capsys, 6, "flip-recovery-ordering", ok,
            f"init = {init:.3f} (1/K = {uniform:.3f}), filtered peak = "
            f"{max(filt):.3f} >= raw peak = {max(raw):.3f} >= converged = "
            f"{raw[-1]:.3f}")


# -------------------------------------------------- 7: zig-zag scores


def test_criterion_07_zigzag_scores(capsys, tmp_path):
    out = str(tmp_path / "zigzag")
    os.makedirs(out)
    run_zigzag(load_config("zigzag"), out, jobs=1)
    cols, rows = read_csv(os.path.join(out, "zigzag.csv"))
    diffs = column(cols, rows, "base_difficulty")
    scores = column(cols, rows, "zigzag_score")
    flags = np.array(column(cols, rows, "flipped", cast=int), dtype=bool)
    rho = spearman(diffs, scores)
    scores = np.array(scores)
    fm, cm = scores[flags].mean(), scores[~flags].mean()
    ok = rho >= 0.5 and fm > cm
    verdict(capsys, 7, "zigzag-vs-difficulty", ok,
            f"spearman = {rho:.3f} (>= 0.5), flipped mean = {fm:.3f} > "
            f"clean mean = {cm:.3f}")


# ------------------------------------------------------ 8: risk bounds


def _finite_le(a, b, slack=1e-12):
    if math.isinf(b):
        return True
    return a <= b + slack


def test_criterion_08_bound_term_suite(capsys):
    rng = np.random.default_rng(1729)
    keys = ("xi_l2", "xi_l1", "xi_kl_fwd_sq", "xi_kl_fwd", "xi_kl_rev_sq",
            "xi_kl_rev", "xi_jeffreys")
    violations = []
    for i in range(1000):
        k = (2, 3, 5)[i % 3]
        n = int(rng.integers(1, 9))
        conc = (0.3, 1.0, 5.0)[i % 3]
        p_tar = rng.dirichlet(np.full(k, conc), size=n)
        p_star = rng.dirichlet(np.full(k, conc), size=n)
        d = xi_bounds(p_tar, p_star, loss_bound=4.0)
        if any(d[key] < 0 for key in keys):
            violations.append((i, "negative term"))
        if not _finite_le(d["xi_l1"], d["xi_l2"]):
            violations.append((i, "l1 > l2"))
        if not (_finite_le(d["xi_l1"], d["xi_kl_fwd_sq"])
                and _finite_le(d["xi_l1"], d["xi_kl_rev_sq"])):
            violations.append((i, "pinsker"))
        if not (_finite_le(d["xi_kl_fwd_sq"], d["xi_kl_fwd"])
                and _finite_le(d["xi_kl_rev_sq"], d["xi_kl_rev"])):
            violations.append((i, "jensen"))
        jeff = (d["xi_kl_fwd"] + d["xi_kl_rev"]) / 2
        same = (math.isinf(jeff) and math.isinf(d["xi_jeffreys"])) or \
            abs(d["xi_jeffreys"] - jeff) <= 1e-12
        if not same:
            violations.append((i, "jeffreys mean"))
        z = xi_bounds(p_tar, p_tar.copy(), loss_bound=4.0)
        if any(abs(z[key]) > 1e-12 for key in keys):
            violations.append((i, "nonzero at p_tar = p*"))
    verdict(capsys, 8, "bound-term-invariants", not violations,
            f"1000 random sets, violations = {len(violations)}"
            + (f", first = {violations[0]}" if violations else ""))


# -------------------------------------------------------- 9: calibration


def brute_force_ece(preds, labels, n_bins):
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
        avg = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg)
    return total


def test_criterion_09_ece_oracle(capsys):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 200))
        preds = rng.dirichlet(np.ones(3), size=n)
        labels = rng.integers(0, 3, size=n)
        got = ece(preds, labels, n_bins=10)
        worst = max(worst, abs(got - brute_force_ece(preds, labels, 10)))
    hand = ece(np.array([[0.95, 0.03, 0.02], [0.95, 0.04, 0.01]]),
               np.array([0, 1]), n_bins=10)
    ok = worst <= 1e-12 and abs(hand - 0.45) <= 1e-15
    verdict(capsys, 9, "ece-brute-force-equivalence", ok,
            f"max |diff| = {worst:.2g} over 100 sets, hand case = {hand:.17g}")


# ------------------------------------------------ 10: distillation loss


def test_criterion_10_distillation_gradient(capsys):
    rng = np.random.default_rng(5)
    eps, worst = 1e-6, 0.0
    for tau in (0.5, 1.0, 2.0, 4.0, 10.0):
        for beta in (0.0, 0.5, 1.0):
            for _ in range(4):
                z = rng.normal(size=3)
                p_tar = rng.dirichlet(np.ones(3))
                _, grad = kd_loss_and_grad(z, p_tar, y=1, temperature=tau,
                                           beta=beta)
                numeric = np.empty(3)
                for j in range(3):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += eps
                    zm[j] -= eps
                    lp, _ = kd_loss_and_grad(zp, p_tar, y=1, temperature=tau,
                                             beta=beta)
                    lm, _ = kd_loss_and_grad(zm, p_tar, y=1, temperature=tau,
                                             beta=beta)
                    numeric[j] = (lp - lm) / (2 * eps)
                rel = (np.linalg.norm(grad - numeric)
                       / max(np.linalg.norm(numeric), 1e-12))
                worst = max(worst, rel)
    verdict(capsys, 10, "tempered-loss-gradient", worst < 1e-5,
            f"max rel err = {worst:.3g} over 5 temperatures x 3 mixes x 4 draws")


# -------------------------------------------------- 11: determinism


TINY_CONFIGS = {
    "gen-data": "n_samples = 120\nflip_ratio = 0.1\n",
    "correlate": ("n_samples = 300\nratios = 0.4,0.2,0.4\n"
                  "noise_grid = 0.05,0.4\nnoise_seeds = 1\n"
                  "baseline_seeds = 1\nmax_epochs = 8\nhidden_sizes = 16\n"
                  "learning_rate = 0.05\n"),
    "paths": ("n_samples = 150\nratios = 0.4,0.2,0.4\nmax_epochs = 6\n"
              "hidden_sizes = 16\nquantiles = 0.1,0.9\n"),
    "distance-gap": ("n_samples = 150\nratios = 0.4,0.2,0.4\nmax_epochs = 6\n"
                     "hidden_sizes = 16\n"),
    "recovery": ("n_samples = 200\nratios = 0.4,0.2,0.4\nmax_epochs = 8\n"
                 "hidden_sizes = 16\nflip_ratio = 0.3\n"),
    "distill": ("n_samples = 200\nratios = 0.4,0.1,0.5\nflip_grid = 0.2\n"
                "seeds = 0,1\nalpha_grid = 0.2\nmax_epochs = 8\n"
                "hidden_sizes = 16\n"),
    "ntk-verify": ("n_samples = 200\nn_pairs = 6\nn_similarity = 10\n"
                   "trace_epochs = 3\ntrace_samples = 2\nhidden_sizes = 16\n"),
    "zigzag": ("n_samples = 150\nratios = 0.5,0.25,0.25\nmax_epochs = 8\n"
               "hidden_sizes = 16\n"),
}


def test_criterion_11_byte_determinism(capsys, tmp_path):
    assert set(TINY_CONFIGS) == set(RUNNERS)
    mismatches = []
    compared = 0
    for command, text in TINY_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            jobs = "2" if (command == "correlate" and tag == "b") else "1"
            cli_main([command, "--config", str(cfg_path), "--out", str(out),
                      "--jobs", jobs])
            outs.append(out)
        a, b = outs
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            mismatches.append(f"{command}: file lists differ")
            continue
        for name in names_a:
            compared += 1
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{command}/{name}")
    verdict(capsys, 11, "rerun-byte-identical", not mismatches,
            f"8 subcommands, {compared} files compared"
            + (f"; differing: {mismatches}" if mismatches else ""))
