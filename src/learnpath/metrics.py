"""Evaluation metrics and supervision-quality bound terms.

Training on targets p_tar rather than on the true posterior p* changes
the risk being minimized: the target risk weights each per-class loss
row L(f(x)) by p_tar(x), the true risk by p*(x). The gap between the
two is controlled by seven interchangeable terms xi built from the
mismatch between p_tar and p*; all seven vanish when p_tar = p* and
obey a fixed chain of inequalities (norm comparison, Pinsker, Jensen),
which the tests enforce. xi_bounds measures a whole target table
against p* in one pass: its mean L2 and L1 distances and the seven
terms. The correlate sweep reports them per student with its test
accuracy and calibration error (ece), and rank-correlates the L2
distance with accuracy and ECE (spearman, NaN where undefined).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "XI_TERMS", "as_rows", "accuracy", "ece", "xi_bounds", "spearman",
    "spearman_perm_pvalue",
]


def as_rows(table) -> np.ndarray:
    """The (n, K) float rows of a TargetTable or of a plain array."""
    return np.asarray(getattr(table, "rows", table), dtype=np.float64)


def accuracy(preds, labels) -> float:
    """Fraction of rows whose argmax matches the label; ties -> lowest index."""
    p = as_rows(preds)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise ValueError(f"preds {p.shape} vs labels {y.shape}")
    if y.shape[0] == 0:
        raise ValueError("accuracy of an empty set is undefined")
    return float(np.mean(np.argmax(p, axis=1) == y))


def ece(preds, labels, n_bins: int = 10) -> float:
    """Expected calibration error over n_bins equal-width confidence bins.

    Confidence is max_k q_k. Bin m covers ((m-1)/M, m/M]; a confidence of
    exactly 0 lands in the first bin. Per bin the score accumulates
    (|B_m| / n) * |mean accuracy - mean confidence|.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    p = as_rows(preds)
    y = np.asarray(labels)
    if p.shape[0] != y.shape[0] or p.shape[0] == 0:
        raise ValueError("preds/labels must be non-empty and aligned")
    conf = p.max(axis=1)
    hit = (np.argmax(p, axis=1) == y).astype(np.float64)
    idx = np.ceil(conf * n_bins).astype(np.int64) - 1
    np.clip(idx, 0, n_bins - 1, out=idx)
    total = 0.0
    n = p.shape[0]
    for b in range(n_bins):
        mask = idx == b
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        total += (cnt / n) * abs(hit[mask].mean() - conf[mask].mean())
    return float(total)


XI_TERMS = ("xi_l2", "xi_l1", "xi_kl_fwd_sq", "xi_kl_fwd",
            "xi_kl_rev_sq", "xi_kl_rev", "xi_jeffreys")


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p_n || q_n) in nats for each row: 0 log 0 = 0, and inf where
    q_n puts zero mass where p_n does not."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log(p / q), 0.0).sum(axis=1)


def xi_bounds(targets, p_stars, loss_bound: float = 10.0) -> dict:
    """How far aligned target rows sit from the true posterior p*.

    Returns the mean L2 and L1 distances (l2_gap, l1_gap), then the seven
    bound terms of XI_TERMS. With ell the per-class loss bound, D_n =
    p_tar(x_n) - p*(x_n), and E[.] the mean over samples:

        xi_l2        = ell^2 K (E ||D||_2)^2
        xi_l1        = ell^2   (E ||D||_1)^2
        xi_kl_fwd_sq = 2 ell^2 (E sqrt(KL(p_tar || p*)))^2
        xi_kl_fwd    = 2 ell^2  E KL(p_tar || p*)
        xi_kl_rev_sq = 2 ell^2 (E sqrt(KL(p* || p_tar)))^2
        xi_kl_rev    = 2 ell^2  E KL(p* || p_tar)
        xi_jeffreys  = ell^2    E [KL(p_tar||p*) + KL(p*||p_tar)]

    Guaranteed orderings: xi_l1 <= xi_l2, xi_l1 <= both _sq forms
    (Pinsker), and each _sq form <= its expectation form (Jensen).
    KL-based terms may be infinite; the norm terms never are.
    """
    t, s = as_rows(targets), as_rows(p_stars)
    if t.shape != s.shape or t.ndim != 2 or t.shape[0] == 0:
        raise ValueError(f"aligned non-empty tables required, got {t.shape}/{s.shape}")
    if not loss_bound > 0:
        raise ValueError(f"loss_bound must be positive, got {loss_bound}")
    ell2 = loss_bound * loss_bound
    d = t - s
    l2_gap = float(np.sqrt((d * d).sum(axis=1)).mean())
    l1_gap = float(np.abs(d).sum(axis=1).mean())
    kl_fwd, kl_rev = _kl_rows(t, s), _kl_rows(s, t)
    return {
        "l2_gap": l2_gap,
        "l1_gap": l1_gap,
        "xi_l2": ell2 * t.shape[1] * l2_gap ** 2,
        "xi_l1": ell2 * l1_gap ** 2,
        "xi_kl_fwd_sq": 2.0 * ell2 * float(np.sqrt(kl_fwd).mean()) ** 2,
        "xi_kl_fwd": 2.0 * ell2 * float(kl_fwd.mean()),
        "xi_kl_rev_sq": 2.0 * ell2 * float(np.sqrt(kl_rev).mean()) ** 2,
        "xi_kl_rev": 2.0 * ell2 * float(kl_rev.mean()),
        "xi_jeffreys": ell2 * float((kl_fwd + kl_rev).mean()),
    }


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions.

    A tie group is a run of equal neighbours in stable sorted order
    (NaN equals nothing, so each NaN ranks alone); positions first..last
    share the rank 0.5 (first + last) + 1.
    """
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.ones(len(v), dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    first = np.flatnonzero(starts)
    last = np.append(first[1:], len(v)) - 1
    ranks = np.empty(len(v), dtype=np.float64)
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(starts) - 1]
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of fractional ranks.

    Ties get average ranks. Fewer than 2 points, or a constant side, have
    no rank ordering: the result is NaN, which fails every comparison.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {x.shape}/{y.shape}")
    if len(x) < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan
    rx, ry = _fractional_ranks(x), _fractional_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def spearman_perm_pvalue(xs, ys, n_perm: int, rng) -> float:
    """Two-sided permutation p-value for spearman(xs, ys).

    Shuffles ys n_perm times; the +1 correction keeps the estimate away
    from an impossible exact zero. NaN where spearman(xs, ys) is.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    obs = abs(spearman(xs, ys))
    if math.isnan(obs):
        return math.nan
    y = np.asarray(ys, dtype=np.float64).copy()
    hits = 0
    for _ in range(n_perm):
        rng.shuffle(y)
        if abs(spearman(xs, y)) >= obs:
            hits += 1
    return (hits + 1) / (n_perm + 1)
