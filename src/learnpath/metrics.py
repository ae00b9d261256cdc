"""Evaluation metrics and supervision-quality bound terms.

Training on targets p_tar rather than on the true posterior p* changes
the risk being minimized: the target risk weights each per-class loss
row L(f(x)) by p_tar(x), the true risk by p*(x). The gap between the
two is controlled by seven interchangeable terms xi built from the
mismatch between p_tar and p* (xi_bounds); all seven vanish when
p_tar = p* and obey a fixed chain of inequalities (norm comparison,
Pinsker, Jensen), which the tests enforce. The correlate sweep reports
them per student with its test accuracy, calibration error (ece) and
mean distance to p* (mean_gap), and rank-correlates that distance with
accuracy and ECE (spearman).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "EceConfig", "BoundReport", "as_rows", "accuracy", "ece", "mean_gap",
    "kl_divergence", "xi_bounds", "spearman", "spearman_perm_pvalue",
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


@dataclass(frozen=True)
class EceConfig:
    n_bins: int = 10

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")


def ece(preds, labels, config: EceConfig = EceConfig()) -> float:
    """Expected calibration error over equal-width confidence bins.

    Confidence is max_k q_k. Bin m covers ((m-1)/M, m/M]; a confidence of
    exactly 0 lands in the first bin. Per bin the score accumulates
    (|B_m| / n) * |mean accuracy - mean confidence|.
    """
    p = as_rows(preds)
    y = np.asarray(labels)
    if p.shape[0] != y.shape[0] or p.shape[0] == 0:
        raise ValueError("preds/labels must be non-empty and aligned")
    m = config.n_bins
    conf = p.max(axis=1)
    hit = (np.argmax(p, axis=1) == y).astype(np.float64)
    idx = np.ceil(conf * m).astype(np.int64) - 1
    np.clip(idx, 0, m - 1, out=idx)
    total = 0.0
    n = p.shape[0]
    for b in range(m):
        mask = idx == b
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        total += (cnt / n) * abs(hit[mask].mean() - conf[mask].mean())
    return float(total)


def mean_gap(targets, p_stars, norm: str = "l2") -> float:
    """Mean rowwise distance between supervision and the true posterior."""
    a, b = as_rows(targets), as_rows(p_stars)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"aligned non-empty tables required, got {a.shape}/{b.shape}")
    d = a - b
    if norm == "l2":
        return float(np.sqrt((d * d).sum(axis=1)).mean())
    if norm == "l1":
        return float(np.abs(d).sum(axis=1).mean())
    raise ValueError(f"norm must be 'l2' or 'l1', got {norm!r}")


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats with the 0 log 0 = 0 convention.

    Infinite when q puts zero mass where p does not; the infinity is
    returned as math.inf rather than raising, so callers can see it.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    support = p > 0
    if np.any(q[support] == 0):
        return math.inf
    ps = p[support]
    return float((ps * np.log(ps / q[support])).sum())


@dataclass(frozen=True)
class BoundReport:
    """Seven interchangeable bound terms on the target-vs-true risk gap.

    With ell the per-class loss bound, D_n = p_tar(x_n) - p*(x_n), and
    E[.] the mean over samples:

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

    xi_l2: float
    xi_l1: float
    xi_kl_fwd_sq: float
    xi_kl_fwd: float
    xi_kl_rev_sq: float
    xi_kl_rev: float
    xi_jeffreys: float

    def as_dict(self) -> dict:
        return asdict(self)


def xi_bounds(targets, p_stars, loss_bound: float = 10.0) -> BoundReport:
    """Evaluate all seven bound terms for aligned target/posterior tables."""
    t, s = as_rows(targets), as_rows(p_stars)
    if t.shape != s.shape or t.ndim != 2 or t.shape[0] == 0:
        raise ValueError(f"aligned non-empty tables required, got {t.shape}/{s.shape}")
    if not loss_bound > 0:
        raise ValueError(f"loss_bound must be positive, got {loss_bound}")
    k = t.shape[1]
    ell2 = loss_bound * loss_bound
    d = t - s
    mean_l2 = float(np.sqrt((d * d).sum(axis=1)).mean())
    mean_l1 = float(np.abs(d).sum(axis=1).mean())
    kl_fwd = np.array([kl_divergence(t[i], s[i]) for i in range(len(t))])
    kl_rev = np.array([kl_divergence(s[i], t[i]) for i in range(len(t))])
    return BoundReport(
        xi_l2=ell2 * k * mean_l2 ** 2,
        xi_l1=ell2 * mean_l1 ** 2,
        xi_kl_fwd_sq=2.0 * ell2 * float(np.sqrt(kl_fwd).mean()) ** 2,
        xi_kl_fwd=2.0 * ell2 * float(kl_fwd.mean()),
        xi_kl_rev_sq=2.0 * ell2 * float(np.sqrt(kl_rev).mean()) ** 2,
        xi_kl_rev=2.0 * ell2 * float(kl_rev.mean()),
        xi_jeffreys=ell2 * float((kl_fwd + kl_rev).mean()),
    )


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of fractional ranks.

    Ties get average ranks. Constant input has no rank ordering, so it
    raises rather than returning an arbitrary value.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {x.shape}/{y.shape}")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("spearman undefined for constant input")
    rx, ry = _fractional_ranks(x), _fractional_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def spearman_perm_pvalue(xs, ys, n_perm: int, rng) -> float:
    """Two-sided permutation p-value for spearman(xs, ys).

    Shuffles ys n_perm times; the +1 correction keeps the estimate away
    from an impossible exact zero.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    obs = abs(spearman(xs, ys))
    y = np.asarray(ys, dtype=np.float64).copy()
    hits = 0
    for _ in range(n_perm):
        rng.shuffle(y)
        if abs(spearman(xs, y)) >= obs:
            hits += 1
    return (hits + 1) / (n_perm + 1)
