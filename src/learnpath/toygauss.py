"""Synthetic Gaussian classification task with known class posteriors.

K classes share an isotropic covariance sigma^2 I in `input_dim`
dimensions; class means have entries drawn from {-delta_mu, 0, +delta_mu}.
Labels are uniform, so the true posterior has the closed softmax form

    p*(y=k | x) = softmax_k( -||x - mu_k||^2 / (2 sigma^2) ),

which every experiment here leans on as ground truth. Datasets are
value-like: arrays are frozen after construction and every mutation-style
operation (splitting, label flips) returns a new dataset.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from learnpath.rngstreams import stream

TRAIN, VALID, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "valid", "test")

__all__ = [
    "GaussianSpec", "ToyDataset", "gen_class_means", "compute_p_star",
    "sample_dataset", "split_counts", "split_dataset", "flip_labels",
    "perturb_target", "save_dataset", "TRAIN", "VALID", "TEST", "SPLIT_NAMES",
]


@dataclass(frozen=True)
class GaussianSpec:
    """Task parameters; seed pins means and sampling."""

    num_classes: int = 3
    input_dim: int = 30
    sigma: float = 2.0
    delta_mu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # 0 collapses all class means onto the origin; degenerate but legal
        if self.delta_mu < 0:
            raise ValueError(f"delta_mu must be >= 0, got {self.delta_mu}")


@dataclass
class ToyDataset:
    """Columnar sample store; all arrays are read-only after construction.

    y is the training label (possibly flipped); original_y is the label
    drawn at sampling time and survives any later flipping.
    """

    spec: GaussianSpec
    means: np.ndarray      # (K, input_dim)
    x: np.ndarray          # (n, input_dim)
    y: np.ndarray          # (n,) int64
    original_y: np.ndarray # (n,) int64
    p_star: np.ndarray     # (n, K)
    split: np.ndarray      # (n,) int8, values TRAIN/VALID/TEST

    def __post_init__(self):
        n = self.x.shape[0]
        k = self.spec.num_classes
        if self.means.shape != (k, self.spec.input_dim):
            raise ValueError(f"means shape {self.means.shape}")
        if self.x.shape != (n, self.spec.input_dim) or self.p_star.shape != (n, k):
            raise ValueError("input/posterior shapes do not match spec")
        for a in (self.y, self.original_y, self.split):
            if a.shape != (n,):
                raise ValueError("label/split arrays must be 1-d of length n")
        if n and (self.y.min() < 0 or self.y.max() >= k):
            raise ValueError("labels out of range")
        sums = self.p_star.sum(axis=1)
        if n and not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("p_star rows must lie in the simplex")
        for a in (self.means, self.x, self.y, self.original_y,
                  self.p_star, self.split):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def indices_of(self, split: int) -> np.ndarray:
        return np.flatnonzero(self.split == split)

    @property
    def train_indices(self) -> np.ndarray:
        return self.indices_of(TRAIN)

    @property
    def valid_indices(self) -> np.ndarray:
        return self.indices_of(VALID)

    @property
    def test_indices(self) -> np.ndarray:
        return self.indices_of(TEST)

    @property
    def flipped_indices(self) -> np.ndarray:
        return np.flatnonzero(self.y != self.original_y)


def gen_class_means(spec: GaussianSpec) -> np.ndarray:
    """(K, input_dim) means, entries uniform over {-delta_mu, 0, +delta_mu}."""
    if spec.delta_mu == 0:
        warnings.warn("delta_mu = 0 collapses every class mean to the origin",
                      stacklevel=2)
    rng = stream(spec.seed, "means")
    choices = np.array([-spec.delta_mu, 0.0, spec.delta_mu])
    return choices[rng.integers(0, 3, size=(spec.num_classes, spec.input_dim))]


def compute_p_star(x: np.ndarray, means: np.ndarray, sigma: float) -> np.ndarray:
    """True posterior under uniform labels and shared isotropic covariance.

    Accepts one input (dim,) -> (K,) or a batch (n, dim) -> (n, K).
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != means.shape[1]:
        raise ValueError(f"input dim {xb.shape[1]} vs means dim {means.shape[1]}")
    d2 = ((xb[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    s = -d2 / (2.0 * sigma * sigma)
    s -= s.max(axis=1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=1, keepdims=True)
    return p[0] if single else p


def sample_dataset(spec: GaussianSpec, n_samples: int) -> ToyDataset:
    """Draw a dataset: uniform labels, x = mu_y + sigma * standard normal.

    All rows start in the train split; use split_dataset to partition.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    means = gen_class_means(spec)
    y = stream(spec.seed, "labels").integers(0, spec.num_classes, size=n_samples)
    noise = stream(spec.seed, "inputs").standard_normal((n_samples, spec.input_dim))
    x = means[y] + spec.sigma * noise
    p_star = compute_p_star(x, means, spec.sigma)
    return ToyDataset(spec=spec, means=means, x=x,
                      y=y.astype(np.int64), original_y=y.astype(np.int64).copy(),
                      p_star=p_star, split=np.full(n_samples, TRAIN, dtype=np.int8))


def split_counts(n: int, ratios) -> list:
    """Largest-remainder split counts: sum to n, each within 1 of n*ratio."""
    quotas = [n * r for r in ratios]
    base = [int(np.floor(q)) for q in quotas]
    short = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def split_dataset(ds: ToyDataset, ratios) -> ToyDataset:
    """Assign train/valid/test splits by seeded shuffle.

    ratios is (train, valid, test), non-negative, summing to 1.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be 3 non-negative numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    counts = split_counts(ds.n, ratios)
    perm = stream(ds.spec.seed, "split").permutation(ds.n)
    split = np.empty(ds.n, dtype=np.int8)
    at = 0
    for code, c in zip((TRAIN, VALID, TEST), counts):
        split[perm[at:at + c]] = code
        at += c
    return replace(ds, split=split)


def flip_labels(ds: ToyDataset, flip_ratio: float, seed: int) -> ToyDataset:
    """Corrupt exactly round(flip_ratio * n_train) train labels.

    Each chosen sample gets a label drawn uniformly from the other
    classes; original_y is untouched, so flips stay recoverable.
    """
    if not 0.0 <= flip_ratio <= 1.0:
        raise ValueError(f"flip_ratio must be in [0, 1], got {flip_ratio}")
    train = ds.train_indices
    n_flip = int(round(flip_ratio * train.size))
    y = ds.y.copy()
    if n_flip:
        rng = stream(seed, "flips")
        chosen = rng.choice(train, size=n_flip, replace=False)
        k = ds.num_classes
        # uniform over the k-1 labels different from the current one
        offs = rng.integers(1, k, size=n_flip)
        y[chosen] = (y[chosen] + offs) % k
    return replace(ds, y=y)


def perturb_target(p_star: np.ndarray, noise_scale: float, seed) -> np.ndarray:
    """Noisy supervision rows: add N(0, noise_scale^2), clamp at 0, renormalize.

    p_star is one row (K,) or a table (n, K); a table takes its noise in
    one draw, in row order, so each row gets the numbers it would get
    perturbed alone from the same generator. noise_scale = 0 returns
    p_star unchanged. A row pushed entirely to 0 falls back to the uniform
    distribution. `seed` may be an int or an already-open numpy Generator.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    p = np.asarray(p_star, dtype=np.float64)
    if noise_scale == 0:
        return p.copy()
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed, "perturb")
    out = np.maximum(p + rng.normal(0.0, noise_scale, size=p.shape), 0.0)
    total = out.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # 0 / 0 in the rows replaced below
        out /= total
    return np.where(total == 0.0, 1.0 / p.shape[-1], out)


def save_dataset(ds: ToyDataset, csv_path) -> None:
    """Write the sample table plus a JSON header carrying spec and means.

    Floats use %.17g, which round-trips float64 exactly.
    """
    dim, k = ds.spec.input_dim, ds.num_classes
    cols = (["index", "split", "y", "original_y"]
            + [f"x_{j}" for j in range(dim)]
            + [f"pstar_{j}" for j in range(k)])
    with open(csv_path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(ds.n):
            row = [str(i), SPLIT_NAMES[ds.split[i]], str(int(ds.y[i])),
                   str(int(ds.original_y[i]))]
            row += [format(v, ".17g") for v in ds.x[i]]
            row += [format(v, ".17g") for v in ds.p_star[i]]
            fh.write(",".join(row) + "\n")
    header = {
        "num_classes": ds.spec.num_classes,
        "input_dim": ds.spec.input_dim,
        "sigma": ds.spec.sigma,
        "delta_mu": ds.spec.delta_mu,
        "seed": ds.spec.seed,
        "n_samples": ds.n,
        "means": [[float(v) for v in row] for row in ds.means],
    }
    base = str(csv_path).removesuffix(".csv")
    with open(base + ".header.json", "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")
