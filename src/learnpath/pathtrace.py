"""Per-sample learning paths and their geometry.

A learning path is the sequence of softmax predictions a model emits for
one training sample over the course of training, recorded at every
visit, before the update. Paths live on the probability simplex; for
K = 3 they project to the plane through the usual barycentric map,
which is how the trajectories get plotted.

Two scalar summaries matter downstream. The base difficulty of a sample
is ||e_y - p*||_2, the distance from its training label to the true
posterior: near 0 for samples the Bayes classifier gets confidently
right, near sqrt(2) for label noise. The zig-zag score of a path sums
the probability mass a path spends on its strongest wrong class, which
is large exactly for the oscillating paths that hard or mislabeled
samples produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from learnpath.numerics import MlpModel, predict_proba
from learnpath.toygauss import TRAIN, ToyDataset

__all__ = [
    "LearningPath", "PathStore", "CsvPathSink", "ema_filter_path",
    "barycentric_project", "base_difficulty", "zigzag_score",
    "distance_gap_snapshot", "recovery_fraction",
]

# simplex corners for the K = 3 planar projection
_BARY_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


@dataclass
class LearningPath:
    """Prediction trajectory of a single sample."""

    sample_index: int
    steps: list = field(default_factory=list)
    qs: list = field(default_factory=list)

    def append(self, step: int, q: np.ndarray) -> None:
        if self.steps and step <= self.steps[-1]:
            raise ValueError(f"steps must increase, got {step} after {self.steps[-1]}")
        self.steps.append(int(step))
        self.qs.append(np.asarray(q, dtype=np.float64).copy())

    def __len__(self) -> int:
        return len(self.steps)

    def as_array(self) -> np.ndarray:
        """(T, K) matrix of recorded predictions."""
        return np.array(self.qs)


@dataclass
class PathStore:
    """Paths for many samples, keyed by sample index."""

    num_classes: int
    paths: dict = field(default_factory=dict)

    def log(self, sample_index: int, step: int, q: np.ndarray) -> None:
        path = self.paths.get(sample_index)
        if path is None:
            path = self.paths[sample_index] = LearningPath(sample_index)
        self.paths[sample_index].append(step, q)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, sample_index: int) -> LearningPath:
        return self.paths[sample_index]

    def __contains__(self, sample_index: int) -> bool:
        return sample_index in self.paths

    def indices(self) -> list:
        return sorted(self.paths)

    def export_csv(self, path, header_lines=()) -> None:
        """Stream all paths to CSV: sample_index, step, q_0..q_{K-1}."""
        cols = ["sample_index", "step"] + [f"q_{j}" for j in range(self.num_classes)]
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(line + "\n")
            fh.write(",".join(cols) + "\n")
            for i in self.indices():
                p = self.paths[i]
                for step, q in zip(p.steps, p.qs):
                    vals = [format(v, ".17g") for v in q]
                    fh.write(",".join([str(i), str(step), *vals]) + "\n")


class CsvPathSink:
    """Write-through recorder for runs too large to keep paths in memory.

    Same log() surface as PathStore, but rows go straight to disk in
    visit order (so not grouped by sample; sort downstream if needed).
    """

    def __init__(self, path, num_classes: int):
        self.num_classes = num_classes
        self._fh = open(path, "w")
        cols = ["sample_index", "step"] + [f"q_{j}" for j in range(num_classes)]
        self._fh.write(",".join(cols) + "\n")

    def log(self, sample_index: int, step: int, q) -> None:
        vals = [format(v, ".17g") for v in q]
        self._fh.write(",".join([str(sample_index), str(step), *vals]) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def ema_filter_path(path: LearningPath, alpha: float) -> LearningPath:
    """Exponential smoothing along a path.

    out[0] = in[0]; out[t] = (1 - alpha) out[t-1] + alpha in[t]. Each
    smoothed point is a convex combination of simplex points, so it
    stays on the simplex up to accumulated rounding; drift beyond 1e-12
    is renormalized away.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if len(path) == 0:
        raise ValueError("cannot filter an empty path")
    out = LearningPath(path.sample_index)
    acc = path.qs[0].copy()
    out.append(path.steps[0], acc)
    for step, q in zip(path.steps[1:], path.qs[1:]):
        acc = (1.0 - alpha) * acc + alpha * q
        total = acc.sum()
        if abs(total - 1.0) > 1e-12:
            acc = acc / total
        out.append(step, acc)
    return out


def barycentric_project(q) -> np.ndarray:
    """Map a K = 3 simplex point to the plane: sum_i q_i v_i with
    v_0 = (0,0), v_1 = (1,0), v_2 = (1/2, sqrt(3)/2)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (3,):
        raise ValueError(f"projection is defined for K = 3 only, got {q.shape}")
    return q @ _BARY_VERTS


def base_difficulty(y: int, p_star: np.ndarray) -> float:
    """||e_y - p*||_2: how far the training label sits from the truth."""
    p = np.asarray(p_star, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"p_star must be a vector, got {p.shape}")
    if not 0 <= y < p.shape[0]:
        raise ValueError(f"label {y} out of range for {p.shape[0]} classes")
    e = np.zeros_like(p)
    e[y] = 1.0
    return float(np.linalg.norm(e - p))


def zigzag_score(path: LearningPath, y: int) -> float:
    """Largest wrong-class column sum of the path's prediction matrix.

    Column sums of a T-point path add to T, so the score lives in
    [0, T]; confidently-correct paths stay near 0.
    """
    qs = path.as_array()
    if qs.size == 0:
        raise ValueError("cannot score an empty path")
    k = qs.shape[1]
    if not 0 <= y < k:
        raise ValueError(f"label {y} out of range for {k} classes")
    col = qs.sum(axis=0)
    col[y] = -np.inf
    return float(col.max())


def distance_gap_snapshot(model: MlpModel, ds: ToyDataset, targets=None,
                          split: int = TRAIN) -> np.ndarray:
    """Per-sample (base_difficulty, ||q - p*||_2, ||q - p_tar||_2) rows.

    targets defaults to one-hot on the current labels. Rows follow the
    split's index order; returned as a structured array so columns keep
    their names.
    """
    idx = ds.indices_of(split)
    if idx.size == 0:
        raise ValueError("empty split")
    q = predict_proba(model, ds.x[idx])
    if targets is None:
        rows = np.zeros((ds.n, ds.num_classes))
        rows[np.arange(ds.n), ds.y] = 1.0
    else:
        rows = np.asarray(getattr(targets, "rows", targets), dtype=np.float64)
    out = np.zeros(idx.size, dtype=[("sample_index", np.int64),
                                    ("base_difficulty", np.float64),
                                    ("dist_q_pstar", np.float64),
                                    ("dist_q_ptar", np.float64)])
    out["sample_index"] = idx
    out["base_difficulty"] = [base_difficulty(int(ds.y[i]), ds.p_star[i]) for i in idx]
    out["dist_q_pstar"] = np.linalg.norm(q - ds.p_star[idx], axis=1)
    out["dist_q_ptar"] = np.linalg.norm(q - rows[idx], axis=1)
    return out


def recovery_fraction(preds, flipped_indices, original_labels) -> float:
    """Share of flipped samples whose argmax prediction is the original label.

    preds rows are aligned with dataset indices; flipped_indices picks
    the corrupted samples. An empty flip set has no recovery to measure.
    """
    rows = np.asarray(getattr(preds, "rows", preds), dtype=np.float64)
    idx = np.asarray(flipped_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("no flipped samples given")
    orig = np.asarray(original_labels)
    return float(np.mean(np.argmax(rows[idx], axis=1) == orig[idx]))
