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

__all__ = [
    "LearningPath", "PathStore", "ema_filter_path", "barycentric_project",
    "base_difficulty", "zigzag_score",
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
        path.append(step, q)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, sample_index: int) -> LearningPath:
        return self.paths[sample_index]

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


def base_difficulty(labels, p_star) -> np.ndarray:
    """||e_y - p*||_2 per row: how far each training label sits from the truth.

    labels (n,) and p_star (n, K) give n difficulties. Each row's squared
    norm is one stacked matmul of the row with itself, which has the bits
    np.linalg.norm gives the row alone; np.linalg.norm(axis=1) sums in
    another order and can differ in the last bit.
    """
    p = np.asarray(p_star, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or y.shape != p.shape[:1]:
        raise ValueError(f"need labels (n,) and p_star (n, K), got {y.shape}/{p.shape}")
    if y.size and not (0 <= y.min() and y.max() < p.shape[1]):
        raise ValueError(f"labels out of range for {p.shape[1]} classes")
    e = np.zeros_like(p)
    e[np.arange(y.size), y] = 1.0
    d = e - p
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


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

