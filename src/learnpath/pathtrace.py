"""Per-sample learning paths and their geometry.

A learning path is the sequence of softmax predictions a model emits for
one training sample over the course of training, recorded at every
visit, before the update. Every epoch visits each train row once, so the
paths of a run form one dense (epochs, n_train, K) array. Paths live on
the probability simplex; for K = 3 they project to the plane through the
usual barycentric map, which is how the trajectories get plotted. Their
exponential moving average, ema_filter, gives the Filter-KD tables.

Two scalar summaries matter downstream. The base difficulty of a sample
is ||e_y - p*||_2, the distance from its training label to the true
posterior: near 0 for samples the Bayes classifier gets confidently
right, near sqrt(2) for label noise. The zig-zag score of a path is its
largest wrong-class column sum, large for the oscillating paths of hard
or mislabeled rows. PathStore keeps a run's path, PathSums only its
column sums; the log of either is a run's sink in supervision.train_stack
and ignores the model a sink is passed.
"""

from __future__ import annotations

import numpy as np

from learnpath.csvio import write_csv

__all__ = [
    "PathStore", "PathSums", "ema_filter", "barycentric_project",
    "base_difficulty", "zigzag_score",
]

# samples per block of export_csv: only a block's paths become Python floats
_EXPORT_BLOCK = 64

# simplex corners for the K = 3 planar projection
_BARY_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


class PathStore:
    """The learning paths of one run's train rows, as dense arrays.

    preds[t, j] is the prediction at the visit in epoch t of train row
    indices[j], with indices ascending, and steps[t, j] is the run's step
    count at that visit. Both hold the epochs logged so far; log, as a
    run's sink (supervision.train_stack), takes one whole epoch per call.
    The room doubles as epochs arrive: max_epochs can exceed an early stop's.
    """

    def __init__(self, indices, num_classes: int):
        self.indices = np.sort(np.asarray(indices, dtype=np.int64))
        self.num_classes = num_classes
        self._epochs = 0  # logged so far
        self._preds = np.empty((1, self.indices.size, num_classes))
        self._steps = np.empty((1, self.indices.size), dtype=np.int64)

    def log(self, epoch: int, column: int, step: int, q: np.ndarray, model=None) -> None:
        """Record q as the visit of row indices[column] in epoch, or arrays of visits."""
        if epoch == len(self._preds):  # double the room
            self._preds = np.concatenate((self._preds, np.empty_like(self._preds)))
            self._steps = np.concatenate((self._steps, np.empty_like(self._steps)))
        self._preds[epoch, column] = q
        self._steps[epoch, column] = step
        self._epochs = epoch + 1

    @property
    def preds(self) -> np.ndarray:
        return self._preds[:self._epochs]

    @property
    def steps(self) -> np.ndarray:
        return self._steps[:self._epochs]

    @property
    def paths(self) -> dict:
        """Sample index -> its (epochs, K) path, a view into preds."""
        return dict(zip(self.indices.tolist(), self.preds.transpose(1, 0, 2)))

    def export_csv(self, path, header_lines=()) -> None:
        """All paths as CSV, grouped by sample ascending: sample_index,
        step, q_0..q_{K-1}. Samples become rows a block at a time, so only
        one block's points are ever Python floats."""
        steps, preds = self.steps.T, self.preds.transpose(1, 0, 2)
        n = self.indices.size
        blocks = (slice(at, at + _EXPORT_BLOCK) for at in range(0, n, _EXPORT_BLOCK))
        write_csv(path, header_lines,
                  ["sample_index", "step", *(f"q_{j}" for j in range(self.num_classes))],
                  ((i, step, *q) for b in blocks
                   for i, row_steps, qs in zip(self.indices[b].tolist(),
                                               steps[b].tolist(), preds[b].tolist())
                   for step, q in zip(row_steps, qs)))


class PathSums:
    """A run's path as column sums only; log is its sink. sums[j] adds up
    train column j's points as epochs arrive, in PathStore.preds.sum(axis=0)'s order."""

    def __init__(self, n_train: int, num_classes: int):
        self.sums = np.zeros((n_train, num_classes))

    def log(self, epoch, columns, steps, q, model=None) -> None:
        self.sums[columns] += q


def ema_filter(qs, alpha: float, start) -> np.ndarray:
    """Exponential moving average along paths, all samples at once.

    qs is (T, ..., K), T points of each path, and start (..., K) the
    average before the first point. Returns out of shape (T + 1, ..., K)
    with out[0] = start and out[t] = (1 - alpha) out[t-1] + alpha qs[t-1].
    Each smoothed point is a convex combination of simplex points, so it
    stays on the simplex up to accumulated rounding; a row that drifts
    beyond 1e-12 is renormalized.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    qs = np.asarray(qs, dtype=np.float64)
    out = np.empty((qs.shape[0] + 1, *qs.shape[1:]))
    out[0] = start
    for t, q in enumerate(qs):
        acc = (1.0 - alpha) * out[t] + alpha * q
        total = acc.sum(axis=-1, keepdims=True)
        out[t + 1] = np.where(np.abs(total - 1.0) > 1e-12, acc / total, acc)
    return out


def barycentric_project(q) -> np.ndarray:
    """Map K = 3 simplex points (..., 3) to the plane (..., 2):
    sum_i q_i v_i with v_0 = (0,0), v_1 = (1,0), v_2 = (1/2, sqrt(3)/2)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim == 0 or q.shape[-1] != 3:
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


def zigzag_score(sums, labels) -> np.ndarray:
    """Largest wrong-class column sum of each path's prediction matrix.

    sums (n, K) holds the column sums of n paths (PathSums.sums) and
    labels (n,) their labels. Column sums of a T-point path add to T, so
    a score lives in [0, T]; confidently-correct paths stay near 0.
    """
    col = np.array(sums, dtype=np.float64)
    y = np.asarray(labels)
    if col.ndim != 2 or y.shape != col.shape[:1]:
        raise ValueError(f"need column sums (n, K) and labels (n,), "
                         f"got {col.shape}/{y.shape}")
    if y.size and not (0 <= y.min() and y.max() < col.shape[1]):
        raise ValueError(f"labels out of range for {col.shape[1]} classes")
    col[np.arange(y.size), y] = -np.inf
    return col.max(axis=1)
