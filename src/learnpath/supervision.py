"""Supervision construction and student/teacher training.

A TargetTable assigns every sample a distribution over classes; training
consumes the rows of the train split. Builders cover the usual schemes:

  - one-hot labels,
  - label smoothing (1 - eps) e_y + eps * uniform,
  - the true posterior p* (and noisy versions of it),
  - teacher predictions, either at the best-validation checkpoint
    ("eskd") or at convergence ("kd_converged"),
  - the filtered teacher: a per-sample exponential moving average of the
    teacher's own predictions collected while the teacher trains
    ("filter_kd").

The filtered teacher follows one pass of plain one-hot SGD training; at
every visit the pre-update prediction is folded into the sample's
running average before the step. Averaging across visits smooths out
the oscillation that noisy-labeled neighbours induce, so the table can
be better supervision than any single checkpoint.

Training is strictly per-sample SGD (batch size 1) in a seeded shuffle
order, with early stopping on validation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from learnpath.metrics import accuracy
from learnpath.numerics import (MlpModel, init_mlp, mlp_backward, mlp_forward,
                                predict_proba, sgd_step, softmax)
from learnpath.pathtrace import PathStore
from learnpath.rngstreams import stream
from learnpath.toygauss import ToyDataset

PROVENANCES = ("onehot", "smoothed", "ground_truth", "kd_converged",
               "eskd", "filter_kd", "custom")

__all__ = [
    "TargetTable", "TrainConfig", "TrainResult", "DivergenceError",
    "make_onehot_targets", "make_ls_targets", "make_gt_targets",
    "kd_loss_and_grad", "train_model", "train_teacher_filterkd",
    "train_teacher_filterkd_multi", "extract_eskd_targets",
    "extract_kd_targets", "param_ema_tracker", "save_targets",
    "load_targets", "PROVENANCES",
]


class DivergenceError(RuntimeError):
    """Training produced non-finite numbers."""


@dataclass
class TargetTable:
    """Per-sample supervision rows aligned with dataset indices."""

    rows: np.ndarray  # (n, K)
    provenance: str

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValueError(f"rows must be (n, K), got {self.rows.shape}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if np.any(self.rows < -1e-12) or np.any(self.rows > 1 + 1e-12):
            raise ValueError("target entries must lie in [0, 1]")
        if not np.allclose(self.rows.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("target rows must sum to 1")
        # a tempered target raises entries to a fractional power, which
        # turns even -1e-13 into NaN: clip such rounding residue to 0 and
        # renormalize its row (a copy; rows already in [0, 1] keep their bits)
        negative = self.rows < 0
        if negative.any():
            rows = np.where(negative, 0.0, self.rows)
            hit = negative.any(axis=1)
            rows[hit] /= rows[hit].sum(axis=1, keepdims=True)
            self.rows = rows

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def num_classes(self) -> int:
        return self.rows.shape[1]


def make_onehot_targets(ds: ToyDataset) -> TargetTable:
    rows = np.zeros((ds.n, ds.num_classes))
    rows[np.arange(ds.n), ds.y] = 1.0
    return TargetTable(rows, "onehot")


def make_ls_targets(ds: ToyDataset, epsilon: float = 0.1) -> TargetTable:
    """Label smoothing: (1 - eps) e_y + eps / K."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    k = ds.num_classes
    rows = np.full((ds.n, k), epsilon / k)
    rows[np.arange(ds.n), ds.y] += 1.0 - epsilon
    return TargetTable(rows, "smoothed")


def make_gt_targets(ds: ToyDataset) -> TargetTable:
    """The true posterior as supervision; the cleanest targets available."""
    return TargetTable(ds.p_star.copy(), "ground_truth")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max()
    return z - (m + np.log(np.exp(z - m).sum()))


def _power_renorm(p: np.ndarray, tau: float) -> np.ndarray:
    w = p ** tau
    return w / w.sum()


def kd_loss_and_grad(logits, p_tar, y: int, temperature: float = 1.0,
                     beta: float = 1.0):
    """Distillation loss and its exact logit gradient.

    With q = softmax(z), tempered prediction q_t = softmax(tau * z),
    tempered target p_t = p_tar^tau renormalized, and H(a, b) =
    -sum_i b_i log a_i:

        loss = beta * (1/tau^2) * H(q_t, p_t) + (1 - beta) * H(q, e_y)
        grad = beta * (1/tau)   * (q_t - p_t) + (1 - beta) * (q - e_y)

    Sharpening (tau > 1) scales the soft term's gradient down by 1/tau;
    tau = 1, beta = 1 reduces to plain cross entropy against p_tar.
    """
    z = np.asarray(logits, dtype=np.float64)
    p = np.asarray(p_tar, dtype=np.float64)
    if z.shape != p.shape or z.ndim != 1:
        raise ValueError(f"logits {z.shape} vs targets {p.shape}")
    if not (np.isfinite(z).all() and np.isfinite(p).all()):
        # the training loop turns this into DivergenceError
        raise ValueError("non-finite logits or targets")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    k = z.shape[0]
    if not 0 <= y < k:
        raise ValueError(f"label {y} out of range for {k} classes")
    tau = temperature
    log_q = _log_softmax(z)
    q = np.exp(log_q)
    if tau == 1.0:
        log_qt, qt, pt = log_q, q, p
    else:
        log_qt = _log_softmax(tau * z)
        qt = np.exp(log_qt)
        pt = _power_renorm(p, tau)
    loss = 0.0
    grad = np.zeros(k)
    if beta > 0:
        loss += beta / (tau * tau) * float(-(pt * log_qt).sum())
        grad += (beta / tau) * (qt - pt)
    if beta < 1:
        loss += (1.0 - beta) * float(-log_q[y])
        g = q.copy()
        g[y] -= 1.0
        grad += (1.0 - beta) * g
    # at tau = 1 every term is finite once z and p are; at tau != 1 the
    # tempered target p^tau can still be NaN (a negative entry)
    if tau != 1.0 and not np.isfinite(grad).all():
        raise ValueError(f"non-finite distillation gradient {grad!r}")
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    learning_rate 0 is allowed and freezes the model, which gives the
    cheapest possible control run for path diagnostics. patience=None
    disables early stopping; stop_at_train_acc halts once the train-split
    accuracy reaches the threshold (used to define "converged" teachers).
    """

    hidden_sizes: tuple = (128, 128, 128)
    learning_rate: float = 0.05
    max_epochs: int = 200
    patience: int | None = 10
    temperature: float = 1.0
    beta: float = 1.0
    seed: int = 0
    record_paths: bool = False
    path_granularity: str = "per_visit"
    stop_at_train_acc: float | None = None
    param_ema_alpha: float | None = None

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {self.patience}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if any(int(h) <= 0 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be positive, got {self.hidden_sizes}")
        if self.path_granularity not in ("per_visit", "per_epoch"):
            raise ValueError(f"bad path_granularity {self.path_granularity!r}")
        if self.stop_at_train_acc is not None and not 0 < self.stop_at_train_acc <= 1:
            raise ValueError("stop_at_train_acc must be in (0, 1]")
        if self.param_ema_alpha is not None and not 0 < self.param_ema_alpha <= 1:
            raise ValueError("param_ema_alpha must be in (0, 1]")

    def layer_sizes(self, input_dim: int, num_classes: int) -> tuple:
        return (input_dim, *(int(h) for h in self.hidden_sizes), num_classes)


@dataclass
class TrainResult:
    """Everything a training run leaves behind.

    Epoch indices are 0-based; epochs_run is the number of completed
    epochs, best_epoch indexes valid_acc_history. q_smooth is only set
    by the filtered-teacher loop.
    """

    final_model: MlpModel
    best_model: MlpModel
    best_epoch: int
    epochs_run: int
    valid_acc_history: list
    train_acc_history: list
    init_model: MlpModel
    stopped_early: bool = False
    paths: PathStore | None = None
    q_smooth: TargetTable | None = None
    param_ema_model: MlpModel | None = None


def param_ema_tracker(track: MlpModel, train: MlpModel, alpha: float) -> MlpModel:
    """In-place parameter EMA: track <- (1 - alpha) track + alpha train."""
    if track.layer_sizes != train.layer_sizes:
        raise ValueError(f"shape mismatch {track.layer_sizes} vs {train.layer_sizes}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    keep = 1.0 - alpha
    for tw, tb, w, b in zip(track.weights, track.biases, train.weights, train.biases):
        tw *= keep
        tw += alpha * w
        tb *= keep
        tb += alpha * b
    return track


def _valid_accuracy(model, ds) -> float:
    idx = ds.valid_indices
    if idx.size == 0:
        return float("nan")
    return accuracy(predict_proba(model, ds.x[idx]), ds.y[idx])


def _train_accuracy(model, ds, train_idx) -> float:
    return accuracy(predict_proba(model, ds.x[train_idx]), ds.y[train_idx])


def _run_sgd(ds: ToyDataset, config: TrainConfig, target_rows,
             filter_alphas=None, epoch_callback=None):
    """Shared SGD loop for students and filtered teachers.

    With target_rows set, each visit descends the tempered loss against
    that sample's row. With filter_alphas set instead, the loop trains
    against one-hot labels and maintains one running-average prediction
    table per alpha; the tables never influence the training itself, so
    a whole alpha grid costs one run. Returns (TrainResult, tables dict).

    epoch_callback(epoch, model, q_tables) fires after each epoch's
    bookkeeping, before any stop decision; q_tables maps alpha to the
    live (n, K) table and is empty for plain students.
    """
    train_idx = ds.train_indices
    if train_idx.size == 0:
        raise ValueError("dataset has an empty train split")
    k = ds.num_classes
    filtering = filter_alphas is not None
    if filtering:
        alphas = tuple(float(a) for a in filter_alphas)
        if not alphas or any(not 0 < a <= 1 for a in alphas):
            raise ValueError(f"filter alphas must be in (0, 1], got {filter_alphas}")
    elif target_rows.shape != (ds.n, k):
        raise ValueError(f"targets shape {target_rows.shape}, want {(ds.n, k)}")

    model = init_mlp(config.layer_sizes(ds.spec.input_dim, k), config.seed)
    init_model = model.copy()
    tracker = model.copy() if config.param_ema_alpha is not None else None
    paths = None
    if config.record_paths:
        paths = PathStore(num_classes=k, granularity=config.path_granularity)
    # the smoothing tables start from the untrained model's predictions
    q_tables = {}
    if filtering:
        init_pred = predict_proba(model, ds.x)
        q_tables = {a: init_pred.copy() for a in alphas}

    eta = config.learning_rate
    tau, beta = config.temperature, config.beta
    best_acc = -np.inf
    best_model = model.copy()
    best_epoch = 0
    valid_hist, train_hist = [], []
    since_improve = 0
    stopped_early = False
    step = 0
    per_visit = config.path_granularity == "per_visit"
    y = ds.y
    for epoch in range(config.max_epochs):
        order = train_idx[stream(config.seed, "shuffle", epoch).permutation(train_idx.size)]
        try:
            for i in order:
                cache = mlp_forward(model, ds.x[i])
                q = softmax(cache.logits)
                if paths is not None and per_visit:
                    paths.log(int(i), step, q)
                if filtering:
                    for a, table in q_tables.items():
                        table[i] *= 1.0 - a
                        table[i] += a * q
                    grad_logits = q.copy()
                    grad_logits[y[i]] -= 1.0
                else:
                    _, grad_logits = kd_loss_and_grad(cache.logits, target_rows[i],
                                                      int(y[i]), tau, beta)
                sgd_step(model, mlp_backward(model, cache, grad_logits), eta)
                if tracker is not None:
                    param_ema_tracker(tracker, model, config.param_ema_alpha)
                step += 1
        except ValueError as err:
            raise DivergenceError(
                f"non-finite state at epoch {epoch}, step {step}: {err}") from err
        if paths is not None and not per_visit:
            preds = predict_proba(model, ds.x[train_idx])
            for j, i in enumerate(train_idx):
                paths.log(int(i), step, preds[j])
        vacc = _valid_accuracy(model, ds)
        tacc = _train_accuracy(model, ds, train_idx)
        valid_hist.append(vacc)
        train_hist.append(tacc)
        if epoch_callback is not None:
            epoch_callback(epoch, model, q_tables)
        if np.isfinite(vacc) and vacc > best_acc:
            best_acc = vacc
            best_model = model.copy()
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
        if config.stop_at_train_acc is not None and tacc >= config.stop_at_train_acc:
            stopped_early = True
            break
        if (config.patience is not None and np.isfinite(vacc)
                and since_improve >= config.patience):
            stopped_early = True
            break

    tables = {}
    if filtering:
        tables = {a: TargetTable(t, "filter_kd") for a, t in q_tables.items()}
    result = TrainResult(final_model=model, best_model=best_model,
                         best_epoch=best_epoch, epochs_run=len(valid_hist),
                         valid_acc_history=valid_hist, train_acc_history=train_hist,
                         init_model=init_model, stopped_early=stopped_early,
                         paths=paths, param_ema_model=tracker)
    return result, tables


def train_model(ds: ToyDataset, targets: TargetTable, config: TrainConfig,
                epoch_callback=None) -> TrainResult:
    """Train a student against a fixed supervision table."""
    rows = targets.rows if isinstance(targets, TargetTable) else np.asarray(targets)
    result, _ = _run_sgd(ds, config, rows, epoch_callback=epoch_callback)
    return result


def train_teacher_filterkd_multi(ds: ToyDataset, config: TrainConfig, alphas,
                                 epoch_callback=None):
    """One one-hot teacher run, one smoothed table per alpha.

    Returns (TrainResult, {alpha: TargetTable}). alpha = 1 keeps no
    history: each row is simply the last pre-update prediction seen.
    """
    result, tables = _run_sgd(ds, config, None, filter_alphas=alphas,
                              epoch_callback=epoch_callback)
    return result, tables


def train_teacher_filterkd(ds: ToyDataset, config: TrainConfig,
                           alpha: float = 0.05) -> TrainResult:
    """Filtered teacher at a single smoothing rate; q_smooth is filled."""
    result, tables = train_teacher_filterkd_multi(ds, config, (alpha,))
    result.q_smooth = tables[float(alpha)]
    return result


def extract_eskd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the best-validation checkpoint."""
    return TargetTable(predict_proba(result.best_model, ds.x), "eskd")


def extract_kd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the end of training."""
    return TargetTable(predict_proba(result.final_model, ds.x), "kd_converged")


def save_targets(table: TargetTable, path) -> None:
    k = table.num_classes
    cols = ["index"] + [f"k{j}" for j in range(k)] + ["provenance"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(table.n):
            vals = [format(v, ".17g") for v in table.rows[i]]
            fh.write(",".join([str(i), *vals, table.provenance]) + "\n")


def load_targets(path) -> TargetTable:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        k = len(header) - 2
        rows, provenance = [], None
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append([float(v) for v in parts[1:1 + k]])
            provenance = parts[-1]
    return TargetTable(np.array(rows), provenance)
