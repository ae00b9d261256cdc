"""Supervision construction and student/teacher training.

A TargetTable assigns every sample a distribution over classes; training
consumes the rows of the train split. Builders cover the usual schemes:

  - one-hot labels,
  - label smoothing (1 - eps) e_y + eps * uniform,
  - the true posterior p* (and noisy versions of it),
  - teacher predictions, either at the best-validation checkpoint
    ("eskd") or at convergence ("kd_converged"),
  - the filtered teacher: the exponential moving average of the
    teacher's learning path ("filter_kd").

The filtered teacher is one run of plain one-hot SGD training with its
learning path recorded, the pre-update prediction at every visit. Each
table row is the EMA of that row's path (pathtrace.ema_filter), started
from the untrained model's prediction. Averaging across visits smooths
out the oscillation that noisy-labeled neighbours induce, so the table
can be better supervision than any single checkpoint.
train_teacher_filterkd_multi fills one such table per smoothing rate
alpha from the same path; a single rate is a grid of one, (alpha,).

Training is strictly per-sample SGD (batch size 1) in a seeded shuffle
order, with early stopping on validation accuracy. There is one SGD
loop, and it steps a stack of R runs in lockstep. The runs of a stack
share one TrainConfig, so they share the initialization and the shuffle
order and differ only in their target tables: train_models stacks the
students given to it, and train_model and the filtered teacher are its
R = 1 case. Weights are stacked as (R, out, in), and each visit does
one stacked forward pass, loss gradient and backward pass, then one
sgd_step per run. The contract is bitwise: every run ends with exactly
the parameters, histories and stopping epoch it would have had trained
alone. Early stopping stays per run, and a run that stops or diverges
leaves the stack without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from learnpath.metrics import accuracy, as_rows
from learnpath.numerics import (MlpModel, init_mlp, predict_proba, sgd_step,
                                softmax)
from learnpath.pathtrace import PathStore, ema_filter
from learnpath.rngstreams import stream
from learnpath.toygauss import ToyDataset

PROVENANCES = ("onehot", "smoothed", "ground_truth", "kd_converged",
               "eskd", "filter_kd", "custom")

__all__ = [
    "TargetTable", "TrainConfig", "TrainResult", "DivergenceError",
    "make_onehot_targets", "make_ls_targets", "make_gt_targets",
    "kd_loss_and_grad", "train_model", "train_models",
    "train_teacher_filterkd_multi", "extract_eskd_targets",
    "extract_kd_targets", "PROVENANCES",
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
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def _power_renorm(p: np.ndarray, tau: float) -> np.ndarray:
    w = p ** tau
    return w / w.sum(axis=-1, keepdims=True)


def _kd_grad(z, pt, y: int, tau: float, beta: float):
    """Logit gradient of the distillation loss, with log q and log q_t.

    z holds logits and pt tempered targets, either one row (K,) or a
    stack of rows (R, K) against the same label y; each row's numbers
    are the same whether it is computed alone or in a stack.
    """
    log_q = _log_softmax(z)
    q = np.exp(log_q)
    if tau == 1.0:
        log_qt, qt = log_q, q
    else:
        log_qt = _log_softmax(tau * z)
        qt = np.exp(log_qt)
    grad = np.zeros(z.shape)
    if beta > 0:
        grad += (beta / tau) * (qt - pt)
    if beta < 1:
        g = q.copy()
        g[..., y] -= 1.0
        grad += (1.0 - beta) * g
    return grad, log_q, log_qt


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
        raise ValueError("non-finite logits or targets")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    k = z.shape[0]
    if not 0 <= y < k:
        raise ValueError(f"label {y} out of range for {k} classes")
    tau = temperature
    pt = p if tau == 1.0 else _power_renorm(p, tau)
    grad, log_q, log_qt = _kd_grad(z, pt, y, tau, beta)
    loss = 0.0
    if beta > 0:
        loss += beta / (tau * tau) * float(-(pt * log_qt).sum())
    if beta < 1:
        loss += (1.0 - beta) * float(-log_q[y])
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
    stop_at_train_acc: float | None = None

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
        if self.stop_at_train_acc is not None and not 0 < self.stop_at_train_acc <= 1:
            raise ValueError("stop_at_train_acc must be in (0, 1]")

    def layer_sizes(self, input_dim: int, num_classes: int) -> tuple:
        return (input_dim, *(int(h) for h in self.hidden_sizes), num_classes)


@dataclass
class TrainResult:
    """Everything a training run leaves behind.

    Epoch indices are 0-based; epochs_run is the number of completed
    epochs, best_epoch indexes valid_acc_history.
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


def _valid_accuracy(model, ds) -> float:
    idx = ds.valid_indices
    if idx.size == 0:
        return float("nan")
    return accuracy(predict_proba(model, ds.x[idx]), ds.y[idx])


def _train_accuracy(model, ds, train_idx) -> float:
    return accuracy(predict_proba(model, ds.x[train_idx]), ds.y[train_idx])


@dataclass
class _Run:
    """What one run of a stack keeps besides its slice of the parameters."""

    slot: int             # position in the caller's list of runs
    model: MlpModel       # views into the stack's parameters
    init_model: MlpModel
    best_model: MlpModel
    paths: PathStore | None
    grads: list = None    # views into the stack's gradient buffers
    best_acc: float = -np.inf
    best_epoch: int = 0
    since_improve: int = 0
    valid_hist: list = field(default_factory=list)
    train_hist: list = field(default_factory=list)


class _Stack:
    """Parameters of the active runs, stacked along a leading run axis.

    Weights are (R, out, in), biases (R, out) and the gradient buffers
    match them; targets are (n, R, K), so one sample's rows for all runs
    form one block. Each run's model and grads are views into row r, so
    numerics.sgd_step updates the stack in place. Dropping runs copies
    the remaining rows into new stacks and re-points the views.
    """

    def __init__(self, runs, model: MlpModel, targets):
        r = len(runs)
        self.runs = runs
        self.weights = [np.repeat(w[None], r, axis=0) for w in model.weights]
        self.biases = [np.repeat(b[None], r, axis=0) for b in model.biases]
        self.targets = targets
        self._point()

    def _point(self):
        self.dw = [np.empty_like(w) for w in self.weights]
        self.db = [np.empty_like(b) for b in self.biases]
        for r, run in enumerate(self.runs):
            run.model.weights = [w[r] for w in self.weights]
            run.model.biases = [b[r] for b in self.biases]
            run.grads = [(dw[r], db[r]) for dw, db in zip(self.dw, self.db)]

    def keep(self, mask) -> None:
        idx = np.flatnonzero(mask)
        self.runs = [self.runs[j] for j in idx]
        self.weights = [w[idx] for w in self.weights]
        self.biases = [b[idx] for b in self.biases]
        if self.targets is not None:
            self.targets = self.targets[:, idx]
        self._point()


def _run_sgd(ds: ToyDataset, config: TrainConfig, targets=None,
             epoch_callback=None):
    """The SGD loop: R runs that share one config, stepped in lockstep.

    Sharing the config means sharing the initialization and the shuffle
    order, so at every visit all runs see the same sample and only their
    target rows differ. Each visit does one stacked forward pass, one
    stacked loss gradient and one stacked backward pass, then one
    numerics.sgd_step per run. Every run's arithmetic is bitwise that of
    the run trained alone: the stacked mat-vecs are np.matmul calls that
    reach the same BLAS gemv as the per-run `w @ a` and `w.T @ d`, and
    all other operations act row by row.

    With targets, a list of R (n, K) row arrays, each run descends the
    tempered loss against its own rows. With targets None, one run
    descends cross entropy against the labels, with the logit gradient
    softmax(z) - e_y: the filtered teacher's loop.

    Early stopping, checkpoints and histories are per run. A run that
    stops, or diverges, leaves the stack; the others go on unchanged.
    Returns one TrainResult or DivergenceError per run, in the order
    given.

    epoch_callback(epoch, model) fires for every run after each epoch's
    bookkeeping, before any stop decision.
    """
    train_idx = ds.train_indices
    if train_idx.size == 0:
        raise ValueError("dataset has an empty train split")
    k = ds.num_classes
    tau, beta = config.temperature, config.beta
    model = init_mlp(config.layer_sizes(ds.spec.input_dim, k), config.seed)
    onehot = targets is None
    tables, n_runs = None, 1
    if not onehot:
        rows = [np.asarray(t, dtype=np.float64) for t in targets]
        for t in rows:
            if t.shape != (ds.n, k):
                raise ValueError(f"targets shape {t.shape}, want {(ds.n, k)}")
            if not np.isfinite(t).all():
                raise ValueError("non-finite targets")
        n_runs = len(rows)
        if n_runs == 0:
            return []
        tables = np.stack(rows, axis=1)
        if tau != 1.0:  # the tempered targets; a NaN row fails at its visit
            tables = _power_renorm(tables, tau)

    runs = [_Run(slot=r, model=model.copy(), init_model=model.copy(),
                 best_model=model.copy(),
                 paths=PathStore(train_idx, k) if config.record_paths else None)
            for r in range(n_runs)]
    stack = _Stack(runs, model, tables)
    out = [None] * n_runs

    def finish(run, stopped_early):
        out[run.slot] = TrainResult(
            final_model=run.model.copy(), best_model=run.best_model,
            best_epoch=run.best_epoch, epochs_run=len(run.valid_hist),
            valid_acc_history=run.valid_hist, train_acc_history=run.train_hist,
            init_model=run.init_model, stopped_early=stopped_early,
            paths=run.paths)

    def diverge(run, epoch, step, reason):
        out[run.slot] = DivergenceError(
            f"non-finite state at epoch {epoch}, step {step}: {reason}")

    def prune(bad, epoch, step, reason, arrays):
        """Drop the runs flagged in bad as diverged; returns the kept rows."""
        for j in np.flatnonzero(bad):
            diverge(stack.runs[j], epoch, step, reason(j))
        stack.keep(~bad)
        return [arr[~bad] for arr in arrays]

    eta = config.learning_rate
    xs, ys = ds.x, ds.y
    step = 0
    for epoch in range(config.max_epochs):
        order = train_idx[stream(config.seed, "shuffle", epoch).permutation(train_idx.size)]
        for i in order:
            x, label = xs[i], int(ys[i])
            a, hidden = x, []
            for w, b in zip(stack.weights[:-1], stack.biases[:-1]):
                a = np.maximum(np.matmul(w, a[..., None])[..., 0] + b, 0.0)
                hidden.append(a)
            logits = np.matmul(stack.weights[-1], a[..., None])[..., 0] + stack.biases[-1]
            if not np.isfinite(logits).all():
                logits, *hidden = prune(
                    ~np.isfinite(logits).all(axis=1), epoch, step,
                    lambda j: f"softmax got non-finite logits: {logits[j]!r}",
                    [logits, *hidden])
                if not stack.runs:
                    break
            if onehot or config.record_paths:
                q = softmax(logits)
            if config.record_paths:
                for run, q_r in zip(stack.runs, q):
                    run.paths.log(int(i), step, q_r)
            if onehot:
                delta = q.copy()
                delta[:, label] -= 1.0
            else:
                delta = _kd_grad(logits, stack.targets[i], label, tau, beta)[0]
                # at tau != 1 a tempered target row can be NaN
                if tau != 1.0 and not np.isfinite(delta).all():
                    delta, *hidden = prune(
                        ~np.isfinite(delta).all(axis=1), epoch, step,
                        lambda j: f"non-finite distillation gradient {delta[j]!r}",
                        [delta, *hidden])
                    if not stack.runs:
                        break
            # backward: the bias gradient of layer l is its delta
            stack.db[-1][...] = delta
            for l in range(len(stack.weights) - 1, -1, -1):
                delta = stack.db[l]
                a_prev = hidden[l - 1] if l else x
                np.multiply(delta[:, :, None], a_prev[..., None, :], out=stack.dw[l])
                if l:
                    back = np.matmul(delta[:, None, :], stack.weights[l])[:, 0, :]
                    np.multiply(back, hidden[l - 1] > 0.0, out=stack.db[l - 1])
            for run in stack.runs:
                sgd_step(run.model, run.grads, eta)
            step += 1
        if not stack.runs:
            break

        leaving = np.zeros(len(stack.runs), dtype=bool)
        for j, run in enumerate(stack.runs):
            try:
                vacc = _valid_accuracy(run.model, ds)
                tacc = _train_accuracy(run.model, ds, train_idx)
            except ValueError as err:  # non-finite logits on a split
                diverge(run, epoch, step, err)
                leaving[j] = True
                continue
            run.valid_hist.append(vacc)
            run.train_hist.append(tacc)
            if epoch_callback is not None:
                epoch_callback(epoch, run.model)
            if np.isfinite(vacc) and vacc > run.best_acc:
                run.best_acc = vacc
                run.best_model = run.model.copy()
                run.best_epoch = epoch
                run.since_improve = 0
            else:
                run.since_improve += 1
            if ((config.stop_at_train_acc is not None
                 and tacc >= config.stop_at_train_acc)
                    or (config.patience is not None and np.isfinite(vacc)
                        and run.since_improve >= config.patience)):
                finish(run, stopped_early=True)
                leaving[j] = True
        if leaving.any():
            stack.keep(~leaving)
            if not stack.runs:
                break
    for run in stack.runs:
        finish(run, stopped_early=False)
    return out


def train_models(ds: ToyDataset, tables, config: TrainConfig) -> list:
    """Train one student per supervision table, all in one lockstep stack.

    Every student shares config, so its initialization and shuffle order,
    and each ends exactly as train_model(ds, table, config) would. Returns
    one TrainResult per table, in order; a student that diverged leaves
    its DivergenceError in its slot instead, and the others are
    unaffected.
    """
    return _run_sgd(ds, config, [as_rows(t) for t in tables])


def train_model(ds: ToyDataset, targets: TargetTable, config: TrainConfig,
                epoch_callback=None) -> TrainResult:
    """Train a student against a fixed supervision table."""
    [result] = _run_sgd(ds, config, [as_rows(targets)],
                        epoch_callback=epoch_callback)
    if isinstance(result, DivergenceError):
        raise result
    return result


def train_teacher_filterkd_multi(ds: ToyDataset, config: TrainConfig, alphas,
                                 epoch_callback=None):
    """One one-hot teacher run, one Filter-KD table per alpha.

    Returns (TrainResult, {alpha: TargetTable}); result.paths holds the
    teacher's path. Each table is the untrained model's predictions with
    the train rows set to their path's EMA from there. alpha = 1 keeps no
    history: each row is simply the last pre-update prediction seen.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas or any(not 0 < a <= 1 for a in alphas):
        raise ValueError(f"filter alphas must be in (0, 1], got {alphas}")
    [result] = _run_sgd(ds, replace(config, record_paths=True),
                        epoch_callback=epoch_callback)
    if isinstance(result, DivergenceError):
        raise result
    init_pred = predict_proba(result.init_model, ds.x)
    ti, tables = result.paths.indices, {}
    for a in alphas:
        rows = init_pred.copy()
        rows[ti] = ema_filter(result.paths.preds, a, init_pred[ti])[-1]
        tables[a] = TargetTable(rows, "filter_kd")
    return result, tables


def extract_eskd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the best-validation checkpoint."""
    return TargetTable(predict_proba(result.best_model, ds.x), "eskd")


def extract_kd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the end of training."""
    return TargetTable(predict_proba(result.final_model, ds.x), "kd_converged")
