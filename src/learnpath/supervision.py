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

The filtered teacher is the one-hot table run at tau = 1, beta = 1, with
its learning path recorded: the pre-update prediction at every visit. Each
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
R = 1 case. A stack is one MlpModel with (R, P) parameters, a flat
vector per run; each visit does one numerics.mlp_forward, one softmax
(the visit's one finiteness check), one stacked loss gradient built from
that q and one mlp_backward on the forward's list of layer inputs, then
one sgd_step per run, a vector update of its row. The contract is
bitwise: every run ends with exactly the parameters, histories and
stopping epoch it would have had trained alone. Early stopping stays per
run, and a run that stops or diverges leaves the stack without touching
the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from learnpath.metrics import accuracy, as_rows
from learnpath.numerics import (MlpModel, init_mlp, mlp_backward, mlp_forward,
                                predict_proba, sgd_step, softmax)
from learnpath.pathtrace import PathStore, ema_filter
from learnpath.rngstreams import stream
from learnpath.toygauss import ToyDataset

__all__ = [
    "TargetTable", "TrainConfig", "TrainResult", "DivergenceError",
    "make_onehot_targets", "make_ls_targets", "make_gt_targets",
    "kd_loss_and_grad", "train_model", "train_models",
    "train_teacher_filterkd_multi", "extract_eskd_targets",
    "extract_kd_targets",
]


class DivergenceError(RuntimeError):
    """Training produced non-finite numbers."""


@dataclass
class TargetTable:
    """Per-sample supervision rows aligned with dataset indices."""

    rows: np.ndarray  # (n, K)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValueError(f"rows must be (n, K), got {self.rows.shape}")
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
    return TargetTable(rows)


def make_ls_targets(ds: ToyDataset, epsilon: float = 0.1) -> TargetTable:
    """Label smoothing: (1 - eps) e_y + eps / K."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    k = ds.num_classes
    rows = np.full((ds.n, k), epsilon / k)
    rows[np.arange(ds.n), ds.y] += 1.0 - epsilon
    return TargetTable(rows)


def make_gt_targets(ds: ToyDataset) -> TargetTable:
    """The true posterior as supervision; the cleanest targets available."""
    return TargetTable(ds.p_star.copy())


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def _power_renorm(p: np.ndarray, tau: float) -> np.ndarray:
    w = p ** tau
    return w / w.sum(axis=-1, keepdims=True)


def _kd_grad(z, q, pt, y: int, tau: float, beta: float):
    """Logit gradient of the distillation loss.

    z holds finite logits, q = softmax(z) and pt tempered targets, either
    one row (K,) or a stack of rows (R, K) against the same label y; each
    row's numbers are the same whether it is computed alone or in a
    stack. The tempered q_t is exp(log_softmax(tau z)), so a tau z that
    overflows gives a non-finite gradient instead of raising.
    """
    if beta > 0:
        grad = (beta / tau) * ((q if tau == 1.0 else np.exp(_log_softmax(tau * z))) - pt)
    else:
        grad = np.zeros(z.shape)
    if beta < 1:
        g = q.copy()
        g[..., y] -= 1.0
        grad += (1.0 - beta) * g
    return grad


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
    grad = _kd_grad(z, softmax(z), pt, y, tau, beta)
    loss = 0.0
    if beta > 0:
        loss += beta / (tau * tau) * float(-(pt * _log_softmax(tau * z)).sum())
    if beta < 1:
        loss += (1.0 - beta) * float(-_log_softmax(z)[y])
    # at tau = 1 every term is finite once z and p are; at tau != 1 the
    # tempered target p^tau can still be NaN (a negative entry)
    if tau != 1.0 and not np.isfinite(grad).all():
        raise ValueError(f"non-finite distillation gradient {grad!r}")
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run; the defaults are the CLI's.

    learning_rate 0 is allowed and freezes the model, which gives the
    cheapest possible control run for path diagnostics. patience 0
    disables early stopping; stop_at_train_acc halts once the train-split
    accuracy reaches the threshold (used to define "converged" teachers).
    """

    hidden_sizes: tuple = (32, 32, 32)
    learning_rate: float = 0.01
    max_epochs: int = 60
    patience: int = 10
    temperature: float = 1.0
    beta: float = 1.0
    seed: int = 0
    record_paths: bool = False
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
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


def _accuracy(model, ds, idx) -> float:
    """Accuracy on the rows idx of ds; NaN for an empty split."""
    if idx.size == 0:
        return float("nan")
    return accuracy(predict_proba(model, ds.x[idx]), ds.y[idx])


@dataclass
class _Run:
    """What one run of a stack keeps besides its slice of the parameters."""

    slot: int             # position in the caller's list of runs
    model: MlpModel       # its params are a row of the stack's parameters
    init_model: MlpModel
    best_model: MlpModel
    paths: PathStore | None
    best_acc: float = -np.inf
    best_epoch: int = 0
    valid_hist: list = field(default_factory=list)
    train_hist: list = field(default_factory=list)


def _aligned_rows(n_rows: int, width: int) -> np.ndarray:
    """Zeroed (n_rows, width) float64 rows that start on 64-byte boundaries,
    as does each weight block when the hidden widths are multiples of 8:
    an OpenBLAS gemv over an unaligned 128 x 128 block ran up to 28 % slower."""
    stride = -(-width // 8) * 8
    buf = np.zeros(n_rows * stride + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n_rows * stride].reshape(n_rows, stride)[:, :width]


class _Stack:
    """The active runs, as one stacked MlpModel.

    model and grad are stacks of R on (R, P) arrays, one flat vector per
    run; grad is mlp_backward's buffer. targets are (n, R, K), so one
    sample's rows for all runs form one block. Each run's model is an
    MlpModel on its row of model.params, so numerics.sgd_step with its
    row of grad.params updates the stack in place. Dropping runs copies
    the kept rows into a new stack.
    """

    def __init__(self, runs, model: MlpModel, targets):
        self.runs = runs
        self.targets = targets
        self._point(model.layer_sizes,
                    np.broadcast_to(model.params, (len(runs), model.num_params)))

    def _point(self, layer_sizes, rows):
        params = _aligned_rows(*rows.shape)
        params[...] = rows
        self.model = MlpModel(layer_sizes, params)
        self.grad = MlpModel(layer_sizes, _aligned_rows(*rows.shape))
        for run, row in zip(self.runs, params):
            run.model = MlpModel(layer_sizes, row)

    def keep(self, mask) -> None:
        idx = np.flatnonzero(mask)
        self.runs = [self.runs[j] for j in idx]
        self.targets = self.targets[:, idx]
        self._point(self.model.layer_sizes, self.model.params[idx])


def _run_sgd(ds: ToyDataset, config: TrainConfig, targets, epoch_callback=None):
    """The SGD loop: R runs that share one config, stepped in lockstep.

    Sharing the config means sharing the initialization and the shuffle
    order, so at every visit all runs see the same sample and only their
    target rows differ. Each visit does one mlp_forward of the stack, one
    stacked loss gradient and one mlp_backward into the stack's gradient
    buffer, then one numerics.sgd_step per run. Every run's arithmetic is
    bitwise that of the run trained alone: the kernel computes every row
    as its model alone (see numerics), and so does the loss gradient.

    targets is a list of R (n, K) row arrays; each run descends the
    tempered loss against its own rows. The visit's q = softmax(z) is
    computed once: the loss gradient is built from it, a run that records
    its path logs it, and its ValueError is the visit's finiteness check.

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
    rows = [np.asarray(t, dtype=np.float64) for t in targets]
    for t in rows:
        if t.shape != (ds.n, k):
            raise ValueError(f"targets shape {t.shape}, want {(ds.n, k)}")
        if not np.isfinite(t).all():
            raise ValueError("non-finite targets")
    if not rows:
        return []
    tables = np.stack(rows, axis=1)
    if tau != 1.0:  # the tempered targets; a NaN row fails at its visit
        tables = _power_renorm(tables, tau)

    runs = [_Run(slot=r, model=model.copy(), init_model=model.copy(),
                 best_model=model.copy(),
                 paths=PathStore(train_idx, k) if config.record_paths else None)
            for r in range(len(rows))]
    stack = _Stack(runs, model, tables)
    out = [None] * len(rows)

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

    def drop(bad, epoch, step, why, values):
        """Drop the runs flagged in bad as diverged at this visit."""
        for j in np.flatnonzero(bad):
            diverge(stack.runs[j], epoch, step, f"{why}{values[j]!r}")
        stack.keep(~bad)

    eta = config.learning_rate
    xs, ys = ds.x, ds.y
    step = 0
    for epoch in range(config.max_epochs):
        # train_idx ascends, so a sample's path column is its place in it
        columns = stream(config.seed, "shuffle", epoch).permutation(train_idx.size)
        for i, column in zip(train_idx[columns].tolist(), columns.tolist()):
            x, label = xs[i], int(ys[i])
            # a visit at which runs diverge is redone without them; rows
            # are independent, so the others' numbers do not change
            while stack.runs:
                acts = mlp_forward(stack.model, x)
                logits = acts[-1]
                try:
                    q = softmax(logits)
                except ValueError:
                    bad = ~np.isfinite(logits).all(axis=1)
                    if not bad.any():
                        raise
                    drop(bad, epoch, step, "softmax got non-finite logits: ", logits)
                    continue
                delta = _kd_grad(logits, q, stack.targets[i], label, tau, beta)
                # at tau != 1 a tempered target row can be NaN
                if tau != 1.0 and not np.isfinite(delta).all():
                    drop(~np.isfinite(delta).all(axis=1), epoch, step,
                         "non-finite distillation gradient ", delta)
                    continue
                break
            if not stack.runs:
                break
            if config.record_paths:
                for run, q_r in zip(stack.runs, q):
                    run.paths.log(epoch, column, step, q_r)
            mlp_backward(stack.model, acts, delta, out=stack.grad)
            for run, grad in zip(stack.runs, stack.grad.params):
                sgd_step(run.model, grad, eta)
            step += 1
        if not stack.runs:
            break

        leaving = np.zeros(len(stack.runs), dtype=bool)
        for j, run in enumerate(stack.runs):
            try:
                vacc = _accuracy(run.model, ds, ds.valid_indices)
                tacc = _accuracy(run.model, ds, train_idx)
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
            if ((config.stop_at_train_acc is not None
                 and tacc >= config.stop_at_train_acc)
                    or (config.patience > 0 and np.isfinite(vacc)
                        and epoch - run.best_epoch >= config.patience)):
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


def train_teacher_filterkd_multi(ds: ToyDataset, config: TrainConfig, alphas):
    """One one-hot teacher run, one Filter-KD table per alpha.

    The teacher is the one-hot table run at temperature 1 and beta 1
    (plain cross entropy, whatever config says), with its path recorded.
    Returns (TrainResult, {alpha: TargetTable}); result.paths holds the
    teacher's path. Each table is the untrained model's predictions with
    the train rows set to their path's EMA from there. alpha = 1 keeps no
    history: each row is simply the last pre-update prediction seen.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas or any(not 0 < a <= 1 for a in alphas):
        raise ValueError(f"filter alphas must be in (0, 1], got {alphas}")
    result = train_model(ds, make_onehot_targets(ds), replace(
        config, temperature=1.0, beta=1.0, record_paths=True))
    init_pred = predict_proba(result.init_model, ds.x)
    ti, tables = result.paths.indices, {}
    for a in alphas:
        rows = init_pred.copy()
        rows[ti] = ema_filter(result.paths.preds, a, init_pred[ti])[-1]
        tables[a] = TargetTable(rows)
    return result, tables


def extract_eskd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the best-validation checkpoint."""
    return TargetTable(predict_proba(result.best_model, ds.x))


def extract_kd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the end of training."""
    return TargetTable(predict_proba(result.final_model, ds.x))
