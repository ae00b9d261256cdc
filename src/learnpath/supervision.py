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

The filtered teacher is the one-hot table run at tau = 1, beta = 1. Each
table row is the EMA (pathtrace.ema_filter) of that row's learning path,
its pre-update prediction at every visit, started from the untrained
model's prediction. Averaging across visits smooths out the oscillation
that noisy-labeled neighbours induce, so the table can be better
supervision than any single checkpoint. As in the paper, a teacher keeps
only its running tables, one per rate alpha, folding in every epoch: its
path sink is a FilterTables.

Training is strictly per-sample SGD (batch size 1) in a seeded shuffle
order, with early stopping on validation accuracy. There is one SGD
loop, train_stack, and it steps a stack of R runs in lockstep. The runs
of a stack share one TrainConfig but its seed, and may differ in three
things: their seed (so their initialization and shuffle order), their
labels (each reads its own labelled copy of one dataset, such as a
flipped one) and their target tables; a run may also bring a path sink.
train_model is the R = 1 case, and train_filterkd_teachers stacks one
teacher per (dataset, seed) cell. A stack is one MlpModel with (R, P)
parameters, a flat vector per run; each visit gathers one input row,
target row and label per run and does one numerics.mlp_forward, one
softmax (the visit's one finiteness check), one stacked loss gradient
built from that q and one mlp_backward on the forward's list of layer
inputs, then one sgd_step per run, a vector update of its row. The
contract is bitwise: every run ends with exactly the parameters,
histories and stopping epoch it would have had trained alone. Early
stopping stays per run, and a run that stops or diverges leaves the
stack without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from learnpath.metrics import accuracy, as_rows
from learnpath.numerics import (MlpModel, init_mlp, mlp_backward, mlp_forward,
                                predict_proba, sgd_step, softmax)
from learnpath.pathtrace import ema_filter
from learnpath.rngstreams import stream
from learnpath.toygauss import ToyDataset

__all__ = [
    "TargetTable", "TrainConfig", "TrainResult", "DivergenceError",
    "make_onehot_targets", "make_ls_targets", "make_gt_targets",
    "kd_loss_and_grad", "train_stack", "train_model",
    "FilterTables", "train_filterkd_teachers", "train_teacher_filterkd_multi",
    "extract_eskd_targets", "extract_kd_targets", "predict_or_diverge",
]


class DivergenceError(RuntimeError):
    """Training produced non-finite numbers, or a trained model predicts
    non-finite logits on rows it has to predict (predict_or_diverge)."""


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


def _kd_grad(z, q, pt, y, tau: float, beta: float):
    """Logit gradient of the distillation loss.

    z holds finite logits, q = softmax(z) and pt tempered targets, either
    one row (K,) with its label y or a stack of rows (R, K) with one label
    per row (y is read only when beta < 1); each row's numbers are the
    same whether it is computed alone or in a stack. The tempered q_t is
    exp(log_softmax(tau z)), so a tau z that overflows gives a non-finite
    gradient instead of raising.
    """
    if beta > 0:
        grad = (beta / tau) * ((q if tau == 1.0 else np.exp(_log_softmax(tau * z))) - pt)
    else:
        grad = np.zeros(z.shape)
    if beta < 1:
        grad += (1.0 - beta) * (q - np.eye(z.shape[-1])[y])
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


def _accuracy(model, xs, labels) -> float:
    """Accuracy on the rows xs with their labels; NaN for an empty split."""
    if labels.size == 0:
        return float("nan")
    return accuracy(predict_proba(model, xs), labels)


@dataclass
class _Run:
    """What one run of a stack keeps besides its slice of the parameters."""

    slot: int             # position in the caller's list of runs
    seed: int
    init_model: MlpModel  # read-only, shared by the runs of its seed
    best_model: MlpModel
    paths: object         # its path sink, or None
    valid_y: np.ndarray   # its labels on the valid split
    train_y: np.ndarray   # its labels on the train split, in split order
    model: MlpModel | None = None  # on its row of the stack's parameters
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
    run; grad is mlp_backward's buffer. Each run's model is an MlpModel on
    its row of model.params, so numerics.sgd_step with its row of
    grad.params updates the stack in place. targets (R * n_train, K) and
    labels (R * n_train,) hold each run's train rows as one block, in
    split order. columns (n_train, R) is the epoch's visit order, the
    train column each run visits at each step, and flat the same visits
    as rows of targets and labels; seen (R, n_train, K), only when a run
    has a path sink, its q at each step. Dropping runs moves the kept
    runs' rows up within the buffers the stack started with.
    """

    def __init__(self, runs, targets, labels):
        self.runs, self.n_train = runs, labels.shape[1]
        like = runs[0].init_model
        params = _aligned_rows(len(runs), like.num_params)
        for row, run in zip(params, runs):
            row[...] = run.init_model.params
        # params, grad, targets, labels, seen: row r of each is run r's. keep
        # moves them all, so no dropped run's non-finite gradient stays put
        self._rows = (params, _aligned_rows(*params.shape), targets, labels)
        if any(run.paths is not None for run in runs):
            self._rows += (np.empty((len(runs), self.n_train, targets.shape[-1])),)
        self._point(like.layer_sizes)

    def _point(self, layer_sizes) -> None:
        r = len(self.runs)
        params, grad, targets, labels, *seen = (a[:r] for a in self._rows)
        self.seen = seen[0] if seen else None
        self.model = MlpModel(layer_sizes, params)
        self.grad = MlpModel(layer_sizes, grad)
        self.targets = targets.reshape(-1, targets.shape[-1])
        self.labels = labels.reshape(-1)
        for run, row in zip(self.runs, params):
            run.model = MlpModel(layer_sizes, row)

    def _index(self, columns) -> None:
        self.columns = columns
        self.flat = columns + self.n_train * np.arange(len(self.runs))

    def shuffle(self, epoch: int) -> None:
        """Set epoch's visit order: each run's seed draws the permutation
        of the train columns it draws alone."""
        orders = {}
        for run in self.runs:
            if run.seed not in orders:
                orders[run.seed] = stream(run.seed, "shuffle", epoch).permutation(
                    self.n_train)
        self._index(np.stack([orders[run.seed] for run in self.runs], axis=1))

    def keep(self, mask) -> None:
        idx = np.flatnonzero(mask)
        self.runs = [self.runs[j] for j in idx]
        # idx ascends, so each row moves up before anything overwrites it
        for i, j in enumerate(idx):
            if i != j:
                for a in self._rows:
                    a[i] = a[j]
        self._index(self.columns[:, idx])
        self._point(self.model.layer_sizes)


def train_stack(runs, config: TrainConfig, epoch_callback=None) -> list:
    """The SGD loop: R runs, one (ds, targets, seed[, paths]) each, in lockstep.

    The runs share every field of config but seed: each brings its own,
    which draws its initialization and its per-epoch shuffle order. Each
    ds is a labelled copy of one dataset: its x, p_star and splits are the
    first run's, checked here, and its labels y may differ (a flipped
    copy). targets, a TargetTable or (n, K) rows, is what the run descends
    the tempered loss against. runs may be any iterable; it is read once,
    and each table is free to go once its train rows are copied.

    A visit is the one described above, on one x row, target row and
    label per run. Every run's arithmetic is bitwise that of the run
    trained alone: the kernel computes every row as its model and input
    alone (see numerics), and so does the loss gradient. The visit's
    softmax raises on non-finite logits; its q builds the loss gradient
    and is the visit's point of the run's path. A run's paths, if not
    None, is its path sink (a PathStore, say): once per epoch it completes,
    before evaluating it, log(epoch, columns, steps, q) gets the epoch's
    visits in order, q (n_train, K) a view the next epoch overwrites.

    Early stopping, checkpoints and histories are per run. A run that
    stops, or diverges, leaves the stack; the others go on unchanged.
    Returns one TrainResult or DivergenceError per run, in the order
    given; the runs of a seed share one read-only init_model.

    epoch_callback(epoch, model) fires for every run after each epoch's
    bookkeeping, before any stop decision.
    """
    members, targets, labels, inits = [], [], [], {}
    for slot, (d, table, seed, *paths) in enumerate(runs):
        if not members:
            ds, k = d, d.num_classes
            train_idx, valid_idx = ds.train_indices, ds.valid_indices
            if train_idx.size == 0:
                raise ValueError("dataset has an empty train split")
            sizes = config.layer_sizes(ds.spec.input_dim, k)
        elif not all(np.array_equal(getattr(d, f), getattr(ds, f))
                     for f in ("x", "p_star", "split")):
            raise ValueError("the runs of a stack need copies of one dataset "
                             "that differ only in their labels")
        rows = as_rows(table)
        if rows.shape != (ds.n, k):
            raise ValueError(f"targets shape {rows.shape}, want {(ds.n, k)}")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite targets")
        targets.append(rows[train_idx])
        labels.append(d.y[train_idx])
        if seed not in inits:
            inits[seed] = init_mlp(sizes, seed)
            inits[seed].params.setflags(write=False)
        members.append(_Run(
            slot=slot, seed=seed, init_model=inits[seed], best_model=inits[seed],
            paths=paths[0] if paths else None,
            valid_y=d.y[valid_idx], train_y=labels[-1]))
    if not members:
        return []
    tau, beta = config.temperature, config.beta
    tables = np.stack(targets)
    if tau != 1.0:  # the tempered targets; a NaN row fails at its visit
        tables = _power_renorm(tables, tau)
    stack = _Stack(members, tables, np.stack(labels))
    del members, targets, labels, table, rows, paths  # the stack holds the rest
    out = [None] * len(stack.runs)

    # a run that leaves lets go of its row, which the stack then reuses
    def finish(run, stopped_early):
        out[run.slot] = TrainResult(
            final_model=run.model.copy(), best_model=run.best_model,
            best_epoch=run.best_epoch, epochs_run=len(run.valid_hist),
            valid_acc_history=run.valid_hist, train_acc_history=run.train_hist,
            init_model=run.init_model, stopped_early=stopped_early)
        run.model = None

    def diverge(run, epoch, step, reason):
        out[run.slot] = DivergenceError(
            f"non-finite state at epoch {epoch}, step {step}: {reason}")
        run.model = None

    def drop(bad, epoch, step, why, values):
        """Drop the runs flagged in bad as diverged at this visit."""
        for j in np.flatnonzero(bad):
            diverge(stack.runs[j], epoch, step, f"{why}{values[j]!r}")
        stack.keep(~bad)

    eta = config.learning_rate
    x_train, x_valid = ds.x[train_idx], ds.x[valid_idx]
    step, n_train = 0, train_idx.size
    for epoch in range(config.max_epochs):
        stack.shuffle(epoch)
        for t in range(n_train):
            # a visit at which runs diverge is redone without them; rows
            # are independent, so the others' numbers do not change
            while stack.runs:
                columns, flat = stack.columns[t], stack.flat[t]
                acts = mlp_forward(stack.model, x_train.take(columns, axis=0))
                logits = acts[-1]
                try:
                    q = softmax(logits)
                except ValueError:
                    bad = ~np.isfinite(logits).all(axis=1)
                    if not bad.any():
                        raise
                    drop(bad, epoch, step, "softmax got non-finite logits: ", logits)
                    continue
                delta = _kd_grad(logits, q, stack.targets.take(flat, axis=0),
                                 stack.labels.take(flat) if beta < 1 else None,
                                 tau, beta)
                # at tau != 1 a tempered target row can be NaN
                if tau != 1.0 and not np.isfinite(delta).all():
                    drop(~np.isfinite(delta).all(axis=1), epoch, step,
                         "non-finite distillation gradient ", delta)
                    continue
                break
            if not stack.runs:
                break
            if stack.seen is not None:
                stack.seen[:, t] = q
            mlp_backward(stack.model, acts, delta, out=stack.grad)
            for run, grad in zip(stack.runs, stack.grad.params):
                sgd_step(run.model, grad, eta)
            step += 1
        if not stack.runs:
            break

        leaving = np.zeros(len(stack.runs), dtype=bool)
        for j, run in enumerate(stack.runs):
            if run.paths is not None:
                run.paths.log(epoch, stack.columns[:, j],
                              epoch * n_train + np.arange(n_train), stack.seen[j])
            try:
                vacc = _accuracy(run.model, x_valid, run.valid_y)
                tacc = _accuracy(run.model, x_train, run.train_y)
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


def train_model(ds: ToyDataset, targets: TargetTable, config: TrainConfig,
                epoch_callback=None, paths=None) -> TrainResult:
    """Train a student against a fixed supervision table (paths: see train_stack)."""
    [result] = train_stack([(ds, targets, config.seed, paths)], config,
                           epoch_callback=epoch_callback)
    if isinstance(result, DivergenceError):
        raise result
    return result


class FilterTables:
    """A teacher's path sink: its Filter-KD tables, one per alpha. rows[alpha]
    (n, K) starts as the predictions of seed's untrained model under config
    and folds in each epoch logged, so no path is kept. alpha = 1 keeps no
    history: each row is simply the last pre-update prediction seen."""

    def __init__(self, ds: ToyDataset, config: TrainConfig, seed: int, alphas):
        alphas = tuple(float(a) for a in alphas)
        if not alphas or any(not 0 < a <= 1 for a in alphas):
            raise ValueError(f"filter alphas must be in (0, 1], got {alphas}")
        init_model = init_mlp(config.layer_sizes(ds.spec.input_dim, ds.num_classes), seed)
        self.train_idx, init_pred = ds.train_indices, predict_proba(init_model, ds.x)
        self.rows = {a: init_pred.copy() for a in alphas}

    def log(self, epoch, columns, steps, q) -> None:
        at = self.train_idx[columns]
        for a, rows in self.rows.items():
            rows[at] = ema_filter(q[None], a, rows[at])[1]


def train_filterkd_teachers(cells, config: TrainConfig, alphas) -> list:
    """One one-hot teacher per (ds, seed) cell, all in one stack, and its
    Filter-KD tables, one per alpha.

    Each teacher is its cell's one-hot table run at temperature 1 and
    beta 1 (plain cross entropy, whatever config says); the cells'
    datasets differ only in their labels, as in train_stack. Returns, per
    cell in order, (TrainResult, {alpha: TargetTable}), or the teacher's
    DivergenceError; each cell's tables are its FilterTables sink's.
    """
    sinks = [FilterTables(ds, config, seed, alphas) for ds, seed in cells]
    results = train_stack(
        [(ds, make_onehot_targets(ds), seed, sink)
         for (ds, seed), sink in zip(cells, sinks)],
        replace(config, temperature=1.0, beta=1.0))
    return [result if isinstance(result, DivergenceError) else
            (result, {a: TargetTable(rows) for a, rows in sink.rows.items()})
            for result, sink in zip(results, sinks)]


def train_teacher_filterkd_multi(ds: ToyDataset, config: TrainConfig, alphas):
    """The one teacher of ds at config.seed, as train_filterkd_teachers
    trains it: returns (TrainResult, {alpha: TargetTable}), and raises its
    DivergenceError."""
    [teacher] = train_filterkd_teachers([(ds, config.seed)], config, alphas)
    if isinstance(teacher, DivergenceError):
        raise teacher
    return teacher


def predict_or_diverge(model: MlpModel, xs, what: str) -> np.ndarray:
    """predict_proba of a trained model on rows it may never have visited,
    such as the test split. Its logits can overflow there while every
    visited row's stayed finite; that model has diverged, so this raises
    DivergenceError("<what>: ...") where predict_proba raises ValueError."""
    try:
        return predict_proba(model, xs)
    except ValueError as err:
        raise DivergenceError(f"{what}: {err}") from err


def extract_eskd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the best-validation checkpoint; raises
    DivergenceError if some row's are non-finite."""
    return TargetTable(predict_or_diverge(result.best_model, ds.x, "predicting every row"))


def extract_kd_targets(result: TrainResult, ds: ToyDataset) -> TargetTable:
    """Teacher predictions at the end of training; raises DivergenceError
    if some row's are non-finite."""
    return TargetTable(predict_or_diverge(result.final_model, ds.x, "predicting every row"))
