"""First-order decomposition of SGD prediction changes.

One SGD step on sample x_u under cross entropy against target p_tar
moves the prediction q(x_o) on any other sample x_o. To first order in
the learning rate eta the move factorizes as

    q^{t+1}(x_o) - q^t(x_o)
        ~= eta * A^t(x_o) * K^t(x_o, x_u) * (p_tar(x_u) - q^t(x_u)),

where A(x) = diag(q(x)) - q(x) q(x)^T is the softmax Jacobian at x_o
and K(x_o, x_u) = J(x_o) J(x_u)^T is the empirical tangent kernel of the
logit Jacobians J = d z / d w. The residual is O(eta^2), so halving eta
should shrink it roughly 4x; residual_scaling_test measures exactly that
ratio. Only the step size varies along the eta grid, so decompose_pair
computes q, A, K and the loss gradient once per pair, then takes one
real SGD step per eta on a stack of copies of the model and reads every
stepped q(x_o) from one forward pass.

K needs no Jacobian. Per layer l the Jacobian of logit k is the outer
product of the backward delta delta^{l,k} with the layer input a^{l-1}
(plus delta^{l,k} itself for the bias), so

    K[k, k'](x_o, x_u) = sum_l (a_o^{l-1} . a_u^{l-1} + 1)
                               * delta_o^{l,k} . delta_u^{l,k'},

which empirical_ntk evaluates from the per-layer factors of the pair
and similarity_trace_study, for the trace alone, from batched factors.

A(x) is symmetric PSD with A 1 = 0 and tr A = 1 - sum_i q_i^2, which
bounds the trace by 1 - 1/K and makes 1 - sum q_i^2 a handy per-sample
"indecision" scalar; trace_evolution tracks it across checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from learnpath.numerics import (MlpModel, jacobian_factors, mlp_backward,
                                mlp_forward, softmax)
from learnpath.supervision import DivergenceError

__all__ = [
    "DecompositionRecord", "softmax_jacobian", "empirical_ntk",
    "predicted_delta_q", "residual_scaling_test",
    "similarity_trace_study", "trace_evolution",
]


# rows per batched forward/backward in similarity_trace_study
_BLOCK_ROWS = 256


def softmax_jacobian(q: np.ndarray) -> np.ndarray:
    """A = diag(q) - q q^T for a simplex point q."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"q must be a vector, got shape {q.shape}")
    if np.any(q < -1e-12) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("q must lie on the probability simplex")
    return np.diag(q) - np.outer(q, q)


def empirical_ntk(model: MlpModel, x_o: np.ndarray, x_u: np.ndarray) -> np.ndarray:
    """K(x_o, x_u) = J(x_o) J(x_u)^T, shape (K, K).

    Symmetric PSD when x_o is x_u; otherwise just the cross-Gram of the
    two logit Jacobians. Summed over layers from the factors of one
    jacobian_factors call on the pair (see the module docstring).
    """
    return sum((a[0] @ a[1] + 1.0) * (d[0] @ d[1].T)
               for a, d in jacobian_factors(model, np.stack([x_o, x_u])))


def predicted_delta_q(eta: float, a_matrix: np.ndarray, kernel: np.ndarray,
                      p_tar_u: np.ndarray, q_u: np.ndarray) -> np.ndarray:
    """First-order prediction move: eta * A * K * (p_tar(x_u) - q(x_u))."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return eta * (a_matrix @ (kernel @ (np.asarray(p_tar_u, dtype=np.float64)
                                        - np.asarray(q_u, dtype=np.float64))))


@dataclass(frozen=True)
class DecompositionRecord:
    """One (pair, eta) comparison of predicted vs actual prediction move."""

    pair_id: int
    eta: float
    predicted: np.ndarray
    actual: np.ndarray
    residual_norm: float
    trace_a: float
    trace_kernel: float


def decompose_pair(model: MlpModel, x_o, x_u, p_tar_u, eta_grid,
                   pair_id: int = 0) -> list:
    """Evaluate both sides of the decomposition for one pair, every eta.

    Everything but the step itself is independent of eta, so q, A, K and
    the loss gradient at x_u are computed once. The actual move at each
    eta still comes from a real SGD step: row e of a stack of copies of
    the model takes the step at eta_grid[e], and one forward pass of the
    stack gives q(x_o) after every step. The stack is built from the
    finite model and stepped in place, so a step that overflows shows as
    non-finite logits. Returns one record per eta, in grid order.
    """
    p_tar_u = np.asarray(p_tar_u, dtype=np.float64)
    acts_u = mlp_forward(model, x_u)
    q_u = softmax(acts_u[-1])
    q_o = softmax(mlp_forward(model, x_o)[-1])
    a_matrix = softmax_jacobian(q_o)
    kernel = empirical_ntk(model, x_o, x_u)
    grad = mlp_backward(model, acts_u, q_u - p_tar_u)
    trace_a, trace_kernel = float(np.trace(a_matrix)), float(np.trace(kernel))
    etas = np.array(eta_grid, dtype=np.float64)
    stepped = MlpModel(model.layer_sizes, np.tile(model.params, (etas.size, 1)))
    stepped.params -= etas[:, None] * grad
    stepped_logits = mlp_forward(stepped, x_o)[-1]
    records = []
    for eta, logits in zip(eta_grid, stepped_logits):
        pred = predicted_delta_q(eta, a_matrix, kernel, p_tar_u, q_u)
        if not np.isfinite(logits).all():
            raise DivergenceError("non-finite logits after the decomposition step "
                                  f"of pair {pair_id} at eta = {eta:g}: {logits!r}")
        act = softmax(logits) - q_o
        records.append(DecompositionRecord(
            pair_id=pair_id, eta=float(eta), predicted=pred, actual=act,
            residual_norm=float(np.linalg.norm(act - pred)),
            trace_a=trace_a, trace_kernel=trace_kernel))
    return records


def residual_scaling_test(model: MlpModel, pairs, eta_grid):
    """Median decomposition residual at each step size.

    pairs is a sequence of (x_o, x_u, p_tar_u); eta_grid is evaluated as
    given. Returns (records, medians): records are eta-major (every pair
    at the first eta, then every pair at the next) and medians is a list
    of (eta, median residual norm) in grid order. Medians rather than
    means keep the occasional near-kink pair from dominating.
    """
    eta_grid = [float(e) for e in eta_grid]
    if not pairs or not eta_grid:
        raise ValueError("need at least one pair and one eta")
    for eta in eta_grid:
        if not eta > 0:
            raise ValueError(f"step sizes must be positive, got {eta}")
    per_pair = [decompose_pair(model, x_o, x_u, p_tar_u, eta_grid, pair_id=pid)
                for pid, (x_o, x_u, p_tar_u) in enumerate(pairs)]
    records, medians = [], []
    for e, eta in enumerate(eta_grid):
        column = [recs[e] for recs in per_pair]
        records.extend(column)
        medians.append((eta, float(np.median([r.residual_norm for r in column]))))
    return records, medians


def similarity_trace_study(model: MlpModel, x_o: np.ndarray, xs: np.ndarray):
    """Input-space cosine similarity vs kernel trace against one probe.

    For each row x_u of xs records (index, cos(x_o, x_u), tr K(x_o, x_u))
    with the model held fixed (typically at init). How strongly and with
    which sign the two columns rank-correlate is an empirical question;
    callers get the raw records. The traces come from the per-layer
    factors of the module docstring, over xs in blocks of _BLOCK_ROWS rows
    so that memory stays flat in len(xs).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"xs must be (n, dim), got {xs.shape}")
    x_o = np.asarray(x_o, dtype=np.float64)
    probe = [(a[0], d[0].ravel()) for a, d in jacobian_factors(model, x_o[None])]
    norm_o = float(np.linalg.norm(x_o))
    out = np.zeros(xs.shape[0], dtype=[("index", np.int64),
                                       ("cosine", np.float64),
                                       ("trace", np.float64)])
    for start in range(0, xs.shape[0], _BLOCK_ROWS):
        rows = xs[start:start + _BLOCK_ROWS]
        trace = np.zeros(rows.shape[0])
        for (a_o, d_o), (a_u, d_u) in zip(probe, jacobian_factors(model, rows)):
            trace += (a_u @ a_o + 1.0) * (d_u.reshape(rows.shape[0], -1) @ d_o)
        out["trace"][start:start + rows.shape[0]] = trace
    out["index"] = np.arange(xs.shape[0])
    for i, x_u in enumerate(xs):
        denom = norm_o * float(np.linalg.norm(x_u))
        out["cosine"][i] = float(x_o @ x_u) / denom if denom > 0 else 0.0
    return out


def trace_evolution(models, x: np.ndarray) -> np.ndarray:
    """1 - sum_i q_i(x)^2 for each checkpoint in models.

    0 at a one-hot prediction, 1 - 1/K at the uniform one; the sequence
    tracks how much softmax slack the sample keeps during training. The
    checkpoints are stacked into one model and read in one forward pass.
    """
    stack = MlpModel(models[0].layer_sizes, np.stack([m.params for m in models]))
    q = softmax(mlp_forward(stack, x)[-1])
    return 1.0 - (q * q).sum(axis=1)
