"""First-order decomposition of SGD prediction changes.

One SGD step on sample x_u under cross entropy against target p_tar
moves the prediction q(x_o) on any other sample x_o. To first order in
the learning rate eta the move factorizes as

    q^{t+1}(x_o) - q^t(x_o)
        ~= eta * A^t(x_o) * K^t(x_o, x_u) * (p_tar(x_u) - q^t(x_u)),

where A(x) = diag(q(x)) - q(x) q(x)^T is the softmax Jacobian at x_o
and K(x_o, x_u) = J(x_o) J(x_u)^T is the empirical tangent kernel of the
logit Jacobians J = d z / d w. The residual is O(eta^2), so halving eta
should shrink it roughly 4x. residual_scaling_test gives the median
residual across pairs per eta (the check divides the medians at eta and
eta / 2), from one batched pass over blocks of pairs: q, A, K and the
loss gradient once per pair, then one real SGD step per (pair, eta),
each a row of a stack of stepped models that reads its own x_o.
Every batched call gives a row the bits of that row alone.

K needs no Jacobian. Per layer l the Jacobian of logit k is the outer
product of the backward delta delta^{l,k} with the layer input a^{l-1}
(plus delta^{l,k} itself for the bias), so

    K[k, k'](x_o, x_u) = sum_l (a_o^{l-1} . a_u^{l-1} + 1)
                               * delta_o^{l,k} . delta_u^{l,k'},

which empirical_ntk evaluates from the per-layer factors of each pair
and similarity_trace_study, for the trace alone, from batched factors.

A(x) is symmetric PSD with A 1 = 0 and tr A = 1 - sum_i q_i^2, which
bounds the trace by 1 - 1/K and makes 1 - sum q_i^2 a handy per-sample
"indecision" scalar; trace_evolution tracks it across checkpoints.
"""

from __future__ import annotations

import numpy as np

from learnpath.numerics import (MlpModel, jacobian_factors, mlp_backward,
                                mlp_forward, softmax)
from learnpath.supervision import DivergenceError

__all__ = [
    "softmax_jacobian", "empirical_ntk", "predicted_delta_q",
    "residual_scaling_test",
    "similarity_trace_study", "trace_evolution",
]


# rows per batched forward/backward in similarity_trace_study
_BLOCK_ROWS = 256
# pairs per block in residual_scaling_test; bounds the stepped models' memory
_BLOCK_PAIRS = 8


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b, each one BLAS dot with the bits of the 1-D a @ b."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def softmax_jacobian(q: np.ndarray) -> np.ndarray:
    """A = diag(q) - q q^T for a simplex point q, or for each row of (..., K)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim < 1:
        raise ValueError(f"q must be a vector, got shape {q.shape}")
    if np.any(q < -1e-12) or np.any(np.abs(q.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("q must lie on the probability simplex")
    diag = np.where(np.eye(q.shape[-1], dtype=bool), q[..., None, :], 0.0)
    return diag - q[..., :, None] * q[..., None, :]


def empirical_ntk(model: MlpModel, x_o: np.ndarray, x_u: np.ndarray) -> np.ndarray:
    """K(x_o, x_u) = J(x_o) J(x_u)^T, shape (K, K), or (..., K, K) for rows.

    Symmetric PSD when x_o is x_u; otherwise just the cross-Gram of the
    two logit Jacobians. Summed over layers from the factors of one
    jacobian_factors call, each pair its own group (see the module docstring).
    """
    return sum((_dot_rows(a[..., 0, :], a[..., 1, :])[..., None, None] + 1.0)
               * np.matmul(d[..., 0, :, :], d[..., 1, :, :].swapaxes(-1, -2))
               for a, d in jacobian_factors(model, np.stack([x_o, x_u], axis=-2)))


def predicted_delta_q(eta, a_matrix: np.ndarray, kernel: np.ndarray,
                      p_tar_u: np.ndarray, q_u: np.ndarray) -> np.ndarray:
    """First-order prediction move: eta * A * K * (p_tar(x_u) - q(x_u)).

    Over any leading axes; eta may be an array broadcast against the move."""
    if np.any(np.asarray(eta) < 0):
        raise ValueError(f"eta must be >= 0, got {eta}")
    v = np.asarray(p_tar_u, dtype=np.float64) - np.asarray(q_u, dtype=np.float64)
    return eta * np.matmul(a_matrix, np.matmul(kernel, v[..., None]))[..., 0]


def _decompose_block(model: MlpModel, x_o, x_u, p_tar, etas, rows) -> None:
    """Fill rows, one block's (eta, pair) cells, as residual_scaling_test says;
    a function, so that a block's arrays are freed before the next block's."""
    nb, m, k = len(x_o), len(etas), p_tar.shape[1]
    acts = mlp_forward(model, np.concatenate([x_o, x_u]))
    q = softmax(acts[-1])
    q_o, q_u = q[:nb], q[nb:]
    kernel = empirical_ntk(model, x_o, x_u)
    grads = mlp_backward(model, [a[nb:] for a in acts], q_u - p_tar)
    stepped = MlpModel(model.layer_sizes, np.tile(model.params, (nb * m, 1)))
    for i, grad in enumerate(grads):  # row i * m + e: pair i stepped at etas[e]
        stepped.params[i * m:(i + 1) * m] -= etas[:, None] * grad
    logits = mlp_forward(stepped, np.repeat(x_o, m, axis=0))[-1]
    bad = ~np.isfinite(logits).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise DivergenceError(
            "non-finite logits after the decomposition step of pair "
            f"{rows['pair_id'][0, r // m]} at eta = {etas[r % m]:g}: {logits[r]!r}")
    rows["actual"] = (softmax(logits).reshape(-1, m, k) - q_o[:, None]).swapaxes(0, 1)
    a_matrix = softmax_jacobian(q_o)
    rows["predicted"] = predicted_delta_q(etas[:, None, None], a_matrix, kernel, p_tar, q_u)
    diff = rows["actual"] - rows["predicted"]
    rows["residual_norm"] = np.sqrt(_dot_rows(diff, diff))
    rows["trace_a"] = np.trace(a_matrix, axis1=1, axis2=2)
    rows["trace_kernel"] = np.trace(kernel, axis1=1, axis2=2)


def residual_scaling_test(model: MlpModel, x_o, x_u, p_tar, eta_grid):
    """Median decomposition residual at each step size.

    Pair i is the rows x_o[i], x_u[i] of two (n, in) arrays and p_tar[i]
    of an (n, K) one. Returns (out, medians): out is a structured array,
    eta-major (every pair at the first eta, then at the next), of fields
    pair_id, eta, residual_norm, predicted and actual (each (K,)),
    trace_a and trace_kernel; medians is [(eta, median residual norm)] in
    grid order, medians because residual norms span orders of magnitude
    across pairs (a ReLU kink is no rarity either: 18-33 of 50 default
    pairs cross one at eta = 0.01, master seeds 0-9). The pass forwards
    one block of _BLOCK_PAIRS pairs at a time and holds one block's rows
    beyond out. Each actual move is a real SGD step on a copy of the
    model, stepped in place from the finite model, so an overflowing step
    raises DivergenceError for its (pair, eta), the first in pair-major
    order.
    """
    eta_grid = [float(e) for e in eta_grid]
    x_o, x_u, p_tar = (np.asarray(a, dtype=np.float64) for a in (x_o, x_u, p_tar))
    if not len(p_tar) or not eta_grid:
        raise ValueError("need at least one pair and one eta")
    if not all(eta > 0 for eta in eta_grid):
        raise ValueError(f"step sizes must be positive, got {eta_grid}")
    if x_o.shape != x_u.shape or p_tar.ndim != 2 or len(p_tar) != len(x_o):
        raise ValueError(f"want row-aligned (n, in), (n, in) and (n, K) arrays, got "
                         f"{x_o.shape}, {x_u.shape} and {p_tar.shape}")
    (n, k), m, etas = p_tar.shape, len(eta_grid), np.array(eta_grid)
    out = np.empty((m, n), dtype=[
        ("pair_id", np.int64), ("eta", np.float64), ("residual_norm", np.float64),
        ("predicted", np.float64, (k,)), ("actual", np.float64, (k,)),
        ("trace_a", np.float64), ("trace_kernel", np.float64)])
    out["pair_id"], out["eta"] = np.arange(n), etas[:, None]
    for start in range(0, n, _BLOCK_PAIRS):
        b = slice(start, start + _BLOCK_PAIRS)
        _decompose_block(model, x_o[b], x_u[b], p_tar[b], etas, out[:, b])
    medians = [(eta, float(np.median(r))) for eta, r in zip(eta_grid, out["residual_norm"])]
    return out.reshape(-1), medians


def similarity_trace_study(model: MlpModel, x_o: np.ndarray, xs: np.ndarray):
    """Input-space cosine similarity vs kernel trace against one probe.

    For each row x_u of xs records (index, cos(x_o, x_u), tr K(x_o, x_u))
    with the model held fixed (typically at init). How strongly and with
    which sign the two columns rank-correlate is an empirical question;
    callers get the raw records. The traces come from the per-layer
    factors of the module docstring, over xs in blocks of _BLOCK_ROWS rows
    so that memory stays flat in len(xs). A zero vector has cosine 0.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"xs must be (n, dim), got {xs.shape}")
    x_o = np.asarray(x_o, dtype=np.float64)
    probe = [(a[0], d[0].ravel()) for a, d in jacobian_factors(model, x_o[None])]
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
    denom = float(np.linalg.norm(x_o)) * np.sqrt(_dot_rows(xs, xs))
    np.divide(_dot_rows(x_o, xs), denom, out=out["cosine"], where=denom > 0)
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
