"""Dense MLP numerics.

Plain-numpy ReLU networks with per-sample forward/backward passes, a
numerically-safe softmax, SGD updates, and a central finite-difference
gradient oracle used to cross-check backpropagation. Everything is
float64; none of the models here are large enough for that to hurt.

A model's parameters are one float64 vector `params`: per layer l, W[l]
of shape (fan_out, fan_in) row-major, then b[l] of shape (fan_out,).
`weights` and `biases` are views into it (param_views), and gradients
are flat vectors in the same order, so an SGD step is one array update.
Logits are the last pre-activation; no activation is applied to the
output layer.

A stack of R models of one shape is one MlpModel on (R, P) params.
mlp_forward and mlp_backward, the one per-sample kernel, take a model or
a stack, and one input or one per row ((n, in) rows, or (R, in) for a
stack), and give each row the bits of its model and input alone: the
row-wise mat-vecs reach the same BLAS gemv as `W @ a` and `W.T @ d`.
mlp_forward returns each layer's input, logits last, as a plain list,
from which mlp_backward reads its outer products and ReLU masks. softmax
is the package's one softmax and its one finiteness check of logits.
jacobian_factors gives the logit Jacobians of a batch, or of groups of
batches, only as per-layer factors, layer inputs and unit-seeded
backward deltas, from which ntkcheck reads the tangent kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from learnpath.rngstreams import stream

__all__ = [
    "MlpModel", "param_views", "init_mlp", "softmax", "mlp_forward",
    "mlp_backward", "jacobian_factors", "sgd_step",
    "finite_diff_grad", "predict_proba",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a logit vector, or of each row of a stack (R, K).

    Subtracts the max before exponentiation, so any finite input is safe.
    Non-finite entries raise instead of silently propagating. A row gets
    the same numbers alone or in a stack.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError(f"softmax got non-finite logits: {z!r}")
    # the ufunc reductions behind z.max and e.sum, without their wrappers
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def param_views(layer_sizes, params: np.ndarray):
    """Per-layer (weights, biases) views into a flat parameter array.

    params is (P,) for one model or (R, P) for a stack of R; weight l is
    then (..., fan_out, fan_in) and bias l (..., fan_out), writing through
    to params.
    """
    lead = params.shape[:-1]
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(params[..., at:at + fan_out * fan_in]
                       .reshape(*lead, fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(params[..., at:at + fan_out])
        at += fan_out
    return weights, biases


@dataclass
class MlpModel:
    """Fully-connected ReLU network.

    layer_sizes includes input and output widths, e.g. (30, 128, 128, 3).
    A length-2 layer_sizes degenerates to softmax regression, which keeps
    the small-step analysis exactly quadratic (no ReLU kinks). params is
    (P,), or (R, P) for a stack of R models, and is used as given, not
    copied, so a model can live in a row of a stack.
    """

    layer_sizes: tuple
    params: np.ndarray

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive: {self.layer_sizes}")
        p = self.params
        if (getattr(p, "dtype", None) != np.float64 or np.ndim(p) not in (1, 2)
                or np.shape(p)[-1] != self.num_params):
            raise ValueError(f"params must be float64 ({self.num_params},) or (R, "
                             f"{self.num_params}), got {np.asarray(p).dtype} {np.shape(p)}")
        if not np.isfinite(p).all():
            raise ValueError("non-finite parameters")
        self.weights, self.biases = param_views(self.layer_sizes, p)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def num_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_params(self) -> int:
        sizes = self.layer_sizes
        return sum(o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:]))

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_sizes, self.params.copy())


def init_mlp(layer_sizes, seed: int) -> MlpModel:
    """He fan-in init: W ~ N(0, 2/fan_in), b = 0. Deterministic in seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least (input, output) positive sizes, got {sizes}")
    rng = stream(seed, "init")
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        parts += [rng.normal(0.0, np.sqrt(2.0 / fan_in), size=fan_out * fan_in),
                  np.zeros(fan_out)]
    return MlpModel(sizes, np.concatenate(parts))


def mlp_forward(model: MlpModel, x: np.ndarray) -> list:
    """Forward pass of one input (num_inputs,), or of (n, num_inputs) rows.

    Returns [x, a_1, ..., a_{L-1}, z_L]: each layer's input, then the
    logits. A stack takes one input or one row per run; every entry after
    x has the row or run axis, and each row is one gemv, as if alone.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.layer_sizes[:1] and (  # one input costs one comparison
            x.ndim != 2 or x.shape[1] != model.num_inputs
            or model.params.ndim == 2 and len(x) != len(model.params)):
        raise ValueError(f"input shape {x.shape}, params {model.params.shape}: want "
                         f"({model.num_inputs},) or rows of it, one per run of a stack")
    acts = [x]
    last = model.num_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(w, acts[-1][..., None])[..., 0]
        z += b
        acts.append(z if l == last else np.maximum(z, 0.0, out=z))
    return acts


def mlp_backward(model: MlpModel, acts: list, grad_logits: np.ndarray,
                 out: MlpModel | None = None) -> np.ndarray:
    """Backpropagate a loss gradient w.r.t. logits to all parameters.

    acts is mlp_forward's list and grad_logits has its logits' shape. The
    gradient, a flat row per row of logits, is written into out, a model
    used as a buffer whose weights and biases views are the per-layer
    blocks (so a caller that keeps it builds them once), or into a new
    one; returns out.params. Linear in grad_logits; ReLU uses derivative
    0 at exactly 0. The mask is sign(a_l), a float 0/1 (a_l >= 0, and
    sign(-0.0) is +0.0), which multiplies with the bits of the bool
    a_l > 0, itself z_l > 0, on every input but NaN, and costs half.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ValueError(f"grad_logits shape {g.shape}, want {acts[-1].shape}")
    if out is None:
        out = MlpModel(model.layer_sizes, np.zeros((*g.shape[:-1], model.num_params)))
    dw, db = out.weights, out.biases
    db[-1][...] = g  # the bias gradient of layer l is its delta
    for l in range(model.num_layers - 1, -1, -1):
        delta = db[l]
        np.einsum("...i,...j->...ij", delta, acts[l], out=dw[l])
        if l > 0:
            back = np.matmul(delta[..., None, :], model.weights[l])[..., 0, :]
            np.multiply(back, np.sign(acts[l]), out=db[l - 1])
    return out.params


def jacobian_factors(model: MlpModel, xs: np.ndarray) -> list:
    """Per-layer factors of the logit Jacobians of a batch of inputs.

    Returns one (inputs, deltas) pair per layer l: inputs (n, fan_in_l)
    holds the layer inputs a_{l-1} and deltas (n, K, fan_out_l) the
    unit-seeded backward deltas, d z_L[k] / d z_l at input i, from one
    backward pass with all K seeds stacked. Logit k's Jacobian at input i
    is, for W_l, the outer product of deltas[i, k] and inputs[i], and for
    b_l, deltas[i, k]; no (K, d) block is ever formed. Each group of an
    (..., n, num_inputs) xs has the bits of a call on it alone.
    """
    a = np.asarray(xs, dtype=np.float64)
    if model.params.ndim != 1 or a.ndim < 2 or a.shape[-1] != model.num_inputs:
        raise ValueError(f"batch shape {a.shape}, one model expects (n, {model.num_inputs})")
    inputs = []
    last = model.num_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T + b
        a = z if l == last else np.maximum(z, 0.0, out=z)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite logits in batch forward pass")
    *groups, n, k = a.shape
    delta = np.broadcast_to(np.eye(k), (*groups, n, k, k))
    deltas = [None] * model.num_layers
    for l in range(last, -1, -1):
        deltas[l] = delta
        if l > 0:
            back = delta.reshape(*groups, n * k, -1) @ model.weights[l]
            delta = back.reshape(*groups, n, k, -1) * (inputs[l] > 0.0)[..., None, :]
    return list(zip(inputs, deltas))


def sgd_step(model: MlpModel, grad: np.ndarray, eta: float) -> MlpModel:
    """In-place descent step: params decremented by eta * grad.

    grad is flat, in the order of model.params. eta = 0 is allowed and
    leaves the model unchanged (useful as a frozen control in diagnostics).
    """
    if not 0 <= eta < np.inf:
        raise ValueError(f"learning rate must be finite and >= 0, got {eta}")
    if np.shape(grad) != model.params.shape:
        raise ValueError(f"gradient shape {np.shape(grad)}, want {model.params.shape}")
    model.params -= eta * grad
    return model


def finite_diff_grad(loss_fn, model: MlpModel, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of loss_fn(model), flat.

    O(num_params) loss evaluations, each with one entry of model.params
    moved in place; intended for oracle checks on small models only. The
    model is restored exactly before returning.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    theta = model.params
    grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        up = loss_fn(model)
        theta[i] = orig - eps
        down = loss_fn(model)
        theta[i] = orig
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def predict_proba(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Softmax probabilities for a batch of inputs, shape (n, K)."""
    a = np.asarray(xs, dtype=np.float64)
    if model.params.ndim != 1 or a.ndim != 2 or a.shape[1] != model.num_inputs:
        raise ValueError(f"batch shape {a.shape}, one model expects (n, {model.num_inputs})")
    last = model.num_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T + b
        if l != last:
            np.maximum(a, 0.0, out=a)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite logits in batch forward pass")
    return softmax(a)
