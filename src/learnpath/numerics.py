"""Dense MLP numerics.

Plain-numpy ReLU networks with per-sample forward/backward passes, a
numerically-safe softmax, SGD updates, and a central finite-difference
gradient oracle used to cross-check backpropagation. Everything is
float64; none of the models here are large enough for that to hurt.

Weight layout per layer l: W[l] has shape (fan_out, fan_in), b[l] has
shape (fan_out,). Logits are the last pre-activation; no activation is
applied to the output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from learnpath.rngstreams import stream

# per-layer (dW, db) pairs, same shapes as the model parameters
Grads = list

__all__ = [
    "MlpModel", "ForwardCache", "init_mlp", "softmax", "mlp_forward",
    "mlp_backward", "logits_jacobian", "jacobian_factors", "sgd_step",
    "finite_diff_grad", "predict_proba",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a logit vector, or of each row of a stack (R, K).

    Subtracts the max before exponentiation, so any finite input is safe.
    Non-finite entries raise instead of silently propagating. A row gets
    the same numbers alone or in a stack.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"softmax got non-finite logits: {z!r}")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class MlpModel:
    """Fully-connected ReLU network.

    layer_sizes includes input and output widths, e.g. (30, 128, 128, 3).
    A length-2 layer_sizes degenerates to softmax regression, which keeps
    the small-step analysis exactly quadratic (no ReLU kinks).
    """

    layer_sizes: tuple
    weights: list
    biases: list

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive: {self.layer_sizes}")
        if len(self.weights) != self.num_layers or len(self.biases) != self.num_layers:
            raise ValueError("parameter count does not match layer_sizes")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_sizes[l + 1], self.layer_sizes[l])
            if w.shape != want or b.shape != (want[0],):
                raise ValueError(f"layer {l}: shapes {w.shape}/{b.shape}, want {want}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l}: non-finite parameters")

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
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_sizes,
                        [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])

    def flat(self) -> np.ndarray:
        """All parameters as one vector: per layer, W row-major then b."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def set_flat(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} params, got {v.shape}")
        at = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = v[at:at + w.size].reshape(w.shape)
            at += w.size
            b[...] = v[at:at + b.size]
            at += b.size


def init_mlp(layer_sizes, seed: int) -> MlpModel:
    """He fan-in init: W ~ N(0, 2/fan_in), b = 0. Deterministic in seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least (input, output) positive sizes, got {sizes}")
    rng = stream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, weights, biases)


@dataclass
class ForwardCache:
    """Intermediate state of one forward pass, consumed by mlp_backward.

    pre_activations[l] is z_l = W_l a_{l-1} + b_l; activations[l] is the
    post-ReLU a_l for hidden layers and z_L itself for the output layer.
    logits are the final pre-activation.
    """

    x: np.ndarray
    pre_activations: list
    activations: list

    @property
    def logits(self) -> np.ndarray:
        return self.pre_activations[-1]


def mlp_forward(model: MlpModel, x: np.ndarray) -> ForwardCache:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.num_inputs,):
        raise ValueError(f"input shape {x.shape}, model expects ({model.num_inputs},)")
    pre, act = [], []
    a = x
    last = model.num_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = w @ a + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        act.append(a)
    return ForwardCache(x=x, pre_activations=pre, activations=act)


def mlp_backward(model: MlpModel, cache: ForwardCache, grad_logits: np.ndarray) -> Grads:
    """Backpropagate a loss gradient w.r.t. logits to all parameters.

    Linear in grad_logits; ReLU uses derivative 0 at exactly 0.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != (model.num_classes,):
        raise ValueError(f"grad_logits shape {g.shape}, want ({model.num_classes},)")
    grads = [None] * model.num_layers
    delta = g
    for l in range(model.num_layers - 1, -1, -1):
        a_prev = cache.x if l == 0 else cache.activations[l - 1]
        grads[l] = (np.outer(delta, a_prev), delta.copy())
        if l > 0:
            delta = (model.weights[l].T @ delta) * (cache.pre_activations[l - 1] > 0.0)
    return grads


def logits_jacobian(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Jacobian of the logit vector w.r.t. all parameters, shape (K, d).

    Row k is the backward pass seeded with the unit vector e_k, flattened
    in the same order as MlpModel.flat(); it is assembled from the
    jacobian_factors of the one-row batch x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.num_inputs,):
        raise ValueError(f"input shape {x.shape}, model expects ({model.num_inputs},)")
    k = model.num_classes
    parts = []
    for inputs, deltas in jacobian_factors(model, x[None]):
        parts.append((deltas[0][:, :, None] * inputs[0]).reshape(k, -1))
        parts.append(deltas[0])
    return np.concatenate(parts, axis=1)


def jacobian_factors(model: MlpModel, xs: np.ndarray) -> list:
    """Per-layer factors of the logit Jacobians of a batch of inputs.

    Returns one (inputs, deltas) pair per layer l: inputs (n, fan_in_l)
    holds the layer inputs a_{l-1} and deltas (n, K, fan_out_l) the
    unit-seeded backward deltas, d z_L[k] / d z_l at input i, from one
    backward pass with all K seeds stacked. Logit k's Jacobian at input i
    is, for W_l, the outer product of deltas[i, k] and inputs[i], and for
    b_l, deltas[i, k]; no (K, d) block is ever formed.
    """
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.num_inputs:
        raise ValueError(f"batch shape {a.shape}, model expects (n, {model.num_inputs})")
    inputs, pre = [], []
    last = model.num_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0.0)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite logits in batch forward pass")
    n, k = a.shape
    delta = np.broadcast_to(np.eye(k), (n, k, k))
    deltas = [None] * model.num_layers
    for l in range(last, -1, -1):
        deltas[l] = delta
        if l > 0:
            back = delta.reshape(n * k, -1) @ model.weights[l]
            delta = back.reshape(n, k, -1) * (pre[l - 1] > 0.0)[:, None, :]
    return list(zip(inputs, deltas))


def sgd_step(model: MlpModel, grads: Grads, eta: float) -> MlpModel:
    """In-place descent step: each parameter decremented by eta * gradient.

    eta = 0 is allowed and leaves the model unchanged (useful as a frozen
    control in diagnostics).
    """
    if eta < 0:
        raise ValueError(f"learning rate must be >= 0, got {eta}")
    if len(grads) != model.num_layers:
        raise ValueError("gradient layer count does not match model")
    for (w, b), (dw, db) in zip(zip(model.weights, model.biases), grads):
        if dw.shape != w.shape or db.shape != b.shape:
            raise ValueError("gradient shapes do not match model")
        w -= eta * dw
        b -= eta * db
    return model


def finite_diff_grad(loss_fn, model: MlpModel, eps: float = 1e-6) -> Grads:
    """Central finite-difference gradient of loss_fn(model) per parameter.

    O(num_params) loss evaluations; intended for oracle checks on small
    models only. The model is restored exactly before returning.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    theta = model.flat()
    flat_grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        model.set_flat(theta)
        up = loss_fn(model)
        theta[i] = orig - eps
        model.set_flat(theta)
        down = loss_fn(model)
        theta[i] = orig
        flat_grad[i] = (up - down) / (2.0 * eps)
    model.set_flat(theta)
    grads = []
    at = 0
    for w, b in zip(model.weights, model.biases):
        dw = flat_grad[at:at + w.size].reshape(w.shape)
        at += w.size
        db = flat_grad[at:at + b.size]
        at += b.size
        grads.append((dw, db))
    return grads


def predict_proba(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Softmax probabilities for a batch of inputs, shape (n, K)."""
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.num_inputs:
        raise ValueError(f"batch shape {a.shape}, model expects (n, {model.num_inputs})")
    last = model.num_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T + b
        if l != last:
            np.maximum(a, 0.0, out=a)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite logits in batch forward pass")
    a -= a.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return a
