"""Plain multilayer perceptrons with explicit backpropagation and Adam.

Each network's parameters are one contiguous float64 vector, laid out layer
by layer (weights row-major as an (out, in) matrix, then biases), with
per-layer views into it; a forward pass computes z_i = h @ W_i.T + b_i.
Gradients and Adam's moments share that layout, so an update is one
vectorised operation over the whole network. Hidden layers use relu or
leaky_relu with optional inverted dropout in train mode; the output head
is sigmoid or identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import (
    NumericError,
    Prng,
    ShapeError,
    derivative_of_leaky_relu,
    derivative_of_relu,
    derivative_of_sigmoid,
    leaky_relu,
    relu,
    sigmoid,
)

HIDDEN_ACTIVATIONS = ("relu", "leaky_relu")
OUTPUT_ACTIVATIONS = ("sigmoid", "identity")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture tag: layer sizes plus activation choices."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"
    leaky_slope: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output size")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if not 0.0 <= self.leaky_slope < 1.0:
            raise ValueError(f"leaky slope must lie in [0, 1), got {self.leaky_slope}")

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes in parameter order: weight 0, bias 0, weight 1, ..."""
        sizes = self.layer_sizes
        return [
            shape
            for fan_in, fan_out in zip(sizes, sizes[1:])
            for shape in ((fan_out, fan_in), (fan_out,))
        ]

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes)


def _bind(obj, flat: np.ndarray, shapes) -> None:
    """Point obj.weights / obj.biases at per-layer views into flat."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at : at + size].reshape(shape))
        at += size
    if at != flat.shape[0]:
        raise ShapeError(f"parameter vector has {flat.shape[0]} values, layers need {at}")
    obj.flat = flat
    obj.weights, obj.biases = views[0::2], views[1::2]


def _pack(weights, biases) -> np.ndarray:
    parts = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
    return np.concatenate(parts).astype(np.float64, copy=False)


class Mlp:
    """Parameters bound to their spec. Weight i has shape (sizes[i+1], sizes[i]).

    All parameters live in one float64 vector, ``flat``: layer by layer,
    each layer's weights row-major, then its biases. ``weights[i]`` and
    ``biases[i]`` are views into it, so an in-place update of either side
    shows on the other. The constructor copies the given arrays in;
    ``from_flat`` wraps an existing vector.
    """

    def __init__(self, spec: MlpSpec, weights, biases):
        sizes = spec.layer_sizes
        if len(weights) != spec.n_layers or len(biases) != spec.n_layers:
            raise ShapeError("parameter count does not match spec layer count")
        for i, (w, b) in enumerate(zip(weights, biases)):
            expect = (sizes[i + 1], sizes[i])
            if np.shape(w) != expect:
                raise ShapeError(f"layer {i} weight shape {np.shape(w)}, spec wants {expect}")
            if np.shape(b) != (sizes[i + 1],):
                raise ShapeError(
                    f"layer {i} bias shape {np.shape(b)}, spec wants ({sizes[i + 1]},)"
                )
        self.spec = spec
        _bind(self, _pack(weights, biases), spec.param_shapes)

    @classmethod
    def from_flat(cls, spec: MlpSpec, flat: np.ndarray) -> Mlp:
        """Wrap a float64 parameter vector in spec's layout, without copying it."""
        mlp = cls.__new__(cls)
        mlp.spec = spec
        _bind(mlp, flat, spec.param_shapes)
        return mlp


class MlpGrads:
    """Gradients in the Mlp's layout: one flat vector with per-layer views."""

    def __init__(self, weights, biases):
        shapes = [np.shape(a) for pair in zip(weights, biases) for a in pair]
        _bind(self, _pack(weights, biases), shapes)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> MlpGrads:
        grads = cls.__new__(cls)
        _bind(grads, flat, shapes)
        return grads


@dataclass
class ForwardCache:
    """Intermediates kept by mlp_forward for the matching backward pass."""

    inputs: list[np.ndarray]       # input to each affine layer
    preacts: list[np.ndarray]      # z_i before activation
    masks: list[np.ndarray | None]  # dropout mask per hidden layer (scaled), or None
    output: np.ndarray             # final activated output


def init_mlp(spec: MlpSpec, rng: Prng) -> Mlp:
    """Glorot-uniform weights, zero biases: W_ij ~ U(-a, a), a = sqrt(6/(fan_in+fan_out))."""
    mlp = Mlp.from_flat(spec, np.zeros(spec.n_params))
    for w in mlp.weights:
        fan_out, fan_in = w.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform((fan_out, fan_in), -bound, bound)
    return mlp


def _hidden_act(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if spec.hidden_activation == "relu":
        return relu(z)
    return leaky_relu(z, spec.leaky_slope)


def _hidden_act_derivative(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if spec.hidden_activation == "relu":
        return derivative_of_relu(z)
    return derivative_of_leaky_relu(z, spec.leaky_slope)


def mlp_forward(
    mlp: Mlp,
    x,
    train_mode: bool = False,
    dropout_rate: float = 0.0,
    rng: Prng | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a (batch, in_dim) matrix.

    In train mode with dropout_rate > 0, hidden activations are masked with
    inverted dropout (kept units scaled by 1/(1-rate)), which needs an rng.
    Eval mode applies no masks, so train-mode expectations match eval output.
    """
    x = np.asarray(x, dtype=np.float64)
    spec = mlp.spec
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ShapeError(
            f"input shape {x.shape} does not match spec input size {spec.in_dim}"
        )
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {dropout_rate}")
    use_dropout = train_mode and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode dropout requires an rng")

    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    h = x
    last = spec.n_layers - 1
    for i in range(spec.n_layers):
        inputs.append(h)
        z = h @ mlp.weights[i].T + mlp.biases[i]
        preacts.append(z)
        if i < last:
            a = _hidden_act(spec, z)
            if use_dropout:
                keep = rng.uniform(a.shape) >= dropout_rate
                mask = keep / (1.0 - dropout_rate)
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
            h = a
        else:
            if spec.output_activation == "sigmoid":
                out = sigmoid(z)
            else:
                out = z
    cache = ForwardCache(inputs, preacts, masks, out)
    return out, cache


def mlp_backward(
    mlp: Mlp, cache: ForwardCache, grad_output: np.ndarray
) -> tuple[MlpGrads, np.ndarray]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns parameter gradients and the gradient with respect to the input.
    """
    spec = mlp.spec
    n = spec.n_layers
    if len(cache.inputs) != n or len(cache.preacts) != n:
        raise ValueError("stale cache: layer count does not match this network")
    for i in range(n):
        if cache.inputs[i].shape[1] != mlp.weights[i].shape[1] or (
            cache.preacts[i].shape[1] != mlp.weights[i].shape[0]
        ):
            raise ValueError(f"stale cache: layer {i} shapes do not match this network")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != cache.output.shape:
        raise ShapeError(
            f"grad_output shape {grad_output.shape} does not match output "
            f"shape {cache.output.shape}"
        )

    if spec.output_activation == "sigmoid":
        g = grad_output * derivative_of_sigmoid(cache.output)
    else:
        g = grad_output

    grads = MlpGrads.from_flat(np.empty_like(mlp.flat), spec.param_shapes)
    for i in reversed(range(n)):
        # g holds d(loss)/d(z_i) here
        grads.weights[i][...] = g.T @ cache.inputs[i]
        grads.biases[i][...] = g.sum(axis=0)
        g = g @ mlp.weights[i]
        if i > 0:
            mask = cache.masks[i - 1]
            if mask is not None:
                g = g * mask
            g = g * _hidden_act_derivative(spec, cache.preacts[i - 1])
    return grads, g


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment vectors (in Mlp.flat's layout), step count, hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(
    mlp: Mlp,
    alpha: float = 2e-4,
    beta1: float = 0.5,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in [0, 1)")
    return AdamState(
        m=np.zeros_like(mlp.flat),
        v=np.zeros_like(mlp.flat),
        alpha=alpha,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(mlp: Mlp, grads: MlpGrads, state: AdamState) -> None:
    """One bias-corrected Adam update over the whole parameter vector, in place.

    A non-finite gradient raises NumericError naming the first bad layer,
    before anything (the step count included) is changed.
    """
    g = grads.flat
    if g.shape != mlp.flat.shape:
        raise ShapeError("gradient size does not match the network")
    if not np.all(np.isfinite(g)):
        for i, (w, b) in enumerate(zip(grads.weights, grads.biases)):
            for kind, part in (("weight", w), ("bias", b)):
                if not np.all(np.isfinite(part)):
                    raise NumericError(f"layer {i} {kind} gradient is not finite")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * (g * g)
    m_hat = state.m / (1.0 - b1**state.t)
    v_hat = state.v / (1.0 - b2**state.t)
    mlp.flat -= state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)
