"""Plain multilayer perceptrons with explicit backpropagation and Adam.

Each network's parameters are one contiguous float64 vector, laid out layer
by layer (weights row-major as an (out, in) matrix, then biases), with
per-layer views into it; a forward pass computes z_i = h @ W_i.T + b_i.
Gradients and Adam's moments share that layout, so an update is one
vectorised operation over the whole network; a gradient is itself an Mlp.
Hidden layers use relu or leaky_relu, with inverted dropout when a dropout
rate > 0 is given; the output head is sigmoid or identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numeric import NumericError, Prng, ShapeError, derivative_of_sigmoid, sigmoid

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


class Mlp:
    """Parameters bound to their spec. Weight i has shape (sizes[i+1], sizes[i]).

    ``Mlp(spec, flat)`` wraps a float64 vector of spec.n_params values,
    without copying it: layer by layer, each layer's weights row-major,
    then its biases. ``weights[i]`` and ``biases[i]`` are views into it, so
    an in-place update of either side shows on the other. Gradients (from
    mlp_backward, or built by hand for adam_step) are Mlps in the same layout.
    """

    def __init__(self, spec: MlpSpec, flat: np.ndarray):
        if flat.shape != (spec.n_params,):
            raise ShapeError(f"parameter vector shape {flat.shape}, layers need ({spec.n_params},)")
        parts = np.split(flat, np.cumsum([math.prod(s) for s in spec.param_shapes])[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, spec.param_shapes)]
        self.spec, self.flat = spec, flat
        self.weights, self.biases = views[0::2], views[1::2]


@dataclass
class ForwardCache:
    """What mlp_forward keeps for the matching backward pass, in workspaces it reuses.

    work[i] holds layer i's output, activation derivative and dropout mask,
    in len(x) of its rows. mlp_backward writes over the outputs, and into grads.
    """

    x: np.ndarray | None = None  # the input
    output: np.ndarray | None = None  # final activated output
    dropout: bool = False
    work: list[list[np.ndarray]] = field(default_factory=list)  # [z, derivative, mask] per layer
    grads: Mlp | None = None


def init_mlp(spec: MlpSpec, rng: Prng) -> Mlp:
    """Glorot-uniform weights, zero biases: W_ij ~ U(-a, a), a = sqrt(6/(fan_in+fan_out))."""
    mlp = Mlp(spec, np.zeros(spec.n_params))
    for w in mlp.weights:
        fan_out, fan_in = w.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform((fan_out, fan_in), -bound, bound)
    return mlp


def _activation_derivative(spec: MlpSpec, z: np.ndarray, out=None) -> np.ndarray:
    """Subgradient of _activate: 1 where z >= 0 (the kink included), else the slope."""
    d = np.greater_equal(z, 0.0, out=out)
    return d if spec.hidden_activation == "relu" else np.maximum(d, spec.leaky_slope, out=out)


def _activate(spec: MlpSpec, z: np.ndarray, derivative: np.ndarray | None = None) -> np.ndarray:
    """The hidden activation, written into z: relu, or leaky_relu = z * its derivative."""
    if spec.hidden_activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if derivative is None:
        derivative = _activation_derivative(spec, z)
    return np.multiply(z, derivative, out=z)


def _forward(mlp: Mlp, h: np.ndarray, bufs, work=None, dropout_rate=0.0, rng=None):
    """The layer loop of training and inference, on a (rows, in_dim) matrix.

    Layer i writes into bufs[i], a C-contiguous float64 buffer of >= rows
    rows apart from layer i's input; the result may be a view into the last
    one. Given a cache's work, each hidden layer's derivative and dropout
    mask go into it. A fan-in-1 layer is the broadcast product h * w.T,
    about twice as fast as the gemm and equal to it bit for bit: the gemm
    sums from +0.0, so it differs from the bare product only where a -0.0
    product meets a -0.0 bias, and b + 0.0 makes that bias +0.0.
    """
    spec, rows, last = mlp.spec, h.shape[0], len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = bufs[i][:rows]
        if w.shape[1] == 1:
            np.multiply(h, w[:, 0], out=z)
            z += b + 0.0
        else:
            np.matmul(h, w.T, out=z)
            z += b
        if i == last:
            return sigmoid(z) if spec.output_activation == "sigmoid" else z
        derivative = None if work is None else _activation_derivative(spec, z, work[i][1][:rows])
        h = _activate(spec, z, derivative)
        if dropout_rate > 0.0:
            mask = np.greater_equal(rng.uniform(h.shape), dropout_rate, out=work[i][2][:rows])
            mask /= 1.0 - dropout_rate
            h *= mask


def mlp_forward(
    mlp: Mlp,
    x,
    dropout_rate: float = 0.0,
    rng: Prng | None = None,
    cache: ForwardCache | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a (batch, in_dim) matrix, keeping the cache for mlp_backward.

    With dropout_rate > 0, hidden activations are masked with inverted
    dropout (kept units scaled by 1/(1-rate)), which needs an rng; masked
    outputs match the rate-0 output in expectation. At rate 0 no mask is
    drawn, so a given rng is left untouched. A cache from an earlier call
    on this network is refilled, reusing its workspaces.
    """
    x = np.asarray(x, dtype=np.float64)
    spec = mlp.spec
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ShapeError(
            f"input shape {x.shape} does not match spec input size {spec.in_dim}"
        )
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {dropout_rate}")
    if dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout requires an rng")
    cache = ForwardCache() if cache is None else cache
    widths = spec.layer_sizes[1:]
    if [a[0].shape[1] for a in cache.work] != list(widths) or len(cache.work[0][0]) < len(x):
        # relu's derivative is its z >= 0 mask, which multiplies as 1.0 and 0.0
        kinds = (float, bool if spec.hidden_activation == "relu" else float, float)
        cache.work = [[np.empty((len(x), w), kind) for kind in kinds] for w in widths]
    cache.x, cache.dropout = x, dropout_rate > 0.0
    cache.output = _forward(mlp, x, [a[0] for a in cache.work], cache.work, dropout_rate, rng)
    return cache.output, cache


def mlp_backward(
    mlp: Mlp, cache: ForwardCache, grad_output: np.ndarray, *, input_grad: bool = True
) -> tuple[Mlp, np.ndarray | None]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns the parameter gradients, as an Mlp in this network's layout kept
    in the cache, and the gradient with respect to the input. A caller that
    has no use for the input gradient (the training steps' encoder and
    phase-2 discriminator passes) passes input_grad=False, which skips its
    product and returns None in its place.
    """
    spec, rows = mlp.spec, len(cache.x)
    if [cache.x.shape[1], *(a[0].shape[1] for a in cache.work)] != list(spec.layer_sizes):
        raise ValueError("stale cache: its shapes do not match this network")
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

    if cache.grads is None or cache.grads.spec is not spec:
        cache.grads = Mlp(spec, np.empty_like(mlp.flat))
    grads = cache.grads
    for i in reversed(range(spec.n_layers)):
        # g = d(loss)/d(z_i); d(loss)/d(z_i-1) goes over the spent input h of layer i
        h, derivative, mask = [a[:rows] for a in cache.work[i - 1]] if i else (cache.x, None, None)
        np.matmul(g.T, h, out=grads.weights[i])
        g.sum(axis=0, out=grads.biases[i])
        if i == 0:
            return grads, (g @ mlp.weights[0] if input_grad else None)
        g = np.matmul(g, mlp.weights[i], out=h)
        if cache.dropout:
            g *= mask
        g *= derivative


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moments (in Mlp.flat's layout), step count, hyperparameters, update workspace."""

    m: np.ndarray
    v: np.ndarray
    work: np.ndarray  # the update's two temporaries
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
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    return AdamState(
        m=np.zeros_like(mlp.flat),
        v=np.zeros_like(mlp.flat),
        work=np.empty((2, mlp.flat.size)),
        alpha=alpha,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(mlp: Mlp, grads: Mlp, state: AdamState) -> None:
    """One bias-corrected Adam update over the whole parameter vector, in place.

    Moments and temporaries are written in place, by the textbook formulas'
    operations in their order. A non-finite gradient raises NumericError
    naming the first bad layer, before anything (the step count included)
    is changed.
    """
    g = grads.flat
    if g.shape != mlp.flat.shape:
        raise ShapeError("gradient size does not match the network")
    if not np.isfinite(g).all():
        for i, (w, b) in enumerate(zip(grads.weights, grads.biases)):
            for kind, part in (("weight", w), ("bias", b)):
                if not np.all(np.isfinite(part)):
                    raise NumericError(f"layer {i} {kind} gradient is not finite")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v, (step, root) = state.m, state.v, state.work
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    v += np.multiply(np.multiply(g, g, out=root), 1.0 - b2, out=root)
    np.divide(m, 1.0 - b1**state.t, out=step)  # m_hat
    step *= state.alpha
    np.sqrt(np.divide(v, 1.0 - b2**state.t, out=root), out=root)  # sqrt(v_hat)
    root += state.eps
    mlp.flat -= np.divide(step, root, out=step)
