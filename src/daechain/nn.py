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

from .numeric import NumericError, Prng, ShapeError, sigmoid

# Each tuple's order is its checkpoint tag (io_formats): append, never reorder.
HIDDEN_ACTIVATIONS = ("relu", "leaky_relu")
OUTPUT_ACTIVATIONS = ("identity", "sigmoid")


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
    in len(x) of its rows, for the network of spec. mlp_backward writes over
    the outputs, and into grads.
    """

    spec: MlpSpec | None = None  # the network the workspaces were built for
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


def _stacked(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A fan-in-1 layer's two-term gemm operand [w[:, 0]; b + 0.0] (see _forward)."""
    operand = np.empty((2, b.size))
    operand[0] = w[:, 0]
    np.add(b, 0.0, out=operand[1])
    return operand


def _bias_operands(mlp: Mlp, rows: int) -> list[np.ndarray]:
    """Each layer's bias operand for _forward on blocks of at most rows rows.

    A layer of fan-in > 1 gets a tile: b repeated over the fewest rows that
    fill one ufunc buffer (np.getbufsize() elements), at most rows. numpy
    runs a (rows, w) + (w,) add through its buffers, copying both operands;
    an add whose inner loop is at least one buffer long runs unbuffered, at
    the speed of a same-shape add (~22 against ~42 us on a 1024 x 64 block).
    One buffer, not one block, keeps a 64-wide layer's tile at 64 kB.
    A fan-in-1 layer gets its two-term gemm operand, _stacked(w, b).
    """
    return [
        np.tile(b, (min(rows, -(-np.getbufsize() // b.size)), 1))
        if w.shape[1] > 1 else _stacked(w, b)
        for w, b in zip(mlp.weights, mlp.biases)
    ]


def _add_tile(z: np.ndarray, tile: np.ndarray) -> None:
    """z += b, for a C-contiguous z and a tile of b's rows: the whole tiles
    through one (k, tile.size) view, the remaining rows as a same-shape slice."""
    flat, t = z.reshape(-1), tile.reshape(-1)
    whole = flat.size - flat.size % t.size
    head = flat[:whole].reshape(-1, t.size)
    np.add(head, t, out=head)
    flat[whole:] += t[: flat.size - whole]


def _forward(mlp: Mlp, h: np.ndarray, bufs, work=None, dropout_rate=0.0, rng=None, biases=None):
    """The layer loop of training and inference, on a (rows, in_dim) matrix.

    Layer i writes into bufs[i], a C-contiguous float64 buffer of >= rows
    rows apart from layer i's input; the result may be a view into the last
    one. Given a cache's work, each hidden layer's derivative and dropout
    mask go into it. Given biases (_bias_operands for >= rows rows), each
    layer adds its bias from them, with the same bytes.

    Every layer gives the bytes of the gemm h @ w.T then + b. A fan-in-1
    layer of more than one row and output is the two-term gemm
    [h | 1] @ [w[:, 0]; b + 0.0], its bias inside: on a 1024 x 64 block
    about four times as fast as a broadcast product and a bias pass (numpy's
    loops are slow over a short inner axis). Its bias term is exact and OpenBLAS's gemm adds it
    after rounding the product, so each element is the rounded product
    plus the bias. The gemm h @ w.T sums from +0.0, so a -0.0 product plus
    a -0.0 bias gives +0.0 there; b + 0.0 makes that bias +0.0 here,
    whether or not the kernel sums from +0.0. One row or one output makes
    numpy take a vector kernel, which may round h * w + b once, so those
    layers keep the broadcast product h * w.T and add b + 0.0.
    """
    spec, rows, last = mlp.spec, h.shape[0], len(mlp.weights) - 1
    keep_scale = 1.0 / (1.0 - dropout_rate)  # a kept unit's inverted-dropout factor
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = bufs[i][:rows]
        if w.shape[1] > 1:
            np.matmul(h, w.T, out=z)
            if biases is None:
                z += b
            else:
                _add_tile(z, biases[i])
        elif rows > 1 and w.shape[0] > 1:
            h1 = np.empty((rows, 2))
            h1[:, :1] = h
            h1[:, 1] = 1.0
            np.matmul(h1, _stacked(w, b) if biases is None else biases[i], out=z)
        else:
            np.multiply(h, w[:, 0], out=z)
            z += b + 0.0
        if i == last:
            return sigmoid(z) if spec.output_activation == "sigmoid" else z
        # the hidden activation, in z: relu, or leaky_relu = z * its derivative, the
        # subgradient 1 where z >= 0 (the kink included), else the slope; a
        # cache's work keeps the derivative (relu's as its z >= 0 mask)
        derivative = None if work is None else work[i][1][:rows]
        if spec.hidden_activation == "relu":
            if derivative is not None:
                np.greater_equal(z, 0.0, out=derivative)
            h = np.maximum(z, 0.0, out=z)
        else:
            d = np.greater_equal(z, 0.0, out=derivative)
            h = np.multiply(z, np.maximum(d, spec.leaky_slope, out=derivative), out=z)
        if dropout_rate > 0.0:
            keep = np.greater_equal(rng.uniform(h.shape), dropout_rate)
            h *= np.multiply(keep, keep_scale, out=work[i][2][:rows])


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
    is refilled: its workspaces are reused when they were built for this
    spec (the same MlpSpec object) and at least as many rows, and rebuilt
    otherwise.
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
    if cache.spec is not spec or len(cache.work[0][0]) < len(x):
        # relu's derivative is its z >= 0 mask, which multiplies as 1.0 and 0.0
        kinds = (float, bool if spec.hidden_activation == "relu" else float, float)
        cache.work = [[np.empty((len(x), w), kind) for kind in kinds] for w in spec.layer_sizes[1:]]
        cache.spec = spec
    cache.x, cache.dropout = x, dropout_rate > 0.0
    cache.output = _forward(mlp, x, [a[0] for a in cache.work], cache.work, dropout_rate, rng)
    return cache.output, cache


def mlp_backward(
    mlp: Mlp, cache: ForwardCache, grad_output: np.ndarray, *,
    input_grad: bool = True, param_grads: bool = True,
) -> tuple[Mlp | None, np.ndarray | None]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns the parameter gradients, as an Mlp in this network's layout kept
    in the cache, and the gradient with respect to the input. A caller that
    has no use for the input gradient (the training steps' encoder and
    phase-2 discriminator passes) passes input_grad=False, which skips its
    product and returns None in its place; one that has no use for the
    parameter gradients (the DAAE's phase-3 discriminator pass) passes
    param_grads=False, which skips the weight and bias products and returns
    None in their place. The gradients that are returned keep their bits.

    The intermediates go into the cache's workspaces: a sigmoid head's
    y * (1 - y) into the last layer's, each g @ W over the spent output of
    the layer below. A one-column g meets a wider W as np.dot plus 0.0,
    through BLAS (np.matmul's own loop takes twice the time); both give the
    bits of g * W + 0.0, the 0.0 clearing the -0.0 that np.dot keeps where
    a product underflows. A one-column W keeps np.matmul: np.dot scales by
    0 there without multiplying, so inf * 0 gives 0, not NaN.
    """
    spec, rows = mlp.spec, len(cache.x)
    if cache.spec is not spec and cache.spec != spec:
        raise ValueError("stale cache: it was filled for another network spec")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != cache.output.shape:
        raise ShapeError(
            f"grad_output shape {grad_output.shape} does not match output "
            f"shape {cache.output.shape}"
        )

    if spec.output_activation == "sigmoid":  # grad_output * (y * (1 - y)), in place
        y = cache.output
        g = np.subtract(1.0, y, out=cache.work[-1][0][:rows])
        g *= y
        g *= grad_output
    else:
        g = grad_output

    if param_grads and (cache.grads is None or cache.grads.spec is not spec):
        cache.grads = Mlp(spec, np.empty_like(mlp.flat))
    grads = cache.grads if param_grads else None
    for i in reversed(range(spec.n_layers)):
        # g = d(loss)/d(z_i); d(loss)/d(z_i-1) goes over the spent input h of layer i
        h, derivative, mask = [a[:rows] for a in cache.work[i - 1]] if i else (cache.x, None, None)
        if param_grads:
            np.matmul(g.T, h, out=grads.weights[i])
            np.add.reduce(g, axis=0, out=grads.biases[i])  # g.sum's bits, without its wrapper
        if i == 0:
            return grads, (g @ mlp.weights[0] if input_grad else None)
        w = mlp.weights[i]
        if g.shape[1] == 1 and w.shape[1] > 1:
            g = np.dot(g, w, out=h)
            g += 0.0
        else:
            g = np.matmul(g, w, out=h)
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


def _check_adam_settings(alpha: float, beta1: float, beta2: float) -> None:
    """Raise ValueError unless alpha is finite and >= 0 and both betas lie in [0, 1)."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in [0, 1)")


def init_adam(
    mlp: Mlp,
    alpha: float = AdamState.alpha,
    beta1: float = AdamState.beta1,
    beta2: float = AdamState.beta2,
) -> AdamState:
    _check_adam_settings(alpha, beta1, beta2)
    return AdamState(
        m=np.zeros_like(mlp.flat),
        v=np.zeros_like(mlp.flat),
        work=np.empty((2, mlp.flat.size)),
        alpha=alpha,
        beta1=beta1,
        beta2=beta2,
    )


def adam_step(mlp: Mlp, grads: Mlp, state: AdamState) -> None:
    """One bias-corrected Adam update over the whole parameter vector, in place.

    Moments and temporaries are written in place, by the textbook formulas'
    operations in their order. A non-finite gradient raises NumericError
    naming the first bad layer, before anything (the step count included)
    is changed. The update's g * g, written first, screens for that: its
    largest element is finite only when all of g is, and only a failed
    screen runs the exact per-layer check, which a finite g whose square
    overflows passes, to update as before. (With overflow set to raise,
    that square raises first, even beside a NaN.)
    """
    g = grads.flat
    if g.shape != mlp.flat.shape:
        raise ShapeError("gradient size does not match the network")
    m, v, (step, root) = state.m, state.v, state.work
    np.multiply(g, g, out=root)
    if not math.isfinite(np.maximum.reduce(root)):  # NaN propagates through the max
        for i, (w, b) in enumerate(zip(grads.weights, grads.biases)):
            for kind, part in (("weight", w), ("bias", b)):
                if not np.all(np.isfinite(part)):
                    raise NumericError(f"layer {i} {kind} gradient is not finite")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    v += np.multiply(root, 1.0 - b2, out=root)
    np.divide(m, 1.0 - b1**state.t, out=step)  # m_hat
    step *= state.alpha
    np.sqrt(np.divide(v, 1.0 - b2**state.t, out=root), out=root)  # sqrt(v_hat)
    root += state.eps
    mlp.flat -= np.divide(step, root, out=step)
