import math
import tracemalloc

import numpy as np
import pytest

from daechain.numeric import NumericError, Prng, ShapeError, sigmoid
from daechain.nn import (
    HIDDEN_ACTIVATIONS,
    OUTPUT_ACTIVATIONS,
    AdamState,
    Mlp,
    MlpSpec,
    _forward,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from _oracles import finite_diff_param_grads, relative_error


def mlp_from_layers(spec, weights, biases):
    parts = [np.ravel(a) for pair in zip(weights, biases) for a in pair]  # parameter order
    return Mlp(spec, np.concatenate(parts, dtype=np.float64))


def small_net(seed=0, sizes=(3, 8, 8, 2), out="identity", hidden="relu"):
    spec = MlpSpec(sizes, hidden_activation=hidden, output_activation=out)
    return init_mlp(spec, Prng(seed))


# ---------------------------------------------------------------------------
# spec / init
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 0, 2))
    with pytest.raises(ValueError):
        MlpSpec((4, 2), hidden_activation="tanh")
    with pytest.raises(ValueError):
        MlpSpec((4, 2), output_activation="softmax")
    for bad_slope in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            MlpSpec((4, 2), leaky_slope=bad_slope)


def test_init_shapes_and_glorot_bound():
    spec = MlpSpec((4, 8), output_activation="identity")
    mlp = init_mlp(spec, Prng(11))
    assert mlp.weights[0].shape == (8, 4)
    assert mlp.biases[0].shape == (8,)
    bound = math.sqrt(6.0 / (4 + 8))
    assert np.all(np.abs(mlp.weights[0]) < bound)
    assert np.array_equal(mlp.biases[0], np.zeros(8))


def test_init_is_seed_deterministic():
    spec = MlpSpec((5, 16, 3))
    a = init_mlp(spec, Prng(3))
    b = init_mlp(spec, Prng(3))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_mlp_rejects_inconsistent_params():
    spec = MlpSpec((3, 2))  # 6 weights and 2 biases
    for bad in (np.zeros(7), np.zeros(9), np.zeros((1, 8))):
        with pytest.raises(ShapeError, match=r"layers need \(8,\)"):
            Mlp(spec, bad)


def test_parameters_are_views_into_one_flat_vector():
    w0, b0 = np.arange(6.0).reshape(2, 3), np.array([10.0, 11.0])
    w1, b1 = np.array([[20.0, 21.0]]), np.array([30.0])
    mlp = mlp_from_layers(MlpSpec((3, 2, 1)), [w0, w1], [b0, b1])
    # layer by layer, weights row-major then biases: the checkpoint order
    expected = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 11.0, 20.0, 21.0, 30.0]
    assert mlp.flat.dtype == np.float64 and mlp.flat.tolist() == expected
    flat = mlp.flat.copy()
    wrapped = Mlp(mlp.spec, flat)  # wraps the vector, does not copy it
    assert wrapped.flat is flat
    flat[0] = -1.0
    assert wrapped.weights[0][0, 0] == -1.0
    mlp.flat[7] = 99.0
    assert mlp.biases[0][1] == 99.0
    mlp.weights[1][0, 1] = -5.0
    assert mlp.flat[9] == -5.0
    assert mlp.spec.n_params == mlp.flat.size


def test_backward_writes_one_gradient_vector_in_parameter_order():
    mlp = small_net(seed=3)
    y, cache = mlp_forward(mlp, Prng(4).uniform((5, 3)))
    grads, _ = mlp_backward(mlp, cache, np.ones_like(y))
    assert grads.flat.shape == mlp.flat.shape
    parts = [a.ravel() for pair in zip(grads.weights, grads.biases) for a in pair]
    assert np.array_equal(np.concatenate(parts), grads.flat)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_identity_head_linear_net_is_affine():
    spec = MlpSpec((2, 3), output_activation="identity")
    weights = [np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])]
    mlp = mlp_from_layers(spec, weights, [np.array([0.0, 1.0, -1.0])])
    out, _ = mlp_forward(mlp, np.array([[2.0, 5.0]]))
    np.testing.assert_allclose(out, [[2.0, 6.0, 6.0]])


def test_forward_sigmoid_head_range():
    mlp = small_net(out="sigmoid")
    out, _ = mlp_forward(mlp, Prng(1).normal((16, 3), 2.0))
    assert np.all((out > 0.0) & (out < 1.0))


def test_forward_shape_error_names_both_shapes():
    mlp = small_net()
    with pytest.raises(ShapeError) as err:
        mlp_forward(mlp, np.ones((4, 5)))
    assert "(4, 5)" in str(err.value) and "3" in str(err.value)


def test_forward_dropout_requires_rng():
    mlp = small_net()
    with pytest.raises(ValueError):
        mlp_forward(mlp, np.ones((2, 3)), dropout_rate=0.5)


@pytest.mark.parametrize("hidden,slope", [("relu", 0.0), ("leaky_relu", 0.1)])
def test_hidden_activation_values_kink_and_rate_zero(hidden, slope):
    # a 1-1-1 net with unit weights and an identity head outputs the hidden
    # activation of its input
    spec = MlpSpec((1, 1, 1), hidden, "identity", leaky_slope=0.1)
    mlp = mlp_from_layers(spec, [np.ones((1, 1))] * 2, [np.zeros(1)] * 2)
    x = np.array([[-2.0], [-0.5], [0.0], [0.5], [2.0]])
    y, cache = mlp_forward(mlp, x)
    np.testing.assert_array_equal(y, [[-2.0 * slope], [-0.5 * slope], [0.0], [0.5], [2.0]])
    blocked = _forward(mlp, x, [np.empty((5, 1)), np.empty((5, 1))])
    assert blocked.tobytes() == y.tobytes()
    # z = 0 exactly at the middle row takes the positive branch (1)
    _, grad_in = mlp_backward(mlp, cache, np.ones_like(y))
    np.testing.assert_array_equal(grad_in, [[slope], [slope], [1.0], [1.0], [1.0]])
    # rate 0 draws no mask, even given an rng
    rng = Prng(2)
    masked, _ = mlp_forward(mlp, x, dropout_rate=0.0, rng=rng)
    assert masked.tobytes() == y.tobytes()
    assert np.array_equal(rng.uniform(4), Prng(2).uniform(4))


# signed zeros, subnormals, and values whose products overflow
RANK1_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1.0, -0.75, 3.5, 1e300, -1e300)


def gemm_forward(mlp, x):
    """Every layer as h @ w.T + b into a new array: (output, each layer's input)."""
    spec, h, inputs = mlp.spec, x, []
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        z = h @ w.T + b
        if i == spec.n_layers - 1:
            return (sigmoid(z) if spec.output_activation == "sigmoid" else z), inputs
        h = np.maximum(z, 0.0) if spec.hidden_activation == "relu" else (
            np.where(z >= 0, z, spec.leaky_slope * z)
        )


# 1 row is one-row inference; 601 is the first row count at which OpenBLAS
# takes its large gemm kernel
@pytest.mark.parametrize("rows", [1, 7, 100, 601, 1200])
@pytest.mark.parametrize("sizes", [(1, 5), (1, 1, 4), (1, 6, 3)])
@pytest.mark.parametrize("hidden", HIDDEN_ACTIVATIONS)
@pytest.mark.parametrize("out", OUTPUT_ACTIVATIONS)
def test_fan_in_one_layers_match_the_gemm_bit_for_bit(out, hidden, sizes, rows):
    # the layer loop takes a fan-in-1 layer as the two-term product
    # [h | 1] @ [w.T; b + 0.0], or on one row or one output as the broadcast
    # product, with a cache (training) and without (inference, in workspaces)
    gen = np.random.default_rng(rows)
    spec = MlpSpec(sizes, hidden, out, leaky_slope=0.1)
    weights, biases = [], []
    for fan_out, fan_in in spec.param_shapes[0::2]:
        w = gen.choice([0.0, -0.0, 2.0, -1.5, 1e10, -3e-10, 1e-300], (fan_out, fan_in))
        # both signed zeros, except in a 1 -> 1 layer, which passes a scaled input
        w.flat[:2] = (0.0, -0.0) if w.size > 1 else (-1.5,)
        b = gen.choice([0.0, -0.0, 0.5, -1.0], fan_out)
        b[0] = -0.0
        weights.append(w)
        biases.append(b)
    mlp = mlp_from_layers(spec, weights, biases)
    x = gen.choice(RANK1_VALUES, (rows, 1))
    x[: len(RANK1_VALUES), 0] = RANK1_VALUES[:rows]
    bufs = [np.empty((rows, w)) for w in sizes[1:]]
    with np.errstate(over="ignore", invalid="ignore"):
        want, want_inputs = gemm_forward(mlp, x)
        cached, cache = mlp_forward(mlp, x)
        assert cached.tobytes() == want.tobytes()
        assert [a[0].tobytes() for a in cache.work[:-1]] == [a.tobytes() for a in want_inputs[1:]]
        assert _forward(mlp, x, bufs).tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 7, 100, 601, 1200])
@pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 4), (1, 4, 1), (1, 64, 64, 2)])
def test_fan_in_one_layers_round_as_the_gemm_on_normal_draws(sizes, rows):
    # products and biases of like size, where rounding h * w + b once (as
    # numpy's vector kernels for one row or one output may) moves last bits
    gen = np.random.default_rng(rows)
    spec = MlpSpec(sizes, output_activation="identity")
    mlp = Mlp(spec, gen.standard_normal(spec.n_params))
    x = gen.standard_normal((rows, 1))
    want, want_inputs = gemm_forward(mlp, x)
    cached, cache = mlp_forward(mlp, x)
    assert cached.tobytes() == want.tobytes()
    assert [a[0].tobytes() for a in cache.work[:-1]] == [a.tobytes() for a in want_inputs[1:]]
    assert _forward(mlp, x, [np.empty((rows, w)) for w in sizes[1:]]).tobytes() == want.tobytes()


def test_dropout_expectation_matches_eval_activation():
    # one hidden layer; replicate a single input row many times so each row
    # draws an independent mask, then compare the empirical mean activation
    spec = MlpSpec((3, 32, 2), output_activation="identity")
    mlp = init_mlp(spec, Prng(5))
    row = np.array([[0.7, -1.2, 0.4]])
    n = 20_000
    x = np.repeat(row, n, axis=0)
    _, cache_train = mlp_forward(mlp, x, dropout_rate=0.4, rng=Prng(77))
    _, cache_eval = mlp_forward(mlp, row)
    # hidden activation = output of the hidden layer
    h_train = cache_train.work[0][0].mean(axis=0)
    h_eval = cache_eval.work[0][0][0]
    active = np.abs(h_eval) > 0.05
    assert active.any()
    rel = np.abs(h_train[active] - h_eval[active]) / np.abs(h_eval[active])
    assert np.max(rel) <= 0.02


@pytest.mark.parametrize("hidden", HIDDEN_ACTIVATIONS)
@pytest.mark.parametrize("rate", [0.2, 0.3, 0.5, 0.9])
def test_dropout_masks_hold_zero_and_the_inverted_keep_scale(hidden, rate):
    # +0.0 for a dropped unit, 1 / (1 - rate) (rounded once) for a kept one
    mlp = small_net(sizes=(3, 8, 8, 2), hidden=hidden)
    _, cache = mlp_forward(mlp, Prng(3).uniform((50, 3)), dropout_rate=rate, rng=Prng(9))
    for _, _, mask in cache.work[:-1]:
        assert np.unique(mask).tolist() == [0.0, 1.0 / (1.0 - rate)]
        assert not np.signbit(mask).any()


def test_dropout_masks_are_seed_deterministic():
    mlp = small_net()
    x = Prng(3).uniform((8, 3))
    a, _ = mlp_forward(mlp, x, dropout_rate=0.5, rng=Prng(9))
    b, _ = mlp_forward(mlp, x, dropout_rate=0.5, rng=Prng(9))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hidden", ["relu", "leaky_relu"])
@pytest.mark.parametrize("out", ["identity", "sigmoid"])
def test_backward_matches_finite_differences(hidden, out):
    # random 3-layer net, scalar loss = sum(output)
    spec = MlpSpec((4, 8, 6, 3), hidden_activation=hidden, output_activation=out)
    mlp = init_mlp(spec, Prng(21))
    x = Prng(22).normal((5, 4), 1.0)

    def loss():
        y, _ = mlp_forward(mlp, x)
        return float(y.sum())

    y, cache = mlp_forward(mlp, x)
    grads, _ = mlp_backward(mlp, cache, np.ones_like(y))
    fd_w, fd_b = finite_diff_param_grads(loss, mlp, h=1e-5)
    for a, f in zip(grads.weights, fd_w):
        assert relative_error(a, f) <= 1e-6
    for a, f in zip(grads.biases, fd_b):
        assert relative_error(a, f) <= 1e-6


def test_backward_input_gradient_matches_finite_differences():
    mlp = small_net(seed=4, sizes=(3, 10, 2), out="sigmoid")
    x = Prng(30).normal((4, 3), 1.0)
    y, cache = mlp_forward(mlp, x)
    _, gin = mlp_backward(mlp, cache, np.ones_like(y))
    h = 1e-5
    fd = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = float(mlp_forward(mlp, x)[0].sum())
        x[idx] = orig - h
        down = float(mlp_forward(mlp, x)[0].sum())
        x[idx] = orig
        fd[idx] = (up - down) / (2 * h)
    assert relative_error(gin, fd) <= 1e-6


def test_backward_with_dropout_uses_cached_mask():
    # with a fixed mask the composite function is differentiable; reuse the
    # cache while finite-differencing the input
    spec = MlpSpec((3, 16, 2), output_activation="identity")
    mlp = init_mlp(spec, Prng(8))
    x = Prng(31).normal((4, 3), 1.0)
    y, cache = mlp_forward(mlp, x, dropout_rate=0.5, rng=Prng(40))
    grads, gin = mlp_backward(mlp, cache, np.ones_like(y))
    mask = cache.work[0][2].copy()

    def replay(xv):
        z = xv @ mlp.weights[0].T + mlp.biases[0]
        a = np.maximum(z, 0.0) * mask
        return float((a @ mlp.weights[1].T + mlp.biases[1]).sum())

    h = 1e-5
    fd = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = replay(x)
        x[idx] = orig - h
        down = replay(x)
        x[idx] = orig
        fd[idx] = (up - down) / (2 * h)
    assert relative_error(gin, fd) <= 1e-6


def test_a_refilled_cache_gives_the_bytes_of_a_fresh_one():
    # a cache handed back grows to more rows, keeps its size for fewer, is
    # rebuilt for a network of other widths or of another activation at the
    # same widths (relu keeps a bool derivative, leaky_relu a float one), and
    # drops a stale dropout mask
    a, b = small_net(seed=1), small_net(seed=2, sizes=(3, 5, 2))
    leaky = small_net(seed=3, hidden="leaky_relu")
    cache = None
    for mlp, rows, rate in (
        (a, 3, 0.3), (a, 7, 0.0), (a, 5, 0.3), (b, 4, 0.0), (a, 6, 0.0),
        (leaky, 6, 0.3), (a, 5, 0.0), (leaky, 4, 0.0),
    ):
        x = Prng(rows).normal((rows, 3), 1.0)
        y, cache = mlp_forward(mlp, x, rate, Prng(9), cache)
        grads, gin = mlp_backward(mlp, cache, np.ones_like(y))
        want_y, want_cache = mlp_forward(mlp, x, rate, Prng(9))
        want_grads, want_gin = mlp_backward(mlp, want_cache, np.ones_like(y))
        assert y.tobytes() == want_y.tobytes() and gin.tobytes() == want_gin.tobytes()
        assert grads.flat.tobytes() == want_grads.flat.tobytes()


def test_backward_without_input_gradient_keeps_the_parameter_gradient_bytes():
    mlp = small_net(seed=3, sizes=(3, 5, 4, 2))
    x = Prng(4).normal((6, 3), 1.0)
    y, cache = mlp_forward(mlp, x)
    want = mlp_backward(mlp, cache, np.ones_like(y))[0].flat.copy()
    y, cache = mlp_forward(mlp, x, cache=cache)  # backward spends the cached activations
    grads, gin = mlp_backward(mlp, cache, np.ones_like(y), input_grad=False)
    assert gin is None
    assert grads.flat.tobytes() == want.tobytes()


@pytest.mark.parametrize("hidden", HIDDEN_ACTIVATIONS)
@pytest.mark.parametrize("rate", [0.0, 0.4])
def test_backward_without_parameter_gradients_keeps_the_input_gradient_bytes(hidden, rate):
    mlp = small_net(seed=3, sizes=(3, 5, 4, 2), out="sigmoid", hidden=hidden)
    x, grad_output = Prng(4).normal((6, 3), 1.0), Prng(5).normal((6, 2), 1.0)

    def backward(**flags):  # a fresh forward: backward spends the cached activations
        _, cache = mlp_forward(mlp, x, rate, Prng(9))
        return mlp_backward(mlp, cache, grad_output, **flags)

    want = backward()[1]
    grads, gin = backward(param_grads=False)
    assert grads is None
    assert gin.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 100, 256])
@pytest.mark.parametrize("out", OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("sizes", [(1, 64, 1), (2, 64, 64, 1)])
def test_one_column_backprop_has_the_bytes_of_matmul_and_of_the_products(sizes, out, rows):
    # a one-column g meets the layer below as g @ W; mlp_backward takes it
    # through BLAS (np.dot plus 0.0), which must keep the bits of np.matmul's
    # own loop and of the products g * W + 0.0, signed zeros, subnormals,
    # overflowing and underflowing products among them
    gen = np.random.default_rng(rows)
    spec = MlpSpec(sizes, output_activation=out)
    mlp = Mlp(spec, gen.choice(RANK1_VALUES, spec.n_params))
    x = gen.choice(RANK1_VALUES, (rows, sizes[0]))
    grad_output = gen.choice(RANK1_VALUES, (rows, 1))
    grad_output[: len(RANK1_VALUES), 0] = RANK1_VALUES[:rows]

    def written_out(product):
        """mlp_backward with the one-column product given: the flat gradient,
        each hidden layer's d(loss)/dz (which mlp_backward leaves in that
        layer's workspace) and the input gradient, as bytes."""
        y, cache = mlp_forward(mlp, x)
        hidden = [(a[0].copy(), a[1].astype(np.float64)) for a in cache.work[:-1]]
        g = grad_output * (y * (1.0 - y)) if out == "sigmoid" else grad_output
        parts, dz = [], []
        for i in reversed(range(spec.n_layers)):
            h = hidden[i - 1][0] if i else x
            parts[:0] = [(g.T @ h).ravel(), np.add.reduce(g, axis=0)]
            w = mlp.weights[i]
            g = product(g, w) if g.shape[1] == 1 else g @ w
            if i:
                g = g * hidden[i - 1][1]
                dz[:0] = [g.tobytes()]
        return [np.concatenate(parts).tobytes(), *dz, g.tobytes()]

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        y, cache = mlp_forward(mlp, x)
        grads, gin = mlp_backward(mlp, cache, grad_output)
        got = [grads.flat.tobytes(), *(a[0][:rows].tobytes() for a in cache.work[:-1]),
               gin.tobytes()]
        for product in (np.matmul, lambda g, w: g * w + 0.0):
            assert got == written_out(product)


def test_backward_rejects_mismatched_cache():
    a = small_net(seed=1, sizes=(3, 8, 2))
    b = small_net(seed=2, sizes=(3, 6, 2))
    y, cache = mlp_forward(a, np.ones((2, 3)))
    with pytest.raises(ValueError):
        mlp_backward(b, cache, np.ones_like(y))


def test_backward_rejects_wrong_grad_shape():
    mlp = small_net()
    y, cache = mlp_forward(mlp, np.ones((2, 3)))
    with pytest.raises(ShapeError):
        mlp_backward(mlp, cache, np.ones((3, 2)))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def scalar_net():
    spec = MlpSpec((1, 1), output_activation="identity")
    return mlp_from_layers(spec, [np.array([[2.0]])], [np.array([0.5])])


def test_adam_first_step_magnitude_is_alpha():
    mlp = scalar_net()
    state = init_adam(mlp, alpha=1e-3)
    grads = mlp_from_layers(mlp.spec, [np.array([[1.0]])], [np.array([0.0])])
    adam_step(mlp, grads, state)
    assert state.t == 1
    # m_hat = g, v_hat = g^2, so the step is alpha * g / (|g| + eps) ~ alpha
    assert abs((2.0 - mlp.weights[0][0, 0]) - 1e-3) < 1e-9


def test_adam_zero_gradients_leave_params_unchanged():
    mlp = scalar_net()
    state = init_adam(mlp)
    grads = Mlp(mlp.spec, np.zeros_like(mlp.flat))
    adam_step(mlp, grads, state)
    assert state.t == 1
    assert mlp.weights[0][0, 0] == 2.0
    assert mlp.biases[0][0] == 0.5


def test_adam_rejects_non_finite_gradients():
    mlp = scalar_net()
    state = init_adam(mlp)
    grads = mlp_from_layers(mlp.spec, [np.array([[np.nan]])], [np.zeros(1)])
    with pytest.raises(NumericError) as err:
        adam_step(mlp, grads, state)
    assert "layer 0 weight" in str(err.value)


def test_adam_rejected_step_changes_nothing():
    # the screen's g * g goes into the workspace; the step count, the
    # moments and the parameters stay as they were after the last good step
    for part, layer, bad, name in (
        ("biases", 1, np.inf, "layer 1 bias"),
        ("weights", 0, -np.inf, "layer 0 weight"),
        ("biases", 2, np.nan, "layer 2 bias"),
    ):
        mlp = small_net()
        state = init_adam(mlp)
        adam_step(mlp, Mlp(mlp.spec, Prng(1).normal(mlp.flat.shape, 1.0)), state)
        before = [a.tobytes() for a in (mlp.flat, state.m, state.v)]
        grads = Mlp(mlp.spec, Prng(2).normal(mlp.flat.shape, 1.0))
        getattr(grads, part)[layer].flat[-1] = bad
        with pytest.raises(NumericError, match=name):
            adam_step(mlp, grads, state)
        assert state.t == 1
        assert [a.tobytes() for a in (mlp.flat, state.m, state.v)] == before


def test_adam_step_matches_per_layer_reference():
    # the update is one vector operation; the same arithmetic run layer by
    # layer must give bit-identical parameters. At scale 1e200 the gradient
    # is finite but its square overflows: the screen fails, the exact check
    # passes, and the step updates like any other
    for scale in (1.0, 1e200):
        mlp = small_net(seed=5)
        state = init_adam(mlp, alpha=1e-2)
        b1, b2 = state.beta1, state.beta2
        params = [a.copy() for pair in zip(mlp.weights, mlp.biases) for a in pair]
        ms = [np.zeros_like(p) for p in params]
        vs = [np.zeros_like(p) for p in params]
        rng = Prng(6)
        for t in range(1, 6):
            grads = mlp_from_layers(
                mlp.spec,
                [rng.normal(w.shape, scale) for w in mlp.weights],
                [rng.normal(b.shape, scale) for b in mlp.biases],
            )
            with np.errstate(over="ignore"):
                adam_step(mlp, grads, state)
                layer_grads = [a for pair in zip(grads.weights, grads.biases) for a in pair]
                for p, g, m, v in zip(params, layer_grads, ms, vs):
                    m[...] = b1 * m + (1.0 - b1) * g
                    v[...] = b2 * v + (1.0 - b2) * (g * g)
                    p -= state.alpha * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + state.eps)
        assert state.t == 5
        got = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in params]


def test_adam_step_allocates_no_parameter_sized_vector():
    # 4,418 parameters: the in-place update peaks at ~1.2 kB (~5.4 kB while a
    # boolean vector checked finiteness); new moment and temporary arrays
    # peaked at 248 kB
    mlp = small_net(seed=7, sizes=(1, 64, 64, 2))
    state = init_adam(mlp)
    grads = Mlp(mlp.spec, Prng(8).normal(mlp.flat.shape, 1.0))
    adam_step(mlp, grads, state)
    tracemalloc.start()
    try:
        adam_step(mlp, grads, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e3


def test_adam_descends_a_quadratic():
    # minimize (w*x - 3)^2 for fixed x=1: gradient 2(w - 3)
    mlp = scalar_net()
    state = init_adam(mlp, alpha=0.05)
    for _ in range(500):
        w = mlp.weights[0][0, 0]
        grads = mlp_from_layers(mlp.spec, [np.array([[2.0 * (w - 3.0)]])], [np.zeros(1)])
        adam_step(mlp, grads, state)
    assert abs(mlp.weights[0][0, 0] - 3.0) < 1e-2


def test_adam_hyperparameter_validation():
    mlp = scalar_net()
    with pytest.raises(ValueError):
        init_adam(mlp, alpha=-1.0)
    with pytest.raises(ValueError):
        init_adam(mlp, beta1=1.0)
