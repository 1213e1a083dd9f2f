import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from daechain.losses import (
    BCE_CLAMP,
    adversarial_losses,
    bce_loss,
    kl_to_standard_normal,
    mse_loss,
)
from daechain.numeric import Prng, ShapeError
from daechain.nn import MlpSpec, init_mlp, mlp_backward, mlp_forward
from _oracles import finite_diff_param_grads, relative_error


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_mse_value_and_grad():
    x = np.array([[0.0, 1.0]])
    r = np.array([[0.5, 0.5]])
    out = mse_loss(x, r)
    assert out.value == 0.25
    np.testing.assert_allclose(out.grad, [[0.5, -0.5]])


def test_mse_zero_at_perfect_reconstruction():
    x = Prng(0).uniform((7, 3))
    out = mse_loss(x, x)
    assert out.value == 0.0
    assert np.all(out.grad == 0.0)


def test_bce_known_value():
    out = bce_loss(np.array([[1.0]]), np.array([[0.9]]))
    assert abs(out.value - (-math.log(0.9))) < 1e-12
    np.testing.assert_allclose(out.grad, [[-1.0 / 0.9]])


def test_bce_symmetric_half():
    out = bce_loss(np.array([[0.5]]), np.array([[0.5]]))
    assert abs(out.value - math.log(2.0)) < 1e-12


def test_bce_clamps_keep_value_and_grad_finite():
    out = bce_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert np.isfinite(out.value)
    assert np.all(np.isfinite(out.grad))
    # clamped at the documented bound
    assert abs(out.value - (-math.log(1.0 - BCE_CLAMP))) < 1e-12


def test_bce_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError):
        bce_loss(np.array([[1.2]]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        bce_loss(np.array([[-0.1]]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        bce_loss(np.array([[0.5], [np.nan]]), np.array([[0.5], [0.5]]))


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        bce_loss(np.ones((2, 3)), np.ones((2, 4)))


def test_bce_gradient_identity_on_random_pairs():
    # exact formula agreement, elementwise, away from the clamp
    gen = np.random.Generator(np.random.PCG64(1234))
    x = gen.uniform(0.0, 1.0, size=(1000,))
    r = gen.uniform(1e-3, 1.0 - 1e-3, size=(1000,))
    out = bce_loss(x[None, :], r[None, :])
    expected = -(x / r - (1.0 - x) / (1.0 - r)) / x.size
    assert np.max(np.abs(out.grad[0] - expected)) <= 1e-12


# reconstructions at the clamp edges, one ulp inside and outside them, and beyond
CLAMP_EDGES = (
    -0.5, -0.0, 0.0, 5e-324, float(np.nextafter(BCE_CLAMP, 0.0)), BCE_CLAMP,
    float(np.nextafter(BCE_CLAMP, 1.0)), 0.5, float(np.nextafter(1.0 - BCE_CLAMP, 0.0)),
    1.0 - BCE_CLAMP, float(np.nextafter(1.0 - BCE_CLAMP, 1.0)), 1.0, 1.5,
)
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 4))


def value_and_grad_bytes(value, grad):
    return np.float64(value).tobytes() + np.asarray(grad).tobytes()


@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_bce_loss_has_the_bytes_of_its_formulas(shape, data):
    x = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))))
    r = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(CLAMP_EDGES), st.floats(-1.0, 2.0))))
    given_r = r.tobytes()
    out = bce_loss(x, r)
    # the docstring's formulas, on the clamped reconstruction
    c = np.clip(r, BCE_CLAMP, 1.0 - BCE_CLAMP)
    value = float(np.mean(-(x * np.log(c) + (1.0 - x) * np.log1p(-c))))
    grad = -(x / c - (1.0 - x) / (1.0 - c)) / x.size
    assert value_and_grad_bytes(out.value, out.grad) == value_and_grad_bytes(value, grad)
    assert r.tobytes() == given_r  # the clamp goes into a new array


@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, halves=st.booleans(), data=st.data())
def test_kl_has_the_bytes_of_its_formulas(shape, halves, data):
    # mu and logvar as arrays of their own, or as the two halves of one
    # (batch, 2L) encoder output, as the DVAE step passes them
    batch, latent = shape
    elements = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-20.0, 20.0))
    if halves:
        h = data.draw(arrays(np.float64, (batch, 2 * latent), elements=elements))
        mu, logvar = h[:, :latent], h[:, latent:]
    else:
        mu, logvar = (data.draw(arrays(np.float64, shape, elements=elements)) for _ in range(2))
    out = kl_to_standard_normal(mu, logvar)
    var = np.exp(logvar)
    value = float(0.5 * np.sum(var + mu * mu - 1.0 - logvar) / batch)
    grad = np.concatenate([mu / batch, 0.5 * (var - 1.0) / batch], axis=1)
    assert value_and_grad_bytes(out.value, out.grad) == value_and_grad_bytes(value, grad)


def test_kl_known_value_and_grads():
    out = kl_to_standard_normal(np.array([[1.0]]), np.array([[0.0]]))
    assert abs(out.value - 0.5) < 1e-15
    # the gradient is with respect to [mu | logvar]
    np.testing.assert_allclose(out.grad, [[1.0, 0.0]])


def test_kl_zero_at_standard_normal():
    mu = np.zeros((4, 3))
    logvar = np.zeros((4, 3))
    out = kl_to_standard_normal(mu, logvar)
    assert out.value == 0.0
    assert out.grad.shape == (4, 6)
    assert np.all(out.grad == 0.0)


def test_kl_is_nonnegative():
    gen = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        mu = gen.normal(size=(3, 4))
        logvar = gen.normal(size=(3, 4))
        assert kl_to_standard_normal(mu, logvar).value >= 0.0


def test_adversarial_balanced_point():
    sp = np.full((8, 1), 0.5)
    se = np.full((8, 1), 0.5)
    disc = adversarial_losses(sp, True).value + adversarial_losses(se, False).value
    assert abs(disc - 2.0 * math.log(2.0)) < 1e-12
    assert abs(adversarial_losses(se, True).value - math.log(2.0)) < 1e-12


def test_adversarial_rejects_scores_outside_unit_interval():
    with pytest.raises(ValueError):
        adversarial_losses(np.array([[1.5]]), True)
    with pytest.raises(ValueError):
        adversarial_losses(np.array([[-0.5]]), False)
    # NaN fails every comparison, so a min/max range check lets it through
    for real in (True, False):
        with pytest.raises(ValueError):
            adversarial_losses(np.array([[0.5], [np.nan]]), real)


def test_adversarial_clamp_keeps_value_and_grad_finite():
    # saturated scores read as the clamp bounds, like bce_loss's reconstructions
    saturated = np.array([[0.0], [1.0]])
    bounds = np.array([[BCE_CLAMP], [1.0 - BCE_CLAMP]])
    for real in (True, False):
        out = adversarial_losses(saturated, real)
        assert out.value == adversarial_losses(bounds, real).value
        assert np.isfinite(out.value)
        assert np.all(np.isfinite(out.grad))


def test_adversarial_gradient_directions():
    sp = np.full((4, 1), 0.3)
    se = np.full((4, 1), 0.7)
    # disc wants prior scores up (negative gradient of loss) and encoded down
    assert np.all(adversarial_losses(sp, True).grad < 0.0)
    assert np.all(adversarial_losses(se, False).grad > 0.0)
    # encoder wants its scores up
    assert np.all(adversarial_losses(se, True).grad < 0.0)


# ---------------------------------------------------------------------------
# stationary points (dense scan)
# ---------------------------------------------------------------------------

def test_pointwise_minimizer_is_the_target_for_both_losses():
    # scan r over (0, 1) with step 1e-3 for a fixed target
    r = np.arange(1e-3, 1.0, 1e-3)
    for x in (0.2, 0.5, 0.73):
        mse_vals = [(mse_loss(np.array([[x]]), np.array([[rv]]))).value for rv in r]
        bce_vals = [(bce_loss(np.array([[x]]), np.array([[rv]]))).value for rv in r]
        assert abs(r[int(np.argmin(mse_vals))] - x) <= 1e-3
        assert abs(r[int(np.argmin(bce_vals))] - x) <= 1e-3


# ---------------------------------------------------------------------------
# gradients through a network (central finite differences)
# ---------------------------------------------------------------------------

def test_mse_through_mlp_matches_finite_differences():
    spec = MlpSpec((3, 12, 2), output_activation="sigmoid")
    mlp = init_mlp(spec, Prng(51))
    x = Prng(52).normal((6, 3), 1.0)
    target = Prng(53).uniform((6, 2), 0.1, 0.9)

    def loss():
        y, _ = mlp_forward(mlp, x)
        return mse_loss(target, y).value

    y, cache = mlp_forward(mlp, x)
    lv = mse_loss(target, y)
    grads, _ = mlp_backward(mlp, cache, lv.grad)
    fd_w, fd_b = finite_diff_param_grads(loss, mlp)
    for a, f in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert relative_error(a, f) <= 1e-6


def test_bce_through_mlp_matches_finite_differences():
    spec = MlpSpec((3, 12, 2), output_activation="sigmoid")
    mlp = init_mlp(spec, Prng(61))
    x = Prng(62).normal((6, 3), 1.0)
    target = Prng(63).uniform((6, 2), 0.1, 0.9)

    def loss():
        y, _ = mlp_forward(mlp, x)
        return bce_loss(target, y).value

    y, cache = mlp_forward(mlp, x)
    lv = bce_loss(target, y)
    grads, _ = mlp_backward(mlp, cache, lv.grad)
    fd_w, fd_b = finite_diff_param_grads(loss, mlp)
    for a, f in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert relative_error(a, f) <= 1e-6


def test_kl_through_encoder_matches_finite_differences():
    # encoder emits (mu, logvar) side by side; KL closes over both halves
    spec = MlpSpec((3, 10, 4), output_activation="identity")
    mlp = init_mlp(spec, Prng(71))
    x = Prng(72).normal((5, 3), 1.0)

    def loss():
        y, _ = mlp_forward(mlp, x)
        return kl_to_standard_normal(y[:, :2], y[:, 2:]).value

    y, cache = mlp_forward(mlp, x)
    kl = kl_to_standard_normal(y[:, :2], y[:, 2:])
    grads, _ = mlp_backward(mlp, cache, kl.grad)
    fd_w, fd_b = finite_diff_param_grads(loss, mlp)
    for a, f in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert relative_error(a, f) <= 1e-6


def test_adversarial_through_discriminator_matches_finite_differences():
    spec = MlpSpec((2, 10, 1), hidden_activation="leaky_relu", output_activation="sigmoid")
    disc = init_mlp(spec, Prng(81))
    zp = Prng(82).normal((6, 2), 1.0)
    ze = Prng(83).normal((6, 2), 1.0)

    def disc_loss():
        sp, _ = mlp_forward(disc, zp)
        se, _ = mlp_forward(disc, ze)
        return adversarial_losses(sp, True).value + adversarial_losses(se, False).value

    sp, cp = mlp_forward(disc, zp)
    se, ce = mlp_forward(disc, ze)
    gp, _ = mlp_backward(disc, cp, adversarial_losses(sp, True).grad)
    ge, _ = mlp_backward(disc, ce, adversarial_losses(se, False).grad)
    fd_w, fd_b = finite_diff_param_grads(disc_loss, disc)
    for aw, ae, f in zip(gp.weights + gp.biases, ge.weights + ge.biases, fd_w + fd_b):
        assert relative_error(aw + ae, f) <= 1e-6


def test_encoder_objective_input_gradient_matches_finite_differences():
    # the encoder phase backpropagates label 1 on its encodings through the
    # discriminator to its input latents
    spec = MlpSpec((2, 10, 1), hidden_activation="leaky_relu", output_activation="sigmoid")
    disc = init_mlp(spec, Prng(91))
    ze = Prng(92).normal((5, 2), 1.0)

    se, ce = mlp_forward(disc, ze)
    _, gin = mlp_backward(disc, ce, adversarial_losses(se, True).grad)

    h = 1e-5
    fd = np.zeros_like(ze)
    for idx in np.ndindex(*ze.shape):
        orig = ze[idx]
        ze[idx] = orig + h
        up = adversarial_losses(mlp_forward(disc, ze)[0], True).value
        ze[idx] = orig - h
        down = adversarial_losses(mlp_forward(disc, ze)[0], True).value
        ze[idx] = orig
        fd[idx] = (up - down) / (2 * h)
    assert relative_error(gin, fd) <= 1e-6
