import math
import tracemalloc

import numpy as np
import pytest

from daechain.cli import main
from daechain.io_formats import save_checkpoint
from daechain.losses import adversarial_losses, kl_to_standard_normal, mse_loss
from daechain.models import Autoencoder, CorruptionSpec, TrainConfig, build_model
from daechain.nn import MlpSpec, adam_step, init_adam, init_mlp, mlp_forward
from daechain.numeric import (
    NumericError,
    Prng,
    ShapeError,
    derivative_of_sigmoid,
    sample_gaussian,
    sample_uniform,
    sigmoid,
)
from daechain.oracle import (
    GaussianMixture,
    limit_convergence_study,
    optimal_reconstruction,
    score_from_reconstruction,
)
from daechain.sampler import ChainConfig, run_chain


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    x = np.linspace(-6, 6, 25)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 0.3, -2.5, 800.0, -800.0, math.inf, -math.inf, math.nan,
    np.array(-1.7), np.array(0.0), np.array([-800.0, -0.0, 0.0, 1e-300, 36.0, 800.0]),
    np.linspace(-40.0, 40.0, 1601),
])
def test_sigmoid_is_the_three_pass_formula_bit_for_bit(x):
    xv = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(xv))
    want = np.where(xv >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    got = np.asarray(sigmoid(x))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sigmoid_is_stable_for_large_inputs():
    with np.errstate(over="raise", invalid="raise"):
        big = sigmoid(np.array([-800.0, -30.0, 30.0, 800.0]))
    assert np.all(np.isfinite(big))
    assert np.all((big >= 0.0) & (big <= 1.0))
    # saturation stays monotone, no wraparound
    xs = np.array([30.0, 35.0, 40.0, 700.0])
    ys = sigmoid(xs)
    assert np.all(np.diff(ys) >= 0.0)


def test_sigmoid_derivative_from_output():
    assert derivative_of_sigmoid(0.5) == 0.25
    y = sigmoid(np.linspace(-4, 4, 9))
    np.testing.assert_allclose(derivative_of_sigmoid(y), y * (1 - y))


@pytest.mark.parametrize(
    "fn,dfn",
    [
        (sigmoid, lambda x: derivative_of_sigmoid(sigmoid(x))),
    ],
)
def test_activation_derivatives_match_finite_differences(fn, dfn):
    x = np.linspace(-5.0, 5.0, 100)
    h = 1e-6
    fd = (fn(x + h) - fn(x - h)) / (2 * h)
    analytic = dfn(x)
    denom = np.maximum(np.abs(fd), 1e-12)
    assert np.max(np.abs(analytic - fd) / denom) <= 1e-6


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_gaussian_sigma_zero_gives_exact_zeros():
    rng = Prng(7)
    out = sample_gaussian(rng, (3, 4), 0.0)
    assert np.array_equal(out, np.zeros((3, 4)))


def test_gaussian_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sample_gaussian(Prng(0), (2,), -1.0)


def test_gaussian_sample_variance():
    rng = Prng(123)
    z = sample_gaussian(rng, (1_000_000,), 0.5)
    v = z.var()
    assert 0.2475 <= v <= 0.2525
    assert abs(z.mean()) < 0.002


def _box_muller_reference(rng, n, sigma):
    """Box-Muller as two draws of half the values each, written out in full."""
    half = (n + 1) // 2
    u1 = rng._gen.random(half)
    u2 = rng._gen.random(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return sigma * z


@pytest.mark.parametrize("sigma", [1e-3, 0.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 100_001])
def test_gaussian_has_the_bytes_and_stream_position_of_box_muller(n, sigma):
    got_rng, want_rng = Prng(11), Prng(11)
    got = sample_gaussian(got_rng, (n,), sigma)
    assert got.tobytes() == _box_muller_reference(want_rng, n, sigma).tobytes()
    assert got_rng._gen.random(3).tobytes() == want_rng._gen.random(3).tobytes()


def test_uniform_bounds_and_mean():
    rng = Prng(5)
    u = sample_uniform(rng, (1_000_000,), 0.0, 1.0)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert 0.498 <= u.mean() <= 0.502


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        sample_uniform(Prng(0), (2,), 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_uniform(Prng(0), (2,), 2.0, 1.0)


@pytest.mark.parametrize("lo, hi", [
    (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (-1e308, 1e308), (math.nan, 1.0),
])
def test_uniform_rejects_a_non_finite_range_before_drawing(lo, hi):
    rng = Prng(0)
    with pytest.raises(ValueError):
        rng.uniform(3, lo, hi)
    assert rng.uniform(3).tobytes() == Prng(0).uniform(3).tobytes()  # stream untouched


def test_uniform_is_the_scaled_and_shifted_stream():
    for lo, hi in ((0.0, 1.0), (-2.0, 5.0), (-0.3, 0.3), (1e-3, 1e3)):
        u = np.random.Generator(np.random.PCG64(4)).random(21)
        got = sample_uniform(Prng(4), (7, 3), lo, hi)
        assert got.tobytes() == (lo + (hi - lo) * u).reshape(7, 3).tobytes()


def test_uniform_draw_allocates_only_its_output():
    # 100 x 64 draws are 51,200 bytes; lo + (hi - lo) * u in new arrays peaked at 3x that
    rng = Prng(0)
    sample_uniform(rng, (100, 64), -1.0, 3.0)
    tracemalloc.start()
    try:
        sample_uniform(rng, (100, 64), -1.0, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 51_200


def test_same_seed_reproduces_streams_bitwise():
    a, b = Prng(42), Prng(42)
    ga = sample_gaussian(a, (257,), 1.3)
    gb = sample_gaussian(b, (257,), 1.3)
    assert np.array_equal(ga, gb)
    ua = sample_uniform(a, (64, 3), -2.0, 5.0)
    ub = sample_uniform(b, (64, 3), -2.0, 5.0)
    assert np.array_equal(ua, ub)
    assert np.array_equal(a.permutation(1000), b.permutation(1000))


def test_different_seeds_differ():
    ga = sample_gaussian(Prng(1), (100,), 1.0)
    gb = sample_gaussian(Prng(2), (100,), 1.0)
    assert not np.array_equal(ga, gb)


def test_seed_domain():
    with pytest.raises(ValueError):
        Prng(-1)
    Prng(2**64 - 1)  # max 64-bit unsigned accepted


def test_shape_validation():
    rng = Prng(0)
    for bad in ((0,), (2, -1), ()):
        with pytest.raises(ValueError):
            sample_gaussian(rng, bad, 1.0)


def test_permutation_is_a_permutation():
    p = Prng(9).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_numeric_error_is_distinct_type():
    assert issubclass(NumericError, RuntimeError)
    assert issubclass(ShapeError, ValueError)


# ---------------------------------------------------------------------------
# non-finite guards across the package
# ---------------------------------------------------------------------------

_GM = GaussianMixture([1.0], [[0.5]], [[0.01]])

# message fragment each guard names -> a call that must reject the value
NON_FINITE_GUARDS = {
    "corruption sigma": lambda v: CorruptionSpec(v),
    "inject_sigma": lambda v: ChainConfig(inject_sigma=v),
    "regularizer_weight": lambda v: TrainConfig(regularizer_weight=v),
    "alpha": lambda v: init_adam(init_mlp(MlpSpec((1, 1)), Prng(0)), alpha=v),
    "sigma must be": lambda v: sample_gaussian(Prng(0), (3,), v),
    "mixture weights": lambda v: GaussianMixture([v, 0.5], [[0.3], [0.7]], [[0.01], [0.01]]),
    "mixture means": lambda v: GaussianMixture([1.0], [[v]], [[0.01]]),
    "mixture variances": lambda v: GaussianMixture([1.0], [[0.5]], [[v]]),
    "sigma must be finite and > 0": lambda v: optimal_reconstruction(_GM, v, [0.5]),
    "sigmas must be": lambda v: limit_convergence_study(_GM, [0.1, v], [[0.5]]),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_numeric_guards_reject_non_finite_values(value, tmp_path, capsys):
    for fragment, call in NON_FINITE_GUARDS.items():
        with pytest.raises(ValueError, match=fragment):
            call(float(value))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model("dae", 1, 2, Prng(0), hidden=(4,)), ckpt)
    code = main(
        ["sample", "--set", f"out_dir={tmp_path}", "--set", f"checkpoint={ckpt}",
         "--set", f"inject_sigma={value}"]
    )
    assert code == 2
    assert "inject_sigma" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# shape and range guards across the package
# ---------------------------------------------------------------------------

def _mlp(*sizes):
    return init_mlp(MlpSpec(sizes), Prng(0))


# (error type, message fragment, a call that must raise it)
TYPED_ERRORS = [
    pytest.param(ValueError, "empty tensor", lambda: mse_loss(np.ones((0, 2)), np.ones((0, 2))),
                 id="empty-loss"),
    pytest.param(ShapeError, "does not match logvar shape",
                 lambda: kl_to_standard_normal(np.zeros((2, 3)), np.zeros((2, 2))),
                 id="kl-mismatch"),
    pytest.param(ShapeError, "posterior stats must be",
                 lambda: kl_to_standard_normal(np.zeros((0, 2)), np.zeros((0, 2))), id="kl-empty"),
    pytest.param(ValueError, "non-empty score",
                 lambda: adversarial_losses(np.zeros((0, 1)), True),
                 id="adversarial-empty"),
    pytest.param(ValueError, "permutation length", lambda: Prng(0).permutation(-1),
                 id="negative-permutation"),
    pytest.param(ValueError, "dropout rate must lie",
                 lambda: mlp_forward(_mlp(2, 3, 1), np.zeros((1, 2)), 1.0, Prng(0)),
                 id="dropout-rate-1"),
    pytest.param(ShapeError, "gradient size",
                 lambda: adam_step(_mlp(2, 1), _mlp(2, 2), init_adam(_mlp(2, 1))),
                 id="adam-gradient-size"),
    pytest.param(ShapeError, "does not match data dim",
                 lambda: Autoencoder("dae", _mlp(3, 2), _mlp(2, 4), CorruptionSpec(0.1)),
                 id="decoder-output-dim"),
    pytest.param(ShapeError, "single score",
                 lambda: Autoencoder("daae", _mlp(3, 2), _mlp(2, 3), CorruptionSpec(0.1), _mlp(2, 2)),
                 id="two-output-discriminator"),
    pytest.param(ShapeError, "x0 must be",
                 lambda: run_chain(lambda x: x, np.zeros((1, 1, 1)), ChainConfig(steps=1)),
                 id="chain-3d-x0"),
    pytest.param(ShapeError, "expected weights",
                 lambda: GaussianMixture([1.0], np.full((1, 1, 1), 0.5), [[0.01]]),
                 id="mixture-3d-means"),
    pytest.param(ShapeError, "at least one dimension",
                 lambda: GaussianMixture([1.0], np.zeros((1, 0)), np.zeros((1, 0))),
                 id="mixture-0d-means"),
    pytest.param(ShapeError, "reconstruction shape",
                 lambda: score_from_reconstruction(np.zeros(2), np.zeros(3), 0.1),
                 id="reconstruction-shape"),
]


@pytest.mark.parametrize("error, fragment, call", TYPED_ERRORS)
def test_guards_raise_their_typed_errors(error, fragment, call):
    with pytest.raises(error, match=fragment):
        call()
