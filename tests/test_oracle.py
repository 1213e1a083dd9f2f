import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference_oracle as ref
from daechain import oracle
from daechain.datasets import BLOB_CENTER_BOX, BLOB_PEAK, DatasetSpec, blob_images
from daechain.numeric import NumericError, Prng, ShapeError
from daechain.oracle import (
    GaussianMixture,
    QuadratureSpec,
    _argmax_rows,
    _fold,
    _logsumexp,
    analytic_score,
    confined_to_unit_box,
    high_density_grid,
    limit_convergence_study,
    mixture_log_pdf_and_mode,
    mixture_log_pdf_batch,
    optimal_reconstruction,
    responsibilities,
    score_from_reconstruction,
)
from _oracles import bce_grid_minimizer, gauss_hermite_posterior_mean, mixture_posterior_mean


def two_mode():
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([0.35, 0.65]),
        variances=np.array([0.05**2, 0.05**2]),
    )


def two_component_2d():
    return GaussianMixture(
        weights=np.array([0.4, 0.6]),
        means=np.array([[0.3, 0.7], [0.65, 0.35]]),
        variances=np.array([[0.0025, 0.004], [0.003, 0.0025]]),
    )


def single(mu=0.5, s=0.1):
    return GaussianMixture(
        weights=np.array([1.0]),
        means=np.array([mu]),
        variances=np.array([s * s]),
    )


# ---------------------------------------------------------------------------
# mixture construction and validation
# ---------------------------------------------------------------------------

def test_mixture_promotes_1d_means_to_columns():
    gm = two_mode()
    assert gm.means.shape == (2, 1)
    assert gm.variances.shape == (2, 1)
    assert gm.n_components == 2
    assert gm.dim == 1


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.6, 0.6]), np.array([0.3, 0.7]), np.array([0.01, 0.01]))


def test_mixture_weights_must_be_positive():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.5, -0.5]), np.array([0.3, 0.7]), np.array([0.01, 0.01]))


def test_mixture_variances_must_be_positive():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.array([0.5]), np.array([0.0]))


def test_mixture_component_counts_must_agree():
    with pytest.raises(ShapeError):
        GaussianMixture(np.array([1.0]), np.array([0.3, 0.7]), np.array([0.01, 0.01]))


def test_confined_to_unit_box():
    assert confined_to_unit_box(two_mode())
    assert not confined_to_unit_box(single(mu=0.5, s=0.2))
    assert not confined_to_unit_box(single(mu=0.05, s=0.05))


# ---------------------------------------------------------------------------
# log pdf and score
# ---------------------------------------------------------------------------

def test_log_pdf_peak_of_single_component():
    gm = single(mu=0.5, s=0.1)
    expected = -0.5 * math.log(2.0 * math.pi * 0.01)
    assert abs(mixture_log_pdf_batch(gm, np.array([0.5]))[0] - expected) < 1e-12
    assert abs(expected - 1.38364) < 1e-5


def test_log_pdf_symmetric_about_midpoint():
    gm = two_mode()
    for delta in (0.0, 0.05, 0.15, 0.3):
        left = mixture_log_pdf_batch(gm, np.array([0.5 - delta]))[0]
        right = mixture_log_pdf_batch(gm, np.array([0.5 + delta]))[0]
        assert abs(left - right) < 1e-12


def test_log_pdf_integrates_to_one():
    gm = two_mode()
    xs = np.linspace(-0.1, 1.1, 120001)
    dens = np.exp(mixture_log_pdf_batch(gm, xs[:, None]))
    total = np.trapezoid(dens, xs)
    assert abs(total - 1.0) < 1e-6


def test_log_pdf_batch_matches_single_point():
    gm = two_mode()
    xs = np.linspace(0.2, 0.8, 7)[:, None]
    batch = mixture_log_pdf_batch(gm, xs)
    for i, x in enumerate(xs):
        assert batch[i] == mixture_log_pdf_batch(gm, x)[0]


def test_responsibilities_rows_sum_to_one_and_concentrate():
    gm = two_mode()
    resp = responsibilities(gm, np.array([[0.35], [0.5], [0.65]]))
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    assert resp[0, 0] > 0.99
    assert abs(resp[1, 0] - 0.5) < 1e-12
    assert resp[2, 1] > 0.99


@pytest.fixture(scope="module")
def scipy_special():
    return pytest.importorskip("scipy.special")


@st.composite
def log_value_rows(draw):
    """(n, k) log-values: rows offset by -700, 0 or +700, some entries -inf."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (n, k), elements=st.floats(-30.0, 30.0)))
    offsets = draw(arrays(np.float64, (n, 1), elements=st.sampled_from([-700.0, 0.0, 700.0])))
    dropped = draw(arrays(np.bool_, (n, k)))
    out = values + offsets
    out[dropped] = -np.inf
    return out


@settings(max_examples=300, deadline=None)
@given(a=log_value_rows())
@example(a=np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, -np.inf]]))
@example(a=np.array([[-0.0], [0.0], [-np.inf]]))
def test_logsumexp_matches_scipy(scipy_special, a):
    # relative 1e-12; the absolute floor covers rows whose sum cancels to ~0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(np.ascontiguousarray(a.T))
    assert got.tobytes() == np.logaddexp.reduce(a, axis=1).tobytes()
    want = scipy_special.logsumexp(a, axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.all(got[np.all(a == -np.inf, axis=1)] == -np.inf)
    if a.shape[1] == 1:
        assert np.array_equal(got, a[:, 0])


@st.composite
def mixtures_and_points(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    raw = draw(arrays(np.float64, k, elements=st.floats(0.05, 1.0)))
    means = draw(arrays(np.float64, (k, d), elements=st.floats(-1.0, 2.0)))
    variances = draw(arrays(np.float64, (k, d), elements=st.floats(1e-3, 1.0)))
    points = draw(arrays(np.float64, (draw(st.integers(1, 5)), d), elements=st.floats(-3.0, 4.0)))
    return GaussianMixture(raw / raw.sum(), means, variances), points


@settings(max_examples=300, deadline=None)
@given(case=mixtures_and_points())
def test_responsibilities_match_scipy_softmax(scipy_special, case):
    gm, xs = case
    got = responsibilities(gm, xs)
    want = scipy_special.softmax(ref.component_log_pdfs(gm, xs), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        mixture_log_pdf_batch(gm, xs),
        scipy_special.logsumexp(ref.component_log_pdfs(gm, xs), axis=1),
        rtol=1e-12, atol=1e-12,
    )


@settings(max_examples=100, deadline=None)
@given(case=mixtures_and_points())
def test_log_pdf_and_mode_are_the_separate_results(case):
    # one evaluation of the component log-densities: log p has the bytes of
    # mixture_log_pdf_batch, and the mode has maximal responsibility, so it
    # is argmax(responsibilities) wherever that maximum is unique
    gm, xs = case
    log_p, mode = mixture_log_pdf_and_mode(gm, xs)
    assert np.array_equal(log_p, mixture_log_pdf_batch(gm, xs))
    resp = responsibilities(gm, xs)
    rows = np.arange(len(xs))
    assert np.array_equal(resp[rows, mode], resp.max(axis=1))
    unique = (resp == resp.max(axis=1, keepdims=True)).sum(axis=1) == 1
    assert np.array_equal(mode[unique], np.argmax(resp, axis=1)[unique])


@st.composite
def folded_cases(draw):
    """A k-component mixture in d dims, some components repeated, and points
    that include ones so far from the mass that every component is -inf."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    means = draw(arrays(np.float64, (k, d), elements=st.floats(-1.0, 2.0)))
    variances = draw(arrays(np.float64, (k, d), elements=st.floats(1e-3, 1.0)))
    for j in range(1, k):
        source = draw(st.integers(0, j))
        if source < j:
            means[j], variances[j] = means[source], variances[source]
    gm = GaussianMixture(np.full(k, 1.0 / k), means, variances)
    n = draw(st.integers(1, 6))
    points = draw(arrays(np.float64, (n, d), elements=st.floats(-3.0, 4.0)))
    far = draw(arrays(np.bool_, n))
    points[far] = draw(st.sampled_from([1e160, -1e160]))
    return gm, np.concatenate([points, means[:1]])


@settings(max_examples=300, deadline=None)
@given(case=folded_cases())
def test_column_folds_have_the_bits_of_the_row_reductions(case):
    gm, xs = case
    with np.errstate(over="ignore"):  # far points square to inf
        logc = ref.component_log_pdfs(gm, xs)
        log_p, mode = mixture_log_pdf_and_mode(gm, xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _logsumexp(np.ascontiguousarray(logc.T)).tobytes() == log_p.tobytes()
        assert np.array_equal(_argmax_rows(np.ascontiguousarray(logc.T)), mode)
    assert log_p.tobytes() == np.logaddexp.reduce(logc, axis=1).tobytes()
    assert mode.dtype == np.intp
    assert np.array_equal(mode, np.argmax(logc, axis=1))
    # ties, repeated components and all -inf rows included, go to the lower index
    first_max = (logc == logc.max(axis=1, keepdims=True)).argmax(axis=1)
    assert np.array_equal(mode, first_max)


# a fold's last width, numpy's first pairwise sums, and the blob mixture's 49
FOLD_WIDTHS = (1, 2, 7, 8, 9, 49)


def _fold_operand(k, trailing=(), non_negative=False):
    """(200, k, *trailing) values over eight orders of magnitude, so the order
    of a sum shows in its last bits, with signed zeros and (unless the values
    are non-negative, like exp output) -inf sprinkled in."""
    gen = np.random.default_rng(k)
    shape = (200, k, *trailing)
    a = gen.standard_normal(shape) * 10.0 ** gen.integers(-4, 4, shape)
    if non_negative:
        a = np.abs(a)
    specials = [0.0] if non_negative else [0.0, -0.0, -np.inf]
    spot = gen.random(shape) < 0.2
    a[spot] = gen.choice(specials, np.count_nonzero(spot))
    a[:3] = specials[-1]  # rows made of one special value only
    return a


@pytest.mark.parametrize("k", FOLD_WIDTHS)
@pytest.mark.parametrize(
    "ufunc, trailing, non_negative",
    [
        (np.maximum, (), False),  # the softmax's max
        (np.add, (), True),  # the softmax's sum, over exp output
        (np.logaddexp, (), False),  # log p
        (np.add, (3,), False),  # R*'s sum over (rows, k, d)
        (np.add, (1,), False),
    ],
    ids=["max", "softmax-sum", "logaddexp", "rstar-sum-3d", "rstar-sum-1d"],
)
def test_fold_has_the_bits_of_numpys_reduction(ufunc, trailing, non_negative, k):
    a = _fold_operand(k, trailing, non_negative)
    by_component = np.ascontiguousarray(a.swapaxes(0, 1))  # the package's (k, rows, ...) layout
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if ufunc is np.logaddexp:
            got = _logsumexp(by_component)
        else:
            got = _fold(ufunc, by_component)
    want = ufunc.reduce(a, axis=1)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, by_component)  # the softmax writes to it after its max


@pytest.mark.parametrize("k", FOLD_WIDTHS)
def test_argmax_rows_is_numpys_argmax_with_ties_and_all_minus_inf_rows(k):
    gen = np.random.default_rng(k)
    a = gen.choice([-np.inf, -0.0, 0.0, 1.0, 2.0], (300, k))
    a[:3] = -np.inf
    a[3:6] = 1.0
    a[6, :] = 0.0
    a[6, ::2] = -0.0
    got = _argmax_rows(np.ascontiguousarray(a.T))
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argmax(a, axis=1))


def test_score_single_gaussian_closed_form():
    gm = single(mu=0.5, s=0.1)
    for x in (0.2, 0.45, 0.5, 0.81):
        got = analytic_score(gm, np.array([x]))
        assert abs(got[0] - (0.5 - x) / 0.01) < 1e-10


def test_score_vanishes_at_symmetry_midpoint():
    gm = two_mode()
    assert abs(analytic_score(gm, np.array([0.5]))[0]) < 1e-12


def test_score_matches_log_pdf_finite_differences():
    # the grid deliberately avoids the three points where the score crosses
    # zero (near each mode and at the midpoint); a relative comparison is
    # meaningless against a vanishing reference
    gm = two_mode()
    h = 1e-6
    worst = 0.0
    for x in np.linspace(0.06, 0.94, 100):
        up = mixture_log_pdf_batch(gm, np.array([x + h]))[0]
        down = mixture_log_pdf_batch(gm, np.array([x - h]))[0]
        fd = (up - down) / (2.0 * h)
        got = analytic_score(gm, np.array([x]))[0]
        worst = max(worst, abs(got - fd) / max(abs(fd), 1e-12))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# high-density grid
# ---------------------------------------------------------------------------

def test_high_density_grid_stays_within_four_nats():
    gm = two_mode()
    grid = high_density_grid(gm, 10)
    assert grid.shape == (10, 1)
    logp = mixture_log_pdf_batch(gm, grid)
    peak = mixture_log_pdf_batch(gm, gm.means).max()
    assert np.all(logp >= peak - 4.0 - 1e-9)
    assert np.all((grid > 0.0) & (grid < 1.0))


def test_high_density_grid_rejects_bad_requests():
    gm = two_mode()
    with pytest.raises(ValueError):
        high_density_grid(gm, 0)
    with pytest.raises(ValueError):
        high_density_grid(gm, 5000)
    gm2 = GaussianMixture(
        np.array([1.0]), np.array([[0.5, 0.5]]), np.array([[0.01, 0.01]])
    )
    with pytest.raises(ValueError):
        high_density_grid(gm2, 10)


# ---------------------------------------------------------------------------
# optimal reconstruction
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(method="trapezoid")
    with pytest.raises(ValueError):
        QuadratureSpec(method="gauss_hermite")
    with pytest.raises(ValueError):
        QuadratureSpec(method="monte_carlo", n_samples=9999)
    QuadratureSpec()  # defaults are valid


def test_reconstruction_rejects_nonpositive_sigma():
    gm = single()
    with pytest.raises(ValueError):
        optimal_reconstruction(gm, 0.0, np.array([0.5]))
    with pytest.raises(ValueError):
        optimal_reconstruction(gm, -0.1, np.array([0.5]))


def test_reconstruction_single_gaussian_conjugacy():
    # posterior mean of N(mu, s^2) under N(0, sigma^2) corruption:
    # (s^2 x + sigma^2 mu) / (s^2 + sigma^2)
    gm = single(mu=0.5, s=0.1)
    got = optimal_reconstruction(gm, 0.1, np.array([0.7]))
    assert abs(got[0] - 0.6) < 1e-9
    for sigma in (0.05, 0.1, 0.2):
        for x in (0.3, 0.55, 0.72):
            want = (0.01 * x + sigma * sigma * 0.5) / (0.01 + sigma * sigma)
            got = optimal_reconstruction(gm, sigma, np.array([x]))
            assert abs(got[0] - want) < 1e-9


def test_reconstruction_zero_noise_limit():
    gm = single(mu=0.5, s=0.1)
    sigma = 1e-3
    for x in (0.3, 0.7, 0.9):
        recon = optimal_reconstruction(gm, sigma, np.array([x]))
        score = analytic_score(gm, np.array([x]))[0]
        assert abs(recon[0] - x) <= 1.1 * sigma * sigma * abs(score)


def test_reconstruction_gauss_hermite_agrees_with_monte_carlo():
    gm = two_mode()
    grid = high_density_grid(gm, 20)
    mc = QuadratureSpec(method="monte_carlo", n_samples=1_000_000, mc_seed=7)
    worst = 0.0
    for x in grid:
        a = gauss_hermite_posterior_mean(gm, 0.1, x)
        b = optimal_reconstruction(gm, 0.1, x, mc)
        worst = max(worst, abs(a[0] - b[0]))
    assert worst < 1e-3


def test_reconstruction_stays_inside_smoothing_envelope():
    # the output is a density-weighted average of x - eps draws, so it can
    # never leave the support of the data by more than a few sigma
    gm = two_mode()
    for sigma in (0.05, 0.2, 0.5):
        for x in (-0.2, 0.1, 0.5, 0.9, 1.2):
            recon = optimal_reconstruction(gm, sigma, np.array([x]))
            assert -4.0 * sigma < recon[0] < 1.0 + 4.0 * sigma


def test_reconstruction_pulls_toward_the_mass():
    gm = two_mode()
    assert optimal_reconstruction(gm, 0.1, np.array([0.9]))[0] < 0.9
    assert optimal_reconstruction(gm, 0.1, np.array([0.1]))[0] > 0.1


def test_reconstruction_2d_tensor_quadrature():
    gm = GaussianMixture(
        np.array([1.0]),
        np.array([[0.4, 0.6]]),
        np.array([[0.01, 0.0225]]),
    )
    got = gauss_hermite_posterior_mean(gm, 0.1, np.array([0.5, 0.5]))
    want0 = (0.01 * 0.5 + 0.01 * 0.4) / 0.02
    want1 = (0.0225 * 0.5 + 0.01 * 0.6) / 0.0325
    assert abs(got[0] - want0) < 1e-9
    assert abs(got[1] - want1) < 1e-9


def test_reconstruction_is_exact_far_from_mass():
    # log p_sigma(50) is about -96,000: the density itself underflows, yet
    # R* is the nearer component's shrunken mean (0.0025 * 50 + 0.01 * 0.65) / 0.0125
    gm = two_mode()
    got = optimal_reconstruction(gm, 0.1, np.array([50.0]))
    assert abs(got[0] - 10.52) <= 1e-12
    assert np.array_equal(got, mixture_posterior_mean(gm, 0.1, [[50.0]])[0])


@st.composite
def far_points(draw):
    """A mixture (d 1-3, k 1-5) on [0, 1], sigma in [0.01, 2], and points up
    to 1e3 from a component mean, far below any density floor."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    raw = draw(arrays(np.float64, k, elements=st.floats(0.05, 1.0)))
    means = draw(arrays(np.float64, (k, d), elements=st.floats(0.0, 1.0)))
    stds = draw(arrays(np.float64, (k, d), elements=st.floats(0.01, 0.5)))
    sigma = draw(st.floats(0.01, 2.0))
    n = draw(st.integers(1, 5))
    anchors = draw(arrays(np.intp, n, elements=st.integers(0, k - 1)))
    offsets = draw(arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3)))
    return GaussianMixture(raw / raw.sum(), means, stds * stds), sigma, means[anchors] + offsets


@settings(max_examples=200, deadline=None)
@given(case=far_points())
@example(case=(two_component_2d(), 0.01, np.array([[1e3, -1e3], [0.5, 0.5]])))
def test_reconstruction_is_exact_far_from_mass_on_random_mixtures(case):
    gm, sigma, xs = case
    got = optimal_reconstruction(gm, sigma, xs)
    want = mixture_posterior_mean(gm, sigma, xs)
    assert np.all(np.isfinite(got))
    scale = 1.0 + np.abs(xs).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-7 * scale)


def blob_template_mixture():
    """49 equal-weight 8x8 blob templates 0.1 + 0.8 * bump, centres on a
    7x7 grid over [2, 5]^2, bump std 1.2 pixels, pixel std 0.02."""
    axis = np.linspace(*BLOB_CENTER_BOX, 7)
    centers = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(49, 2)
    templates = 0.1 + 0.8 * (blob_images(centers) / BLOB_PEAK)
    return GaussianMixture(np.full(49, 1.0 / 49), templates, np.full((49, 64), 0.02**2))


def test_reconstruction_is_exact_for_uniform_noise_in_64d():
    # the smoothed log-density of each point is in the thousands of nats
    # below zero, yet the responsibilities are well defined
    gm = blob_template_mixture()
    assert confined_to_unit_box(gm)
    xs = Prng(0).uniform((4, 64))
    got = optimal_reconstruction(gm, 0.05, xs)
    assert np.max(np.abs(got - mixture_posterior_mean(gm, 0.05, xs))) <= 1e-12


_NO_FINITE_ROW = [
    np.nan,
    np.inf,
    -np.inf,
    # the squared distance overflows to inf: numpy warns, and the error follows
    pytest.param(1e200, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
]
_ROW_FUNCTIONS = {
    "optimal_reconstruction": lambda gm, x: optimal_reconstruction(gm, 0.1, x),
    "responsibilities": responsibilities,
    "analytic_score": analytic_score,
}


@pytest.mark.parametrize("name", sorted(_ROW_FUNCTIONS))
@pytest.mark.parametrize("bad", _NO_FINITE_ROW)
def test_row_with_no_finite_log_density_raises_numeric_error(name, bad):
    fn = _ROW_FUNCTIONS[name]
    gm = two_mode()
    with pytest.raises(NumericError, match="row 0"):
        fn(gm, np.array([bad]))
    with pytest.raises(NumericError, match="row 1"):
        fn(gm, np.array([[0.5], [bad], [0.4]]))
    with pytest.raises(NumericError, match="row 1"):
        fn(two_component_2d(), np.array([[0.5, 0.5], [0.3, bad]]))
    with pytest.raises(NumericError, match="row 0"):
        fn(two_component_2d(), np.array([0.3, bad]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gm, x", [
    (two_mode(), np.array([0.3])),
    (two_mode(), np.array([[0.3], [0.5]])),
    (two_component_2d(), np.array([0.3, 0.5])),
])
def test_sigma_whose_square_overflows_raises_numeric_error(gm, x):
    # v + sigma^2 is inf, so no component has a finite smoothed log-density
    with pytest.raises(NumericError, match=r"row 0 \(largest -inf\)"):
        optimal_reconstruction(gm, 1e200, x)


_LOG_DENSITY_FUNCTIONS = {
    "mixture_log_pdf_batch": mixture_log_pdf_batch,
    "mixture_log_pdf_and_mode": lambda gm, x: mixture_log_pdf_and_mode(gm, x)[0],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_LOG_DENSITY_FUNCTIONS))
def test_nan_row_in_the_log_density_raises_numeric_error(name):
    # no numpy "invalid value" warning comes first, and no nan comes back
    fn = _LOG_DENSITY_FUNCTIONS[name]
    gm = two_mode()
    with pytest.raises(NumericError, match="row 0"):
        fn(gm, np.array([np.nan]))
    with pytest.raises(NumericError, match="row 1"):
        fn(gm, np.array([[0.5], [np.nan], [0.4]]))
    with pytest.raises(NumericError, match="row 1"):
        fn(two_component_2d(), np.array([[0.5, 0.5], [0.3, np.nan]]))
    # an infinitely far point has no density: log p = -inf, not an error
    log_p = fn(gm, np.array([[np.inf], [0.5], [-np.inf]]))
    assert log_p[0] == log_p[2] == -np.inf and np.isfinite(log_p[1])


@pytest.mark.parametrize(
    "fn",
    [
        lambda gm, x: optimal_reconstruction(gm, 0.1, x),
        responsibilities,
        analytic_score,
        mixture_log_pdf_batch,
        mixture_log_pdf_and_mode,
    ],
)
def test_numeric_error_names_the_row_of_the_whole_batch_across_row_blocks(fn):
    # two rows per block: row 5 is the second row of the third block
    gm = two_component_2d()
    xs = np.full((8, 2), 0.5)
    xs[5, 1] = np.nan
    with mock.patch.object(oracle, "_WORKSPACE_BYTES", 2 * 8 * 2 * 2):
        with pytest.raises(NumericError, match=r"row 5 "):
            fn(gm, xs)


def test_reconstruction_is_exact_at_every_sigma_per_point_and_batched():
    # The closed form must agree with the independent conjugate reference at
    # every sigma the system trains (0.5) or checks at, including sigmas
    # where a quadrature over the noise misses the narrow modes.
    axis = np.linspace(-0.5, 1.5, 201)
    grid_2d = np.stack(np.meshgrid(axis[::10], axis[::10], indexing="ij"), -1).reshape(-1, 2)
    for gm, xs in ((two_mode(), axis[:, None]), (two_component_2d(), grid_2d)):
        for sigma in (2.0, 1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01):
            want = mixture_posterior_mean(gm, sigma, xs)
            points = np.array([optimal_reconstruction(gm, sigma, x) for x in xs])
            assert np.max(np.abs(points - want)) <= 1e-9, (gm.dim, sigma)
            batch = optimal_reconstruction(gm, sigma, xs)
            assert batch.shape == xs.shape
            assert np.array_equal(batch, points)
    far = np.array([[0.5], [50.0], [0.6]])
    batch = optimal_reconstruction(two_mode(), 0.1, far)
    assert np.max(np.abs(batch - mixture_posterior_mean(two_mode(), 0.1, far))) <= 1e-12
    assert np.array_equal(batch, [optimal_reconstruction(two_mode(), 0.1, x) for x in far])


@pytest.mark.parametrize("method", ["monte_carlo"])  # the one method QuadratureSpec takes
@pytest.mark.parametrize("bad", _NO_FINITE_ROW)
def test_quadrature_raises_numeric_error_where_the_closed_form_does(method, bad):
    quad = QuadratureSpec(method=method, n_samples=10_000)
    with pytest.raises(NumericError, match="no finite component log-density"):
        optimal_reconstruction(two_mode(), 0.1, np.array([bad]), quad)
    with pytest.raises(NumericError, match="no finite component log-density"):
        optimal_reconstruction(two_component_2d(), 0.1, np.array([0.3, bad]), quad)


def test_quadrature_estimator_runs_only_when_asked_for_single_points():
    gm = two_mode()
    x = np.array([[0.4]])
    quad = optimal_reconstruction(gm, 0.05, x, QuadratureSpec())
    assert quad.shape == (1, 1)
    gh = gauss_hermite_posterior_mean(gm, 0.05, x[0])
    assert abs(gh[0] - optimal_reconstruction(gm, 0.05, x)[0, 0]) < 1e-9
    with pytest.raises(ShapeError):
        optimal_reconstruction(gm, 0.05, np.array([[0.4], [0.6]]), QuadratureSpec())
    with pytest.raises(ShapeError):
        optimal_reconstruction(gm, 0.05, np.array([0.4, 0.6]))


@pytest.mark.parametrize(
    "mixture, point, want",
    [
        (two_mode, [0.45], ["0x1.b41d9bcc39fc4p-2"]),
        (two_component_2d, [0.45, 0.5], ["0x1.f73e19c8dd403p-2", "0x1.f2e3d92bddc53p-2"]),
    ],
    ids=["1d", "2d"],
)
def test_monte_carlo_estimate_has_pinned_bytes(mixture, point, want):
    # 200,000 draws span several row blocks (4 of 65,536 rows in 1-D, 7 of
    # 32,768 in 2-D), and one softmax sums all draws x components pairwise
    # in draw-major order, so the bits pin how the blocks are laid out
    got = optimal_reconstruction(
        mixture(), 0.1, np.array(point), QuadratureSpec(n_samples=200_000, mc_seed=11)
    )
    assert [float.hex(float(v)) for v in got] == want


def test_cli_import_loads_no_quadrature_rule():
    # the package averages no noise by Gauss-Hermite, so nothing imports
    # numpy.polynomial; a fresh interpreter sees what the CLI really loads
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, daechain.cli; print('numpy.polynomial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# reconstruction-to-score conversion
# ---------------------------------------------------------------------------

def test_score_from_reconstruction_fixed_point_and_linearity():
    x = np.array([0.3, 0.7])
    assert np.all(score_from_reconstruction(x, x, 0.1) == 0.0)
    r = np.array([0.35, 0.68])
    one = score_from_reconstruction(r, x, 0.1)
    two = score_from_reconstruction(x + 2.0 * (r - x), x, 0.1)
    assert np.allclose(two, 2.0 * one, atol=1e-12)


def test_score_from_reconstruction_rejects_zero_sigma():
    with pytest.raises(ValueError):
        score_from_reconstruction(np.array([0.5]), np.array([0.4]), 0.0)


@pytest.mark.parametrize("sigma", [1e-200, -1e-200, 1e200, math.inf, math.nan])
def test_score_from_reconstruction_rejects_a_sigma_whose_square_is_zero_or_not_finite(sigma):
    with pytest.raises(ValueError, match="sigma must be nonzero"):
        score_from_reconstruction(np.array([0.5]), np.array([0.4]), sigma)


def test_score_estimate_matches_conjugate_form():
    # (R(x) - x) / sigma^2 = (mu - x) / (s^2 + sigma^2) for a single Gaussian
    gm = single(mu=0.5, s=0.1)
    sigma = 0.05
    for x in (0.3, 0.62):
        recon = optimal_reconstruction(gm, sigma, np.array([x]))
        est = score_from_reconstruction(recon, np.array([x]), sigma)
        want = (0.5 - x) / (0.01 + sigma * sigma)
        assert abs(est[0] - want) < 1e-7


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_study_matches_exact_error_ratio():
    gm = single(mu=0.5, s=0.1)
    grid = np.linspace(0.3, 0.7, 21)[:, None]
    sigmas = (0.2, 0.1, 0.05, 0.02, 0.01)
    study = limit_convergence_study(gm, sigmas, grid)
    assert study.non_increasing
    for sigma, err in zip(study.sigmas, study.max_rel_errors):
        want = sigma * sigma / (0.01 + sigma * sigma)
        assert abs(err - want) <= 1e-6
    # spot values quoted for orientation: about 20% at 0.05, about 1% at 0.01
    assert abs(study.max_rel_errors[2] - 0.2) < 1e-3
    assert abs(study.max_rel_errors[4] - 0.0099) < 1e-4


def test_convergence_study_single_sigma():
    gm = single()
    study = limit_convergence_study(gm, [0.1], np.array([[0.55]]))
    assert len(list(zip(study.sigmas, study.max_rel_errors))) == 1
    assert study.non_increasing


def test_convergence_study_validation():
    gm = single(mu=0.5, s=0.1)
    grid = np.array([[0.5]])
    with pytest.raises(ValueError):
        limit_convergence_study(gm, [0.05, 0.1], grid)
    with pytest.raises(ValueError):
        limit_convergence_study(gm, [-0.1], grid)
    with pytest.raises(ValueError):
        limit_convergence_study(gm, [0.1], np.array([[0.05]]))
    with pytest.raises(ValueError, match="grid has no points"):
        limit_convergence_study(gm, [0.1], np.empty((0, 1)))


# ---------------------------------------------------------------------------
# brute-force cross-check of the posterior-mean formula
# ---------------------------------------------------------------------------

def test_quadrature_matches_brute_force_bce_minimizer():
    # scan the pointwise corrupted-BCE objective on an r-grid of step 1e-4,
    # averaged over two million noise draws, and compare the argmin with the
    # Gauss-Hermite evaluation of the posterior mean; the Monte-Carlo noise
    # floor at this draw count sits near 1e-4, inside the 2e-4 budget
    gm = two_mode()
    sigma = 0.1
    points = [0.28, 0.315, 0.35, 0.385, 0.42, 0.58, 0.615, 0.65, 0.685, 0.72]
    worst = 0.0
    for x in points:
        direct = gauss_hermite_posterior_mean(gm, sigma, np.array([x]))[0]
        scanned = bce_grid_minimizer(gm, sigma, x, n_draws=2_000_000, seed=0)
        worst = max(worst, abs(direct - scanned))
    assert worst <= 2e-4


# ---------------------------------------------------------------------------
# byte pin: the package's closed form against the written-out reference
# ---------------------------------------------------------------------------

def _random_mixture(gen, k, d):
    raw = gen.uniform(0.05, 1.0, k)
    stds = gen.uniform(0.01, 0.5, (k, d))
    return GaussianMixture(raw / raw.sum(), gen.uniform(0.0, 1.0, (k, d)), stds * stds)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def byte_pin_cases(draw):
    """Two mixtures of k (1-50) components in d (1-64) dims, a row-block budget
    of 1-4 rows, points spanning three to four blocks at 0.01 to 10 mixture
    widths from a component mean, and 1-6 calls, each on either mixture at one
    of two sigmas in [1e-3, 2]."""
    k, d = draw(st.integers(1, 50)), draw(st.integers(1, 64))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixtures = [_random_mixture(gen, k, d) for _ in range(2)]
    block = draw(st.integers(1, 4))
    n = draw(st.integers(2 * block + 1, 4 * block))
    anchors = gen.integers(0, k, n)
    scale = gen.choice([0.01, 0.1, 1.0, 10.0], (n, 1))
    points = mixtures[0].means[anchors] + scale * gen.standard_normal((n, d))
    sigmas = draw(st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=2))
    calls = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=6))
    return mixtures, block, points, [(mixtures[m], sigmas[s]) for m, s in calls]


def fixed_byte_pin_case(k, d):
    """A byte_pin_cases case of fixed shape: 13 points in blocks of 4 rows."""
    gen = np.random.default_rng(k * 100 + d)
    mixtures = [_random_mixture(gen, k, d) for _ in range(2)]
    points = mixtures[0].means[gen.integers(0, k, 13)] + 0.1 * gen.standard_normal((13, d))
    return mixtures, 4, points, [(mixtures[0], 0.05), (mixtures[1], 0.05), (mixtures[0], 2.0)]


def signed_zero_byte_pin_case():
    """Two 1-D mixtures whose means are all -0.0, at points -0.0 and 0.0 among
    others: R*(-0.0) sums -0.0 terms, which np.add.reduce, starting from
    +0.0, adds up to +0.0."""
    mixtures = [
        GaussianMixture([0.5, 0.5], [[-0.0], [-0.0]], [[0.01], [0.04]]),
        GaussianMixture([0.3, 0.7], [[-0.0], [-0.0]], [[0.02], [0.09]]),
    ]
    points = np.array([-0.0, 0.0, -0.0, -0.0, 0.1, -0.0, 0.0, -0.2, -0.0])[:, None]
    return mixtures, 4, points, [(mixtures[0], 0.05), (mixtures[1], 0.5)]


@settings(max_examples=150, deadline=None)
@given(case=byte_pin_cases())
# the largest shapes, and those where numpy's pairwise summation starts (8
# terms): at d = 1, 7 components are the last left-to-right sum, 8 the first
# pairwise one
@example(case=fixed_byte_pin_case(50, 64))
@example(case=fixed_byte_pin_case(8, 8))
@example(case=fixed_byte_pin_case(7, 1))
@example(case=fixed_byte_pin_case(8, 1))
@example(case=fixed_byte_pin_case(9, 1))
@example(case=fixed_byte_pin_case(1, 9))
# the largest mixture optimal_reconstruction takes a single point of in
# Python floats, and the smallest ones on either side of that guard
@example(case=fixed_byte_pin_case(7, 7))
@example(case=fixed_byte_pin_case(7, 8))
@example(case=fixed_byte_pin_case(8, 7))
@example(case=signed_zero_byte_pin_case())
def test_closed_form_has_the_bytes_of_the_written_out_reference(case):
    mixtures, block, xs, calls = case
    d, k = xs.shape[1], mixtures[0].n_components
    with mock.patch.object(oracle, "_WORKSPACE_BYTES", block * 8 * k * d):
        # alternating mixtures and sigmas, with log p (sigma = 0) between the
        # R* calls: each evicts the other from the one kept set of constants
        for gm, sigma in calls:
            _assert_same_bytes(optimal_reconstruction(gm, sigma, xs), ref.optimal_reconstruction(gm, sigma, xs))
            _assert_same_bytes(mixture_log_pdf_batch(gm, xs), ref.mixture_log_pdf_batch(gm, xs))
            for i in range(len(xs)):
                _assert_same_bytes(optimal_reconstruction(gm, sigma, xs[i]), ref.optimal_reconstruction(gm, sigma, xs[i:i + 1])[0])
            _assert_same_bytes(mixture_log_pdf_and_mode(gm, xs)[0], ref.mixture_log_pdf_batch(gm, xs))
        for gm in mixtures:
            _assert_same_bytes(responsibilities(gm, xs), ref.responsibilities(gm, xs))
            _assert_same_bytes(analytic_score(gm, xs), ref.analytic_score(gm, xs))
            _assert_same_bytes(analytic_score(gm, xs[0]), ref.analytic_score(gm, xs[:1])[0])
            _assert_same_bytes(mixture_log_pdf_batch(gm, xs), ref.mixture_log_pdf_batch(gm, xs))
            log_p, mode = mixture_log_pdf_and_mode(gm, xs)
            want_log_p, want_mode = ref.mixture_log_pdf_and_mode(gm, xs)
            _assert_same_bytes(log_p, want_log_p)
            _assert_same_bytes(mode, want_mode)


def test_closed_form_has_the_reference_bytes_in_default_row_blocks():
    # 1024 rows of the 64-d blob mixture take 25 blocks of 41 rows
    gm = blob_template_mixture()
    xs = Prng(3).uniform((1024, 64))
    _assert_same_bytes(optimal_reconstruction(gm, 0.05, xs), ref.optimal_reconstruction(gm, 0.05, xs))
    _assert_same_bytes(mixture_log_pdf_batch(gm, xs), ref.mixture_log_pdf_batch(gm, xs))
    assert np.array_equal(mixture_log_pdf_and_mode(gm, xs)[1], ref.mixture_log_pdf_and_mode(gm, xs)[1])


def test_1d_closed_form_has_the_reference_bytes_across_a_65536_row_block():
    # 70,000 rows of a 1-D two-component mixture take a block of 65,536 rows
    # and one of 4,464, both one component at a time. Signed zeros sit at
    # the start and on both sides of the block edge; for the log-density
    # functions, the only ones that accept them, overflowing and infinite
    # points take the rows around the edge
    gm = two_mode()
    xs = Prng(5).uniform((70_000, 1), -0.5, 1.5)
    xs[:2, 0] = (0.0, -0.0)
    xs[65_534:65_538, 0] = (-0.0, 0.0, 0.0, -0.0)
    far = xs.copy()
    far[65_530:65_542, 0] = (1e300, -1e300, np.inf, -np.inf) * 3
    with np.errstate(over="ignore"):  # the far points square to inf
        _assert_same_bytes(mixture_log_pdf_batch(gm, far), ref.mixture_log_pdf_batch(gm, far))
        log_p, mode = mixture_log_pdf_and_mode(gm, far)
        want_log_p, want_mode = ref.mixture_log_pdf_and_mode(gm, far)
    _assert_same_bytes(log_p, want_log_p)
    _assert_same_bytes(mode, want_mode)
    assert np.isneginf(log_p[65_530:65_542]).all()
    _assert_same_bytes(responsibilities(gm, xs), ref.responsibilities(gm, xs))
    _assert_same_bytes(analytic_score(gm, xs), ref.analytic_score(gm, xs))
    for sigma in (0.05, 0.5):
        _assert_same_bytes(optimal_reconstruction(gm, sigma, xs), ref.optimal_reconstruction(gm, sigma, xs))


def test_mixture_keeps_read_only_copies_of_its_arrays():
    w, m, v = np.array([0.5, 0.5]), np.array([[0.35], [0.65]]), np.array([[0.0025], [0.0025]])
    gm = GaussianMixture(w, m, v)
    xs = np.linspace(0.0, 1.0, 11)[:, None]
    before = optimal_reconstruction(gm, 0.1, xs), mixture_log_pdf_batch(gm, xs)
    w[:] = (0.9, 0.1)
    m += 0.1
    v *= 4.0
    after = optimal_reconstruction(gm, 0.1, xs), mixture_log_pdf_batch(gm, xs)
    for a, b in zip(before, after):
        _assert_same_bytes(a, b)
    assert gm.means[0, 0] == 0.35 and gm.variances[1, 0] == 0.0025 and gm.weights[0] == 0.5
    for array in (gm.weights, gm.means, gm.variances):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_mixtures_compare_and_hash_by_identity():
    args = ([0.5, 0.5], [[0.35], [0.65]], [[0.0025], [0.0025]])
    gm, twin = GaussianMixture(*args), GaussianMixture(*args)
    assert gm == gm
    assert gm != twin  # no elementwise comparison of the arrays
    table = {gm: 1}
    assert table[gm] == 1 and twin not in table
    assert DatasetSpec("mixture1d", 10, gm) == DatasetSpec("mixture1d", 10, gm)
    assert len({DatasetSpec("mixture1d", 10, gm), DatasetSpec("mixture1d", 10, gm)}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        gm.weights = twin.weights


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closed_form_memory_is_bounded_by_its_row_blocks():
    # 1024 rows of the 49-component 64-d blob mixture peaked at 77 MB when
    # the (n, k, d) intermediates were built whole; in row blocks ~1-2 MB
    gm = blob_template_mixture()
    xs = Prng(0).uniform((1024, 64))
    assert _peak_bytes(optimal_reconstruction, gm, 0.05, xs) <= 10e6
    assert _peak_bytes(mixture_log_pdf_and_mode, gm, xs) <= 10e6
    # 1e5 1-D rows peaked at 6.6 MB whole; in two blocks ~3 MB
    xs = np.random.default_rng(0).random((100_000, 1))
    assert _peak_bytes(optimal_reconstruction, two_mode(), 0.5, xs) <= 6.6e6
