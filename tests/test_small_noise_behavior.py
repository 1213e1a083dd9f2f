"""Noise-scale behavior of trained models and the exact denoiser.

The exact (posterior-mean) denoiser's implied score is that of the
sigma-smoothed density, so the acceptance suite's score and chain-ascent
checks (criteria 6 and 7) hold only at small noise. These tests pin that
down. At SCORE_SIGMA = 0.05, the sigma criteria 6 and 7 run at, the
closed-form denoiser clears both criteria's thresholds, so a change of
that sigma fails here before any trained model is involved. At sigma =
0.5 the closed-form denoiser fails them, because the 0.5-smoothed
two-mode mixture is unimodal at the midpoint. Sigma = 0.1 sits between:
the exact map's Pearson correlation is only 0.883, below criterion 6's
0.9, so the sigma-0.1 score test asserts 0.85. The trained model tracks
the exact map, so these outcomes are properties of the noise scale, not
of the implementation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import mixture_posterior_mean

from daechain.models import reconstruct
from daechain.numeric import Prng
from daechain.oracle import (
    GaussianMixture,
    analytic_score,
    high_density_grid,
    mixture_log_pdf_batch,
    optimal_reconstruction,
)
from daechain.sampler import ChainConfig, refine_from_prior, sample_from_noise

GRID_POINTS = 100


def score_stats(gm, grid, estimate):
    truth = analytic_score(gm, grid)
    sign = float(np.mean(np.sign(estimate) == np.sign(truth)))
    pearson = float(np.corrcoef(estimate[:, 0], truth[:, 0])[0, 1])
    return sign, pearson


def test_small_noise_model_score_passes_large_noise_thresholds(
    two_mode_mixture, small_noise_dae
):
    grid = high_density_grid(two_mode_mixture, GRID_POINTS)
    sigma = small_noise_dae.corruption.sigma
    estimate = (reconstruct(small_noise_dae, grid) - grid) / (sigma * sigma)
    sign, pearson = score_stats(two_mode_mixture, grid, estimate)
    assert sign >= 0.95
    assert pearson >= 0.85


def test_trained_model_tracks_exact_denoiser(two_mode_mixture, small_noise_dae):
    grid = high_density_grid(two_mode_mixture, GRID_POINTS)
    sigma = small_noise_dae.corruption.sigma
    model_est = (reconstruct(small_noise_dae, grid) - grid) / (sigma * sigma)
    exact_est = (mixture_posterior_mean(two_mode_mixture, sigma, grid) - grid) / (
        sigma * sigma
    )
    model_sign, model_pearson = score_stats(two_mode_mixture, grid, model_est)
    exact_sign, exact_pearson = score_stats(two_mode_mixture, grid, exact_est)
    # The trained map should be close to the best achievable one.
    assert model_sign >= exact_sign - 0.02
    assert model_pearson >= exact_pearson - 0.05


def test_exact_denoiser_clears_criteria_6_and_7_at_score_sigma(
    two_mode_mixture, score_sigma
):
    # Criteria 6 and 7 evaluate a model trained at score_sigma, and no model
    # can beat its own optimal target, so the exact map must clear both
    # criteria's thresholds there, with the same grid, chains and seed.
    grid = high_density_grid(two_mode_mixture, GRID_POINTS)
    estimate = (mixture_posterior_mean(two_mode_mixture, score_sigma, grid) - grid) / (
        score_sigma * score_sigma
    )
    sign, pearson = score_stats(two_mode_mixture, grid, estimate)
    assert sign >= 0.95
    assert pearson >= 0.9
    x = Prng(2).uniform((256, 1))
    start = x.copy()
    for _ in range(20):
        x = mixture_posterior_mean(two_mode_mixture, score_sigma, x)
    gains = mixture_log_pdf_batch(two_mode_mixture, x) - mixture_log_pdf_batch(
        two_mode_mixture, start
    )
    assert float(np.mean(gains > 0.0)) >= 0.9
    assert float(np.median(gains)) > 0.0


def test_exact_denoiser_fails_sign_match_at_large_noise(two_mode_mixture):
    # At sigma = 0.5 the smoothed mixture has a single mode at 0.5, so the
    # implied score points toward the midpoint from both sides and can
    # agree with the true score on only about half of the grid. No model,
    # however well trained, can beat its own optimal target.
    grid = high_density_grid(two_mode_mixture, GRID_POINTS)
    estimate = (mixture_posterior_mean(two_mode_mixture, 0.5, grid) - grid) / 0.25
    sign, _ = score_stats(two_mode_mixture, grid, estimate)
    assert sign < 0.6


def test_small_noise_chains_climb_density(two_mode_mixture, small_noise_dae):
    trace = sample_from_noise(
        small_noise_dae, 256, ChainConfig(steps=20), Prng(2), two_mode_mixture
    )
    gains = trace.log_densities[-1] - trace.log_densities[0]
    assert float(np.mean(gains > 0.0)) >= 0.9
    assert float(np.median(gains)) > 0.0


def test_exact_denoiser_chains_descend_at_large_noise(two_mode_mixture):
    # The same ascent check fails for the ideal sigma = 0.5 operator: its
    # fixed point is the midpoint, a density valley between the modes.
    x = Prng(2).uniform((256, 1))
    start = x.copy()
    for _ in range(20):
        x = mixture_posterior_mean(two_mode_mixture, 0.5, x)
    gains = mixture_log_pdf_batch(two_mode_mixture, x) - mixture_log_pdf_batch(
        two_mode_mixture, start
    )
    assert float(np.mean(gains > 0.0)) < 0.6
    assert float(np.median(gains)) < 0.0
    midpoint = mixture_posterior_mean(two_mode_mixture, 0.5, np.array([[0.5]]))[0, 0]
    assert abs(midpoint - 0.5) <= 1e-12


def test_small_noise_prior_refinement_keeps_density(two_mode_mixture, small_noise_dvae):
    trace = refine_from_prior(
        small_noise_dvae, 256, ChainConfig(steps=10), Prng(2), two_mode_mixture
    )
    assert trace.log_densities[-1].mean() >= trace.log_densities[0].mean() - 0.1


# ---------------------------------------------------------------------------
# the ascent theorem: an exact step never lowers log p_sigma
# ---------------------------------------------------------------------------

def smoothed(gm, sigma):
    """p_sigma = p * N(0, sigma^2 I), itself a mixture with variances v + sigma^2."""
    return GaussianMixture(gm.weights, gm.means, gm.variances + sigma**2)


@st.composite
def ascent_cases(draw):
    """A mixture (d 1-3, k 1-5), a sigma in [0.01, 2] and 64 starts in [-0.5, 1.5]^d."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.05, 1.0, k)
    gm = GaussianMixture(
        w / w.sum(), rng.uniform(0.0, 1.0, (k, d)), 10.0 ** rng.uniform(-4.0, -1.0, (k, d))
    )
    sigma = draw(st.floats(0.01, 2.0))
    return gm, sigma, rng.uniform(-0.5, 1.5, (64, d))


@settings(max_examples=200, deadline=None)
@given(case=ascent_cases())
def test_an_exact_step_never_lowers_the_smoothed_log_density(case):
    # Tweedie: R*(x) - x = sigma^2 grad log p_sigma(x). Jensen over the
    # smoothed responsibilities bounds log p_sigma below by a concave
    # quadratic touching it at x, of curvature below 1 / sigma^2 per
    # coordinate, and the step sigma^2 * grad raises that bound: each exact
    # step is a minorize-maximize (damped Gaussian mean-shift) step.
    gm, sigma, xs = case
    p_sigma = smoothed(gm, sigma)
    before = mixture_log_pdf_batch(p_sigma, xs)
    after = mixture_log_pdf_batch(p_sigma, optimal_reconstruction(gm, sigma, xs))
    slack = 1e-12 * np.maximum(1.0, np.abs(before))
    assert np.all(after - before >= -slack)


def test_an_exact_step_can_lower_log_p_while_it_raises_log_p_sigma(two_mode_mixture):
    # The theorem is about p_sigma, not p: at sigma = 0.5 the smoothed
    # two-mode mixture is unimodal at the midpoint, so a step from a mode of
    # p climbs p_sigma into the trough of p.
    x = np.array([[0.35]])
    step = optimal_reconstruction(two_mode_mixture, 0.5, x)
    p_sigma = smoothed(two_mode_mixture, 0.5)
    assert mixture_log_pdf_batch(p_sigma, step)[0] > mixture_log_pdf_batch(p_sigma, x)[0]
    assert mixture_log_pdf_batch(two_mode_mixture, step)[0] < mixture_log_pdf_batch(two_mode_mixture, x)[0]
