"""Closed-form optimal denoiser for diagonal Gaussian mixtures.

For x_noisy = x + eps, eps ~ N(0, sigma^2 I), and a mixture of diagonal
Gaussians, conjugacy gives the posterior mean exactly: the responsibilities
of the sigma-smoothed mixture (variances v + sigma^2) weight the per-component
shrunken means (v x + sigma^2 mu) / (v + sigma^2). This is the reference the
benchmark compares the package's oracle and trained models against; it uses
only numpy, never the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import numpy as np


def _responsibilities(weights, means, variances, xs):
    """Component posteriors (n, k) of points xs (n, d), and the offsets xs - means."""
    diff = xs[:, None, :] - means[None, :, :]
    logr = -0.5 * ((diff * diff) / variances + np.log(2.0 * np.pi * variances)).sum(axis=2)
    logr += np.log(weights)[None, :]
    logr -= logr.max(axis=1, keepdims=True)
    resp = np.exp(logr)
    return resp / resp.sum(axis=1, keepdims=True), diff


def _arrays(weights, means, variances, xs):
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64).reshape(w.shape[0], -1)
    v = np.asarray(variances, dtype=np.float64).reshape(mu.shape)
    return w, mu, v, np.atleast_2d(np.asarray(xs, dtype=np.float64))


def posterior_mean(weights, means, variances, sigma: float, xs) -> np.ndarray:
    """R*(x) for each row of xs (n, d); weights (k,), means and variances (k, d)."""
    w, mu, v, xs = _arrays(weights, means, variances, xs)
    s2 = float(sigma) ** 2
    var = v + s2
    resp, _ = _responsibilities(w, mu, var, xs)
    cond = (v[None, :, :] * xs[:, None, :] + s2 * mu[None, :, :]) / var[None, :, :]
    return np.einsum("nk,nkd->nd", resp, cond)


def mixture_score(weights, means, variances, xs) -> np.ndarray:
    """d/dx log p(x) of the unsmoothed mixture, one row per point."""
    w, mu, v, xs = _arrays(weights, means, variances, xs)
    resp, diff = _responsibilities(w, mu, v, xs)
    return np.einsum("nk,nkd->nd", resp, -diff / v[None, :, :])


def convergence_errors(weights, means, variances, sigmas, grid) -> list[float]:
    """Exact worst-case relative score error per sigma, as oracle-check tabulates it.

    Points where the true score vanishes contribute their absolute error.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    truth = mixture_score(weights, means, variances, grid)
    norm = np.linalg.norm(truth, axis=1)
    nonzero = norm > 1e-12
    out = []
    for s in sigmas:
        est = (posterior_mean(weights, means, variances, s, grid) - grid) / (s * s)
        err = np.linalg.norm(est - truth, axis=1)
        out.append(float(np.max(np.where(nonzero, err / np.where(nonzero, norm, 1.0), err))))
    return out
