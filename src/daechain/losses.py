"""Reconstruction and regularization losses with hand-derived gradients.

All reductions are means over every element (batch and feature dims), except
the KL term, which is a mean over the batch of a sum over latent dims. Each
function returns both the scalar value and the gradient with respect to the
quantity a training step needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ShapeError

BCE_CLAMP = 1e-7


@dataclass(frozen=True, eq=False)
class LossValue:
    """Scalar loss plus gradient with respect to the reconstruction."""

    value: float
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class KlValue:
    """Scalar KL(q || N(0, I)) plus gradients for the posterior stats."""

    value: float
    grad_mu: np.ndarray
    grad_logvar: np.ndarray


@dataclass(frozen=True, eq=False)
class AdversarialLosses:
    """Discriminator and non-saturating generator (encoder) objectives.

    disc_value  = BCE(1, scores_prior) + BCE(0, scores_encoded)
    enc_value   = BCE(1, scores_encoded)
    Gradients are with respect to the raw score tensors.
    """

    disc_value: float
    enc_value: float
    grad_disc_prior: np.ndarray
    grad_disc_encoded: np.ndarray
    grad_enc_encoded: np.ndarray


def _check_pair(target, reconstruction):
    x = np.asarray(target, dtype=np.float64)
    r = np.asarray(reconstruction, dtype=np.float64)
    if x.shape != r.shape:
        raise ShapeError(
            f"target shape {x.shape} does not match reconstruction shape {r.shape}"
        )
    if x.size == 0:
        raise ValueError("loss over an empty tensor is undefined")
    return x, r


def mse_loss(target, reconstruction) -> LossValue:
    """Mean squared error: mean((r - x)^2) with gradient 2 (r - x) / N."""
    x, r = _check_pair(target, reconstruction)
    diff = r - x
    n = x.size
    return LossValue(float(np.mean(diff * diff)), 2.0 * diff / n)


def bce_loss(target, reconstruction) -> LossValue:
    """Binary cross-entropy for real-valued targets in [0, 1].

    value = mean(-(x log r + (1 - x) log(1 - r)))
    grad  = -(x / r - (1 - x) / (1 - r)) / N

    Reconstructions are clamped to [1e-7, 1 - 1e-7] before the logs, so the
    value and gradient stay finite even at saturated outputs.
    """
    x, r = _check_pair(target, reconstruction)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("bce targets must lie in [0, 1]")
    r = np.clip(r, BCE_CLAMP, 1.0 - BCE_CLAMP)
    value = float(np.mean(-(x * np.log(r) + (1.0 - x) * np.log1p(-r))))
    n = x.size
    grad = -(x / r - (1.0 - x) / (1.0 - r)) / n
    return LossValue(value, grad)


def kl_to_standard_normal(mu, logvar) -> KlValue:
    """KL divergence of a diagonal Gaussian posterior from N(0, I).

    value = mean over batch of 0.5 * sum_j (exp(logvar) + mu^2 - 1 - logvar)
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ShapeError(f"mu shape {mu.shape} does not match logvar shape {logvar.shape}")
    if mu.ndim != 2 or mu.size == 0:
        raise ShapeError(f"posterior stats must be (batch, latent), got {mu.shape}")
    batch = mu.shape[0]
    var = np.exp(logvar)
    value = float(0.5 * np.sum(var + mu * mu - 1.0 - logvar) / batch)
    return KlValue(value, mu / batch, 0.5 * (var - 1.0) / batch)


def adversarial_losses(scores_prior, scores_encoded) -> AdversarialLosses:
    """Two-player objectives on discriminator outputs in (0, 1).

    The discriminator is pushed toward 1 on prior draws and 0 on encoded
    latents; the encoder plays the non-saturating objective, pushing its own
    scores toward 1. Scores are clamped like bce_loss before the logs.
    """
    sp = np.asarray(scores_prior, dtype=np.float64)
    se = np.asarray(scores_encoded, dtype=np.float64)
    if sp.size == 0 or se.size == 0:
        raise ValueError("adversarial losses need non-empty score tensors")
    for name, s in (("prior", sp), ("encoded", se)):
        if np.min(s) < 0.0 or np.max(s) > 1.0:
            raise ValueError(f"{name} scores must lie in [0, 1], got values outside")
    sp = np.clip(sp, BCE_CLAMP, 1.0 - BCE_CLAMP)
    se = np.clip(se, BCE_CLAMP, 1.0 - BCE_CLAMP)
    np_, ne = sp.size, se.size
    disc_value = float(np.mean(-np.log(sp)) + np.mean(-np.log1p(-se)))
    enc_value = float(np.mean(-np.log(se)))
    return AdversarialLosses(
        disc_value=disc_value,
        enc_value=enc_value,
        grad_disc_prior=-1.0 / (sp * np_),
        grad_disc_encoded=1.0 / ((1.0 - se) * ne),
        grad_enc_encoded=-1.0 / (se * ne),
    )
