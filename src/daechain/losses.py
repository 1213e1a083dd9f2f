"""Reconstruction and regularization losses with hand-derived gradients.

Every objective returns one LossValue: the scalar value and its gradient
with respect to the tensor that the training step backpropagates.

- mse_loss, bce_loss: a mean over every element (batch and feature dims);
  the gradient is with respect to the reconstruction.
- kl_to_standard_normal: a mean over the batch of a sum over latent dims;
  the gradient is with respect to the encoder output [mu | logvar].
- adversarial_losses: BCE of discriminator scores against one constant
  label; the gradient is with respect to the scores.

Means are np.add.reduce(..., axis=None) / n and clamps np.minimum of
np.maximum: np.mean's and np.clip's bits, without their Python wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ShapeError

BCE_CLAMP = 1e-7


@dataclass(frozen=True, eq=False)
class LossValue:
    """Scalar loss plus its gradient with respect to the backpropagated tensor."""

    value: float
    grad: np.ndarray


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
    return LossValue(float(np.add.reduce(diff * diff, axis=None) / n), 2.0 * diff / n)


def bce_loss(target, reconstruction) -> LossValue:
    """Binary cross-entropy for real-valued targets in [0, 1].

    value = mean(-(x log r + (1 - x) log1p(-r)))
    grad  = -(x / r - (1 - x) / (1 - r)) / N

    Reconstructions are clamped to [1e-7, 1 - 1e-7] before the logs, so the
    value and gradient stay finite even at saturated outputs. The clamp goes
    into a new array; value and gradient are built in two more, operation by
    operation in the formulas' order.
    """
    x, r = _check_pair(target, reconstruction)
    if not (x.min() >= 0.0 and x.max() <= 1.0):  # a NaN fails both comparisons
        raise ValueError("bce targets must lie in [0, 1]")
    r = np.maximum(r, BCE_CLAMP)
    np.minimum(r, 1.0 - BCE_CLAMP, out=r)
    n, x_bar = x.size, 1.0 - x
    a = np.log(r)
    a *= x
    b = np.negative(r)
    np.log1p(b, out=b)
    b *= x_bar
    a += b
    value = float(np.add.reduce(np.negative(a, out=a), axis=None) / n)
    np.divide(x, r, out=a)
    np.divide(x_bar, np.subtract(1.0, r, out=b), out=b)
    a -= b
    np.negative(a, out=a)
    a /= n
    return LossValue(value, a)


def kl_to_standard_normal(mu, logvar) -> LossValue:
    """KL divergence of a diagonal Gaussian posterior from N(0, I).

    value = mean over batch of 0.5 * sum_j (exp(logvar) + mu^2 - 1 - logvar)
    grad  = [mu | 0.5 (exp(logvar) - 1)] / batch, shaped like [mu | logvar]

    The value is 0.5 * sum(exp(logvar) + mu * mu - 1 - logvar) / batch, and
    both halves of the gradient go into one (batch, 2L) array.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ShapeError(f"mu shape {mu.shape} does not match logvar shape {logvar.shape}")
    if mu.ndim != 2 or mu.size == 0:
        raise ShapeError(f"posterior stats must be (batch, latent), got {mu.shape}")
    batch, latent = mu.shape
    var = np.exp(logvar)
    terms = np.multiply(mu, mu)
    terms += var
    terms -= 1.0
    terms -= logvar
    value = float(0.5 * np.add.reduce(terms, axis=None) / batch)
    grad = np.empty((batch, 2 * latent))
    np.divide(mu, batch, out=grad[:, :latent])
    var -= 1.0  # in var, contiguous: an in-place pass over a strided half costs more
    var *= 0.5
    var /= batch
    grad[:, latent:] = var
    return LossValue(value, grad)


def adversarial_losses(scores, real: bool) -> LossValue:
    """BCE of discriminator scores in [0, 1] against the label 1 (real) or 0.

    real:  value = mean(-log s),       grad = -1 / (s N)
    fake:  value = mean(-log(1 - s)),  grad = 1 / ((1 - s) N)

    The discriminator labels prior draws 1 and encodings 0; the encoder
    plays the non-saturating objective, label 1 on its own encodings.
    Scores are clamped like bce_loss before the logs.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("adversarial loss needs a non-empty score tensor")
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("discriminator scores must lie in [0, 1]")
    s = np.minimum(np.maximum(s, BCE_CLAMP), 1.0 - BCE_CLAMP)
    n = s.size
    if real:
        return LossValue(float(np.add.reduce(-np.log(s), axis=None) / n), -1.0 / (s * n))
    return LossValue(float(np.add.reduce(-np.log1p(-s), axis=None) / n), 1.0 / ((1.0 - s) * n))
