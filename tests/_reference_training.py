"""A plain reference of the training arithmetic, written out step by step.

Every layer is a gemm plus bias into a new array, the hidden derivative is
recomputed from the pre-activation with ``np.where``, and Adam builds new
moment arrays on every step, exactly as the operations read on paper. The
package trains with workspaces, broadcast fan-in-1 layers, cached masks
and in-place updates; tests require its fits to equal this one byte for
byte. The losses are written out here too, each value and gradient as a
formula: BCE and MSE over the reconstruction, the KL term over mu and
logvar, and one BCE term per adversarial side (label 1 on prior draws and
on the encoder's fooling scores, label 0 on encodings), the
discriminator's two terms summed as numpy scalars. Model construction,
corruption and the random stream are shared with the package: they are
not what this reference checks.
"""

from __future__ import annotations

import numpy as np

from daechain.models import build_model, corrupt
from daechain.numeric import Prng, derivative_of_sigmoid, sigmoid


def forward(mlp, x, dropout_rate=0.0, rng=None):
    spec = mlp.spec
    inputs, preacts, masks = [], [], []
    h = x
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        z = h @ w.T + b
        preacts.append(z)
        if i == spec.n_layers - 1:
            out = sigmoid(z) if spec.output_activation == "sigmoid" else z
            return out, (inputs, preacts, masks, out)
        if spec.hidden_activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = np.where(z >= 0, z, spec.leaky_slope * z)
        mask = None
        if dropout_rate > 0.0:
            keep = rng.uniform(a.shape) >= dropout_rate
            mask = keep / (1.0 - dropout_rate)
            a = a * mask
        masks.append(mask)
        h = a


def backward(mlp, cache, grad_output):
    """(flat parameter gradient in the layout of mlp.flat, input gradient)."""
    spec = mlp.spec
    inputs, preacts, masks, out = cache
    slope = spec.leaky_slope if spec.hidden_activation == "leaky_relu" else 0.0
    g = grad_output * derivative_of_sigmoid(out) if spec.output_activation == "sigmoid" else grad_output
    parts = []
    for i in reversed(range(spec.n_layers)):
        parts[:0] = [(g.T @ inputs[i]).ravel(), g.sum(axis=0)]
        g = g @ mlp.weights[i]
        if i > 0:
            if masks[i - 1] is not None:
                g = g * masks[i - 1]
            g = g * np.where(preacts[i - 1] >= 0, 1.0, slope)
    return np.concatenate(parts), g


class Adam:
    def __init__(self, mlp, cfg):
        self.m = np.zeros_like(mlp.flat)
        self.v = np.zeros_like(mlp.flat)
        self.t = 0
        self.alpha, self.beta1, self.beta2, self.eps = cfg.alpha, cfg.beta1, cfg.beta2, 1e-8

    def step(self, mlp, g):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * (g * g)
        m_hat = self.m / (1.0 - b1**self.t)
        v_hat = self.v / (1.0 - b2**self.t)
        mlp.flat -= self.alpha * m_hat / (np.sqrt(v_hat) + self.eps)


CLAMP = 1e-7


def _loss(cfg, x, r):
    """(value, gradient with respect to r) of the reconstruction loss."""
    if cfg.loss_kind == "mse":
        diff = r - x
        return float(np.mean(diff * diff)), 2.0 * diff / x.size
    r = np.clip(r, CLAMP, 1.0 - CLAMP)
    value = float(np.mean(-(x * np.log(r) + (1.0 - x) * np.log1p(-r))))
    return value, -(x / r - (1.0 - x) / (1.0 - r)) / x.size


def _kl(mu, logvar):
    """(value, gradient for mu, gradient for logvar) of KL(q || N(0, I))."""
    batch = mu.shape[0]
    var = np.exp(logvar)
    value = float(0.5 * np.sum(var + mu * mu - 1.0 - logvar) / batch)
    return value, mu / batch, 0.5 * (var - 1.0) / batch


def _real(scores):
    """(numpy value, gradient) of the scores' BCE against label 1."""
    s = np.clip(scores, CLAMP, 1.0 - CLAMP)
    return np.mean(-np.log(s)), -1.0 / (s * s.size)


def _fake(scores):
    """(numpy value, gradient) of the scores' BCE against label 0."""
    s = np.clip(scores, CLAMP, 1.0 - CLAMP)
    return np.mean(-np.log1p(-s)), 1.0 / ((1.0 - s) * s.size)


def _denoise(model, opt, cfg, x, x_noisy):
    z, enc_cache = forward(model.encoder, x_noisy)
    r, dec_cache = forward(model.decoder, z)
    value, grad = _loss(cfg, x, r)
    dec_grads, grad_z = backward(model.decoder, dec_cache, grad)
    enc_grads, _ = backward(model.encoder, enc_cache, grad_z)
    opt["encoder"].step(model.encoder, enc_grads)
    opt["decoder"].step(model.decoder, dec_grads)
    return value


def dae_step(model, opt, cfg, rng, x):
    return {"loss": _denoise(model, opt, cfg, x, corrupt(x, model.corruption, rng))}


def dvae_step(model, opt, cfg, rng, x):
    latent = model.latent_dim
    x_noisy = corrupt(x, model.corruption, rng)
    h, enc_cache = forward(model.encoder, x_noisy)
    mu, logvar = h[:, :latent], h[:, latent:]
    std = np.exp(0.5 * logvar)
    eta = rng.normal(mu.shape, 1.0)
    r, dec_cache = forward(model.decoder, mu + std * eta)
    recon, grad_r = _loss(cfg, x, r)
    kl, kl_mu, kl_logvar = _kl(mu, logvar)
    w = cfg.regularizer_weight
    dec_grads, grad_z = backward(model.decoder, dec_cache, grad_r)
    grad_mu = grad_z + w * kl_mu
    grad_logvar = grad_z * eta * (0.5 * std) + w * kl_logvar
    enc_grads, _ = backward(
        model.encoder, enc_cache, np.concatenate([grad_mu, grad_logvar], axis=1)
    )
    opt["encoder"].step(model.encoder, enc_grads)
    opt["decoder"].step(model.decoder, dec_grads)
    return {"loss": recon, "kl": kl}


def daae_step(model, opt, cfg, rng, x):
    x_noisy = corrupt(x, model.corruption, rng)
    recon = _denoise(model, opt, cfg, x, x_noisy)
    disc, rate = model.discriminator, model.dropout_rate
    z_encoded, enc_cache = forward(model.encoder, x_noisy)
    z_prior = rng.normal(z_encoded.shape, 1.0)
    scores_prior, cache_prior = forward(disc, z_prior, rate, rng)
    scores_encoded, cache_encoded = forward(disc, z_encoded, rate, rng)
    value_prior, grad_prior = _real(scores_prior)
    value_encoded, grad_encoded = _fake(scores_encoded)
    grads_prior, _ = backward(disc, cache_prior, grad_prior)
    grads_encoded, _ = backward(disc, cache_encoded, grad_encoded)
    opt["discriminator"].step(disc, grads_prior + grads_encoded)
    scores_fool, cache_fool = forward(disc, z_encoded)
    value_fool, grad_fool = _real(scores_fool)
    _, grad_z_fool = backward(disc, cache_fool, grad_fool)
    enc_grads, _ = backward(model.encoder, enc_cache, grad_z_fool)
    opt["encoder"].step(model.encoder, enc_grads)
    return {"loss": recon, "disc": float(value_prior + value_encoded), "enc": float(value_fool)}


STEPS = {"dae": dae_step, "dvae": dvae_step, "daae": daae_step}


def train(kind, data, cfg, latent_dim=2, hidden=(64, 64), sigma=0.5,
          dropout_rate=0.2, disc_hidden=(64, 64)):
    """The reference of models.train: same draws, same order, same trace."""
    rng = Prng(cfg.seed)
    model = build_model(kind, data.shape[1], latent_dim, rng, hidden=hidden, sigma=sigma,
                        dropout_rate=dropout_rate, disc_hidden=disc_hidden)
    opt = {name: Adam(getattr(model, name), cfg) for name in ("encoder", "decoder", "discriminator")
           if getattr(model, name) is not None}
    n = data.shape[0]
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums, steps = {}, 0
        for start in range(0, n, cfg.batch_size):
            row = STEPS[kind](model, opt, cfg, rng, data[order[start : start + cfg.batch_size]])
            for key, value in row.items():
                sums[key] = sums.get(key, 0.0) + value
            steps += 1
        trace.append({"epoch": epoch, **{key: value / steps for key, value in sums.items()}})
    return model, trace
