"""Denoising autoencoder variants and their training loops.

One Autoencoder type covers three kinds that share one
corrupt-encode-decode skeleton and differ only in the regularizer: a plain
denoising autoencoder (DAE), a variational one (DVAE) whose encoder outputs
the mean and log-variance of a Gaussian posterior, and an adversarial one
(DAAE) that pushes encoded vectors toward a standard-normal prior with a
small discriminator. Corruption adds Gaussian noise and deliberately does not
clamp the result: the noisy input may leave [0, 1], and truncating it would
change which reconstruction is optimal. The decoder's sigmoid head keeps
outputs inside (0, 1), where the BCE loss needs them.

Reconstruction is always evaluated deterministically: dropout off, and the
DVAE decodes the posterior mean rather than a latent sample. That matters
because a trained reconstruction step doubles as a gradient-ascent move on
the data log-density, an interpretation that latent noise would wash out.

Training is sequential minibatch Adam with every random draw routed through
a single Prng stream, so a fixed (seed, config, dataset) triple reproduces
the trained parameters bitwise.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .losses import adversarial_losses, bce_loss, kl_to_standard_normal, mse_loss
from .nn import (
    AdamState,
    ForwardCache,
    Mlp,
    MlpSpec,
    _bias_operands,
    _check_adam_settings,
    _forward,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from .numeric import NumericError, Prng, ShapeError, as_rows

MODEL_KINDS = ("dae", "dvae", "daae")  # order is the checkpoint kind tag: append only
LOSS_KINDS = ("bce", "mse")
# Rows per inference block: about as fast as 2048 or 4096 rows, with the least
# memory. The last block takes the remainder (B to 2B - 1 rows). Blocks must
# not shrink, say to fit a smaller cache: a 64->2 product on 600 rows or fewer
# takes an OpenBLAS kernel whose last bits differ from a longer product's.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class CorruptionSpec:
    """Additive Gaussian noise x_noisy = x + eps, eps ~ N(0, sigma^2 I)."""

    sigma: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"corruption sigma must be finite and >= 0, got {self.sigma}")


def corrupt(x, spec: CorruptionSpec, rng: Prng) -> np.ndarray:
    """Add noise to a batch; the output is intentionally not clamped."""
    xv = np.asarray(x, dtype=np.float64)
    return xv + rng.normal(xv.shape, spec.sigma)


@dataclass
class Autoencoder:
    """One corrupt-encode-decode denoiser; `kind` picks its regularizer.

    dae: the encoder emits the latent. dvae: the encoder emits (mu, logvar),
    2L outputs for latent dim L. daae: a discriminator, trained with dropout
    `dropout_rate`, scores prior draws against encodings. Only the daae has
    a discriminator, and only it may set a dropout rate.
    """

    kind: str
    encoder: Mlp
    decoder: Mlp
    corruption: CorruptionSpec
    discriminator: Mlp | None = None
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        factor = 2 if self.kind == "dvae" else 1
        enc, dec = self.encoder.spec, self.decoder.spec
        if enc.out_dim != factor * dec.in_dim:
            raise ShapeError(
                f"encoder output dim {enc.out_dim} does not match "
                f"{factor} x decoder input dim {dec.in_dim}"
            )
        if dec.out_dim != enc.in_dim:
            raise ShapeError(
                f"decoder output dim {dec.out_dim} does not match data dim {enc.in_dim}"
            )
        if (self.discriminator is not None) != (self.kind == "daae"):
            raise ValueError("a daae needs a discriminator and the other kinds take none")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.discriminator is None:
            if self.dropout_rate != 0.0:
                raise ValueError(f"a {self.kind} has no discriminator to apply dropout to")
            return
        disc = self.discriminator.spec
        if disc.in_dim != enc.out_dim:
            raise ShapeError(
                f"discriminator input dim {disc.in_dim} does not match latent dim {enc.out_dim}"
            )
        if disc.out_dim != 1:
            raise ShapeError("discriminator must produce a single score")

    @property
    def data_dim(self) -> int:
        return self.encoder.spec.in_dim

    @property
    def latent_dim(self) -> int:
        return self.decoder.spec.in_dim

    @property
    def networks(self) -> list[Mlp]:
        """The trainable networks in checkpoint order."""
        nets = [self.encoder, self.decoder]
        return nets if self.discriminator is None else [*nets, self.discriminator]


@dataclass(frozen=True)
class TrainConfig:
    """Loss choice, epoch budget, and Adam hyperparameters."""

    loss_kind: str = "bce"
    epochs: int = 30
    batch_size: int = 100
    seed: int = 0
    regularizer_weight: float = 1.0
    alpha: float = AdamState.alpha
    beta1: float = AdamState.beta1
    beta2: float = AdamState.beta2

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.regularizer_weight) and self.regularizer_weight >= 0.0):
            raise ValueError(
                f"regularizer_weight must be finite and >= 0, got {self.regularizer_weight}"
            )
        _check_adam_settings(self.alpha, self.beta1, self.beta2)


@dataclass
class OptStates:
    """One Adam state per trainable network, and the forward caches each step refills.

    With these buffers kept across steps, a 1-D step frees no large array,
    so its speed does not hinge on when malloc returns memory to the system.
    """

    encoder: AdamState
    decoder: AdamState
    discriminator: AdamState | None = None
    caches: dict[str, ForwardCache] = field(default_factory=lambda: defaultdict(ForwardCache))


def init_opt_states(model: Autoencoder, cfg: TrainConfig) -> OptStates:
    return OptStates(
        *(
            init_adam(mlp, alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2)
            for mlp in model.networks
        )
    )


def build_model(
    kind: str,
    data_dim: int,
    latent_dim: int,
    rng: Prng,
    hidden=(64, 64),
    sigma: float = CorruptionSpec.sigma,
    dropout_rate: float = 0.2,
    disc_hidden=(64, 64),
) -> Autoencoder:
    """Construct a freshly initialized model of the given kind.

    The encoder stacks `hidden` ReLU layers onto the data and ends in a
    linear head (of width latent_dim, or 2*latent_dim for the DVAE); the
    decoder mirrors the hidden stack back to the data dim under a sigmoid
    head. The DAAE discriminator maps the latent through leaky-ReLU layers
    with dropout to a single sigmoid score; the other kinds ignore
    dropout_rate and disc_hidden. Autoencoder checks the kind, and MlpSpec
    the sizes.
    """
    enc_out = 2 * latent_dim if kind == "dvae" else latent_dim
    encoder = init_mlp(
        MlpSpec((data_dim, *hidden, enc_out), "relu", "identity"), rng
    )
    decoder = init_mlp(
        MlpSpec((latent_dim, *reversed(hidden), data_dim), "relu", "sigmoid"), rng
    )
    corruption = CorruptionSpec(sigma)
    if kind != "daae":
        return Autoencoder(kind, encoder, decoder, corruption)
    discriminator = init_mlp(
        MlpSpec((latent_dim, *disc_hidden, 1), "leaky_relu", "sigmoid"), rng
    )
    return Autoencoder(kind, encoder, decoder, corruption, discriminator, dropout_rate)


# ---------------------------------------------------------------------------
# deterministic evaluation
# ---------------------------------------------------------------------------

def _infer(x, stages, what: str) -> np.ndarray:
    """Eval-mode output of (network, kept output columns) stages, in row blocks.

    No cache is kept. Layers take turns writing into two workspaces, each
    sized for the widest layer of the last, longest block, so each layer
    reads the other's output; a fan-in-1 layer also builds its (rows, 2)
    input [h | 1] per block (nn._forward). Memory does not grow with the
    batch, and a block's working set stays in cache. A batch of two blocks
    or more builds each layer's bias operand once (nn._bias_operands); on
    one block that costs more than it saves.
    """
    rows, single = as_rows(x, stages[0][0].spec.in_dim, what)
    n = rows.shape[0]
    out = np.empty((n, stages[-1][1]))
    edges = [_BLOCK_ROWS * i for i in range(max(n // _BLOCK_ROWS, 1))] + [n]
    longest = n - edges[-2]
    widths = [mlp.spec.layer_sizes[1:] for mlp, _ in stages]
    spaces = [np.empty(longest * max(map(max, widths))) for _ in range(2)]
    turn = itertools.count()
    bufs = [[spaces[next(turn) % 2][: longest * w].reshape(longest, w) for w in ws]
            for ws in widths]
    biases = [_bias_operands(mlp, longest) if n >= 2 * _BLOCK_ROWS else None for mlp, _ in stages]
    for start, stop in zip(edges, edges[1:]):
        h = rows[start:stop]
        for (mlp, keep), buf, ops in zip(stages, bufs, biases):
            h = _forward(mlp, h, buf, biases=ops)[:, :keep]
        out[start:stop] = h
    return out[0] if single else out


def decode_latent(model: Autoencoder, z) -> np.ndarray:
    """Decode latent vectors to data space; sigmoid head keeps values in (0, 1)."""
    return _infer(z, [(model.decoder, model.data_dim)], "latent")


def reconstruct(model: Autoencoder, x) -> np.ndarray:
    """One deterministic reconstruction pass: decode(encode(x)), eval mode."""
    stages = [(model.encoder, model.latent_dim), (model.decoder, model.data_dim)]
    return _infer(x, stages, "input")


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------

def _loss_fn(cfg: TrainConfig):
    return bce_loss if cfg.loss_kind == "bce" else mse_loss


def _check_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NumericError(f"non-finite {what} (got {value!r}); training aborted")


def _denoise_step(
    model: Autoencoder, x: np.ndarray, x_noisy: np.ndarray, cfg: TrainConfig,
    opt: OptStates,
) -> float:
    """Reconstruct x from x_noisy, backpropagate, and update encoder and decoder."""
    z, enc_cache = mlp_forward(model.encoder, x_noisy, cache=opt.caches["encoder"])
    r, dec_cache = mlp_forward(model.decoder, z, cache=opt.caches["decoder"])
    loss = _loss_fn(cfg)(x, r)
    _check_finite(loss.value, f"{cfg.loss_kind} loss")
    dec_grads, grad_z = mlp_backward(model.decoder, dec_cache, loss.grad)
    enc_grads, _ = mlp_backward(model.encoder, enc_cache, grad_z, input_grad=False)
    adam_step(model.encoder, enc_grads, opt.encoder)
    adam_step(model.decoder, dec_grads, opt.decoder)
    return loss.value


def dae_train_step(
    model: Autoencoder, batch, cfg: TrainConfig, rng: Prng, opt: OptStates
) -> dict[str, float]:
    """Corrupt, reconstruct, backpropagate, and apply one Adam update.

    Mutates the model parameters and optimizer state in place and returns
    the trace row {"loss"}: the pre-update loss value.
    """
    x = np.asarray(batch, dtype=np.float64)
    return {"loss": _denoise_step(model, x, corrupt(x, model.corruption, rng), cfg, opt)}


def dvae_train_step(
    model: Autoencoder, batch, cfg: TrainConfig, rng: Prng, opt: OptStates
) -> dict[str, float]:
    """One reparameterized step: z = mu + exp(logvar/2) * eta, eta ~ N(0, I).

    The objective is recon + regularizer_weight * KL(q(z|x_noisy) || N(0, I)).
    Draw order per step: corruption noise first, then the latent eta.
    Returns the trace row {"loss": recon, "kl": kl}; mutates model and
    optimizer in place.
    """
    x = np.asarray(batch, dtype=np.float64)
    latent = model.latent_dim
    x_noisy = corrupt(x, model.corruption, rng)
    h, enc_cache = mlp_forward(model.encoder, x_noisy, cache=opt.caches["encoder"])
    mu, logvar = h[:, :latent], h[:, latent:]
    std = np.exp(0.5 * logvar)
    eta = rng.normal(mu.shape, 1.0)
    z = mu + std * eta
    r, dec_cache = mlp_forward(model.decoder, z, cache=opt.caches["decoder"])
    recon = _loss_fn(cfg)(x, r)
    kl = kl_to_standard_normal(mu, logvar)
    w = cfg.regularizer_weight
    _check_finite(recon.value + w * kl.value, "variational objective")
    dec_grads, grad_z = mlp_backward(model.decoder, dec_cache, recon.grad)
    grad_h = np.concatenate([grad_z, grad_z * eta * (0.5 * std)], axis=1)
    grad_h += w * kl.grad
    enc_grads, _ = mlp_backward(model.encoder, enc_cache, grad_h, input_grad=False)
    adam_step(model.encoder, enc_grads, opt.encoder)
    adam_step(model.decoder, dec_grads, opt.decoder)
    return {"loss": recon.value, "kl": kl.value}


def daae_train_step(
    model: Autoencoder, batch, cfg: TrainConfig, rng: Prng, opt: OptStates
) -> dict[str, float]:
    """Three updates in a fixed order: autoencoder, discriminator, encoder.

    The same corrupted batch feeds all three phases. Phase 2 trains the
    discriminator (dropout on) on two BCE terms, label 1 on prior draws and
    0 on encodings; phase 3 nudges the encoder to fool the updated
    discriminator, evaluated without dropout, on one term: label 1 on the
    encodings. Returns the trace row {"loss": recon, "disc": the sum of the
    two phase-2 terms, "enc": the phase-3 term}.
    """
    x = np.asarray(batch, dtype=np.float64)
    x_noisy = corrupt(x, model.corruption, rng)

    # phase 1: autoencoder on the denoising loss
    recon = _denoise_step(model, x, x_noisy, cfg, opt)

    # phase 2: discriminator on prior draws vs fresh encodings
    disc, rate = model.discriminator, model.dropout_rate
    z_encoded, enc_cache = mlp_forward(model.encoder, x_noisy, cache=opt.caches["encoder"])
    z_prior = rng.normal(z_encoded.shape, 1.0)
    scores_prior, cache_prior = mlp_forward(disc, z_prior, rate, rng, opt.caches["prior"])
    scores_encoded, cache_encoded = mlp_forward(disc, z_encoded, rate, rng, opt.caches["encoded"])
    real = adversarial_losses(scores_prior, True)
    fake = adversarial_losses(scores_encoded, False)
    disc_loss = real.value + fake.value
    _check_finite(disc_loss, "discriminator loss")
    disc_grads, _ = mlp_backward(disc, cache_prior, real.grad, input_grad=False)
    grads_encoded, _ = mlp_backward(disc, cache_encoded, fake.grad, input_grad=False)
    disc_grads.flat += grads_encoded.flat
    adam_step(disc, disc_grads, opt.discriminator)

    # phase 3: encoder fools the updated discriminator (no dropout), label 1
    # on its own encodings; only the discriminator changed since phase 2, so
    # its encoder pass is reused
    scores_fool, cache_fool = mlp_forward(disc, z_encoded, cache=opt.caches["encoded"])
    fool = adversarial_losses(scores_fool, True)
    _check_finite(fool.value, "encoder adversarial loss")
    _, grad_z_fool = mlp_backward(disc, cache_fool, fool.grad, param_grads=False)
    enc_grads_fool, _ = mlp_backward(model.encoder, enc_cache, grad_z_fool, input_grad=False)
    adam_step(model.encoder, enc_grads_fool, opt.encoder)

    return {"loss": recon, "disc": disc_loss, "enc": fool.value}


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def train(
    model_kind: str,
    dataset,
    cfg: TrainConfig = TrainConfig(),
    latent_dim: int = 2,
    **shape,
) -> tuple[Autoencoder, list[dict]]:
    """Train a fresh model on (n, d) data in [0, 1]; returns (model, loss trace).

    Shape keywords (hidden, sigma, dropout_rate, disc_hidden) go to
    build_model. Epochs are shuffled with a seeded permutation and consumed
    in contiguous minibatches (the last one may be short). The trace holds
    one dict per epoch: "epoch", then the mean of each key of the step's
    trace rows, summed in step order: always "loss" (reconstruction), plus
    "kl" for the DVAE and "disc"/"enc" for the DAAE.
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"dataset must be a nonempty (n, d) array, got shape {data.shape}")
    if not np.all((data >= 0.0) & (data <= 1.0)):
        raise ValueError("dataset values must lie in [0, 1]")

    rng = Prng(cfg.seed)
    model = build_model(model_kind, data.shape[1], latent_dim, rng, **shape)
    # built per call from the module attributes, so a wrapper set on one sees every step
    step = {"dae": dae_train_step, "dvae": dvae_train_step, "daae": daae_train_step}[model.kind]
    opt = init_opt_states(model, cfg)
    n, b = data.shape[0], cfg.batch_size
    trace: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        rows = [step(model, data[order[at : at + b]], cfg, rng, opt) for at in range(0, n, b)]
        # a left fold from 0.0: sum() compensates from Python 3.12 on, changing the bits
        means = {key: reduce(add, (row[key] for row in rows), 0.0) / len(rows) for key in rows[0]}
        trace.append({"epoch": epoch, **means})
    return model, trace
