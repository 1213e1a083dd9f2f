"""Iterative sampling by repeated reconstruction.

A trained denoiser R maps a point toward higher data density, so iterating
x_{t+1} = R(x_t) walks noise toward the data manifold. Two variants are
provided: chains started from uniform noise in the data cube, and chains
started from a decoded standard-normal latent (decode the prior, then
refine). Optionally, Gaussian noise of standard deviation inject_sigma is
added before each encoding step; that smooths the effective density the
chain climbs and lets it hop between modes instead of settling into one.

Traces record the visited states (always including the first and last),
per-step displacement norms, and, when a ground-truth mixture is supplied,
the true log-density and the mode membership (the argmax of mixture
responsibilities) of each recorded state; chain_diagnostics fills both in
for a trace run without the mixture.

States are never clamped: reconstruction outputs already live in (0, 1),
and noise-injected encoder inputs may leave the cube by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import Autoencoder, decode_latent, reconstruct
from .numeric import NumericError, Prng, ShapeError
from .oracle import GaussianMixture, mixture_log_pdf_and_mode


@dataclass(frozen=True)
class ChainConfig:
    """Chain length, optional pre-encoding noise, and recording cadence."""

    steps: int = 20
    inject_sigma: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.inject_sigma) and self.inject_sigma >= 0.0):
            raise ValueError(f"inject_sigma must be finite and >= 0, got {self.inject_sigma}")
        if not 1 <= self.record_every <= self.steps:
            raise ValueError(
                f"record_every must lie in [1, steps], got {self.record_every}"
            )


@dataclass(frozen=True, eq=False)
class ChainTrace:
    """Recorded chain states plus per-step bookkeeping.

    times holds the recorded step indices (always starting at 0 and ending
    at the final step); states is (n_recorded, n_chains, d); displacements
    is (steps, n_chains) with ||x_{t+1} - x_t||_2 for every step, recorded
    or not. The mixture fields are None until a ground-truth mixture is
    supplied to the run or to chain_diagnostics: log_densities is
    (n_recorded, n_chains), and mode_membership is (n_recorded, n_chains)
    component indices (argmax of mixture responsibilities). mode_switches
    counts per chain the changes between consecutive recorded states, and
    n_chains_switched how many chains changed mode at least once.
    """

    times: tuple[int, ...]
    states: np.ndarray
    displacements: np.ndarray
    log_densities: np.ndarray | None
    mode_membership: np.ndarray | None = None

    @property
    def n_chains(self) -> int:
        return self.states.shape[1]

    @property
    def mode_switches(self) -> np.ndarray | None:
        if self.mode_membership is None:
            return None
        return (self.mode_membership[1:] != self.mode_membership[:-1]).sum(axis=0)

    @property
    def n_chains_switched(self) -> int | None:
        switches = self.mode_switches
        return None if switches is None else int(np.count_nonzero(switches))


def _as_operator(model):
    if callable(model):
        return model
    return lambda xs: reconstruct(model, xs)


def run_chain(
    model,
    x0,
    cfg: ChainConfig,
    rng: Prng | None = None,
    gm: GaussianMixture | None = None,
) -> ChainTrace:
    """Iterate x_{t+1} = R(x_t + eta_t) from x0 and record the trajectory.

    `model` is a trained autoencoder or any callable mapping a (n, d) batch
    to a (n, d) batch; eta_t ~ N(0, inject_sigma^2 I) is fresh per step and
    zero when inject_sigma is 0 (in which case no rng is needed). A
    ground-truth mixture, when given, fills in the trace's log-densities and
    mode membership.
    """
    if cfg.inject_sigma > 0.0 and rng is None:
        raise ValueError("inject_sigma > 0 requires an rng for the injected noise")
    op = _as_operator(model)
    x = np.array(x0, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ShapeError(f"x0 must be a (n, d) batch or a (d,) point, got shape {np.shape(x0)}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite chain state at step 0")

    times = (*range(0, cfg.steps, cfg.record_every), cfg.steps)
    states = np.empty((len(times), *x.shape))
    displacements = np.empty((cfg.steps, x.shape[0]))
    states[0] = x
    saved = 1
    for t in range(1, cfg.steps + 1):
        fed = x + rng.normal(x.shape, cfg.inject_sigma) if cfg.inject_sigma > 0.0 else x
        nxt = np.asarray(op(fed), dtype=np.float64)
        if nxt.shape != x.shape:
            raise ShapeError(
                f"chain operator changed the state shape from {x.shape} to {nxt.shape}"
            )
        if not np.all(np.isfinite(nxt)):
            raise NumericError(f"non-finite chain state at step {t}")
        displacements[t - 1] = np.linalg.norm(nxt - x, axis=1)
        x = nxt
        if t == times[saved]:
            states[saved] = x
            saved += 1

    trace = ChainTrace(times, states, displacements, None)
    return chain_diagnostics(trace, gm)


def sample_from_noise(
    model: Autoencoder,
    batch: int,
    cfg: ChainConfig,
    rng: Prng,
    gm: GaussianMixture | None = None,
) -> ChainTrace:
    """Start `batch` chains from x0 ~ U(0,1)^d, d the model's data dim, and run them."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    x0 = rng.uniform((batch, model.data_dim))
    return run_chain(model, x0, cfg, rng, gm)


def refine_from_prior(
    model: Autoencoder,
    batch: int,
    cfg: ChainConfig,
    rng: Prng,
    gm: GaussianMixture | None = None,
) -> ChainTrace:
    """Decode z ~ N(0, I) into data space, then refine by chain iteration."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    z = rng.normal((batch, model.latent_dim), 1.0)
    x0 = decode_latent(model, z)
    return run_chain(model, x0, cfg, rng, gm)


def chain_diagnostics(trace: ChainTrace, gm: GaussianMixture | None = None) -> ChainTrace:
    """Return the trace with its density and mode fields filled in from gm.

    Without a ground-truth mixture, or when the fields are already filled
    in (a run given gm fills them), the trace is returned as it is. One
    mixture call covers every recorded state; a NaN raises NumericError
    naming its row, state * n_chains + chain.
    """
    if gm is None or trace.mode_membership is not None:
        return trace
    *shape, dim = trace.states.shape
    log_p, modes = mixture_log_pdf_and_mode(gm, trace.states.reshape(-1, dim))
    return replace(trace, log_densities=log_p.reshape(shape), mode_membership=modes.reshape(shape))
