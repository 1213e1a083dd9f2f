"""Shared fixtures: the reference two-mode mixture and models trained on it.

Training a 30-epoch model on 10^4 samples takes a couple of seconds, and
several modules want the same models, so they are session-scoped. Wall
times are collected in TRAIN_SECONDS so runtime-budgeted checks can count
training toward their own elapsed time. The acceptance suite's scoreboard
lines are collected in SCOREBOARD and printed in the terminal summary.
"""

import time

import numpy as np
import pytest

from daechain.datasets import generate_mixture_dataset
from daechain.models import TrainConfig, train
from daechain.numeric import Prng
from daechain.oracle import GaussianMixture

TRAIN_SIGMA = 0.5
SMALL_SIGMA = 0.1
# The score and ascent claims are small-noise limits: the exact denoiser's
# implied score is that of the sigma-smoothed density. At the mixture's
# component std the smoothing stays narrower than one mode, so the smoothed
# density keeps both modes and the exact map clears criteria 6 and 7.
SCORE_SIGMA = 0.05
N_TRAIN = 10_000
EPOCHS = 30

TRAIN_SECONDS: dict[str, float] = {}
# Acceptance scoreboard lines, one per criterion run; the terminal summary
# prints them, so they show under every capture mode.
SCOREBOARD: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if SCOREBOARD:
        terminalreporter.section("acceptance scoreboard")
        for line in SCOREBOARD:
            terminalreporter.write_line(line)


def reference_mixture() -> GaussianMixture:
    """Two well-separated 1-D modes inside the unit interval."""
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([0.35, 0.65]),
        variances=np.array([0.0025, 0.0025]),
    )


def train_reference_model(name: str, kind: str, loss: str, data, sigma: float):
    cfg = TrainConfig(loss_kind=loss, epochs=EPOCHS, batch_size=100, seed=0)
    started = time.monotonic()
    model, _ = train(kind, data, cfg, latent_dim=2, hidden=(64, 64), sigma=sigma)
    TRAIN_SECONDS[name] = time.monotonic() - started
    return model


@pytest.fixture(scope="session")
def two_mode_mixture():
    return reference_mixture()


@pytest.fixture(scope="session")
def mixture_training_data(two_mode_mixture):
    # Same stream split as the command line: the dataset draws from seed + 1.
    return generate_mixture_dataset(two_mode_mixture, N_TRAIN, Prng(1))


@pytest.fixture(scope="session")
def training_seconds():
    return TRAIN_SECONDS


@pytest.fixture(scope="session")
def bce_dae(mixture_training_data):
    return train_reference_model("bce_dae", "dae", "bce", mixture_training_data, TRAIN_SIGMA)


@pytest.fixture(scope="session")
def mse_dae(mixture_training_data):
    return train_reference_model("mse_dae", "dae", "mse", mixture_training_data, TRAIN_SIGMA)


@pytest.fixture(scope="session")
def bce_dvae(mixture_training_data):
    return train_reference_model("bce_dvae", "dvae", "bce", mixture_training_data, TRAIN_SIGMA)


@pytest.fixture(scope="session")
def score_sigma():
    return SCORE_SIGMA


@pytest.fixture(scope="session")
def score_dae(mixture_training_data, score_sigma):
    return train_reference_model(
        "score_dae", "dae", "bce", mixture_training_data, score_sigma
    )


@pytest.fixture(scope="session")
def small_noise_dae(mixture_training_data):
    return train_reference_model(
        "small_noise_dae", "dae", "bce", mixture_training_data, SMALL_SIGMA
    )


@pytest.fixture(scope="session")
def small_noise_dvae(mixture_training_data):
    return train_reference_model(
        "small_noise_dvae", "dvae", "bce", mixture_training_data, SMALL_SIGMA
    )
