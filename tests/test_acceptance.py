"""Acceptance suite: ten numbered end-to-end checks with fixed thresholds.

Each test prints one scoreboard line, `criterion NN (label): PASS/FAIL`,
before asserting, and records it in conftest's SCOREBOARD; a terminal
summary hook prints the recorded lines after the run, so under any capture
mode a full run leaves the ten-line summary in the log. Thresholds and setups
are contracts; loosening them to make a red line green defeats the suite.

The trained models come from session fixtures in conftest (two-mode 1-D
mixture, 10^4 samples, 30 epochs, shared seeds); training wall time is
counted against the runtime budgets here. Criteria 5, 8 and 9 use
corruption sigma 0.5. Criteria 6 and 7 test small-noise limits (the score
estimate and density ascent), so their model is trained at sigma 0.05,
the mixture's component std: at 0.5 the smoothed mixture has one mode at
the midpoint and even the exact denoiser fails both checks.
"""

import struct
import time

import numpy as np

from _oracles import bce_grid_minimizer, finite_diff_param_grads, read_pgm, relative_error
from conftest import SCOREBOARD

from daechain.cli import main as cli_main
from daechain.io_formats import (
    load_checkpoint,
    load_idx_images,
    save_checkpoint,
    write_pgm_grid,
)
from daechain.losses import adversarial_losses, bce_loss, kl_to_standard_normal, mse_loss
from daechain.models import build_model, reconstruct
from daechain.nn import Mlp, MlpSpec, init_mlp, mlp_backward, mlp_forward
from daechain.numeric import Prng
from daechain.oracle import (
    GaussianMixture,
    analytic_score,
    high_density_grid,
    limit_convergence_study,
    optimal_reconstruction,
)
from daechain.sampler import (
    ChainConfig,
    chain_diagnostics,
    refine_from_prior,
    sample_from_noise,
)

GRID_POINTS = 100  # high-density grid resolution for the model-based checks


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    SCOREBOARD.append(line)


def test_01_exact_denoiser_matches_brute_force_scan(two_mode_mixture):
    started = time.monotonic()
    sigma = 0.1
    points = [0.28, 0.315, 0.35, 0.385, 0.42, 0.58, 0.615, 0.65, 0.685, 0.72]
    worst = 0.0
    for x in points:
        direct = optimal_reconstruction(two_mode_mixture, sigma, np.array([x]))[0]
        scanned = bce_grid_minimizer(
            two_mode_mixture, sigma, x, n_draws=2_000_000, seed=0
        )
        worst = max(worst, abs(float(direct) - scanned))
    elapsed = time.monotonic() - started
    ok = worst <= 2e-4 and elapsed < 60.0
    _verdict(1, "exact denoiser vs brute-force scan", ok,
             f"max gap {worst:.2e} at 10 points, {elapsed:.1f}s")
    assert worst <= 2e-4
    assert elapsed < 60.0


def test_02_small_noise_convergence_of_exact_denoiser():
    started = time.monotonic()
    gm = GaussianMixture(
        weights=np.array([1.0]), means=np.array([0.5]), variances=np.array([0.01])
    )
    sigmas = (0.2, 0.1, 0.05, 0.02, 0.01)
    grid = high_density_grid(gm, 10)
    study = limit_convergence_study(gm, sigmas, grid)
    # One Gaussian is exactly solvable: the score estimate shrinks by
    # s^2/(s^2 + sigma^2), leaving relative error sigma^2/(s^2 + sigma^2).
    worst_gap = max(
        abs(err - s * s / (0.01 + s * s))
        for s, err in zip(study.sigmas, study.max_rel_errors)
    )
    elapsed = time.monotonic() - started
    ok = worst_gap <= 1e-6 and study.non_increasing and elapsed < 60.0
    _verdict(2, "single-Gaussian error ratio and decay", ok,
             f"max ratio gap {worst_gap:.1e}, "
             f"non_increasing={study.non_increasing}, {elapsed:.1f}s")
    assert worst_gap <= 1e-6
    assert study.non_increasing
    assert elapsed < 60.0


def _mse_instance(rng):
    mlp = init_mlp(
        MlpSpec((3, 7, 5, 2), hidden_activation="relu", output_activation="sigmoid"),
        rng,
    )
    x = rng.normal((6, 3), 1.0)
    target = rng.uniform((6, 2))

    def loss():
        y, _ = mlp_forward(mlp, x)
        return mse_loss(target, y).value

    def analytic():
        y, cache = mlp_forward(mlp, x)
        grads, _ = mlp_backward(mlp, cache, mse_loss(target, y).grad)
        return grads

    return loss, mlp, analytic


def _bce_instance(rng):
    mlp = init_mlp(
        MlpSpec((4, 8, 5, 3), hidden_activation="relu", output_activation="sigmoid"),
        rng,
    )
    x = rng.normal((5, 4), 1.0)
    target = rng.uniform((5, 3))

    def loss():
        y, _ = mlp_forward(mlp, x)
        return bce_loss(target, y).value

    def analytic():
        y, cache = mlp_forward(mlp, x)
        grads, _ = mlp_backward(mlp, cache, bce_loss(target, y).grad)
        return grads

    return loss, mlp, analytic


def _kl_instance(rng):
    mlp = init_mlp(
        MlpSpec((4, 8, 6), hidden_activation="relu", output_activation="identity"),
        rng,
    )
    x = rng.normal((5, 4), 1.0)

    def loss():
        h, _ = mlp_forward(mlp, x)
        return kl_to_standard_normal(h[:, :3], h[:, 3:]).value

    def analytic():
        h, cache = mlp_forward(mlp, x)
        grads, _ = mlp_backward(mlp, cache, kl_to_standard_normal(h[:, :3], h[:, 3:]).grad)
        return grads

    return loss, mlp, analytic


def _adversarial_instance(rng, side: str):
    disc = init_mlp(
        MlpSpec((2, 6, 5, 1), hidden_activation="leaky_relu", output_activation="sigmoid"),
        rng,
    )
    z_prior = rng.normal((5, 2), 1.0)
    z_encoded = rng.normal((5, 2), 1.0)

    # disc: label 1 on prior draws plus label 0 on encodings; enc: label 1
    # on encodings
    def loss():
        scores_encoded, _ = mlp_forward(disc, z_encoded)
        if side == "enc":
            return adversarial_losses(scores_encoded, True).value
        scores_prior, _ = mlp_forward(disc, z_prior)
        return (adversarial_losses(scores_prior, True).value
                + adversarial_losses(scores_encoded, False).value)

    def analytic():
        scores_encoded, cache_encoded = mlp_forward(disc, z_encoded)
        if side == "enc":
            fool = adversarial_losses(scores_encoded, True)
            return mlp_backward(disc, cache_encoded, fool.grad)[0]
        scores_prior, cache_prior = mlp_forward(disc, z_prior)
        g1, _ = mlp_backward(disc, cache_prior, adversarial_losses(scores_prior, True).grad)
        g2, _ = mlp_backward(disc, cache_encoded, adversarial_losses(scores_encoded, False).grad)
        return Mlp(disc.spec, g1.flat + g2.flat)

    return loss, disc, analytic


def test_03_loss_gradients_match_finite_differences():
    started = time.monotonic()
    builders = [
        ("mse", lambda rng: _mse_instance(rng), 3000),
        ("bce", lambda rng: _bce_instance(rng), 4000),
        ("kl", lambda rng: _kl_instance(rng), 5000),
        ("adv_disc", lambda rng: _adversarial_instance(rng, "disc"), 6000),
        ("adv_enc", lambda rng: _adversarial_instance(rng, "enc"), 7000),
    ]
    worst = 0.0
    for _, builder, seed_base in builders:
        for i in range(20):
            loss_fn, mlp, analytic = builder(Prng(seed_base + i))
            grads = analytic()
            fd_w, fd_b = finite_diff_param_grads(loss_fn, mlp, h=1e-5)
            for a, f in zip(grads.weights + grads.biases, fd_w + fd_b):
                worst = max(worst, relative_error(a, f))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-5 and elapsed < 60.0
    _verdict(3, "loss gradients vs finite differences", ok,
             f"worst rel {worst:.1e} over 100 instances, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_04_bce_gradient_identity():
    gen = np.random.default_rng(42)
    x = gen.uniform(0.0, 1.0, size=1000)
    r = gen.uniform(0.01, 0.99, size=1000)
    grad = bce_loss(x, r).grad
    expected = -(x / r - (1.0 - x) / (1.0 - r)) / x.size
    gap = float(np.max(np.abs(grad - expected)))
    ok = gap <= 1e-12
    _verdict(4, "bce gradient closed form", ok, f"max gap {gap:.1e} at 1000 pairs")
    assert gap <= 1e-12


def test_05_bce_and_mse_models_reconstruct_alike(
    two_mode_mixture, bce_dae, mse_dae, training_seconds
):
    started = time.monotonic()
    grid = high_density_grid(two_mode_mixture, GRID_POINTS)
    gap = float(np.max(np.abs(reconstruct(bce_dae, grid) - reconstruct(mse_dae, grid))))
    elapsed = (
        time.monotonic() - started
        + training_seconds["bce_dae"]
        + training_seconds["mse_dae"]
    )
    ok = gap <= 0.05 and elapsed < 300.0
    _verdict(5, "bce and mse reconstructions agree", ok,
             f"max gap {gap:.4f} on {GRID_POINTS}-point grid, {elapsed:.1f}s")
    assert gap <= 0.05
    assert elapsed < 300.0


def test_06_trained_model_score_accuracy(two_mode_mixture, score_dae, training_seconds):
    started = time.monotonic()
    grid = high_density_grid(two_mode_mixture, GRID_POINTS)
    sigma = score_dae.corruption.sigma
    estimate = (reconstruct(score_dae, grid) - grid) / (sigma * sigma)
    truth = analytic_score(two_mode_mixture, grid)
    sign_match = float(np.mean(np.sign(estimate) == np.sign(truth)))
    pearson = float(np.corrcoef(estimate[:, 0], truth[:, 0])[0, 1])
    elapsed = time.monotonic() - started + training_seconds["score_dae"]
    ok = sign_match >= 0.95 and pearson >= 0.9 and elapsed < 300.0
    _verdict(6, "trained score sign and correlation", ok,
             f"sigma {sigma:g}, sign {sign_match:.2f}, pearson {pearson:.2f}, "
             f"{elapsed:.1f}s")
    assert sign_match >= 0.95
    assert pearson >= 0.9
    assert elapsed < 300.0


def test_07_chains_climb_density_from_noise(two_mode_mixture, score_dae):
    started = time.monotonic()
    trace = sample_from_noise(
        score_dae, 256, ChainConfig(steps=20), Prng(2), two_mode_mixture
    )
    gains = trace.log_densities[-1] - trace.log_densities[0]
    improved = float(np.mean(gains > 0.0))
    median_gain = float(np.median(gains))
    elapsed = time.monotonic() - started
    ok = improved >= 0.9 and median_gain > 0.0 and elapsed < 60.0
    _verdict(7, "chains from noise climb log-density", ok,
             f"sigma {score_dae.corruption.sigma:g}, improved {improved:.2f}, "
             f"median gain {median_gain:.3f}, {elapsed:.1f}s")
    assert improved >= 0.9
    assert median_gain > 0.0
    assert elapsed < 60.0


def test_08_prior_refinement_preserves_density(
    two_mode_mixture, bce_dvae, training_seconds
):
    started = time.monotonic()
    trace = refine_from_prior(
        bce_dvae, 256, ChainConfig(steps=10), Prng(2), two_mode_mixture
    )
    mean_first = float(trace.log_densities[0].mean())
    mean_last = float(trace.log_densities[-1].mean())
    elapsed = time.monotonic() - started + training_seconds["bce_dvae"]
    ok = mean_last >= mean_first - 0.1 and elapsed < 300.0
    _verdict(8, "decoded prior draws keep density", ok,
             f"mean log p {mean_first:.3f} -> {mean_last:.3f}, {elapsed:.1f}s")
    assert mean_last >= mean_first - 0.1
    assert elapsed < 300.0


def test_09_injected_noise_drives_mode_switching(two_mode_mixture, bce_dae):
    noisy = sample_from_noise(
        bce_dae, 256, ChainConfig(steps=50, inject_sigma=0.5), Prng(2), two_mode_mixture
    )
    quiet = sample_from_noise(
        bce_dae, 256, ChainConfig(steps=50), Prng(2), two_mode_mixture
    )
    switched_noisy = chain_diagnostics(noisy, two_mode_mixture).n_chains_switched
    switched_quiet = chain_diagnostics(quiet, two_mode_mixture).n_chains_switched
    ok = switched_noisy >= 1 and switched_quiet < switched_noisy
    _verdict(9, "noise injection enables mode switching", ok,
             f"switched: injected {switched_noisy}, plain {switched_quiet}")
    assert switched_noisy >= 1
    assert switched_quiet < switched_noisy


def test_10_determinism_and_formats(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "n_samples = 400\nepochs = 2\nbatch_size = 50\nhidden = 16\n"
        "sigma = 0.1\nchain_steps = 5\nn_chains = 8\n",
        encoding="utf-8",
    )

    def run_all(out):
        for command in ("train", "sample", "refine"):
            code = cli_main([command, "--config", str(cfg_path), "--set", f"out_dir={out}"])
            assert code == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    names = [
        "model.ckpt", "loss.csv",
        "sample_states.csv", "sample_step0005.pgm",
        "refine_states.csv", "refine_step0000.pgm",
    ]
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    )

    round_trips = True
    for kind in ("dae", "dvae", "daae"):
        model = build_model(
            kind, data_dim=3, latent_dim=2, rng=Prng(8),
            hidden=(5,), sigma=0.3, dropout_rate=0.1, disc_hidden=(4,),
        )
        first, second = tmp_path / f"{kind}1.ckpt", tmp_path / f"{kind}2.ckpt"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        round_trips &= first.read_bytes() == second.read_bytes()

    idx = tmp_path / "img.idx"
    pixels = np.random.default_rng(1).integers(0, 256, size=(4, 6), dtype=np.uint8)
    idx.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 3) + pixels.tobytes())
    loaded = load_idx_images(idx)
    round_trips &= bool(
        np.array_equal(np.rint(loaded * 255.0).astype(np.uint8), pixels)
    )

    pgm = tmp_path / "img.pgm"
    levels = np.arange(16, dtype=np.float64).reshape(1, 16) / 255.0
    write_pgm_grid(levels, (4, 4), 1, pgm)
    round_trips &= bool(np.array_equal(read_pgm(pgm).reshape(-1), levels.reshape(-1)))

    ok = identical and round_trips
    _verdict(10, "byte-identical reruns and format round trips", ok,
             f"rerun identical={identical}, round trips={round_trips}")
    assert identical
    assert round_trips
