"""Command-line surface: train models, run chains, check the math.

Subcommands:

    train         dataset -> trained model -> checkpoint + loss.csv
    sample        checkpoint -> chains from uniform noise -> CSV + PGM grids
    refine        checkpoint -> chains from decoded prior draws -> CSV + PGMs
    score-check   compare (R(x) - x) / sigma^2 against the analytic score
    oracle-check  tabulate how the exact denoiser's score error shrinks with sigma
                  (both checks need a mixture dataset, whose mixture is their ground truth)

Every subcommand reads an optional --config file plus repeatable
--set key=value overrides. Exit codes: 0 success, 1 usage, 2 runtime
failure. Random streams are split by fixed offsets: the dataset uses
seed+1, chains use seed+2, and training itself uses the seed, so the
same config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    chain_config_from_config,
    dataset_spec_from_config,
    load_config,
    train_config_from_config,
)
from .datasets import GROUND_TRUTH_KINDS, DatasetSpec, build_dataset
from .io_formats import load_checkpoint, save_checkpoint, write_csv, write_pgm_grid
from .models import build_model, reconstruct, train
from .numeric import NumericError, Prng
from .oracle import (
    analytic_score,
    high_density_grid,
    limit_convergence_study,
    score_from_reconstruction,
)
from .sampler import refine_from_prior, sample_from_noise


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="daechain", description="denoising autoencoders as samplers")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override one config key (repeatable)",
        )
    return parser


def _path(cfg: RunConfig, name: str) -> str:
    """An artifact's path: name under out_dir ("" is the working directory), or name if absolute."""
    return os.path.join(cfg.out_dir, name)


def _out_path(cfg: RunConfig, name: str) -> str:
    """_path of an artifact about to be written, its directory created."""
    path = _path(cfg, name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _load_model(cfg: RunConfig, shape: tuple[int, int]):
    """The checkpoint's model, whose data dim must be rows x cols of the dataset's image shape."""
    ckpt = _path(cfg, cfg.checkpoint)
    model = load_checkpoint(ckpt)
    dim = shape[0] * shape[1]
    if model.data_dim != dim:
        raise ConfigError(
            f"checkpoint {ckpt} has data dim {model.data_dim}, "
            f"dataset {cfg.dataset!r} has data dim {dim}"
        )
    return model


def _ground_truth(spec: DatasetSpec):
    """The mixture the dataset is drawn from, which score-check and oracle-check judge."""
    if spec.mixture is None:
        raise ConfigError(
            f"dataset {spec.kind!r} has no ground-truth mixture; "
            f"score-check and oracle-check need one of {GROUND_TRUTH_KINDS}"
        )
    return spec.mixture


def _stream(cfg: RunConfig, offset: int) -> Prng:
    """The stream seeded with seed + offset; every seed must leave seed + 2 a 64-bit seed."""
    if not 0 <= cfg.seed <= 2**64 - 3:
        raise ConfigError(f"seed must be in [0, 2**64 - 3], got {cfg.seed}")
    return Prng(cfg.seed + offset)


def _cmd_train(cfg: RunConfig) -> int:
    """train a model on the configured dataset and save a checkpoint"""
    train_cfg = train_config_from_config(cfg)
    spec = dataset_spec_from_config(cfg)
    rows, cols = spec.image_shape
    sizes = dict(hidden=cfg.hidden, sigma=cfg.sigma, dropout_rate=cfg.dropout,
                 disc_hidden=cfg.disc_hidden)
    # a throwaway model, so CorruptionSpec, MlpSpec and Autoencoder check sigma,
    # latent and the sizes before the dataset is built
    build_model(cfg.model, rows * cols, cfg.latent, _stream(cfg, 0), **sizes)
    data = build_dataset(spec, _stream(cfg, 1))
    model, trace = train(cfg.model, data, train_cfg, latent_dim=cfg.latent, **sizes)
    ckpt = _out_path(cfg, cfg.checkpoint)
    save_checkpoint(model, ckpt)
    losses = {key: [entry[key] for entry in trace] for key in trace[0]}
    write_csv(losses, _out_path(cfg, "loss.csv"))
    print(
        f"trained {cfg.model} ({cfg.loss}, sigma={cfg.sigma}) on "
        f"{data.shape[0]}x{data.shape[1]} samples for {cfg.epochs} epochs; "
        f"final loss {trace[-1]['loss']:.6f}; checkpoint {ckpt}"
    )
    return 0


def _run_chains(cfg: RunConfig, run_from_start, prefix: str) -> int:
    rng = _stream(cfg, 2)
    spec = dataset_spec_from_config(cfg)
    shape = spec.image_shape
    model = _load_model(cfg, shape)
    for key in ("grid_cols", "n_chains"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    chain_cfg = chain_config_from_config(cfg)
    trace = run_from_start(model, cfg.n_chains, chain_cfg, rng, spec.mixture)

    n_recorded, n_chains, dim = trace.states.shape
    columns = {
        "time": np.repeat(trace.times, n_chains),
        "chain": np.tile(np.arange(n_chains), n_recorded),
    }
    columns.update({f"x{j}": trace.states[:, :, j].ravel() for j in range(dim)})
    if trace.log_densities is not None:
        columns["log_density"] = trace.log_densities.ravel()
    write_csv(columns, _out_path(cfg, f"{prefix}_states.csv"))

    for i, t in enumerate(trace.times):
        write_pgm_grid(
            trace.states[i], shape, cfg.grid_cols,
            _out_path(cfg, f"{prefix}_step{t:04d}.pgm"),
        )

    line = (
        f"{prefix}: {trace.n_chains} chains, {chain_cfg.steps} steps, "
        f"inject_sigma={chain_cfg.inject_sigma}"
    )
    if trace.log_densities is not None:
        first, last = trace.log_densities[0], trace.log_densities[-1]
        gains = last - first
        line += (
            f"; mean log p {first.mean():.4f} -> {last.mean():.4f}"
            f", median gain {_median(gains):.4f}"
            f", improved {np.mean(gains > 0.0):.2%}"
            f", chains that switched mode: {trace.n_chains_switched}"
        )
    else:
        line += f"; mean final step displacement {trace.displacements[-1].mean():.6f}"
    print(line)
    return 0


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, with its bits.

    np.median imports numpy.ma to look for NaN, ~10 ms of a CLI run. This
    partitions at the same indices and takes the same mean of the middle
    value or two, and gives NaN where the array holds one, as np.median does.
    """
    half = len(values) // 2
    middle = slice(half - 1, half + 1) if len(values) % 2 == 0 else slice(half, half + 1)
    part = np.partition(values, [middle.start, middle.stop - 1, -1])
    return part[-1] if np.isnan(part[-1]) else np.mean(part[middle])


def _cmd_sample(cfg: RunConfig) -> int:
    """iterate reconstruction chains from uniform noise"""
    return _run_chains(cfg, sample_from_noise, "sample")


def _cmd_refine(cfg: RunConfig) -> int:
    """decode prior draws and refine them by chain iteration"""
    return _run_chains(cfg, refine_from_prior, "refine")


def _cmd_score_check(cfg: RunConfig) -> int:
    """compare model score estimates with the analytic score"""
    if cfg.grid_points < 2:
        raise ConfigError(f"score-check needs grid_points >= 2, got {cfg.grid_points}")
    spec = dataset_spec_from_config(cfg)
    gm = _ground_truth(spec)
    model = _load_model(cfg, spec.image_shape)
    grid = high_density_grid(gm, cfg.grid_points)
    estimate = score_from_reconstruction(reconstruct(model, grid), grid, model.corruption.sigma)
    truth = analytic_score(gm, grid)
    columns = {"x": grid[:, 0], "estimated_score": estimate[:, 0], "analytic_score": truth[:, 0]}
    write_csv(columns, _out_path(cfg, "score.csv"))
    sign_match = float(np.mean(np.sign(estimate) == np.sign(truth)))
    pearson = float(np.corrcoef(estimate[:, 0], truth[:, 0])[0, 1])
    print(
        f"score-check over {grid.shape[0]} grid points: "
        f"sign match {sign_match:.4f}, pearson {pearson:.4f}"
    )
    return 0


def _cmd_oracle_check(cfg: RunConfig) -> int:
    """run the exact-denoiser convergence study"""
    gm = _ground_truth(dataset_spec_from_config(cfg))
    grid = high_density_grid(gm, cfg.grid_points)
    study = limit_convergence_study(gm, cfg.check_sigmas, grid)
    columns = {"sigma": study.sigmas, "max_rel_error": study.max_rel_errors}
    write_csv(columns, _out_path(cfg, "convergence.csv"))
    print(
        f"oracle-check over {grid.shape[0]} grid points: "
        f"non_increasing={study.non_increasing}, "
        f"smallest sigma error {study.max_rel_errors[-1]:.6f}"
    )
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "sample": _cmd_sample,
    "refine": _cmd_refine,
    "score-check": _cmd_score_check,
    "oracle-check": _cmd_oracle_check,
}

# ConfigError, CheckpointError, IdxFormatError and ShapeError are
# ValueErrors; ArithmeticError keeps Python's own OverflowError and
# ZeroDivisionError at exit 2
_RUNTIME_ERRORS = (ValueError, ArithmeticError, NumericError, OSError)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    for override in args.overrides:
        if "=" not in override:
            parser.print_usage(sys.stderr)
            print(f"error: --set expects key=value, got {override!r}", file=sys.stderr)
            return 1
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = apply_overrides(cfg, args.overrides)
        return _COMMANDS[args.command](cfg)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
