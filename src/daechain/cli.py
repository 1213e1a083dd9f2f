"""Command-line surface: train models, run chains, check the math.

Subcommands:

    train         dataset -> trained model -> checkpoint + loss.csv
    sample        checkpoint -> chains from uniform noise -> CSV + PGM grids
    refine        checkpoint -> chains from decoded prior draws -> CSV + PGMs
    score-check   compare (R(x) - x) / sigma^2 against the analytic score
    oracle-check  tabulate how the exact denoiser's score error shrinks with sigma

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
    mixture_from_config,
    train_config_from_config,
)
from .datasets import build_dataset
from .io_formats import (
    load_checkpoint,
    read_idx_header,
    save_checkpoint,
    write_csv,
    write_pgm_grid,
)
from .models import reconstruct, train
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


def _checkpoint_path(cfg: RunConfig) -> str:
    if os.path.isabs(cfg.checkpoint):
        return cfg.checkpoint
    return os.path.join(cfg.out_dir, cfg.checkpoint)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _mixture_if_matching(cfg: RunConfig, data_dim: int):
    if cfg.dataset not in ("mixture1d", "mixture2d"):
        return None
    gm = mixture_from_config(cfg)
    return gm if gm.dim == data_dim else None


def _image_shape(cfg: RunConfig, data_dim: int) -> tuple[int, int]:
    if cfg.image_shape is not None:
        return cfg.image_shape
    if cfg.dataset == "blobs8x8":
        return (8, 8)
    if cfg.dataset == "idx_images" and cfg.idx_path:
        _, rows, cols = read_idx_header(cfg.idx_path)
        return (rows, cols)
    return (1, data_dim)


def _cmd_train(cfg: RunConfig) -> int:
    """train a model on the configured dataset and save a checkpoint"""
    for key in ("dropout", "disc_hidden"):
        if cfg.model != "daae" and getattr(cfg, key) != getattr(RunConfig(), key):
            raise ConfigError(f"{key!r} applies only to model = daae, not {cfg.model!r}")
    data = build_dataset(dataset_spec_from_config(cfg), Prng(cfg.seed + 1))
    model, trace = train(
        cfg.model,
        data,
        train_config_from_config(cfg),
        latent_dim=cfg.latent,
        hidden=cfg.hidden,
        sigma=cfg.sigma,
        dropout_rate=cfg.dropout,
        disc_hidden=cfg.disc_hidden,
    )
    ckpt = _checkpoint_path(cfg)
    os.makedirs(os.path.dirname(ckpt) or ".", exist_ok=True)
    save_checkpoint(model, ckpt)
    losses = {key: [entry[key] for entry in trace] for key in trace[0]}
    write_csv(losses, _out_path(cfg, "loss.csv"))
    print(
        f"trained {cfg.model} ({cfg.loss}, sigma={cfg.sigma}) on "
        f"{data.shape[0]}x{data.shape[1]} samples for {cfg.epochs} epochs; "
        f"final loss {trace[-1]['loss']:.6f}; checkpoint {ckpt}"
    )
    return 0


def _run_chains(cfg: RunConfig, start: str) -> int:
    model = load_checkpoint(_checkpoint_path(cfg))
    shape = _image_shape(cfg, model.data_dim)
    if shape[0] * shape[1] != model.data_dim:
        raise ConfigError(
            f"image_shape {shape[0]},{shape[1]} does not match the model's "
            f"data dim {model.data_dim}"
        )
    gm = _mixture_if_matching(cfg, model.data_dim)
    rng = Prng(cfg.seed + 2)
    chain_cfg = chain_config_from_config(cfg)
    if start == "noise":
        trace = sample_from_noise(model, cfg.n_chains, chain_cfg, rng, gm)
        prefix = "sample"
    else:
        trace = refine_from_prior(model, cfg.n_chains, chain_cfg, rng, gm)
        prefix = "refine"

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
            f", median gain {np.median(gains):.4f}"
            f", improved {np.mean(gains > 0.0):.2%}"
            f", chains that switched mode: {trace.n_chains_switched}"
        )
    else:
        line += f"; mean final step displacement {trace.displacements[-1].mean():.6f}"
    print(line)
    return 0


def _cmd_sample(cfg: RunConfig) -> int:
    """iterate reconstruction chains from uniform noise"""
    return _run_chains(cfg, "noise")


def _cmd_refine(cfg: RunConfig) -> int:
    """decode prior draws and refine them by chain iteration"""
    return _run_chains(cfg, "prior")


def _cmd_score_check(cfg: RunConfig) -> int:
    """compare model score estimates with the analytic score"""
    model = load_checkpoint(_checkpoint_path(cfg))
    gm = mixture_from_config(cfg)
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
    gm = mixture_from_config(cfg)
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
