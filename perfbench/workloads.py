"""The four families of work a benchmark cycle runs, and how each is checked.

Each family is one kind of rep, run in a closed loop with one caller: the
next rep starts when the previous one returns. ``setup`` makes every input
from the workload seed, ``run`` times its samples on a Stopwatch and returns
the raw outputs, and ``check`` (untimed, untraced) verifies the outputs and
hashes them. The package is reached only through its public module
attributes, so the tracer can wrap every call a rep makes.

Why these four: ``train_small`` is small-matrix training, where per-call
overhead in nn/losses/models dominates; ``chains_wide`` is one large-batch
forward pass per chain step, where BLAS and elementwise work dominate and no
backward pass or Adam runs; ``oracle_grid`` is the quadrature oracle, with
1-D evaluations bound by per-call overhead and 2-D ones by array work;
``cli_pipeline`` is fresh ``daechain`` processes, where import, config, cli
and io_formats dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
from stopwatch import Stopwatch

# The default two-mode 1-D mixture of the CLI config.
MIX1 = (np.array([0.5, 0.5]), np.array([[0.35], [0.65]]), np.array([[0.0025], [0.0025]]))
MIX2 = (np.array([0.5, 0.5]), np.array([[0.3, 0.4], [0.7, 0.6]]), np.full((2, 2), 0.0025))
SIGMAS_1D = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
SIGMAS_2D = (0.5, 0.1)
STUDY_SIGMAS = (0.2, 0.1, 0.05, 0.02, 0.01)  # oracle-check defaults
STUDY_GRID_POINTS = 10
TRAIN_FITS = (("dae", "bce"), ("dvae", "mse"), ("daae", "bce"))
TRAIN_EPOCHS = 1
N_SAMPLES = 10_000
CHAINS, CHAIN_STEPS, INJECT_SIGMA = 100_000, 10, 0.5
# An exact oracle may agree with the closed form to the last bit; the error
# metric must stay positive, so it reads no lower than float64 round-off.
ERROR_FLOOR = 1e-12


def no_span(name):
    return contextlib.nullcontext()


def _mods():
    names = ("datasets", "models", "oracle", "sampler", "numeric")
    return {n: importlib.import_module(f"daechain.{n}") for n in names}


def _mixture(mods, spec):
    return mods["oracle"].GaussianMixture(*spec)


def _hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _params(model) -> list[np.ndarray]:
    out = []
    for part in ("encoder", "decoder", "discriminator"):
        mlp = getattr(model, part, None)
        if mlp is not None:
            out.extend(list(mlp.weights) + list(mlp.biases))
    return out


def _in_unit_interval(name, arr, problems):
    if not np.all(np.isfinite(arr)):
        problems.append(f"{name}: non-finite values")
    elif not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        problems.append(f"{name}: values outside (0, 1)")


class Family:
    name = ""
    kernel = "loop"  # calibration kernel for this family's samples (see stopwatch.py)
    inprocess = False  # cli_pipeline only: run commands through cli.main in this process

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def run(self, watch: Stopwatch, span=no_span):
        """One rep; times its samples on watch and returns the outputs for check."""
        raise NotImplementedError

    def check(self, outputs) -> tuple[str, list[str], dict]:
        """Returns (digest, problems, extra figures)."""
        raise NotImplementedError


class TrainSmall(Family):
    name = "train_small"

    def setup(self):
        self.m = _mods()
        self.gm = _mixture(self.m, MIX1)
        ds = self.m["datasets"]
        self.data = ds.build_dataset(
            ds.DatasetSpec("mixture1d", N_SAMPLES, self.gm), self.m["numeric"].Prng(self.seeds[0])
        )
        self.grid = self.m["oracle"].high_density_grid(self.gm, 10)
        self.rstar = reference.posterior_mean(*MIX1, 0.5, self.grid)

    def _fit(self, kind, loss, data):
        models = self.m["models"]
        cfg = models.TrainConfig(loss_kind=loss, epochs=TRAIN_EPOCHS, batch_size=100, seed=self.seeds[1])
        return models.train(kind, data, cfg, latent_dim=2, hidden=(64, 64), sigma=0.5)

    def warmup(self):
        for kind, loss in TRAIN_FITS:
            self._fit(kind, loss, self.data[:1000])

    def run(self, watch, span=no_span):
        outputs = {}
        for kind, loss in TRAIN_FITS:
            with watch.sample(f"{kind}_train_examples_per_s", TRAIN_EPOCHS * self.data.shape[0]):
                outputs[kind] = self._fit(kind, loss, self.data)
        return outputs

    def check(self, outputs):
        problems, arrays = [], []
        recon = None
        for kind, (model, trace) in outputs.items():
            params = _params(model)
            losses = np.array([v for row in trace for k, v in row.items() if k != "epoch"])
            if not all(np.all(np.isfinite(p)) for p in params) or not np.all(np.isfinite(losses)):
                problems.append(f"{kind}: non-finite parameters or losses")
            r = self.m["models"].reconstruct(model, self.grid)
            _in_unit_interval(f"{kind} reconstruction", r, problems)
            if kind == "dae":
                recon = r
            arrays += params + [losses]
        gap = float(np.max(np.abs(recon - self.rstar)))
        return _hash(*arrays), problems, {"dae_oracle_gap": gap}


class ChainsWide(Family):
    name = "chains_wide"

    def setup(self):
        self.m = _mods()
        self.gm = _mixture(self.m, MIX1)
        ds, models = self.m["datasets"], self.m["models"]
        data = ds.build_dataset(
            ds.DatasetSpec("mixture1d", N_SAMPLES, self.gm), self.m["numeric"].Prng(self.seeds[0])
        )
        cfg = models.TrainConfig(loss_kind="bce", epochs=3, batch_size=100, seed=self.seeds[1])
        self.model, _ = models.train("dae", data, cfg, latent_dim=2, hidden=(64, 64), sigma=0.5)
        self.chain_cfg = self.m["sampler"].ChainConfig(CHAIN_STEPS, INJECT_SIGMA)

    def _chains(self, n, cfg):
        sampler = self.m["sampler"]
        trace = sampler.sample_from_noise(
            self.model, n, cfg, self.m["numeric"].Prng(self.seeds[2]), self.gm
        )
        return trace, sampler.chain_diagnostics(trace, self.gm)

    def warmup(self):
        self._chains(1000, self.m["sampler"].ChainConfig(2, INJECT_SIGMA))

    def run(self, watch, span=no_span):
        with watch.sample("chain_updates_per_s", CHAINS * CHAIN_STEPS):
            out = self._chains(CHAINS, self.chain_cfg)
        return out

    def check(self, outputs):
        trace, diag = outputs
        problems = []
        _in_unit_interval("chain states", trace.states[1:], problems)
        if trace.states.shape != (CHAIN_STEPS + 1, CHAINS, 1):
            problems.append(f"chain states have shape {trace.states.shape}")
        if not np.all(np.isfinite(diag.log_densities)):
            problems.append("chain log-densities are not finite")
        switched = int(diag.n_chains_switched)
        digest = _hash(trace.states[-1], diag.log_densities[-1], diag.mode_switches)
        return digest, problems, {"chains_switched_mode": switched}


class OracleGrid(Family):
    name = "oracle_grid"

    def setup(self):
        self.m = _mods()
        oracle = self.m["oracle"]
        self.gm1, self.gm2 = _mixture(self.m, MIX1), _mixture(self.m, MIX2)
        gen = np.random.Generator(np.random.PCG64(self.seeds[3]))
        self.points1 = np.sort(gen.uniform(-0.25, 1.25, 401))[:, None]
        axes = [np.sort(gen.uniform(0.0, 1.0, 21)) for _ in range(2)]
        self.points2 = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        self.ref1 = np.stack([reference.posterior_mean(*MIX1, s, self.points1) for s in SIGMAS_1D])
        self.ref2 = np.stack([reference.posterior_mean(*MIX2, s, self.points2) for s in SIGMAS_2D])
        self.study_grid = oracle.high_density_grid(self.gm1, STUDY_GRID_POINTS)
        self.ref_study = reference.convergence_errors(*MIX1, STUDY_SIGMAS, self.study_grid)

    def warmup(self):
        opt = self.m["oracle"].optimal_reconstruction
        opt(self.gm1, 0.5, self.points1[0])
        opt(self.gm2, 0.5, self.points2[0])

    def _sweep(self, watch, metric, gm, sigma, points):
        opt = self.m["oracle"].optimal_reconstruction
        with watch.sample(metric, len(points)):
            return [opt(gm, sigma, p) for p in points]

    def run(self, watch, span=no_span):
        out1 = np.array([self._sweep(watch, f"oracle1d_evals_per_s@{s}", self.gm1, s, self.points1)
                         for s in SIGMAS_1D])
        out2 = np.array([self._sweep(watch, f"oracle2d_evals_per_s@{s}", self.gm2, s, self.points2)
                         for s in SIGMAS_2D])
        study = self.m["oracle"].limit_convergence_study(self.gm1, STUDY_SIGMAS, self.study_grid)
        return out1, out2, np.array(study.max_rel_errors)

    def check(self, outputs):
        out1, out2, study = outputs
        problems = []
        for name, arr in (("1-D oracle", out1), ("2-D oracle", out2), ("convergence study", study)):
            if not np.all(np.isfinite(arr)):
                problems.append(f"{name}: non-finite values")
        err = max(float(np.max(np.abs(out1 - self.ref1))), float(np.max(np.abs(out2 - self.ref2))))
        err_by_sigma = {f"err_1d_sigma_{s}": float(np.max(np.abs(out1[i] - self.ref1[i])))
                        for i, s in enumerate(SIGMAS_1D)}
        extra = {
            "oracle_max_abs_err": max(err, ERROR_FLOOR),
            "study_max_abs_diff": float(np.max(np.abs(study - self.ref_study))),
            **err_by_sigma,
        }
        return _hash(out1, out2, study), problems, extra


class CliPipeline(Family):
    name = "cli_pipeline"
    commands = ("train", "refine", "score-check", "oracle-check", "sample")
    kernel = "process"

    def setup(self):
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.workdir.mkdir(parents=True, exist_ok=True)
        seed = self.seeds[0] % 2**31
        self.mix_cfg = self.workdir / "mixture.cfg"
        self.mix_cfg.write_text(f"dataset = mixture1d\nepochs = 3\nseed = {seed}\n", encoding="utf-8")
        self.blob_cfg = self.workdir / "blobs.cfg"
        self.blob_cfg.write_text(
            f"dataset = blobs8x8\nseed = {seed}\nn_chains = 256\nchain_steps = 20\ngrid_cols = 16\n",
            encoding="utf-8",
        )
        m = _mods()
        blobs = m["datasets"].build_dataset(
            m["datasets"].DatasetSpec("blobs8x8", 2000), m["numeric"].Prng(seed + 1)
        )
        cfg = m["models"].TrainConfig(epochs=2, seed=seed)
        model, _ = m["models"].train("dae", blobs, cfg, latent_dim=2, hidden=(64, 64), sigma=0.5)
        self.blob_ckpt = self.workdir / "blob_model.ckpt"
        importlib.import_module("daechain.io_formats").save_checkpoint(model, self.blob_ckpt)
        self.rep = 0

    def warmup(self):
        # set-up already read every module the child processes import; an
        # in-process run pays the cli import here rather than in a timed rep
        if self.inprocess:
            importlib.import_module("daechain.cli")

    def _cli(self, command, cfg, out_dir, span, *extra):
        argv = [command, "--config", str(cfg), "--set", f"out_dir={out_dir}", *extra]
        if not self.inprocess:
            proc = subprocess.run(
                [sys.executable, "-m", "daechain.cli", *argv],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            return proc.returncode, proc.stderr.strip()
        cli = importlib.import_module("daechain.cli")
        sink = io.StringIO()
        with span(f"cli.main.{command}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return code, sink.getvalue().strip()

    def run(self, watch, span=no_span):
        self.rep += 1
        rep_dir = self.workdir / f"rep{self.rep}"
        mix_dir, sample_dir = rep_dir / "mixture", rep_dir / "blobs"
        codes = {}
        for command in self.commands:
            if command == "sample":
                args = (command, self.blob_cfg, sample_dir, span, "--set", f"checkpoint={self.blob_ckpt}")
            else:
                args = (command, self.mix_cfg, mix_dir, span)
            with watch.sample(f"cli.{command}_s"):
                codes[command] = self._cli(*args)
        return rep_dir, codes

    def check(self, outputs):
        rep_dir, codes = outputs
        problems = [f"{c} exited {code}: {err[-300:]}" for c, (code, err) in codes.items() if code != 0]
        mix_dir, sample_dir = rep_dir / "mixture", rep_dir / "blobs"
        promised = [mix_dir / n for n in ("model.ckpt", "loss.csv", "refine_states.csv",
                                          "score.csv", "convergence.csv")]
        promised += [mix_dir / f"refine_step{t:04d}.pgm" for t in range(21)]
        promised += [sample_dir / "sample_states.csv"]
        promised += [sample_dir / f"sample_step{t:04d}.pgm" for t in range(21)]
        missing = [str(p.relative_to(rep_dir)) for p in promised if not p.is_file()]
        if missing:
            problems.append(f"missing outputs: {missing[:5]}")
        else:
            refine = np.loadtxt(mix_dir / "refine_states.csv", delimiter=",", skiprows=1)
            _in_unit_interval("refine chain states", refine[refine[:, 0] > 0, 2], problems)
            with open(sample_dir / "sample_states.csv", "rb") as fh:
                lines = fh.read().count(b"\n")
            if lines != 256 * 21 + 1:
                problems.append(f"sample_states.csv has {lines} lines, expected {256 * 21 + 1}")
            for pgm in promised:
                if pgm.suffix == ".pgm" and not pgm.read_bytes().startswith(b"P5\n"):
                    problems.append(f"{pgm.name} is not a binary PGM")
        h = hashlib.sha256()
        for path in sorted(p for p in rep_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(rep_dir)).encode() + b"\0" + path.read_bytes())
        shutil.rmtree(rep_dir, ignore_errors=True)
        return h.hexdigest(), problems, {}


FAMILIES = {f.name: f for f in (TrainSmall, ChainsWide, OracleGrid, CliPipeline)}
