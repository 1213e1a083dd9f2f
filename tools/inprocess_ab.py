"""Time the closed-form oracle, inference and training of two checkouts side by side in one process.

    python3 tools/inprocess_ab.py --parent ../parent/src --change src --pairs 10

Each tree's daechain package is copied into a temporary directory under
its own name (daechain_parent, daechain_change) and both are imported here,
so both sides share one interpreter, one numpy and one BLAS thread pool,
and the run-to-run noise of separate processes drops out. A pair times
every case on both sides and asserts that the two sides' outputs have the
same bytes. Within a pair the sides' runs interleave (parent, change,
parent, ..., REPEAT (3) runs each, the side that goes first alternating
from pair to pair), and a side's sample is its fastest run, so host load
that comes and goes falls on both sides of a pair alike. The output is one
line per case: each side's median and quartiles over the pairs, in
microseconds per point or call (milliseconds per fit), the median and
quartiles of the per-pair ratio change / parent, and the number of pairs
in which the change was faster.

The cases are the closed form's hot shapes: the single-point R* sweeps of
perfbench's oracle_grid family (7 sigmas x 401 points in 1-D, 2 x 441 in
2-D; per point), the same 1-D sweep on a 7-component mixture (the largest
whose single points optimal_reconstruction evaluates in Python floats),
large 1-D and 2-D batches (per call), 1e5 chains of 10 steps of an
untrained DAE scored against the mixture (per call; the oracle part is log
p and the mode of the 1.1e6 recorded states), and the 49-component 64-d
blob-template mixture of tests/test_oracle.py, whose single points take the
row-block path (per point), inference: a 1e5-row 1-D reconstruct (many
blocks) and a 256-row 64-d one (one block, the CLI's chain batch), and
perfbench's train_small fits (dae/bce, dvae/mse and daae/bce on 10,000
mixture1d rows, 1 epoch, batch 100, latent 2, hidden 64,64, sigma 0.5; per
fit, their parameters and trace rows compared). Only the standard library
and numpy are used.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

# perfbench/workloads.py's MIX1, MIX2 and sweep sigmas
MIX1 = ([0.5, 0.5], [[0.35], [0.65]], [[0.0025], [0.0025]])
MIX2 = ([0.5, 0.5], [[0.3, 0.4], [0.7, 0.6]], [[0.0025] * 2] * 2)
SIGMAS_1D = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
SIGMAS_2D = (0.5, 0.1)
# 7 equal components in 1-D, means 0.2 to 0.8
MIX7 = (np.full(7, 1.0 / 7), np.linspace(0.2, 0.8, 7)[:, None], np.full((7, 1), 0.0025))
# perfbench/workloads.py's TRAIN_FITS and N_SAMPLES
TRAIN_FITS = (("dae", "bce"), ("dvae", "mse"), ("daae", "bce"))
TRAIN_ROWS = 10_000
SIDES = ("parent", "change")
REPEAT = 3  # runs per sample; a sample is the fastest of them
SCALES = {"point": ("us", 1e6), "call": ("us", 1e6), "fit": ("ms", 1e3)}


def _blob_mixture(pkg):
    """49 equal-weight 8x8 blob templates 0.1 + 0.8 * bump, centres on a 7x7 grid,
    pixel std 0.02: the blob-template mixture of tests/test_oracle.py."""
    ds = pkg.datasets
    axis = np.linspace(*ds.BLOB_CENTER_BOX, 7)
    centers = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(49, 2)
    templates = 0.1 + 0.8 * (ds.blob_images(centers) / ds.BLOB_PEAK)
    return pkg.GaussianMixture(np.full(49, 1.0 / 49), templates, np.full((49, 64), 0.02**2))


def _fit(pkg, kind, loss, data):
    """A train_small fit: the model's parameters and its trace rows' values."""
    cfg = pkg.TrainConfig(loss_kind=loss, epochs=1, batch_size=100, seed=5)
    model, trace = pkg.train(kind, data, cfg, latent_dim=2, hidden=(64, 64), sigma=0.5)
    return [mlp.flat for mlp in model.networks] + [[v for row in trace for v in row.values()]]


def _cases(pkg):
    """(name, unit, unit count, body) for each case; a body returns the arrays it computed."""
    oracle, sampler, Prng = pkg.oracle, pkg.sampler, pkg.Prng
    opt = oracle.optimal_reconstruction
    gm1, gm2, blob = pkg.GaussianMixture(*MIX1), pkg.GaussianMixture(*MIX2), _blob_mixture(pkg)
    gm7 = pkg.GaussianMixture(*MIX7)
    gen = np.random.default_rng(0)
    points1 = np.sort(gen.uniform(-0.25, 1.25, 401))[:, None]
    axes = [np.sort(gen.uniform(0.0, 1.0, 21)) for _ in range(2)]
    points2 = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    rows1, rows2 = gen.uniform(-0.25, 1.25, (100_000, 1)), gen.uniform(0.0, 1.0, (100_000, 2))
    trace1 = gen.uniform(0.0, 1.0, (1_100_000, 1))
    blob_rows = gen.uniform(0.0, 1.0, (1024, 64))
    wide_rows = gen.uniform(0.0, 1.0, (256, 64))
    model = pkg.build_model("dae", 1, 2, Prng(1), hidden=(64, 64), sigma=0.5)
    wide = pkg.build_model("dae", 64, 2, Prng(3), hidden=(64, 64), sigma=0.5)
    chain_cfg = sampler.ChainConfig(10, 0.5)
    train_rows = pkg.build_dataset(pkg.DatasetSpec("mixture1d", TRAIN_ROWS, gm1), Prng(4))

    def chains():
        trace = sampler.sample_from_noise(model, 100_000, chain_cfg, Prng(2), gm1)
        return trace.states, trace.log_densities, trace.mode_membership

    return [
        ("single-point R* sweep, 1-D", "point", len(SIGMAS_1D) * len(points1),
         lambda: [opt(gm1, s, p) for s in SIGMAS_1D for p in points1]),
        ("single-point R* sweep, 2-D", "point", len(SIGMAS_2D) * len(points2),
         lambda: [opt(gm2, s, p) for s in SIGMAS_2D for p in points2]),
        ("single-point R* sweep, 1-D, 7 components", "point", len(SIGMAS_1D) * len(points1),
         lambda: [opt(gm7, s, p) for s in SIGMAS_1D for p in points1]),
        ("single-point R*, 64 points of the 49-component 64-d mixture", "point", 64,
         lambda: [opt(blob, 0.05, p) for p in blob_rows[:64]]),
        ("log p and mode, 1.1e6 1-D rows", "call", 1,
         lambda: oracle.mixture_log_pdf_and_mode(gm1, trace1)),
        ("R*, 1e5 rows, 1-D", "call", 1, lambda: [opt(gm1, 0.1, rows1)]),
        ("R*, 1e5 rows, 2-D", "call", 1, lambda: [opt(gm2, 0.1, rows2)]),
        ("1e5 chains x 10 steps with the mixture", "call", 1, chains),
        ("R*, 1024 rows of the 49-component 64-d mixture", "call", 1,
         lambda: [opt(blob, 0.05, blob_rows)]),
        ("log p and mode, same 1024 rows", "call", 1,
         lambda: oracle.mixture_log_pdf_and_mode(blob, blob_rows)),
        ("reconstruct, 1e5 rows, 1-D", "call", 1, lambda: [pkg.reconstruct(model, rows1)]),
        ("reconstruct, 256 rows, 64-d", "call", 1, lambda: [pkg.reconstruct(wide, wide_rows)]),
        *((f"train_small fit, {kind}/{loss}", "fit", 1,
           lambda kind=kind, loss=loss: _fit(pkg, kind, loss, train_rows))
          for kind, loss in TRAIN_FITS),
    ]


def _import_copy(src: str, tmp: str, side: str):
    """Import src's daechain package as daechain_<side>, from a copy under tmp."""
    name = f"daechain_{side}"
    shutil.copytree(
        os.path.join(src, "daechain"), os.path.join(tmp, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return importlib.import_module(name)  # imports every module the cases use


def _sample(bodies):
    """Each body's fastest of REPEAT runs, in seconds, the bodies run in turn
    (one run of each, REPEAT times), and each body's last output as bytes."""
    best, outs = [float("inf")] * len(bodies), [None] * len(bodies)
    for _ in range(REPEAT):
        for i, body in enumerate(bodies):
            start = time.perf_counter()
            outs[i] = body()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, [b"".join(np.asarray(a).tobytes() for a in out) for out in outs]


def summary(parent, change):
    """Quartiles (q1, median, q3) of the parent's samples, of the change's and
    of the per-pair ratios change / parent, and the number of pairs the change
    won (took less time), for two equally long lists of paired samples."""
    def quartiles(values):
        return tuple(statistics.quantiles(values, n=4, method="inclusive"))

    ratios = [c / p for p, c in zip(parent, change, strict=True)]
    won = sum(c < p for p, c in zip(parent, change))
    return quartiles(parent), quartiles(change), quartiles(ratios), won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the parent checkout's src/ directory")
    parser.add_argument("--change", required=True, help="the changed checkout's src/ directory")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per case")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need --pairs >= 2")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        cases = {
            side: _cases(_import_copy(os.path.abspath(src), tmp, side))
            for side, src in zip(SIDES, (args.parent, args.change))
        }
        sys.path.remove(tmp)
    times = {(name, side): [] for name, *_ in cases["parent"] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for i, (name, unit, units, _) in enumerate(cases["parent"]):
            seconds, outputs = _sample([cases[side][i][3] for side in order])
            for side, sec in zip(order, seconds):
                times[name, side].append(sec / units * SCALES[unit][1])
            if outputs[0] != outputs[1]:
                sys.exit(f"pair {pair}: {name}: the outputs of the two sides differ")
    print(f"{args.pairs} pairs, fastest of {REPEAT} interleaved runs per side and pair; "
          "median [q1, q3]")
    for name, unit, _, _ in cases["parent"]:
        (pq1, pmed, pq3), (cq1, cmed, cq3), (rq1, rmed, rq3), won = summary(
            times[name, "parent"], times[name, "change"]
        )
        print(f"{name} ({SCALES[unit][0]} per {unit}): parent {pmed:.2f} [{pq1:.2f}, {pq3:.2f}]  "
              f"change {cmed:.2f} [{cq1:.2f}, {cq3:.2f}]  "
              f"ratio {rmed:.3f} [{rq1:.3f}, {rq3:.3f}]  won {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
