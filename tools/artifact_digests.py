"""Run every CLI command over a grid of small configs; print each artifact's sha256.

Two checkouts whose artifacts have the same bytes print the same lines:

    python3 tools/artifact_digests.py --src ../parent/src --out /tmp/parent > parent.txt
    python3 tools/artifact_digests.py --src src --out /tmp/change > change.txt
    diff parent.txt change.txt

train, sample, refine, score-check and oracle-check run in process through
daechain.cli.main, over mixture1d, mixture2d, blobs8x8 and idx_images x
dae, dvae, daae x bce, mse, at small sizes with a fixed seed and the
default grid_cols; then train, sample and refine run once more on
mixture1d with 2500 chains of 2 steps, a batch of several inference blocks.
Two runs then read a checkpoint under a dataset of another data dim: a
mixture1d model under blobs8x8 and a blobs8x8 model under mixture1d, each
through sample, refine and score-check, which exit 2 and write only their
logs. Six copies of the mixture1d-dae-bce checkpoint, each in its own
directory under corrupt-checkpoints/, carry one corruption each (bad
magic, version 7, a 10-byte prefix, one trailing byte, kind tag 3, a NaN
last parameter); sample reads each, exits 2 and writes only its log.
The idx_images runs read images.idx, 600 4x4 images
that the tool writes into --out first, so no download is needed. Each
combination writes into its own directory under --out.
The commands run from inside --out, so the paths they print are relative;
their stdout and stderr are kept as <run>/<command>.log and digested with
the other files. The output is one "exit <code>  <run> <command>" line per
command, then "<sha256>  <relative path>" for every file, sorted by path.
Only the standard library and the package are used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import struct
import sys

# n_samples only for the kinds that draw their rows: idx_images loads its whole file
DATASETS = {
    "mixture1d": ["n_samples=600"],
    "mixture2d": [
        "n_samples=600",
        "mixture_means=0.3,0.4; 0.7,0.6",
        "mixture_variances=0.0025,0.0025; 0.0025,0.0025",
    ],
    "blobs8x8": ["n_samples=600"],
    "idx_images": ["idx_path=images.idx"],
}
MODELS = ("dae", "dvae", "daae")
LOSSES = ("bce", "mse")
COMMANDS = ("train", "sample", "refine", "score-check", "oracle-check")
COMMON = ["epochs=2", "n_chains=64", "inject_sigma=0.1", "seed=3"]
# chains that span more than one inference block (2 x models._BLOCK_ROWS rows and up)
WIDE_RUN = "mixture1d-dae-bce-wide"
WIDE = ["dataset=mixture1d", "model=dae", "loss=bce", "n_samples=600",
        "n_chains=2500", "chain_steps=2"]
# (dataset trained on, dataset the checkpoint is then read under)
MISMATCHES = (("mixture1d", "blobs8x8"), ("blobs8x8", "mixture1d"))
# each a checkpoint's bytes -> the same bytes with one fault the reader rejects
CORRUPTIONS = {
    "bad-magic": lambda raw: b"X" + raw[1:],
    "version-7": lambda raw: raw[:4] + struct.pack("<I", 7) + raw[8:],
    "prefix-10": lambda raw: raw[:10],
    "trailing-byte": lambda raw: raw + b"\x00",
    "kind-tag-3": lambda raw: raw[:8] + b"\x03" + raw[9:],
    "nan-parameter": lambda raw: raw[:-8] + struct.pack("<d", math.nan),
}


def _write_idx(path: str) -> None:
    """600 dark 4x4 images (pixels 0-39), each with one bright pixel (200-255) that walks the grid."""
    n, rows, cols = 600, 4, 4
    size = rows * cols
    pixels = bytes(
        200 + i % 56 if p == i % size else (13 * i + 7 * p) % 40
        for i in range(n)
        for p in range(size)
    )
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels)


def _import_cli(src: str):
    sys.path.insert(0, src)
    import daechain
    from daechain import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(daechain.__file__))) != src:
        sys.exit(f"imported daechain from {daechain.__file__}, not from {src}")
    return cli


def _run(cli, run: str, command: str, overrides: list[str]) -> int:
    argv = [command]
    for item in [*COMMON, *overrides, f"out_dir={run}"]:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    os.makedirs(run, exist_ok=True)
    with open(os.path.join(run, f"{command}.log"), "w", encoding="utf-8") as fh:
        fh.write(f"stdout:\n{out.getvalue()}stderr:\n{err.getvalue()}")
    return code


def _digests(root: str) -> list[str]:
    lines = []
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, root).replace(os.sep, "/"), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", required=True, help="a checkout's src/ directory")
    parser.add_argument("--out", required=True, help="an empty or new directory for the artifacts")
    args = parser.parse_args(argv)
    src, out = os.path.abspath(args.src), os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        parser.error(f"--out {out} is not empty")
    cli = _import_cli(src)
    os.chdir(out)
    _write_idx("images.idx")
    for dataset, overrides in DATASETS.items():
        for model in MODELS:
            for loss in LOSSES:
                run = f"{dataset}-{model}-{loss}"
                settings = [f"dataset={dataset}", f"model={model}", f"loss={loss}", *overrides]
                for command in COMMANDS:
                    print(f"exit {_run(cli, run, command, settings)}  {run} {command}")
    for command in ("train", "sample", "refine"):
        print(f"exit {_run(cli, WIDE_RUN, command, WIDE)}  {WIDE_RUN} {command}")
    for trained, other in MISMATCHES:
        run = f"{trained}-under-{other}"
        steps = [("train", trained)] + [(c, other) for c in ("sample", "refine", "score-check")]
        for command, dataset in steps:
            settings = [f"dataset={dataset}", *DATASETS[dataset]]
            print(f"exit {_run(cli, run, command, settings)}  {run} {command}")
    with open(os.path.join("mixture1d-dae-bce", "model.ckpt"), "rb") as fh:
        raw = fh.read()
    settings = ["dataset=mixture1d", "model=dae", "loss=bce", *DATASETS["mixture1d"]]
    for name, corrupt in CORRUPTIONS.items():
        run = f"corrupt-checkpoints/{name}"
        os.makedirs(run)
        with open(os.path.join(run, "model.ckpt"), "wb") as fh:
            fh.write(corrupt(raw))
        print(f"exit {_run(cli, run, 'sample', settings)}  {run} sample")
    print("\n".join(_digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
