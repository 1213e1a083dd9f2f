"""Desk-scale training data: mixture samples, synthetic blobs, IDX files.

DATASET_KINDS is the one table of dataset kinds: each kind's ground truth,
the density its rows are drawn from where one is known, and whether it
reads a file. Only this module reads it; config and cli ask ground_truth,
GROUND_TRUTH_KINDS and DRAWN_KINDS. A new kind is one entry and one builder.

Mixture datasets are the mixture's own ancestral draws
(GaussianMixture.sample), from mixtures confined to the unit cube, so the
clip to [0, 1] touches almost nothing but keeps the BCE target contract
airtight. The blob dataset provides image-shaped rows (8x8 pixels, one
soft Gaussian bump each) so the image-grid export path has real content
to chew on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io_formats import load_idx_images, read_idx_header
from .numeric import Prng
from .oracle import UNIT_BOX_SPAN, GaussianMixture, confined_to_unit_box


# every dataset kind: the dimension of its ground truth, the GaussianMixture
# of the literal mixture_* keys, or None where it has none; and whether it
# reads a file, loading every image of idx_path in place of drawing rows
DATASET_KINDS = {
    "mixture1d": (1, False),
    "mixture2d": (2, False),
    "blobs8x8": (None, False),
    "idx_images": (None, True),
}
# the kinds with a ground truth, which score-check and oracle-check judge against
GROUND_TRUTH_KINDS = tuple(name for name, (dim, _) in DATASET_KINDS.items() if dim is not None)
# the kinds that draw their rows, and so read n_samples
DRAWN_KINDS = tuple(name for name, (_, reads_file) in DATASET_KINDS.items() if not reads_file)


def _kind(name: str) -> tuple[int | None, bool]:
    if name not in DATASET_KINDS:
        raise ValueError(f"dataset kind must be one of {tuple(DATASET_KINDS)}, got {name!r}")
    return DATASET_KINDS[name]


def ground_truth(kind: str, weights, means, variances) -> GaussianMixture | None:
    """The mixture that kind is drawn from, given the literal mixture keys; None if it has none."""
    truth_dim, _ = _kind(kind)
    return None if truth_dim is None else GaussianMixture(weights, means, variances)


BLOB_IMAGE_SHAPE = (8, 8)  # (rows, cols) of a blob image
BLOB_PEAK = 0.9
BLOB_SPATIAL_STD = 1.2
BLOB_PIXEL_NOISE_STD = 0.1
BLOB_CENTER_BOX = (2.0, 5.0)


def generate_mixture_dataset(gm: GaussianMixture, n: int, rng: Prng) -> np.ndarray:
    """Draw n ancestral samples from a unit-box-confined mixture, clipped to [0, 1]."""
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    if not confined_to_unit_box(gm):
        raise ValueError(
            f"mixture must keep {UNIT_BOX_SPAN:g} standard deviations inside (0, 1) per coordinate"
        )
    return np.clip(gm.sample(n, rng), 0.0, 1.0)


def blob_images(centers) -> np.ndarray:
    """Noiseless flat 8x8 blobs, one per (col, row) center: peak 0.9, spatial std 1.2 pixels."""
    c = np.asarray(centers, dtype=np.float64)
    rows, cols = BLOB_IMAGE_SHAPE
    dc = np.arange(cols, dtype=np.float64)[None, None, :] - c[:, 0, None, None]  # (n, 1, cols)
    dr = np.arange(rows, dtype=np.float64)[None, :, None] - c[:, 1, None, None]  # (n, rows, 1)
    bumps = BLOB_PEAK * np.exp(-(dr * dr + dc * dc) / (2.0 * BLOB_SPATIAL_STD**2))
    return bumps.reshape(len(c), rows * cols)


def generate_blobs8x8(n: int, rng: Prng) -> np.ndarray:
    """n flat 8x8 images, each one Gaussian bump at a random center.

    Centers are uniform in the pixel box [2, 5]^2, peak brightness 0.9,
    spatial standard deviation 1.2 pixels, plus N(0, 0.01) pixel noise,
    clipped to [0, 1].
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    lo, hi = BLOB_CENTER_BOX
    centers = rng.uniform((n, 2), lo, hi)  # (col, row) per sample
    clean = blob_images(centers)
    return np.clip(clean + rng.normal(clean.shape, BLOB_PIXEL_NOISE_STD), 0.0, 1.0)


@dataclass(frozen=True)
class DatasetSpec:
    """Which dataset to build and with what parameters."""

    kind: str
    n_samples: int = 10_000
    mixture: GaussianMixture | None = None
    idx_path: str | None = None

    def __post_init__(self):
        truth_dim, reads_file = _kind(self.kind)
        if truth_dim is None:
            if self.mixture is not None:
                raise ValueError(f"{self.kind} has no ground truth; 'mixture' does not apply")
        elif self.mixture is None:
            raise ValueError(f"{self.kind} needs a mixture")
        elif self.mixture.dim != truth_dim:
            raise ValueError(
                f"{self.kind} needs a {truth_dim}-dimensional mixture, got dim {self.mixture.dim}"
            )
        if reads_file:
            if not self.idx_path:
                raise ValueError(f"{self.kind} needs idx_path")
        elif self.idx_path:
            raise ValueError(f"{self.kind} reads no file; 'idx_path' does not apply")
        elif self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    @property
    def image_shape(self) -> tuple[int, int]:
        """(rows, cols) of one data row as an image; idx_images reads its file's header."""
        truth_dim, reads_file = DATASET_KINDS[self.kind]
        if truth_dim is not None:
            return (1, truth_dim)
        if reads_file:
            _, rows, cols = read_idx_header(self.idx_path)
            return (rows, cols)
        return BLOB_IMAGE_SHAPE


def build_dataset(spec: DatasetSpec, rng: Prng) -> np.ndarray:
    """Materialize the dataset described by spec as an (n, d) array in [0, 1]."""
    truth_dim, reads_file = DATASET_KINDS[spec.kind]
    if truth_dim is not None:
        return generate_mixture_dataset(spec.mixture, spec.n_samples, rng)
    if reads_file:
        return load_idx_images(spec.idx_path)
    return generate_blobs8x8(spec.n_samples, rng)
