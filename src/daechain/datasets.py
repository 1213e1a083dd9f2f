"""Desk-scale training data: mixture samples, synthetic blobs, IDX files.

Mixture datasets are drawn ancestrally (pick a component by weight, then a
diagonal Gaussian draw) from mixtures confined to the unit cube, so the
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

# the dataset kinds drawn from a ground-truth mixture, and its dimension
MIXTURE_DIMS = {"mixture1d": 1, "mixture2d": 2}
DATASET_KINDS = (*MIXTURE_DIMS, "blobs8x8", "idx_images")

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
    cumulative = np.cumsum(gm.weights)
    picks = np.searchsorted(cumulative, rng.uniform((n,)), side="right")
    picks = np.minimum(picks, gm.n_components - 1)
    noise = rng.normal((n, gm.dim), 1.0)
    samples = gm.means[picks] + np.sqrt(gm.variances[picks]) * noise
    return np.clip(samples, 0.0, 1.0)


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
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"dataset kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind in MIXTURE_DIMS:
            if self.mixture is None:
                raise ValueError(f"{self.kind} needs a mixture")
            want = MIXTURE_DIMS[self.kind]
            if self.mixture.dim != want:
                raise ValueError(
                    f"{self.kind} needs a {want}-dimensional mixture, got dim {self.mixture.dim}"
                )
        if self.kind == "idx_images" and not self.idx_path:
            raise ValueError("idx_images needs idx_path")
        if self.kind != "idx_images" and self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    @property
    def image_shape(self) -> tuple[int, int]:
        """(rows, cols) of one data row as an image; idx_images reads its file's header."""
        if self.kind in MIXTURE_DIMS:
            return (1, self.mixture.dim)
        if self.kind == "blobs8x8":
            return BLOB_IMAGE_SHAPE
        _, rows, cols = read_idx_header(self.idx_path)
        return (rows, cols)


def build_dataset(spec: DatasetSpec, rng: Prng) -> np.ndarray:
    """Materialize the dataset described by spec as an (n, d) array in [0, 1]."""
    if spec.kind in MIXTURE_DIMS:
        return generate_mixture_dataset(spec.mixture, spec.n_samples, rng)
    if spec.kind == "blobs8x8":
        return generate_blobs8x8(spec.n_samples, rng)
    return load_idx_images(spec.idx_path)
