"""Tests for synthetic dataset generators and the dataset spec dispatch."""

import hashlib
import struct

import numpy as np
import pytest

from daechain.datasets import (
    BLOB_CENTER_BOX,
    BLOB_PEAK,
    BLOB_PIXEL_NOISE_STD,
    DATASET_KINDS,
    DatasetSpec,
    blob_images,
    build_dataset,
    generate_blobs8x8,
    generate_mixture_dataset,
)
from daechain.numeric import Prng
from daechain.oracle import GaussianMixture


def two_mode(weights=(0.5, 0.5)) -> GaussianMixture:
    return GaussianMixture(
        weights=np.array(weights),
        means=np.array([0.35, 0.65]),
        variances=np.array([0.0025, 0.0025]),
    )


class TestMixtureDataset:
    def test_shape_and_range(self):
        data = generate_mixture_dataset(two_mode(), 500, Prng(0))
        assert data.shape == (500, 1)
        assert np.all(data >= 0.0)
        assert np.all(data <= 1.0)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            generate_mixture_dataset(two_mode(), 0, Prng(0))
        with pytest.raises(ValueError):
            generate_mixture_dataset(two_mode(), -3, Prng(0))

    def test_rejects_mixture_outside_unit_box(self):
        stray = GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([1.4]),
            variances=np.array([0.01]),
        )
        with pytest.raises(ValueError):
            generate_mixture_dataset(stray, 10, Prng(0))

    def test_tiny_variance_concentrates_on_mean(self):
        gm = GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([0.5]),
            variances=np.array([1e-12]),
        )
        data = generate_mixture_dataset(gm, 200, Prng(3))
        assert np.max(np.abs(data - 0.5)) <= 1e-4

    def test_component_frequencies_match_weights(self):
        # Modes sit 3+ sigma away from the 0.5 boundary, so classifying
        # samples by which side of 0.5 they fall on recovers the component
        # label with negligible error.
        gm = two_mode(weights=(0.3, 0.7))
        data = generate_mixture_dataset(gm, 100_000, Prng(11))
        frac_low = float(np.mean(data[:, 0] < 0.5))
        assert abs(frac_low - 0.3) <= 0.01

    def test_two_dimensional_mixture(self):
        gm = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.3, 0.3], [0.7, 0.7]]),
            variances=np.array([[0.0025, 0.0025], [0.0025, 0.0025]]),
        )
        data = generate_mixture_dataset(gm, 400, Prng(5))
        assert data.shape == (400, 2)
        assert np.all((data >= 0.0) & (data <= 1.0))
        # The two coordinates of any one sample come from the same
        # component, so they should be strongly correlated.
        corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert corr > 0.9

    @pytest.mark.parametrize("dim", [1, 2])
    def test_is_the_clipped_draws_of_the_mixture(self, dim):
        # each mean sits just over 4 standard deviations inside the unit box,
        # so a few of 10^5 draws leave it and the clip moves them
        gm = GaussianMixture(
            weights=np.array([0.3, 0.7]),
            means=np.array([[0.2001] * dim, [0.7999] * dim]),
            variances=np.full((2, dim), 0.0025),
        )
        drawn = gm.sample(100_000, Prng(4))
        assert drawn.shape == (100_000, dim)
        assert np.any((drawn < 0.0) | (drawn > 1.0))
        clipped = np.clip(drawn, 0.0, 1.0).tobytes()
        assert clipped == generate_mixture_dataset(gm, 100_000, Prng(4)).tobytes()

    def test_deterministic_for_fixed_seed(self):
        a = generate_mixture_dataset(two_mode(), 50, Prng(7))
        b = generate_mixture_dataset(two_mode(), 50, Prng(7))
        assert np.array_equal(a, b)


class TestBlobImage:
    def test_shape_and_peak_value(self):
        img = blob_images([[3.0, 3.0]])[0]
        assert img.shape == (64,)
        assert img[3 * 8 + 3] == pytest.approx(BLOB_PEAK, abs=1e-15)
        assert np.argmax(img) == 3 * 8 + 3

    def test_centered_blob_brightest_in_middle(self):
        img = blob_images([[3.5, 3.5]]).reshape(8, 8)
        flat_order = np.argsort(img.reshape(-1))[::-1]
        central = {3 * 8 + 3, 3 * 8 + 4, 4 * 8 + 3, 4 * 8 + 4}
        assert set(flat_order[:4]) == central
        # All four central pixels are equidistant from the center.
        assert np.ptp(img[3:5, 3:5]) <= 1e-15

    def test_decays_away_from_center(self):
        img = blob_images([[3.5, 3.5]]).reshape(8, 8)
        assert img[0, 0] < img[2, 2] < img[3, 3]

    def test_blobs_dataset_is_the_noisy_clipped_images(self):
        rng = Prng(3)
        centers = rng.uniform((5, 2), *BLOB_CENTER_BOX)  # (col, row) per image
        noisy = blob_images(centers) + rng.normal((5, 64), BLOB_PIXEL_NOISE_STD)
        assert generate_blobs8x8(5, Prng(3)).tobytes() == np.clip(noisy, 0.0, 1.0).tobytes()
        img = blob_images([[1.0, 6.0]]).reshape(8, 8)
        assert np.argmax(img) == 6 * 8 + 1


class TestBlobsDataset:
    def test_shape_and_range(self):
        data = generate_blobs8x8(300, Prng(0))
        assert data.shape == (300, 64)
        assert np.all(data >= 0.0)
        assert np.all(data <= 1.0)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            generate_blobs8x8(0, Prng(0))

    def test_mean_image_peaks_inside_center_box(self):
        data = generate_blobs8x8(10_000, Prng(2))
        mean_img = data.mean(axis=0).reshape(8, 8)
        row, col = np.unravel_index(np.argmax(mean_img), (8, 8))
        lo, hi = BLOB_CENTER_BOX
        assert lo <= row <= hi
        assert lo <= col <= hi

    def test_corners_dimmer_than_center(self):
        data = generate_blobs8x8(5_000, Prng(4))
        mean_img = data.mean(axis=0).reshape(8, 8)
        corner = (mean_img[0, 0] + mean_img[0, 7] + mean_img[7, 0] + mean_img[7, 7]) / 4
        center = mean_img[3:5, 3:5].mean()
        assert center > corner + 0.2

    def test_deterministic_for_fixed_seed(self):
        a = generate_blobs8x8(20, Prng(9))
        b = generate_blobs8x8(20, Prng(9))
        assert np.array_equal(a, b)


class TestDatasetSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="parquet")

    def test_mixture_kind_requires_mixture(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="mixture1d")

    def test_mixture_dimension_must_match_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="mixture2d", mixture=two_mode())
        gm2 = GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([[0.5, 0.5]]),
            variances=np.array([[0.01, 0.01]]),
        )
        with pytest.raises(ValueError):
            DatasetSpec(kind="mixture1d", mixture=gm2)

    def test_idx_kind_requires_path(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="idx_images")

    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="blobs8x8", n_samples=0)

    def test_rejects_what_the_kind_does_not_read(self, tmp_path):
        with pytest.raises(ValueError, match="blobs8x8 has no ground truth; 'mixture'"):
            DatasetSpec(kind="blobs8x8", mixture=two_mode())
        with pytest.raises(ValueError, match="mixture1d reads no file; 'idx_path'"):
            DatasetSpec(kind="mixture1d", mixture=two_mode(), idx_path=str(tmp_path / "x.idx"))


def _spec_of_each_kind(tmp_path):
    idx = tmp_path / "wide.idx"
    idx.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 5) + bytes(range(30)))
    gm2 = GaussianMixture(
        weights=np.array([1.0]), means=np.array([[0.5, 0.5]]), variances=np.array([[0.01, 0.01]])
    )
    return {
        "mixture1d": DatasetSpec("mixture1d", 4, two_mode()),
        "mixture2d": DatasetSpec("mixture2d", 4, gm2),
        "blobs8x8": DatasetSpec("blobs8x8", 4),
        "idx_images": DatasetSpec("idx_images", idx_path=str(idx)),
    }


@pytest.mark.parametrize(
    "kind, shape",
    [("mixture1d", (1, 1)), ("mixture2d", (1, 2)), ("blobs8x8", (8, 8)), ("idx_images", (3, 5))],
)
def test_image_shape_of_each_kind_tiles_one_data_row(tmp_path, kind, shape):
    # a mixture row is one strip of d pixels; an IDX file gives (rows, cols)
    specs = _spec_of_each_kind(tmp_path)
    assert set(specs) == set(DATASET_KINDS)  # a new kind needs a case here
    spec = specs[kind]
    assert spec.image_shape == shape
    assert build_dataset(spec, Prng(0)).shape[1] == shape[0] * shape[1]


class TestBuildDataset:
    def test_mixture_dispatch(self):
        spec = DatasetSpec(kind="mixture1d", n_samples=64, mixture=two_mode())
        data = build_dataset(spec, Prng(1))
        direct = generate_mixture_dataset(two_mode(), 64, Prng(1))
        assert np.array_equal(data, direct)

    def test_blobs_dispatch(self):
        spec = DatasetSpec(kind="blobs8x8", n_samples=32)
        data = build_dataset(spec, Prng(1))
        direct = generate_blobs8x8(32, Prng(1))
        assert np.array_equal(data, direct)

    def test_idx_dispatch_loads_whole_file(self, tmp_path):
        path = tmp_path / "tiny.idx"
        header = struct.pack(">IIII", 0x00000803, 3, 2, 2)
        payload = bytes(range(12))
        path.write_bytes(header + payload)
        # n_samples does not apply to files: every stored image is loaded.
        spec = DatasetSpec(kind="idx_images", n_samples=1, idx_path=str(path))
        data = build_dataset(spec, Prng(0))
        assert data.shape == (3, 4)
        assert np.allclose(data[0], np.arange(4) / 255.0)


# sha256 of build_dataset(spec, Prng(2026)).tobytes() for one spec of each
# kind: a change anywhere on the dataset path that moves a single bit of
# training data fails here, before any trained artifact is compared
DATASET_SHA256 = {
    "mixture1d": "33ec24605c039b52548cc9659526a5df26dda0d7951695274ae9c2ef467e4e9e",
    "mixture2d": "f00ba595efd8f18d35e61e948b10faa0a89ea31eae05dd7e674cbf40940f7b37",
    "blobs8x8": "b720d0c90de8165787fe20aaa858901502c83daf55f256fbc18f7b7ab376212e",
    "idx_images": "5e87ea2b1cc90cde774c524dfc39029b7c03bd6c1bd307fb4c0cb8ff9d6db503",
}


def _pinned_spec(tmp_path, kind):
    if kind == "mixture1d":  # RunConfig's default mixture
        return DatasetSpec("mixture1d", 1000, two_mode())
    if kind == "mixture2d":
        gm2 = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.3, 0.4], [0.7, 0.6]]),
            variances=np.full((2, 2), 0.0025),
        )
        return DatasetSpec("mixture2d", 1000, gm2)
    if kind == "blobs8x8":
        return DatasetSpec("blobs8x8", 200)
    idx = tmp_path / "pins.idx"
    idx.write_bytes(struct.pack(">IIII", 0x00000803, 6, 3, 4) + bytes(7 * i % 256 for i in range(72)))
    return DatasetSpec("idx_images", idx_path=str(idx))


@pytest.mark.parametrize("kind", list(DATASET_SHA256))
def test_dataset_bytes_are_pinned(tmp_path, kind):
    data = build_dataset(_pinned_spec(tmp_path, kind), Prng(2026))
    assert hashlib.sha256(data.tobytes()).hexdigest() == DATASET_SHA256[kind]
