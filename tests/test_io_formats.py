"""Tests for checkpoint, PGM, CSV, and IDX readers and writers.

Corruption tests patch bytes at fixed offsets; the header layout is
magic(0:4) version(4:8) kind(8) sigma(9:17) latent(17:21) dropout(21:29).
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import read_pgm

from daechain import io_formats
from daechain.io_formats import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    IdxFormatError,
    load_checkpoint,
    load_idx_images,
    read_idx_header,
    save_checkpoint,
    write_csv,
    write_pgm_grid,
)
from daechain.models import build_model
from daechain.numeric import Prng


def small_model(kind: str, seed: int = 0):
    return build_model(
        kind,
        data_dim=3,
        latent_dim=2,
        rng=Prng(seed),
        hidden=(5, 4),
        sigma=0.35,
        dropout_rate=0.15,
        disc_hidden=(6,),
    )


def mlps_of(model):
    mlps = [model.encoder, model.decoder]
    if model.kind == "daae":
        mlps.append(model.discriminator)
    return mlps


def assert_models_identical(a, b):
    assert a.kind == b.kind
    assert a.corruption.sigma == b.corruption.sigma
    if a.kind == "daae":
        assert a.dropout_rate == b.dropout_rate
    for ma, mb in zip(mlps_of(a), mlps_of(b)):
        assert ma.spec == mb.spec
        for wa, wb in zip(ma.weights, mb.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(ma.biases, mb.biases):
            assert np.array_equal(ba, bb)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", ["dae", "dvae", "daae"])
    def test_bitwise_round_trip(self, kind, tmp_path):
        model = small_model(kind)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert_models_identical(model, loaded)

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = small_model("daae", seed=4)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "kind, size, digest",
        [
            ("dae", 956, "eafddb1c9b60c03e0e10409a8c031bb54a1423f644353c35db02e53f031d7567"),
            ("dvae", 1036, "8394f79989a54d8f43989940b2286e73263143c0a24f40eee3745451d9058713"),
            ("daae", 1179, "9b009ad3d7757d195cd231246e7a3de403e49cf76e47b373627803ffe3c4965c"),
        ],
    )
    def test_written_bytes_are_pinned(self, kind, size, digest, tmp_path):
        # absolute bytes, so a rewrite of the writer cannot drift from the
        # format that existing checkpoint files already use
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_model(kind), path)
        data = path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_model("dae"), path)
        assert path.read_bytes()[:4] == CHECKPOINT_MAGIC

    def test_errors_are_value_errors(self):
        assert issubclass(CheckpointError, ValueError)


class TestCheckpointCorruption:
    def make_bytes(self, tmp_path, kind="dae"):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_model(kind), path)
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        raw[5] = 7  # version u32 becomes 0x00000701
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_unknown_kind_tag(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        raw[8] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="kind tag"):
            load_checkpoint(path)

    def test_latent_mismatch(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        raw[17:21] = struct.pack("<I", 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="latent"):
            load_checkpoint(path)

    def test_truncated_parameters(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        path.write_bytes(bytes(raw[: len(raw) // 2]))
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        path.write_bytes(bytes(raw[:10]))
        with pytest.raises(CheckpointError, match="ends at byte 10, needed 30"):
            load_checkpoint(path)

    def test_trailing_data(self, tmp_path):
        path, raw = self.make_bytes(tmp_path)
        path.write_bytes(bytes(raw) + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("network, index", [("encoder", 0), ("decoder", 3)])
    def test_non_finite_parameter_names_its_byte(self, tmp_path, value, network, index):
        # a dae's decoder parameters end the file; its encoder's precede them
        model = small_model("dae")
        n_enc, n_dec = model.encoder.flat.size, model.decoder.flat.size
        getattr(model, network).flat[index] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        params_at = path.stat().st_size - 8 * (n_enc + n_dec)
        at = params_at + 8 * (index + (n_enc if network == "decoder" else 0))
        with pytest.raises(CheckpointError, match=f"non-finite parameter .* at byte {at}$"):
            load_checkpoint(path)


class TestPgmGrid:
    def test_single_image_exact_payload(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm_grid(np.ones((1, 4)), (2, 2), 1, path)
        raw = path.read_bytes()
        assert raw == b"P5\n2 2\n255\n" + bytes([255] * 4)

    def test_grid_dimensions_and_separators(self, tmp_path):
        path = tmp_path / "grid.pgm"
        images = np.full((3, 4), 0.5)
        write_pgm_grid(images, (2, 2), 2, path)
        canvas = read_pgm(path)
        # 2x2 cells of 2x2 tiles with 1-pixel gaps: 5x5 canvas.
        assert canvas.shape == (5, 5)
        assert np.all(canvas[2, :] == 0.0)
        assert np.all(canvas[:, 2] == 0.0)
        # Fourth cell has no image and stays black.
        assert np.all(canvas[3:, 3:] == 0.0)
        assert np.all(canvas[:2, :2] == 128.0 / 255.0)

    def test_values_clamped_and_quantized(self, tmp_path):
        path = tmp_path / "clamp.pgm"
        write_pgm_grid(np.array([[-0.5, 0.0, 1.0, 2.0]]), (2, 2), 1, path)
        canvas = read_pgm(path)
        assert np.array_equal(canvas.reshape(-1) * 255.0, [0.0, 0.0, 255.0, 255.0])

    def test_quantization_rounds_to_nearest(self, tmp_path):
        path = tmp_path / "round.pgm"
        # 0.5/255 is exactly half a quantum; rint rounds to even (0).
        write_pgm_grid(np.array([[1.4 / 255.0, 1.6 / 255.0, 200.5 / 255.0, 0.0]]), (2, 2), 1, path)
        canvas = read_pgm(path) * 255.0
        assert np.array_equal(canvas.reshape(-1), [1.0, 2.0, 200.0, 0.0])

    def test_round_trip_is_exact_on_quantized_values(self, tmp_path):
        path = tmp_path / "rt.pgm"
        levels = np.arange(64, dtype=np.float64) / 255.0
        write_pgm_grid(levels.reshape(1, 64), (8, 8), 1, path)
        back = read_pgm(path)
        assert np.array_equal(back.reshape(-1), levels)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_tiles_separators_and_shape(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 12), label="n")
        h, w = data.draw(st.integers(1, 5), label="h"), data.draw(st.integers(1, 5), label="w")
        grid_cols = data.draw(st.integers(1, 15), label="grid_cols")
        images = np.array(
            data.draw(st.lists(st.floats(-0.5, 1.5), min_size=n * h * w, max_size=n * h * w)),
        ).reshape(n, h * w)
        path = tmp_path_factory.getbasetemp() / "prop.pgm"
        write_pgm_grid(images, (h, w), grid_cols, path)
        canvas = read_pgm(path)
        rows, cols = math.ceil(n / grid_cols), min(grid_cols, n)
        assert canvas.shape == (rows * (h + 1) - 1, cols * (w + 1) - 1)
        covered = np.zeros(canvas.shape, dtype=bool)
        for i in range(n):
            r, c = divmod(i, grid_cols)
            tile = np.s_[r * (h + 1) : r * (h + 1) + h, c * (w + 1) : c * (w + 1) + w]
            want = np.rint(np.clip(images[i], 0.0, 1.0) * 255.0) / 255.0
            assert np.array_equal(canvas[tile], want.reshape(h, w))
            covered[tile] = True
        # separators and unused cells are black
        assert np.all(canvas[~covered] == 0.0)

    def test_rejects_bad_shape_and_grid(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm_grid(np.ones((1, 5)), (2, 2), 1, tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            write_pgm_grid(np.ones((1, 4)), (2, 2), 0, tmp_path / "x.pgm")

    def test_read_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            read_pgm(path)


class TestCsv:
    def test_header_plus_one_line_per_row(self, tmp_path):
        path = tmp_path / "rows.csv"
        # Python sequences keep each value's own type: no shared dtype
        write_csv({"a": [1, 3, 0], "b": [2.5, -1, 0]}, path)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines == ["a,b", "1,2.5", "3,-1", "0,0"]
        assert text.endswith("\n")

    def test_newlines_are_unix(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv({"x": np.arange(3)}, path)
        assert b"\r" not in path.read_bytes()
        assert path.read_bytes() == b"x\n0\n1\n2\n"

    def test_column_order_follows_mapping(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv({"z": [1], "a": [2]}, path)
        assert path.read_text(encoding="utf-8").splitlines() == ["z,a", "1,2"]

    def test_rejects_unequal_lengths(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv({"a": [1, 2], "b": np.zeros(3)}, tmp_path / "x.csv")

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv({}, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            write_csv({"a": [], "b": np.zeros(0)}, tmp_path / "x.csv")

    def test_signed_zeros_and_nan_keep_their_own_text(self, tmp_path):
        # distinct values are formatted once; 0.0 == -0.0, so only a key on
        # the bits, not on the value, keeps the sign of each zero
        path = tmp_path / "zeros.csv"
        write_csv({"x": np.array([0.0, -0.0, 0.0, np.nan, -0.0])}, path)
        assert path.read_bytes() == b"x\n0.0\n-0.0\n0.0\nnan\n-0.0\n"

    @staticmethod
    def row_dict_csv(rows) -> bytes:
        """The row-dict writer the column form replaced, kept as the byte reference."""
        columns = list(rows[0].keys())
        lines = [",".join(columns)]
        lines.extend(",".join(str(row[c]) for c in columns) for row in rows)
        return ("\n".join(lines) + "\n").encode("utf-8")

    @staticmethod
    def laid_out(column, layout):
        """The same values as a contiguous array or a strided view."""
        if layout == "a[::2]":
            buf = np.full(2 * len(column), 7, dtype=column.dtype)
            buf[::2] = column
            return buf[::2]
        if layout == "m[:, j]":
            m = np.full((len(column), 3), 7, dtype=column.dtype)
            m[:, 1] = column
            return m[:, 1]
        return column

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_columns_write_the_bytes_of_row_dicts(self, tmp_path_factory, data):
        special = st.sampled_from(
            [-0.0, 5e-324, -2.2e-308, 1e300, -1e-300, math.inf, -math.inf, math.nan]
        )
        names = data.draw(
            st.lists(st.text("abxyz_09", min_size=1, max_size=4), min_size=1, max_size=5,
                     unique=True),
            label="names",
        )
        n = data.draw(st.integers(1, 200), label="rows")
        columns = {}
        for name in names:
            if data.draw(st.booleans(), label=f"{name} is float"):
                elements = st.one_of(special, st.floats(width=64))
                if data.draw(st.booleans(), label=f"{name} repeats"):
                    # a small pool, so values repeat as in converged chains;
                    # signed zeros and nan always among them
                    extra = data.draw(st.lists(elements, max_size=5), label=f"{name} pool")
                    elements = st.sampled_from([0.0, -0.0, math.nan, *extra])
                values = np.array(
                    data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64
                )
            else:
                values = np.array(
                    data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
                    dtype=np.int64,
                )
            layout = data.draw(
                st.sampled_from(["contiguous", "a[::2]", "m[:, j]"]), label=f"{name} layout"
            )
            columns[name] = self.laid_out(values, layout)
        path = tmp_path_factory.getbasetemp() / "columns.csv"
        write_csv(columns, path)
        rows = [{name: col[i] for name, col in columns.items()} for i in range(n)]
        assert path.read_bytes() == self.row_dict_csv(rows)


class TestIdx:
    def write_idx(self, path, n, rows, cols, payload: bytes):
        path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + payload)

    def test_header_fields(self, tmp_path):
        path = tmp_path / "img.idx"
        self.write_idx(path, 2, 2, 2, bytes(8))
        assert read_idx_header(path) == (2, 2, 2)

    def test_loads_scaled_pixels(self, tmp_path, monkeypatch):
        path = tmp_path / "img.idx"
        self.write_idx(path, 2, 2, 2, bytes([0, 255, 128, 64, 1, 2, 3, 4]))
        opened = []
        monkeypatch.setattr(
            io_formats, "open", lambda *args: opened.append(args) or open(*args), raising=False
        )
        images = load_idx_images(path)
        assert len(opened) == 1  # the header is parsed from the one read of the file
        assert images.shape == (2, 4)
        assert np.array_equal(images[0], np.array([0, 255, 128, 64]) / 255.0)
        assert np.array_equal(images[1], np.array([1, 2, 3, 4]) / 255.0)

    def test_round_trip_of_synthetic_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
        path = tmp_path / "img.idx"
        self.write_idx(path, 5, 2, 3, pixels.tobytes())
        images = load_idx_images(path)
        assert np.array_equal(np.rint(images * 255.0).astype(np.uint8), pixels)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "img.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000801, 2, 2, 2) + bytes(8))
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx_header(path)

    def test_rejects_short_header(self, tmp_path):
        path = tmp_path / "img.idx"
        path.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(IdxFormatError, match="truncated"):
            read_idx_header(path)

    def test_rejects_missing_magic(self, tmp_path):
        path = tmp_path / "img.idx"
        path.write_bytes(b"\x00\x08")
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx_header(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "img.idx"
        self.write_idx(path, 3, 2, 2, bytes(11))
        with pytest.raises(IdxFormatError, match="expected 28"):
            load_idx_images(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "img.idx"
        self.write_idx(path, 1, 2, 2, bytes(5))
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx_images(path)

    @pytest.mark.parametrize(
        "n, rows, cols, where",
        [(0, 2, 2, "image count at byte 4"), (3, 0, 2, "rows at byte 8"),
         (3, 2, 0, "cols at byte 12")],
    )
    def test_rejects_zero_sizes(self, tmp_path, n, rows, cols, where):
        path = tmp_path / "img.idx"
        self.write_idx(path, n, rows, cols, b"")
        with pytest.raises(IdxFormatError, match=f"{where} is 0"):
            read_idx_header(path)
        with pytest.raises(IdxFormatError, match=f"{where} is 0"):
            load_idx_images(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_changed_or_truncated_bytes_load_consistently_or_raise(self, tmp_path_factory, data):
        pixels = data.draw(st.binary(min_size=3 * 2 * 3, max_size=3 * 2 * 3), label="pixels")
        raw = bytearray(struct.pack(">IIII", 0x00000803, 3, 2, 3) + pixels)
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            # half of the changes land in the 16-byte header
            pos = data.draw(
                st.one_of(st.integers(0, 15), st.integers(0, len(raw) - 1)), label="position"
            )
            raw[pos] = (raw[pos] + data.draw(st.integers(1, 255), label="delta")) % 256
        path = tmp_path_factory.getbasetemp() / "changed.idx"
        path.write_bytes(bytes(raw))
        try:
            images = load_idx_images(path)
        except IdxFormatError:
            return
        n, rows, cols = struct.unpack(">III", bytes(raw[4:16]))
        assert raw[:4] == struct.pack(">I", 0x00000803)
        assert images.shape == (n, rows * cols)
        assert np.array_equal(images.ravel() * 255.0, np.frombuffer(bytes(raw[16:]), np.uint8))


# ---------------------------------------------------------------------------
# checkpoint bytes: every decoded value is validated, and loads are exact
# ---------------------------------------------------------------------------

# The first spec block starts right after the 30-byte header:
# magic(4) version(4) kind(1) sigma(8) latent(4) dropout(8) n_mlps(1).
SPEC_START = 30
# The dae encoder of small_model has layer sizes 3, 5, 4, 2, so its
# activation tags follow the u8 count and four u32 sizes.
TAGS_START = SPEC_START + 1 + 4 * 4


@pytest.mark.parametrize(
    "kind, offset, patch, where",
    [
        ("dae", 9, struct.pack("<d", -0.5), "sigma at byte 9"),
        ("dae", 9, struct.pack("<d", float("nan")), "sigma at byte 9"),
        ("dae", SPEC_START + 1, struct.pack("<I", 0), f"spec at byte {SPEC_START}"),
        ("daae", 21, struct.pack("<d", 2.0), "declared at byte 8"),
        ("dae", 8, bytes([1]), "dvae model declared at byte 8"),
        ("dae", 8, bytes([3]), "unknown model kind tag 3 at byte 8"),
        ("dae", TAGS_START, bytes([2]), f"unknown activation tag at byte {TAGS_START}"),
        ("dae", TAGS_START + 1, bytes([2]), f"unknown activation tag at byte {TAGS_START + 1}"),
        # a count below 2, with valid tags after it, so the count is what fails
        ("dae", SPEC_START, bytes([0, 0, 1]), f"network with 0 layer sizes at byte {SPEC_START}"),
        (
            "dae", SPEC_START, bytes([1]) + struct.pack("<I", 3) + bytes([0, 1]),
            f"network with 1 layer sizes at byte {SPEC_START}",
        ),
    ],
    ids=[
        "negative-sigma", "nan-sigma", "zero-layer-size", "daae-dropout-2", "dae-as-dvae",
        "kind-tag-3", "hidden-tag-2", "output-tag-2", "zero-sizes", "one-size",
    ],
)
def test_rejected_header_values_are_format_errors(kind, offset, patch, where, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(kind), path)
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=where):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["dae", "dvae", "daae"])
def test_every_short_prefix_is_truncated(kind, tmp_path):
    # cuts inside the header, inside a spec block and inside the parameters
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(kind), path)
    raw = path.read_bytes()
    for length in range(len(raw)):
        path.write_bytes(raw[:length])
        with pytest.raises(CheckpointError, match=f"ends at byte {length}, needed"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt_bytes")
    out = {}
    for kind in ("dae", "dvae", "daae"):
        path = root / f"{kind}.ckpt"
        save_checkpoint(small_model(kind), path)
        out[kind] = path.read_bytes()
    return root, out


@pytest.mark.parametrize("kind", ["dae", "dvae", "daae"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_changed_or_truncated_bytes_load_exactly_or_raise(kind, saved_checkpoints, data):
    root, originals = saved_checkpoints
    raw = bytearray(originals[kind])
    header_and_specs = len(raw) - 8 * sum(
        mlp.spec.n_params for mlp in small_model(kind).networks
    )
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # half of the changes land in the header and specs, where the
        # decoded values are validated; the rest anywhere
        pos = data.draw(
            st.one_of(st.integers(0, header_and_specs - 1), st.integers(0, len(raw) - 1)),
            label="position",
        )
        raw[pos] = (raw[pos] + data.draw(st.integers(1, 255), label="delta")) % 256
    changed, resaved = root / f"{kind}_changed.ckpt", root / f"{kind}_resaved.ckpt"
    changed.write_bytes(bytes(raw))
    try:
        model = load_checkpoint(changed)
    except CheckpointError:
        return
    save_checkpoint(model, resaved)
    assert resaved.read_bytes() == bytes(raw)
