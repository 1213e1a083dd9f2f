"""Binary and text artifact formats: checkpoints, PGM grids, CSV, IDX.

The checkpoint layout is fixed and explicit so round trips are bitwise:

    magic "DAEB" | version u32 LE | kind u8 | sigma f64 | latent u32
    | dropout f64 | n_mlps u8 | one spec block per network | parameters

which is struct "<4sIBdIdB" up to the spec blocks. A spec block, struct
"<B{n}IBBd", is: layer count+1 sizes (u8 count, u32 LE each), a hidden
activation tag, an output activation tag (u8 each), and the leaky slope
(f64). Parameters follow as little-endian float64, one array per network
in declaration order (encoder, decoder, then discriminator if present):
each network's Mlp.flat vector, which holds per layer the weights
row-major then the biases. That is byte for byte the per-layer order
version 1 has always used. Loading rebuilds the specs first, so every
shape and cross-network invariant is re-validated on the way in; a
decoded value the model types reject raises CheckpointFormatError
naming its byte offset.

Images are exported as binary PGM (P5, maxval 255), tiled row-major with
one-pixel black separators; values are clamped to [0, 1] and quantized at
write time only. IDX image files use the de-facto big-endian layout with
magic 0x00000803.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

from .models import Autoencoder, CorruptionSpec
from .nn import Mlp, MlpSpec

CHECKPOINT_MAGIC = b"DAEB"
CHECKPOINT_VERSION = 1
IDX_IMAGE_MAGIC = 0x00000803

_KIND_TAGS = {"dae": 0, "dvae": 1, "daae": 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
_HIDDEN_TAGS = {"relu": 0, "leaky_relu": 1}
_TAG_HIDDEN = {v: k for k, v in _HIDDEN_TAGS.items()}
_OUTPUT_TAGS = {"identity": 0, "sigmoid": 1}
_TAG_OUTPUT = {v: k for k, v in _OUTPUT_TAGS.items()}


class CheckpointError(ValueError):
    """Base class for unreadable checkpoint files."""


class CheckpointFormatError(CheckpointError):
    """Bad magic, unknown tag, or leftover bytes."""


class CheckpointVersionError(CheckpointError):
    """The file declares a format version this code does not speak."""


class CheckpointTruncatedError(CheckpointError):
    """The file ends before the declared content does."""


class IdxFormatError(ValueError):
    """An IDX file whose header or payload does not add up."""


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _pack_spec(spec: MlpSpec) -> bytes:
    sizes = spec.layer_sizes
    hidden, output = _HIDDEN_TAGS[spec.hidden_activation], _OUTPUT_TAGS[spec.output_activation]
    return struct.pack(f"<B{len(sizes)}IBBd", len(sizes), *sizes, hidden, output, spec.leaky_slope)


def save_checkpoint(model: Autoencoder, path) -> None:
    """Serialize a model; the written file loads back bitwise-identical."""
    mlps = model.networks
    blob = [
        struct.pack(
            "<4sIBdIdB", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _KIND_TAGS[model.kind],
            model.corruption.sigma, model.latent_dim, model.dropout_rate, len(mlps),
        ),
        *(_pack_spec(mlp.spec) for mlp in mlps),
    ]
    blob.extend(np.ascontiguousarray(mlp.flat, dtype="<f8").tobytes() for mlp in mlps)
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.offset = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CheckpointTruncatedError(
                f"{self.what} ends at byte {len(self.data)}, "
                f"needed {self.offset + n}"
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


@contextmanager
def _decoded(offset: int, what: str):
    """Report a decoded value the model types reject as a format error."""
    try:
        yield
    except ValueError as exc:
        raise CheckpointFormatError(f"{what} at byte {offset}: {exc}") from exc


def _read_spec(reader: _Reader) -> MlpSpec:
    start = reader.offset
    (n_sizes,) = reader.unpack("<B")
    if n_sizes < 2:
        raise CheckpointFormatError(f"network with {n_sizes} layer sizes at byte {reader.offset}")
    sizes = reader.unpack(f"<{n_sizes}I")
    hidden_tag, output_tag, slope = reader.unpack("<BBd")
    if hidden_tag not in _TAG_HIDDEN or output_tag not in _TAG_OUTPUT:
        raise CheckpointFormatError(
            f"unknown activation tag at byte {reader.offset}"
        )
    with _decoded(start, "network spec"):
        return MlpSpec(sizes, _TAG_HIDDEN[hidden_tag], _TAG_OUTPUT[output_tag], slope)


def load_checkpoint(path) -> Autoencoder:
    """Read a checkpoint back into a model, validating as it goes."""
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(data, f"checkpoint {path}")
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic in {path}; not a checkpoint file")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} is not supported (expected {CHECKPOINT_VERSION})"
        )
    kind_at = reader.offset
    (kind_tag,) = reader.unpack("<B")
    if kind_tag not in _TAG_KINDS:
        raise CheckpointFormatError(f"unknown model kind tag {kind_tag} at byte {kind_at}")
    kind = _TAG_KINDS[kind_tag]
    sigma_at = reader.offset
    (sigma,) = reader.unpack("<d")
    with _decoded(sigma_at, "corruption sigma"):
        corruption = CorruptionSpec(sigma)
    (latent,) = reader.unpack("<I")
    (dropout,) = reader.unpack("<d")
    (n_mlps,) = reader.unpack("<B")
    expected = 3 if kind == "daae" else 2
    if n_mlps != expected:
        raise CheckpointFormatError(
            f"{kind} checkpoint declares {n_mlps} networks, expected {expected}"
        )
    specs = [_read_spec(reader) for _ in range(n_mlps)]
    mlps = [
        Mlp(spec, np.frombuffer(reader.take(8 * spec.n_params), dtype="<f8").astype(np.float64))
        for spec in specs
    ]
    if reader.offset != len(data):
        raise CheckpointFormatError(
            f"trailing data after byte {reader.offset} in {path}"
        )
    with _decoded(kind_at, f"{kind} model declared"):
        model = Autoencoder(kind, mlps[0], mlps[1], corruption, *mlps[2:], dropout_rate=dropout)
    if model.latent_dim != latent:
        raise CheckpointFormatError(
            f"declared latent dim {latent} does not match networks ({model.latent_dim})"
        )
    return model


# ---------------------------------------------------------------------------
# PGM image grids
# ---------------------------------------------------------------------------

def write_pgm_grid(images, image_shape, grid_cols: int, path) -> None:
    """Tile flat images into one binary PGM, 1-pixel black separators.

    images is (n, h*w) with values interpreted in [0, 1] (clamped here,
    quantized to maxval 255); image_shape is (h, w); tiles fill row-major
    and unused cells stay black.
    """
    arr = np.atleast_2d(np.asarray(images, dtype=np.float64))
    h, w = int(image_shape[0]), int(image_shape[1])
    if h < 1 or w < 1 or arr.shape[1] != h * w:
        raise ValueError(
            f"image shape {image_shape} does not match flat size {arr.shape[1]}"
        )
    if grid_cols < 1:
        raise ValueError(f"grid_cols must be >= 1, got {grid_cols}")
    n = arr.shape[0]
    rows = math.ceil(n / grid_cols)
    cols = min(grid_cols, n)
    # each tile carries its right and bottom separator; the canvas drops
    # the last separator row and column
    tiles = np.zeros((rows * cols, h + 1, w + 1), dtype=np.uint8)
    quantized = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    tiles[:n, :h, :w] = quantized.reshape(n, h, w)
    canvas = tiles.reshape(rows, cols, h + 1, w + 1).transpose(0, 2, 1, 3)
    canvas = canvas.reshape(rows * (h + 1), cols * (w + 1))[:-1, :-1]
    header = f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + canvas.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back a binary PGM written by write_pgm_grid, as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path} is not a maxval-255 binary PGM")
    width, height = (int(tok) for tok in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
    return pixels.reshape(height, width).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _cells(column) -> list[str]:
    """str() of each value of one column, each distinct float64 formatted once.

    Float values are keyed by bit pattern, not by value, so 0.0 and -0.0
    each keep their own text. A column with no repeated bit pattern is
    formatted value by value, with no gather.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        if len(bits) < len(column):
            text = np.array([str(v) for v in bits.view(np.float64).tolist()], dtype=object)
            return text[inverse].tolist()
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [str(v) for v in values]


def write_csv(columns, path) -> None:
    """Write a name -> equal-length sequence mapping as CSV, '\\n' endings.

    The header follows the mapping's order. numpy arrays become Python
    scalars through tolist(); every cell is written as str() of its value.
    A float64 column formats each distinct value once, because converged
    chain states repeat the same few values many times.
    """
    cells = [_cells(c) for c in columns.values()]
    lengths = {name: len(v) for name, v in zip(columns, cells)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"write_csv columns differ in length: {lengths}")
    if not any(lengths.values()):
        raise ValueError("write_csv needs at least one row")
    lines = [",".join(columns)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# IDX image files
# ---------------------------------------------------------------------------

def read_idx_header(path) -> tuple[int, int, int]:
    """Return (n_images, rows, cols) from an IDX image file header."""
    with open(path, "rb") as fh:
        header = fh.read(16)
    if len(header) < 4:
        raise IdxFormatError(f"{path}: file ends at byte {len(header)}, no magic")
    (magic,) = struct.unpack(">I", header[:4])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x} at byte 0 is not an IDX image file "
            f"(expected 0x{IDX_IMAGE_MAGIC:08x})"
        )
    if len(header) < 16:
        raise IdxFormatError(f"{path}: header truncated at byte {len(header)}")
    n, rows, cols = struct.unpack(">III", header[4:16])
    for offset, name, size in ((4, "image count", n), (8, "rows", rows), (12, "cols", cols)):
        if size == 0:
            raise IdxFormatError(f"{path}: {name} at byte {offset} is 0")
    return n, rows, cols


def load_idx_images(path) -> np.ndarray:
    """Load an IDX image file as (n, rows*cols) floats in [0, 1]."""
    n, rows, cols = read_idx_header(path)
    with open(path, "rb") as fh:
        data = fh.read()
    expected = 16 + n * rows * cols
    if len(data) < expected:
        raise IdxFormatError(f"{path}: payload truncated at byte {len(data)}, expected {expected}")
    if len(data) > expected:
        raise IdxFormatError(f"{path}: trailing data at byte {expected}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
