"""Binary and text artifact formats: checkpoints, PGM grids, CSV, IDX.

The checkpoint layout is fixed and explicit so round trips are bitwise:

    magic "DAEB" | version u32 LE | kind u8 | sigma f64 | latent u32
    | dropout f64 | n_mlps u8 | one spec block per network | parameters

_HEADER packs the fields before the spec blocks, and _spec_format is one
spec block: the count of layer sizes (u8), the sizes (u32 LE each), the
hidden and output activation tags (u8 each) and the leaky slope (f64).
The writer and the reader share both. Each tag is an index into
MODEL_KINDS, HIDDEN_ACTIVATIONS or OUTPUT_ACTIVATIONS. Parameters follow
as little-endian float64, one Mlp.flat vector per network in declaration
order (encoder, decoder, then discriminator if present), per layer the
weights row-major then the biases. Loading rebuilds the specs first, so
every shape and cross-network invariant is re-validated on the way in,
and every parameter must be finite; a rejected value raises
CheckpointError naming its byte offset.

Images are exported as binary PGM (P5, maxval 255), tiled row-major with
one-pixel black separators; values are clamped to [0, 1] and quantized at
write time only. IDX image files use the de-facto big-endian layout with
magic 0x00000803.
"""

from __future__ import annotations

import math
import re
import struct
from contextlib import contextmanager

import numpy as np

from .models import MODEL_KINDS, Autoencoder, CorruptionSpec
from .nn import HIDDEN_ACTIVATIONS, OUTPUT_ACTIVATIONS, Mlp, MlpSpec

CHECKPOINT_MAGIC = b"DAEB"
CHECKPOINT_VERSION = 1
IDX_IMAGE_MAGIC = 0x00000803


class CheckpointError(ValueError):
    """An unreadable checkpoint; the message says why and, for a rejected value, at which byte."""


class IdxFormatError(ValueError):
    """An IDX file whose header or payload does not add up."""


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _field_at(fmt: str, index: int) -> int:
    """Byte offset of the index-th field of a little-endian struct format."""
    return struct.calcsize("<" + "".join(re.findall(r"\d*\D", fmt[1:])[:index]))


_HEADER = struct.Struct("<4sIBdIdB")  # magic version kind sigma latent dropout n_mlps
_KIND_AT, _SIGMA_AT = _field_at(_HEADER.format, 2), _field_at(_HEADER.format, 3)


def _spec_format(n_sizes: int) -> str:
    """A spec block: size count, n_sizes sizes, hidden tag, output tag, leaky slope."""
    return f"<B{n_sizes}IBBd"


def save_checkpoint(model: Autoencoder, path) -> None:
    """Serialize a model; the written file loads back bitwise-identical."""
    mlps = model.networks
    blob = [_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, MODEL_KINDS.index(model.kind),
        model.corruption.sigma, model.latent_dim, model.dropout_rate, len(mlps),
    )]
    for spec in (mlp.spec for mlp in mlps):
        sizes = spec.layer_sizes
        hidden = HIDDEN_ACTIVATIONS.index(spec.hidden_activation)
        output = OUTPUT_ACTIVATIONS.index(spec.output_activation)
        fields = (len(sizes), *sizes, hidden, output, spec.leaky_slope)
        blob.append(struct.pack(_spec_format(len(sizes)), *fields))
    blob.extend(np.ascontiguousarray(mlp.flat, dtype="<f8").tobytes() for mlp in mlps)
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


@contextmanager
def _decoded(offset: int, what: str):
    """Report a decoded value the model types reject as a CheckpointError."""
    try:
        yield
    except ValueError as exc:
        raise CheckpointError(f"{what} at byte {offset}: {exc}") from exc


def load_checkpoint(path) -> Autoencoder:
    """Read a checkpoint back into a model, validating as it goes."""
    with open(path, "rb") as fh:
        data = fh.read()
    size = len(data)

    def need(end: int) -> None:
        if end > size:
            raise CheckpointError(f"checkpoint {path} ends at byte {size}, needed {end}")

    if not CHECKPOINT_MAGIC.startswith(data[: len(CHECKPOINT_MAGIC)]):
        raise CheckpointError(f"bad magic in {path}; not a checkpoint file")
    need(_HEADER.size)
    _, version, kind_tag, sigma, latent, dropout, n_mlps = _HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} is not supported (expected {CHECKPOINT_VERSION})"
        )
    if kind_tag >= len(MODEL_KINDS):  # tags are unsigned: only the top end can be out of range
        raise CheckpointError(f"unknown model kind tag {kind_tag} at byte {_KIND_AT}")
    kind = MODEL_KINDS[kind_tag]
    with _decoded(_SIGMA_AT, "corruption sigma"):
        corruption = CorruptionSpec(sigma)
    expected = 3 if kind == "daae" else 2
    if n_mlps != expected:
        raise CheckpointError(f"{kind} checkpoint declares {n_mlps} networks, expected {expected}")
    offset, specs = _HEADER.size, []
    for _ in range(n_mlps):
        need(offset + 1)  # the size count, which sizes the rest of the block
        fmt = _spec_format(data[offset])
        need(offset + struct.calcsize(fmt))
        n_sizes, *sizes, hidden_tag, output_tag, slope = struct.unpack_from(fmt, data, offset)
        if n_sizes < 2:
            raise CheckpointError(f"network with {n_sizes} layer sizes at byte {offset}")
        if hidden_tag >= len(HIDDEN_ACTIVATIONS) or output_tag >= len(OUTPUT_ACTIVATIONS):
            field = 2 if hidden_tag >= len(HIDDEN_ACTIVATIONS) else 3
            at = offset + _field_at(fmt, field)
            raise CheckpointError(f"unknown activation tag at byte {at}")
        with _decoded(offset, "network spec"):
            names = HIDDEN_ACTIVATIONS[hidden_tag], OUTPUT_ACTIVATIONS[output_tag]
            specs.append(MlpSpec(sizes, *names, slope))
        offset += struct.calcsize(fmt)
    mlps = []
    for spec in specs:
        need(offset + 8 * spec.n_params)
        flat = np.frombuffer(data, "<f8", spec.n_params, offset).astype(np.float64)
        finite = np.isfinite(flat)
        if not finite.all():
            i = int(np.argmin(finite))
            raise CheckpointError(f"non-finite parameter {flat[i]} at byte {offset + 8 * i}")
        mlps.append(Mlp(spec, flat))
        offset += 8 * spec.n_params
    if offset != size:
        raise CheckpointError(f"trailing data after byte {offset} in {path}")
    with _decoded(_KIND_AT, f"{kind} model declared"):
        model = Autoencoder(kind, mlps[0], mlps[1], corruption, *mlps[2:], dropout_rate=dropout)
    if model.latent_dim != latent:
        raise CheckpointError(
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
        return _parse_idx_header(path, fh.read(16))


def _parse_idx_header(path, header: bytes) -> tuple[int, int, int]:
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
    with open(path, "rb") as fh:
        n, rows, cols = _parse_idx_header(path, fh.read(16))
        payload = fh.read()
    end, expected = 16 + len(payload), 16 + n * rows * cols
    if end < expected:
        raise IdxFormatError(f"{path}: payload truncated at byte {end}, expected {expected}")
    if end > expected:
        raise IdxFormatError(f"{path}: trailing data at byte {expected}")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
