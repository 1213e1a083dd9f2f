"""Deterministic numeric core: float64 arrays, the sigmoid, seeded sampling.

All values are C-order float64 ndarrays. Randomness flows through ``Prng``,
which owns a PCG64 uniform stream; normal draws are produced from that stream
with the Box-Muller transform so a fixed seed replays the whole pipeline
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(RuntimeError):
    """A value that must be finite came out NaN or infinite."""


def _as_shape(shape) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    out = tuple(int(s) for s in shape)
    if not out or any(s <= 0 for s in out):
        raise ValueError(f"shape must be positive integers, got {shape!r}")
    return out


class Prng:
    """Seeded random stream; single owner, no sharing across threads.

    The stream state is fully determined by ``seed``. ``uniform``,
    ``normal`` and ``permutation`` are convenience wrappers over the
    module-level sampling functions and numpy's Fisher-Yates shuffle.
    """

    def __init__(self, seed: int):
        if seed < 0 or seed > 2**64 - 1:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return sample_uniform(self, shape, lo, hi)

    def normal(self, shape, sigma: float = 1.0) -> np.ndarray:
        return sample_gaussian(self, shape, sigma)

    def permutation(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"permutation length must be >= 0, got {n}")
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Prng(seed={self.seed})"


def sample_uniform(rng: Prng, shape, lo: float, hi: float) -> np.ndarray:
    """Draw uniforms on [lo, hi) from the rng's stream; lo, hi and hi - lo must be finite."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    if not math.isfinite(hi - lo):  # also an infinite lo or hi
        raise ValueError(f"need finite lo, hi and hi - lo, got lo={lo}, hi={hi}")
    shape = _as_shape(shape)
    n = math.prod(shape)
    u = rng._gen.random(n)
    if lo != 0.0 or hi != 1.0:  # on [0, 1) both passes are exact, so skip them
        u *= hi - lo  # lo + (hi - lo) * u, in place
        u += lo
    return u.reshape(shape)


def sample_gaussian(rng: Prng, shape, sigma: float) -> np.ndarray:
    """Draw N(0, sigma^2) values via Box-Muller on the rng's uniform stream.

    sigma = 0 returns exact zeros without consuming the stream.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    shape = _as_shape(shape)
    n = math.prod(shape)
    if sigma == 0.0:
        return np.zeros(shape)
    half = (n + 1) // 2
    # one draw is the stream's next 2 * half values: u1, then u2
    u = rng._gen.random(2 * half)
    radius, angle = u[:half], u[half:]
    # sqrt(-2 log(1 - u1)) in place; u1 in [0, 1) so 1 - u1 in (0, 1] and log stays finite
    np.log1p(np.negative(radius, out=radius), out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    z = np.empty((2, half))
    np.cos(angle, out=z[0])
    np.sin(angle, out=z[1])
    z *= radius
    z = z.reshape(-1)[:n]
    z *= sigma  # the products commute, so these are the bits of sigma * (radius * cos)
    return z.reshape(shape)


def as_rows(x, dim: int, what: str, dim_name: str = "expected dim"):
    """View x as an (n, dim) float64 batch; a single (dim,) point becomes one row.

    Returns (batch, single) where single says x was one point, so callers
    can hand back a result of matching rank. Any other shape raises
    ShapeError, e.g. "input shape (3,) does not match expected dim 1".
    """
    xv = np.asarray(x, dtype=np.float64)
    single = xv.ndim == 1
    rows = xv[None, :] if single else xv
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ShapeError(f"{what} shape {xv.shape} does not match {dim_name} {dim}")
    return rows, single


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), overflow-safe for any |x|."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    # each element is the one of 1 / (1 + t) and t / (1 + t) that its sign picks
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def derivative_of_sigmoid(y) -> np.ndarray:
    """Derivative expressed through the sigmoid output y: y * (1 - y)."""
    y = np.asarray(y, dtype=np.float64)
    return y * (1.0 - y)
