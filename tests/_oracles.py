"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: gradients come from
central finite differences over a scalar re-evaluation, and the optimal
reconstruction cross-checks either scan a dense grid of candidate outputs
against a Monte-Carlo average of the pointwise BCE objective
(bce_grid_minimizer) or average the noise by Gauss-Hermite quadrature
(gauss_hermite_posterior_mean). Both read only the data density.
read_pgm reads a written PGM grid back without the package's writer.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite import hermgauss


def finite_diff_param_grads(loss_fn, mlp, h: float = 1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. every Mlp parameter.

    ``loss_fn`` must recompute the scalar loss from the network's current
    parameters; entries are perturbed in place and restored.
    """
    wgrads = [_fd_array(loss_fn, w, h) for w in mlp.weights]
    bgrads = [_fd_array(loss_fn, b, h) for b in mlp.biases]
    return wgrads, bgrads


def _fd_array(loss_fn, arr: np.ndarray, h: float) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = loss_fn()
        flat[j] = orig - h
        down = loss_fn()
        flat[j] = orig
        gflat[j] = (up - down) / (2.0 * h)
    return grad


def finite_diff_input_grad(loss_of_input, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an input array."""
    x = np.array(x, dtype=np.float64)
    return _fd_array(lambda: loss_of_input(x), x, h)


def relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Norm-relative disagreement, safe when the reference is tiny."""
    num = np.linalg.norm(np.asarray(analytic) - np.asarray(reference))
    den = max(np.linalg.norm(np.asarray(reference)), 1e-12)
    return float(num / den)


def bce_grid_minimizer(
    gm,
    sigma: float,
    x: float,
    n_draws: int = 100_000,
    seed: int = 0,
    grid_step: float = 1e-4,
) -> float:
    """Brute-force the pointwise BCE-optimal reconstruction at scalar x.

    Draws eps ~ N(0, sigma^2), forms the Monte-Carlo average of the
    density-weighted cross-entropy integrand
        J(r) = mean_i[ -p(x - eps_i) ((x - eps_i) log r + (1 - x + eps_i) log(1 - r)) ]
    and scans r over a dense grid. The average over draws factors into two
    sufficient statistics, so the grid scan evaluates J exactly at every r.
    Uses numpy's own normal sampler, independent of the package Prng.
    """
    from daechain.oracle import mixture_log_pdf_batch

    gen = np.random.Generator(np.random.PCG64(seed))
    eps = gen.normal(0.0, sigma, size=n_draws)
    t = x - eps
    p = np.exp(mixture_log_pdf_batch(gm, t[:, None]))
    a = float(np.mean(p * t))
    b = float(np.mean(p * (1.0 - t)))
    r = np.arange(grid_step, 1.0, grid_step)
    j = -(a * np.log(r) + b * np.log1p(-r))
    return float(r[np.argmin(j)])


def gauss_hermite_posterior_mean(gm, sigma: float, x, nodes_per_dim: int = 64) -> np.ndarray:
    """Posterior mean R*(x) at one point x (d,) by tensor-product Gauss-Hermite quadrature.

    The change of variables eps = sigma sqrt(2) u turns E[f(eps)] into
    pi^(-d/2) sum_i w_i f(sigma sqrt(2) u_i). The shifted points x - eps_i
    are averaged with weights w_i p(x - eps_i), normalised in log space.
    Only the data density p is read, as in bce_grid_minimizer, so nothing
    is shared with the closed form's smoothed constants.
    """
    from daechain.oracle import mixture_log_pdf_batch

    def tensor_grid(a):  # every d-tuple of entries of a, as rows
        return np.stack(np.meshgrid(*([a] * gm.dim), indexing="ij"), axis=-1).reshape(-1, gm.dim)

    u, w = hermgauss(nodes_per_dim)
    shifted = np.asarray(x, dtype=np.float64) - sigma * np.sqrt(2.0) * tensor_grid(u)
    logq = tensor_grid(np.log(w)).sum(axis=1) + mixture_log_pdf_batch(gm, shifted)
    q = np.exp(logq - logq.max())
    return (q / q.sum()) @ shifted


def mixture_posterior_mean(gm, sigma: float, xs) -> np.ndarray:
    """Closed-form optimal denoiser for a diagonal Gaussian mixture.

    Conjugacy makes the posterior mean exact: responsibilities under the
    sigma-smoothed mixture (variances v + sigma^2) weight the per-component
    shrunken means (v x + sigma^2 mu) / (v + sigma^2). Vectorized over rows
    of xs; an independent reference for oracle and chain tests.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    var = gm.variances + sigma * sigma  # (k, d)
    diff = xs[:, None, :] - gm.means[None, :, :]  # (n, k, d)
    loglik = -0.5 * ((diff * diff) / var + np.log(2.0 * np.pi * var)).sum(axis=2)
    logr = loglik + np.log(gm.weights)[None, :]
    logr -= logr.max(axis=1, keepdims=True)
    resp = np.exp(logr)
    resp /= resp.sum(axis=1, keepdims=True)
    cond = (gm.variances * xs[:, None, :] + sigma * sigma * gm.means) / var
    return np.einsum("nk,nkd->nd", resp, cond)


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
