"""Ground-truth Gaussian mixtures and the exact optimal denoiser.

For a data density p and Gaussian corruption x_noisy = x + eps with
eps ~ N(0, sigma^2 I), the reconstruction that minimizes either the MSE or
the BCE denoising objective at a point x is the posterior mean of the clean
data given the noisy observation:

    R*(x) = E_eps[ p(x - eps) (x - eps) ] / E_eps[ p(x - eps) ]

which equals x + sigma^2 * d/dx log (p * N(0, sigma^2))(x). As sigma -> 0
the smoothed score converges to the true score, so

    (R*(x) - x) / sigma^2  ->  d/dx log p(x),

i.e. one application of the ideal denoiser is a small gradient-ascent step
on the data log-density.

For the diagonal Gaussian mixtures used here R* is exact by conjugacy
(Tweedie's formula): smoothing component k by the noise gives variances
v_k + sigma^2, and

    R*(x) = sum_k r_k(x) (v_k x + sigma^2 mu_k) / (v_k + sigma^2)

where r_k are the component responsibilities under the smoothed mixture.
optimal_reconstruction evaluates this closed form, vectorised over rows.
The responsibilities come from a softmax of log-densities shifted by each
row's largest, so R* stays finite and exact however far a point lies from
the mass, with no density floor. Only a row with no finite component
log-density (a NaN or infinite coordinate, or |x - mu| beyond ~1e154,
where the squared distance overflows) raises NumericError. The
Gauss-Hermite and Monte-Carlo estimators of the two expectations remain
available through an explicit QuadratureSpec, as an independent numerical
cross-check of the closed form.

For a single Gaussian N(mu, s^2) the relative error of (R*(x) - x) / sigma^2
against the true score (mu - x) / s^2 is exactly sigma^2 / (s^2 + sigma^2),
independent of x. That closed form anchors the convergence study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .numeric import NumericError, Prng, ShapeError, as_rows

QUADRATURE_METHODS = ("gauss_hermite", "monte_carlo")

# high_density_grid scans GRID_CANDIDATES evenly spaced points of
# [GRID_LO, GRID_HI] and keeps those within HIGH_DENSITY_NATS of the peak
# log-density; limit_convergence_study holds its grid to the same region
GRID_LO = 0.0
GRID_HI = 1.0
GRID_CANDIDATES = 4001
HIGH_DENSITY_NATS = 4.0


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of diagonal Gaussians: weights (k,), means (k, d), variances (k, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if m.ndim == 1:
            m = m[:, None]
        if v.ndim == 1:
            v = v[:, None]
        if w.ndim != 1 or m.ndim != 2 or v.ndim != 2:
            raise ShapeError(
                f"expected weights (k,), means (k, d), variances (k, d); got "
                f"{w.shape}, {m.shape}, {v.shape}"
            )
        if not (w.shape[0] == m.shape[0] == v.shape[0]) or m.shape != v.shape:
            raise ShapeError(
                f"component counts disagree: weights {w.shape}, means {m.shape}, "
                f"variances {v.shape}"
            )
        if not np.all(w > 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ValueError("mixture variances must be finite and positive")
        if not np.all(np.isfinite(m)):
            raise ValueError("mixture means must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def confined_to_unit_box(gm: GaussianMixture, span: float = 4.0) -> bool:
    """True when every mean +- span standard deviations stays inside (0, 1)."""
    s = np.sqrt(gm.variances)
    lo = gm.means - span * s
    hi = gm.means + span * s
    return bool(np.all(lo > 0.0) and np.all(hi < 1.0))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Stable row-wise log(sum(exp(a))) of an (n, k) array.

    Folds the columns left to right with np.logaddexp, which shifts every
    pairwise sum by its larger term: max + log1p(exp(min - max)). Nothing
    overflows, and a row that is all -inf gives -inf (not nan). For k <= 2
    this is the expression scipy.special.logsumexp evaluates, so results
    agree to the last bit in all but rare rows, where they differ by one ulp.
    The k - 1 whole-column calls give the bits of np.logaddexp.reduce(a,
    axis=1), about twice as fast as reducing each short row (k = 2, 1e5
    rows). The reduction starts from its identity -inf, which turns a lone
    -0.0 into +0.0, hence the + 0.0 when k = 1.
    """
    k = a.shape[1]
    out = np.logaddexp(a[:, 0], a[:, 1]) if k > 1 else a[:, 0] + 0.0
    for j in range(2, k):
        np.logaddexp(out, a[:, j], out=out)
    return out


def _argmax_rows(a: np.ndarray) -> np.ndarray:
    """np.argmax(a, axis=1) of an (n, k) array, folded over columns like _logsumexp.

    A column takes a row only where it is strictly larger than every column
    before it, so ties go to the lower index, as with np.argmax.
    """
    k = a.shape[1]
    if k == 1:
        return np.zeros(a.shape[0], dtype=np.intp)
    mode = (a[:, 1] > a[:, 0]).astype(np.intp)
    best = a[:, 0]
    for j in range(2, k):
        best = np.maximum(best, a[:, j - 1])
        np.copyto(mode, j, where=a[:, j] > best)
    return mode


def _softmax(logc: np.ndarray) -> np.ndarray:
    """Row-wise exp(logc) / sum(exp(logc)), shifted by each row's max.

    Raises NumericError for a row whose largest entry is not finite: then
    no component has a finite log-density and the row has no softmax.
    """
    top = logc.max(axis=1, keepdims=True)
    bad = ~np.isfinite(top[:, 0])
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            f"no finite component log-density in row {i} (largest {top[i, 0]}); "
            "the point is NaN, infinite or too far from the mixture mass"
        )
    e = np.exp(logc - top)
    return e / e.sum(axis=1, keepdims=True)


def _component_log_pdfs(gm: GaussianMixture, xs: np.ndarray, variances=None) -> np.ndarray:
    # xs: (n, d) -> (n, k) log w_k + log N(x; mu_k, diag(v_k)); the variances
    # default to the mixture's own
    var = gm.variances if variances is None else variances
    diff = xs[:, None, :] - gm.means[None, :, :]
    quad = (diff * diff) / var[None, :, :]
    logdet = np.log(2.0 * np.pi * var).sum(axis=1)
    comp = -0.5 * (quad.sum(axis=2) + logdet[None, :])
    return comp + np.log(gm.weights)[None, :]


def mixture_log_pdf_batch(gm: GaussianMixture, xs) -> np.ndarray:
    """log p(x) for each row of xs, computed with log-sum-exp over components."""
    pts, _ = as_rows(np.atleast_2d(xs), gm.dim, "point", "mixture dim")
    return _logsumexp(_component_log_pdfs(gm, pts))


def responsibilities(gm: GaussianMixture, xs) -> np.ndarray:
    """Posterior component probabilities, one row per point."""
    pts, _ = as_rows(np.atleast_2d(xs), gm.dim, "point", "mixture dim")
    return _softmax(_component_log_pdfs(gm, pts))


def mixture_log_pdf_and_mode(gm: GaussianMixture, xs) -> tuple[np.ndarray, np.ndarray]:
    """mixture_log_pdf_batch and the most responsible component, from one evaluation.

    The mode is the argmax of the component log-densities (ties to the lower
    index). The softmax keeps their order, so the mode always has the largest
    responsibility; where the softmax rounds two components to one
    probability, the mode is the one with the larger log-density rather than
    the lower index.
    """
    pts, _ = as_rows(np.atleast_2d(xs), gm.dim, "point", "mixture dim")
    logc = _component_log_pdfs(gm, pts)
    return _logsumexp(logc), _argmax_rows(logc)


def analytic_score(gm: GaussianMixture, x) -> np.ndarray:
    """Closed-form d/dx log p(x) = sum_k resp_k(x) (mu_k - x) / v_k."""
    pts, single = as_rows(x, gm.dim, "point", "mixture dim")
    resp = responsibilities(gm, pts)  # (n, k)
    pull = (gm.means[None, :, :] - pts[:, None, :]) / gm.variances[None, :, :]
    score = np.einsum("nk,nkd->nd", resp, pull)
    return score[0] if single else score


def high_density_grid(gm: GaussianMixture, n: int) -> np.ndarray:
    """Evenly pick n points of [0, 1] within HIGH_DENSITY_NATS of the peak log-density."""
    if gm.dim != 1:
        raise ValueError("high_density_grid supports 1-D mixtures only")
    if n < 1:
        raise ValueError(f"need n >= 1 grid points, got {n}")
    xs = np.linspace(GRID_LO, GRID_HI, GRID_CANDIDATES)[:, None]
    logp = mixture_log_pdf_batch(gm, xs)
    peak = max(float(logp.max()), float(mixture_log_pdf_batch(gm, gm.means).max()))
    keep = xs[logp >= peak - HIGH_DENSITY_NATS]
    if keep.shape[0] < n:
        raise ValueError("not enough candidate points inside the high-density region")
    idx = np.linspace(0, keep.shape[0] - 1, n).round().astype(int)
    return keep[idx]


# ---------------------------------------------------------------------------
# optimal reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """How to average over the corruption noise eps ~ N(0, sigma^2 I)."""

    method: str = "gauss_hermite"
    nodes_per_dim: int = 64
    n_samples: int = 100_000
    mc_seed: int = 0

    def __post_init__(self):
        if self.method not in QUADRATURE_METHODS:
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.method == "gauss_hermite" and self.nodes_per_dim < 8:
            raise ValueError("gauss_hermite needs at least 8 nodes per dim")
        if self.method == "monte_carlo" and self.n_samples < 10_000:
            raise ValueError("monte_carlo needs at least 10000 samples")


@lru_cache(maxsize=8)
def _gh_nodes(nodes_per_dim: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite nodes (m, dim) and log-weights (m,)."""
    nodes, weights = hermgauss(nodes_per_dim)
    logw = np.log(weights)
    if dim == 1:
        return nodes[:, None], logw
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([logw] * dim), indexing="ij")
    logws = sum(w.reshape(-1) for w in wgrids)
    return pts, logws


def optimal_reconstruction(
    gm: GaussianMixture, sigma: float, x, quad: QuadratureSpec | None = None
) -> np.ndarray:
    """Evaluate R*(x) = E[p(x - eps)(x - eps)] / E[p(x - eps)].

    With no `quad` this is the exact conjugate posterior mean, vectorised
    over rows: x of shape (d,) gives (d,), and (n, d) gives (n, d). The
    responsibilities use the smoothed variances v + sigma^2 and weight the
    shrunken means (v x + sigma^2 mu) / (v + sigma^2). A point far from the
    mass gets the exact, finite R*; a row with no finite smoothed component
    log-density raises NumericError (see _softmax).

    An explicit QuadratureSpec estimates the same ratio numerically at one
    point instead, as an independent cross-check; see _quadrature_estimate.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    pts, single = as_rows(x, gm.dim, "point", "mixture dim")
    if quad is not None:
        if pts.shape[0] != 1:
            raise ShapeError("the quadrature estimator takes a single point")
        recon = _quadrature_estimate(gm, sigma, pts[0], quad)
        return recon if single else recon[None, :]

    s2 = sigma * sigma
    smoothed = gm.variances + s2  # (k, d)
    resp = _softmax(_component_log_pdfs(gm, pts, smoothed))  # (n, k)
    shrunk = (gm.variances * pts[:, None, :] + s2 * gm.means) / smoothed  # (n, k, d)
    recon = (resp[:, :, None] * shrunk).sum(axis=1)
    return recon[0] if single else recon


def _quadrature_estimate(
    gm: GaussianMixture, sigma: float, xv: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    """Numerical R*(xv) at one point (d,), by Gauss-Hermite or Monte Carlo.

    Gauss-Hermite uses the change of variables eps = sigma * sqrt(2) * u so
    that E[f(eps)] = pi^(-d/2) sum_i w_i f(sigma sqrt(2) u_i); Monte Carlo
    draws eps from a Prng seeded with quad.mc_seed. In both cases the ratio
    is an average of the shifted points x - eps_i, weighted by one softmax
    over log w_i + log(w_k N(x - eps_i; mu_k, v_k)) for all nodes i and
    components k: stable in the tails, and, as in the closed form, raising
    NumericError where no term is finite.
    """
    if quad.method == "gauss_hermite":
        u, logw = _gh_nodes(quad.nodes_per_dim, gm.dim)
        eps = sigma * math.sqrt(2.0) * u
    else:
        rng = Prng(quad.mc_seed)
        eps = rng.normal((quad.n_samples, gm.dim), sigma)
        logw = np.zeros(eps.shape[0])

    shifted = xv[None, :] - eps  # candidate clean points x - eps
    logq = logw[:, None] + _component_log_pdfs(gm, shifted)  # (nodes, k)
    tau = _softmax(logq.reshape(1, -1)).reshape(logq.shape).sum(axis=1)
    return (tau[:, None] * shifted).sum(axis=0)


def score_from_reconstruction(r_of_x, x, sigma: float) -> np.ndarray:
    """Score estimate (R(x) - x) / sigma^2 implied by a reconstruction."""
    s2 = float(sigma) * float(sigma)
    if not 0.0 < s2 < math.inf:
        raise ValueError(f"sigma must be nonzero, its square finite and nonzero; got {sigma!r}")
    r = np.asarray(r_of_x, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    if r.shape != xv.shape:
        raise ShapeError(f"reconstruction shape {r.shape} does not match x shape {xv.shape}")
    return (r - xv) / s2


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-sigma worst-case relative score error over a grid."""

    sigmas: tuple[float, ...]
    max_rel_errors: tuple[float, ...]
    non_increasing: bool


def limit_convergence_study(gm: GaussianMixture, sigmas, grid) -> ConvergenceStudy:
    """Tabulate how fast (R*(x) - x) / sigma^2 approaches the true score.

    For each sigma (strictly decreasing) and each grid point x (which must
    lie in the high-density region, log p(x) >= peak - HIGH_DENSITY_NATS),
    computes the relative error ||est - score|| / ||score||; points with a
    vanishing true score contribute their absolute error instead. The `non_increasing` flag
    reports whether the error column is monotone up to rounding.
    """
    sig = [float(s) for s in sigmas]
    if len(sig) < 1 or not all(math.isfinite(s) and s > 0.0 for s in sig):
        raise ValueError("sigmas must be finite and positive")
    if any(b >= a for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    pts, _ = as_rows(np.atleast_2d(grid), gm.dim, "point", "mixture dim")
    logp = mixture_log_pdf_batch(gm, pts)
    peak = max(float(mixture_log_pdf_batch(gm, gm.means).max()), float(logp.max()))
    if np.any(logp < peak - HIGH_DENSITY_NATS - 1e-9):
        raise ValueError(
            f"grid leaves the high-density region (log p >= peak - {HIGH_DENSITY_NATS:g})"
        )

    truth = analytic_score(gm, pts)
    truth_norm = np.linalg.norm(truth, axis=1)
    scale = np.where(truth_norm > 1e-12, truth_norm, 1.0)
    errors = []
    for s in sig:
        est = score_from_reconstruction(optimal_reconstruction(gm, s, pts), pts, s)
        errors.append(float((np.linalg.norm(est - truth, axis=1) / scale).max()))
    mono = all(
        b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(errors, errors[1:])
    )
    return ConvergenceStudy(tuple(sig), tuple(errors), mono)
