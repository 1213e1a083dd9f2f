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
where the squared distance overflows) raises NumericError; a NaN row
raises it from the log-density functions too, where an infinitely far
point has log p = -inf. A Monte-Carlo estimate of the two expectations at
one point remains available through an explicit QuadratureSpec; the tests'
independent cross-checks (Gauss-Hermite among them) live in tests/_oracles.py.

One evaluation path serves the log-density, its mode, the
responsibilities, the score and R*, with one exception: R* of a single
(d,) point of a mixture of fewer than _PAIRWISE_TERMS components in fewer
than _PAIRWISE_TERMS dims is evaluated in Python floats
(_point_reconstruction), where numpy's calls on arrays of a few values
cost more than their arithmetic. A GaussianMixture holds read-only
copies of its arrays, so what a caller later writes to its own arrays
cannot reach them, and computes log w once. The data density p is the
sigma = 0 member of the smoothed family p * N(0, sigma^2 I), so one cache
serves both: the constants v + sigma^2, their log-normalisers and
sigma^2 mu of the last sigma evaluated (0 for p), and for a small mixture
the same values as Python floats, which a sweep over points at one sigma
computes once. What is the Gaussian family's own is a
GaussianMixture method: its draws (sample), and at a sigma its component
log-densities and shrunken means. The block loop, the softmax and the
folds are shared, and see only (k, rows) component log-densities. A call
takes its rows in blocks whose (k, rows, d) workspace fits
_WORKSPACE_BYTES, so memory stays bounded at any number of rows; a batch
that fits one block, a single point among them, is evaluated whole and
pays for no block bookkeeping. A block is laid out component-major, so
an operation over the components is numpy's reduction over axis 0
(_fold); the log-sum-exp and the mode fold the k rows by hand below
_PAIRWISE_TERMS (8). The arithmetic is the formulas' own, in their
order, on every path, so every result has the bits of the plain
whole-batch expressions (tests/_reference_oracle.py).

For a single Gaussian N(mu, s^2) the relative error of (R*(x) - x) / sigma^2
against the true score (mu - x) / s^2 is exactly sigma^2 / (s^2 + sigma^2),
independent of x. That closed form anchors the convergence study.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numeric import NumericError, Prng, ShapeError, as_rows

# high_density_grid scans GRID_CANDIDATES evenly spaced points of
# [GRID_LO, GRID_HI] and keeps those within HIGH_DENSITY_NATS of the peak
# log-density; limit_convergence_study holds its grid to the same region
GRID_LO = 0.0
GRID_HI = 1.0
GRID_CANDIDATES = 4001
HIGH_DENSITY_NATS = 4.0
UNIT_BOX_SPAN = 4.0  # standard deviations confined_to_unit_box keeps inside (0, 1)

# The closed form takes its rows in blocks whose (k, rows, d) float64
# workspace fits in this many bytes, as models._BLOCK_ROWS bounds inference.
# Every result is a function of its own row, so the block size changes no
# bits. A 1-D two-component mixture takes 65,536 rows per block, a 64-d
# 49-component one 41.
_WORKSPACE_BYTES = 1 << 20

# numpy's add.reduce over an inner axis adds up to 7 terms left to right
# from +0.0, and from 8 terms pairwise (numpy 2.4); over an outer or middle
# axis it adds left to right at any length. So from this many components
# _fold reduces a row-major copy where the reference reduces the inner
# axis. Not a tunable: it is numpy's summation order.
_PAIRWISE_TERMS = 8

_FLOAT64 = np.dtype(np.float64)  # the one dtype optimal_reconstruction reads as it is


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture of diagonal Gaussians: weights (k,), means (k, d), variances (k, d).

    The arrays are read-only copies of the ones given. A mixture compares
    and hashes by identity, so == never compares arrays.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, order="C")
        m = np.array(self.means, dtype=np.float64, order="C")
        v = np.array(self.variances, dtype=np.float64, order="C")
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
        if m.shape[1] == 0:
            raise ShapeError("mixture means need at least one dimension, got (k, 0)")
        if not np.all(w > 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ValueError("mixture variances must be finite and positive")
        if not np.all(np.isfinite(m)):
            raise ValueError("mixture means must be finite")
        object.__setattr__(self, "weights", _read_only(w))
        object.__setattr__(self, "means", _read_only(m))
        object.__setattr__(self, "variances", _read_only(v))
        # Per-component constants are (k, 1, ...), so a one-row block meets
        # them shape for shape: numpy's same-shape loop is about twice as fast
        # as its broadcasting one on such tiny arrays.
        object.__setattr__(self, "_log_weights", _read_only(np.log(w)[:, None]))
        object.__setattr__(self, "_means", m[:, None])
        object.__setattr__(self, "_variances", v[:, None])
        object.__setattr__(self, "_last_smoothing", (None, None))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _smoothed(self, sigma: float) -> tuple:
        """v + sigma^2, its log-normalisers and sigma^2 mu, kept for the last sigma only.

        The fourth constant is _point_reconstruction's table, the same values
        as Python floats, for a mixture of fewer than _PAIRWISE_TERMS
        components in fewer than _PAIRWISE_TERMS dims, and None for any other.
        """
        last, consts = self._last_smoothing
        if last == sigma:
            return consts
        s2 = sigma * sigma
        var = self._variances + s2
        # sigma^2 = inf makes every row raise NumericError before s2mu is read
        with np.errstate(invalid="ignore"):
            s2mu = s2 * self._means
        logdet = np.log(2.0 * np.pi * var).sum(axis=2)  # (k, 1) log det(2 pi diag(v_k))
        table = None
        if self.n_components < _PAIRWISE_TERMS and self.dim < _PAIRWISE_TERMS:
            # per component: logdet, log w, and (mu, v, v + sigma^2, sigma^2 mu) per coordinate
            table = tuple(
                (ld, lw, tuple(zip(mu, v, vs, smu)))
                for ld, lw, mu, v, vs, smu in zip(
                    logdet[:, 0].tolist(), self._log_weights[:, 0].tolist(), self.means.tolist(),
                    self.variances.tolist(), var[:, 0].tolist(), s2mu[:, 0].tolist(),
                )
            )
        consts = (_read_only(var), _read_only(logdet), _read_only(s2mu), table)
        object.__setattr__(self, "_last_smoothing", (sigma, consts))
        return consts

    def _log_densities(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """(k, rows) component log-densities at sigma of one (rows, d) block x of points.

        -0.5 * (sum_d (x - mu_k)^2 / var_k + logdet_k) + log w_k, with var and
        logdet from _smoothed(sigma): one broadcast over (k, rows, d).
        """
        var, logdet, _, _ = self._smoothed(sigma)
        quad = np.subtract(x, self._means)
        quad *= quad
        quad /= var
        # a sum over one coordinate is that coordinate
        logc = quad[:, :, 0] if self.dim == 1 else np.add.reduce(quad, axis=2)
        logc += logdet
        logc *= -0.5
        logc += self._log_weights
        return logc

    def _shrunken_means(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """(k, rows, d) component posterior means (v x + sigma^2 mu) / (v + sigma^2) of block x."""
        var, _, s2mu, _ = self._smoothed(sigma)
        shrunk = np.multiply(self._variances, x)
        shrunk += s2mu
        shrunk /= var
        return shrunk

    def sample(self, n: int, rng: Prng) -> np.ndarray:
        """n unclipped ancestral draws (n, d): per row, one uniform picks a component
        by weight, then one standard normal per coordinate scales by its std."""
        picks = np.searchsorted(np.cumsum(self.weights), rng.uniform((n,)), side="right")
        picks = np.minimum(picks, self.n_components - 1)
        noise = rng.normal((n, self.dim), 1.0)
        return self.means[picks] + np.sqrt(self.variances[picks]) * noise


def confined_to_unit_box(gm: GaussianMixture) -> bool:
    """True when every mean +- UNIT_BOX_SPAN standard deviations stays inside (0, 1)."""
    s = np.sqrt(gm.variances)
    lo = gm.means - UNIT_BOX_SPAN * s
    hi = gm.means + UNIT_BOX_SPAN * s
    return bool(np.all(lo > 0.0) and np.all(hi < 1.0))


def _fold(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=0) over the components of a (k, rows[, d]) block,
    with the bits of the reference's row-major reduction over axis 1: both
    combine whole rows left to right, save where the row-major one is over
    the inner axis ((k, rows), or (k, rows, 1) when d = 1), which numpy takes
    in another order from _PAIRWISE_TERMS on (pairwise sums, the max's
    signed zeros at k = 9); there a row-major copy is reduced. The result
    never shares memory with a, which the softmax writes to.
    """
    if len(a) >= _PAIRWISE_TERMS and (a.ndim == 2 or a.shape[2] == 1):
        return ufunc.reduce(np.ascontiguousarray(a.swapaxes(0, 1)), axis=1)
    return ufunc.reduce(a, axis=0)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """np.logaddexp.reduce(a, axis=0) of a (k, rows) array, with its bits.

    Below _PAIRWISE_TERMS rows, whole-row calls: the reduction's first pass,
    from -inf, costs ~0.5 ms per 65,536 x 2 block (timeit, numpy 2.4, 2-vCPU
    Xeon), and turns -0.0 into +0.0 as np.logaddexp of two rows does.
    """
    if 1 < len(a) < _PAIRWISE_TERMS:
        return functools.reduce(np.logaddexp, a)
    return np.logaddexp.reduce(a, axis=0)


def _argmax_rows(a: np.ndarray) -> np.ndarray:
    """np.argmax(a, axis=0) of a (k, rows) array, folded over rows below _PAIRWISE_TERMS.

    np.argmax over the outer axis is ~30x slower on a 65,536 x 2 block
    (timeit, numpy 2.4). A row takes a column only where it is strictly
    larger than every row before it, so ties go to the lower index.
    """
    k = len(a)
    if k >= _PAIRWISE_TERMS:
        return np.argmax(a, axis=0)
    if k == 1:
        return np.zeros(a.shape[1], dtype=np.intp)
    mode = (a[1] > a[0]).astype(np.intp)
    best = a[0]
    for j in range(2, k):
        best = np.maximum(best, a[j - 1])
        np.copyto(mode, j, where=a[j] > best)
    return mode


def _raise_no_finite_row(bad: np.ndarray, largest: np.ndarray, first_row: int):
    i = int(np.argmax(bad))
    raise NumericError(
        f"no finite component log-density in row {first_row + i} (largest {largest[i]}); "
        "the point is NaN, infinite or too far from the mixture mass"
    )


def _softmax(logc: np.ndarray, first_row: int = 0) -> np.ndarray:
    """exp(logc) / sum_k exp(logc) of a (k, rows) array in place, shifted by each column's max.

    Raises NumericError for a point (a column) whose largest entry is not
    finite: then no component has a finite log-density and the point has
    no softmax. The message counts rows from first_row, the block's first
    row in the batch. The max and the sum are _folds.
    """
    top = _fold(np.maximum, logc)
    if np.count_nonzero(np.isfinite(top)) < len(top):
        _raise_no_finite_row(~np.isfinite(top), top, first_row)
    logc -= top
    np.exp(logc, out=logc)
    logc /= _fold(np.add, logc)
    return logc


def _in_row_blocks(gm: GaussianMixture, sigma: float, pts: np.ndarray, finish, *args):
    """finish(x, logc, first_row, *args) over the (n, d) batch pts, in row blocks.

    x is a block's (rows, d) points, logc their (k, rows) component
    log-densities at sigma (gm._log_densities), and first_row the block's
    first row in the batch. Block arrays are component-major, (k, rows,
    ...), so even a 1-D block's broadcasts run with the rows innermost.
    finish returns a tuple of arrays, one row per point. A batch whose
    (k, rows, d) float64 workspace fits _WORKSPACE_BYTES is one block, and
    its results come back as finish gives them. A larger one takes blocks
    of as many rows as fit, each copied into result arrays shaped after the
    first block's, so memory holds the results and one block. Every row is
    a function of its own point alone, so the blocks change no bits.
    """
    step = max(1, _WORKSPACE_BYTES // (8 * gm.means.size))
    if len(pts) <= step:
        return finish(pts, gm._log_densities(pts, sigma), 0, *args)
    results = ()
    for lo in range(0, len(pts), step):
        x = pts[lo:lo + step]
        block = finish(x, gm._log_densities(x, sigma), lo, *args)
        if not results:
            results = tuple(np.empty((len(pts),) + a.shape[1:], a.dtype) for a in block)
        for out, a in zip(results, block):
            out[lo:lo + step] = a
    return results


def _log_p_and_mode(x, logc, first_row):
    nan = np.isnan(logc[0])  # a NaN coordinate makes every component NaN
    if np.count_nonzero(nan):
        _raise_no_finite_row(nan, logc[0], first_row)
    return _logsumexp(logc), _argmax_rows(logc)


def mixture_log_pdf_and_mode(gm: GaussianMixture, xs) -> tuple[np.ndarray, np.ndarray]:
    """log p(x) of each row of xs and its most responsible component, from one evaluation.

    log p is a log-sum-exp over the components. A point too far from the
    mass for any finite component log-density gets -inf; a NaN point raises
    NumericError naming its row. The mode is the argmax of the component
    log-densities (ties to the lower index). The softmax keeps their order,
    so the mode always has the largest responsibility; where the softmax
    rounds two components to one probability, the mode is the one with the
    larger log-density rather than the lower index.
    """
    pts, _ = as_rows(np.atleast_2d(xs), gm.dim, "point", "mixture dim")
    return _in_row_blocks(gm, 0.0, pts, _log_p_and_mode)


def mixture_log_pdf_batch(gm: GaussianMixture, xs) -> np.ndarray:
    """log p(x) for each row of xs: the first half of mixture_log_pdf_and_mode."""
    return mixture_log_pdf_and_mode(gm, xs)[0]


def _responsibilities(x, logc, first_row):
    return (_softmax(logc, first_row).T.copy(),)


def responsibilities(gm: GaussianMixture, xs) -> np.ndarray:
    """Posterior component probabilities, one row per point."""
    pts, _ = as_rows(np.atleast_2d(xs), gm.dim, "point", "mixture dim")
    (resp,) = _in_row_blocks(gm, 0.0, pts, _responsibilities)
    return resp


def _score(x, logc, first_row, gm):
    # einsum's order over k follows its operands' layout: row-major, as in the reference
    resp = _softmax(logc, first_row).T.copy()
    pull = np.subtract(gm.means, x[:, None])
    pull /= gm.variances
    return (np.einsum("nk,nkd->nd", resp, pull),)


def analytic_score(gm: GaussianMixture, x) -> np.ndarray:
    """Closed-form d/dx log p(x) = sum_k resp_k(x) (mu_k - x) / v_k."""
    pts, single = as_rows(x, gm.dim, "point", "mixture dim")
    (score,) = _in_row_blocks(gm, 0.0, pts, _score, gm)
    return score[0] if single else score


def _log_p_and_floor(gm: GaussianMixture, pts: np.ndarray) -> tuple[np.ndarray, float]:
    """log p at pts, and HIGH_DENSITY_NATS below its peak over pts and the component means."""
    logp = mixture_log_pdf_batch(gm, pts)
    peak = max(float(logp.max()), float(mixture_log_pdf_batch(gm, gm.means).max()))
    return logp, peak - HIGH_DENSITY_NATS


def high_density_grid(gm: GaussianMixture, n: int) -> np.ndarray:
    """Evenly pick n points of [0, 1] within HIGH_DENSITY_NATS of the peak log-density."""
    if gm.dim != 1:
        raise ValueError("high_density_grid supports 1-D mixtures only")
    if n < 1:
        raise ValueError(f"need n >= 1 grid points, got {n}")
    xs = np.linspace(GRID_LO, GRID_HI, GRID_CANDIDATES)[:, None]
    logp, floor = _log_p_and_floor(gm, xs)
    keep = xs[logp >= floor]
    if keep.shape[0] < n:
        raise ValueError("not enough candidate points inside the high-density region")
    idx = np.linspace(0, keep.shape[0] - 1, n).round().astype(int)
    return keep[idx]


# ---------------------------------------------------------------------------
# optimal reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """A Monte-Carlo average over the corruption noise eps ~ N(0, sigma^2 I).

    `method` has one legal value, "monte_carlo". It stays only because
    perfbench/selftest.py passes it, and goes with the rest of the
    estimator once that self-test has its own.
    """

    method: str = "monte_carlo"
    n_samples: int = 100_000
    mc_seed: int = 0

    def __post_init__(self):
        if self.method != "monte_carlo":
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.n_samples < 10_000:
            raise ValueError("monte_carlo needs at least 10000 samples")


def _posterior_means(x, logc, first_row, gm, sigma):
    """R* of one block: the components' shrunken means at sigma weighted by the
    responsibilities, summed over the components."""
    resp = _softmax(logc, first_row)
    shrunk = gm._shrunken_means(x, sigma)
    shrunk *= resp[:, :, None]
    return (_fold(np.add, shrunk),)


def _point_reconstruction(table: tuple, x: list) -> np.ndarray:
    """R* of one point x (d Python floats) from _smoothed's table at sigma.

    The arithmetic of _log_densities, _softmax and _posterior_means on a
    one-row block, in Python floats and in their order, with their bits:
    with fewer than _PAIRWISE_TERMS terms each of numpy's sums adds left to
    right from +0.0, as these loops do, so a sum of -0.0 terms is +0.0.
    exp stays np.exp, whose bits math.exp does not share; a scalar call has
    the list call's bits, and the largest log-density's term is exp(0) = 1.0.
    A NaN log-density is the largest, as np.maximum makes it.
    """
    logc = []
    for logdet, log_w, coords in table:
        quad = 0.0
        for xj, (mu, _, var, _) in zip(x, coords):
            diff = xj - mu
            quad += diff * diff / var
        logc.append((quad + logdet) * -0.5 + log_w)
    top = logc[0]
    for c in logc:
        if c > top or c != c:
            top = c
    if not math.isfinite(top):
        _raise_no_finite_row([True], [top], 0)
    e = [1.0 if c == top else float(np.exp(c - top)) for c in logc]
    total = 0.0
    for ek in e:
        total += ek
    recon = [0.0] * len(x)
    for ek, (_, _, coords) in zip(e, table):
        resp = ek / total
        for j, (xj, (_, v, var, s2mu)) in enumerate(zip(x, coords)):
            recon[j] += (v * xj + s2mu) / var * resp
    return np.array(recon)


def optimal_reconstruction(
    gm: GaussianMixture, sigma: float, x, quad: QuadratureSpec | None = None
) -> np.ndarray:
    """Evaluate R*(x) = E[p(x - eps)(x - eps)] / E[p(x - eps)].

    With no `quad` this is the exact conjugate posterior mean, vectorised
    over rows: x of shape (d,) gives (d,), and (n, d) gives (n, d); a (d,)
    point of a mixture of fewer than 8 components in fewer than 8 dims
    takes _point_reconstruction, with the same bits: a float64 np.ndarray
    point as it is, any other x (a list, another dtype) through as_rows. The
    responsibilities use the smoothed variances v + sigma^2 and weight the
    shrunken means (v x + sigma^2 mu) / (v + sigma^2). A point far from the
    mass gets the exact, finite R*; a row with no finite smoothed component
    log-density raises NumericError (see _softmax).

    An explicit QuadratureSpec estimates the same ratio by Monte Carlo at
    one point instead; see _quadrature_estimate.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if quad is None and type(x) is np.ndarray and x.dtype == _FLOAT64 and x.shape == (gm.dim,):
        table = gm._smoothed(sigma)[3]
        if table is not None:
            return _point_reconstruction(table, x.tolist())
    pts, single = as_rows(x, gm.dim, "point", "mixture dim")
    if quad is not None:
        if pts.shape[0] != 1:
            raise ShapeError("the quadrature estimator takes a single point")
        recon = _quadrature_estimate(gm, sigma, pts[0], quad)
        return recon if single else recon[None, :]

    if single:
        table = gm._smoothed(sigma)[3]
        if table is not None:
            return _point_reconstruction(table, pts[0].tolist())
    (recon,) = _in_row_blocks(gm, sigma, pts, _posterior_means, gm, sigma)
    return recon[0] if single else recon


def _quadrature_estimate(
    gm: GaussianMixture, sigma: float, xv: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    """Monte-Carlo R*(xv) at one point (d,), from quad.n_samples draws of eps.

    eps comes from a Prng seeded with quad.mc_seed. The ratio is an average
    of the shifted points x - eps_i, weighted by one softmax over
    log(w_k N(x - eps_i; mu_k, v_k)) for all draws i and components k:
    stable in the tails, and, as in the closed form, raising NumericError
    where no term is finite.
    """
    eps = Prng(quad.mc_seed).normal((quad.n_samples, gm.dim), sigma)
    shifted = xv[None, :] - eps  # candidate clean points x - eps
    (logc,) = _in_row_blocks(gm, 0.0, shifted, lambda x, logc, first_row: (logc.T,))
    tau = _softmax(logc.reshape(-1, 1)).reshape(logc.shape).sum(axis=1)
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
    if not sig:
        raise ValueError("sigmas is empty: the study needs at least one sigma")
    if not all(math.isfinite(s) and s > 0.0 for s in sig):
        raise ValueError("sigmas must be finite and positive")
    if any(b >= a for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    pts, _ = as_rows(np.atleast_2d(grid), gm.dim, "point", "mixture dim")
    if pts.shape[0] == 0:
        raise ValueError("grid has no points")
    logp, floor = _log_p_and_floor(gm, pts)
    if np.any(logp < floor - 1e-9):
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
