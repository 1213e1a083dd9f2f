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
responsibilities, the score and R*. A GaussianMixture holds read-only
copies of its arrays, so what a caller later writes to its own arrays
cannot reach them, and computes log w once. The data density p is the
sigma = 0 member of the smoothed family p * N(0, sigma^2 I), so one cache
serves both: the constants v + sigma^2, their log-normalisers and
sigma^2 mu of the last sigma evaluated (0 for p), which a sweep over points
at one sigma computes once. Each call then works in place on arrays it
allocates once, and takes its rows in blocks whose (rows, k, d) workspace
fits _WORKSPACE_BYTES, so memory stays bounded at any number of rows. A
block's component log-densities are one broadcast evaluation over
(rows, k, d), except in a 1-D mixture's blocks of more than
_COMPONENT_PASS_ROWS rows, which take them one component at a time with
scalar operands. The arithmetic is the formulas' own, in their order, on
either path, so every result has the bits of the plain whole-batch
expressions (tests/_reference_oracle.py).

For a single Gaussian N(mu, s^2) the relative error of (R*(x) - x) / sigma^2
against the true score (mu - x) / s^2 is exactly sigma^2 / (s^2 + sigma^2),
independent of x. That closed form anchors the convergence study.
"""

from __future__ import annotations

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

# The closed form takes its rows in blocks whose (rows, k, d) float64
# workspace fits in this many bytes, as models._BLOCK_ROWS bounds inference.
# Every result is a function of its own row, so the block size changes no
# bits. A 1-D two-component mixture takes 65,536 rows per block, a 64-d
# 49-component one 41.
_WORKSPACE_BYTES = 1 << 20

# A 1-D mixture's blocks of more rows than this take the log-density one
# component at a time, in passes over a contiguous column with scalar
# operands; numpy's broadcasting loop over the short (rows, k, 1) axes is
# slower from about 200 rows of a two-component mixture (timeit, numpy 2.4,
# 2-vCPU Xeon), and 3-4x slower at 65,536. Smaller blocks, single points
# among them, keep the broadcast evaluation. Either way every element goes
# through the same operations in the same order.
_COMPONENT_PASS_ROWS = 256


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
        # The per-component constants carry a leading axis of length 1, so a
        # one-row block meets them shape for shape: numpy's same-shape loop
        # is about twice as fast as its broadcasting one on such tiny arrays.
        object.__setattr__(self, "_log_weights", _read_only(np.log(w)[None, :]))
        object.__setattr__(self, "_last_smoothing", (None, None))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _smoothed(self, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v + sigma^2, its log-normalisers and sigma^2 mu, kept for the last sigma only."""
        last, consts = self._last_smoothing
        if last == sigma:
            return consts
        s2 = sigma * sigma
        var = self.variances[None] + s2
        # sigma^2 = inf makes every row raise NumericError before s2mu is read
        with np.errstate(invalid="ignore"):
            s2mu = s2 * self.means[None]
        logdet = np.log(2.0 * np.pi * var).sum(axis=2)  # (1, k) log det(2 pi diag(v_k))
        consts = (_read_only(var), _read_only(logdet), _read_only(s2mu))
        object.__setattr__(self, "_last_smoothing", (sigma, consts))
        return consts


def confined_to_unit_box(gm: GaussianMixture) -> bool:
    """True when every mean +- UNIT_BOX_SPAN standard deviations stays inside (0, 1)."""
    s = np.sqrt(gm.variances)
    lo = gm.means - UNIT_BOX_SPAN * s
    hi = gm.means + UNIT_BOX_SPAN * s
    return bool(np.all(lo > 0.0) and np.all(hi < 1.0))


def _logsumexp(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stable row-wise log(sum(exp(a))) of an (n, k) array, into out if given.

    Folds the columns left to right with np.logaddexp, which shifts every
    pairwise sum by its larger term: max + log1p(exp(min - max)). Nothing
    overflows, and a row that is all -inf gives -inf (not nan). For k <= 2
    this is the expression scipy.special.logsumexp evaluates, so results
    agree to the last bit in all but rare rows, where they differ by one ulp.
    The k - 1 whole-column calls give the bits of np.logaddexp.reduce(a,
    axis=1), two to three times as fast as reducing each short row (k = 2,
    65,536 rows). The reduction starts from its identity -inf, which turns
    a lone -0.0 into +0.0, hence the + 0.0 when k = 1.
    """
    k = a.shape[1]
    out = np.logaddexp(a[:, 0], a[:, 1], out=out) if k > 1 else np.add(a[:, 0], 0.0, out=out)
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


def _raise_no_finite_row(bad: np.ndarray, largest: np.ndarray, first_row: int):
    i = int(np.argmax(bad))
    raise NumericError(
        f"no finite component log-density in row {first_row + i} (largest {largest[i]}); "
        "the point is NaN, infinite or too far from the mixture mass"
    )


def _softmax(logc: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Row-wise exp(logc) / sum(exp(logc)) in place, shifted by each row's max.

    Raises NumericError for a row whose largest entry is not finite: then
    no component has a finite log-density and the row has no softmax. The
    message counts rows from first_row, the block's first row in the batch.
    """
    # the ufuncs' own reductions: ndarray.max and .sum add a Python layer
    top = np.maximum.reduce(logc, axis=1, keepdims=True)
    if not np.isfinite(top).all():
        _raise_no_finite_row(~np.isfinite(top[:, 0]), top[:, 0], first_row)
    logc -= top
    np.exp(logc, out=logc)
    logc /= np.add.reduce(logc, axis=1, keepdims=True)
    return logc


def _log_density_blocks(gm: GaussianMixture, pts: np.ndarray, sigma: float):
    """Yield (rows, x, logc, work) for each block of rows of the (n, d) batch pts.

    x is the block's points as (rows, 1, d). logc holds their (rows, k)
    component log-densities -0.5 * (sum_d (x - mu_k)^2 / var_k + logdet_k)
    + log w_k under the mixture smoothed by sigma (gm._smoothed; sigma = 0
    for the mixture itself): one broadcast over (rows, k, d), or, in a 1-D
    mixture's blocks of more than _COMPONENT_PASS_ROWS rows, one column at
    a time. logc and work, the block's (rows, k, d) workspace, are the
    caller's once the block is yielded, until the next.
    """
    var, logdet, _ = gm._smoothed(sigma)
    n, (k, d) = len(pts), gm.means.shape
    step = max(1, min(n, _WORKSPACE_BYTES // (8 * k * d)))
    work = np.empty((step, k, d))
    logc = np.empty((step, k))
    by_component = d == 1 and step > _COMPONENT_PASS_ROWS
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        x = pts[rows, None, :]
        out = logc[: len(x)]
        quad = work[: len(x)]
        if by_component:  # the operations below, with scalar operands
            col = quad.reshape(-1)[: len(x)]  # contiguous, unlike quad[:, j, 0]
            for j in range(k):
                np.subtract(x[:, 0, 0], gm.means[j, 0], out=col)
                col *= col
                col /= var[0, j, 0]
                col += logdet[0, j]
                col *= -0.5
                col += gm._log_weights[0, j]
                out[:, j] = col
        else:
            np.subtract(x, gm.means, out=quad)
            np.multiply(quad, quad, out=quad)
            quad /= var
            if d == 1:  # a sum over one coordinate is that coordinate
                np.add(quad[:, :, 0], logdet, out=out)
            else:
                np.add(np.add.reduce(quad, axis=2, out=out), logdet, out=out)
            out *= -0.5
            out += gm._log_weights
        yield rows, x, out, quad


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
    log_p = np.empty(len(pts))
    mode = np.empty(len(pts), dtype=np.intp)
    for rows, _, logc, _ in _log_density_blocks(gm, pts, 0.0):
        nan = np.isnan(logc[:, 0])  # a NaN coordinate makes every column NaN
        if nan.any():
            _raise_no_finite_row(nan, logc[:, 0], rows.start)
        _logsumexp(logc, log_p[rows])
        mode[rows] = _argmax_rows(logc)
    return log_p, mode


def mixture_log_pdf_batch(gm: GaussianMixture, xs) -> np.ndarray:
    """log p(x) for each row of xs: the first half of mixture_log_pdf_and_mode."""
    return mixture_log_pdf_and_mode(gm, xs)[0]


def responsibilities(gm: GaussianMixture, xs) -> np.ndarray:
    """Posterior component probabilities, one row per point."""
    pts, _ = as_rows(np.atleast_2d(xs), gm.dim, "point", "mixture dim")
    resp = np.empty((len(pts), gm.n_components))
    for rows, _, logc, _ in _log_density_blocks(gm, pts, 0.0):
        resp[rows] = _softmax(logc, rows.start)
    return resp


def analytic_score(gm: GaussianMixture, x) -> np.ndarray:
    """Closed-form d/dx log p(x) = sum_k resp_k(x) (mu_k - x) / v_k."""
    pts, single = as_rows(x, gm.dim, "point", "mixture dim")
    score = np.empty(pts.shape)
    var = gm._smoothed(0.0)[0]
    for rows, block_x, resp, work in _log_density_blocks(gm, pts, 0.0):
        _softmax(resp, rows.start)
        pull = np.subtract(gm.means, block_x, out=work)
        pull /= var
        np.einsum("nk,nkd->nd", resp, pull, out=score[rows])
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

    An explicit QuadratureSpec estimates the same ratio by Monte Carlo at
    one point instead; see _quadrature_estimate.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    pts, single = as_rows(x, gm.dim, "point", "mixture dim")
    if quad is not None:
        if pts.shape[0] != 1:
            raise ShapeError("the quadrature estimator takes a single point")
        recon = _quadrature_estimate(gm, sigma, pts[0], quad)
        return recon if single else recon[None, :]

    var, _, s2mu = gm._smoothed(sigma)
    recon = np.empty(pts.shape)
    for rows, block_x, resp, work in _log_density_blocks(gm, pts, sigma):
        _softmax(resp, rows.start)
        shrunk = np.multiply(gm.variances, block_x, out=work)
        shrunk += s2mu
        shrunk /= var
        shrunk *= resp[:, :, None]
        np.add.reduce(shrunk, axis=1, out=recon[rows])
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
    logc = np.empty((len(shifted), gm.n_components))
    for rows, _, block, _ in _log_density_blocks(gm, shifted, 0.0):
        logc[rows] = block
    tau = _softmax(logc.reshape(1, -1)).reshape(logc.shape).sum(axis=1)
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
