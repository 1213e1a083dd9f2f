"""A plain reference of the closed-form oracle's arithmetic, written out.

Each function builds every intermediate as a new array over all rows at
once, in the order the formulas read: the component log-densities
-0.5 * (sum_d(diff^2 / var) + logdet) + log w, a max-shifted softmax or a
column-folded log-sum-exp over them, and for R* the shrunken means
(v x + s^2 mu) / (v + s^2) weighted by the responsibilities and summed over
the components. Nothing is cached and nothing is blocked. The package
evaluates the same closed form from per-(mixture, sigma) constants, in
place and in row blocks; tests require its results to equal these byte for
byte. Input validation is not what this reference checks: it takes an
(n, d) float64 batch of finite points.
"""

from __future__ import annotations

import numpy as np


def component_log_pdfs(gm, xs, variances=None):
    """(n, k) log w_k + log N(x; mu_k, diag(v_k)); v defaults to the mixture's own."""
    var = gm.variances if variances is None else variances
    diff = xs[:, None, :] - gm.means[None, :, :]
    quad = (diff * diff) / var[None, :, :]
    logdet = np.log(2.0 * np.pi * var).sum(axis=1)
    comp = -0.5 * (quad.sum(axis=2) + logdet[None, :])
    return comp + np.log(gm.weights)[None, :]


def logsumexp(a):
    """Row-wise log(sum(exp(a))), folding the columns left to right with np.logaddexp."""
    k = a.shape[1]
    out = np.logaddexp(a[:, 0], a[:, 1]) if k > 1 else a[:, 0] + 0.0
    for j in range(2, k):
        out = np.logaddexp(out, a[:, j])
    return out


def argmax_rows(a):
    """Row-wise argmax folded over columns; ties go to the lower index."""
    k = a.shape[1]
    if k == 1:
        return np.zeros(a.shape[0], dtype=np.intp)
    mode = (a[:, 1] > a[:, 0]).astype(np.intp)
    best = a[:, 0]
    for j in range(2, k):
        best = np.maximum(best, a[:, j - 1])
        mode = np.where(a[:, j] > best, j, mode)
    return mode


def softmax(logc):
    top = logc.max(axis=1, keepdims=True)
    e = np.exp(logc - top)
    return e / e.sum(axis=1, keepdims=True)


def mixture_log_pdf_batch(gm, xs):
    return logsumexp(component_log_pdfs(gm, xs))


def mixture_log_pdf_and_mode(gm, xs):
    logc = component_log_pdfs(gm, xs)
    return logsumexp(logc), argmax_rows(logc)


def responsibilities(gm, xs):
    return softmax(component_log_pdfs(gm, xs))


def analytic_score(gm, xs):
    resp = responsibilities(gm, xs)
    pull = (gm.means[None, :, :] - xs[:, None, :]) / gm.variances[None, :, :]
    return np.einsum("nk,nkd->nd", resp, pull)


def optimal_reconstruction(gm, sigma, xs):
    s2 = sigma * sigma
    smoothed = gm.variances + s2
    resp = softmax(component_log_pdfs(gm, xs, smoothed))
    shrunk = (gm.variances * xs[:, None, :] + s2 * gm.means) / smoothed
    return (resp[:, :, None] * shrunk).sum(axis=1)
