"""Self-test of the closed-form reference in reference.py.

    python3 perfbench/selftest.py

Two checks, run from the repository root against the package in ``src/``:

1. At sigma <= 0.05, where the 64-node Gauss-Hermite rule is accurate, the
   closed form agrees with ``oracle.optimal_reconstruction`` to 1e-9, on the
   1-D and the 2-D benchmark mixtures.
2. At sigma = 0.5 it agrees with a 2e6-sample Monte-Carlo
   ``optimal_reconstruction`` to within four Monte-Carlo standard errors.
   The standard error comes from the delta method on an independent numpy
   draw of the same size. The 64-node rule's error at the same points is
   printed for comparison; it is far outside that band.

Exits 1 if either check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from daechain import oracle  # noqa: E402

from reference import posterior_mean  # noqa: E402
from workloads import MIX1, MIX2  # noqa: E402

MC_SAMPLES = 2_000_000


def mc_standard_error(mix, sigma, x, seed):
    """Delta-method standard error of the self-normalised Monte-Carlo ratio at x."""
    gen = np.random.Generator(np.random.PCG64(seed))
    t = x[None, :] - gen.normal(0.0, sigma, size=(MC_SAMPLES, x.shape[0]))
    gm = oracle.GaussianMixture(*mix)
    logw = oracle.mixture_log_pdf_batch(gm, t)
    w = np.exp(logw - logw.max())
    r = (w[:, None] * t).sum(axis=0) / w.sum()
    return np.sqrt(((w[:, None] * (t - r)) ** 2).sum(axis=0)) / w.sum()


def main() -> int:
    ok = True
    worst = 0.0
    for mix, pts in ((MIX1, np.linspace(0.0, 1.0, 21)[:, None]),
                     (MIX2, np.array([[0.3, 0.4], [0.5, 0.5], [0.7, 0.6], [0.2, 0.8]]))):
        gm = oracle.GaussianMixture(*mix)
        for sigma in (0.05, 0.02, 0.01):
            ref = posterior_mean(*mix, sigma, pts)
            got = np.array([oracle.optimal_reconstruction(gm, sigma, p) for p in pts])
            worst = max(worst, float(np.max(np.abs(got - ref))))
    print(f"check 1: max |closed form - 64-node oracle| at sigma <= 0.05 = {worst:.3g} (limit 1e-9)")
    ok &= worst <= 1e-9

    gm = oracle.GaussianMixture(*MIX1)
    mc = oracle.QuadratureSpec(method="monte_carlo", n_samples=MC_SAMPLES, mc_seed=7)
    for i, x in enumerate((0.2, 0.35, 0.5, 0.65, 0.8)):
        pt = np.array([x])
        ref = float(posterior_mean(*MIX1, 0.5, pt)[0, 0])
        got = float(oracle.optimal_reconstruction(gm, 0.5, pt, mc)[0])
        gh = float(oracle.optimal_reconstruction(gm, 0.5, pt)[0])
        se = float(mc_standard_error(MIX1, 0.5, pt, 100 + i)[0])
        good = abs(got - ref) <= 4.0 * se
        ok &= good
        print(f"check 2: x={x:.2f} closed {ref:.6f} monte-carlo {got:.6f} "
              f"|diff| {abs(got - ref):.2e} (4 SE = {4 * se:.2e}) "
              f"64-node |diff| {abs(gh - ref):.2e} {'ok' if good else 'FAIL'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
