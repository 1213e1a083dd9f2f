import itertools
from unittest import mock

import numpy as np
import pytest

from daechain import oracle
from daechain.models import build_model, reconstruct
from daechain.numeric import NumericError, Prng, ShapeError
from daechain.oracle import (
    GaussianMixture,
    mixture_log_pdf_and_mode,
    mixture_log_pdf_batch,
    responsibilities,
)
from daechain.sampler import (
    ChainConfig,
    ChainTrace,
    chain_diagnostics,
    refine_from_prior,
    run_chain,
    sample_from_noise,
)
from _oracles import gauss_hermite_posterior_mean, mixture_posterior_mean


def two_mode():
    return GaussianMixture(
        np.array([0.5, 0.5]), np.array([0.35, 0.65]), np.array([0.0025, 0.0025])
    )


def single(mu=0.5, s=0.1):
    return GaussianMixture(np.array([1.0]), np.array([mu]), np.array([s * s]))


def exact_denoiser(gm, sigma):
    return lambda xs: mixture_posterior_mean(gm, sigma, xs)


# ---------------------------------------------------------------------------
# configuration and bookkeeping
# ---------------------------------------------------------------------------

def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(steps=0)
    with pytest.raises(ValueError):
        ChainConfig(steps=5, inject_sigma=-0.1)
    with pytest.raises(ValueError):
        ChainConfig(steps=5, record_every=0)
    with pytest.raises(ValueError):
        ChainConfig(steps=5, record_every=6)


def test_identity_map_is_a_fixed_point():
    x0 = np.array([[0.1, 0.9], [0.4, 0.6], [0.5, 0.5], [0.0, 1.0]])
    trace = run_chain(lambda xs: xs, x0, ChainConfig(steps=5))
    assert trace.times == (0, 1, 2, 3, 4, 5)
    assert np.all(trace.states == x0[None])
    assert np.all(trace.displacements == 0.0)


def test_single_step_trace_holds_start_and_end():
    trace = run_chain(lambda xs: xs * 0.5, np.array([[0.8]]), ChainConfig(steps=1))
    assert trace.times == (0, 1)
    assert trace.states.shape == (2, 1, 1)
    assert trace.states[1, 0, 0] == 0.4


def test_recording_cadence_always_includes_final_state():
    trace = run_chain(lambda xs: xs, np.array([[0.5]]), ChainConfig(steps=12, record_every=5))
    assert trace.times == (0, 5, 10, 12)
    assert trace.states.shape[0] == 4
    assert trace.displacements.shape == (12, 1)


def test_single_point_is_promoted_to_a_batch():
    trace = run_chain(lambda xs: xs, np.array([0.3, 0.7]), ChainConfig(steps=2))
    assert trace.states.shape == (3, 1, 2)
    assert trace.n_chains == 1


def test_injection_requires_rng():
    with pytest.raises(ValueError):
        run_chain(lambda xs: xs, np.array([[0.5]]), ChainConfig(steps=3, inject_sigma=0.5))


def test_nonfinite_states_name_the_step():
    calls = {"n": 0}

    def flaky(xs):
        calls["n"] += 1
        return xs * np.nan if calls["n"] == 3 else xs

    with pytest.raises(NumericError, match="step 3"):
        run_chain(flaky, np.array([[0.5]]), ChainConfig(steps=5))
    with pytest.raises(NumericError, match="step 0"):
        run_chain(lambda xs: xs, np.array([[np.nan]]), ChainConfig(steps=1))


def test_operator_must_preserve_shape():
    with pytest.raises(ShapeError):
        run_chain(lambda xs: xs[:, :1], np.array([[0.5, 0.5]]), ChainConfig(steps=1))


def test_a_transition_with_its_own_prng_is_checked_and_replayed():
    # A Gibbs or Langevin step is an operator that closes over its Prng:
    # run_chain checks it like R, and a fresh Prng of the same seed replays it.
    def transition(seed, fault=lambda y: y):
        rng, calls = Prng(seed), itertools.count(1)

        def step(x):
            y = 0.5 * x + 0.25 + rng.normal(x.shape, 0.01)
            return fault(y) if next(calls) == 3 else y

        return step

    x0 = Prng(0).uniform((16, 2))
    cfg = ChainConfig(steps=12)
    trace = run_chain(transition(7), x0, cfg)
    rng, x = Prng(7), x0
    for t in range(1, 13):
        nxt = 0.5 * x + 0.25 + rng.normal(x.shape, 0.01)
        assert trace.states[t].tobytes() == nxt.tobytes()
        assert trace.displacements[t - 1].tobytes() == np.linalg.norm(nxt - x, axis=1).tobytes()
        x = nxt
    again = run_chain(transition(7), x0, cfg)
    assert again.states.tobytes() == trace.states.tobytes()
    assert not np.array_equal(run_chain(transition(8), x0, cfg).states, trace.states)
    with pytest.raises(ShapeError):
        run_chain(transition(7, lambda y: y[:, :1]), x0, cfg)
    with pytest.raises(NumericError, match="step 3"):
        run_chain(transition(7, lambda y: y * np.nan), x0, cfg)


# ---------------------------------------------------------------------------
# exact-denoiser chains
# ---------------------------------------------------------------------------

def test_single_gaussian_chain_contracts_geometrically():
    # the conjugate map is x -> mu + (x - mu) s^2/(s^2 + sigma^2); from 0.9
    # with s = sigma = 0.1 each step halves the distance to the mean
    gm = single(mu=0.5, s=0.1)
    trace = run_chain(exact_denoiser(gm, 0.1), np.array([[0.9]]), ChainConfig(steps=10))
    for t, state in zip(trace.times, trace.states[:, 0, 0]):
        assert abs(state - (0.5 + 0.4 * 0.5**t)) < 1e-12
    assert abs(trace.states[-1, 0, 0] - 0.500390625) < 1e-12


def test_quadrature_chain_matches_closed_form():
    gm = single(mu=0.5, s=0.1)

    def quad_map(xs):
        return np.stack([gauss_hermite_posterior_mean(gm, 0.1, x) for x in xs])

    trace = run_chain(quad_map, np.array([[0.9]]), ChainConfig(steps=10))
    for t, state in zip(trace.times, trace.states[:, 0, 0]):
        assert abs(state - (0.5 + 0.4 * 0.5**t)) < 1e-9


def test_trace_carries_true_log_densities():
    gm = two_mode()
    x0 = np.array([[0.2], [0.5], [0.8]])
    trace = run_chain(exact_denoiser(gm, 0.1), x0, ChainConfig(steps=4), gm=gm)
    assert trace.log_densities.shape == (5, 3)
    for i, state in enumerate(trace.states):
        assert np.array_equal(trace.log_densities[i], mixture_log_pdf_batch(gm, state))


# ---------------------------------------------------------------------------
# noise-started and prior-started chains
# ---------------------------------------------------------------------------

def test_sample_from_noise_starts_in_unit_cube():
    model = build_model("dae", 2, 2, Prng(0), sigma=0.1)
    trace = sample_from_noise(model, 64, ChainConfig(steps=3), Prng(5))
    assert trace.states[0].shape == (64, 2)
    assert np.all((trace.states[0] >= 0.0) & (trace.states[0] < 1.0))
    with pytest.raises(ValueError):
        sample_from_noise(model, 0, ChainConfig(steps=3), Prng(5))


def test_sample_from_noise_is_reproducible():
    model = build_model("dae", 1, 2, Prng(0), sigma=0.1)
    cfg = ChainConfig(steps=5, inject_sigma=0.2)
    a = sample_from_noise(model, 16, cfg, Prng(9))
    b = sample_from_noise(model, 16, cfg, Prng(9))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.displacements, b.displacements)


def test_run_chain_takes_a_bare_callable_from_its_own_starts():
    x0 = Prng(1).uniform((8, 1))
    trace = run_chain(exact_denoiser(two_mode(), 0.1), x0, ChainConfig(steps=2))
    assert trace.states.shape == (3, 8, 1)
    assert np.array_equal(trace.states[0], x0)


def test_refine_from_prior_decodes_then_iterates():
    model = build_model("dvae", 1, 2, Prng(3), sigma=0.1)
    trace = refine_from_prior(model, 32, ChainConfig(steps=1), Prng(7))
    assert np.all((trace.states[0] > 0.0) & (trace.states[0] < 1.0))
    assert np.array_equal(trace.states[1], reconstruct(model, trace.states[0]))
    with pytest.raises(ValueError):
        refine_from_prior(model, 0, ChainConfig(steps=1), Prng(7))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_of_a_constant_chain():
    gm = two_mode()
    x0 = np.array([[0.35], [0.65]])
    trace = run_chain(lambda xs: xs, x0, ChainConfig(steps=5), gm=gm)
    diag = chain_diagnostics(trace, gm)
    assert np.all(diag.displacements == 0.0)
    assert np.all(diag.mode_switches == 0)
    assert diag.n_chains_switched == 0
    assert np.all(diag.mode_membership[:, 0] == 0)
    assert np.all(diag.mode_membership[:, 1] == 1)


def test_diagnostics_fill_in_the_trace():
    # a trace run without the mixture gets the same densities and modes a
    # run with it records: mixture_log_pdf_batch and the argmax of the
    # responsibilities of each recorded state
    gm = two_mode()
    x0 = Prng(3).uniform((16, 1))
    op = exact_denoiser(gm, 0.2)
    trace = run_chain(op, x0, ChainConfig(steps=4, record_every=2))
    diag = chain_diagnostics(trace, gm)
    assert isinstance(diag, ChainTrace)
    assert diag.times == trace.times
    assert diag.states is trace.states
    assert diag.displacements is trace.displacements
    want = np.stack([mixture_log_pdf_batch(gm, s) for s in trace.states])
    assert np.array_equal(diag.log_densities, want)
    modes = np.stack([np.argmax(responsibilities(gm, s), axis=1) for s in trace.states])
    assert np.array_equal(diag.mode_membership, modes)
    with_gm = run_chain(op, x0, ChainConfig(steps=4, record_every=2), gm=gm)
    assert np.array_equal(with_gm.log_densities, want)
    assert np.array_equal(with_gm.mode_membership, modes)
    assert chain_diagnostics(with_gm, gm) is with_gm  # nothing left to fill in
    assert np.array_equal(chain_diagnostics(with_gm, gm).log_densities, want)
    assert diag.mode_membership.shape == (len(trace.times), 16)
    assert trace.mode_membership is None  # the input trace is left as it was

    # a multi-state trace of a 2-d mixture, taken in row blocks that straddle
    # the states, gets the bytes of one evaluation per state
    gm2 = GaussianMixture(
        np.array([0.2, 0.3, 0.5]), np.array([[0.3, 0.4], [0.7, 0.6], [0.5, 0.2]]), np.full((3, 2), 0.01)
    )
    states = Prng(5).uniform((4, 5, 2))
    trace2 = ChainTrace((0, 1, 2, 3), states, np.zeros((3, 5)), None)
    with mock.patch.object(oracle, "_WORKSPACE_BYTES", 3 * 8 * 3 * 2):  # 3 rows a block
        diag2 = chain_diagnostics(trace2, gm2)
    log_p, modes = zip(*(mixture_log_pdf_and_mode(gm2, s) for s in states))
    for got, want in ((diag2.log_densities, np.stack(log_p)), (diag2.mode_membership, np.stack(modes))):
        assert got.shape == want.shape == (4, 5) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    states[2, 3, 1] = np.nan  # rows count states then chains: 2 * 5 + 3
    with pytest.raises(NumericError, match="row 13 "):
        chain_diagnostics(trace2, gm2)


def test_diagnostics_without_ground_truth():
    trace = run_chain(lambda xs: xs, np.array([[0.5]]), ChainConfig(steps=2))
    diag = chain_diagnostics(trace)
    assert diag.log_densities is None
    assert diag.mode_membership is None
    assert diag.n_chains_switched is None


def test_contracting_chain_climbs_the_density():
    gm = single(mu=0.5, s=0.1)
    trace = run_chain(
        exact_denoiser(gm, 0.1), np.array([[0.9]]), ChainConfig(steps=10), gm=gm
    )
    diag = chain_diagnostics(trace, gm)
    gains = np.diff(diag.log_densities[:, 0])
    assert np.all(gains > 0.0)  # still > 1e-6 from the mode at step 10


def test_injected_noise_causes_mode_switches():
    # through the exact denoiser at sigma = 0.5, noise-free chains collapse
    # monotonically toward the midpoint without ever crossing it, while
    # injected noise of the same scale hops chains across the valley
    gm = two_mode()
    op = exact_denoiser(gm, 0.5)
    rng = Prng(17)
    x0 = rng.uniform((256, 1))
    quiet = run_chain(op, x0, ChainConfig(steps=50), gm=gm)
    noisy = run_chain(op, x0, ChainConfig(steps=50, inject_sigma=0.5), Prng(23), gm=gm)
    n_quiet = chain_diagnostics(quiet, gm).n_chains_switched
    n_noisy = chain_diagnostics(noisy, gm).n_chains_switched
    assert n_noisy >= 1
    assert n_quiet < n_noisy


def test_injected_noise_widens_the_stationary_spread():
    gm = two_mode()
    op = exact_denoiser(gm, 0.1)
    rng = Prng(11)
    x0 = rng.uniform((256, 1))
    cfg = ChainConfig(steps=30)
    quiet = run_chain(op, x0, cfg)
    noisy = run_chain(op, x0, ChainConfig(steps=30, inject_sigma=0.1), Prng(29))
    quiet_spread = quiet.states[-10:].std(axis=0).mean()
    noisy_spread = noisy.states[-10:].std(axis=0).mean()
    assert noisy_spread > quiet_spread
