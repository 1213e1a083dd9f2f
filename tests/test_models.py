import math
import tracemalloc

import numpy as np
import pytest

from daechain import models
from daechain.losses import bce_loss, kl_to_standard_normal
from daechain.models import (
    LOSS_KINDS,
    MODEL_KINDS,
    Autoencoder,
    CorruptionSpec,
    TrainConfig,
    build_model,
    corrupt,
    daae_train_step,
    dae_train_step,
    decode_latent,
    dvae_train_step,
    init_opt_states,
    reconstruct,
    train,
)
from daechain.nn import MlpSpec, _forward, init_mlp, mlp_forward
from daechain.numeric import NumericError, Prng, ShapeError, sigmoid
import _reference_training as reference_training


def mixture_data(n, seed=1):
    g = np.random.Generator(np.random.PCG64(seed))
    comp = (g.random(n) < 0.5).astype(int)
    x = np.array([0.35, 0.65])[comp] + 0.05 * g.standard_normal(n)
    return np.clip(x, 0.0, 1.0)[:, None]


def clone_params(mlp):
    return [w.copy() for w in mlp.weights], [b.copy() for b in mlp.biases]


def params_equal(mlp, snapshot):
    ws, bs = snapshot
    return all(np.array_equal(a, b) for a, b in zip(mlp.weights, ws)) and all(
        np.array_equal(a, b) for a, b in zip(mlp.biases, bs)
    )


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_corruption_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        CorruptionSpec(-0.1)


def test_corrupt_sigma_zero_is_identity():
    x = np.array([[0.2, 0.8], [0.5, 0.5]])
    out = corrupt(x, CorruptionSpec(0.0), Prng(0))
    assert np.array_equal(out, x)


def test_corrupt_same_seed_same_noise():
    x = np.full((4, 3), 0.5)
    a = corrupt(x, CorruptionSpec(0.5), Prng(42))
    b = corrupt(x, CorruptionSpec(0.5), Prng(42))
    assert np.array_equal(a, b)
    c = corrupt(x, CorruptionSpec(0.5), Prng(43))
    assert not np.array_equal(a, c)


def test_corrupt_is_unbiased():
    x = np.array([0.3, 0.7])
    noisy = corrupt(np.tile(x, (100_000, 1)), CorruptionSpec(0.5), Prng(7))
    assert np.all(np.abs(noisy.mean(axis=0) - x) < 0.01)


def test_corrupt_leaves_range_unclamped():
    x = np.full((1000, 1), 0.5)
    noisy = corrupt(x, CorruptionSpec(0.5), Prng(3))
    assert noisy.min() < 0.0 and noisy.max() > 1.0


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def test_build_model_shapes():
    dae = build_model("dae", 1, 2, Prng(0), hidden=(8, 8))
    assert dae.encoder.spec.layer_sizes == (1, 8, 8, 2)
    assert dae.decoder.spec.layer_sizes == (2, 8, 8, 1)
    assert dae.decoder.spec.output_activation == "sigmoid"
    assert dae.data_dim == 1 and dae.latent_dim == 2

    dvae = build_model("dvae", 3, 2, Prng(0), hidden=(16,))
    assert dvae.encoder.spec.out_dim == 4
    assert dvae.decoder.spec.layer_sizes == (2, 16, 3)

    daae = build_model("daae", 1, 2, Prng(0), hidden=(8,), disc_hidden=(32, 32))
    assert daae.discriminator.spec.layer_sizes == (2, 32, 32, 1)
    assert daae.discriminator.spec.hidden_activation == "leaky_relu"
    assert daae.discriminator.spec.output_activation == "sigmoid"


def test_build_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_model("vae", 1, 2, Prng(0))


def test_model_dimension_invariants():
    enc = build_model("dae", 1, 2, Prng(0)).encoder
    bad_dec = build_model("dae", 1, 3, Prng(0)).decoder
    with pytest.raises(ShapeError):
        Autoencoder("dae", enc, bad_dec, CorruptionSpec(0.5))
    good = build_model("daae", 1, 2, Prng(0))
    wrong_disc = build_model("daae", 1, 3, Prng(0)).discriminator
    with pytest.raises(ShapeError):
        Autoencoder("daae", good.encoder, good.decoder, CorruptionSpec(0.5), wrong_disc)


def test_autoencoder_kind_invariants():
    dae, daae = build_model("dae", 1, 2, Prng(0)), build_model("daae", 1, 2, Prng(0))
    assert dae.dropout_rate == 0.0 and daae.dropout_rate == 0.2
    assert dae.networks == [dae.encoder, dae.decoder]
    assert daae.networks == [daae.encoder, daae.decoder, daae.discriminator]
    sigma = CorruptionSpec(0.5)
    with pytest.raises(ValueError, match="model kind"):
        Autoencoder("vae", dae.encoder, dae.decoder, sigma)
    with pytest.raises(ValueError, match="discriminator"):
        Autoencoder("daae", daae.encoder, daae.decoder, sigma)
    with pytest.raises(ValueError, match="discriminator"):
        Autoencoder("dae", daae.encoder, daae.decoder, sigma, daae.discriminator)
    with pytest.raises(ValueError, match="dropout"):
        Autoencoder("dae", dae.encoder, dae.decoder, sigma, dropout_rate=0.2)
    with pytest.raises(ShapeError):
        Autoencoder("dvae", dae.encoder, dae.decoder, sigma)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="huber")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(regularizer_weight=-1.0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_stays_in_unit_interval():
    model = build_model("dae", 2, 2, Prng(5))
    x = np.array([[-5.0, 7.0], [0.5, 0.5], [100.0, -100.0]])
    r = reconstruct(model, x)
    assert np.all((r > 0.0) & (r < 1.0))


def test_reconstruct_is_deterministic_and_nonconstant():
    model = build_model("daae", 1, 2, Prng(5))
    a = reconstruct(model, np.array([[0.2], [0.9]]))
    b = reconstruct(model, np.array([[0.2], [0.9]]))
    assert np.array_equal(a, b)
    assert a[0, 0] != a[1, 0]


def test_reconstruct_single_vector_keeps_shape():
    model = build_model("dae", 3, 2, Prng(1))
    out = reconstruct(model, np.array([0.1, 0.5, 0.9]))
    assert out.shape == (3,)


def test_reconstruct_rejects_wrong_dim():
    model = build_model("dae", 3, 2, Prng(1))
    with pytest.raises(ShapeError):
        reconstruct(model, np.array([[0.1, 0.5]]))


def test_dvae_reconstruction_uses_posterior_mean():
    model = build_model("dvae", 1, 2, Prng(2))
    x = np.array([[0.3], [0.8]])
    h, _ = mlp_forward(model.encoder, x)
    want = decode_latent(model, h[:, :2])
    assert np.array_equal(reconstruct(model, x), want)


def test_encode_decode_shapes():
    model = build_model("dvae", 2, 3, Prng(2))
    assert reconstruct(model, np.array([0.5, 0.5])).shape == (2,)
    assert decode_latent(model, np.zeros(3)).shape == (2,)
    with pytest.raises(ShapeError):
        decode_latent(model, np.zeros(4))


# ---------------------------------------------------------------------------
# blocked inference
# ---------------------------------------------------------------------------

def unblocked(model, x):
    """The eval composition without row blocks: encoder, slice, decoder."""
    h, _ = mlp_forward(model.encoder, x)
    z = h[:, : model.latent_dim]
    r, _ = mlp_forward(model.decoder, z)
    return z, r


# Under two blocks (2048 rows) inference is one BLAS call per layer, as in
# mlp_forward, and 100000 rows (the benchmark's batch) also match exactly.
EXACT_ROWS = (0, 1, 2, 3, 17, 18, 19, 100, 600, 601, 1023, 1024, 1025, 1500, 2047, 100_000)
# At 2 BLAS threads the 64->1 head splits rows differently when a block's
# row count is not a multiple of 4, so the last bits may move (up to 48 ulp
# seen); the unblocked output itself differs between 1 and 2 threads there.
CLOSE_ROWS = (2049, 3077, 10_001, 65_537)


@pytest.mark.parametrize("d", [1, 64])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_blocked_inference_matches_unblocked_composition(kind, d):
    model = build_model(kind, d, 2, Prng(3))
    # the two largest batches run at the benchmark's d = 1 only, for time
    sizes = [n for n in EXACT_ROWS + CLOSE_ROWS if d == 1 or n <= 10_001]
    points = np.random.default_rng(d).random((max(sizes), d)) * 1.4 - 0.2
    for n in sizes:
        x = points[:n]
        z, r = unblocked(model, x)
        for have, want in [(decode_latent(model, z), r), (reconstruct(model, x), r)]:
            assert have.shape == want.shape
            if n in EXACT_ROWS:
                assert np.array_equal(have, want), (kind, d, n)
            else:
                np.testing.assert_allclose(have, want, rtol=1e-12, atol=0)


def test_blocked_inference_honours_leaky_layers_and_identity_heads():
    spec = MlpSpec((3, 16, 16, 2), "leaky_relu", "identity", leaky_slope=0.1)
    mlp = init_mlp(spec, Prng(4))
    x = np.random.default_rng(4).standard_normal((1500, 3))
    bufs = [np.empty((x.shape[0], w)) for w in spec.layer_sizes[1:]]
    want, _ = mlp_forward(mlp, x)
    assert np.array_equal(_forward(mlp, x, bufs), want)

    decoder = init_mlp(MlpSpec((2, 16, 3), "leaky_relu", "identity"), Prng(5))
    model = Autoencoder("dae", mlp, decoder, CorruptionSpec(0.1))
    _, r = unblocked(model, x)
    assert np.array_equal(reconstruct(model, x), r)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_single_point_inference_equals_its_one_row_batch(kind):
    model = build_model(kind, 3, 2, Prng(6))
    x = np.array([0.1, 0.5, 0.9])
    z = unblocked(model, x[None, :])[0][0]
    r = reconstruct(model, x)
    assert r.shape == (3,)
    assert np.array_equal(r, reconstruct(model, x[None, :])[0])
    assert np.array_equal(decode_latent(model, z), decode_latent(model, z[None, :])[0])


def blockwise(stages, x):
    """Inference written out block by block, with the blocks' edges: each
    layer h @ w.T into a buffer, then + b, and relu, or the head's sigmoid."""
    n, size = len(x), models._BLOCK_ROWS
    edges = [size * i for i in range(max(n // size, 1))] + [n]
    out = []
    for start, stop in zip(edges, edges[1:]):
        h = x[start:stop]
        for mlp, keep in stages:
            last = len(mlp.weights) - 1
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                z = np.empty((len(h), w.shape[0]))
                np.matmul(h, w.T, out=z)
                z = z + b
                if i < last:
                    h = np.maximum(z, 0.0)
                else:
                    h = sigmoid(z) if mlp.spec.output_activation == "sigmoid" else z
            h = h[:, :keep]
        out.append(h)
    return np.concatenate(out)


@pytest.mark.parametrize("bufsize", [4096, None, 65536])
@pytest.mark.parametrize("d, hidden, latent", [(1, (48, 96), 3), (64, (64, 64), 2)])
def test_multi_block_inference_has_the_bytes_of_the_block_loop(d, hidden, latent, bufsize):
    # bias tiles are sized by the ufunc buffer, so each buffer size leaves
    # other remainders of whole tiles in the blocks of these batches
    model = build_model("dae", d, latent, Prng(8), hidden=hidden)
    gen = np.random.default_rng(d)
    for mlp in model.networks:
        for b in mlp.biases:  # nonzero biases, so a misplaced tile shows
            b[...] = 0.1 * gen.standard_normal(b.shape)
    encode = [(model.encoder, latent)]
    decode = [(model.decoder, d)]
    old = np.setbufsize(bufsize or np.getbufsize())
    try:
        for n in (2048, 2049, 5000):
            x = gen.random((n, d)) * 1.4 - 0.2
            z = gen.standard_normal((n, latent))
            assert reconstruct(model, x).tobytes() == blockwise(encode + decode, x).tobytes()
            assert decode_latent(model, z).tobytes() == blockwise(decode, z).tobytes()
    finally:
        np.setbufsize(old)


def test_reconstruct_peak_memory_does_not_grow_with_the_batch():
    # 1e5 x 64 float64 is 51 MB per layer; caching every layer peaked at 210 MB
    model = build_model("dae", 1, 2, Prng(0))
    x = np.random.default_rng(0).random((100_000, 1))
    tracemalloc.start()
    try:
        reconstruct(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_reconstruct_runs_in_two_workspaces():
    # two ping-pong workspaces of 1696 x 64 (the last block, widest layer),
    # the output and the bias tiles come to ~2.8 MB (~2.6 MB before the
    # tiles); a buffer per layer came to ~4.4 MB
    model = build_model("dae", 1, 2, Prng(0))
    x = np.random.default_rng(0).random((100_000, 1))
    tracemalloc.start()
    try:
        reconstruct(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


# ---------------------------------------------------------------------------
# single training steps
# ---------------------------------------------------------------------------

def test_daae_step_reuses_its_workspaces():
    # after a warm-up step a batch-100 DAAE step peaks at ~106 kB, mostly a
    # dropout draw's 100 x 64 uniforms (~161 kB while the draw was scaled
    # into new arrays); with new activations, masks, gradient vectors and
    # Adam temporaries on every step it peaked at ~1.56 MB
    model = build_model("daae", 1, 2, Prng(0))
    cfg = TrainConfig(epochs=1)
    opt = init_opt_states(model, cfg)
    x, rng = mixture_data(100), Prng(1)
    daae_train_step(model, x, cfg, rng, opt)
    tracemalloc.start()
    try:
        daae_train_step(model, x, cfg, rng, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3e6


def test_dae_step_changes_parameters_and_counts():
    cfg = TrainConfig(epochs=1, batch_size=8)
    model = build_model("dae", 1, 2, Prng(0), sigma=0.1)
    opt = init_opt_states(model, cfg)
    before = clone_params(model.encoder)
    loss = dae_train_step(model, mixture_data(8), cfg, Prng(1), opt)["loss"]
    assert np.isfinite(loss) and loss > 0.0
    assert not params_equal(model.encoder, before)
    assert opt.encoder.t == 1 and opt.decoder.t == 1


def test_dae_step_sigma_zero_is_plain_autoencoder():
    cfg = TrainConfig(loss_kind="bce", epochs=1, batch_size=8)
    model = build_model("dae", 1, 2, Prng(0), sigma=0.0)
    batch = mixture_data(8)
    z, _ = mlp_forward(model.encoder, batch)
    r, _ = mlp_forward(model.decoder, z)
    want = bce_loss(batch, r).value
    got = dae_train_step(model, batch, cfg, Prng(1), init_opt_states(model, cfg))
    assert got == {"loss": want}


def test_dae_step_raises_on_nonfinite_loss():
    cfg = TrainConfig(epochs=1, batch_size=4)
    model = build_model("dae", 1, 2, Prng(0), sigma=0.1)
    model.decoder.weights[0][:] = np.nan
    with pytest.raises(NumericError):
        dae_train_step(model, mixture_data(4), cfg, Prng(1), init_opt_states(model, cfg))


def test_dvae_step_kl_nonnegative_over_training():
    cfg = TrainConfig(epochs=1, batch_size=32, alpha=1e-3)
    model = build_model("dvae", 1, 2, Prng(4), hidden=(16, 16), sigma=0.1)
    opt = init_opt_states(model, cfg)
    rng = Prng(9)
    data = mixture_data(320, seed=2)
    for start in range(0, 320, 32):
        row = dvae_train_step(model, data[start : start + 32], cfg, rng, opt)
        assert row["kl"] >= 0.0
        assert np.isfinite(row["loss"])


def test_dvae_step_gradient_signs_match_finite_differences():
    # Adam's first update moves each parameter by about -alpha * sign(grad),
    # which lets the reparameterized backward pass be checked against finite
    # differences of the objective with the noise draws held fixed.
    cfg = TrainConfig(loss_kind="bce", epochs=1, batch_size=6, regularizer_weight=1.0)
    model = build_model("dvae", 1, 1, Prng(3), hidden=(4,), sigma=0.1)
    batch = mixture_data(6, seed=8)

    probe = Prng(11)
    x_noisy = corrupt(batch, model.corruption, probe)
    eta = probe.normal((6, 1), 1.0)

    def objective():
        h, _ = mlp_forward(model.encoder, x_noisy)
        mu, logvar = h[:, :1], h[:, 1:]
        z = mu + np.exp(0.5 * logvar) * eta
        r, _ = mlp_forward(model.decoder, z)
        return bce_loss(batch, r).value + kl_to_standard_normal(mu, logvar).value

    fd = []
    h_step = 1e-6
    for w in model.encoder.weights + model.encoder.biases:
        g = np.zeros_like(w)
        flat, gflat = w.reshape(-1), g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h_step
            up = objective()
            flat[j] = orig - h_step
            down = objective()
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h_step)
        fd.append(g)

    before = clone_params(model.encoder)
    dvae_train_step(model, batch, cfg, Prng(11), init_opt_states(model, cfg))
    after = model.encoder.weights + model.encoder.biases
    for prev, now, g in zip(before[0] + before[1], after, fd):
        delta = now - prev
        big = np.abs(g) > 1e-5
        assert np.all(np.sign(delta[big]) == -np.sign(g[big]))


def test_daae_step_counts_one_update_per_phase():
    cfg = TrainConfig(epochs=1, batch_size=16)
    model = build_model("daae", 1, 2, Prng(0), sigma=0.1)
    opt = init_opt_states(model, cfg)
    row = daae_train_step(model, mixture_data(16), cfg, Prng(1), opt)
    assert all(np.isfinite(value) for value in row.values())
    assert opt.decoder.t == 1
    assert opt.discriminator.t == 1
    assert opt.encoder.t == 2  # phase 1 and phase 3 both touch the encoder


def test_daae_step_runs_the_encoder_once_per_encoder_update(monkeypatch):
    model = build_model("daae", 1, 2, Prng(0), sigma=0.1)
    cfg = TrainConfig(epochs=1, batch_size=16)
    opt = init_opt_states(model, cfg)
    calls = []

    def counted(mlp, *args, **kwargs):
        calls.append(next(n for n in ("encoder", "decoder", "discriminator")
                          if getattr(model, n) is mlp))
        return mlp_forward(mlp, *args, **kwargs)

    monkeypatch.setattr("daechain.models.mlp_forward", counted)
    daae_train_step(model, mixture_data(16), cfg, Prng(1), opt)
    assert sorted(calls) == ["decoder"] + ["discriminator"] * 3 + ["encoder"] * 2


def test_daae_step_fixed_seed_reproduces_trajectory():
    cfg = TrainConfig(epochs=1, batch_size=16)
    data = mixture_data(64)
    results = []
    for _ in range(2):
        model = build_model("daae", 1, 2, Prng(0), sigma=0.1)
        opt = init_opt_states(model, cfg)
        rng = Prng(21)
        losses = [daae_train_step(model, data[i : i + 16], cfg, rng, opt) for i in range(0, 64, 16)]
        results.append((losses, clone_params(model.encoder), clone_params(model.discriminator)))
    assert results[0][0] == results[1][0]
    for a, b in zip(results[0][1][0], results[1][1][0]):
        assert np.array_equal(a, b)
    for a, b in zip(results[0][2][0], results[1][2][0]):
        assert np.array_equal(a, b)


def test_daae_phase_one_learns_under_frozen_discriminator():
    cfg = TrainConfig(loss_kind="bce", epochs=1, batch_size=100, alpha=1e-3)
    model = build_model("daae", 1, 2, Prng(6), sigma=0.1)
    opt = init_opt_states(model, cfg)
    opt.discriminator.alpha = 0.0  # freeze: updates scale to zero
    disc_before = clone_params(model.discriminator)
    data = mixture_data(2000, seed=3)
    rng = Prng(13)
    losses = []
    for step in range(200):
        start = (step * 100) % 2000
        losses.append(daae_train_step(model, data[start : start + 100], cfg, rng, opt)["loss"])
    assert params_equal(model.discriminator, disc_before)
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def test_train_rejects_bad_datasets():
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        train("dae", np.zeros((0, 1)), cfg)
    with pytest.raises(ValueError):
        train("dae", np.array([0.5, 0.5]), cfg)
    with pytest.raises(ValueError):
        train("dae", np.array([[1.5]]), cfg)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        train("dae", np.array([[0.5], [np.nan]]), cfg)


def test_train_trace_shape_and_keys():
    data = mixture_data(200)
    cfg = TrainConfig(epochs=3, batch_size=50)
    _, trace = train("dvae", data, cfg, sigma=0.1)
    assert len(trace) == 3
    assert [row["epoch"] for row in trace] == [0, 1, 2]
    assert set(trace[0]) == {"epoch", "loss", "kl"}
    _, trace = train("daae", data, cfg, sigma=0.1)
    assert set(trace[0]) == {"epoch", "loss", "disc", "enc"}


@pytest.mark.parametrize(
    "kind,keys", [("dae", ["loss"]), ("dvae", ["loss", "kl"]), ("daae", ["loss", "disc", "enc"])]
)
def test_each_step_returns_its_trace_row(kind, keys):
    cfg = TrainConfig(epochs=1, batch_size=16)
    model = build_model(kind, 1, 2, Prng(0), sigma=0.1)
    step = getattr(models, f"{kind}_train_step")
    row = step(model, mixture_data(16), cfg, Prng(1), init_opt_states(model, cfg))
    assert list(row) == keys and all(isinstance(value, float) for value in row.values())


@pytest.mark.parametrize("kind", ["dae", "dvae", "daae"])
def test_train_calls_each_step_through_its_module_attribute(kind, monkeypatch):
    # perfbench traces the steps by wrapping these attributes
    name, calls = f"{kind}_train_step", []
    step = getattr(models, name)

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(models, name, counted)
    train(kind, mixture_data(130), TrainConfig(epochs=1, batch_size=50), sigma=0.1)
    assert len(calls) == math.ceil(130 / 50)


def test_train_single_epoch_single_batch_matches_manual_step():
    data = mixture_data(64)
    cfg = TrainConfig(loss_kind="bce", epochs=1, batch_size=64, seed=17)
    trained, trace = train("dae", data, cfg, latent_dim=2, hidden=(8, 8), sigma=0.1)

    rng = Prng(17)
    manual = build_model("dae", 1, 2, rng, hidden=(8, 8), sigma=0.1)
    opt = init_opt_states(manual, cfg)
    order = rng.permutation(64)
    loss = dae_train_step(manual, data[order], cfg, rng, opt)["loss"]

    assert opt.encoder.t == 1
    assert trace == [{"epoch": 0, "loss": loss}]
    for a, b in zip(trained.encoder.weights + trained.decoder.weights,
                    manual.encoder.weights + manual.decoder.weights):
        assert np.array_equal(a, b)


def test_train_is_bitwise_deterministic():
    data = mixture_data(500)
    cfg = TrainConfig(epochs=4, batch_size=100, seed=5)
    m1, t1 = train("dae", data, cfg, sigma=0.1)
    m2, t2 = train("dae", data, cfg, sigma=0.1)
    assert t1 == t2
    for a, b in zip(m1.encoder.weights + m1.decoder.weights,
                    m2.encoder.weights + m2.decoder.weights):
        assert np.array_equal(a, b)


# (kind, loss, latent, data dim, dropout): every kind x loss; latent 1, where
# the decoder's and the discriminator's input layers have fan-in 1 (as the
# encoder's does on 1-D data); 3-D data; the DAAE with and without dropout
REFERENCE_FITS = [(kind, loss, 2, 1, 0.2) for kind in MODEL_KINDS for loss in LOSS_KINDS] + [
    (kind, loss, latent, d, 0.2)
    for kind in MODEL_KINDS
    for loss, latent, d in (("bce", 1, 1), ("mse", 1, 3), ("bce", 2, 3))
] + [("daae", "bce", 1, 3, 0.0), ("daae", "mse", 2, 1, 0.5)]


@pytest.mark.parametrize("kind,loss,latent,d,dropout", REFERENCE_FITS)
def test_fits_match_the_reference_training_byte_for_byte(kind, loss, latent, d, dropout):
    # 250 rows in batches of 100: every epoch ends on a short batch of 50
    data = np.random.default_rng(d).random((250, d))
    cfg = TrainConfig(loss_kind=loss, epochs=2, batch_size=100, seed=latent + 7)
    kwargs = dict(latent_dim=latent, hidden=(64, 64), sigma=0.5, dropout_rate=dropout)
    model, trace = train(kind, data, cfg, **kwargs)
    want_model, want_trace = reference_training.train(kind, data, cfg, **kwargs)
    assert repr(trace) == repr(want_trace)
    for have, want in zip(model.networks, want_model.networks, strict=True):
        assert have.flat.tobytes() == want.flat.tobytes()


def test_train_reduces_loss_on_mixture_data():
    data = mixture_data(2000)
    cfg = TrainConfig(loss_kind="bce", epochs=10, batch_size=100, seed=3)
    _, trace = train("dae", data, cfg, sigma=0.1)
    assert trace[-1]["loss"] < 0.98 * trace[0]["loss"]


def test_trained_dae_beats_identity_denoising():
    data = mixture_data(2000)
    cfg = TrainConfig(loss_kind="bce", epochs=10, batch_size=100, seed=3)
    model, _ = train("dae", data, cfg, sigma=0.1)
    held = mixture_data(1000, seed=5)
    noisy = corrupt(held, model.corruption, Prng(77))
    model_err = np.linalg.norm(reconstruct(model, noisy) - held, axis=1).mean()
    identity_err = np.linalg.norm(noisy - held, axis=1).mean()
    assert model_err < identity_err


def test_bce_and_mse_models_reconstruct_alike():
    # both losses share the same population optimum, so two runs that differ
    # only in loss_kind should land on nearby reconstruction maps
    data = mixture_data(2000)
    grid = np.linspace(0.25, 0.75, 50)[:, None]
    kwargs = dict(latent_dim=2, hidden=(64, 64), sigma=0.1)
    bce, _ = train("dae", data, TrainConfig("bce", epochs=10, batch_size=100, seed=3), **kwargs)
    mse, _ = train("dae", data, TrainConfig("mse", epochs=10, batch_size=100, seed=3), **kwargs)
    assert np.abs(reconstruct(bce, grid) - reconstruct(mse, grid)).max() <= 0.05


def test_trained_dvae_regularizes_the_posterior():
    data = mixture_data(2000)
    cfg = TrainConfig(loss_kind="bce", epochs=10, batch_size=100, seed=3)
    model, trace = train("dvae", data, cfg, sigma=0.1)
    h, _ = mlp_forward(model.encoder, data)
    aggregate_mu = h[:, : model.latent_dim].mean(axis=0)
    assert trace[-1]["kl"] < trace[0]["kl"] or np.all(np.abs(aggregate_mu) < 0.5)
