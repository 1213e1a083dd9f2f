"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv), so exit codes and artifact
bytes are checked without subprocesses; one test starts a fresh
interpreter to see what a refine run imports. Training setups are kept tiny;
statistical quality of the results is covered elsewhere.
"""

import os
import re
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from _oracles import read_pgm

import daechain
from daechain import cli
from daechain.cli import main
from daechain.io_formats import load_checkpoint

BASE_CONFIG = """
dataset = mixture1d
n_samples = 200
epochs = 2
batch_size = 50
hidden = 16
sigma = 0.1
seed = 0
chain_steps = 5
n_chains = 8
grid_points = 10
"""


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--config", config_path, "--set", f"out_dir={out}"])
    assert code == 0
    return out


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--frob"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_set(self, capsys):
        assert main(["train", "--set", "epochs"]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out


class TestRuntimeErrors:
    def test_unknown_config_key(self, capsys):
        assert main(["oracle-check", "--set", "bogus=1"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["oracle-check", "--config", "/no/such/file.cfg"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = soon\n", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["sample", "--set", f"out_dir={tmp_path}"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_model_kind(self, tmp_path, capsys):
        code = main(
            ["train", "--set", "model=vae", "--set", f"out_dir={tmp_path}",
             "--set", "epochs=1", "--set", "n_samples=50"]
        )
        assert code == 2


class TestTrain:
    def test_artifacts_and_summary(self, trained_dir, capsys):
        # The module fixture already ran the command; run again for output.
        code = main(
            ["train", "--set", f"out_dir={trained_dir}", "--set", "n_samples=200",
             "--set", "epochs=2", "--set", "batch_size=50", "--set", "hidden=16",
             "--set", "sigma=0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trained dae" in out
        assert "final loss" in out
        model = load_checkpoint(trained_dir / "model.ckpt")
        assert model.kind == "dae"
        assert model.data_dim == 1
        assert model.corruption.sigma == 0.1
        loss_lines = (trained_dir / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 1 + 2  # header + one row per epoch

    def test_checkpoint_name_override(self, config_path, tmp_path):
        code = main(
            ["train", "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", "checkpoint=other.ckpt", "--set", "epochs=1"]
        )
        assert code == 0
        assert (tmp_path / "other.ckpt").exists()


class TestOutDir:
    def test_empty_out_dir_is_the_working_directory(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", config_path, "--set", "out_dir="]) == 0
        assert "checkpoint model.ckpt" in capsys.readouterr().out
        assert main(["sample", "--config", config_path, "--set", "out_dir="]) == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert {"model.ckpt", "loss.csv", "sample_states.csv"} <= names
        assert {f"sample_step{t:04d}.pgm" for t in range(6)} <= names

    def test_reading_the_checkpoint_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sample", "--set", f"out_dir={out}"]) == 2
        assert "model.ckpt" in capsys.readouterr().err
        assert not out.exists()


class TestDaaeOnlyKeys:
    """dropout and disc_hidden shape the DAAE discriminator; other models have none.

    regularizer_weight, the DVAE's KL weight, is the one key of another kind
    that the same rule covers.
    """

    @pytest.mark.parametrize(
        "model, key, value",
        [("dae", "dropout", "0.7"), ("dvae", "disc_hidden", "8"),
         ("dae", "regularizer_weight", "0.5"), ("daae", "regularizer_weight", "0.5")],
    )
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, model, key, value):
        def no_data(*args):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(cli, "build_dataset", no_data)
        out = tmp_path / "run"
        code = main(
            ["train", "--set", f"model={model}", "--set", f"{key}={value}",
             "--set", f"out_dir={out}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, shown",
        [("epochs=0", "epochs"), ("batch_size=0", "batch_size"), ("model=foo", "'foo'"),
         ("loss=xx", "'xx'"), ("model=dvae regularizer_weight=-1", "regularizer_weight"),
         ("alpha=-1", "alpha"), ("beta1=1", "beta1"), ("beta2=1", "beta2"),
         ("sigma=-1", "sigma"), ("latent=0", "(1, 64, 64, 0)"), ("hidden=0", "(1, 0, 2)"),
         ("model=daae dropout=1.5", "dropout_rate"), ("model=daae disc_hidden=0", "(2, 0, 1)")],
    )
    def test_bad_train_setting_rejected_before_any_work(
        self, tmp_path, monkeypatch, capsys, settings, shown
    ):
        # TrainConfig's messages name the value or the field, not always the key;
        # MlpSpec's name the layer sizes
        def no_data(*args):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(cli, "build_dataset", no_data)
        out = tmp_path / "run"
        argv = ["train", "--set", f"out_dir={out}"]
        for setting in settings.split():
            argv += ["--set", setting]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and shown in err
        assert not out.exists()

    def test_daae_takes_dropout(self, config_path, tmp_path):
        code = main(
            ["train", "--config", config_path, "--set", "model=daae",
             "--set", "dropout=0.7", "--set", f"out_dir={tmp_path}"]
        )
        assert code == 0
        assert load_checkpoint(tmp_path / "model.ckpt").dropout_rate == 0.7

    @pytest.mark.parametrize("model", ["dae", "dvae"])
    def test_default_config_still_trains(self, tmp_path, model):
        code = main(
            ["train", "--set", f"model={model}", "--set", "epochs=1",
             "--set", f"out_dir={tmp_path}"]
        )
        assert code == 0
        assert (tmp_path / "model.ckpt").exists()


class TestDatasetOnlyKeys:
    """A dataset key that the chosen kind does not read is an error, as a model key is."""

    @pytest.mark.parametrize(
        "dataset, key, value",
        [
            ("blobs8x8", "mixture_means", "0.1;0.9"),
            ("mixture1d", "idx_path", "/nonexistent.idx"),
            ("idx_images", "n_samples", "7"),
        ],
    )
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, dataset, key, value):
        def no_data(*args):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(cli, "build_dataset", no_data)
        out = tmp_path / "run"
        code = main(
            ["train", "--set", f"dataset={dataset}", "--set", f"{key}={value}",
             "--set", "epochs=1", "--set", "n_samples=200", "--set", f"out_dir={out}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(key) in err
        assert not out.exists()


class TestChains:
    def test_sample_artifacts(self, config_path, trained_dir, capsys):
        code = main(["sample", "--config", config_path, "--set", f"out_dir={trained_dir}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sample: 8 chains, 5 steps" in out
        assert "mean log p" in out  # the 1-d mixture density is known
        lines = (trained_dir / "sample_states.csv").read_text().splitlines()
        assert lines[0] == "time,chain,x0,log_density"
        assert len(lines) == 1 + 6 * 8  # times 0..5, 8 chains each
        for t in range(6):
            assert (trained_dir / f"sample_step{t:04d}.pgm").exists()

    def test_sample_respects_record_every(self, config_path, trained_dir, tmp_path):
        code = main(
            ["sample", "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", f"checkpoint={trained_dir / 'model.ckpt'}",
             "--set", "record_every=5"]
        )
        assert code == 0
        assert (tmp_path / "sample_step0005.pgm").exists()
        assert not (tmp_path / "sample_step0003.pgm").exists()

    def test_refine_artifacts(self, config_path, trained_dir, capsys):
        code = main(["refine", "--config", config_path, "--set", f"out_dir={trained_dir}"])
        assert code == 0
        assert "refine: 8 chains" in capsys.readouterr().out
        lines = (trained_dir / "refine_states.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 8
        assert (trained_dir / "refine_step0000.pgm").exists()

    def test_refine_leaves_numpy_ma_unimported(self, config_path, trained_dir, tmp_path):
        # np.median imports numpy.ma (~10 ms of a run) for its NaN check; the
        # summary's median does without it. A fresh interpreter sees what a
        # refine run really loads.
        code = (
            "import sys; from daechain.cli import main; "
            f"code = main(['refine', '--config', {config_path!r}, "
            f"'--set', 'out_dir={tmp_path}', '--set', 'checkpoint={trained_dir / 'model.ckpt'}']); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(daechain.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "refine: 8 chains" in out.stdout
        assert out.stdout.splitlines()[-1] == "0 False"

    @pytest.mark.parametrize("values", [
        [0.5], [2.0, -1.0], [3.0, -1.0, 2.0, 0.25], [1.0, 4.0, -2.0, 0.5, 3.0],
        [-0.0, 0.0], [-np.inf, 1.0], [1.0, np.nan, 2.0], [1e308, 1e308],
    ])
    def test_summary_median_has_the_bits_of_np_median(self, values):
        a = np.array(values)
        with np.errstate(over="ignore"):
            got, want = cli._median(a), np.median(a)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("command", ["sample", "refine"])
    def test_bad_image_shape_fails_before_any_chain(
        self, config_path, trained_dir, tmp_path, capsys, command
    ):
        # the image shape is the dataset's own; no key sets another
        code = main(
            [command, "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", f"checkpoint={trained_dir / 'model.ckpt'}",
             "--set", "image_shape=8,8"]
        )
        assert code == 2
        assert "unknown key 'image_shape'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "key, message",
        [("grid_cols", "grid_cols must be >= 1, got 0"), ("n_chains", "n_chains must be >= 1, got 0")],
        ids=["grid_cols", "n_chains"],
    )
    @pytest.mark.parametrize("command", ["sample", "refine"])
    def test_grid_cols_below_one_fails_before_any_file(
        self, config_path, trained_dir, tmp_path, capsys, command, key, message
    ):
        code = main(
            [command, "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", f"checkpoint={trained_dir / 'model.ckpt'}",
             "--set", f"{key}=0"]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-2, 2**64 - 2])
    @pytest.mark.parametrize("command", ["train", "sample", "refine"])
    def test_seed_out_of_range_fails_before_any_file(
        self, config_path, trained_dir, tmp_path, capsys, command, seed
    ):
        # the dataset stream takes seed + 1 and the chain stream seed + 2
        argv = [command, "--config", config_path, "--set", f"out_dir={tmp_path}",
                "--set", f"seed={seed}"]
        if command != "train":
            argv += ["--set", f"checkpoint={trained_dir / 'model.ckpt'}"]
        code = main(argv)
        assert code == 2
        assert f"seed must be in [0, 2**64 - 3], got {seed}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_samples(self, config_path, trained_dir, tmp_path):
        code = main(
            ["sample", "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", f"checkpoint={trained_dir / 'model.ckpt'}",
             "--set", f"seed={2**64 - 3}"]
        )
        assert code == 0
        assert (tmp_path / "sample_states.csv").exists()

    def test_row_grid_for_flat_data(self, config_path, trained_dir):
        main(["sample", "--config", config_path, "--set", f"out_dir={trained_dir}"])
        canvas = read_pgm(trained_dir / "sample_step0000.pgm")
        # 8 one-pixel rows in one grid row of 8 columns with separators.
        assert canvas.shape == (1, 8 * 1 + 7)


@pytest.fixture(scope="module")
def blob_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("blobs")
    code = main(
        ["train", "--set", "dataset=blobs8x8", "--set", "n_samples=200", "--set", "epochs=1",
         "--set", f"out_dir={out}"]
    )
    assert code == 0
    return out / "model.ckpt"


def _exits_2_before_any_file(command, checkpoint, overrides, out, capsys) -> str:
    """Run command on checkpoint with overrides; assert exit 2 and an empty out; return stderr."""
    argv = [command, "--set", f"out_dir={out}", "--set", f"checkpoint={checkpoint}"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert list(out.iterdir()) == []
    return capsys.readouterr().err


class TestChainDatasetKeys:
    """Every command after train reads the dataset keys through the spec that train checks."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["dataset=bogus"], "dataset kind must be one of"),
            (["dataset=mixture2d"], "mixture2d needs a 2-dimensional mixture"),
            (["dataset=idx_images"], "idx_images needs idx_path"),
            (["dataset=blobs8x8", "n_samples=0"], "n_samples must be >= 1, got 0"),
        ],
        ids=["unknown-kind", "mixture-dim", "no-idx-path", "no-samples"],
    )
    @pytest.mark.parametrize("command", ["sample", "refine", "score-check", "oracle-check"])
    def test_bad_dataset_exits_2_before_any_file(
        self, trained_dir, tmp_path, capsys, command, overrides, message
    ):
        ckpt = trained_dir / "model.ckpt"
        assert message in _exits_2_before_any_file(command, ckpt, overrides, tmp_path, capsys)

    @pytest.mark.parametrize(
        "overrides",
        [["dataset=blobs8x8"], ["dataset=idx_images", "idx_path=images.idx"]],
        ids=["blobs8x8", "idx_images"],
    )
    @pytest.mark.parametrize("command", ["score-check", "oracle-check"])
    def test_kind_without_a_mixture_has_no_check(
        self, trained_dir, tmp_path, capsys, command, overrides
    ):
        ckpt = trained_dir / "model.ckpt"
        err = _exits_2_before_any_file(command, ckpt, overrides, tmp_path, capsys)
        kind = overrides[0].split("=")[1]
        assert (
            f"dataset {kind!r} has no ground-truth mixture; "
            "score-check and oracle-check need one of ('mixture1d', 'mixture2d')"
        ) in err

    @pytest.mark.parametrize("command", ["sample", "refine"])
    def test_checkpoint_of_another_dim_exits_2_before_any_file(
        self, blob_checkpoint, trained_dir, tmp_path, capsys, command
    ):
        # rows x cols of the dataset's image shape is the one data dim a checkpoint may have
        idx = tmp_path / "wide.idx"
        idx.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 5) + bytes(range(30)))
        mixture_checkpoint = trained_dir / "model.ckpt"
        cases = [
            (blob_checkpoint, [], "64, dataset 'mixture1d' has data dim 1"),
            (mixture_checkpoint, ["dataset=blobs8x8"], "1, dataset 'blobs8x8' has data dim 64"),
            (mixture_checkpoint, ["dataset=idx_images", f"idx_path={idx}"],
             "1, dataset 'idx_images' has data dim 15"),
        ]
        out = tmp_path / "out"
        out.mkdir()
        for ckpt, overrides, dims in cases:
            err = _exits_2_before_any_file(command, ckpt, overrides, out, capsys)
            assert f"checkpoint {ckpt} has data dim {dims}" in err


class TestScoreCheck:
    def test_summary_and_csv(self, config_path, trained_dir, capsys):
        code = main(["score-check", "--config", config_path, "--set", f"out_dir={trained_dir}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sign match" in out
        assert "pearson" in out
        lines = (trained_dir / "score.csv").read_text().splitlines()
        assert lines[0] == "x,estimated_score,analytic_score"
        assert len(lines) == 1 + 10

    def test_sigma_zero_checkpoint_exits_2(self, config_path, tmp_path, capsys):
        base = ["--config", config_path, "--set", f"out_dir={tmp_path}", "--set", "epochs=1"]
        assert main(["train", *base, "--set", "sigma=0"]) == 0
        capsys.readouterr()
        assert main(["score-check", *base]) == 2
        assert "sigma must be nonzero" in capsys.readouterr().err
        assert not (tmp_path / "score.csv").exists()

    def test_checkpoint_of_another_dim_exits_2_before_writing(self, tmp_path, capsys):
        base = ["--set", f"out_dir={tmp_path}"]
        train_args = ["--set", "dataset=blobs8x8", "--set", "epochs=1", "--set", "n_samples=200"]
        assert main(["train", *base, *train_args]) == 0
        capsys.readouterr()
        assert main(["score-check", *base]) == 2
        ckpt = re.escape(str(tmp_path / "model.ckpt"))
        err = capsys.readouterr().err
        assert re.search(f"checkpoint {ckpt} has data dim 64, dataset 'mixture1d' has data dim 1", err)
        assert not (tmp_path / "score.csv").exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda raw: b"X" + raw[1:], "bad magic in {ckpt}; not a checkpoint file"),
            (
                lambda raw: raw[:4] + struct.pack("<I", 7) + raw[8:],
                "checkpoint version 7 is not supported (expected 1)",
            ),
            (lambda raw: raw[:10], "checkpoint {ckpt} ends at byte 10, needed 30"),
            (
                lambda raw: raw[:-8] + struct.pack("<d", np.nan),
                "non-finite parameter nan at byte {last}",
            ),
        ],
        ids=["bad-magic", "version-7", "truncated-header", "nan-parameter"],
    )
    def test_corrupt_checkpoint_exits_2_before_writing(
        self, trained_dir, tmp_path, capsys, corrupt, message
    ):
        raw = (trained_dir / "model.ckpt").read_bytes()
        ckpt = tmp_path / "corrupt.ckpt"
        ckpt.write_bytes(corrupt(raw))
        out = tmp_path / "out"
        assert main(["score-check", "--set", f"out_dir={out}", "--set", f"checkpoint={ckpt}"]) == 2
        err = capsys.readouterr().err
        assert f"error: {message.format(ckpt=ckpt, last=len(raw) - 8)}\n" in err
        assert not (out / "score.csv").exists()

    def test_one_grid_point_exits_2_before_writing(self, config_path, trained_dir, tmp_path, capsys):
        # one point has no correlation: numpy would warn and print "pearson nan"
        code = main(
            ["score-check", "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", f"checkpoint={trained_dir / 'model.ckpt'}", "--set", "grid_points=1"]
        )
        assert code == 2
        assert "grid_points >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOracleCheck:
    def test_sigma_with_no_finite_smoothed_density_exits_2(self, tmp_path, capsys):
        # sigma^2 overflows, so every smoothed component log-density is -inf
        args = ["oracle-check", "--set", f"out_dir={tmp_path}", "--set", "check_sigmas=1e200"]
        assert main(args) == 2
        assert "no finite component log-density" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_empty_sigma_list_exits_2_naming_it(self, tmp_path, capsys):
        args = ["oracle-check", "--set", f"out_dir={tmp_path}", "--set", "check_sigmas="]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "sigmas is empty" in err
        assert "finite and positive" not in err
        assert not (tmp_path / "convergence.csv").exists()

    def test_sigma_whose_square_underflows_exits_2(self, tmp_path, capsys):
        args = ["oracle-check", "--set", f"out_dir={tmp_path}", "--set", "check_sigmas=1,1e-200"]
        assert main(args) == 2
        assert "sigma must be nonzero" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_single_gaussian_error_is_variance_ratio(self, tmp_path, capsys):
        code = main(
            ["oracle-check", "--set", f"out_dir={tmp_path}",
             "--set", "mixture_weights=1.0", "--set", "mixture_means=0.5",
             "--set", "mixture_variances=0.01", "--set", "check_sigmas=0.1,0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "non_increasing=True" in out
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "sigma,max_rel_error"
        rows = [line.split(",") for line in lines[1:]]
        errors = {float(s): float(e) for s, e in rows}
        # For one Gaussian the relative score error is sigma^2/(s^2+sigma^2).
        assert errors[0.1] == pytest.approx(0.01 / 0.02, abs=1e-9)
        assert errors[0.01] == pytest.approx(1e-4 / 0.0101, abs=1e-9)


class TestDeterminism:
    def run_all(self, config_path, out):
        for command in ("train", "sample", "refine"):
            code = main([command, "--config", config_path, "--set", f"out_dir={out}"])
            assert code == 0

    def test_repeated_runs_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.run_all(config_path, a)
        self.run_all(config_path, b)
        names = [
            "model.ckpt", "loss.csv",
            "sample_states.csv", "sample_step0003.pgm",
            "refine_states.csv", "refine_step0005.pgm",
        ]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_artifacts(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.run_all(config_path, a)
        for command in ("train", "sample"):
            main([command, "--config", config_path, "--set", f"out_dir={b}",
                  "--set", "seed=1"])
        assert (a / "model.ckpt").read_bytes() != (b / "model.ckpt").read_bytes()
        assert (
            a / "sample_states.csv"
        ).read_bytes() != (b / "sample_states.csv").read_bytes()


class TestIdxImagePath:
    def test_train_and_sample_from_idx_file(self, tmp_path, capsys):
        idx = tmp_path / "digits.idx"
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(40, 4), dtype=np.uint8)
        idx.write_bytes(struct.pack(">IIII", 0x00000803, 40, 2, 2) + pixels.tobytes())
        out = tmp_path / "out"
        code = main(
            ["train", "--set", "dataset=idx_images", "--set", f"idx_path={idx}",
             "--set", f"out_dir={out}", "--set", "epochs=1", "--set", "batch_size=20",
             "--set", "hidden=8", "--set", "sigma=0.1"]
        )
        assert code == 0
        code = main(
            ["sample", "--set", "dataset=idx_images", "--set", f"idx_path={idx}",
             "--set", f"out_dir={out}", "--set", "n_chains=2", "--set", "chain_steps=1",
             "--set", "grid_cols=16"]
        )
        assert code == 0
        assert "mean final step displacement" in capsys.readouterr().out
        canvas = read_pgm(out / "sample_step0000.pgm")
        # Two 2x2 tiles side by side with a separator column.
        assert canvas.shape == (2, 5)


class TestBlobImages:
    def test_samples_tile_as_8x8_images(self, tmp_path):
        common = ["--set", "dataset=blobs8x8", "--set", f"out_dir={tmp_path}"]
        assert main(["train", *common, "--set", "epochs=1", "--set", "n_samples=200"]) == 0
        assert main(["sample", *common, "--set", "n_chains=4", "--set", "chain_steps=1"]) == 0
        canvas = read_pgm(tmp_path / "sample_step0000.pgm")
        # Four 8x8 tiles side by side with one-pixel separator columns.
        assert canvas.shape == (8, 4 * 8 + 3)


def _exported_errors():
    return sorted(
        (obj for obj in vars(daechain).values()
         if isinstance(obj, type) and issubclass(obj, Exception)),
        key=lambda cls: cls.__name__,
    )


def test_exported_errors_are_the_five_error_types():
    assert [cls.__name__ for cls in _exported_errors()] == [
        "CheckpointError",
        "ConfigError",
        "IdxFormatError",
        "NumericError",
        "ShapeError",
    ]


def test_public_names_are_the_readme_python_api():
    # the bullets of README's "Python API" section name every public,
    # non-module name of the package; the count grows only with a capability
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    listed = set(re.findall(r"`(\w+)`", bullets))
    public = {
        name for name, obj in vars(daechain).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == listed
    assert len(public) == 29


@pytest.mark.parametrize("error", _exported_errors(), ids=lambda cls: cls.__name__)
def test_every_exported_error_exits_2(error, monkeypatch, capsys):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "oracle-check", fail)
    assert main(["oracle-check"]) == 2
    assert "error: boom" in capsys.readouterr().err
