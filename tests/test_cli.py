"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv), so exit codes and artifact
bytes are checked without subprocesses. Training setups are kept tiny;
statistical quality of the results is covered elsewhere.
"""

import re
import struct
import types
from pathlib import Path

import numpy as np
import pytest

import daechain
from daechain import cli
from daechain.cli import main
from daechain.io_formats import load_checkpoint, read_pgm

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


class TestDaaeOnlyKeys:
    """dropout and disc_hidden shape the DAAE discriminator; other models have none."""

    @pytest.mark.parametrize(
        "model, key, value", [("dae", "dropout", "0.7"), ("dvae", "disc_hidden", "8")]
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

    @pytest.mark.parametrize("command", ["sample", "refine"])
    def test_bad_image_shape_fails_before_any_chain(
        self, config_path, trained_dir, tmp_path, capsys, command
    ):
        code = main(
            [command, "--config", config_path, "--set", f"out_dir={tmp_path}",
             "--set", f"checkpoint={trained_dir / 'model.ckpt'}",
             "--set", "image_shape=2,3"]
        )
        assert code == 2
        assert "image_shape 2,3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_row_grid_for_flat_data(self, config_path, trained_dir):
        main(["sample", "--config", config_path, "--set", f"out_dir={trained_dir}"])
        canvas = read_pgm(trained_dir / "sample_step0000.pgm")
        # 8 one-pixel rows in one grid row of 8 columns with separators.
        assert canvas.shape == (1, 8 * 1 + 7)


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


class TestOracleCheck:
    def test_sigma_with_no_finite_smoothed_density_exits_2(self, tmp_path, capsys):
        # sigma^2 overflows, so every smoothed component log-density is -inf
        args = ["oracle-check", "--set", f"out_dir={tmp_path}", "--set", "check_sigmas=1e200"]
        assert main(args) == 2
        assert "no finite component log-density" in capsys.readouterr().err
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


def _exported_errors():
    return sorted(
        (obj for obj in vars(daechain).values()
         if isinstance(obj, type) and issubclass(obj, Exception)),
        key=lambda cls: cls.__name__,
    )


def test_exported_errors_are_the_eight_error_types():
    assert [cls.__name__ for cls in _exported_errors()] == [
        "CheckpointError",
        "CheckpointFormatError",
        "CheckpointTruncatedError",
        "CheckpointVersionError",
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
    assert len(public) == 32


@pytest.mark.parametrize("error", _exported_errors(), ids=lambda cls: cls.__name__)
def test_every_exported_error_exits_2(error, monkeypatch, capsys):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "oracle-check", fail)
    assert main(["oracle-check"]) == 2
    assert "error: boom" in capsys.readouterr().err
