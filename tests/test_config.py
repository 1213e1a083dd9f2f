"""Tests for the key=value run configuration layer."""

import dataclasses
import inspect
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daechain import config
from daechain.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    chain_config_from_config,
    dataset_spec_from_config,
    load_config,
    parse_config,
    train_config_from_config,
)
from daechain.datasets import DatasetSpec
from daechain.models import TrainConfig, build_model, train
from daechain.nn import init_adam
from daechain.sampler import ChainConfig


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_blank_lines_and_comments_ignored(self):
        text = "\n# a comment\n   \nepochs = 3  # trailing note\n"
        cfg = parse_config(text)
        assert cfg.epochs == 3
        assert cfg.loss == "bce"

    def test_all_value_shapes(self):
        text = """
        model = dvae
        loss = mse
        sigma = 0.25
        hidden = 32, 16
        mixture_weights = 0.3, 0.7
        mixture_means = 0.3,0.4 ; 0.7,0.6
        mixture_variances = 0.001,0.002 ; 0.003,0.004
        check_sigmas = 0.2, 0.1
        idx_path = data/train.idx
        """
        cfg = parse_config(text)
        assert cfg.model == "dvae"
        assert cfg.loss == "mse"
        assert cfg.sigma == 0.25
        assert cfg.hidden == (32, 16)
        assert cfg.mixture_weights == (0.3, 0.7)
        assert cfg.mixture_means == ((0.3, 0.4), (0.7, 0.6))
        assert cfg.mixture_variances == ((0.001, 0.002), (0.003, 0.004))
        assert cfg.check_sigmas == (0.2, 0.1)
        assert cfg.idx_path == "data/train.idx"

    def test_value_containing_equals_sign(self):
        # Only the first '=' splits; the rest stays in the value.
        assert parse_config("idx_path = dir=odd/name").idx_path == "dir=odd/name"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*unknown key"):
            parse_config("epochs = 1\n\nbogus = 2\n")

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*'epochs'"):
            parse_config("epochs = soon")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("epochs = 1\njust words\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            parse_config("epochs = 1\nepochs = 2\n")

    def test_bad_image_shape_rejected(self):
        # a row's image shape is its dataset's; no key sets another
        for text in ("8,8", "8,8,8", "-1,-1", ""):
            with pytest.raises(ConfigError, match="line 1: unknown key 'image_shape'"):
                parse_config(f"image_shape = {text}")

    def test_empty_mixture_means_rejected(self):
        # no component, and components of unequal dimension
        cases = {
            ";": "",
            "0.3,0.4;0.7": ": component 2 has 1 coordinates, component 1 has 2",
        }
        for text, reason in cases.items():
            with pytest.raises(ConfigError, match=f"line 1: bad value for 'mixture_means'{reason}"):
                parse_config(f"mixture_means = {text}")


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 41\n", encoding="utf-8")
        assert load_config(path).seed == 41


class TestApplyOverrides:
    def test_override_replaces_value(self):
        cfg = apply_overrides(RunConfig(), ["epochs=5", "loss=mse"])
        assert cfg.epochs == 5
        assert cfg.loss == "mse"

    def test_last_override_wins(self):
        assert apply_overrides(RunConfig(), ["seed=1", "seed=2"]).seed == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(RunConfig(), ["bogus=1"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(RunConfig(), ["epochs"])

    def test_original_config_untouched(self):
        base = RunConfig()
        apply_overrides(base, ["epochs=99"])
        assert base.epochs == 30


class TestDerivedObjects:
    def test_default_mixture(self):
        gm = dataset_spec_from_config(RunConfig()).mixture
        assert gm.n_components == 2
        assert gm.dim == 1
        assert np.array_equal(gm.means[:, 0], [0.35, 0.65])
        assert np.array_equal(gm.variances[:, 0], [0.0025, 0.0025])

    def test_two_dimensional_mixture(self):
        cfg = parse_config(
            "dataset = mixture2d\n"
            "mixture_weights = 0.5,0.5\n"
            "mixture_means = 0.3,0.3 ; 0.7,0.7\n"
            "mixture_variances = 0.0025,0.0025 ; 0.0025,0.0025\n"
        )
        spec = dataset_spec_from_config(cfg)
        assert spec.kind == "mixture2d"
        assert spec.mixture.dim == 2
        assert np.array_equal(spec.mixture.means, [[0.3, 0.3], [0.7, 0.7]])

    def test_dataset_spec_for_blobs_has_no_mixture(self):
        spec = dataset_spec_from_config(apply_overrides(RunConfig(), ["dataset=blobs8x8"]))
        assert spec.kind == "blobs8x8"
        assert spec.mixture is None

    def test_train_config_mapping(self):
        cfg = apply_overrides(
            RunConfig(),
            ["loss=mse", "epochs=7", "batch_size=25", "seed=3", "alpha=0.001"],
        )
        tc = train_config_from_config(cfg)
        assert tc.loss_kind == "mse"
        assert tc.epochs == 7
        assert tc.batch_size == 25
        assert tc.seed == 3
        assert tc.alpha == 0.001
        assert tc.beta1 == 0.5
        assert tc.beta2 == 0.999

    @pytest.mark.parametrize(
        "overrides, message",
        [(["model=foo"], "model must be one of"),
         (["model=dvae", "dropout=0.7"], "'dropout' applies only to model in ('daae',), not 'dvae'")],
        ids=["unknown-model", "unread-key"],
    )
    def test_train_config_rejects_unknown_model_and_unread_model_key(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            train_config_from_config(apply_overrides(RunConfig(), overrides))

    def test_chain_config_mapping(self):
        cfg = apply_overrides(
            RunConfig(), ["chain_steps=12", "inject_sigma=0.3", "record_every=4"]
        )
        cc = chain_config_from_config(cfg)
        assert cc.steps == 12
        assert cc.inject_sigma == 0.3
        assert cc.record_every == 4

    def test_defaults_are_the_library_defaults(self):
        cfg = RunConfig()
        assert train_config_from_config(cfg) == TrainConfig()
        assert chain_config_from_config(cfg) == ChainConfig()
        n_samples = inspect.signature(DatasetSpec).parameters["n_samples"].default
        assert dataset_spec_from_config(cfg).n_samples == n_samples
        # train() keeps latent_dim and passes the shape keywords on to build_model
        assert cfg.latent == inspect.signature(train).parameters["latent_dim"].default
        shape_defaults = inspect.signature(build_model).parameters
        for key, param in [("sigma", "sigma"), ("hidden", "hidden"),
                           ("disc_hidden", "disc_hidden"), ("dropout", "dropout_rate")]:
            assert getattr(cfg, key) == shape_defaults[param].default, key
        adam_defaults = inspect.signature(init_adam).parameters
        for key in ("alpha", "beta1", "beta2"):
            assert getattr(TrainConfig(), key) == adam_defaults[key].default, key

    def test_invalid_derived_values_surface_as_errors(self):
        cfg = apply_overrides(RunConfig(), ["chain_steps=0"])
        with pytest.raises(ValueError):
            chain_config_from_config(cfg)


# ---------------------------------------------------------------------------
# properties over random key subsets
# ---------------------------------------------------------------------------

_FIELDS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
_NAMES = sorted(_FIELDS)

_ints = st.integers(min_value=-(10**12), max_value=10**12)
_floats = st.floats(allow_nan=False, allow_infinity=False)
# Values are stripped and '#' starts a comment, so strings avoid both.
_strs = st.text(
    st.characters(codec="ascii", categories=("L", "N"), include_characters="._/=-"),
    max_size=12,
)


def _values_like(default):
    """Strategy for valid values of a field, read off its default."""
    if isinstance(default, tuple) and isinstance(default[0], tuple):
        # components of one mixture share their dimension
        point = st.integers(1, 3).map(lambda dim: st.tuples(*[_floats] * dim))
        return point.flatmap(lambda p: st.lists(p, min_size=1, max_size=3).map(tuple))
    if isinstance(default, tuple):
        scalars = _ints if isinstance(default[0], int) else _floats
        return st.lists(scalars, max_size=4).map(tuple)
    return {int: _ints, float: _floats, str: _strs}[type(default)]


def _render(value) -> str:
    """Config-file text for a value, written independently of the parser."""
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_render(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _assignments(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=len(_NAMES)))
    return {name: draw(_values_like(_FIELDS[name])) for name in names}


class TestConfigProperties:
    @given(_assignments())
    @settings(max_examples=150, deadline=None)
    def test_file_text_equals_overrides(self, values):
        lines = [f"{k}={_render(v)}" for k, v in values.items()]
        text = "\n".join(f"  {k} = {_render(v)}  # set" for k, v in values.items())
        cfg = parse_config(text)
        assert cfg == apply_overrides(RunConfig(), lines)
        # repr also tells 3 from 3.0
        assert repr(cfg) == repr(dataclasses.replace(RunConfig(), **values))

    @given(st.lists(st.sampled_from(_NAMES), unique=True, min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_rendered_defaults_parse_back(self, names):
        text = "\n".join(f"{name} = {_render(_FIELDS[name])}" for name in names)
        assert parse_config(text) == RunConfig()
        assert apply_overrides(RunConfig(), text.split("\n")) == RunConfig()

    @given(
        _assignments(),
        st.data(),
        st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True).filter(
            lambda k: k not in _FIELDS
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_unknown_or_duplicate_key_names_its_line(self, values, data, unknown):
        lines = [f"{k} = {_render(v)}" for k, v in values.items()]
        if values and data.draw(st.booleans(), label="duplicate"):
            first = data.draw(st.integers(0, len(lines) - 1), label="duplicated line")
            bad, what = lines[first], f"duplicate key {list(values)[first]!r}"
            at = data.draw(st.integers(first + 1, len(lines)), label="insert at")
        else:
            bad, what = f"{unknown} = 1", f"unknown key {unknown!r}"
            at = data.draw(st.integers(0, len(lines)), label="insert at")
        lines.insert(at, bad)
        with pytest.raises(ConfigError, match=f"^line {at + 1}: {re.escape(what)}$"):
            parse_config("\n".join(lines))
        with pytest.raises(ConfigError, match=f"^override '{unknown}=1': unknown key"):
            apply_overrides(RunConfig(), [f"{unknown}=1"])


def test_field_without_a_parser_fails_at_import():
    source = inspect.getsource(config)
    assert "    grid_cols: int = 16\n" in source
    module = types.ModuleType("daechain._config_copy")
    module.__package__ = "daechain"
    sys.modules[module.__name__] = module
    try:
        code = compile(source.replace("grid_cols: int", "grid_cols: complex"), "copy", "exec")
        with pytest.raises(KeyError, match="complex"):
            exec(code, module.__dict__)
    finally:
        del sys.modules[module.__name__]
