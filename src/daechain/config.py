"""Flat key=value run configuration.

One `key = value` pair per line, UTF-8, '#' starts a comment, blank lines
ignored. Unknown or duplicate keys are rejected with the offending line
number, as are unparseable values. List values use commas between scalars
("hidden = 64,64"); mixture means and variances separate components with
';' and coordinates with ',' ("mixture_means = 0.3,0.4; 0.7,0.6").

The same keys can be overridden from the command line via repeated
`--set key=value` flags, applied after the file in the order given.
"""

import dataclasses
from dataclasses import dataclass

from .datasets import DRAWN_KINDS, GROUND_TRUTH_KINDS, DatasetSpec, ground_truth
from .models import MODEL_KINDS, TrainConfig
from .sampler import ChainConfig


class ConfigError(ValueError):
    """A configuration file or override that cannot be used."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the command-line surface, with defaults."""

    model: str = "dae"
    loss: str = "bce"
    sigma: float = 0.5
    latent: int = 2
    hidden: tuple[int, ...] = (64, 64)
    disc_hidden: tuple[int, ...] = (64, 64)
    dropout: float = 0.2
    epochs: int = 30
    batch_size: int = 100
    seed: int = 0
    regularizer_weight: float = 1.0
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    dataset: str = "mixture1d"
    n_samples: int = 10_000
    mixture_weights: tuple[float, ...] = (0.5, 0.5)
    mixture_means: tuple[tuple[float, ...], ...] = ((0.35,), (0.65,))
    mixture_variances: tuple[tuple[float, ...], ...] = ((0.0025,), (0.0025,))
    idx_path: str = ""
    chain_steps: int = 20
    inject_sigma: float = 0.0
    record_every: int = 1
    n_chains: int = 256
    check_sigmas: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01)
    grid_points: int = 10
    out_dir: str = "out"
    checkpoint: str = "model.ckpt"
    grid_cols: int = 16


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip(), 10) for tok in text.split(",") if tok.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_points(text: str) -> tuple[tuple[float, ...], ...]:
    points = [_parse_floats(part) for part in text.split(";") if part.strip()]
    if not points:
        raise ValueError("expected at least one ';'-separated component")
    dims = [len(point) for point in points]
    for i, dim in enumerate(dims[1:], start=2):
        if dim != dims[0]:
            raise ValueError(f"component {i} has {dim} coordinates, component 1 has {dims[0]}")
    return tuple(points)


# Each RunConfig field is parsed by the parser of its annotation; a field
# whose annotation has none fails here, at import.
_PARSE_BY_TYPE = {
    int: int,
    float: float,
    str: str,
    tuple[int, ...]: _parse_ints,
    tuple[float, ...]: _parse_floats,
    tuple[tuple[float, ...], ...]: _parse_points,
}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in dataclasses.fields(RunConfig)}


def _parse_pair(key: str, value: str, where: str) -> tuple[str, object]:
    key = key.strip()
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return key, _PARSERS[key](value.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig; errors carry the line number."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, parsed = _parse_pair(key, value, f"line {lineno}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = parsed
    return RunConfig(**seen)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply 'key=value' strings on top of a RunConfig, in order."""
    updates = {}
    for text in overrides:
        if "=" not in text:
            raise ConfigError(f"override {text!r}: expected key=value")
        key, value = text.split("=", 1)
        key, parsed = _parse_pair(key, value, f"override {text!r}")
        updates[key] = parsed
    return dataclasses.replace(cfg, **updates)


# ---------------------------------------------------------------------------
# derived objects
# ---------------------------------------------------------------------------

def _check_kind_keys(cfg: RunConfig, kind_key: str, pairs) -> None:
    """Raise if the key of a (key, kinds that read it) pair is off its default for another kind."""
    kind = getattr(cfg, kind_key)
    for key, kinds in pairs:
        if kind not in kinds and getattr(cfg, key) != getattr(RunConfig(), key):
            raise ConfigError(f"{key!r} applies only to {kind_key} in {kinds}, not {kind!r}")


def dataset_spec_from_config(cfg: RunConfig) -> DatasetSpec:
    """The dataset spec; a mixture key set for a kind with no ground truth, or
    n_samples for a kind that reads a file, is an error. DatasetSpec cannot
    tell a given n_samples from its default, so the check is here."""
    mixture = ground_truth(
        cfg.dataset, cfg.mixture_weights, cfg.mixture_means, cfg.mixture_variances
    )
    mixture_keys = ("mixture_weights", "mixture_means", "mixture_variances")
    pairs = [(key, GROUND_TRUTH_KINDS) for key in mixture_keys] + [("n_samples", DRAWN_KINDS)]
    _check_kind_keys(cfg, "dataset", pairs)
    return DatasetSpec(cfg.dataset, cfg.n_samples, mixture, cfg.idx_path or None)


def train_config_from_config(cfg: RunConfig) -> TrainConfig:
    """TrainConfig's fields by their names and loss as loss_kind; an unknown
    model, or a key set that the model does not read, is an error."""
    if cfg.model not in MODEL_KINDS:
        raise ConfigError(f"model must be one of {MODEL_KINDS}, got {cfg.model!r}")
    pairs = (("dropout", ("daae",)), ("disc_hidden", ("daae",)), ("regularizer_weight", ("dvae",)))
    _check_kind_keys(cfg, "model", pairs)
    names = [f.name for f in dataclasses.fields(TrainConfig) if f.name != "loss_kind"]
    return TrainConfig(loss_kind=cfg.loss, **{name: getattr(cfg, name) for name in names})


def chain_config_from_config(cfg: RunConfig) -> ChainConfig:
    return ChainConfig(cfg.chain_steps, cfg.inject_sigma, cfg.record_every)
