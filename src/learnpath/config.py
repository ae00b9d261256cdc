"""Flat key = value experiment configs.

One file configures one run of one subcommand. Lines look like

    kind = correlate
    n_samples = 10000
    noise_grid = 0.01,0.02,0.05

with '#' comments and blank lines ignored. Every key not set falls back
to the per-kind default below; unknown keys and malformed values are
validation errors, reported before any training starts. The effective
(defaulted) config is echoed into every output file header, so a result
is always reproducible from its own artifacts plus the master seed.
"""

from __future__ import annotations

import math
import os

from learnpath.supervision import TrainConfig
from learnpath.toygauss import GaussianSpec, split_counts

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "KINDS"]


class ConfigError(ValueError):
    """Bad config file or inconsistent values; maps to exit code 1."""


_COMMON = {
    "seed": 0,
    "num_classes": 3,
    "input_dim": 30,
    "sigma": 2.0,
    "delta_mu": 1.0,
    "n_samples": 10000,
    "ratios": (0.05, 0.05, 0.9),
    "hidden_sizes": (32, 32, 32),
    "learning_rate": 0.01,
    "max_epochs": 60,
    "patience": 10,  # 0 disables early stopping
    "temperature": 1.0,
    "beta": 1.0,
}

# Per-kind defaults, desk-scale. Order is the echo order in output
# headers, so keep it stable. A file's value is parsed as the type of its
# key's default (see _parse), so every tuple default holds one type.
KIND_DEFAULTS = {
    "gen-data": {**_COMMON, "flip_ratio": 0.0},
    "correlate": {
        **_COMMON,
        "noise_grid": (0.01, 0.015, 0.023, 0.035, 0.053, 0.08, 0.12,
                       0.18, 0.28, 0.42, 0.65, 1.0),
        "noise_seeds": 4,
        "baseline_seeds": 3,
        "ls_epsilon": 0.1,
        "loss_bound": 10.0,
        "perm_test": 0,
    },
    "paths": {
        **_COMMON,
        "max_epochs": 100,
        "patience": 0,
        "flip_ratio": 0.0,
        "quantiles": (0.05, 0.5, 0.75, 0.95),
        "ema_alpha": 0.3,
    },
    "distance-gap": {
        **_COMMON,
        "max_epochs": 60,
        "patience": 0,
        "flip_ratio": 0.0,
        "supervisions": ("oht", "gt"),
        "ls_epsilon": 0.1,
    },
    "recovery": {
        **_COMMON,
        "max_epochs": 60,
        "patience": 0,
        "flip_ratio": 0.3,
        "filter_alpha": 0.5,
    },
    "distill": {
        **_COMMON,
        "ratios": (0.2, 0.05, 0.75),
        "flip_grid": (0.2,),
        "filter_alpha": 0.2,
        "alpha_grid": (0.01, 0.05, 0.1, 0.2, 0.5, 1.0),
        "seeds": (0, 1, 2, 3, 4),
    },
    "ntk-verify": {
        **_COMMON,
        "n_samples": 2000,
        "n_pairs": 50,
        "n_similarity": 200,
        "target_noise": 0.2,
        "eta_grid": (0.01, 0.005, 0.0025),
        "trace_epochs": 12,
        "trace_samples": 5,
    },
    "zigzag": {**_COMMON, "flip_ratio": 0.1, "patience": 0},
}

KINDS = tuple(KIND_DEFAULTS)


class ExperimentConfig:
    """Validated, fully-defaulted settings for one subcommand run."""

    def __init__(self, kind: str, values: dict):
        self.kind = kind
        self._values = values

    def __getattr__(self, name):
        # guard the underscore path: pickle probes attributes before
        # __init__ has run, which would otherwise recurse on _values
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(f"config for {self.kind!r} has no field {name!r}")

    def gaussian_spec(self) -> GaussianSpec:
        return GaussianSpec(num_classes=self.num_classes, input_dim=self.input_dim,
                            sigma=self.sigma, delta_mu=self.delta_mu, seed=self.seed)

    def train_config(self, **overrides) -> TrainConfig:
        base = dict(hidden_sizes=self.hidden_sizes,
                    learning_rate=self.learning_rate,
                    max_epochs=self.max_epochs,
                    patience=self.patience if self.patience > 0 else None,
                    temperature=self.temperature, beta=self.beta,
                    seed=self.seed)
        base.update(overrides)
        return TrainConfig(**base)

    def echo_lines(self) -> list:
        """'# key = value' lines in the kind's canonical field order."""
        lines = [f"# kind = {self.kind}"]
        for key in KIND_DEFAULTS[self.kind]:
            lines.append(f"# {key} = {_fmt(self._values[key])}")
        return lines


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return format(v, "g")
    return str(v)


def _parse(default, text):
    """text as a value of default's type; a tuple default takes a comma
    list of its first entry's type, with empty parts skipped."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(p.strip()) for p in text.split(",") if p.strip())
    return type(default)(text)


def _parse_file(path) -> dict:
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = text.partition("=")
            key, val = key.strip(), val.strip()
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = (val, lineno)
    return raw


def load_config(kind: str, path=None, seed=None) -> ExperimentConfig:
    """Build the effective config for a subcommand.

    path may be None (pure defaults). A `kind` key in the file must
    match the subcommand. `seed` (from --seed) wins over the file.
    """
    if kind not in KIND_DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    values = dict(KIND_DEFAULTS[kind])
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        for key, (val, lineno) in _parse_file(path).items():
            if key == "kind":
                if val != kind:
                    raise ConfigError(
                        f"{path}:{lineno}: config kind {val!r} does not match "
                        f"subcommand {kind!r}")
                continue
            if key not in values:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {kind}")
            try:
                values[key] = _parse(KIND_DEFAULTS[kind][key], val)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}")
    if seed is not None:
        values["seed"] = int(seed)
    cfg = ExperimentConfig(kind, values)
    _validate(cfg)
    return cfg


# The range of each key that TrainConfig and GaussianSpec do not check,
# as an interval (or a set of choices), applied to a scalar and to every
# entry of a grid. Every number must also be finite, and every grid
# non-empty with distinct entries; ratios and hidden_sizes are vectors,
# not grids (an empty hidden_sizes is a linear model).
_RANGES = {
    "seed": "[0, inf)", "seeds": "[0, inf)", "n_samples": "[10, inf)",
    "sigma": "[1e-100, 1e100]",  # p* under- or overflows beyond
    "patience": "[0, inf)", "ratios": "[0, 1]", "flip_ratio": "[0, 1]",
    "flip_grid": "[0, 1]", "noise_grid": "[0, inf)", "noise_seeds": "[1, inf)",
    "baseline_seeds": "[1, inf)", "ls_epsilon": "[0, 1]",
    "loss_bound": "(0, inf)", "perm_test": "[0, inf)", "quantiles": "[0, 1]",
    "ema_alpha": "(0, 1]", "filter_alpha": "(0, 1]", "alpha_grid": "(0, 1]",
    "supervisions": ("oht", "ls", "gt"), "n_pairs": "[1, inf)",
    "target_noise": "[0, inf)", "eta_grid": "(0, inf)",
    "trace_epochs": "[1, inf)", "trace_samples": "[1, inf)",
}
_VECTORS = ("ratios", "hidden_sizes")

# The splits each command reads: validation for the best-validation
# checkpoint (ESKD targets, early-stop students and stages) and recovery's
# validation-accuracy column, test for the students' test metrics. paths
# and zigzag read validation only to stop early (patience > 0).
_SPLITS = {
    "gen-data": (),
    "correlate": ("train", "validation", "test"),
    "paths": ("train",),
    "distance-gap": ("train", "validation"),
    "recovery": ("train", "validation"),
    "distill": ("train", "validation", "test"),
    "ntk-verify": ("train",),
    "zigzag": ("train",),
}


def _within(v, rng) -> bool:
    """v lies in rng, an interval such as "(0, 1]" or a tuple of choices."""
    if isinstance(rng, tuple):
        return v in rng
    lo, hi = (float(x) for x in rng[1:-1].split(","))
    return ((lo < v if rng[0] == "(" else lo <= v)
            and (v < hi if rng[-1] == ")" else v <= hi))


def _validate(cfg: ExperimentConfig) -> None:
    try:
        cfg.gaussian_spec()
        cfg.train_config()
    except ValueError as err:
        raise ConfigError(str(err))
    for key, value in cfg._values.items():
        entries = value if isinstance(value, tuple) else (value,)
        if (isinstance(value, tuple) and key not in _VECTORS
                and not 0 < len(set(value)) == len(value)):
            raise ConfigError(f"{key} must be a non-empty list of distinct "
                              f"entries, got {_fmt(value)!r}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ConfigError(f"{key} must be finite, got {_fmt(value)}")
        rng = _RANGES.get(key)
        if rng is not None and not all(_within(v, rng) for v in entries):
            allowed = ",".join(rng) if isinstance(rng, tuple) else rng
            raise ConfigError(f"{key} must be in {allowed}, got {_fmt(value)}")
    r = cfg.ratios
    if len(r) != 3 or abs(sum(r) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be 3 values summing to 1, got {r}")
    counts = dict(zip(("train", "validation", "test"), split_counts(cfg.n_samples, r)))
    for split in _SPLITS[cfg.kind]:
        if counts[split] == 0:
            raise ConfigError(f"ratios {r} leave no {split} rows; {cfg.kind} "
                              "reads them")
    n_train, n_valid = counts["train"], counts["validation"]
    if cfg.kind in ("paths", "zigzag") and cfg.patience > 0 and n_valid == 0:
        raise ConfigError(f"ratios {r} leave no validation rows; patience = "
                          f"{cfg.patience} needs them for early stopping")
    # flip_labels flips round(flip_ratio * n_train) train labels
    if cfg.kind == "recovery" and round(cfg.flip_ratio * n_train) == 0:
        raise ConfigError(f"recovery needs flipped labels; flip_ratio = "
                          f"{cfg.flip_ratio:g} of {n_train} train rows flips none")
    if cfg.kind == "zigzag" and n_train < 2:
        raise ConfigError(f"ratios {r} leave {n_train} train row; zigzag ranks "
                          "the train rows and needs at least 2")
    if cfg.kind == "ntk-verify":
        # a similarity probe is ranked against the others of the first
        # min(n_similarity, n_train) train rows; a Spearman needs 2 of them
        if min(cfg.n_similarity, n_train) < 3:
            raise ConfigError(f"n_similarity = {cfg.n_similarity} with {n_train} "
                              "train rows leaves a probe fewer than 2 rows to rank; "
                              "both must be >= 3")
        if list(cfg.eta_grid) != sorted(cfg.eta_grid, reverse=True):
            raise ConfigError(f"eta_grid must be decreasing, got {_fmt(cfg.eta_grid)}")
