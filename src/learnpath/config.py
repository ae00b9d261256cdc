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

    def replace(self, **updates) -> "ExperimentConfig":
        bad = set(updates) - set(self._values)
        if bad:
            raise ConfigError(f"unknown config fields {sorted(bad)}")
        return ExperimentConfig(self.kind, {**self._values, **updates})

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


# kinds that score on the validation rows whatever `patience` is (the
# best-validation checkpoint of ESKD targets, early-stop students and
# stages; recovery's validation-accuracy column), and kinds whose training
# honours `patience`
_VALIDATION_KINDS = ("correlate", "distance-gap", "distill", "recovery")
_PATIENCE_KINDS = ("correlate", "paths", "distance-gap", "distill", "zigzag")


def _validate(cfg: ExperimentConfig) -> None:
    try:
        cfg.gaussian_spec()
        cfg.train_config()
    except ValueError as err:
        raise ConfigError(str(err))
    if cfg.n_samples < 10:
        raise ConfigError(f"n_samples too small: {cfg.n_samples}")
    r = cfg.ratios
    if len(r) != 3 or any(x < 0 for x in r) or abs(sum(r) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be 3 non-negative values summing to 1, got {r}")
    n_train, n_valid, _ = split_counts(cfg.n_samples, r)
    if n_train == 0 and cfg.kind != "gen-data":
        raise ConfigError(f"ratios {r} leave no train rows; {cfg.kind} trains on them")
    if n_valid == 0:
        # with no validation rows the best-validation checkpoint is the
        # untrained init, early stopping never fires and validation
        # accuracy is undefined
        if cfg.kind in _VALIDATION_KINDS:
            raise ConfigError(f"ratios {r} leave no validation rows; {cfg.kind} "
                              "scores on them")
        if cfg.kind in _PATIENCE_KINDS and cfg.patience > 0:
            raise ConfigError(f"ratios {r} leave no validation rows; patience = "
                              f"{cfg.patience} needs them for early stopping")
    if "flip_ratio" in cfg._values and not 0 <= cfg.flip_ratio <= 1:
        raise ConfigError(f"flip_ratio must be in [0, 1], got {cfg.flip_ratio}")
    for grid_key in ("noise_grid", "alpha_grid", "flip_grid", "eta_grid",
                     "quantiles", "seeds"):
        if grid_key in cfg._values and not cfg._values[grid_key]:
            raise ConfigError(f"{grid_key} must be non-empty")
    if cfg.kind == "correlate":
        if cfg.noise_seeds < 1 or cfg.baseline_seeds < 1:
            raise ConfigError("noise_seeds and baseline_seeds must be >= 1")
        if not 0 <= cfg.ls_epsilon <= 1:
            raise ConfigError(f"ls_epsilon must be in [0, 1], got {cfg.ls_epsilon}")
        if not cfg.loss_bound > 0:
            raise ConfigError(f"loss_bound must be positive, got {cfg.loss_bound}")
        if any(n < 0 for n in cfg.noise_grid):
            raise ConfigError("noise_grid entries must be >= 0")
        if cfg.perm_test < 0:
            raise ConfigError("perm_test must be >= 0")
    if cfg.kind == "paths":
        if any(not 0 <= q <= 1 for q in cfg.quantiles):
            raise ConfigError(f"quantiles must lie in [0, 1], got {cfg.quantiles}")
        if not 0 < cfg.ema_alpha <= 1:
            raise ConfigError(f"ema_alpha must be in (0, 1], got {cfg.ema_alpha}")
    if cfg.kind == "distance-gap":
        allowed = {"oht", "ls", "gt"}
        bad = [s for s in cfg.supervisions if s not in allowed]
        if bad:
            raise ConfigError(f"unknown supervisions {bad}; choose from {sorted(allowed)}")
    if cfg.kind in ("recovery", "distill"):
        if not 0 < cfg.filter_alpha <= 1:
            raise ConfigError(f"filter_alpha must be in (0, 1], got {cfg.filter_alpha}")
    # flip_labels flips round(flip_ratio * n_train) train labels
    if cfg.kind == "recovery" and round(cfg.flip_ratio * n_train) == 0:
        raise ConfigError(f"recovery needs flipped labels; flip_ratio = "
                          f"{cfg.flip_ratio:g} of {n_train} train rows flips none")
    if cfg.kind == "zigzag" and n_train < 2:
        raise ConfigError(f"ratios {r} leave {n_train} train row; zigzag ranks "
                          "the train rows and needs at least 2")
    if cfg.kind == "distill":
        if any(not 0 < a <= 1 for a in cfg.alpha_grid):
            raise ConfigError(f"alpha_grid entries must be in (0, 1], got {cfg.alpha_grid}")
        if any(not 0 <= f <= 1 for f in cfg.flip_grid):
            raise ConfigError(f"flip_grid entries must be in [0, 1], got {cfg.flip_grid}")
    if cfg.kind == "ntk-verify":
        if cfg.n_pairs < 1:
            raise ConfigError("n_pairs must be >= 1")
        # a similarity probe is ranked against the others of the first
        # min(n_similarity, n_train) train rows; a Spearman needs 2 of them
        if min(cfg.n_similarity, n_train) < 3:
            raise ConfigError(f"n_similarity = {cfg.n_similarity} with {n_train} "
                              "train rows leaves a probe fewer than 2 rows to rank; "
                              "both must be >= 3")
        if any(not e > 0 for e in cfg.eta_grid):
            raise ConfigError(f"eta_grid entries must be positive, got {cfg.eta_grid}")
        if list(cfg.eta_grid) != sorted(cfg.eta_grid, reverse=True):
            raise ConfigError("eta_grid must be strictly decreasing")
        if cfg.target_noise < 0:
            raise ConfigError("target_noise must be >= 0")
        if cfg.trace_epochs < 1 or cfg.trace_samples < 1:
            raise ConfigError("trace_epochs and trace_samples must be >= 1")
