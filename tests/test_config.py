import pytest

from learnpath.config import (KIND_DEFAULTS, KINDS, ConfigError,
                              ExperimentConfig, load_config)
from learnpath.supervision import TrainConfig

# (kind, key) for the training keys a kind's runs never read: gen-data
# trains nothing, recovery's one-hot teacher runs without early stopping
# or a tempered loss, and ntk-verify's trace run lasts trace_epochs
REMOVED_KEYS = [
    *(("gen-data", k) for k in ("hidden_sizes", "learning_rate", "max_epochs",
                                "patience", "temperature", "beta")),
    *(("recovery", k) for k in ("patience", "temperature", "beta")),
    *(("ntk-verify", k) for k in ("max_epochs", "patience")),
]
# a valid value of each, which the kinds that read the key accept
REMOVED_VALUES = {"hidden_sizes": "8", "learning_rate": "0.05", "max_epochs": "3",
                  "patience": "2", "temperature": "3", "beta": "0.5"}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _numeric_cases():
    """(kind, key, value) for every numeric key: -1, and for a float key
    also nan and +-inf (a grid key gets a one-entry grid)."""
    for kind, defaults in KIND_DEFAULTS.items():
        for key, default in defaults.items():
            first = default[0] if isinstance(default, tuple) else default
            if isinstance(first, float):
                yield from ((kind, key, text) for text in ("nan", "inf", "-inf", "-1"))
            elif isinstance(first, int):
                yield kind, key, "-1"


class TestDefaults:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_loads_from_defaults(self, kind):
        cfg = load_config(kind)
        assert cfg.kind == kind
        assert cfg.seed == 0
        cfg.gaussian_spec()
        cfg.train_config()

    def test_eight_kinds(self):
        assert len(KINDS) == 8

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_config("frobnicate")

    def test_seed_override_wins(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 11\n")
        cfg = load_config("gen-data", path, seed=99)
        assert cfg.seed == 99


class TestFileParsing:
    def test_comments_blanks_and_values(self, tmp_path):
        path = write_cfg(tmp_path, """
# full-line comment
kind = correlate

n_samples = 500   # trailing comment
noise_grid = 0.1, 0.2,0.3
baseline_seeds = 2
""")
        cfg = load_config("correlate", path)
        assert cfg.n_samples == 500
        assert cfg.noise_grid == (0.1, 0.2, 0.3)
        assert cfg.baseline_seeds == 2

    def test_tuple_fields_parse(self, tmp_path):
        path = write_cfg(tmp_path, "hidden_sizes = 16,16\nratios = 0.5,0.25,0.25\n")
        cfg = load_config("correlate", path)
        assert cfg.hidden_sizes == (16, 16)
        assert cfg.ratios == (0.5, 0.25, 0.25)

    def test_kind_mismatch(self, tmp_path):
        path = write_cfg(tmp_path, "kind = distill\n")
        with pytest.raises(ConfigError, match="does not match"):
            load_config("recovery", path)

    def test_matching_kind_accepted(self, tmp_path):
        path = write_cfg(tmp_path, "kind = recovery\nflip_ratio = 0.2\n")
        assert load_config("recovery", path).flip_ratio == 0.2

    def test_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, "wibble = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("gen-data", path)

    @pytest.mark.parametrize("kind,key", REMOVED_KEYS)
    def test_training_key_the_kind_does_not_read(self, tmp_path, kind, key):
        path = write_cfg(tmp_path, f"{key} = {REMOVED_VALUES[key]}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' for {kind}"):
            load_config(kind, path)

    def test_key_not_valid_for_kind(self, tmp_path):
        # alpha_grid exists for distill but not for gen-data
        path = write_cfg(tmp_path, "alpha_grid = 0.1\n")
        with pytest.raises(ConfigError):
            load_config("gen-data", path)

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path, "just some words\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            load_config("gen-data", path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "\nn_samples = lots\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config("gen-data", path)

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config("gen-data", path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("gen-data", "/nonexistent/run.cfg")


class TestValidation:
    def test_ratios_must_sum_to_one(self, tmp_path):
        path = write_cfg(tmp_path, "ratios = 0.5,0.5,0.5\n")
        with pytest.raises(ConfigError, match="ratios"):
            load_config("gen-data", path)

    def test_tiny_n_samples_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "n_samples = 5\n")
        with pytest.raises(ConfigError, match="n_samples"):
            load_config("gen-data", path)

    def test_empty_grid_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "noise_grid = ,\n")
        with pytest.raises(ConfigError, match="non-empty"):
            load_config("correlate", path)

    def test_eta_grid_must_decrease(self, tmp_path):
        path = write_cfg(tmp_path, "eta_grid = 0.0025,0.005,0.01\n")
        with pytest.raises(ConfigError, match="decreasing"):
            load_config("ntk-verify", path)

    def test_recovery_needs_flips(self, tmp_path):
        path = write_cfg(tmp_path, "flip_ratio = 0.0\n")
        with pytest.raises(ConfigError, match="flip_ratio"):
            load_config("recovery", path)

    def test_unknown_supervision_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "supervisions = oht,banana\n")
        with pytest.raises(ConfigError, match="banana"):
            load_config("distance-gap", path)

    def test_filter_alpha_range(self, tmp_path):
        path = write_cfg(tmp_path, "filter_alpha = 1.5\n")
        with pytest.raises(ConfigError, match="filter_alpha"):
            load_config("distill", path)

    def test_bad_gaussian_params_surface_as_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "sigma = -1\n")
        with pytest.raises(ConfigError):
            load_config("gen-data", path)

    @pytest.mark.parametrize("kind,extra", [
        ("distill", "patience = 0\n"), ("correlate", "patience = 0\n"),
        ("distance-gap", ""), ("recovery", ""),
        ("paths", "patience = 5\n"), ("zigzag", "patience = 5\n")])
    def test_empty_validation_split_rejected(self, tmp_path, kind, extra):
        path = write_cfg(tmp_path, "ratios = 0.5,0,0.5\n" + extra)
        with pytest.raises(ConfigError, match="no validation rows"):
            load_config(kind, path)

    def test_validation_share_rounding_to_zero_rejected(self, tmp_path):
        # 100 * 0.004 = 0.4 rows: the largest remainder goes to test
        path = write_cfg(tmp_path, "n_samples = 100\nratios = 0.5,0.004,0.496\n")
        with pytest.raises(ConfigError, match="no validation rows"):
            load_config("distill", path)

    @pytest.mark.parametrize("kind,extra", [
        ("gen-data", ""), ("paths", "patience = 0\n"), ("zigzag", "patience = 0\n"),
        ("ntk-verify", "")])
    def test_empty_validation_split_allowed_without_early_stopping(self, tmp_path,
                                                                   kind, extra):
        path = write_cfg(tmp_path, "ratios = 0.5,0,0.5\n" + extra)
        assert load_config(kind, path).ratios == (0.5, 0.0, 0.5)

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "gen-data"])
    def test_empty_train_split_rejected(self, tmp_path, kind):
        path = write_cfg(tmp_path, "n_samples = 100\nratios = 0,0.5,0.5\n")
        with pytest.raises(ConfigError, match="no train rows"):
            load_config(kind, path)

    @pytest.mark.parametrize("kind,key,text", list(_numeric_cases()))
    def test_every_numeric_key_rejects_non_finite_and_negative(self, tmp_path, kind,
                                                               key, text):
        # guards keys added later: each must get a range or stay finite
        match = key if text != "-1" else None
        with pytest.raises(ConfigError, match=match):
            load_config(kind, write_cfg(tmp_path, f"{key} = {text}\n"))

    @pytest.mark.parametrize("kind,text,match", [
        # round(0.2 * 2 train rows) = 0 flipped labels
        ("recovery", "n_samples = 40\nflip_ratio = 0.2\n", "flips none"),
        # 1 train row: nothing to rank, no pair of distinct rows
        ("zigzag", "n_samples = 20\n", "at least 2"),
        ("ntk-verify", "n_samples = 20\n", "1 train rows"),
        # the self pair leaves each probe 1 row to rank
        ("ntk-verify", "n_similarity = 2\n", "n_similarity = 2"),
        # the students' test metrics read the test rows
        ("distill", "n_samples = 100\nratios = 0.75,0.25,0\n", "no test rows"),
        ("correlate", "n_samples = 100\nratios = 0.75,0.25,0\n", "no test rows"),
        # a repeated grid entry does the same work twice
        ("distill", "seeds = 0,1,0\n", "seeds must be a non-empty list of distinct"),
        ("ntk-verify", "eta_grid = 0.01,0.01\n", "eta_grid must be a non-empty"),
        ("distance-gap", "supervisions = oht,oht\n", "supervisions must be"),
        ("paths", "quantiles = 0.5,0.5\n", "quantiles must be"),
    ], ids=["recovery-no-flips", "zigzag-1-train-row", "ntk-verify-1-train-row",
            "ntk-verify-n_similarity-2", "distill-no-test-rows",
            "correlate-no-test-rows", "seeds-repeated", "eta_grid-repeated",
            "supervisions-repeated", "quantiles-repeated"])
    def test_configs_that_cannot_run_rejected(self, tmp_path, kind, text, match):
        with pytest.raises(ConfigError, match=match):
            load_config(kind, write_cfg(tmp_path, text))

    def test_quantiles_range(self, tmp_path):
        path = write_cfg(tmp_path, "quantiles = 0.5,1.5\n")
        with pytest.raises(ConfigError, match="quantiles"):
            load_config("paths", path)


class TestConfigObject:
    def test_echo_lines_round_trip(self):
        cfg = load_config("distill")
        lines = cfg.echo_lines()
        assert lines[0] == "# kind = distill"
        assert "# alpha_grid = 0.01,0.05,0.1,0.2,0.5,1" in lines
        assert all(line.startswith("# ") for line in lines)

    @pytest.mark.parametrize("kind", KINDS)
    def test_echoed_defaults_load_back_as_equal_values_of_equal_types(self,
                                                                      tmp_path, kind):
        cfg = load_config(kind)
        text = "".join(line[2:] + "\n" for line in cfg.echo_lines())
        back = load_config(kind, write_cfg(tmp_path, text))
        for key, value in KIND_DEFAULTS[kind].items():
            got = getattr(back, key)
            assert got == value, key
            assert type(got) is type(value), key
            if isinstance(value, tuple):
                assert [type(v) for v in got] == [type(v) for v in value], key

    def test_unknown_attribute(self):
        cfg = load_config("gen-data")
        with pytest.raises(AttributeError):
            cfg.alpha_grid

    def test_patience_zero_disables_early_stop(self, tmp_path):
        path = write_cfg(tmp_path, "patience = 0\n")
        cfg = load_config("correlate", path)
        assert cfg.train_config().patience == 0

    @pytest.mark.parametrize("kind", ["correlate", "distill"])
    def test_training_defaults_are_train_config_defaults(self, kind):
        assert load_config(kind).train_config() == TrainConfig()

    def test_picklable(self):
        import pickle
        cfg = load_config("correlate")
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.kind == "correlate"
        assert clone.noise_grid == cfg.noise_grid


def test_experiment_config_is_value_like():
    a = ExperimentConfig("gen-data", {"seed": 1})
    assert a.seed == 1
