import pytest

from learnpath.config import (KIND_DEFAULTS, KINDS, ConfigError,
                              ExperimentConfig, load_config)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        cfg = load_config("gen-data", path)
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
        ("distance-gap", ""), ("recovery", "patience = 0\n"),
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

    @pytest.mark.parametrize("kind", ["gen-data", "paths", "zigzag", "ntk-verify"])
    def test_empty_validation_split_allowed_without_early_stopping(self, tmp_path,
                                                                   kind):
        path = write_cfg(tmp_path, "ratios = 0.5,0,0.5\npatience = 0\n")
        assert load_config(kind, path).ratios == (0.5, 0.0, 0.5)

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "gen-data"])
    def test_empty_train_split_rejected(self, tmp_path, kind):
        path = write_cfg(tmp_path, "n_samples = 100\nratios = 0,0.5,0.5\n")
        with pytest.raises(ConfigError, match="no train rows"):
            load_config(kind, path)

    @pytest.mark.parametrize("kind,text,match", [
        # round(0.2 * 2 train rows) = 0 flipped labels
        ("recovery", "n_samples = 40\nflip_ratio = 0.2\n", "flips none"),
        # 1 train row: nothing to rank, no pair of distinct rows
        ("zigzag", "n_samples = 20\n", "at least 2"),
        ("ntk-verify", "n_samples = 20\n", "1 train rows"),
        # the self pair leaves each probe 1 row to rank
        ("ntk-verify", "n_similarity = 2\n", "n_similarity = 2"),
    ], ids=["recovery-no-flips", "zigzag-1-train-row", "ntk-verify-1-train-row",
            "ntk-verify-n_similarity-2"])
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

    def test_replace(self):
        cfg = load_config("gen-data")
        other = cfg.replace(seed=5)
        assert other.seed == 5 and cfg.seed == 0
        with pytest.raises(ConfigError):
            cfg.replace(not_a_field=1)

    def test_unknown_attribute(self):
        cfg = load_config("gen-data")
        with pytest.raises(AttributeError):
            cfg.alpha_grid

    def test_patience_zero_disables_early_stop(self, tmp_path):
        path = write_cfg(tmp_path, "patience = 0\n")
        cfg = load_config("gen-data", path)
        assert cfg.train_config().patience is None

    def test_picklable(self):
        import pickle
        cfg = load_config("correlate")
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.kind == "correlate"
        assert clone.noise_grid == cfg.noise_grid


def test_experiment_config_is_value_like():
    a = ExperimentConfig("gen-data", {"seed": 1})
    assert a.seed == 1
