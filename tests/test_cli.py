import os

import pytest

from learnpath import experiments
from learnpath.cli import build_parser, main
from learnpath.config import load_config

COMMANDS = ("gen-data", "correlate", "paths", "distance-gap", "recovery",
            "distill", "ntk-verify", "zigzag")


def cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_exists(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command
        assert args.config is None and args.out is None
        assert args.seed is None and args.jobs == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestErrorExits:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["gen-data", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        path = cfg_file(tmp_path, "n_samples = 5\n")
        rc = main(["gen-data", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_kind_mismatch(self, tmp_path):
        path = cfg_file(tmp_path, "kind = distill\n")
        assert main(["recovery", "--config", path,
                     "--out", str(tmp_path / "o")]) == 1

    def test_jobs_must_be_positive(self, tmp_path):
        path = cfg_file(tmp_path, "n_samples = 100\n")
        rc = main(["gen-data", "--config", path, "--jobs", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("kind", ["distill", "recovery"])
    def test_empty_validation_split_exits_before_training(self, tmp_path, capsys,
                                                          kind):
        path = cfg_file(tmp_path, "n_samples = 100\nratios = 0.5,0,0.5\n")
        out = tmp_path / "o"
        assert main([kind, "--config", path, "--out", str(out)]) == 1
        assert "no validation rows" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("kind,text", [
        ("distill", "n_samples = 100\nratios = 0,0.5,0.5\n"),
        ("recovery", "n_samples = 40\nflip_ratio = 0.2\n"),
        ("zigzag", "n_samples = 20\n"),
        ("ntk-verify", "n_samples = 20\n"),
        ("ntk-verify", "n_similarity = 2\n"),
    ], ids=["distill-no-train-rows", "recovery-no-flips", "zigzag-1-train-row",
            "ntk-verify-1-train-row", "ntk-verify-n_similarity-2"])
    def test_configs_that_cannot_run_exit_before_output(self, tmp_path, capsys,
                                                        kind, text):
        out = tmp_path / "o"
        assert main([kind, "--config", cfg_file(tmp_path, text),
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestTeacherDivergence:
    """A diverging teacher fails its cell's teacher-dependent students only."""

    DISTILL = ("n_samples = 200\nratios = 0.4,0.1,0.5\nflip_grid = 0.2\n"
               "seeds = 0,1\nalpha_grid = 0.2\nmax_epochs = 8\n"
               "hidden_sizes = 16\nlearning_rate = 1000\n")
    CORRELATE = ("n_samples = 300\nratios = 0.4,0.2,0.4\n"
                 "noise_grid = 0.05,0.4\nnoise_seeds = 1\n"
                 "baseline_seeds = 1\nmax_epochs = 8\nhidden_sizes = 16\n"
                 "learning_rate = 1000\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,csv,n_runs", [
        ("distill", "distill.csv", 2 * 4), ("correlate", "runs.csv", 5 + 2)])
    def test_sweep_finishes_with_failed_rows(self, tmp_path, command, csv, n_runs):
        text = self.DISTILL if command == "distill" else self.CORRELATE
        out = tmp_path / "o"
        assert main([command, "--config", cfg_file(tmp_path, text),
                     "--out", str(out)]) == 0
        assert f"# diverged_runs = {n_runs}\n" in (out / csv).read_text()
        assert f"n_diverged = {n_runs}\n" in (out / "summary.txt").read_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,csv,teacher_kinds", [
        ("distill", "distill.csv", 2 * 2), ("correlate", "runs.csv", 2)])
    def test_failed_runs_keep_their_messages(self, tmp_path, command, csv,
                                             teacher_kinds):
        text = self.DISTILL if command == "distill" else self.CORRELATE
        out = tmp_path / "o"
        main([command, "--config", cfg_file(tmp_path, text), "--out", str(out)])
        lines = (out / csv).read_text().splitlines()
        at = lines.index(next(x for x in lines if x.startswith("# diverged_runs = ")))
        n = int(lines[at].split(" = ")[1])
        failed = lines[at + 1:at + 1 + n]
        assert n > 0 and all(x.startswith("# failed_run = ") for x in failed)
        assert not lines[at + 1 + n].startswith("#")
        teacher = [x for x in failed if ": teacher: non-finite state at epoch" in x]
        assert len(teacher) == teacher_kinds
        assert all(": non-finite state at epoch" in x for x in failed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_teacher_error_carried_by_dependent_students(self, tmp_path):
        cfg = load_config("distill", cfg_file(tmp_path, self.DISTILL))
        ds = experiments._build_dataset(cfg)
        rows = experiments._distill_group(ds, {"cfg": cfg, "flip_index": 0,
                                               "seed": 0})
        # oht, eskd, filter_kd at alpha 0.2, gt
        assert len(rows) == 4 and all("error" in r for r in rows)
        assert [r["error"].startswith("teacher: ") for r in rows] == \
            [False, True, True, False]
        cfg = load_config("correlate", cfg_file(tmp_path, self.CORRELATE))
        rows = experiments._correlate_group(
            experiments._build_dataset(cfg),
            {"cfg": cfg, "what": "baselines", "seed_index": 0})
        # oht, ls, gt, kd, eskd
        assert [r["error"].startswith("teacher: ") for r in rows] == \
            [False, False, False, True, True]


class TestGenData:
    def test_writes_artifacts(self, tmp_path, capsys):
        path = cfg_file(tmp_path, "n_samples = 120\nflip_ratio = 0.1\n")
        out = tmp_path / "o"
        rc = main(["gen-data", "--config", path, "--out", str(out)])
        assert rc == 0
        assert (out / "dataset.csv").exists()
        assert (out / "summary.txt").exists()
        assert f"wrote {out}" in capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        assert "# kind = gen-data" in summary

    def test_seed_flag_changes_data(self, tmp_path):
        path = cfg_file(tmp_path, "n_samples = 120\n")
        a, b, c = (tmp_path / n for n in "abc")
        for out, seed in ((a, "1"), (b, "2"), (c, "1")):
            assert main(["gen-data", "--config", path, "--out", str(out),
                         "--seed", seed]) == 0
        da = (a / "dataset.csv").read_bytes()
        assert da != (b / "dataset.csv").read_bytes()
        assert da == (c / "dataset.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = cfg_file(tmp_path, "n_samples = 150\nflip_ratio = 0.2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--config", path, "--out", str(out)]) == 0
        for name in ("dataset.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestZigzag:
    def test_runs_and_reports_checks(self, tmp_path, capsys):
        path = cfg_file(tmp_path, "n_samples = 150\nratios = 0.5,0.25,0.25\n"
                                  "max_epochs = 12\nhidden_sizes = 16\n"
                                  "learning_rate = 0.05\n")
        out = tmp_path / "o"
        rc = main(["zigzag", "--config", path, "--out", str(out)])
        # informational checks never flip the exit code for this command
        assert rc == 0
        assert (out / "zigzag.csv").exists()
        assert "check " in capsys.readouterr().out


class TestNtkVerifyExit:
    TINY = ("n_samples = 200\nn_pairs = 10\nn_similarity = 12\n"
            "trace_epochs = 3\ntrace_samples = 2\nhidden_sizes = 32,32\n")

    def test_passing_checks_exit_zero(self, tmp_path):
        path = cfg_file(tmp_path, self.TINY)
        out = tmp_path / "o"
        rc = main(["ntk-verify", "--config", path, "--out", str(out)])
        assert rc == 0
        for name in ("decomposition.csv", "similarity.csv",
                     "trace_evolution.csv", "summary.txt"):
            assert (out / name).exists()

    def test_failed_check_exits_two(self, tmp_path, capsys):
        # step sizes far outside the first-order regime break the
        # residual-ratio check, which this command treats as fatal
        path = cfg_file(tmp_path, self.TINY + "eta_grid = 50,25\n")
        rc = main(["ntk-verify", "--config", path,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out


class TestDefaultOutDir:
    def test_out_defaults_under_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = cfg_file(tmp_path, "n_samples = 100\n")
        assert main(["gen-data", "--config", path]) == 0
        assert os.path.exists(os.path.join("out", "gen-data", "dataset.csv"))
