import concurrent.futures
import math
import os
import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learnpath import experiments
from learnpath.cli import build_parser, main
from learnpath.config import load_config
from learnpath.metrics import XI_TERMS, accuracy, ece, xi_bounds
from learnpath.numerics import predict_proba
from learnpath.pathtrace import PathStore, ema_filter
from learnpath.rngstreams import derive_seed, stream
from learnpath.supervision import (DivergenceError, TargetTable,
                                   extract_eskd_targets,
                                   extract_kd_targets, make_gt_targets,
                                   make_ls_targets, make_onehot_targets,
                                   train_model, train_stack,
                                   train_teacher_filterkd_multi)
from learnpath.toygauss import flip_labels, perturb_target

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import TINY_CONFIGS  # noqa: E402
from test_config import REMOVED_KEYS, REMOVED_VALUES  # noqa: E402

# correlate at two baseline seeds and two noise repeats, so that its rows
# come from more than one seed and repeat
CORRELATE_MULTI = (TINY_CONFIGS["correlate"].replace("noise_seeds = 1", "noise_seeds = 2")
                   .replace("baseline_seeds = 1", "baseline_seeds = 2"))
# two flip ratios, so that --jobs 2 opens a pool of two workers
DISTILL_MULTI = TINY_CONFIGS["distill"].replace("flip_grid = 0.2", "flip_grid = 0.1,0.3")

COMMANDS = ("gen-data", "correlate", "paths", "distance-gap", "recovery",
            "distill", "ntk-verify", "zigzag")


def assert_same_bytes_at_jobs(tmp_path, command, text, jobs):
    """command at text exits 0 and writes the same files, byte for byte,
    at --jobs 1 and at jobs."""
    path = cfg_file(tmp_path, text)
    outs = [tmp_path / "j1", tmp_path / f"j{jobs}"]
    for j, out in zip(("1", jobs), outs):
        assert main([command, "--config", path, "--out", str(out), "--jobs", j]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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

    def test_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert main(["gen-data", "--config", cfg_file(tmp_path, "n_samples = 100\n"),
                     "--out", str(out)]) == 1
        assert "error: cannot create --out" in capsys.readouterr().err

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["gen-data", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error: cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"n_samples = 100 # \xff\xfe\n")
        assert main(["gen-data", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error: cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind,key", REMOVED_KEYS)
    def test_key_the_command_does_not_read(self, tmp_path, capsys, kind, key):
        out = tmp_path / "o"
        text = f"n_samples = 100\n{key} = {REMOVED_VALUES[key]}\n"
        assert main([kind, "--config", cfg_file(tmp_path, text),
                     "--out", str(out)]) == 1
        assert f"unknown key '{key}' for {kind}" in capsys.readouterr().err
        assert not out.exists()

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


    # small enough that a config which slips past validation fails fast;
    # ntk-verify has no max_epochs (its trace run lasts trace_epochs)
    SMALL = "n_samples = 100\nmax_epochs = 2\nhidden_sizes = 4\n"
    SMALL_NTK = "n_samples = 100\nhidden_sizes = 4\ntrace_epochs = 2\n"

    @pytest.mark.parametrize("kind,text,flags", [
        ("distill", "n_samples = 100\nratios = 0,0.5,0.5\n", ()),
        ("recovery", "n_samples = 40\nflip_ratio = 0.2\n", ()),
        ("zigzag", "n_samples = 20\n", ()),
        ("ntk-verify", "n_samples = 20\n", ()),
        ("ntk-verify", "n_similarity = 2\n", ()),
        ("gen-data", "ratios = nan,0.5,0.5\n", ()),
        ("gen-data", "seed = -1\n", ()),
        ("gen-data", "", ("--seed", "-1")),
        ("distill", SMALL + "seeds = -1\n", ()),
        ("correlate", SMALL + "noise_grid = nan\n", ()),
        ("ntk-verify", SMALL_NTK + "target_noise = nan\n", ()),
        ("gen-data", "sigma = inf\n", ()),
        ("gen-data", "sigma = 1e-300\n", ()),
        ("gen-data", "sigma = 1e160\n", ()),
        ("gen-data", "sigma = 1e300\n", ()),
        ("ntk-verify", SMALL_NTK + "eta_grid = inf,1\n", ()),
        ("distance-gap", SMALL + "supervisions = ls\nls_epsilon = -1\n", ()),
        ("distill", SMALL + "ratios = 0.75,0.25,0\n", ()),
        ("correlate", SMALL + "ratios = 0.75,0.25,0\n", ()),
        ("distill", SMALL + "seeds = 0,0\n", ()),
        ("ntk-verify", SMALL_NTK + "eta_grid = 0.01,0.01\n", ()),
        ("distance-gap", SMALL + "supervisions = oht,oht\n", ()),
        ("paths", SMALL + "patience = -3\n", ()),
        ("paths", SMALL + "learning_rate = nan\n", ()),
    ], ids=["distill-no-train-rows", "recovery-no-flips", "zigzag-1-train-row",
            "ntk-verify-1-train-row", "ntk-verify-n_similarity-2", "ratios-nan",
            "seed-negative", "seed-flag-negative", "seeds-negative",
            "noise_grid-nan", "target_noise-nan", "sigma-inf", "sigma-1e-300",
            "sigma-1e160", "sigma-1e300", "eta_grid-inf",
            "ls_epsilon-negative", "distill-no-test-rows", "correlate-no-test-rows",
            "seeds-repeated", "eta_grid-repeated", "supervisions-repeated",
            "patience-negative", "learning_rate-nan"])
    def test_configs_that_cannot_run_exit_before_output(self, tmp_path, capsys,
                                                        kind, text, flags):
        out = tmp_path / "o"
        assert main([kind, "--config", cfg_file(tmp_path, text),
                     "--out", str(out), *flags]) == 1
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
        rows = experiments._distill_group(ds, {"cfg": cfg, "flip_index": 0})
        # oht, eskd, filter_kd at alpha 0.2, gt, for each of the two seeds
        assert len(rows) == 8 and all("error" in r for r in rows)
        assert [r["error"].startswith("teacher: ") for r in rows] == \
            [False, True, True, False] * 2
        cfg = load_config("correlate", cfg_file(tmp_path, self.CORRELATE))
        rows = experiments._correlate_group(
            experiments._build_dataset(cfg), {"cfg": cfg, "what": "baselines"})
        # oht, ls, gt, kd, eskd
        assert [r["error"].startswith("teacher: ") for r in rows] == \
            [False, False, False, True, True]


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["distill", "correlate"])
    def test_failed_runs_write_the_same_bytes_at_any_jobs(self, tmp_path, command):
        assert_same_bytes_at_jobs(
            tmp_path, command, self.DISTILL if command == "distill" else self.CORRELATE, "2")


def reference_distill_cell(ds, cfg, fi, s):
    """One (flip_ratio, seed) cell of distill trained on its own: its
    Filter-KD teacher alone, then its students as one stack of one seed."""
    fr = cfg.flip_grid[fi]
    flipped = flip_labels(ds, fr, seed=derive_seed(cfg.seed, 3, fi, s))
    tconfig = cfg.train_config(seed=derive_seed(cfg.seed, 4, s))
    alphas = tuple(sorted(set(cfg.alpha_grid) | {cfg.filter_alpha}))
    teacher, tables = train_teacher_filterkd_multi(flipped, tconfig, alphas)
    kinds = [("oht", make_onehot_targets(flipped), math.nan),
             ("eskd", extract_eskd_targets(teacher, flipped), math.nan),
             *(("filter_kd", tables[a], a) for a in alphas),
             ("gt", make_gt_targets(flipped), math.nan)]
    rows = []
    for (kind, _, alpha), result in zip(
            kinds, train_stack([(flipped, t, tconfig.seed) for _, t, _ in kinds],
                               tconfig)):
        probs = predict_proba(result.best_model, flipped.x[flipped.test_indices])
        labels = flipped.y[flipped.test_indices]
        rows.append({"flip_ratio": fr, "seed": s, "supervision": kind,
                     "alpha": alpha, "test_acc": accuracy(probs, labels),
                     "test_ece": ece(probs, labels), "epochs_run": result.epochs_run})
    return rows


def test_distill_group_rows_equal_the_per_cell_reference(tmp_path):
    # one stack of every seed's teachers, then one of all their students,
    # gives each cell the rows it has trained alone
    text = (TINY_CONFIGS["distill"].replace("flip_grid = 0.2", "flip_grid = 0.1,0.3")
            .replace("seeds = 0,1", "seeds = 0,1,2"))
    cfg = load_config("distill", cfg_file(tmp_path, text))
    assert (len(cfg.flip_grid), len(cfg.seeds)) == (2, 3)
    ds = experiments._build_dataset(cfg)
    for fi in range(len(cfg.flip_grid)):
        got = experiments._distill_group(ds, {"cfg": cfg, "flip_index": fi})
        want = [row for s in cfg.seeds for row in reference_distill_cell(ds, cfg, fi, s)]
        assert [sorted((k, repr(v)) for k, v in row.items()) for row in got] == \
            [sorted((k, repr(v)) for k, v in row.items()) for row in want]


def reference_correlate_units(ds, cfg):
    """correlate trained one unit at a time: (baseline rows in (seed, kind)
    order, noisy rows per repeat). Each seed's teacher trains alone, then
    its five students as one stack of one seed; each repeat's noisy
    students train as one stack of one seed."""
    ti, test = ds.train_indices, ds.test_indices

    def row(table, result, **fields):
        probs = predict_proba(result.best_model, ds.x[test])
        return {**fields, **xi_bounds(table.rows[ti], ds.p_star[ti], cfg.loss_bound),
                "test_acc": accuracy(probs, ds.y[test]),
                "test_ece": ece(probs, ds.y[test]), "epochs_run": result.epochs_run}

    baselines, noisy = [], []
    for s in range(cfg.baseline_seeds):
        seed = derive_seed(cfg.seed, 1, s)
        teacher = train_model(ds, make_onehot_targets(ds), cfg.train_config(
            seed=seed, patience=0, stop_at_train_acc=1.0))
        tables = {"oht": make_onehot_targets(ds),
                  "ls": make_ls_targets(ds, cfg.ls_epsilon),
                  "gt": make_gt_targets(ds),
                  "kd": extract_kd_targets(teacher, ds),
                  "eskd": extract_eskd_targets(teacher, ds)}
        results = train_stack([(ds, t, seed) for t in tables.values()],
                              cfg.train_config(seed=seed))
        baselines += [row(table, result, supervision=kind, noise_scale=math.nan, seed=s)
                      for (kind, table), result in zip(tables.items(), results)]
    for r in range(cfg.noise_seeds):
        tables = [TargetTable(perturb_target(ds.p_star, noise, stream(cfg.seed, "perturb", j, r)))
                  for j, noise in enumerate(cfg.noise_grid)]
        tconfig = cfg.train_config(seed=derive_seed(cfg.seed, 2, r))
        results = train_stack([(ds, t, tconfig.seed) for t in tables], tconfig)
        noisy.append([row(table, result, supervision="noisy_gt", noise_scale=noise, seed=r)
                      for table, result, noise in zip(tables, results, cfg.noise_grid)])
    return baselines, noisy


def test_correlate_group_rows_equal_the_per_unit_reference(tmp_path):
    # one stack of every seed's teachers, then one of all their students,
    # and one stack of every noisy student give each unit the rows it has
    # trained alone, in (seed, kind) and then (noise level, repeat) order
    cfg = load_config("correlate", cfg_file(tmp_path, CORRELATE_MULTI))
    assert (cfg.baseline_seeds, cfg.noise_seeds, len(cfg.noise_grid)) == (2, 2, 2)
    ds = experiments._build_dataset(cfg)
    got = [row for what in ("baselines", "noise")
           for row in experiments._correlate_group(ds, {"cfg": cfg, "what": what})]
    baselines, noisy = reference_correlate_units(ds, cfg)
    want = baselines + [noisy[r][j] for j in range(len(cfg.noise_grid))
                        for r in range(cfg.noise_seeds)]
    assert [sorted((k, repr(v)) for k, v in row.items()) for row in got] == \
        [sorted((k, repr(v)) for k, v in row.items()) for row in want]


def test_correlate_teacher_ignores_the_students_temperature_and_beta(tmp_path):
    # the kd and eskd tables come from the one-hot teacher at tau = 1 and
    # beta = 1, so their measures do not move with the students' keys
    measures = []
    for extra in ("", "temperature = 2\nbeta = 0.5\n"):
        out = tmp_path / f"o{len(measures)}"
        assert main(["correlate", "--config", cfg_file(tmp_path, TINY_CONFIGS["correlate"] + extra),
                     "--out", str(out)]) == 0
        columns, rows = experiments.read_csv(out / "runs.csv")
        at = [columns.index(c) for c in ("supervision", "l2_gap", "l1_gap", *XI_TERMS)]
        measures.append([[row[i] for i in at] for row in rows
                         if row[columns.index("supervision")] in ("kd", "eskd")])
    assert len(measures[0]) == 2 and measures[0] == measures[1]


def test_recovery_filtered_column_equals_the_replayed_path_ema(tmp_path):
    # the teacher's Filter-KD table, folded in once per epoch, gives every
    # epoch the recovery of the EMA of the flipped rows' recorded paths
    cfg = load_config("recovery", cfg_file(tmp_path, TINY_CONFIGS["recovery"]))
    out = tmp_path / "o"
    out.mkdir()
    experiments.run_recovery(cfg, str(out))
    columns, rows = experiments.read_csv(out / "recovery.csv")
    got = [float(row[columns.index("filtered_recovery")]) for row in rows]
    ds = experiments._build_dataset(cfg)
    flip, truth = ds.flipped_indices, ds.original_y[ds.flipped_indices]
    paths = PathStore(ds.train_indices, ds.num_classes)
    teacher = train_model(ds, make_onehot_targets(ds), cfg.train_config(patience=0),
                          paths=paths.log)
    q0 = predict_proba(teacher.init_model, ds.x)
    cols = np.searchsorted(paths.indices, flip)
    filtered = ema_filter(paths.preds[:, cols], cfg.filter_alpha, q0[flip])[1:]
    want = [accuracy(q0[flip], truth)] + [accuracy(q, truth) for q in filtered]
    assert len(want) == cfg.max_epochs + 1 and got == want


def test_recovery_memory_is_flat_in_epochs(tmp_path):
    # the teacher keeps its running table, not its path: 36 more epochs
    # cost less than one epoch's path of the 500 train rows
    text = "n_samples = 1000\nratios = 0.5,0.25,0.25\nhidden_sizes = 12\nflip_ratio = 0.3\n"
    epoch_bytes = 500 * 3 * 8
    peaks = {}
    for epochs in (1, 4, 40):  # the first run is a warm-up
        cfg = load_config("recovery", cfg_file(tmp_path, text + f"max_epochs = {epochs}\n"))
        out = tmp_path / f"o{epochs}"
        out.mkdir()
        tracemalloc.start()
        try:
            experiments.run_recovery(cfg, str(out))
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] - peaks[4] < epoch_bytes, peaks


class _InlineExecutor:
    """A ProcessPoolExecutor stand-in that records its max_workers and runs
    every task in this process, at submit."""

    opened = []

    def __init__(self, max_workers, initializer, initargs):
        self.opened.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestDispatch:
    """The pool has at most one worker per task, and none for one task."""

    @pytest.mark.parametrize("jobs,n_tasks,opened", [
        (64, 5, [5]), (2, 5, [2]), (64, 1, []), (1, 5, [])])
    def test_workers_capped_at_the_task_count(self, monkeypatch, jobs, n_tasks,
                                              opened):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(_InlineExecutor, "opened", [])
        monkeypatch.setattr(experiments, "_POOL_DS", None)
        got = experiments._dispatch(lambda ds, t: (ds, t * t), "ds",
                                    list(range(n_tasks)), jobs)
        assert got == [("ds", t * t) for t in range(n_tasks)]
        assert _InlineExecutor.opened == opened

    def test_more_jobs_than_cells_writes_the_same_bytes(self, tmp_path):
        assert_same_bytes_at_jobs(tmp_path, "distill", TINY_CONFIGS["distill"], "8")

    def test_a_pool_of_flip_ratios_writes_the_same_bytes(self, tmp_path):
        assert_same_bytes_at_jobs(tmp_path, "distill", DISTILL_MULTI, "2")


class TestAcceptedConfigsFinish:
    """Sweeps whose runs diverge in ways the loop does not see at a visit
    finish and list those runs, instead of ending in a traceback."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,text,n_failed", [
        # a run whose gradient overflowed left the stack; its gradient row
        # must not stay in the rows the kept runs go on with
        ("distill", "num_classes = 5\ninput_dim = 2\nratios = 0.2,0.4,0.4\n"
                    "learning_rate = 5.0\nmax_epochs = 3\npatience = 1\n", 33),
        ("correlate", "learning_rate = 5.0\nmax_epochs = 3\n", 50),
        # every visited row stays finite, and the test split overflows
        ("correlate", "n_samples = 14\nmax_epochs = 1\nhidden_sizes = 4,2\n"
                      "noise_grid = 0.0\nnoise_seeds = 1\nbaseline_seeds = 1\n"
                      "sigma = 1e100\n", 5),
    ], ids=["distill-gradient", "correlate-gradient", "correlate-test-split"])
    def test_sweep_lists_its_failed_runs(self, tmp_path, command, text, n_failed):
        out = tmp_path / "o"
        assert main([command, "--config", cfg_file(tmp_path, text),
                     "--out", str(out)]) == 0
        csv = (out / ("distill.csv" if command == "distill" else "runs.csv")).read_text()
        assert f"# diverged_runs = {n_failed}\n" in csv
        assert csv.count("\n# failed_run = ") == n_failed


class TestSingleRunDivergence:
    """A model that diverges in a single-run command is an error exit."""

    DIVERGING = ("n_samples = 100\nratios = 0.5,0.25,0.25\n"
                 "hidden_sizes = 8\nlearning_rate = 1000\n")

    # recovery's teacher needs a larger step to diverge; the parser
    # rejects a repeated key, so its text is its own
    RECOVERY = DIVERGING.replace("learning_rate = 1000", "learning_rate = 1e4")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,extra", [("distance-gap", "max_epochs = 3\n"),
                                               ("ntk-verify", ""),
                                               ("recovery", "max_epochs = 3\n")])
    def test_exits_one_with_the_message(self, tmp_path, capsys, command, extra):
        out = tmp_path / "o"
        text = self.RECOVERY if command == "recovery" else self.DIVERGING
        path = cfg_file(tmp_path, text + extra)
        rc = main([command, "--config", path, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: non-finite state at epoch")
        # the partial --out says that the run failed, and why
        cfg = load_config(command, path)
        *echo, error = (out / "summary.txt").read_text().splitlines()
        assert echo == cfg.echo_lines()
        assert error.startswith("error = non-finite state at epoch")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("supervisions", ["gt,oht", "gt,ls"])
    def test_distance_gap_raises_the_first_supervisions_error(self, tmp_path, capsys,
                                                              supervisions):
        # its supervisions train as one stack; the error is the first one's
        # in supervisions order, as that run trained alone raises it. At
        # gt,ls the ls run diverges at an earlier step than the gt run
        path = cfg_file(tmp_path, self.DIVERGING + "max_epochs = 3\n"
                        f"supervisions = {supervisions}\n")
        assert main(["distance-gap", "--config", path, "--out", str(tmp_path / "o")]) == 1
        cfg = load_config("distance-gap", path)
        ds = experiments._build_dataset(cfg)
        table = experiments._teacher_free_tables(ds, cfg.ls_epsilon)[cfg.supervisions[0]]
        with pytest.raises(DivergenceError) as alone:
            train_model(ds, table, cfg.train_config())
        # the CLI prints the message on one line
        assert capsys.readouterr().err == f"error: {' '.join(str(alone.value).split())}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_decomposition_step_that_overflows(self, tmp_path, capsys):
        # no training run diverges here: the decomposition's own SGD step
        # at eta = 1e300 leaves non-finite logits
        text = ("eta_grid = 1e300\nnum_classes = 2\nn_samples = 60\n"
                "hidden_sizes = 4\n")
        out = tmp_path / "o"
        assert main(["ntk-verify", "--config", cfg_file(tmp_path, text),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: non-finite logits after the decomposition step")
        cfg = load_config("ntk-verify", cfg_file(tmp_path, text))
        *echo, error = (out / "summary.txt").read_text().splitlines()
        assert echo == cfg.echo_lines()
        assert error.startswith("error = non-finite logits after the decomposition step")


class TestUndefinedSpearman:
    """A rank correlation with constant input reads NaN and fails its check;
    the summary is still written and the exit code stays 0."""

    CORRELATE = ("n_samples = 30\nratios = 0.1,0.1,0.8\nmax_epochs = 2\n"
                 "hidden_sizes = 4\nnoise_seeds = 1\nbaseline_seeds = 1\n"
                 "noise_grid = 0.1\n")
    ZIGZAG = ("n_samples = 150\nratios = 0.5,0.25,0.25\nmax_epochs = 8\n"
              "hidden_sizes = 16\ndelta_mu = 0\n")

    @pytest.mark.parametrize("perm_test", [0, 20])
    def test_correlate_with_constant_accuracy(self, tmp_path, perm_test):
        out = tmp_path / "o"
        path = cfg_file(tmp_path, self.CORRELATE + f"perm_test = {perm_test}\n")
        assert main(["correlate", "--config", path, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "spearman_gap_acc = nan\n" in summary
        assert "check gap_acc_negative: FAIL (spearman = nan)\n" in summary
        # the p-value of an undefined rho is skipped, the defined one kept
        assert "perm_pvalue_gap_acc" not in summary
        assert ("perm_pvalue_gap_ece = " in summary) == (perm_test > 0)

    @pytest.mark.filterwarnings("ignore:delta_mu = 0")
    def test_zigzag_with_equal_difficulties(self, tmp_path):
        out = tmp_path / "o"
        assert main(["zigzag", "--config", cfg_file(tmp_path, self.ZIGZAG),
                     "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "spearman_difficulty_score = nan\n" in summary
        assert "check difficulty_score_rank: FAIL (spearman = nan)\n" in summary


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


def fmt_cell(v) -> str:
    """One CSV cell as write_csv wrote it cell by cell, before its line formats."""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                  -5e-324, 2.2250738585072009e-308, 0.1, 2.0 ** 70]))
_CELLS = st.one_of(
    st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.integers(-128, 127).map(np.int8),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 2 ** 64 - 1).map(np.uint64),
    _FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.text(max_size=5), st.text(max_size=5).map(np.str_), st.none())


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(_CELLS, max_size=8), max_size=6))
    @example(rows=[[True, np.True_, 2 ** 70, np.int8(-7), 0.1, -0.0, np.float32(0.1),
                    math.nan, -math.inf, 5e-324, "s", None]] * 2)
    def test_lines_equal_the_per_cell_join(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "write_csv.csv"
        experiments.write_csv(path, ["# a = 1"], ["c0", "c1"], iter(rows))
        want = "".join(["# a = 1\n", "c0,c1\n"]
                       + [",".join(fmt_cell(v) for v in row) + "\n" for row in rows])
        with open(path, newline="") as fh:  # no newline translation
            assert fh.read() == want


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
