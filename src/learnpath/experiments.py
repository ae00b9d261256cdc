"""Experiment drivers behind the CLI subcommands.

Each run_* function takes a validated ExperimentConfig plus an output
directory, writes CSV artifacts and a summary.txt, and returns a list
of (name, passed, detail) checks. Checks are informational for most
commands; ntk-verify turns failed checks into a non-zero exit.

The sweeps spread their tasks, which come from the config alone, over
--jobs worker processes: distill one per flip ratio, correlate two, its
baselines and its noisy students. A task trains its teachers, if any,
as one lockstep stack, then all its students as another. distance-gap's
supervisions are one stack too, at one seed: one init, one visit order.

Determinism contract: given the same config (including master seed),
every artifact is byte-identical across re-runs and across --jobs
settings. That means fixed float formatting (%.17g), run collation in
descriptor order rather than completion order, and no timestamps or
absolute paths inside outputs.
"""

from __future__ import annotations

import math
import os

import numpy as np

from learnpath.config import ExperimentConfig
from learnpath.csvio import write_csv
from learnpath.metrics import (XI_TERMS, accuracy, ece, spearman,
                               spearman_perm_pvalue, xi_bounds)
from learnpath.ntkcheck import (residual_scaling_test, similarity_trace_study,
                                trace_evolution)
from learnpath.numerics import init_mlp, predict_proba
from learnpath.pathtrace import (PathStore, PathSums, barycentric_project,
                                 base_difficulty, ema_filter, zigzag_score)
from learnpath.rngstreams import derive_seed, stream
from learnpath.supervision import (DivergenceError, FilterTables, TargetTable,
                                   extract_eskd_targets, extract_kd_targets,
                                   make_gt_targets, make_ls_targets,
                                   make_onehot_targets, predict_or_diverge,
                                   train_filterkd_teachers, train_model,
                                   train_stack)
from learnpath.toygauss import (ToyDataset, flip_labels, perturb_target,
                                sample_dataset, save_dataset, split_dataset)

__all__ = [
    "run_gen_data", "run_correlate", "run_paths", "run_distance_gap",
    "run_recovery", "run_distill", "run_ntk_verify", "run_zigzag",
    "read_csv", "RUNNERS",
]


def read_csv(path):
    """(columns, rows-as-string-lists), skipping '#' header lines."""
    columns, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#") or not line:
                continue
            parts = line.split(",")
            if columns is None:
                columns = parts
            else:
                rows.append(parts)
    return columns, rows


def _write_summary(out_dir, cfg, lines, checks) -> None:
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        for line in cfg.echo_lines():
            fh.write(line + "\n")
        for line in lines:
            fh.write(line + "\n")
        for name, ok, detail in checks:
            fh.write(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})\n")


def _build_dataset(cfg: ExperimentConfig) -> ToyDataset:
    """The config's dataset, split, with its flip_ratio of train labels flipped."""
    ds = split_dataset(sample_dataset(cfg.gaussian_spec(), cfg.n_samples), cfg.ratios)
    return flip_labels(ds, getattr(cfg, "flip_ratio", 0.0), seed=cfg.seed)


def _test_metrics(model, ds):
    idx = ds.test_indices
    probs = predict_or_diverge(model, ds.x[idx], "predicting the test split")
    return accuracy(probs, ds.y[idx]), ece(probs, ds.y[idx])


def _mean_se(values):
    """(mean, standard error) of values; one value has an error of 0."""
    a = np.array(values)
    return a.mean(), (a.std(ddof=1) / np.sqrt(len(a)) if len(a) > 1 else 0.0)


# ---------------------------------------------------------------- gen-data

def run_gen_data(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    save_dataset(ds, os.path.join(out_dir, "dataset.csv"))
    lines = [
        f"n_samples = {ds.n}",
        f"n_train = {len(ds.train_indices)}",
        f"n_valid = {len(ds.valid_indices)}",
        f"n_test = {len(ds.test_indices)}",
        f"n_flipped = {len(ds.flipped_indices)}",
    ]
    _write_summary(out_dir, cfg, lines, [])
    return []


# ------------------------------------------------------- worker processes

# worker-global dataset, set once per pool worker to avoid re-pickling
_POOL_DS = None


def _pool_init(ds):
    global _POOL_DS
    _POOL_DS = ds


def _dispatch(worker, ds, tasks, jobs: int):
    """Run worker(ds, task) for every task, preserving task order, on at
    most one worker process per task (none for a single worker)."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [worker(ds, t) for t in tasks]
    # imported only when a pool starts: its modules add about 3.5 MB of RSS
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                             initargs=(ds,)) as pool:
        futures = [pool.submit(_pool_entry, worker, t) for t in tasks]
        return [f.result() for f in futures]


def _pool_entry(worker, task):
    return worker(_POOL_DS, task)


# --------------------------------------------------------------- correlate

def _stack_rows(runs, tconfig):
    """Train runs in one lockstep stack; returns one row per run.

    runs are (name, fields, ds, seed, table) tuples that share tconfig but
    their seed, their labelled copy ds of one dataset and their table; a
    table that is a string says why the run has none (the teacher it
    comes from diverged). runs is read once, as train_stack reads its
    runs, so a generator lets each table go once the stack holds its
    train rows. A finished run's row is its fields plus _student_row's
    measures; a failed one has its name under "run" and why it has no
    result under "error": its own divergence, in training or on the test
    split, or its table's string.
    """
    described = []

    def trainable():
        for name, fields, ds, seed, table in runs:
            error = table if isinstance(table, str) else None
            described.append((name, fields, ds, error))
            if error is None:
                yield ds, table, seed
    trained = iter(train_stack(trainable(), tconfig))
    rows = []
    for name, fields, ds, error in described:
        result = error or next(trained)
        if not isinstance(result, (str, DivergenceError)):
            try:
                rows.append({**fields, **_student_row(ds, result)})
                continue
            except DivergenceError as err:
                result = err
        rows.append({"run": name, "error": str(result)})
    return rows


def _write_sweep(path, cfg, columns, runs):
    """Write a sweep's finished runs as numbered rows, its failed ones as
    header lines; returns (finished rows, failure lines), order kept.

    columns[0] numbers the rows; the others are keys of a finished row.
    """
    rows, failed = [], []
    for row in runs:
        if "error" in row:
            failed.append(f"{row['run']}: {' '.join(row['error'].split())}")
        else:
            rows.append(row)
    header = (cfg.echo_lines() + [f"# diverged_runs = {len(failed)}"]
              + [f"# failed_run = {message}" for message in failed])
    write_csv(path, header, columns,
              ([i, *(row[c] for c in columns[1:])] for i, row in enumerate(rows)))
    return rows, failed


def _student_row(ds, result):
    """Measure one trained student on the test split."""
    acc, cal = _test_metrics(result.best_model, ds)
    return {"test_acc": acc, "test_ece": cal, "epochs_run": result.epochs_run}


def _teacher_free_tables(ds, ls_epsilon):
    """The supervisions built from labels or p* alone: one-hot, label
    smoothing and ground truth."""
    return {"oht": make_onehot_targets(ds),
            "ls": make_ls_targets(ds, ls_epsilon),
            "gt": make_gt_targets(ds)}


_BASELINE_ORDER = ("oht", "ls", "gt", "kd", "eskd")


def _correlate_group(ds, task):
    """One of correlate's two tasks: "baselines", every seed's one-hot
    teacher as one stack, then all their students as one more in (seed,
    kind) order; or "noise", the noisy students as one stack in (noise
    level, repeat) order. A run has its seed's or repeat's seed, and its
    table is built as the stack reads it."""
    cfg = task["cfg"]
    ti = ds.train_indices

    def run(name, table, seed, fields):
        if not isinstance(table, str):  # the gap terms read only the table
            fields.update(xi_bounds(table.rows[ti], ds.p_star[ti], cfg.loss_bound))
        return name, fields, ds, seed, table

    def baselines():
        tables = _teacher_free_tables(ds, cfg.ls_epsilon)
        seeds = [derive_seed(cfg.seed, 1, s) for s in range(cfg.baseline_seeds)]
        # the one-hot table run at tau = 1, beta = 1, whatever the students'
        teachers = train_stack([(ds, tables["oht"], seed) for seed in seeds],
                               cfg.train_config(patience=0, stop_at_train_acc=1.0,
                                                temperature=1.0, beta=1.0))
        for s, (seed, teacher) in enumerate(zip(seeds, teachers)):
            try:
                if isinstance(teacher, DivergenceError):
                    raise teacher
                tables["kd"] = extract_kd_targets(teacher, ds)
                tables["eskd"] = extract_eskd_targets(teacher, ds)
            except DivergenceError as err:
                tables["kd"] = tables["eskd"] = f"teacher: {err}"
            for kind in _BASELINE_ORDER:
                yield run(f"baseline/seed={s} {kind}", tables[kind], seed,
                          {"supervision": kind, "noise_scale": math.nan, "seed": s})

    def noisy():
        for j, noise in enumerate(cfg.noise_grid):
            for r in range(cfg.noise_seeds):
                rows = perturb_target(ds.p_star, noise, stream(cfg.seed, "perturb", j, r))
                yield run(f"noise_scale={noise:g}/seed={r} noisy_gt", TargetTable(rows),
                          derive_seed(cfg.seed, 2, r),
                          {"supervision": "noisy_gt", "noise_scale": noise, "seed": r})

    runs = baselines() if task["what"] == "baselines" else noisy()
    return _stack_rows(runs, cfg.train_config())


def run_correlate(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    tasks = [{"cfg": cfg, "what": what} for what in ("baselines", "noise")]
    groups = _dispatch(_correlate_group, ds, tasks, jobs)
    rows, diverged = _write_sweep(
        os.path.join(out_dir, "runs.csv"), cfg,
        ["run_id", "supervision", "noise_scale", "seed", "l2_gap", "l1_gap",
         "test_acc", "test_ece", *XI_TERMS, "epochs_run"],
        [row for group in groups for row in group])

    gaps = [row["l2_gap"] for row in rows]
    accs = [row["test_acc"] for row in rows]
    eces = [row["test_ece"] for row in rows]
    rho_acc, rho_ece = spearman(gaps, accs), spearman(gaps, eces)
    lines = [
        f"n_runs = {len(rows)}",
        f"n_diverged = {len(diverged)}",
        f"spearman_gap_acc = {rho_acc:.17g}",
        f"spearman_gap_ece = {rho_ece:.17g}",
    ]
    if cfg.perm_test > 0:
        rng = stream(cfg.seed, "permtest")
        for name, rho, ys in (("acc", rho_acc, accs), ("ece", rho_ece, eces)):
            if not math.isnan(rho):
                lines.append(f"perm_pvalue_gap_{name} = "
                             f"{spearman_perm_pvalue(gaps, ys, cfg.perm_test, rng):.17g}")
    by_kind = {}
    for row in rows:
        if row["supervision"] != "noisy_gt":
            by_kind.setdefault(row["supervision"], []).append(row["test_acc"])
    for kind in _BASELINE_ORDER:
        if kind in by_kind:
            mean, se = _mean_se(by_kind[kind])
            lines.append(f"baseline_{kind}: mean_acc = {mean:.17g} "
                         f"se = {se:.17g} n = {len(by_kind[kind])}")
    checks = [
        ("gap_acc_negative", rho_acc < 0, f"spearman = {rho_acc:.3f}"),
        ("gap_ece_positive", rho_ece > 0, f"spearman = {rho_ece:.3f}"),
    ]
    _write_summary(out_dir, cfg, lines, checks)
    return checks


# ------------------------------------------------------------------- paths

def _difficulty_picks(ds, fractions):
    """(base difficulty of each train row, the train columns at each
    fraction f in [0, 1] of the stable difficulty order, at position
    round(f * (n_train - 1)))."""
    ti = ds.train_indices
    diffs = base_difficulty(ds.y[ti], ds.p_star[ti])
    order = np.argsort(diffs, kind="stable")
    return diffs, [order[int(round(f * (ti.size - 1)))] for f in fractions]


def run_paths(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    paths = PathStore(ds.train_indices, ds.num_classes)
    train_model(ds, make_onehot_targets(ds), cfg.train_config(), paths=paths)
    paths.export_csv(os.path.join(out_dir, "paths.csv"), cfg.echo_lines())

    ti = ds.train_indices  # the columns of paths.preds
    diffs, cols = _difficulty_picks(ds, cfg.quantiles)
    qs = paths.preds[:, cols]  # (T, quantiles, K)
    lines = []
    for j, (q, col) in enumerate(zip(cfg.quantiles, cols)):
        i = int(ti[col])
        ey = np.eye(ds.num_classes)[ds.y[i]]
        d_star = np.linalg.norm(qs[:, j] - ds.p_star[i], axis=1)
        lines.append(
            f"quantile {q:g}: sample = {i} difficulty = {diffs[col]:.17g} "
            f"end_dist_onehot = {np.linalg.norm(qs[-1, j] - ey):.17g} "
            f"min_dist_pstar = {d_star.min():.17g} "
            f"final_dist_pstar = {d_star[-1]:.17g}")
    if ds.num_classes == 3:
        filtered = ema_filter(qs[1:], cfg.ema_alpha, qs[0])
        xy = barycentric_project(np.stack([qs, filtered]))  # (2, T, quantiles, 2)
        steps = paths.steps[:, cols]
        write_csv(os.path.join(out_dir, "projections.csv"), cfg.echo_lines(),
                  ["sample_index", "quantile", "step", "px", "py", "filtered"],
                  ([ti[col], q, step, *xy[flag, t, j], flag]
                   for j, (q, col) in enumerate(zip(cfg.quantiles, cols))
                   for flag in (0, 1) for t, step in enumerate(steps[:, j])))
    _write_summary(out_dir, cfg, lines, [])
    return []


# ------------------------------------------------------------ distance-gap

def run_distance_gap(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    tables = _teacher_free_tables(ds, cfg.ls_epsilon)
    ti = ds.train_indices
    diffs = base_difficulty(ds.y[ti], ds.p_star[ti])
    results = train_stack([(ds, tables[kind], cfg.seed) for kind in cfg.supervisions],
                          cfg.train_config())
    rows, lines = [], []
    for kind, result in zip(cfg.supervisions, results):
        if isinstance(result, DivergenceError):
            raise result
        stages = (("init", result.init_model),
                  ("early_stop", result.best_model),
                  ("converged", result.final_model))
        for stage, model in stages:
            q = predict_proba(model, ds.x[ti])
            d_star = np.linalg.norm(q - ds.p_star[ti], axis=1)
            d_tar = np.linalg.norm(q - tables[kind].rows[ti], axis=1)
            for pos, i in enumerate(ti):
                rows.append([kind, stage, int(i), diffs[pos],
                             d_star[pos], d_tar[pos]])
            lines.append(f"{kind}/{stage}: mean_dist_pstar = {d_star.mean():.17g} "
                         f"mean_dist_ptar = {d_tar.mean():.17g}")
        lines.append(f"{kind}: best_epoch = {result.best_epoch} "
                     f"epochs_run = {result.epochs_run}")
    write_csv(os.path.join(out_dir, "distance_gap.csv"), cfg.echo_lines(),
              ["supervision", "stage", "sample_index", "base_difficulty",
               "dist_q_pstar", "dist_q_ptar"], rows)
    _write_summary(out_dir, cfg, lines, [])
    return []


# ---------------------------------------------------------------- recovery

def run_recovery(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    flip, truth = ds.flipped_indices, ds.original_y[ds.flipped_indices]
    ti, vi = ds.train_indices, ds.valid_indices
    tconfig = cfg.train_config(patience=0)
    # the teacher's Filter-KD table: its init predictions, then each epoch's fold
    sink = FilterTables(ds, tconfig, tconfig.seed, (cfg.filter_alpha,))
    [table] = sink.rows.values()
    init_rec = accuracy(table[flip], truth)
    vacc0 = accuracy(table[vi], ds.y[vi])
    tacc0 = accuracy(table[ti], ds.y[ti])
    raw_hist, filt_hist = [], []

    def snap(epoch, model):
        raw_hist.append(accuracy(predict_proba(model, ds.x[flip]), truth))
        filt_hist.append(accuracy(table[flip], truth))

    teacher = train_model(ds, make_onehot_targets(ds), tconfig,
                          epoch_callback=snap, paths=sink)
    rows = [[0, init_rec, init_rec, vacc0, tacc0]]
    for e, (raw, filt) in enumerate(zip(raw_hist, filt_hist)):
        rows.append([e + 1, raw, filt, teacher.valid_acc_history[e],
                     teacher.train_acc_history[e]])
    write_csv(os.path.join(out_dir, "recovery.csv"), cfg.echo_lines(),
              ["epoch", "raw_recovery", "filtered_recovery", "valid_acc",
               "train_acc"], rows)

    raw_all = [init_rec] + raw_hist
    filt_all = [init_rec] + filt_hist
    raw_peak, filt_peak = max(raw_all), max(filt_all)
    converged = raw_all[-1]
    uniform = 1.0 / ds.num_classes
    lines = [
        f"n_flipped = {flip.size}",
        f"uniform_level = {uniform:.17g}",
        f"initial_recovery = {init_rec:.17g}",
        f"raw_peak = {raw_peak:.17g} at_epoch = {int(np.argmax(raw_all))}",
        f"filtered_peak = {filt_peak:.17g} at_epoch = {int(np.argmax(filt_all))}",
        f"converged_raw = {converged:.17g}",
        f"best_valid_epoch = {teacher.best_epoch + 1}",
    ]
    checks = [
        ("initial_near_uniform", abs(init_rec - uniform) <= 0.1,
         f"initial = {init_rec:.3f}, 1/K = {uniform:.3f}"),
        ("filtered_peak_ge_raw_peak", filt_peak >= raw_peak,
         f"{filt_peak:.3f} vs {raw_peak:.3f}"),
        ("raw_peak_ge_converged", raw_peak >= converged,
         f"{raw_peak:.3f} vs {converged:.3f}"),
    ]
    _write_summary(out_dir, cfg, lines, checks)
    return checks


# ----------------------------------------------------------------- distill

_DISTILL_ORDER = ("oht", "eskd", "filter_kd", "gt")


def _distill_runs(fr, s, flipped, seed, teacher, alphas):
    """The students of one (flip_ratio, seed) cell, as _stack_rows runs,
    in _DISTILL_ORDER with one filter_kd per alpha."""
    if isinstance(teacher, DivergenceError):
        eskd = f"teacher: {teacher}"
        tables = dict.fromkeys(alphas, eskd)
    else:
        result, tables = teacher
        try:
            eskd = extract_eskd_targets(result, flipped)
        except DivergenceError as err:
            eskd = f"teacher: {err}"

    def run(kind, table, alpha=math.nan):
        name = f"{kind}(alpha={alpha:g})" if kind == "filter_kd" else kind
        return (f"flip_ratio={fr:g}/seed={s} {name}",
                {"flip_ratio": fr, "seed": s, "supervision": kind, "alpha": alpha},
                flipped, seed, table)

    return [run("oht", make_onehot_targets(flipped)), run("eskd", eskd),
            *(run("filter_kd", tables[a], a) for a in alphas),
            run("gt", make_gt_targets(flipped))]


def _distill_group(ds, task):
    """Every seed's teacher and students at one flip ratio.

    The seeds' Filter-KD teachers train as one stack, each on its own
    flipped labels and seed, then all their students as one more; rows
    come in (seed, student) order. The students' tables are built one
    cell at a time as the stack reads them, and each teacher is let go
    once its cell's tables are built.
    """
    cfg = task["cfg"]
    fi = task["flip_index"]
    fr = cfg.flip_grid[fi]
    tconfig = cfg.train_config()
    alphas = tuple(sorted(set(cfg.alpha_grid) | {cfg.filter_alpha}))
    cells = [(s, flip_labels(ds, fr, seed=derive_seed(cfg.seed, 3, fi, s)),
              derive_seed(cfg.seed, 4, s)) for s in cfg.seeds]
    teachers = train_filterkd_teachers(
        [(flipped, seed) for _, flipped, seed in cells], tconfig, alphas)
    teachers.reverse()

    def runs():
        for s, flipped, seed in cells:
            yield from _distill_runs(fr, s, flipped, seed, teachers.pop(), alphas)
    return _stack_rows(runs(), tconfig)


def run_distill(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    tasks = [{"cfg": cfg, "flip_index": fi} for fi in range(len(cfg.flip_grid))]
    groups = _dispatch(_distill_group, ds, tasks, jobs)
    rows, diverged = _write_sweep(
        os.path.join(out_dir, "distill.csv"), cfg,
        ["run_id", "flip_ratio", "seed", "supervision", "alpha", "test_acc",
         "test_ece", "epochs_run"], [row for group in groups for row in group])

    lines, checks = [], []
    order_desc = tuple(reversed(_DISTILL_ORDER))  # gt, filter_kd, eskd, oht
    for fr in cfg.flip_grid:
        cell = {}
        for r in rows:
            if r["flip_ratio"] != fr:
                continue
            kind = r["supervision"]
            if kind == "filter_kd" and r["alpha"] != cfg.filter_alpha:
                continue
            cell.setdefault(kind, {})[r["seed"]] = r["test_acc"]
        shared = set(cfg.seeds)
        for kind in _DISTILL_ORDER:
            shared &= set(cell.get(kind, ()))
        shared = sorted(shared)
        if not shared:
            lines.append(f"flip {fr:g}: no seed finished all four supervisions")
            checks.append((f"order_flip{fr:g}", False, "no complete seeds"))
            continue
        for kind in _DISTILL_ORDER:
            mean, se = _mean_se([cell[kind][s] for s in shared])
            lines.append(f"flip {fr:g} {kind}: mean_acc = {mean:.17g} "
                         f"se = {se:.17g} n = {len(shared)}")
        for hi, lo in zip(order_desc, order_desc[1:]):
            mean, se = _mean_se([cell[hi][s] - cell[lo][s] for s in shared])
            lines.append(f"flip {fr:g} gap {hi}-{lo}: mean = {mean:.17g} "
                         f"se = {se:.17g}")
            checks.append((f"order_{hi}_ge_{lo}_flip{fr:g}", mean + se >= 0,
                           f"gap = {mean:.4f} se = {se:.4f}"))
    lines.append(f"n_diverged = {len(diverged)}")
    _write_summary(out_dir, cfg, lines, checks)
    return checks


# -------------------------------------------------------------- ntk-verify

def run_ntk_verify(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    ti = ds.train_indices
    k = ds.num_classes
    model = init_mlp((cfg.input_dim, *cfg.hidden_sizes, k), seed=cfg.seed)

    pair_rng = stream(cfg.seed, "pairs")
    o, u = np.array([pair_rng.choice(ti, size=2, replace=False)
                     for _ in range(cfg.n_pairs)]).T
    p_tars = perturb_target(ds.p_star[u], cfg.target_noise, stream(cfg.seed, "pairs", 1))
    dec, medians = residual_scaling_test(model, ds.x[o], ds.x[u], p_tars, cfg.eta_grid)
    write_csv(os.path.join(out_dir, "decomposition.csv"), cfg.echo_lines(),
              ["pair_id", "eta", "residual_norm",
               *[f"pred_{i}" for i in range(k)], *[f"act_{i}" for i in range(k)],
               "trace_a", "trace_kernel"],  # dec's fields in order, (K,) ones by column
              zip(*(c.tolist() for f in dec.dtype.names
                    for c in dec[f].reshape(len(dec), -1).T)))

    lines, checks = [], []
    for (e1, m1), (e2, m2) in zip(medians, medians[1:]):
        lines.append(f"median_residual eta = {e1:g}: {m1:.17g}")
        if abs(e1 / e2 - 2.0) < 1e-9:
            ratio = m1 / m2 if m2 > 0 else math.inf
            checks.append((f"residual_ratio_{e1:g}_{e2:g}",
                           3.0 <= ratio <= 5.0, f"ratio = {ratio:.3f}"))
    lines.append(f"median_residual eta = {medians[-1][0]:g}: {medians[-1][1]:.17g}")

    studies = []
    n_probe = min(3, ti.size)
    n_sim = min(cfg.n_similarity, ti.size)
    sim_targets = ds.x[ti[:n_sim]]
    for pidx in range(n_probe):
        probe = ds.x[ti[pidx]]
        recs = similarity_trace_study(model, probe, sim_targets)
        studies.append(recs)
        mask = np.arange(n_sim) != pidx  # drop the self pair
        rho = spearman(recs["cosine"][mask], recs["trace"][mask])
        # measured sign is reported, not asserted: which way the rank
        # correlation points is an open empirical question
        sign = "+" if rho >= 0 else "-" if rho < 0 else "none"
        lines.append(f"similarity probe {pidx}: spearman = {rho:.17g} sign = {sign}")
    write_csv(os.path.join(out_dir, "similarity.csv"), cfg.echo_lines(),
              ["probe_id", "index", "cosine", "trace"],
              ((pidx, *row) for pidx, recs in enumerate(studies) for row in recs.tolist()))
    del o, u, p_tars, dec, studies, sim_targets, recs  # written; not held through training

    checkpoints = [model.copy()]
    tcfg = cfg.train_config(max_epochs=cfg.trace_epochs, patience=0)
    train_model(ds, make_onehot_targets(ds), tcfg,
                epoch_callback=lambda e, m: checkpoints.append(m.copy()))
    _, cols = _difficulty_picks(ds, np.linspace(0.0, 1.0, cfg.trace_samples))
    picks = [int(ti[col]) for col in cols]
    traces = [trace_evolution(checkpoints, ds.x[i]).tolist() for i in picks]
    slack_max = 1.0 - 1.0 / k
    traces_ok = all(-1e-12 <= v <= slack_max + 1e-12 for tr in traces for v in tr)
    write_csv(os.path.join(out_dir, "trace_evolution.csv"), cfg.echo_lines(),
              ["sample_index", "epoch", "trace"],
              ((i, e, v) for i, tr in zip(picks, traces) for e, v in enumerate(tr)))
    checks.append(("trace_within_bounds", traces_ok,
                   f"bounds [0, {slack_max:.17g}]"))
    _write_summary(out_dir, cfg, lines, checks)
    return checks


# ------------------------------------------------------------------ zigzag

def run_zigzag(cfg: ExperimentConfig, out_dir, jobs: int = 1):
    ds = _build_dataset(cfg)
    ti = ds.train_indices  # the rows of paths.sums
    paths = PathSums(ti.size, ds.num_classes)
    train_model(ds, make_onehot_targets(ds), cfg.train_config(), paths=paths)
    diffs = base_difficulty(ds.y[ti], ds.p_star[ti])
    scores = zigzag_score(paths.sums, ds.y[ti])
    flags = np.isin(ti, ds.flipped_indices)
    write_csv(os.path.join(out_dir, "zigzag.csv"), cfg.echo_lines(),
              ["sample_index", "base_difficulty", "zigzag_score", "flipped"],
              zip(ti, diffs, scores, flags))
    rho = spearman(diffs, scores)
    lines = [f"n_train = {ti.size}",
             f"n_flipped = {int(flags.sum())}",
             f"spearman_difficulty_score = {rho:.17g}"]
    checks = [("difficulty_score_rank", rho >= 0.5, f"spearman = {rho:.3f}")]
    if flags.any() and (~flags).any():
        fm, cm = scores[flags].mean(), scores[~flags].mean()
        lines.append(f"flipped_mean_score = {fm:.17g}")
        lines.append(f"clean_mean_score = {cm:.17g}")
        checks.append(("flipped_scores_higher", fm > cm,
                       f"{fm:.3f} vs {cm:.3f}"))
    _write_summary(out_dir, cfg, lines, checks)
    return checks


RUNNERS = {
    "gen-data": run_gen_data,
    "correlate": run_correlate,
    "paths": run_paths,
    "distance-gap": run_distance_gap,
    "recovery": run_recovery,
    "distill": run_distill,
    "ntk-verify": run_ntk_verify,
    "zigzag": run_zigzag,
}
