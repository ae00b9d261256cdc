"""Self-tests of the benchmark. From the repository root:

    python3 -m pytest perfbench -q

The traced-run tests run each workload twice (under a minute in all).
"""

import functools
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_names_defined_workloads_and_bounds_setup_widest():
    assert set(run.WHY) == set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]


def test_distill_seed_picks_cells_on_a_fixed_dataset():
    wl = WORKLOADS["distill-sweep"]
    (seed_a, cfg_a), (seed_b, cfg_b) = wl.inputs(0), wl.inputs(1)
    assert seed_a == seed_b == wl.data_seed
    assert len(cfg_a["seeds"]) == len(cfg_b["seeds"]) == len(wl.config["seeds"])
    assert not set(cfg_a["seeds"]) & set(cfg_b["seeds"])
    assert WORKLOADS["ntk-verify"].inputs(7) == (7, WORKLOADS["ntk-verify"].config)


def test_wall_time_leaves_out_stolen_time():
    before = run.stolen_s()
    assert 0.0 <= before <= run.stolen_s()
    res = run.ProcResult(rc=0, elapsed_s=5.0, steal_s=0.5, cpu_s=9.0, peak_rss_mb=1.0)
    assert res.wall_s == pytest.approx(4.5)


def test_self_time_subtracts_leaves_and_covered_part_of_children():
    def span(sid, parent, t0, t1):
        return {"id": sid, "parent": parent, "t0": t0, "t1": t1}
    # two children in pool workers overlap each other; one leaf under root
    spans = [span("r", None, 0.0, 10.0), span("a", "r", 1.0, 4.0),
             span("w1", "r", 2.0, 6.0), span("w2", "r", 5.0, 8.0),
             span("c", "a", 1.5, 2.0)]
    leaves = [{"parent": "r", "s": 0.5}, {"parent": "a", "s": 1.0}]
    own = layers.self_times(spans, leaves)
    assert own["r"] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own["a"] == pytest.approx(3.0 - 0.5 - 1.0)
    assert own["w1"] == pytest.approx(4.0)


def test_refuses_a_directory_without_learnpath(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ntk-verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@functools.lru_cache(maxsize=None)
def _untraced_then_traced(name):
    """(failures, per-layer metrics) of an untraced and a traced run."""
    sess = run.Session(ROOT, WORKLOADS[name], seed=0)
    try:
        sess.run_cli(traced=False)
        _, trace_dir = sess.run_cli(traced=True)
        metrics = run.trace_layers(trace_dir)
    finally:
        sess.close()
    return tuple(sess.problems), metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_byte_identical_to_untraced_run(name):
    # the session gates the traced run's artifacts against the first run's
    problems, metrics = _untraced_then_traced(name)
    assert problems == ()
    assert metrics["supervision.steps"] > 0
    assert metrics["supervision.diverged"] == 0


def test_step_time_is_near_the_roadmap_baseline():
    # ROADMAP: one per-sample SGD step of the (30,32,32,32,3) MLP costs
    # ~95-110 us; forward + loss gradient + backward + update should land
    # within a factor of two of that
    _, metrics = _untraced_then_traced("distill-sweep")
    assert 50.0 <= metrics["numerics.step_us"] <= 220.0
    assert metrics["supervision.train_runs"] == 4 * 7
    assert 0.0 < metrics["experiments.pool_busy_frac"] <= 1.0
    assert metrics["pathtrace.log_calls"] == 0


def test_layer_counts_follow_from_the_configs():
    _, paths = _untraced_then_traced("paths-wide")
    cfg = WORKLOADS["paths-wide"].config
    n_train = WORKLOADS["paths-wide"].split_counts()[0]
    assert paths["supervision.steps"] == n_train * cfg["max_epochs"]
    assert paths["pathtrace.log_calls"] == paths["pathtrace.export_rows"] \
        == paths["supervision.steps"]
    assert paths["numerics.jacobian_calls"] == 0
    _, ntk = _untraced_then_traced("ntk-verify")
    cfg = WORKLOADS["ntk-verify"].config
    n_eta = len(cfg["eta_grid"])
    assert ntk["ntkcheck.decompose_calls"] == cfg["n_pairs"] * n_eta
    # two per decomposition, one per similarity target and probe
    assert ntk["numerics.jacobian_calls"] == \
        2 * cfg["n_pairs"] * n_eta + 3 * (cfg["n_similarity"] + 1)
    assert 0.0 < ntk["ntkcheck.jacobian_reuse_ratio"] <= 0.34


def _fake_output(out, wl, summary="check a: pass (x)\n", short=0):
    out.mkdir()
    for name, rows in wl.expected_rows().items():
        body = summary if rows is None else "# h\ncol\n" + "1\n" * (rows - short)
        (out / name).write_text(body)


def test_gate_rejects_bad_exit_codes_rows_and_changed_bytes(tmp_path):
    wl = WORKLOADS["ntk-verify"]
    failing = "check residual_ratio: FAIL (ratio = 5.3)\n"
    sess = run.Session(str(tmp_path), wl, seed=0)
    try:
        _fake_output(tmp_path / "a", wl, failing)
        # exit 2 with a FAIL check line is the command's informational verdict
        assert sess.check(str(tmp_path / "a"), 2) == []
        assert sess.check(str(tmp_path / "a"), 1) == ["exit code 1"]
        _fake_output(tmp_path / "b", wl)
        problems = sess.check(str(tmp_path / "b"), 2)
        assert problems[0] == "exit code 2"
        assert "differ from the first run" in problems[-1]
        _fake_output(tmp_path / "c", wl, failing, short=1)
        assert any("rows, want" in p for p in sess.check(str(tmp_path / "c"), 0))
    finally:
        sess.close()
