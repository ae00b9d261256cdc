"""The benchmark's tracer still binds every learnpath name it needs.

perfbench/tracer.py wraps learnpath functions by name when it installs,
so a rename under src/ can break the benchmark while every other test
passes. This runs perfbench/traced_cli.py on TINY configs of criterion 11
(paths and recovery run the tracer over PathStore and the filtered
teacher, distance-gap over one train_stack and zigzag over PathSums) and
checks its exit code and that the traced run writes the same bytes as an
untraced one. One more case runs the 128-wide `paths` of
test_blas_threads with no BLAS thread variable set, as the benchmark does.
"""

import glob
import os
import subprocess
import sys

import pytest

from learnpath.cli import _BLAS_THREAD_VARS, main as cli_main

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import TINY_CONFIGS  # noqa: E402
from test_blas_threads import CONFIGS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_CLI = os.path.join(ROOT, "perfbench", "traced_cli.py")


def _run_both(tmp_path, command, text, jobs, env):
    """Run command untraced in this process and traced in a subprocess
    under env; check the exit codes match and the bytes are the same."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    args = [command, "--config", str(cfg), "--jobs", jobs]
    plain, traced, trace_dir = tmp_path / "plain", tmp_path / "traced", tmp_path / "trace"
    trace_dir.mkdir()
    rc = cli_main(args + ["--out", str(plain)])
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, TRACED_CLI, str(trace_dir), "test", *args,
                           "--out", str(traced)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == rc, proc.stderr
    assert glob.glob(str(trace_dir / "spans-*.jsonl"))
    names = sorted(os.listdir(plain))
    assert sorted(os.listdir(traced)) == names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


@pytest.mark.parametrize("command,jobs", [("distill", "2"), ("ntk-verify", "1"),
                                          ("paths", "1"), ("recovery", "1"),
                                          ("distance-gap", "1"), ("zigzag", "1")])
def test_traced_run_writes_the_untraced_bytes(tmp_path, command, jobs):
    _run_both(tmp_path, command, TINY_CONFIGS[command], jobs, os.environ)


def test_a_traced_run_without_a_blas_variable_writes_the_untraced_bytes(tmp_path):
    """As the benchmark runs it: traced_cli.py loads numpy before
    learnpath.cli, so with no thread variable set OpenBLAS keeps its own
    count, and at 128 wide it splits calls over it."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    _run_both(tmp_path, "paths", CONFIGS["paths"], "1", env)
