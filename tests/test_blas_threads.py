"""The CLI runs OpenBLAS on one thread, and the thread count moves no byte.

`learnpath.cli.main` and every pool worker cap numpy's OpenBLAS at one
thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
is set. Each case runs in a subprocess, because the cap and the
variables act on the whole process. Criterion 11 and the snapshot run
16 wide, where OpenBLAS never splits a call, so the byte test here runs
`paths` at 128 wide, where OpenBLAS splits each 300-row prediction over
two threads when two are allowed.
"""

import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from learnpath import experiments
from learnpath.experiments import _BLAS_THREAD_VARS, _openblas_functions

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import TINY_CONFIGS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(not _openblas_functions("get_num_threads"),
                                reason="numpy does not use OpenBLAS")
START_METHODS = [m for m in ("fork", "forkserver", "spawn")
                 if m in multiprocessing.get_all_start_methods()]
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
two_cpus = pytest.mark.skipif(CPUS < 2, reason="OpenBLAS allows no more threads than CPUs")

# `paths` at 128 wide, and the TINY `distill` (run at --jobs 2)
CONFIGS = {"paths": ("n_samples = 600\nratios = 0.5,0.25,0.25\nmax_epochs = 3\n"
                     "hidden_sizes = 128,128\nquantiles = 0.1,0.9\n"),
           "distill": TINY_CONFIGS["distill"]}

# `probe.py cli ARGS...` runs the CLI, then prints this process's OpenBLAS
# thread counts; `probe.py METHOD` prints them in the workers of a
# two-worker dispatch under that multiprocessing start method
PROBE = """
import json, multiprocessing, sys
from learnpath import experiments
from learnpath.cli import main

def threads(*_):
    return [get() for get in experiments._openblas_functions("get_num_threads")]

if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    if mode == "cli":
        main(args)
        print(json.dumps({"main": threads()}))
    else:
        multiprocessing.set_start_method(mode)
        workers = experiments._dispatch(threads, None, [0, 1], 2)
        print(json.dumps({"main": threads(), "workers": workers}))
"""


def _env(threads=None):
    """This environment with src importable and no BLAS thread variable,
    or with OPENBLAS_NUM_THREADS=threads."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _probe(tmp_path, args, threads=None):
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    proc = subprocess.run([sys.executable, str(script), *args], env=_env(threads),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_args(tmp_path, command, text, out):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    return [command, "--config", str(cfg), "--out", str(out)]


class TestThreadCount:
    def test_cli_runs_blas_on_one_thread(self, tmp_path):
        got = _probe(tmp_path, ["cli", *_cli_args(tmp_path, "distill",
                                                  CONFIGS["distill"], tmp_path / "o")])
        assert got["main"] and set(got["main"]) == {1}

    @pytest.mark.parametrize("method", START_METHODS)
    def test_pool_workers_run_blas_on_one_thread(self, tmp_path, method):
        got = _probe(tmp_path, [method])
        assert [set(w) for w in got["workers"]] == [{1}, {1}]

    @two_cpus
    def test_a_thread_variable_wins(self, tmp_path):
        got = _probe(tmp_path, ["cli", *_cli_args(tmp_path, "distill",
                                                  CONFIGS["distill"], tmp_path / "o")],
                     threads=2)
        assert got["main"] and set(got["main"]) == {2}
        got = _probe(tmp_path, ["spawn"], threads=2)
        assert [set(w) for w in got["workers"]] == [{2}, {2}]


def test_a_mapped_file_that_cannot_be_loaded_is_skipped(tmp_path, monkeypatch):
    """A file named like OpenBLAS that dlopen refuses (here not an ELF file;
    in the field a python binary under a directory named openblas) is
    passed over, and the real library is still found."""
    fake = tmp_path / "libopenblas_fake.so"
    fake.write_bytes(b"not a shared object")
    with open("/proc/self/maps") as fh:
        maps = fh.read() + f"00400000-00401000 r-xp 00000000 00:00 0    {fake}\n"
    real_open = open

    def fake_open(path, *args, **kwargs):
        if path == "/proc/self/maps":
            return io.StringIO(maps)
        return real_open(path, *args, **kwargs)

    want = [get() for get in _openblas_functions("get_num_threads")]
    monkeypatch.setattr(experiments, "open", fake_open, raising=False)
    assert [get() for get in _openblas_functions("get_num_threads")] == want


@two_cpus
@pytest.mark.parametrize("command,jobs", [("paths", "1"), ("distill", "2")])
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, command, jobs):
    outs = {}
    for threads in (None, 2):
        outs[threads] = tmp_path / f"threads-{threads}"
        args = _cli_args(tmp_path, command, CONFIGS[command], outs[threads]) + ["--jobs", jobs]
        proc = subprocess.run([sys.executable, "-m", "learnpath.cli", *args],
                              env=_env(threads), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
    capped, two = outs[None], outs[2]
    names = sorted(os.listdir(capped))
    assert names == sorted(os.listdir(two))
    for name in names:
        assert (capped / name).read_bytes() == (two / name).read_bytes(), name
