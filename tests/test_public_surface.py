"""The package's export lists and the benchmark's set-up probe still resolve.

Every module's __all__ must name only what the module has. The
benchmark's set-up probe (perfbench/setup_probe.py) calls
learnpath.sample_dataset and learnpath.split_dataset from the package
root, so it is run here on a small config: trimming the root's exports
cannot silently break its setup_s measurement.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import learnpath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import TINY_CONFIGS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")
MODULES = ["learnpath", *(f"learnpath.{m.name}"
                          for m in pkgutil.iter_modules(learnpath.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_setup_probe_runs_on_a_small_config(tmp_path):
    cfg = tmp_path / "distill.cfg"
    cfg.write_text(TINY_CONFIGS["distill"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, SETUP_PROBE, "distill", str(cfg), "0"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
