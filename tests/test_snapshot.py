"""Behaviour snapshot of all 8 subcommands.

Each subcommand runs at its TINY config from criterion 11, and every
artifact it writes is compared with the committed copy under
snapshot/tiny/<command>/. The comparison goes field by field, not by
raw bytes, because raw bytes are not portable across BLAS builds:

  - every line is split into numbers and the text between them;
  - the text must match exactly;
  - numbers that are integers on both sides must match exactly;
  - other numbers must agree within rtol 1e-7 (atol 1e-12 near zero),
    and NaN matches only NaN.

A refactor must pass unchanged. A change that means to move numbers
regenerates the snapshot from the repository root with

    PYTHONPATH=src python tests/test_snapshot.py

and says why in CHANGES.md.
"""

import math
import os
import re
import shutil
import sys

import pytest

from learnpath.cli import main as cli_main

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import TINY_CONFIGS  # noqa: E402

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshot", "tiny")
RTOL, ATOL = 1e-7, 1e-12

# a number standing on its own: not part of a word such as flip0.2 or q_0
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|nan|inf))(?![\w.])")
_INT = re.compile(r"[-+]?\d+")


def _run(command, cfg_dir, out_dir):
    cfg = os.path.join(cfg_dir, f"{command}.cfg")
    with open(cfg, "w") as fh:
        fh.write(TINY_CONFIGS[command])
    assert cli_main([command, "--config", cfg, "--out", out_dir]) in (0, 2)


def _same_number(a: str, b: str) -> bool:
    if _INT.fullmatch(a) and _INT.fullmatch(b):
        return a == b
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=ATOL)


def line_differs(want: str, got: str) -> bool:
    """True when got does not match want field by field."""
    a, b = _NUMBER.split(want), _NUMBER.split(got)
    if len(a) != len(b):
        return True
    # re.split with one group alternates text, number, text, ...
    return any(x != y if j % 2 == 0 else not _same_number(x, y)
               for j, (x, y) in enumerate(zip(a, b)))


def test_line_comparison_rules():
    assert not line_differs("flip 0.2 oht: mean_acc = 0.65 n = 2",
                            "flip 0.2 oht: mean_acc = 0.65000000000000002 n = 2")
    assert line_differs("n = 2", "n = 3")
    assert line_differs("acc = 0.65", "acc = 0.66")
    assert line_differs("check a: pass (x)", "check a: FAIL (x)")
    assert line_differs("order_flip0.2", "order_flip0.3")
    assert not line_differs("1,nan,-1e-300", "1,nan,0")
    assert line_differs("1,nan", "1,0.5")


@pytest.mark.parametrize("command", sorted(TINY_CONFIGS))
def test_outputs_match_snapshot(command, tmp_path):
    out = str(tmp_path / "out")
    _run(command, str(tmp_path), out)
    want_dir = os.path.join(SNAPSHOT, command)
    assert sorted(os.listdir(out)) == sorted(os.listdir(want_dir))
    for name in sorted(os.listdir(want_dir)):
        with open(os.path.join(want_dir, name)) as fh:
            want = fh.read().splitlines()
        with open(os.path.join(out, name)) as fh:
            got = fh.read().splitlines()
        assert len(got) == len(want), f"{name}: {len(got)} lines, want {len(want)}"
        bad = [j for j, (w, g) in enumerate(zip(want, got)) if line_differs(w, g)]
        assert not bad, (f"{name}: {len(bad)} lines differ, first at line "
                         f"{bad[0] + 1}:\n  want {want[bad[0]]}\n  got  {got[bad[0]]}")


def regenerate():
    shutil.rmtree(SNAPSHOT, ignore_errors=True)
    cfg_dir = os.path.join(SNAPSHOT, os.pardir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    for command in sorted(TINY_CONFIGS):
        _run(command, cfg_dir, os.path.join(SNAPSHOT, command))
    shutil.rmtree(cfg_dir)


if __name__ == "__main__":
    regenerate()
