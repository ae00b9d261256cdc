"""Every command ends in an exit code and its artifacts, never a traceback.

Hypothesis draws small configs inside the validator's ranges for each of
the eight commands: 10-60 samples, 1-3 epochs, hidden sizes from none
(a linear model) to (16, 16, 16), learning rates up to 1e3, and extreme
sigma, temperature, eta_grid and target_noise, so that many runs diverge:
a deep net can overflow in its backward pass while its logits are still
finite, which is how a sweep's stack once kept a non-finite gradient. Each
draw runs the CLI in-process at --jobs 1. Exit 0, or 2 (a check failed;
only ntk-verify), must leave every artifact of the command; exit 1 (a
config the validator refuses, or a single-run command that diverged)
must leave one `error:` line on stderr. An exception that escapes main
fails the test with its traceback.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnpath.cli import main
from learnpath.config import KIND_DEFAULTS


def one(*values):
    return st.sampled_from(values).map(str)


def grid(*values, max_size=2, reverse=False):
    """A comma list of distinct values, in descending order if reverse."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size,
                    unique=True).map(
        lambda v: ",".join(str(x) for x in (sorted(v, reverse=True) if reverse else v)))


# drawn whenever the command has the key: each keeps a run to milliseconds
SIZES = {
    "n_samples": st.integers(10, 60).map(str),
    "max_epochs": st.integers(1, 3).map(str),
    "hidden_sizes": one("", "2", "4,2", "16,16,16"),
    "noise_grid": grid(0.0, 0.05, 1.0, 1e3),
    "noise_seeds": one(1),
    "baseline_seeds": one(1, 2),
    "perm_test": one(0, 3),
    "quantiles": grid(0.0, 0.5, 1.0),
    "supervisions": grid("oht", "ls", "gt", max_size=3),
    "flip_grid": grid(0.0, 0.2, 1.0),
    "alpha_grid": grid(0.01, 0.5, 1.0),
    "seeds": grid(0, 1, 2),
    "n_pairs": st.integers(1, 3).map(str),
    "n_similarity": st.integers(3, 8).map(str),
    "eta_grid": grid(1e3, 1.0, 0.01, reverse=True),
    "trace_epochs": st.integers(1, 2).map(str),
    "trace_samples": st.integers(1, 2).map(str),
}
# drawn or left at the command's default
SETTINGS = {
    "seed": st.integers(0, 3).map(str),
    "num_classes": st.integers(2, 4).map(str),
    "input_dim": st.integers(1, 3).map(str),
    "sigma": one(1e-100, 0.1, 2.0, 1e100),
    "delta_mu": one(0.0, 1.0, 5.0),
    "ratios": one("0.4,0.3,0.3", "0.2,0.4,0.4", "0.1,0.1,0.8", "0.5,0.5,0", "1,0,0"),
    "learning_rate": one(0.0, 0.01, 0.5, 5.0, 1e3),
    "patience": st.integers(0, 2).map(str),
    "temperature": one(0.25, 1.0, 4.0),
    "beta": one(0.0, 0.5, 1.0),
    "flip_ratio": one(0.0, 0.3, 1.0),
    "ls_epsilon": one(0.0, 0.1, 1.0),
    "loss_bound": one(1e-3, 10.0, 1e6),
    "ema_alpha": one(0.01, 1.0),
    "filter_alpha": one(0.01, 0.5, 1.0),
    "target_noise": one(0.0, 0.2, 1e3),
}

# what a run that exits 0 or 2 leaves in --out
ARTIFACTS = {
    "gen-data": ("dataset.csv", "dataset.header.json"),
    "correlate": ("runs.csv",),
    "paths": ("paths.csv",),  # and projections.csv when num_classes is 3
    "distance-gap": ("distance_gap.csv",),
    "recovery": ("recovery.csv",),
    "distill": ("distill.csv",),
    "ntk-verify": ("decomposition.csv", "similarity.csv", "trace_evolution.csv"),
    "zigzag": ("zigzag.csv",),
}


def configs(command):
    keys = KIND_DEFAULTS[command]
    return st.fixed_dictionaries(
        {k: s for k, s in SIZES.items() if k in keys},
        optional={k: s for k, s in SETTINGS.items() if k in keys})


def test_every_command_and_key_is_drawn():
    assert set(ARTIFACTS) == set(KIND_DEFAULTS)
    drawn = set(SIZES) | set(SETTINGS)
    assert all(set(keys) <= drawn for keys in KIND_DEFAULTS.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning",
                            "ignore:delta_mu = 0 collapses every class mean")
@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_a_small_config_ends_in_an_exit_code(command):
    @settings(max_examples=25, deadline=None)
    @given(values=configs(command))
    def check(values):
        with tempfile.TemporaryDirectory() as work:
            cfg, out = os.path.join(work, "fuzz.cfg"), os.path.join(work, "out")
            with open(cfg, "w") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", out, "--jobs", "1"])
            lines = err.getvalue().splitlines()
            if code == 1:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
                return
            assert code == 0 or (code == 2 and command == "ntk-verify"), code
            assert lines == []
            want = {"summary.txt", *ARTIFACTS[command]}
            if command == "paths" and int(values.get(
                    "num_classes", KIND_DEFAULTS["paths"]["num_classes"])) == 3:
                want.add("projections.csv")
            assert set(os.listdir(out)) == want
    check()
