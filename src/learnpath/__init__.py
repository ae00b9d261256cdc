"""Learning-path analysis toolkit.

Small dense MLP classifiers trained sample-by-sample on a synthetic
Gaussian mixture whose true class posteriors are known in closed form.
The package records per-sample prediction trajectories, builds soft
supervision targets (one-hot, smoothed, teacher-derived, filtered),
and checks the numerical claims connecting supervision quality,
generalization, and the SGD prediction-change decomposition.

The package root exports the names of the README's library example;
everything else is imported from its submodule. Each export loads its
submodule on first use, so `import learnpath` alone loads no numpy:
learnpath.cli sets its BLAS thread default, an environment variable,
before numpy loads, and nothing else in the package sets one.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "GaussianSpec": "toygauss", "sample_dataset": "toygauss",
    "split_dataset": "toygauss", "flip_labels": "toygauss",
    "TrainConfig": "supervision", "train_teacher_filterkd_multi": "supervision",
    "train_model": "supervision", "accuracy": "metrics",
    "predict_proba": "numerics",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'learnpath' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"learnpath.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
