"""Learning-path analysis toolkit.

Small dense MLP classifiers trained sample-by-sample on a synthetic
Gaussian mixture whose true class posteriors are known in closed form.
The package records per-sample prediction trajectories, builds soft
supervision targets (one-hot, smoothed, teacher-derived, filtered),
and checks the numerical claims connecting supervision quality,
generalization, and the SGD prediction-change decomposition.

The package root exports the names of the README's library example;
everything else is imported from its submodule.
"""

from learnpath.metrics import accuracy
from learnpath.numerics import predict_proba
from learnpath.supervision import (TrainConfig, train_model,
                                   train_teacher_filterkd_multi)
from learnpath.toygauss import (GaussianSpec, flip_labels, sample_dataset,
                                split_dataset)

__version__ = "0.1.0"

__all__ = [
    "GaussianSpec", "sample_dataset", "split_dataset", "flip_labels",
    "TrainConfig", "train_teacher_filterkd_multi", "train_model",
    "accuracy", "predict_proba",
]
