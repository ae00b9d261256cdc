"""Learning-path analysis toolkit.

Small dense MLP classifiers trained sample-by-sample on a synthetic
Gaussian mixture whose true class posteriors are known in closed form.
The package records per-sample prediction trajectories, builds soft
supervision targets (one-hot, smoothed, teacher-derived, filtered),
and checks the numerical claims connecting supervision quality,
generalization, and the SGD prediction-change decomposition.
"""

from learnpath.numerics import (
    MlpModel,
    ForwardCache,
    init_mlp,
    softmax,
    mlp_forward,
    mlp_backward,
    logits_jacobian,
    sgd_step,
    finite_diff_grad,
    predict_proba,
)
from learnpath.toygauss import (
    GaussianSpec,
    ToyDataset,
    gen_class_means,
    compute_p_star,
    sample_dataset,
    split_dataset,
    flip_labels,
    perturb_target,
    save_dataset,
    TRAIN,
    VALID,
    TEST,
)
from learnpath.supervision import (
    TargetTable,
    TrainConfig,
    TrainResult,
    DivergenceError,
    make_onehot_targets,
    make_ls_targets,
    make_gt_targets,
    kd_loss_and_grad,
    train_model,
    train_models,
    train_teacher_filterkd_multi,
    extract_eskd_targets,
    extract_kd_targets,
)
from learnpath.pathtrace import (
    LearningPath,
    PathStore,
    ema_filter_path,
    barycentric_project,
    base_difficulty,
    zigzag_score,
    recovery_fraction,
)
from learnpath.metrics import (
    EceConfig,
    BoundReport,
    accuracy,
    ece,
    mean_gap,
    kl_divergence,
    xi_bounds,
    spearman,
)
from learnpath.ntkcheck import (
    DecompositionRecord,
    softmax_jacobian,
    empirical_ntk,
    predicted_delta_q,
    actual_delta_q,
    residual_scaling_test,
    similarity_trace_study,
    trace_evolution,
)
from learnpath.config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "MlpModel", "ForwardCache", "init_mlp", "softmax", "mlp_forward",
    "mlp_backward", "logits_jacobian", "sgd_step", "finite_diff_grad",
    "predict_proba",
    "GaussianSpec", "ToyDataset", "gen_class_means", "compute_p_star",
    "sample_dataset", "split_dataset", "flip_labels", "perturb_target",
    "save_dataset", "TRAIN", "VALID", "TEST",
    "TargetTable", "TrainConfig", "TrainResult", "DivergenceError",
    "make_onehot_targets", "make_ls_targets", "make_gt_targets",
    "kd_loss_and_grad", "train_model", "train_models",
    "train_teacher_filterkd_multi", "extract_eskd_targets", "extract_kd_targets",
    "LearningPath", "PathStore", "ema_filter_path", "barycentric_project",
    "base_difficulty", "zigzag_score", "recovery_fraction",
    "EceConfig", "BoundReport", "accuracy", "ece", "mean_gap",
    "kl_divergence", "xi_bounds", "spearman",
    "DecompositionRecord", "softmax_jacobian", "empirical_ntk",
    "predicted_delta_q", "actual_delta_q", "residual_scaling_test",
    "similarity_trace_study", "trace_evolution",
    "ConfigError", "ExperimentConfig", "load_config",
]
