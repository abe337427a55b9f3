"""Joint gender classification and gender-specific ordinal age estimation.

The package couples a hinge-loss linear gender classifier with a support
vector ordinal regressor whose threshold ladders may differ per gender,
through a squared inner-product penalty that pushes the two learned
directions toward orthogonality.  Training alternates the two convex
subproblems.  A two-output PLS regression baseline, a synthetic data
generator and an evaluation harness round out the toolkit.
"""

from .core import (
    FEMALE,
    MALE,
    Dataset,
    GenAgeModel,
    HyperParams,
    Sample,
    ThresholdLadder,
    TrainConfig,
    Variant,
    validate_dataset,
)
from .evaluate import (
    EvalReport,
    angle_deg,
    cross_validate,
    hyper_grid,
    mae,
    run_experiment,
    select_pls_components,
    split_train_test,
    stratified_folds,
)
from .pls import PlsModel, fit_pls, fit_pls_dataset, predict_pls, predict_pls_batch
from .svm import SvmSolution, solve_svm, svm_objective
from .svor import SvorSolution, ordinal_slacks, predict_rank, predict_ranks, solve_svor, svor_objective
from .synth import SynthConfig, effective_cuts, generate, true_directions
from .train import fit, fit_many, model_objective, objective_value, predict, predict_batch

__all__ = [
    "Dataset",
    "EvalReport",
    "FEMALE",
    "GenAgeModel",
    "HyperParams",
    "MALE",
    "PlsModel",
    "Sample",
    "SvmSolution",
    "SvorSolution",
    "SynthConfig",
    "ThresholdLadder",
    "TrainConfig",
    "Variant",
    "angle_deg",
    "cross_validate",
    "effective_cuts",
    "fit",
    "fit_many",
    "fit_pls",
    "fit_pls_dataset",
    "generate",
    "hyper_grid",
    "mae",
    "model_objective",
    "objective_value",
    "ordinal_slacks",
    "predict",
    "predict_batch",
    "predict_pls",
    "predict_pls_batch",
    "predict_rank",
    "predict_ranks",
    "run_experiment",
    "select_pls_components",
    "solve_svm",
    "solve_svor",
    "split_train_test",
    "stratified_folds",
    "svm_objective",
    "svor_objective",
    "true_directions",
    "validate_dataset",
]

__version__ = "0.1.0"
