"""Worst-group robustness workbench: synthetic group-shift data, a two-head
linear model with a shared L1-budgeted featurizer, reweighting baselines,
group-aware evaluation, and analytic oracles."""

from .baselines import FitResult, GroupDroConfig, JttConfig, RunSpec, TaskData, fit, fit_lanes
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergedError,
    GrouprobeError,
    InvalidInputError,
    InvalidSpecError,
    ShapeError,
)
from .evalsel import (
    GroupMetrics,
    SelectionStrategy,
    evaluate,
    spur_core_log_ratio,
)
from .experiments import (
    ExperimentConfig,
    SweepGrid,
    read_params,
    recipe_config,
    run_experiment,
    run_sweep,
)
from .linmodel import (
    ModelParams,
    classify,
    init_params,
    normalize_frobenius,
    project_l1,
    rescale_l1,
)
from .objectives import LossEval, LossWeights, multitask_loss
from .optim import Lane, OptimConfig, TrainTrace, heterogeneous_batches, sgd_step, train
from .oracle import (
    BayesWeightInputs,
    BoundInputs,
    bayes_weight,
    finite_diff_grad,
    finite_diff_param_grads,
    normal_cdf,
    normal_cdf_inv,
    numeric_bayes_weight,
    transfer_core_mass_lower_bound,
    worst_group_error_bound,
)
from .synthgen import (
    AuxDataset,
    GroupDataSpec,
    LabeledDataset,
    group_id,
    make_balanced_test,
    noise_dataset,
    sample_group_dataset,
)

__version__ = "0.1.0"
