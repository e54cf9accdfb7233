"""Adaptive transfer scheduling for multi-view time series classification.

The package measures how related each source view of a multi-view time
series dataset is to a chosen target view (channel-wise warping or
symbolic-histogram distances), models the resulting distance vectors with
a density estimate (kernel density for few channels, an invertible
coupling flow for many), scores each source view by a matrix norm over
density samples, converts the scores into integer pretraining-epoch
budgets, and runs the pretrain-then-fine-tune experiment with built-in
MLP and convolutional classifiers.
"""

from mvtransfer.dataset import (
    ALIGNMENT_STRATEGIES,
    DatasetError,
    MultiViewDataset,
    align_lengths,
    emit_dataset,
    load_dataset,
)
from mvtransfer.density import (
    KDE_MAX_DIMENSION,
    DensityError,
    DensityModel,
    KdeModel,
    evaluate_density_grid,
    fit_density,
    fit_kde,
    load_density_model,
    sample_kde,
    save_density_model,
    select_density_method,
)
from mvtransfer.distance import (
    DistanceError,
    DtwParams,
    ImportanceLatentSet,
    SfaParams,
    boss_distance,
    build_latent_set,
    dtw_distance,
    sfa_fit,
    sfa_transform,
)
from mvtransfer.flow import (
    FlowConfig,
    FlowTrainingError,
    fit_flow,
    flow_inverse,
    init_flow_model,
    sample_flow,
)
from mvtransfer.importance import (
    NORM_KINDS,
    SamplingConfig,
    TransferSchedule,
    allocate_epochs,
    build_transfer_schedule,
    draw_importance_matrix,
    matrix_norm,
    score_source_view,
    write_schedule_json,
)
from mvtransfer.networks import (
    ARCHITECTURES,
    Network,
    NetworkConfig,
    NetworkError,
    TrainConfig,
    evaluate,
    init_network,
    train,
    transfer_weights,
)
from mvtransfer.pipeline import (
    ExperimentConfig,
    ExperimentReport,
    PipelineError,
    compute_schedule,
    load_experiment_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ALIGNMENT_STRATEGIES",
    "ARCHITECTURES",
    "DatasetError",
    "DensityError",
    "DensityModel",
    "DistanceError",
    "DtwParams",
    "ExperimentConfig",
    "ExperimentReport",
    "FlowConfig",
    "FlowTrainingError",
    "ImportanceLatentSet",
    "KDE_MAX_DIMENSION",
    "KdeModel",
    "MultiViewDataset",
    "NORM_KINDS",
    "Network",
    "NetworkConfig",
    "NetworkError",
    "PipelineError",
    "SamplingConfig",
    "SfaParams",
    "TrainConfig",
    "TransferSchedule",
    "align_lengths",
    "allocate_epochs",
    "boss_distance",
    "build_latent_set",
    "build_transfer_schedule",
    "compute_schedule",
    "draw_importance_matrix",
    "dtw_distance",
    "emit_dataset",
    "evaluate",
    "evaluate_density_grid",
    "fit_density",
    "fit_flow",
    "fit_kde",
    "flow_inverse",
    "init_flow_model",
    "init_network",
    "load_dataset",
    "load_density_model",
    "load_experiment_config",
    "matrix_norm",
    "run_experiment",
    "sample_flow",
    "sample_kde",
    "save_density_model",
    "score_source_view",
    "select_density_method",
    "sfa_fit",
    "sfa_transform",
    "train",
    "transfer_weights",
    "write_schedule_json",
]
