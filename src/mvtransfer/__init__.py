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
    DatasetError,
    MultiViewDataset,
    align_lengths,
    emit_dataset,
    load_dataset,
)
from mvtransfer.density import (
    DensityError,
    DensityModel,
    evaluate_density_grid,
    fit_density,
    load_density_model,
    save_density_model,
    select_density_method,
)
from mvtransfer.distance import (
    DistanceError,
    DtwParams,
    SfaParams,
    build_latent_set,
)
from mvtransfer.flow import (
    FlowConfig,
    FlowTrainingError,
    fit_flow,
    flow_inverse,
    sample_flow,
)
from mvtransfer.importance import (
    SamplingConfig,
    TransferSchedule,
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
    "MultiViewDataset",
    "Network",
    "NetworkConfig",
    "NetworkError",
    "PipelineError",
    "SamplingConfig",
    "SfaParams",
    "TrainConfig",
    "TransferSchedule",
    "align_lengths",
    "build_latent_set",
    "compute_schedule",
    "emit_dataset",
    "evaluate",
    "evaluate_density_grid",
    "fit_density",
    "fit_flow",
    "flow_inverse",
    "init_network",
    "load_dataset",
    "load_density_model",
    "load_experiment_config",
    "run_experiment",
    "sample_flow",
    "save_density_model",
    "score_source_view",
    "select_density_method",
    "train",
    "write_schedule_json",
]
