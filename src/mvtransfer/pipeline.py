"""End-to-end experiment orchestration.

An experiment scores every source view against the target view on the
training split, converts the scores into an integer pretraining-epoch
schedule, trains one network sequentially across the source views,
transfers its weights, fine-tunes on the target view, and evaluates on the
held-out target split — repeating the training portion R times with derived
seeds and aggregating accuracies.  Held-out samples never shape the
schedule they are evaluated under.

One routine, ``split_parts``, aligns and splits a dataset for every
command: ``train``, ``schedule`` and ``importance`` all score its training
part, so on one config they record the same scores.  The dataset is always
passed in; only the CLI reads a config's ``dataset_path``.

All persisted outputs (scores.json, report.json, curves.csv) are
byte-deterministic given the configuration; wall-clock timings go to a
separate timings.json so they never perturb the reproducible files.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    ALIGNMENT_STRATEGIES, MultiViewDataset, align_lengths, from_json, split_indices, write_csv,
    write_json,
)
from .density import select_density_method
from .distance import MEASURE_PARAMS, DtwParams, SfaParams, measure_params_class
from .flow import MIN_TRAINING_POINTS, FlowConfig
from .importance import (
    SamplingConfig,
    TransferSchedule,
    allocate_epochs,
    score_source_view,  # noqa: F401  perfbench/layers.py traces this attribute
    score_source_views,
    write_schedule_json,
)
from .networks import (
    NetworkConfig,
    TrainConfig,
    check_network_settings,
    evaluate,
    init_network,
    train,
    transfer_weights,
)

SEED_STRIDE = 1_000_000
SCORING_SEED_OFFSET = 1 * SEED_STRIDE
FLOW_SEED_OFFSET = 2 * SEED_STRIDE
INIT_SEED_OFFSET = 3 * SEED_STRIDE
PRETRAIN_SEED_OFFSET = 4 * SEED_STRIDE
FINETUNE_SEED_OFFSET = 5 * SEED_STRIDE
SPLIT_SEED_OFFSET = 6 * SEED_STRIDE
VIEW_ORDER_SEED_OFFSET = 7 * SEED_STRIDE

EXPERIMENT_MODES = ("baseline", "transfer", "both")
MEASURES = tuple(MEASURE_PARAMS)


class PipelineError(RuntimeError):
    """Raised when experiment orchestration cannot proceed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment end to end.

    Per-phase seeds are derived from ``base_seed``: repeat ``r`` uses
    ``base_seed + r`` shifted by fixed million-spaced offsets for network
    init, per-view pretraining, and fine-tuning; the importance-scoring
    seed, the flow seed, and the train/test split seed are derived once per
    experiment.  ``measure_params`` is the ``DtwParams`` or ``SfaParams`` of
    ``measure``.  ``dropout_rate`` applies to the FCN only; the MLP has no
    dropout layer.

    Construction checks every setting that needs no data, by the network's
    and ``TrainConfig``'s own rules too, and a fault raises ``ValueError``
    naming its key.  Only ``run_experiment`` checks the config against the
    data (``_check_trainable``).
    """

    target_view: int
    dataset_path: str | None = None
    measure: str = "dtw"
    measure_params: DtwParams | SfaParams | None = None
    density_override: str | None = None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    total_pretrain_epochs: int = 100
    finetune_epochs: int = 50
    forced_epochs: tuple[int, ...] | None = None
    arch: str = "mlp"
    dropout_rate: float = 0.2
    fcn_kernel_sizes: tuple[int, ...] = (8, 5, 3)
    train_batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    repeats: int = 5
    base_seed: int = 0
    mode: str = "both"
    train_fraction: float = 0.7
    align_strategy: str = "zero-pad-to-max"
    shuffle_view_order: bool = False
    freeze_conv: bool = False

    def __post_init__(self):
        if self.target_view < 0:
            raise ValueError("target_view must be non-negative")
        params = measure_params_class(self.measure)
        if not isinstance(self.measure_params, (params, type(None))):
            raise ValueError(
                f"measure_params must be None or {params.__name__} for measure "
                f"{self.measure!r}, got {type(self.measure_params).__name__}"
            )
        if self.density_override not in (None, "kde", "flow"):
            raise ValueError("density_override must be None, 'kde', or 'flow'")
        if not isinstance(self.sampling, SamplingConfig):
            raise ValueError("sampling must be a SamplingConfig")
        if self.total_pretrain_epochs < 0:
            raise ValueError("total_pretrain_epochs must be non-negative")
        if self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be non-negative")
        if self.forced_epochs is not None:
            if any(e < 0 for e in self.forced_epochs):
                raise ValueError("forced_epochs must be non-negative")
            if sum(self.forced_epochs) != self.total_pretrain_epochs:
                raise ValueError(
                    f"forced_epochs sum {sum(self.forced_epochs)} does not match "
                    f"total_pretrain_epochs {self.total_pretrain_epochs}"
                )
        check_network_settings(self.arch, self.dropout_rate, self.fcn_kernel_sizes)
        self._train_config()
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"mode must be one of {EXPERIMENT_MODES}, got {self.mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.align_strategy not in ALIGNMENT_STRATEGIES:
            raise ValueError(
                f"align_strategy must be one of {ALIGNMENT_STRATEGIES}, "
                f"got {self.align_strategy!r}"
            )

    def _train_config(self, seed: int = 0) -> TrainConfig:
        """The optimizer settings as a ``TrainConfig`` seeded with ``seed``;
        a bad setting raises ``ValueError`` naming its key here."""
        try:
            return TrainConfig(
                self.train_batch_size, self.learning_rate, self.beta1, self.beta2,
                self.adam_epsilon, seed,
            )
        except ValueError as exc:
            # batch_size is the one TrainConfig field named otherwise here.
            raise ValueError(str(exc).replace("batch_size", "train_batch_size")) from exc


@dataclass(frozen=True)
class ModeResult:
    """One mode's held-out accuracy per repeat, and their mean."""

    accuracies: tuple
    mean: float = field(init=False)

    def __post_init__(self):
        accuracies = tuple(float(a) for a in self.accuracies)
        if not accuracies:
            raise ValueError("a mode result needs at least one accuracy")
        if any(not 0.0 <= a <= 1.0 for a in accuracies):
            raise ValueError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "accuracies", accuracies)
        object.__setattr__(self, "mean", sum(accuracies) / len(accuracies))


@dataclass
class ExperimentReport:
    """Aggregated outcome of one experiment.

    The fields up to ``seeds`` are report.json's keys, in file order;
    ``wall_clock_seconds`` goes to timings.json instead.
    """

    mode: str
    target_view: int
    repeats: int
    schedule: TransferSchedule | None
    baseline: ModeResult | None
    transfer: ModeResult | None
    seeds: dict
    wall_clock_seconds: dict

    def __post_init__(self):
        for result in (self.baseline, self.transfer):
            if result is not None and len(result.accuracies) != self.repeats:
                raise ValueError(
                    f"expected {self.repeats} accuracies, got {len(result.accuracies)}"
                )


def _repeat_seeds(base_seed: int, repeat_index: int) -> dict:
    root = base_seed + repeat_index
    return {
        "init": root + INIT_SEED_OFFSET,
        "pretrain": root + PRETRAIN_SEED_OFFSET,
        "finetune": root + FINETUNE_SEED_OFFSET,
        "view_order": root + VIEW_ORDER_SEED_OFFSET,
    }


def _source_views(config: ExperimentConfig, dataset: MultiViewDataset) -> list:
    if config.target_view >= dataset.n_views:
        raise PipelineError(
            f"target_view {config.target_view} out of range for {dataset.n_views} views"
        )
    return [v for v in range(dataset.n_views) if v != config.target_view]


def _aligned(dataset: MultiViewDataset, config: ExperimentConfig) -> MultiViewDataset:
    if any(not dataset.is_aligned(v) for v in range(dataset.n_views)):
        dataset = align_lengths(dataset, config.align_strategy)
    return dataset


def split_parts(
    dataset: MultiViewDataset, config: ExperimentConfig
) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Align ``dataset`` and split it into ``(train_part, test_part)``.

    The split is ``split_indices`` with the seed derived from ``base_seed``.
    It fails when ``target_view`` is not a view of ``dataset``, and, naming
    its seed and fraction, when a class is missing from the training part or
    the held-out part has fewer than 2 classes.  Every command that scores
    or trains takes its parts from here.
    """
    _source_views(config, dataset)
    dataset = _aligned(dataset, config)
    split_seed = config.base_seed + SPLIT_SEED_OFFSET
    train_idx, test_idx = split_indices(dataset, config.train_fraction, split_seed)
    absent = sorted(set(dataset.classes) - {dataset.labels[i] for i in train_idx})
    if absent:
        raise PipelineError(
            f"split (seed {split_seed}, train_fraction {config.train_fraction}) "
            f"leaves classes {absent} out of the training part"
        )
    held_out = sorted({dataset.labels[i] for i in test_idx})
    if len(held_out) < 2:
        raise PipelineError(
            f"split (seed {split_seed}, train_fraction {config.train_fraction}) "
            f"holds out only class {held_out[0]!r}; the held-out part needs at least 2 classes"
        )
    return dataset.take(train_idx), dataset.take(test_idx)


def _check_trainable(dataset: MultiViewDataset, config: ExperimentConfig) -> None:
    """Fail unless one network fits every view of the aligned ``dataset``:
    the views share one ``(channels, length)``, and each FCN kernel is no
    longer than the series."""
    shapes = [dataset.view_shape(v) for v in range(dataset.n_views)]
    if len(set(shapes)) != 1:
        raise PipelineError(
            f"views disagree on (channels, length): {shapes}; "
            "weight transfer requires identical shapes across views"
        )
    length = shapes[0][1]
    if config.arch == "fcn" and max(config.fcn_kernel_sizes) > length:
        raise PipelineError(
            f"fcn_kernel_sizes {list(config.fcn_kernel_sizes)} exceed the series length {length}"
        )


def scoring_seeds(config: ExperimentConfig) -> dict:
    """The base seed and the scoring and flow seeds derived from it."""
    return {
        "base": config.base_seed,
        "scoring": config.base_seed + SCORING_SEED_OFFSET,
        "flow": config.base_seed + FLOW_SEED_OFFSET,
    }


def score_views(config: ExperimentConfig, dataset: MultiViewDataset, artifact_dir=None) -> list:
    """Score every source view against the target view, in ascending order.

    Ragged views are first aligned with ``config.align_strategy``, as
    training aligns them, and the sampling and flow seeds are derived from
    ``base_seed``.  A flow density needs one latent point per sample and
    at least ``MIN_TRAINING_POINTS`` of them; too few samples fail here,
    before any distance is computed.  So does a source view whose channel
    count differs from the target view's.  With ``artifact_dir``, each
    view's latent set and density model are written there.
    """
    sources = _source_views(config, dataset)
    channels = dataset.channel_count(config.target_view)
    mismatched = {
        v: dataset.channel_count(v) for v in sources if dataset.channel_count(v) != channels
    }
    if mismatched:
        raise PipelineError(
            f"scoring needs every source view to have target view {config.target_view}'s "
            f"{channels} channels; channels by source view: {mismatched}"
        )
    if (
        select_density_method(channels, config.density_override) == "flow"
        and dataset.n_samples < MIN_TRAINING_POINTS
    ):
        raise PipelineError(
            f"scoring with the flow density needs at least {MIN_TRAINING_POINTS} "
            f"samples, got {dataset.n_samples}"
        )
    dataset = _aligned(dataset, config)
    seeds = scoring_seeds(config)
    return score_source_views(
        dataset,
        sources,
        config.target_view,
        config.measure,
        config.measure_params,
        config.density_override,
        config.sampling,
        seed=seeds["scoring"],
        flow_config=FlowConfig(seed=seeds["flow"]),
        artifact_dir=artifact_dir,
    )


def compute_schedule(
    config: ExperimentConfig, dataset: MultiViewDataset, out_path=None
) -> TransferSchedule:
    """Score every source view on ``dataset`` and allocate the pretraining
    budget.

    It scores the dataset it is given: ``run_experiment`` and the CLI give
    it the training part from ``split_parts``.  With ``forced_epochs`` set
    (or a zero budget) scoring is skipped and every score is recorded as
    zero.  When ``out_path`` is given the schedule is persisted as
    scores.json.
    """
    sources = _source_views(config, dataset)
    if config.forced_epochs is not None:
        if len(config.forced_epochs) != len(sources):
            raise PipelineError(
                f"forced_epochs has {len(config.forced_epochs)} entries "
                f"for {len(sources)} source views"
            )
        scores, epochs = (0.0,) * len(sources), config.forced_epochs
    elif config.total_pretrain_epochs == 0:
        scores, epochs = (0.0,) * len(sources), (0,) * len(sources)
    else:
        scores = score_views(config, dataset)
        epochs = allocate_epochs(scores, config.total_pretrain_epochs)
    schedule = TransferSchedule(
        target_view=config.target_view,
        scores=scores,
        epochs=epochs,
        total_epochs=config.total_pretrain_epochs,
    )
    if out_path is not None:
        write_schedule_json(
            out_path,
            schedule,
            config.measure,
            config.sampling.norm_kind,
            scoring_seeds(config),
        )
    return schedule


def _run_single(config, train_part, test_part, schedule, repeat_index):
    """One repeat: a transfer run when given a schedule, else a baseline.

    A transfer run visits the source views in ascending index order (or a
    seeded permutation with ``shuffle_view_order``), training one network
    on each for its scheduled epochs, and transfers the weights into a
    fresh network; a baseline starts from the fresh network.  Either is
    fine-tuned on the target view of ``train_part`` and evaluated on that
    of ``test_part``.  Returns ``(network, accuracy, curve rows)``.
    """
    mode = "baseline" if schedule is None else "transfer"
    seeds = _repeat_seeds(config.base_seed, repeat_index)
    channels, length = train_part.view_shape(config.target_view)
    classes = train_part.classes
    net_config = NetworkConfig(
        config.arch, channels, length, len(classes), config.dropout_rate,
        config.fcn_kernel_sizes, seeds["init"],
    )
    class_index = {label: i for i, label in enumerate(classes)}
    train_labels, test_labels = (
        np.array([class_index[l] for l in part.labels], dtype=np.int64)
        for part in (train_part, test_part)
    )
    logs = []
    if schedule is not None:
        source_net = init_network(net_config)
        sources = _source_views(config, train_part)
        positions = list(range(len(sources)))
        if config.shuffle_view_order:
            order_rng = np.random.default_rng(seeds["view_order"])
            positions = [int(p) for p in order_rng.permutation(len(positions))]
        for position in positions:
            view = sources[position]
            log = train(
                source_net,
                train_part.views[view],
                train_labels,
                config._train_config(seeds["pretrain"] + view),
                epoch_budget=schedule.epochs[position],
            )
            logs.append((f"pretrain_view_{view}", log))
        net = init_network(net_config)
        transfer_weights(source_net, net)
    else:
        net = init_network(net_config)
    frozen = ()
    if config.freeze_conv and config.arch == "fcn":
        frozen = tuple(name for name in net.params if name.startswith("conv"))
    log = train(
        net,
        train_part.views[config.target_view],
        train_labels,
        config._train_config(seeds["finetune"]),
        epoch_budget=config.finetune_epochs,
        frozen_params=frozen,
    )
    logs.append(("finetune", log))
    entries = [(phase, entry) for phase, log in logs for entry in log]
    rows = [
        (mode, repeat_index, epoch, phase, float(entry["loss"]), float(entry["train_accuracy"]))
        for epoch, (phase, entry) in enumerate(entries, start=1)
    ]
    accuracy = evaluate(net, test_part.views[config.target_view], test_labels)
    return net, accuracy, rows


def run_experiment(
    config: ExperimentConfig, dataset: MultiViewDataset, out_dir=None
) -> ExperimentReport:
    """Run R seeded repeats of the requested modes and aggregate.

    The aligned ``dataset`` is checked by ``_check_trainable`` before
    ``split_parts`` splits it; every repeat trains on the training part,
    which the schedule scores, and evaluates on the held-out one.  Persists
    (when ``out_dir`` is given) scores.json, report.json, and curves.csv —
    all byte-deterministic — plus timings.json with the non-deterministic
    wall-clock measurements.
    """
    experiment_start = time.perf_counter()
    dataset = _aligned(dataset, config)
    _check_trainable(dataset, config)
    train_part, test_part = split_parts(dataset, config)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    modes = [m for m in ("baseline", "transfer") if config.mode in (m, "both")]
    schedule = None
    if "transfer" in modes:
        schedule = compute_schedule(
            config,
            dataset=train_part,
            out_path=(out / "scores.json") if out is not None else None,
        )
    rows = []
    timings = {}
    accuracies = {}
    for mode in modes:
        accuracies[mode], timings[mode] = [], []
        for repeat in range(config.repeats):
            started = time.perf_counter()
            try:
                _, accuracy, repeat_rows = _run_single(
                    config, train_part, test_part, schedule if mode == "transfer" else None, repeat
                )
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(f"{mode} repeat {repeat} failed: {exc}") from exc
            timings[mode].append(time.perf_counter() - started)
            accuracies[mode].append(accuracy)
            rows.extend(repeat_rows)
    timings["total"] = time.perf_counter() - experiment_start
    seeds = {
        **scoring_seeds(config),
        "split": config.base_seed + SPLIT_SEED_OFFSET,
        "per_repeat": [
            {
                "repeat": repeat,
                "init": derived["init"],
                "pretrain_base": derived["pretrain"],
                "finetune": derived["finetune"],
            }
            for repeat in range(config.repeats)
            for derived in (_repeat_seeds(config.base_seed, repeat),)
        ],
    }
    results = {mode: ModeResult(values) for mode, values in accuracies.items()}
    report = ExperimentReport(
        mode=config.mode,
        target_view=config.target_view,
        repeats=config.repeats,
        schedule=schedule,
        baseline=results.get("baseline"),
        transfer=results.get("transfer"),
        seeds=seeds,
        wall_clock_seconds=timings,
    )
    if out is not None:
        payload = asdict(report)
        del payload["wall_clock_seconds"]
        write_json(out / "report.json", payload)
        header = ("mode", "repeat", "epoch", "phase", "loss", "accuracy")
        write_csv(out / "curves.csv", header, rows)
        write_json(out / "timings.json", timings)
    return report


# ---------------------------------------------------------------------------
# Config file loading
# ---------------------------------------------------------------------------

def experiment_config_from_json_dict(payload: dict) -> ExperimentConfig:
    """The config a JSON object holds, ``measure_params`` as ``measure``'s class."""
    measure = payload.get("measure", "dtw") if isinstance(payload, dict) else "dtw"
    params = measure_params_class(measure)
    return from_json(ExperimentConfig, payload, "", measure_params=params | None)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no experiment config at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable experiment config {path}: {exc}") from exc
    return experiment_config_from_json_dict(payload)

