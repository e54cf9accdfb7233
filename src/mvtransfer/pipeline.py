"""End-to-end experiment orchestration.

An experiment scores every source view against the target view on the
training split, converts the scores into an integer pretraining-epoch
schedule, trains one network sequentially across the source views,
transfers its weights, fine-tunes on the target view, and evaluates on the
held-out target split — repeating the training portion R times with derived
seeds and aggregating accuracies.  Held-out samples never shape the
schedule they are evaluated under.

All persisted outputs (scores.json, report.json, curves.csv) are
byte-deterministic given the configuration; wall-clock timings go to a
separate timings.json so they never perturb the reproducible files.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import MultiViewDataset, SplitSpec, align_lengths, load_dataset, split_indices
from .density import select_density_method
from .distance import BossParams, DtwParams, SfaParams
from .flow import MIN_TRAINING_POINTS, FlowConfig
from .importance import (
    SamplingConfig,
    TransferSchedule,
    build_transfer_schedule,
    score_source_view,
    write_schedule_json,
)
from .networks import (
    NetworkConfig,
    TrainConfig,
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
MEASURES = ("dtw", "boss")


class PipelineError(RuntimeError):
    """Raised when experiment orchestration cannot proceed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment end to end.

    Per-phase seeds are derived from ``base_seed``: repeat ``r`` uses
    ``base_seed + r`` shifted by fixed million-spaced offsets for network
    init, per-view pretraining, and fine-tuning; the importance-scoring
    seed, the flow seed, and the train/test split seed are derived once per
    experiment (the ``seed`` field of ``sampling`` is replaced by the
    derived scoring seed).  ``dropout_rate`` applies to the FCN only; the
    MLP has no dropout layer.
    """

    dataset_path: str | None
    target_view: int
    measure: str = "dtw"
    measure_params: dict | None = None
    density_override: str | None = None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    total_pretrain_epochs: int = 100
    finetune_epochs: int = 50
    forced_epochs: tuple | None = None
    arch: str = "mlp"
    dropout_rate: float = 0.2
    fcn_kernel_sizes: tuple = (8, 5, 3)
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
        object.__setattr__(self, "fcn_kernel_sizes", tuple(int(k) for k in self.fcn_kernel_sizes))
        if self.forced_epochs is not None:
            object.__setattr__(
                self, "forced_epochs", tuple(int(e) for e in self.forced_epochs)
            )
        if self.target_view < 0:
            raise ValueError("target_view must be non-negative")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}; expected one of {MEASURES}")
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
        if self.arch not in ("mlp", "fcn"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {EXPERIMENT_MODES}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


@dataclass
class ExperimentReport:
    """Aggregated outcome of one experiment."""

    mode: str
    target_view: int
    repeats: int
    baseline_accuracies: list | None
    transfer_accuracies: list | None
    baseline_mean: float | None
    transfer_mean: float | None
    schedule: TransferSchedule | None
    seeds: dict
    wall_clock_seconds: dict

    def __post_init__(self):
        for accuracies in (self.baseline_accuracies, self.transfer_accuracies):
            if accuracies is None:
                continue
            if len(accuracies) != self.repeats:
                raise ValueError(
                    f"expected {self.repeats} accuracies, got {len(accuracies)}"
                )
            if any(not 0.0 <= a <= 1.0 for a in accuracies):
                raise ValueError("accuracies must lie in [0, 1]")


def _repeat_seeds(base_seed: int, repeat_index: int) -> dict:
    root = base_seed + repeat_index
    return {
        "init": root + INIT_SEED_OFFSET,
        "pretrain": root + PRETRAIN_SEED_OFFSET,
        "finetune": root + FINETUNE_SEED_OFFSET,
        "view_order": root + VIEW_ORDER_SEED_OFFSET,
    }


def _measure_params(measure: str, raw: dict | None):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise PipelineError("measure_params must be a mapping or null")
    if measure == "dtw":
        unknown = set(raw) - {"band_radius"}
        if unknown:
            raise PipelineError(f"unknown dtw measure_params keys: {sorted(unknown)}")
        return DtwParams(band_radius=raw.get("band_radius"))
    allowed = {"window_length", "word_length", "alphabet_size", "mean_normalize"}
    unknown = set(raw) - allowed
    if unknown:
        raise PipelineError(f"unknown boss measure_params keys: {sorted(unknown)}")
    return BossParams(sfa=SfaParams(**raw))


@dataclass
class _Prepared:
    """Aligned, split, and index-encoded data ready for training."""

    target_view: int
    source_views: list
    net_config: NetworkConfig
    train_inputs: list
    test_inputs: list
    train_labels: np.ndarray
    test_labels: np.ndarray


def _load_config_dataset(config: ExperimentConfig) -> MultiViewDataset:
    if config.dataset_path is None:
        raise PipelineError("config has no dataset_path and no dataset was provided")
    return load_dataset(config.dataset_path)


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


def _prepare(
    dataset: MultiViewDataset, config: ExperimentConfig
) -> tuple[_Prepared, MultiViewDataset]:
    """Align, split and encode ``dataset``; returns ``(prepared, train_part)``.

    ``train_part`` is the training split as a dataset, the input of
    scoring; the held-out split is kept only as the arrays evaluation reads.
    """
    source_views = _source_views(config, dataset)
    dataset = _aligned(dataset, config)
    shapes = [dataset.view_shape(v) for v in range(dataset.n_views)]
    if len(set(shapes)) != 1:
        raise PipelineError(
            f"views disagree on (channels, length): {shapes}; "
            "weight transfer requires identical shapes across views"
        )
    channels, length = shapes[0]
    classes = dataset.classes
    try:
        net_config = NetworkConfig(
            arch=config.arch,
            input_channels=channels,
            input_length=length,
            class_count=len(classes),
            dropout_rate=config.dropout_rate,
            fcn_kernel_sizes=config.fcn_kernel_sizes,
        )
    except ValueError as exc:
        raise PipelineError(f"invalid network config: {exc}") from exc
    class_index = {label: i for i, label in enumerate(classes)}
    split = SplitSpec(
        mode="fraction",
        train_fraction=config.train_fraction,
        seed=config.base_seed + SPLIT_SEED_OFFSET,
    )
    train_idx, test_idx = split_indices(dataset, split)
    absent = sorted(set(classes) - {dataset.labels[i] for i in train_idx})
    if absent:
        raise PipelineError(
            f"split (seed {split.seed}, train_fraction {config.train_fraction}) "
            f"leaves classes {absent} out of the training part"
        )
    train_part, test_part = dataset.take(train_idx), dataset.take(test_idx)
    prepared = _Prepared(
        target_view=config.target_view,
        source_views=source_views,
        net_config=net_config,
        train_inputs=[np.stack(train_part.views[v]) for v in range(dataset.n_views)],
        test_inputs=[np.stack(test_part.views[v]) for v in range(dataset.n_views)],
        train_labels=np.array([class_index[l] for l in train_part.labels], dtype=np.int64),
        test_labels=np.array([class_index[l] for l in test_part.labels], dtype=np.int64),
    )
    return prepared, train_part


def scoring_seeds(config: ExperimentConfig) -> dict:
    """The base seed and the scoring and flow seeds derived from it."""
    return {
        "base": config.base_seed,
        "scoring": config.base_seed + SCORING_SEED_OFFSET,
        "flow": config.base_seed + FLOW_SEED_OFFSET,
    }


def score_views(config: ExperimentConfig, dataset: MultiViewDataset) -> list:
    """Score every source view against the target view, in ascending order.

    Ragged views are first aligned with ``config.align_strategy``, as
    training aligns them, and the sampling and flow seeds are derived from
    ``base_seed``.  A flow density needs one latent point per sample and
    at least ``MIN_TRAINING_POINTS`` of them; too few samples fail here,
    before any distance is computed.  So does a source view whose channel
    count differs from the target view's.
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
    sampling = replace(config.sampling, seed=seeds["scoring"])
    params = _measure_params(config.measure, config.measure_params)
    return [
        score_source_view(
            dataset,
            source,
            config.target_view,
            config.measure,
            params,
            config.density_override,
            sampling,
            flow_config=FlowConfig(seed=seeds["flow"]),
        )
        for source in sources
    ]


def compute_schedule(
    config: ExperimentConfig, dataset: MultiViewDataset | None = None, out_path=None
) -> TransferSchedule:
    """Score every source view and allocate the pretraining budget.

    With ``forced_epochs`` set (or a zero budget) scoring is skipped and
    the forced allocation is wrapped directly, with all scores recorded as
    zero.  When ``out_path`` is given the schedule is persisted as
    scores.json.
    """
    if dataset is None:
        dataset = _load_config_dataset(config)
    sources = _source_views(config, dataset)
    if config.forced_epochs is not None:
        if len(config.forced_epochs) != len(sources):
            raise PipelineError(
                f"forced_epochs has {len(config.forced_epochs)} entries "
                f"for {len(sources)} source views"
            )
        schedule = TransferSchedule(
            scores=(0.0,) * len(sources),
            epochs=config.forced_epochs,
            total_epochs=config.total_pretrain_epochs,
            target_view=config.target_view,
        )
    elif config.total_pretrain_epochs == 0:
        schedule = TransferSchedule(
            scores=(0.0,) * len(sources),
            epochs=(0,) * len(sources),
            total_epochs=0,
            target_view=config.target_view,
        )
    else:
        schedule = build_transfer_schedule(
            score_views(config, dataset), config.total_pretrain_epochs, config.target_view
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


def _train_config(config: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=config.train_batch_size,
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        adam_epsilon=config.adam_epsilon,
        seed=seed,
    )


def _run_single(prepared, config, schedule, repeat_index):
    """One repeat: a transfer run when given a schedule, else a baseline."""
    mode = "baseline" if schedule is None else "transfer"
    seeds = _repeat_seeds(config.base_seed, repeat_index)
    net_config = replace(prepared.net_config, seed=seeds["init"])
    logs = []
    if schedule is not None:
        source_net = init_network(net_config)
        positions = list(range(len(prepared.source_views)))
        if config.shuffle_view_order:
            order_rng = np.random.default_rng(seeds["view_order"])
            positions = [int(p) for p in order_rng.permutation(len(positions))]
        for position in positions:
            view = prepared.source_views[position]
            log = train(
                source_net,
                prepared.train_inputs[view],
                prepared.train_labels,
                _train_config(config, seeds["pretrain"] + view),
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
        prepared.train_inputs[prepared.target_view],
        prepared.train_labels,
        _train_config(config, seeds["finetune"]),
        epoch_budget=config.finetune_epochs,
        frozen_params=frozen,
    )
    logs.append(("finetune", log))
    entries = [(phase, entry) for phase, log in logs for entry in log]
    rows = [
        (mode, repeat_index, epoch, phase, float(entry["loss"]), float(entry["train_accuracy"]))
        for epoch, (phase, entry) in enumerate(entries, start=1)
    ]
    accuracy = evaluate(
        net, prepared.test_inputs[prepared.target_view], prepared.test_labels
    )
    return net, accuracy, rows


def _run_once(config, schedule, dataset, repeat_index):
    if dataset is None:
        dataset = _load_config_dataset(config)
    prepared, _ = _prepare(dataset, config)
    net, accuracy, rows = _run_single(prepared, config, schedule, repeat_index)
    return net, {"accuracy": accuracy, "curves": rows}


def run_transfer(
    config: ExperimentConfig,
    schedule: TransferSchedule,
    dataset: MultiViewDataset | None = None,
    repeat_index: int = 0,
):
    """One transfer run: sequential pretraining, weight transfer, fine-tune.

    Source views are visited in ascending index order (or a seeded
    permutation with ``shuffle_view_order``), each trained for its
    scheduled epochs; the resulting weights are transferred into a fresh
    network that is fine-tuned on the target view and evaluated on the
    target test split.  Returns ``(network, metrics)`` where metrics holds
    the test accuracy and per-epoch curve rows.
    """
    if schedule is None:
        raise PipelineError("transfer mode requires a schedule")
    return _run_once(config, schedule, dataset, repeat_index)


def run_baseline(
    config: ExperimentConfig,
    dataset: MultiViewDataset | None = None,
    repeat_index: int = 0,
):
    """One baseline run: fine-tune a fresh network on the target view only."""
    return _run_once(config, None, dataset, repeat_index)


def run_experiment(
    config: ExperimentConfig,
    dataset: MultiViewDataset | None = None,
    out_dir=None,
) -> ExperimentReport:
    """Run R seeded repeats of the requested modes and aggregate.

    Persists (when ``out_dir`` is given) scores.json, report.json, and
    curves.csv — all byte-deterministic — plus timings.json with the
    non-deterministic wall-clock measurements.
    """
    experiment_start = time.perf_counter()
    if dataset is None:
        dataset = _load_config_dataset(config)
    prepared, train_part = _prepare(dataset, config)
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
    # Scoring is the train part's only use; the repeats read prepared's arrays.
    del train_part
    rows = []
    timings = {}
    accuracies = {}
    for mode in modes:
        accuracies[mode], timings[mode] = [], []
        for repeat in range(config.repeats):
            started = time.perf_counter()
            try:
                _, accuracy, repeat_rows = _run_single(
                    prepared, config, schedule if mode == "transfer" else None, repeat
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
                "init": _repeat_seeds(config.base_seed, repeat)["init"],
                "pretrain_base": _repeat_seeds(config.base_seed, repeat)["pretrain"],
                "finetune": _repeat_seeds(config.base_seed, repeat)["finetune"],
            }
            for repeat in range(config.repeats)
        ],
    }
    means = {mode: sum(values) / len(values) for mode, values in accuracies.items()}
    report = ExperimentReport(
        mode=config.mode,
        target_view=config.target_view,
        repeats=config.repeats,
        baseline_accuracies=accuracies.get("baseline"),
        transfer_accuracies=accuracies.get("transfer"),
        baseline_mean=means.get("baseline"),
        transfer_mean=means.get("transfer"),
        schedule=schedule,
        seeds=seeds,
        wall_clock_seconds=timings,
    )
    if out is not None:
        save_report(out / "report.json", report)
        write_curves_csv(out / "curves.csv", rows)
        with open(out / "timings.json", "w", encoding="utf-8", newline="\n") as handle:
            json.dump(timings, handle, indent=2)
            handle.write("\n")
    return report


def report_to_json_dict(report: ExperimentReport) -> dict:
    """Deterministic report payload (wall-clock timings excluded)."""
    schedule_payload = None
    if report.schedule is not None:
        schedule_payload = {
            "target_view": report.schedule.target_view,
            "scores": list(report.schedule.scores),
            "epochs": list(report.schedule.epochs),
            "total_epochs": report.schedule.total_epochs,
        }
    def mode_payload(accuracies, mean):
        if accuracies is None:
            return None
        return {"accuracies": [float(a) for a in accuracies], "mean": float(mean)}

    return {
        "mode": report.mode,
        "target_view": report.target_view,
        "repeats": report.repeats,
        "schedule": schedule_payload,
        "baseline": mode_payload(report.baseline_accuracies, report.baseline_mean),
        "transfer": mode_payload(report.transfer_accuracies, report.transfer_mean),
        "seeds": report.seeds,
    }


def save_report(path, report: ExperimentReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(report_to_json_dict(report), handle, indent=2)
        handle.write("\n")


def write_curves_csv(path, rows) -> None:
    """Write per-epoch rows as `mode,repeat,epoch,phase,loss,accuracy`."""
    lines = ["mode,repeat,epoch,phase,loss,accuracy"]
    for mode, repeat, epoch, phase, loss, accuracy in rows:
        lines.append(f"{mode},{repeat},{epoch},{phase},{float(loss)!r},{float(accuracy)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config file round-trip
# ---------------------------------------------------------------------------

def experiment_config_to_json_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


def experiment_config_from_json_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ValueError("experiment config must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
    if "target_view" not in payload:
        raise ValueError("experiment config requires target_view")
    kwargs = {"dataset_path": None, **payload}
    for key in ("sampling", "fcn_kernel_sizes"):
        if kwargs.get(key) is None:
            kwargs.pop(key, None)
    if "sampling" in kwargs:
        if not isinstance(kwargs["sampling"], dict):
            raise ValueError("sampling must be a JSON object")
        kwargs["sampling"] = SamplingConfig(**kwargs["sampling"])
    return ExperimentConfig(**kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no experiment config at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable experiment config {path}: {exc}") from exc
    try:
        return experiment_config_from_json_dict(payload)
    except TypeError as exc:
        raise ValueError(f"invalid experiment config {path}: {exc}") from exc


def save_experiment_config(path, config: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(experiment_config_to_json_dict(config), handle, indent=2)
        handle.write("\n")
