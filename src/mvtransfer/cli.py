"""Command-line driver exposing each pipeline stage.

Subcommands: ``importance`` (score source views), ``schedule`` (scores plus
epoch allocation), ``train`` (full experiment), ``density-grid`` (evaluate a
saved density model over a grid for external plotting), and
``validate-dataset`` (load and summarize a dataset directory).

Exit codes: 0 on success, 1 on a runtime failure (bad file contents, a
failing pipeline stage), 2 on a usage error (bad or missing flags,
out-of-range values, reversed grid bounds).  All file outputs land under the
``--out`` directory and are byte-identical across reruns with equal seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .dataset import DatasetError, load_dataset, write_json
from .density import DensityError, evaluate_density_grid, load_density_model
from .distance import DistanceError
from .flow import FlowTrainingError
from .importance import NORM_KINDS, SamplingConfig
from .networks import NetworkError
from .pipeline import (
    EXPERIMENT_MODES,
    MEASURES,
    ExperimentConfig,
    PipelineError,
    compute_schedule,
    load_experiment_config,
    run_experiment,
    score_views,
    scoring_seeds,
)

_RUNTIME_ERRORS = (
    DatasetError,
    DensityError,
    DistanceError,
    FlowTrainingError,
    NetworkError,
    PipelineError,
    OSError,
)


def _fail_usage(args, message: str) -> int:
    print(args.parser.format_usage(), end="", file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_runtime(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_dataset_path(config_path: Path, dataset_path: str) -> Path:
    """Dataset paths in a config file are relative to the config file."""
    path = Path(dataset_path)
    if not path.is_absolute():
        path = config_path.parent / path
    return path


def cmd_importance(args) -> int:
    """Score every source view against the target view; write scores.json."""
    if args.batch_size < 1:
        return _fail_usage(args, "--batch-size must be at least 1")
    if args.seed < 0:
        return _fail_usage(args, "--seed must be non-negative")
    try:
        dataset = load_dataset(args.dataset)
    except (DatasetError, OSError) as exc:
        return _fail_runtime(str(exc))
    if not 0 <= args.target_view < dataset.n_views:
        return _fail_usage(
            args,
            f"--target-view {args.target_view} out of range for "
            f"{dataset.n_views} views",
        )
    config = ExperimentConfig(
        target_view=args.target_view,
        measure=args.measure,
        density_override=args.density,
        sampling=SamplingConfig(
            batch_size=args.batch_size,
            norm_kind=args.norm,
            invert_importance=args.invert,
        ),
        base_seed=args.seed,
    )
    try:
        scores = score_views(config, dataset)
    except (_RUNTIME_ERRORS + (ValueError,)) as exc:
        return _fail_runtime(str(exc))
    write_json(
        _out_dir(args) / "scores.json",
        {
            "target_view": args.target_view,
            "measure": args.measure,
            "norm": args.norm,
            "invert": args.invert,
            "source_views": [v for v in range(dataset.n_views) if v != args.target_view],
            "scores": scores,
            "seeds": scoring_seeds(config),
        },
    )
    return 0


def _load_config_for(args):
    """Shared config loading for schedule/train; returns (config, dataset)."""
    config_path = Path(args.config)
    config = load_experiment_config(config_path)
    dataset = None
    if config.dataset_path is not None:
        dataset = load_dataset(_resolve_dataset_path(config_path, config.dataset_path))
    return config, dataset


def cmd_schedule(args) -> int:
    """Compute the full pretraining-epoch schedule; write scores.json."""
    config_path = Path(args.config)
    if not config_path.is_file():
        return _fail_usage(args, f"no experiment config at {config_path}")
    try:
        config, dataset = _load_config_for(args)
        compute_schedule(config, dataset=dataset, out_path=_out_dir(args) / "scores.json")
    except (_RUNTIME_ERRORS + (ValueError,)) as exc:
        return _fail_runtime(str(exc))
    return 0


def cmd_train(args) -> int:
    """Run the full experiment; write report.json and curves.csv."""
    config_path = Path(args.config)
    if not config_path.is_file():
        return _fail_usage(args, f"no experiment config at {config_path}")
    try:
        config, dataset = _load_config_for(args)
        if args.mode is not None:
            config = replace(config, mode=args.mode)
        run_experiment(config, dataset=dataset, out_dir=_out_dir(args))
    except (_RUNTIME_ERRORS + (ValueError,)) as exc:
        return _fail_runtime(str(exc))
    return 0


def _parse_floats(text: str, flag: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} must not be empty")
    return values


def cmd_density_grid(args) -> int:
    """Evaluate a saved density model on a regular grid; write a CSV."""
    model_path = Path(args.model)
    if not model_path.is_file():
        return _fail_usage(args, f"no density model at {model_path}")
    try:
        mins = _parse_floats(args.mins, "--mins")
        maxs = _parse_floats(args.maxs, "--maxs")
    except ValueError as exc:
        return _fail_usage(args, str(exc))
    project = None
    if args.project is not None:
        try:
            project = [int(part) for part in args.project.split(",") if part.strip() != ""]
        except ValueError:
            return _fail_usage(args, f"--project must be comma-separated integers, got {args.project!r}")
        if not project:
            return _fail_usage(args, "--project must not be empty")
    try:
        model = load_density_model(model_path)
    except DensityError as exc:
        return _fail_runtime(str(exc))
    if model.dimension > 2 and project is None:
        return _fail_usage(
            args,
            f"model has {model.dimension} dimensions; grids are 1-D/2-D only, "
            "use --project to pick the swept dimensions",
        )
    try:
        points, densities = evaluate_density_grid(
            model, mins, maxs, args.resolution, project_dims=project
        )
    except DensityError as exc:
        return _fail_usage(args, str(exc))
    header = ",".join(f"x{i + 1}" for i in range(points.shape[1])) + ",density"
    lines = [header]
    for point, density in zip(points, densities):
        coords = ",".join(repr(float(c)) for c in point)
        lines.append(f"{coords},{float(density)!r}")
    grid_path = _out_dir(args) / "density_grid.csv"
    with open(grid_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def cmd_validate_dataset(args) -> int:
    """Load a dataset directory and print a JSON summary."""
    try:
        dataset = load_dataset(args.dataset)
    except (DatasetError, OSError) as exc:
        return _fail_runtime(str(exc))
    aligned = [dataset.is_aligned(v) for v in range(dataset.n_views)]
    shapes = [
        list(dataset.view_shape(v)) if aligned[v] else None
        for v in range(dataset.n_views)
    ]
    print(
        json.dumps(
            {
                "valid": True,
                "views": dataset.n_views,
                "samples": dataset.n_samples,
                "classes": dataset.classes,
                "aligned": aligned,
                "shapes": shapes,
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtransfer",
        description="Multi-view time-series transfer-learning pipeline.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    importance = subparsers.add_parser(
        "importance", help="score each source view against the target view"
    )
    importance.add_argument("--dataset", required=True, help="dataset directory")
    importance.add_argument("--target-view", type=int, required=True)
    importance.add_argument("--measure", choices=MEASURES, required=True)
    importance.add_argument(
        "--density", choices=("kde", "flow"), default=None,
        help="override the dimension-based density-method choice",
    )
    importance.add_argument("--norm", choices=NORM_KINDS, default="frobenius")
    importance.add_argument("--batch-size", type=int, default=1024)
    importance.add_argument("--seed", type=int, default=0)
    importance.add_argument("--invert", action="store_true")
    importance.add_argument("--out", default=".")
    importance.set_defaults(func=cmd_importance, parser=importance)

    schedule = subparsers.add_parser(
        "schedule", help="compute the pretraining-epoch schedule from a config"
    )
    schedule.add_argument("--config", required=True, help="experiment config JSON")
    schedule.add_argument("--out", default=".")
    schedule.set_defaults(func=cmd_schedule, parser=schedule)

    train = subparsers.add_parser(
        "train", help="run the full experiment described by a config"
    )
    train.add_argument("--config", required=True, help="experiment config JSON")
    train.add_argument("--mode", choices=EXPERIMENT_MODES, default=None)
    train.add_argument("--out", default=".")
    train.set_defaults(func=cmd_train, parser=train)

    grid = subparsers.add_parser(
        "density-grid", help="evaluate a saved density model over a grid"
    )
    grid.add_argument("--model", required=True, help="density model JSON")
    grid.add_argument(
        "--mins", required=True,
        help="comma-separated lower bounds; use --mins=-3,-3 for negatives",
    )
    grid.add_argument(
        "--maxs", required=True,
        help="comma-separated upper bounds; use --maxs=3,3 form consistently",
    )
    grid.add_argument("--resolution", type=int, default=101)
    grid.add_argument(
        "--project", default=None,
        help="comma-separated dimensions to sweep (required above 2-D)",
    )
    grid.add_argument("--out", default=".")
    grid.set_defaults(func=cmd_density_grid, parser=grid)

    validate = subparsers.add_parser(
        "validate-dataset", help="load a dataset directory and summarize it"
    )
    validate.add_argument("--dataset", required=True, help="dataset directory")
    validate.set_defaults(func=cmd_validate_dataset, parser=validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
