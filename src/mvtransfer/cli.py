"""Command-line driver exposing each pipeline stage.

Subcommands: ``importance`` (score source views, and write each view's
latent set and density model), ``schedule`` (scores plus epoch allocation)
and ``train`` (full experiment), each reading one experiment config through
``--config`` and scoring the training part of its split, so all three
record the same scores; ``density-grid`` (evaluate a density model that
``importance`` wrote over a grid for external plotting); and
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

from .dataset import DatasetError, load_dataset, write_csv, write_json
from .density import DensityError, evaluate_density_grid, load_density_model
from .distance import DistanceError
from .flow import FlowTrainingError
from .networks import NetworkError
from .pipeline import (
    EXPERIMENT_MODES,
    PipelineError,
    compute_schedule,
    load_experiment_config,
    run_experiment,
    score_views,
    scoring_seeds,
    split_parts,
)

_RUNTIME_ERRORS = (
    DatasetError,
    DensityError,
    DistanceError,
    FloatingPointError,
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


def _run_config_command(args) -> int:
    """Load ``--config`` and the dataset it names, then run the subcommand's
    ``job(args, config, dataset)``.

    ``dataset_path`` resolves against the config file's directory.  A missing
    config file is a usage error; a fault in the config, the dataset or the
    job exits 1 with one ``error:`` line, and a load fault writes nothing.
    """
    config_path = Path(args.config)
    if not config_path.is_file():
        return _fail_usage(args, f"no experiment config at {config_path}")
    try:
        config = load_experiment_config(config_path)
        if config.dataset_path is None:
            raise PipelineError(f"{config_path} has no dataset_path")
        args.job(args, config, load_dataset(config_path.parent / config.dataset_path))
    except (_RUNTIME_ERRORS + (ValueError,)) as exc:
        return _fail_runtime(str(exc))
    return 0


def cmd_importance(args, config, dataset) -> None:
    """Score every source view on the training part; write scores.json and
    each view's ``latent_view{i}.json`` and ``density_view{i}.json``.

    Unlike ``schedule``, it scores even under ``forced_epochs`` or a zero
    budget.
    """
    train_part, _ = split_parts(dataset, config)
    scores = score_views(config, train_part, artifact_dir=args.out)
    write_json(
        _out_dir(args) / "scores.json",
        {
            "target_view": config.target_view,
            "measure": config.measure,
            "norm": config.sampling.norm_kind,
            "invert": config.sampling.invert_importance,
            "source_views": [v for v in range(dataset.n_views) if v != config.target_view],
            "scores": scores,
            "seeds": scoring_seeds(config),
        },
    )


def cmd_schedule(args, config, dataset) -> None:
    """Compute the pretraining-epoch schedule on the training part; write
    scores.json, the bytes ``train`` writes for the same config."""
    train_part, _ = split_parts(dataset, config)
    compute_schedule(config, dataset=train_part, out_path=_out_dir(args) / "scores.json")


def cmd_train(args, config, dataset) -> None:
    """Run the full experiment; write report.json and curves.csv."""
    if args.mode is not None:
        config = replace(config, mode=args.mode)
    run_experiment(config, dataset=dataset, out_dir=_out_dir(args))


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
    header = [f"x{i + 1}" for i in range(points.shape[1])] + ["density"]
    rows = [[*point, density] for point, density in zip(points.tolist(), densities.tolist())]
    write_csv(_out_dir(args) / "density_grid.csv", header, rows)
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

    def config_command(name, job, help_text):
        command = subparsers.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="experiment config JSON")
        command.add_argument("--out", default=".")
        command.set_defaults(func=_run_config_command, job=job, parser=command)
        return command

    config_command("importance", cmd_importance, "score each source view against the target view")
    config_command("schedule", cmd_schedule, "compute the pretraining-epoch schedule from a config")
    train = config_command("train", cmd_train, "run the full experiment described by a config")
    train.add_argument("--mode", choices=EXPERIMENT_MODES, default=None)

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
