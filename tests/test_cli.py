"""Tests for the command-line driver: flags, exit codes, persisted files."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from mvtransfer.cli import main
from mvtransfer.density import fit_density, save_density_model
from mvtransfer.distance import SfaParams
from mvtransfer.flow import FlowConfig
from mvtransfer.importance import SamplingConfig
from mvtransfer.pipeline import ExperimentConfig
from mvtransfer.synthetic import make_synthetic_dataset
from mvtransfer.dataset import emit_dataset


def run_cli(argv):
    """Invoke the CLI in-process, normalizing SystemExit to an exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small three-view dataset emitted once for the whole module."""
    root = tmp_path_factory.mktemp("data") / "synthetic"
    emit_dataset(
        make_synthetic_dataset(n_samples=12, channels=1, length=8, seed=0), root
    )
    return root


def write_config(path, dataset_dir, raw=None, **overrides):
    """Write a small config; the JSON values in ``raw`` replace its keys
    as written, unchecked."""
    defaults = dict(
        dataset_path=str(dataset_dir),
        target_view=2,
        sampling=SamplingConfig(batch_size=128),
        total_pretrain_epochs=4,
        finetune_epochs=3,
        train_batch_size=8,
        repeats=2,
    )
    defaults.update(overrides)
    payload = {**asdict(ExperimentConfig(**defaults)), **(raw or {})}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_scores(out):
    return json.loads((out / "scores.json").read_text(encoding="utf-8"))


class TestImportanceCommand:
    """`importance` writes one score per source view of a config."""

    def test_smoke(self, dataset_dir, tmp_path):
        config = write_config(tmp_path / "config.json", dataset_dir)
        code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        payload = read_scores(tmp_path / "out")
        assert payload["source_views"] == [0, 1]
        assert len(payload["scores"]) == 2
        assert all(s >= 0.0 for s in payload["scores"])
        assert payload["measure"] == "dtw"
        assert payload["norm"] == "frobenius"
        assert payload["invert"] is False

    def test_target_view_out_of_range(self, dataset_dir, tmp_path, capsys):
        """The config's target view is checked against the dataset: exit 1
        with one error line, as `schedule` does."""
        config = write_config(tmp_path / "config.json", dataset_dir, target_view=7)
        code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of range" in err
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        """Same config twice gives byte-identical scores.json."""
        config = write_config(tmp_path / "config.json", dataset_dir, base_seed=3)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli(["importance", "--config", str(config), "--out", str(out)]) == 0
        assert (outs[0] / "scores.json").read_bytes() == (outs[1] / "scores.json").read_bytes()

    def test_invert_flag_changes_scores(self, dataset_dir, tmp_path):
        """`invert_importance` maps raw importance onto a (0, 1] affinity scale."""
        for name, invert in (("raw", False), ("inv", True)):
            config = write_config(
                tmp_path / f"{name}.json",
                dataset_dir,
                sampling=SamplingConfig(batch_size=128, invert_importance=invert),
            )
            code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / name)])
            assert code == 0
        raw, inv = read_scores(tmp_path / "raw"), read_scores(tmp_path / "inv")
        assert raw["scores"] != inv["scores"]
        assert all(0.0 < s <= 1.0 for s in inv["scores"])
        assert inv["invert"] is True

    def test_measure_params_reach_scoring(self, dataset_dir, tmp_path):
        """A dtw band radius of 0 scores differently from the full window."""
        for name, params in (("full", None), ("band", {"band_radius": 0})):
            config = write_config(
                tmp_path / f"{name}.json", dataset_dir, {"measure_params": params}
            )
            code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / name)])
            assert code == 0
        assert read_scores(tmp_path / "full")["scores"] != read_scores(tmp_path / "band")["scores"]

    def test_scores_where_schedule_does_not(self, dataset_dir, tmp_path):
        """Under a zero budget `schedule` records all-zero scores and
        `importance` still scores."""
        config = write_config(tmp_path / "config.json", dataset_dir, total_pretrain_epochs=0)
        for command in ("schedule", "importance"):
            code = run_cli([command, "--config", str(config), "--out", str(tmp_path / command)])
            assert code == 0
        assert read_scores(tmp_path / "schedule")["scores"] == [0.0, 0.0]
        assert all(s > 0.0 for s in read_scores(tmp_path / "importance")["scores"])

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", tmp_path / "absent", target_view=1)
        code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_batch_size(self, dataset_dir, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json", dataset_dir, {"sampling": {"batch_size": 0}}
        )
        code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: sampling.batch_size must be at least 1" in capsys.readouterr().err

    def test_missing_required_flag(self):
        assert run_cli(["importance", "--out", "."]) == 2

    def test_unknown_measure(self, dataset_dir, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", dataset_dir, {"measure": "euclid"})
        code = run_cli(["importance", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        message = "error: measure must be one of ('dtw', 'boss'), got 'euclid'"
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("raw", [None, {"dataset_path": None}], ids=["absent", "null"])
@pytest.mark.parametrize("command", ["importance", "schedule", "train"])
def test_missing_dataset_leaves_no_out_dir(tmp_path, capsys, command, raw):
    """A config whose dataset directory is absent, or that names none,
    exits 1 before `--out` is made."""
    config = write_config(tmp_path / "config.json", tmp_path / "absent", raw)
    code = run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestScheduleCommand:
    """`schedule` persists scores plus the epoch allocation."""

    def test_writes_schedule(self, dataset_dir, tmp_path):
        config = write_config(tmp_path / "config.json", dataset_dir)
        code = run_cli(["schedule", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "scores.json").read_text(encoding="utf-8"))
        assert sum(payload["epochs"]) == 4
        assert len(payload["scores"]) == 2
        assert payload["target_view"] == 2

    def test_missing_config(self, tmp_path, capsys):
        code = run_cli(
            ["schedule", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{oops", encoding="utf-8")
        code = run_cli(["schedule", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1

    def test_relative_dataset_path(self, tmp_path):
        """dataset_path resolves relative to the config file's directory."""
        emit_dataset(
            make_synthetic_dataset(n_samples=12, channels=1, length=8), tmp_path / "ds"
        )
        config = write_config(tmp_path / "config.json", "ds")
        code = run_cli(["schedule", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        config = write_config(tmp_path / "config.json", dataset_dir)
        for name in ("a", "b"):
            assert run_cli(
                ["schedule", "--config", str(config), "--out", str(tmp_path / name)]
            ) == 0
        assert (tmp_path / "a" / "scores.json").read_bytes() == (
            tmp_path / "b" / "scores.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "measure, params, message",
        [
            (
                "boss",
                {"window_length": "8"},
                "measure_params.window_length must be an integer, got '8'",
            ),
            (
                "boss",
                {"window_length": 8, "word_length": 4.0},
                "measure_params.word_length must be an integer, got 4.0",
            ),
            (
                "boss",
                {"window_length": 8, "mean_normalize": "yes"},
                "measure_params.mean_normalize must be a bool, got 'yes'",
            ),
            ("boss", {}, "missing key 'measure_params.window_length'"),
            ("dtw", {"band_radius": "3"}, "measure_params.band_radius must be an integer, got '3'"),
            ("dtw", {"band_radius": True}, "measure_params.band_radius must be an integer, got True"),
        ],
        ids=["boss-string", "boss-float", "boss-flag", "boss-empty", "dtw-string", "dtw-bool"],
    )
    def test_bad_measure_params_value(self, dataset_dir, tmp_path, capsys, measure, params, message):
        """A measure_params value of the wrong type is a runtime error
        naming the field, not a traceback."""
        config = write_config(
            tmp_path / "config.json", dataset_dir, {"measure_params": params}, measure=measure
        )
        code = run_cli(["schedule", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_scores_equal_importance_scores(self, dataset_dir, tmp_path):
        """`schedule`, `importance` and `train` all score the training part
        of one split: `schedule` writes `train`'s scores.json bytes, and
        `importance` the same scores."""
        config = write_config(
            tmp_path / "config.json",
            dataset_dir,
            sampling=SamplingConfig(batch_size=128, invert_importance=True),
            base_seed=3,
        )
        for command in ("schedule", "importance", "train"):
            code = run_cli([command, "--config", str(config), "--out", str(tmp_path / command)])
            assert code == 0
        schedule_bytes = (tmp_path / "schedule" / "scores.json").read_bytes()
        assert schedule_bytes == (tmp_path / "train" / "scores.json").read_bytes()
        schedule = read_scores(tmp_path / "schedule")
        importance = read_scores(tmp_path / "importance")
        assert importance["scores"] == schedule["scores"]
        assert importance["seeds"] == schedule["seeds"]


@pytest.mark.parametrize("command", ["importance", "schedule", "train"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"train_fraction": 0.3, "base_seed": 30},
            r"split \(seed 6000030, train_fraction 0.3\) leaves classes \['fast'\] out "
            "of the training part",
        ),
        (
            {"train_fraction": 0.5, "density_override": "flow"},
            "scoring with the flow density needs at least 8 samples, got 6",
        ),
        (
            {"measure": "boss", "measure_params": SfaParams(window_length=64)},
            r"measure_params\.window_length 64 exceeds the shortest aligned series \(8\)",
        ),
    ],
    ids=["single-class-training-part", "too-few-for-the-flow", "boss-window-too-long"],
)
def test_training_part_faults_fail_every_command(
    dataset_dir, tmp_path, capsys, monkeypatch, command, overrides, message
):
    """A training part of one class, too small for the flow, or shorter
    than the boss window fails every config command alike, before any
    latent set is built: exit 1 with one error line."""
    import mvtransfer.importance as importance

    def refuse(*args, **kwargs):
        raise AssertionError("a latent set was built")

    monkeypatch.setattr(importance, "build_latent_set", refuse)
    config = write_config(tmp_path / "config.json", dataset_dir, **overrides)
    code = run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(f"error: {message}\n", err), err


@pytest.mark.parametrize(
    "raw",
    [
        {"learning_rate": -1},
        {"train_batch_size": 0},
        {"beta1": 1.0},
        {"dropout_rate": 1.5},
        {"arch": "fcn", "fcn_kernel_sizes": [8, 5]},
        {"align_strategy": "bogus"},
    ],
    ids=lambda raw: json.dumps(raw),
)
@pytest.mark.parametrize("command", ["importance", "schedule", "train"])
def test_config_faults_fail_every_command_at_load(dataset_dir, tmp_path, capsys, command, raw):
    """A setting that is wrong without any data fails at load for every
    config command alike: exit 1 with one error line that starts with the
    key, and no `--out` directory."""
    config = write_config(tmp_path / "config.json", dataset_dir, raw)
    code = run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(f"error: {list(raw)[-1]} [^\n]*\n", err), err
    assert not (tmp_path / "out").exists()


class TestTrainCommand:
    """`train` runs the experiment and persists deterministic outputs."""

    def test_both_modes_present(self, dataset_dir, tmp_path):
        config = write_config(tmp_path / "config.json", dataset_dir, mode="both")
        code = run_cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 0
        report = json.loads(
            (tmp_path / "run" / "report.json").read_text(encoding="utf-8")
        )
        assert report["baseline"]["mean"] is not None
        assert report["transfer"]["mean"] is not None
        assert len(report["baseline"]["accuracies"]) == 2
        assert len(report["transfer"]["accuracies"]) == 2

    def test_curves_row_count(self, dataset_dir, tmp_path):
        """Transfer logs R*(T+F) rows and baseline logs R*F rows."""
        config = write_config(tmp_path / "config.json", dataset_dir, mode="both")
        run_cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        lines = (
            (tmp_path / "run" / "curves.csv").read_text(encoding="utf-8").strip().split("\n")
        )
        repeats, total, finetune = 2, 4, 3
        assert len(lines) - 1 == repeats * (total + finetune) + repeats * finetune

    def test_missing_config(self, tmp_path):
        assert (
            run_cli(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == 2
        )

    def test_mode_override(self, dataset_dir, tmp_path):
        config = write_config(tmp_path / "config.json", dataset_dir, mode="both")
        code = run_cli(
            [
                "train",
                "--config", str(config),
                "--mode", "baseline",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        report = json.loads(
            (tmp_path / "run" / "report.json").read_text(encoding="utf-8")
        )
        assert report["mode"] == "baseline"
        assert report["transfer"] is None
        assert not (tmp_path / "run" / "scores.json").exists()

    def test_failing_stage_named(self, dataset_dir, tmp_path, capsys):
        """A diverging run exits 1 and names the failing repeat."""
        config = write_config(
            tmp_path / "config.json", dataset_dir, mode="baseline", learning_rate=1e300
        )
        with np.errstate(all="ignore"):
            code = run_cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "baseline repeat 0 failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"learning_rate": "0.001"}, "learning_rate"),
            ({"train_batch_size": "64"}, "train_batch_size"),
            ({"dropout_rate": None}, "dropout_rate"),
            ({"base_seed": 1.5}, "base_seed"),
            ({"sampling": {"batch_size": 3.5}}, "sampling.batch_size"),
            ({"repeats": 2.5}, "repeats"),
            ({"repeats": True}, "repeats"),
            ({"shuffle_view_order": "no"}, "shuffle_view_order"),
            ({"arch": "fcn", "fcn_kernel_sizes": [3.9, 2, 2]}, "fcn_kernel_sizes[0]"),
            ({"mode": "baseline", "measure_params": {"radius": 2}}, "measure_params.radius"),
            ({"total_pretrain_epochs": 4.0}, "total_pretrain_epochs"),
            ({"sampling": {"seed": 5}}, "sampling.seed"),
            ({"learning_rate": math.nan}, "learning_rate must be a finite number, got nan"),
            ({"adam_epsilon": math.inf}, "adam_epsilon must be a finite number, got inf"),
            ({"train_fraction": -math.inf}, "train_fraction must be a finite number, got -inf"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else value,
    )
    def test_mistyped_value_fails_at_load(self, dataset_dir, tmp_path, capsys, raw, path):
        """A config value of the wrong type or an unknown key exits 1 with
        one error line naming its key path, before any output is written."""
        config = write_config(tmp_path / "config.json", dataset_dir, raw)
        code = run_cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1
        assert len(errors) == 1 and path in errors[0], err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        """Report and curves are byte-identical across reruns."""
        config = write_config(tmp_path / "config.json", dataset_dir)
        for name in ("a", "b"):
            assert run_cli(
                ["train", "--config", str(config), "--out", str(tmp_path / name)]
            ) == 0
        for artifact in ("report.json", "curves.csv", "scores.json"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes(), artifact


class TestDensityGridCommand:
    """`density-grid` evaluates saved models over regular grids."""

    def test_reads_the_models_importance_writes(self, dataset_dir, tmp_path):
        """`importance` writes each source view's latent set and density
        model beside scores.json, and `density-grid` reads the model."""
        config = write_config(tmp_path / "config.json", dataset_dir)
        out = tmp_path / "importance"
        assert run_cli(["importance", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "density_view0.json",
            "density_view1.json",
            "latent_view0.json",
            "latent_view1.json",
            "scores.json",
        ]
        code = run_cli(
            [
                "density-grid",
                "--model", str(out / "density_view0.json"),
                "--mins=-3",
                "--maxs=3",
                "--out", str(tmp_path / "grid"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "grid" / "density_grid.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x1,density"
        assert len(lines) - 1 == 101

    def test_kde_1d_grid_integrates_to_one(self, tmp_path):
        """101-point 1-D grid: 101 rows whose trapezoid integral is ~1."""
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 1))
        model = fit_density(data)
        model_path = tmp_path / "kde.json"
        save_density_model(model, model_path)
        lo = float(data.mean() - 10.0 * data.std())
        hi = float(data.mean() + 10.0 * data.std())
        code = run_cli(
            [
                "density-grid",
                "--model", str(model_path),
                f"--mins={lo!r}",
                f"--maxs={hi!r}",
                "--resolution", "101",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "density_grid.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "x1,density"
        assert len(lines) - 1 == 101
        xs = np.array([float(line.split(",")[0]) for line in lines[1:]])
        densities = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert abs(np.trapezoid(densities, xs) - 1.0) < 1e-2

    def test_flow_2d_grid_positive(self, tmp_path):
        """2-D flow on a 51x51 grid: 2601 rows, all densities non-negative."""
        rng = np.random.default_rng(1)
        data = rng.standard_normal((64, 2))
        model = fit_density(
            data,
            override="flow",
            flow_config=FlowConfig(
                layer_count=2, coupling_net_width=4, training_iterations=30, seed=0
            ),
        )
        model_path = tmp_path / "flow.json"
        save_density_model(model, model_path)
        code = run_cli(
            [
                "density-grid",
                "--model", str(model_path),
                "--mins=-3,-3",
                "--maxs=3,3",
                "--resolution", "51",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "density_grid.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "x1,x2,density"
        assert len(lines) - 1 == 51 * 51
        densities = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(d >= 0.0 for d in densities)

    def test_reversed_bounds(self, tmp_path, capsys):
        model_path = tmp_path / "kde.json"
        save_density_model(fit_density(np.linspace(-1, 1, 20)[:, None]), model_path)
        code = run_cli(
            [
                "density-grid",
                "--model", str(model_path),
                "--mins=2",
                "--maxs=-2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "reversed" in capsys.readouterr().err

    def test_3d_requires_projection(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        model_path = tmp_path / "kde3.json"
        save_density_model(fit_density(rng.standard_normal((30, 3))), model_path)
        args = [
            "density-grid",
            "--model", str(model_path),
            "--mins=-2,-2",
            "--maxs=2,2",
            "--out", str(tmp_path),
        ]
        assert run_cli(args) == 2
        assert "--project" in capsys.readouterr().err
        assert run_cli(args + ["--project", "0,2"]) == 0
        header = (
            (tmp_path / "density_grid.csv").read_text(encoding="utf-8").split("\n")[0]
        )
        assert header == "x1,x2,x3,density"

    def test_missing_model(self, tmp_path):
        code = run_cli(
            [
                "density-grid",
                "--model", str(tmp_path / "absent.json"),
                "--mins=-1",
                "--maxs=1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_unparseable_model(self, tmp_path):
        model_path = tmp_path / "bad.json"
        model_path.write_text("not json", encoding="utf-8")
        code = run_cli(
            [
                "density-grid",
                "--model", str(model_path),
                "--mins=-1",
                "--maxs=1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_malformed_flow_model_fails_at_load(self, tmp_path, capsys):
        """A flow file without its parameters exits 1 naming the key, not
        with a traceback from inside the grid evaluation."""
        model = fit_density(
            np.random.default_rng(3).standard_normal((16, 2)),
            override="flow",
            flow_config=FlowConfig(layer_count=2, coupling_net_width=2, training_iterations=2),
        )
        model_path = tmp_path / "flow.json"
        save_density_model(model, model_path)
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        del payload["flow"]["params"]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        code = run_cli(
            [
                "density-grid",
                "--model", str(model_path),
                "--mins=-1,-1",
                "--maxs=1,1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'params'" in err
        assert not (tmp_path / "density_grid.csv").exists()

    def test_malformed_bounds_and_resolution(self, tmp_path):
        model_path = tmp_path / "kde.json"
        save_density_model(fit_density(np.linspace(-1, 1, 20)[:, None]), model_path)
        base = ["density-grid", "--model", str(model_path), "--out", str(tmp_path)]
        assert run_cli(base + ["--mins=abc", "--maxs=1"]) == 2
        assert run_cli(base + ["--mins=-1,-1", "--maxs=1"]) == 2
        assert run_cli(base + ["--mins=-1", "--maxs=1", "--resolution", "1"]) == 2

    @pytest.mark.parametrize(
        "variant, bounds",
        [
            ("flow", ["--mins=nan,0", "--maxs=1,1"]),
            ("kde", ["--mins=nan,0", "--maxs=1,1"]),
            ("kde", ["--mins=0,-inf", "--maxs=1,1"]),
            ("kde", ["--mins=0,0", "--maxs=inf,1"]),
        ],
        ids=["flow-nan", "kde-nan", "kde-minus-inf", "kde-inf"],
    )
    def test_non_finite_bounds_exit_2(self, tmp_path, capsys, variant, bounds):
        """A NaN or infinite bound is a usage error naming the bounds,
        raised before the grid is built."""
        data = np.random.default_rng(4).standard_normal((16, 4 if variant == "flow" else 2))
        config = FlowConfig(layer_count=2, coupling_net_width=2, training_iterations=2)
        model_path = tmp_path / "model.json"
        save_density_model(fit_density(data, flow_config=config), model_path)
        args = ["density-grid", "--model", str(model_path), *bounds, "--out", str(tmp_path)]
        if variant == "flow":
            args += ["--project", "0,1"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "grid bounds must be finite: mins" in err
        assert not (tmp_path / "density_grid.csv").exists()

    @pytest.mark.parametrize("variant", ["kde", "flow"])
    def test_rerun_byte_identical(self, tmp_path, variant):
        """Two runs write the same bytes; the flow's default 101x101 grid
        spans several evaluation blocks."""
        model_path = tmp_path / "model.json"
        if variant == "kde":
            save_density_model(fit_density(np.linspace(-1, 1, 20)[:, None]), model_path)
            grid = ["--mins=-2", "--maxs=2"]
        else:
            data = np.random.default_rng(5).standard_normal((32, 6))
            config = FlowConfig(layer_count=2, coupling_net_width=4, training_iterations=5)
            save_density_model(fit_density(data, flow_config=config), model_path)
            grid = ["--mins=-2,-2", "--maxs=2,2", "--project", "0,1"]
        for name in ("a", "b"):
            assert run_cli(
                ["density-grid", "--model", str(model_path), *grid, "--out", str(tmp_path / name)]
            ) == 0
        assert (tmp_path / "a" / "density_grid.csv").read_bytes() == (
            tmp_path / "b" / "density_grid.csv"
        ).read_bytes()


class TestValidateDatasetCommand:
    """`validate-dataset` summarizes a dataset directory."""

    def test_valid_dataset(self, dataset_dir, capsys):
        assert run_cli(["validate-dataset", "--dataset", str(dataset_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["views"] == 3
        assert payload["samples"] == 12
        assert payload["classes"] == ["fast", "slow"]
        assert payload["aligned"] == [True, True, True]
        assert payload["shapes"] == [[1, 8], [1, 8], [1, 8]]

    @pytest.mark.parametrize("groups", [{"s000": "subj1"}, ["a"]], ids=["object", "list"])
    def test_manifest_groups_key_ignored(self, dataset_dir, tmp_path, capsys, groups):
        """A manifest key the loader does not read, here 'groups' in any
        form, leaves the summary as it is without the key."""
        root = tmp_path / "grouped"
        shutil.copytree(dataset_dir, root)
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        (root / "manifest.json").write_text(
            json.dumps({**manifest, "groups": groups}), encoding="utf-8"
        )
        assert run_cli(["validate-dataset", "--dataset", str(dataset_dir)]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert run_cli(["validate-dataset", "--dataset", str(root)]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    def test_missing_directory(self, tmp_path, capsys):
        assert run_cli(["validate-dataset", "--dataset", str(tmp_path / "none")]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_manifest(self, tmp_path, capsys):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "manifest.json").write_text("{broken", encoding="utf-8")
        assert run_cli(["validate-dataset", "--dataset", str(root)]) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["manifest.json", "view_0.csv"])
@pytest.mark.parametrize("command", ["validate-dataset", "importance", "schedule", "train"])
def test_undecodable_byte_is_one_error_line(dataset_dir, tmp_path, capsys, command, name):
    """A byte that is not UTF-8 in the manifest or a view file exits 1 with
    one `error:` line naming the file, and no traceback."""
    root = tmp_path / "ds"
    shutil.copytree(dataset_dir, root)
    path = root / name
    data = path.read_bytes()
    path.write_bytes(data[:20] + b"\xff" + data[20:])
    if command == "validate-dataset":
        argv = [command, "--dataset", str(root)]
    else:
        config = write_config(tmp_path / "config.json", root)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "0xff" in err and "Traceback" not in err


class TestEntryPoint:
    """The module runs as a script with the same exit-code contract."""

    def test_module_invocation(self, dataset_dir):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "mvtransfer.cli",
                "validate-dataset",
                "--dataset", str(dataset_dir),
            ],
            capture_output=True,
            text=True,
            # The child imports the package from wherever this process did.
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["valid"] is True

    def test_no_subcommand_is_usage_error(self):
        assert run_cli([]) == 2
