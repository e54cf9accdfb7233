"""Tests for the experiment orchestration layer and the synthetic fixture."""

import json
import warnings

import numpy as np
import pytest

from conftest import make_random_dataset
from mvtransfer.dataset import (
    MultiViewDataset,
    SplitSpec,
    align_lengths,
    load_dataset,
    split_dataset,
)
from mvtransfer.importance import SamplingConfig, TransferSchedule
from mvtransfer.networks import init_network, NetworkConfig
from mvtransfer.pipeline import (
    SPLIT_SEED_OFFSET,
    ExperimentConfig,
    ExperimentReport,
    PipelineError,
    compute_schedule,
    experiment_config_from_json_dict,
    experiment_config_to_json_dict,
    load_experiment_config,
    report_to_json_dict,
    run_baseline,
    run_experiment,
    run_transfer,
    save_experiment_config,
)
from mvtransfer.synthetic import (
    CORRELATED_VIEW,
    DISTRACTOR_VIEW,
    TARGET_VIEW,
    make_synthetic_dataset,
    main as synthetic_main,
)


def tiny_dataset(n_samples=12, channels=1, length=8, seed=0):
    """Small synthetic dataset keeping pipeline tests fast."""
    return make_synthetic_dataset(
        n_samples=n_samples, channels=channels, length=length, seed=seed
    )


def tiny_config(**overrides):
    """Fast experiment defaults; individual tests override what they probe."""
    defaults = dict(
        dataset_path=None,
        target_view=TARGET_VIEW,
        measure="dtw",
        sampling=SamplingConfig(batch_size=128),
        total_pretrain_epochs=4,
        finetune_epochs=3,
        arch="mlp",
        train_batch_size=8,
        repeats=2,
        base_seed=0,
        mode="both",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSyntheticDataset:
    """The bundled three-view fixture."""

    def test_structure(self):
        """Three views, target last, alternating labels, padded ids."""
        ds = make_synthetic_dataset(n_samples=6, channels=2, length=16, seed=0)
        assert ds.n_views == 3
        assert TARGET_VIEW == 2 and CORRELATED_VIEW == 0 and DISTRACTOR_VIEW == 1
        assert ds.n_samples == 6
        assert ds.labels == ["slow", "fast", "slow", "fast", "slow", "fast"]
        assert ds.sample_ids == [f"s{i:03d}" for i in range(6)]
        for view in range(3):
            assert ds.view_shape(view) == (2, 16)

    def test_correlated_view_tracks_target(self):
        """View 0 stays close to the target; view 1 does not."""
        ds = make_synthetic_dataset(n_samples=10, channels=1, length=32, seed=3)
        correlated_gap = np.mean(
            [
                np.abs(ds.views[CORRELATED_VIEW][i] - ds.views[TARGET_VIEW][i]).mean()
                for i in range(ds.n_samples)
            ]
        )
        distractor_gap = np.mean(
            [
                np.abs(ds.views[DISTRACTOR_VIEW][i] - ds.views[TARGET_VIEW][i]).mean()
                for i in range(ds.n_samples)
            ]
        )
        assert correlated_gap < 0.2
        assert distractor_gap > 0.5

    def test_deterministic(self):
        """Same seed gives bit-identical samples; different seed differs."""
        a = make_synthetic_dataset(n_samples=6, seed=5)
        b = make_synthetic_dataset(n_samples=6, seed=5)
        c = make_synthetic_dataset(n_samples=6, seed=6)
        for view in range(3):
            for i in range(6):
                np.testing.assert_array_equal(a.views[view][i], b.views[view][i])
        assert not np.array_equal(a.views[0][0], c.views[0][0])

    def test_frequency_separates_classes(self):
        """Class means reflect one- vs two-cycle oscillation."""
        ds = make_synthetic_dataset(n_samples=8, channels=1, length=64, noise_scale=0.0, seed=1)
        for i, label in enumerate(ds.labels):
            series = ds.views[TARGET_VIEW][i][0]
            spectrum = np.abs(np.fft.rfft(series - series.mean()))
            dominant = int(np.argmax(spectrum))
            assert dominant == (1 if label == "slow" else 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            make_synthetic_dataset(n_samples=3)
        with pytest.raises(ValueError, match="channels"):
            make_synthetic_dataset(channels=0)
        with pytest.raises(ValueError, match="length"):
            make_synthetic_dataset(length=2)
        with pytest.raises(ValueError, match="noise_scale"):
            make_synthetic_dataset(noise_scale=-0.1)

    def test_emit_round_trip(self, tmp_path):
        """Command-line emitter writes a loadable dataset."""
        out = tmp_path / "synthetic"
        code = synthetic_main(
            ["--out", str(out), "--samples", "6", "--channels", "1", "--length", "8"]
        )
        assert code == 0
        loaded = load_dataset(out)
        direct = make_synthetic_dataset(n_samples=6, channels=1, length=8)
        assert loaded.labels == direct.labels
        assert loaded.sample_ids == direct.sample_ids
        for view in range(3):
            for i in range(6):
                np.testing.assert_allclose(
                    loaded.views[view][i], direct.views[view][i], atol=1e-12
                )

    def test_main_rejects_bad_sizes(self, tmp_path, capsys):
        code = synthetic_main(["--out", str(tmp_path / "d"), "--samples", "2"])
        assert code == 1
        assert "n_samples" in capsys.readouterr().err


class TestExperimentConfig:
    """Validation and JSON round-trip of the experiment configuration."""

    def test_defaults_valid(self):
        config = tiny_config()
        assert config.mode == "both"
        assert config.align_strategy == "zero-pad-to-max"

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="measure"):
            tiny_config(measure="euclid")
        with pytest.raises(ValueError, match="mode"):
            tiny_config(mode="all")
        with pytest.raises(ValueError, match="arch"):
            tiny_config(arch="rnn")
        with pytest.raises(ValueError, match="total_pretrain_epochs"):
            tiny_config(total_pretrain_epochs=-1)
        with pytest.raises(ValueError, match="repeats"):
            tiny_config(repeats=0)
        with pytest.raises(ValueError, match="train_fraction"):
            tiny_config(train_fraction=1.0)
        with pytest.raises(ValueError, match="target_view"):
            tiny_config(target_view=-1)
        with pytest.raises(ValueError, match="density_override"):
            tiny_config(density_override="histogram")

    def test_forced_epochs_must_sum_to_total(self):
        with pytest.raises(ValueError, match="does not match"):
            tiny_config(forced_epochs=(3, 3), total_pretrain_epochs=4)
        config = tiny_config(forced_epochs=(1, 3), total_pretrain_epochs=4)
        assert config.forced_epochs == (1, 3)

    def test_json_round_trip(self):
        config = tiny_config(
            measure="boss",
            measure_params={"window_length": 6, "word_length": 3},
            sampling=SamplingConfig(batch_size=64, seed=9, invert_importance=True),
            forced_epochs=(2, 2),
            fcn_kernel_sizes=(3, 3, 3),
        )
        payload = experiment_config_to_json_dict(config)
        assert payload["sampling"]["seed"] == 9
        restored = experiment_config_from_json_dict(json.loads(json.dumps(payload)))
        assert restored == config

    def test_rejects_unknown_keys(self):
        payload = experiment_config_to_json_dict(tiny_config())
        payload["epochs"] = 10
        with pytest.raises(ValueError, match="unknown experiment config keys"):
            experiment_config_from_json_dict(payload)

    def test_requires_target_view(self):
        with pytest.raises(ValueError, match="target_view"):
            experiment_config_from_json_dict({"mode": "both"})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="no experiment config"):
            load_experiment_config(tmp_path / "absent.json")

    def test_load_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="unparseable"):
            load_experiment_config(path)

    def test_file_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "config.json"
        save_experiment_config(path, config)
        assert load_experiment_config(path) == config


class TestComputeSchedule:
    """Importance scoring feeding the epoch allocator."""

    def test_identical_sources_split_evenly(self):
        """Two sources identical to the target receive T/2 epochs each."""
        base = tiny_dataset(n_samples=8)
        target = base.views[TARGET_VIEW]
        copies = [[s.copy() for s in target] for _ in range(2)]
        ds = MultiViewDataset(
            views=[copies[0], copies[1], target],
            labels=base.labels,
            sample_ids=base.sample_ids,
        )
        config = tiny_config(total_pretrain_epochs=100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            schedule = compute_schedule(config, dataset=ds)
        assert schedule.epochs == (50, 50)
        assert schedule.scores[0] == schedule.scores[1]

    def test_sum_matches_budget(self):
        ds = tiny_dataset()
        schedule = compute_schedule(tiny_config(total_pretrain_epochs=7), dataset=ds)
        assert sum(schedule.epochs) == 7
        assert schedule.target_view == TARGET_VIEW

    def test_rerun_writes_identical_bytes(self, tmp_path):
        """Same base seed produces an identical scores.json, byte for byte."""
        ds = tiny_dataset()
        config = tiny_config()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        compute_schedule(config, dataset=ds, out_path=first)
        compute_schedule(config, dataset=ds, out_path=second)
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text(encoding="utf-8"))
        assert payload["seeds"]["scoring"] == config.base_seed + 1_000_000

    def test_forced_epochs_skip_scoring(self):
        """A forced allocation is wrapped directly, without measuring anything."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(0, 4), total_pretrain_epochs=4)
        schedule = compute_schedule(config, dataset=ds)
        assert schedule.epochs == (0, 4)
        assert schedule.scores == (0.0, 0.0)

    def test_forced_epochs_length_checked(self):
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(4,), total_pretrain_epochs=4)
        with pytest.raises(PipelineError, match="forced_epochs"):
            compute_schedule(config, dataset=ds)

    def test_zero_budget_skips_scoring(self):
        ds = tiny_dataset()
        schedule = compute_schedule(tiny_config(total_pretrain_epochs=0), dataset=ds)
        assert schedule.epochs == (0, 0)
        assert schedule.total_epochs == 0

    def test_target_view_out_of_range(self):
        ds = tiny_dataset()
        with pytest.raises(PipelineError, match="out of range"):
            compute_schedule(tiny_config(target_view=3), dataset=ds)

    def test_channel_mismatch_fails_before_distances(self, monkeypatch):
        """View 0 matches the target but view 1 does not: scoring fails
        naming the views before view 0's distances are computed."""
        import mvtransfer.importance as importance

        def refuse(*args, **kwargs):
            raise AssertionError("a latent set was built")

        monkeypatch.setattr(importance, "build_latent_set", refuse)
        ds = make_random_dataset(
            np.random.default_rng(3), n_views=3, n_samples=12, channels=(2, 3, 2)
        )
        with pytest.raises(
            PipelineError,
            match=r"scoring needs every source view to have target view 2's 2 channels; "
            r"channels by source view: \{1: 3\}",
        ):
            compute_schedule(tiny_config(target_view=2), dataset=ds)

    def test_ragged_views_scored_after_alignment(self):
        """Scoring aligns ragged views the way training does."""
        ds = make_random_dataset(np.random.default_rng(7), n_samples=12, ragged=True)
        config = tiny_config(target_view=1)
        assert not ds.is_aligned(0)
        assert compute_schedule(config, dataset=ds) == compute_schedule(
            config, dataset=align_lengths(ds, config.align_strategy)
        )


class TestRunTransfer:
    """Single-run bookkeeping: curve rows, phases, epoch numbering."""

    def test_curve_rows_cover_every_epoch(self):
        """Row count equals scheduled pretraining plus fine-tuning epochs."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(3, 1), total_pretrain_epochs=4)
        schedule = compute_schedule(config, dataset=ds)
        _, metrics = run_transfer(config, schedule, dataset=ds)
        rows = metrics["curves"]
        assert len(rows) == sum(schedule.epochs) + config.finetune_epochs
        assert [row[2] for row in rows] == list(range(1, len(rows) + 1))
        phases = [row[3] for row in rows]
        assert phases[:3] == ["pretrain_view_0"] * 3
        assert phases[3:4] == ["pretrain_view_1"]
        assert phases[4:] == ["finetune"] * config.finetune_epochs
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_baseline_rows(self):
        """Baseline runs log only fine-tuning epochs."""
        ds = tiny_dataset()
        _, metrics = run_baseline(tiny_config(), dataset=ds)
        rows = metrics["curves"]
        assert len(rows) == 3
        assert all(row[3] == "finetune" for row in rows)
        assert all(row[0] == "baseline" for row in rows)

    def test_zero_schedule_matches_baseline_exactly(self):
        """With no pretraining epochs, transfer is bit-identical to baseline."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(0, 0), total_pretrain_epochs=0)
        schedule = compute_schedule(config, dataset=ds)
        base_net, base_metrics = run_baseline(config, dataset=ds, repeat_index=1)
        trans_net, trans_metrics = run_transfer(
            config, schedule, dataset=ds, repeat_index=1
        )
        assert trans_metrics["accuracy"] == base_metrics["accuracy"]
        base_rows = [row[2:] for row in base_metrics["curves"]]
        trans_rows = [row[2:] for row in trans_metrics["curves"]]
        assert base_rows == trans_rows
        for name in base_net.params:
            np.testing.assert_array_equal(base_net.params[name], trans_net.params[name])

    def test_pretraining_changes_finetune_start(self):
        """A non-zero schedule actually changes the transferred weights."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(4, 0), total_pretrain_epochs=4)
        schedule = compute_schedule(config, dataset=ds)
        zero_config = tiny_config(forced_epochs=(0, 0), total_pretrain_epochs=0)
        zero_schedule = compute_schedule(zero_config, dataset=ds)
        _, pretrained = run_transfer(config, schedule, dataset=ds)
        _, fresh = run_transfer(zero_config, zero_schedule, dataset=ds)
        pretrained_losses = [row[4] for row in pretrained["curves"] if row[3] == "finetune"]
        fresh_losses = [row[4] for row in fresh["curves"] if row[3] == "finetune"]
        assert pretrained_losses != fresh_losses

    def test_shuffled_view_order(self):
        """The shuffle flag permutes which source view trains first."""
        ds = tiny_dataset()
        config = tiny_config(
            forced_epochs=(2, 2),
            total_pretrain_epochs=4,
            shuffle_view_order=True,
            base_seed=0,
        )
        schedule = compute_schedule(config, dataset=ds)
        _, metrics = run_transfer(config, schedule, dataset=ds, repeat_index=0)
        phases = [row[3] for row in metrics["curves"] if row[3].startswith("pretrain")]
        # base_seed 0, repeat 0 derives a permutation that visits view 1 first.
        assert phases == ["pretrain_view_1"] * 2 + ["pretrain_view_0"] * 2

    def test_freeze_conv_keeps_conv_weights(self):
        """Frozen convolution weights survive fine-tuning untouched."""
        ds = tiny_dataset()
        config = tiny_config(
            arch="fcn",
            fcn_kernel_sizes=(3, 3, 3),
            forced_epochs=(0, 0),
            total_pretrain_epochs=0,
            freeze_conv=True,
        )
        schedule = compute_schedule(config, dataset=ds)
        net, _ = run_transfer(config, schedule, dataset=ds)
        reference = init_network(
            NetworkConfig(
                arch="fcn",
                input_channels=1,
                input_length=8,
                class_count=2,
                dropout_rate=config.dropout_rate,
                fcn_kernel_sizes=(3, 3, 3),
                seed=3_000_000,
            )
        )
        np.testing.assert_array_equal(net.params["conv1.W"], reference.params["conv1.W"])
        assert not np.array_equal(net.params["head.W"], reference.params["head.W"])

    def test_transfer_requires_schedule(self):
        ds = tiny_dataset()
        with pytest.raises(PipelineError, match="requires a schedule"):
            run_transfer(tiny_config(), None, dataset=ds)

    def test_mismatched_view_shapes_rejected(self):
        """Weight transfer needs identical (channels, length) in every view."""
        base = tiny_dataset(n_samples=6)
        narrow = [s[:, :4] for s in base.views[0]]
        ds = MultiViewDataset(
            views=[narrow, base.views[1], base.views[2]],
            labels=base.labels,
            sample_ids=base.sample_ids,
        )
        with pytest.raises(PipelineError, match="disagree"):
            run_baseline(tiny_config(), dataset=ds)

    def test_missing_dataset_path(self):
        with pytest.raises(PipelineError, match="dataset_path"):
            run_baseline(tiny_config(dataset_path=None))


class TestRunExperiment:
    """Repeat aggregation, persistence, and determinism."""

    def test_means_match_recomputation(self):
        """Reported means equal the plain average of per-repeat accuracies."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(2, 2), total_pretrain_epochs=4, repeats=3)
        report = run_experiment(config, dataset=ds)
        assert len(report.baseline_accuracies) == 3
        assert len(report.transfer_accuracies) == 3
        assert report.baseline_mean == sum(report.baseline_accuracies) / 3
        assert report.transfer_mean == sum(report.transfer_accuracies) / 3

    def test_modes_limit_sections(self):
        ds = tiny_dataset()
        baseline_only = run_experiment(tiny_config(mode="baseline"), dataset=ds)
        assert baseline_only.transfer_accuracies is None
        assert baseline_only.transfer_mean is None
        assert baseline_only.schedule is None
        transfer_only = run_experiment(
            tiny_config(mode="transfer", forced_epochs=(2, 2), total_pretrain_epochs=4),
            dataset=ds,
        )
        assert transfer_only.baseline_accuracies is None
        assert transfer_only.schedule is not None

    def test_persisted_outputs_byte_identical(self, tmp_path):
        """Two runs of one config write identical report, curves, and scores."""
        ds = tiny_dataset()
        config = tiny_config()
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        run_experiment(config, dataset=ds, out_dir=first)
        run_experiment(config, dataset=ds, out_dir=second)
        for name in ("report.json", "curves.csv", "scores.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert (first / "timings.json").exists()

    def test_scores_ignore_held_out_series(self, tmp_path):
        """Scoring sees the training split only: perturbing the held-out
        samples' target-view series leaves scores.json byte-identical."""
        ds = tiny_dataset()
        config = tiny_config(mode="transfer", repeats=1)
        split = SplitSpec(
            mode="fraction",
            train_fraction=config.train_fraction,
            seed=config.base_seed + SPLIT_SEED_OFFSET,
        )
        _, test_part = split_dataset(ds, split)
        held_out = {ds.sample_ids.index(sid) for sid in test_part.sample_ids}
        rng = np.random.default_rng(7)
        target = [
            series + 3.0 * rng.normal(size=series.shape) if i in held_out else series
            for i, series in enumerate(ds.views[TARGET_VIEW])
        ]
        views = list(ds.views)
        views[TARGET_VIEW] = target
        perturbed = MultiViewDataset(views=views, labels=ds.labels, sample_ids=ds.sample_ids)
        run_experiment(config, dataset=ds, out_dir=tmp_path / "clean")
        run_experiment(config, dataset=perturbed, out_dir=tmp_path / "perturbed")
        clean = (tmp_path / "clean" / "scores.json").read_bytes()
        assert clean == (tmp_path / "perturbed" / "scores.json").read_bytes()

    def test_report_json_has_no_wall_clock(self, tmp_path):
        """Timings live in timings.json so report.json stays deterministic."""
        ds = tiny_dataset()
        run_experiment(tiny_config(mode="baseline"), dataset=ds, out_dir=tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert "wall_clock" not in json.dumps(payload)
        assert set(payload) == {
            "mode",
            "target_view",
            "repeats",
            "schedule",
            "baseline",
            "transfer",
            "seeds",
        }
        timings = json.loads((tmp_path / "timings.json").read_text(encoding="utf-8"))
        assert "total" in timings
        assert len(timings["baseline"]) == 2

    def test_curves_csv_row_count(self, tmp_path):
        """CSV rows: transfer R*(T+F) plus baseline R*F, plus header."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(3, 1), total_pretrain_epochs=4)
        run_experiment(config, dataset=ds, out_dir=tmp_path)
        lines = (tmp_path / "curves.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "mode,repeat,epoch,phase,loss,accuracy"
        expected = config.repeats * (4 + 3) + config.repeats * 3
        assert len(lines) - 1 == expected
        assert all(line.split(",")[0] in ("baseline", "transfer") for line in lines[1:])

    def test_all_zero_schedule_reproduces_baseline(self):
        """Forced zero pretraining makes both modes agree repeat by repeat."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(0, 0), total_pretrain_epochs=0)
        report = run_experiment(config, dataset=ds)
        assert report.transfer_accuracies == report.baseline_accuracies
        assert report.transfer_mean == report.baseline_mean

    def test_repeat_failure_names_repeat(self):
        """A training blow-up aborts the experiment naming the repeat."""
        ds = tiny_dataset()
        config = tiny_config(mode="baseline", learning_rate=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(PipelineError, match="baseline repeat 0 failed"):
                run_experiment(config, dataset=ds)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arch="fcn", fcn_kernel_sizes=(8, 5, 3)),
            dict(dropout_rate=1.0),
        ],
        ids=["kernel_longer_than_series", "dropout_out_of_range"],
    )
    def test_bad_network_config_fails_before_scoring(self, tmp_path, overrides):
        """An unbuildable network is rejected, naming the network config,
        before any score is computed or written."""
        ds = tiny_dataset(length=6)
        with pytest.raises(PipelineError, match="network config"):
            run_experiment(tiny_config(**overrides), dataset=ds, out_dir=tmp_path)
        assert not (tmp_path / "scores.json").exists()

    @pytest.mark.parametrize(
        "channels, density_override", [(4, None), (1, "flow")], ids=["four_channels", "override"]
    )
    def test_flow_with_too_few_samples_fails_before_distances(
        self, monkeypatch, channels, density_override
    ):
        """Seven training samples cannot fit a flow: scoring fails naming
        the flow density and the count before any distance is computed."""
        import mvtransfer.importance as importance

        def refuse(*args, **kwargs):
            raise AssertionError("a latent set was built")

        monkeypatch.setattr(importance, "build_latent_set", refuse)
        ds = make_synthetic_dataset(n_samples=10, channels=channels, length=16)
        config = tiny_config(base_seed=1, density_override=density_override)
        with pytest.raises(
            PipelineError, match="scoring with the flow density needs at least 8 samples, got 7"
        ):
            run_experiment(config, dataset=ds)

    @pytest.mark.parametrize("classes", [2, 3], ids=["two_classes", "three_classes"])
    def test_class_absent_from_training_split_fails_naming_the_split(self, tmp_path, classes):
        """A training split that misses a class fails before the parts are
        built, naming the split seed, the fraction and the absent class.
        With two classes the split used to fail inside dataset validation;
        with three it used to train silently without ever seeing the class."""
        ds = tiny_dataset()
        config = tiny_config()
        seed = config.base_seed + SPLIT_SEED_OFFSET
        train_part, test_part = split_dataset(
            ds, SplitSpec(mode="fraction", train_fraction=config.train_fraction, seed=seed)
        )
        if classes == 2:
            labels = ["fast" if sid in test_part.sample_ids else "slow" for sid in ds.sample_ids]
        else:
            assert set(train_part.labels) == {"fast", "slow"}
            rare = test_part.sample_ids[0]
            labels = [
                "rare" if sid == rare else label for sid, label in zip(ds.sample_ids, ds.labels)
            ]
        absent = "fast" if classes == 2 else "rare"
        relabeled = MultiViewDataset(views=ds.views, labels=labels, sample_ids=ds.sample_ids)
        with pytest.raises(
            PipelineError,
            match=rf"split \(seed {seed}, train_fraction 0.7\) leaves classes \['{absent}'\] out",
        ):
            run_experiment(config, dataset=relabeled, out_dir=tmp_path)
        assert not (tmp_path / "scores.json").exists()

    def test_report_validation(self):
        with pytest.raises(ValueError, match="expected 2 accuracies"):
            ExperimentReport(
                mode="baseline",
                target_view=2,
                repeats=2,
                baseline_accuracies=[0.5],
                transfer_accuracies=None,
                baseline_mean=0.5,
                transfer_mean=None,
                schedule=None,
                seeds={},
                wall_clock_seconds={},
            )
        with pytest.raises(ValueError, match="lie in"):
            ExperimentReport(
                mode="baseline",
                target_view=2,
                repeats=1,
                baseline_accuracies=[1.5],
                transfer_accuracies=None,
                baseline_mean=1.5,
                transfer_mean=None,
                schedule=None,
                seeds={},
                wall_clock_seconds={},
            )

    def test_report_payload_round_trips_schedule(self):
        schedule = TransferSchedule(
            scores=(0.25, 0.75), epochs=(1, 3), total_epochs=4, target_view=2
        )
        report = ExperimentReport(
            mode="transfer",
            target_view=2,
            repeats=1,
            baseline_accuracies=None,
            transfer_accuracies=[0.75],
            baseline_mean=None,
            transfer_mean=0.75,
            schedule=schedule,
            seeds={"base": 0},
            wall_clock_seconds={"total": 1.0},
        )
        payload = report_to_json_dict(report)
        assert payload["schedule"] == {
            "target_view": 2,
            "scores": [0.25, 0.75],
            "epochs": [1, 3],
            "total_epochs": 4,
        }
        assert payload["baseline"] is None
        assert payload["transfer"] == {"accuracies": [0.75], "mean": 0.75}
