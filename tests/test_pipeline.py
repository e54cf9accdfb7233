"""Tests for the experiment orchestration layer and the synthetic fixture."""

import json
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_random_dataset
from mvtransfer.dataset import (
    ALIGNMENT_STRATEGIES,
    MultiViewDataset,
    align_lengths,
    load_dataset,
    split_indices,
)
from mvtransfer.density import select_density_method
from mvtransfer.distance import DtwParams, SfaParams
from mvtransfer.importance import NORM_KINDS, SAMPLING_MODES, SamplingConfig, TransferSchedule
from mvtransfer.networks import init_network, NetworkConfig
from mvtransfer.pipeline import (
    EXPERIMENT_MODES,
    MEASURES,
    SPLIT_SEED_OFFSET,
    ExperimentConfig,
    ExperimentReport,
    ModeResult,
    PipelineError,
    _run_single,
    compute_schedule,
    experiment_config_from_json_dict,
    load_experiment_config,
    run_experiment,
    split_parts,
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


def write_config(path, config: ExperimentConfig) -> None:
    """Write ``config`` as the JSON file ``load_experiment_config`` reads."""
    path.write_text(json.dumps(asdict(config), indent=2) + "\n", encoding="utf-8")


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


@st.composite
def experiment_configs(draw):
    """Valid configs varying the measure and its params, forced epochs,
    kernel sizes, every sampling field, mode and alignment."""
    measure = draw(st.sampled_from(MEASURES))
    if measure == "dtw":
        params = st.builds(DtwParams, band_radius=st.none() | st.integers(0, 64))
    else:
        window = draw(st.integers(2, 64))
        params = st.builds(
            SfaParams,
            window_length=st.just(window),
            word_length=st.sampled_from([w for w in (2, 4, 6) if w <= window]),
            alphabet_size=st.integers(2, 26),
            mean_normalize=st.booleans(),
        )
    forced = draw(st.none() | st.lists(st.integers(0, 50), min_size=1, max_size=5).map(tuple))
    sampling = SamplingConfig(
        batch_size=draw(st.integers(1, 4096)),
        norm_kind=draw(st.sampled_from(NORM_KINDS)),
        invert_importance=draw(st.booleans()),
        sampling_mode=draw(st.sampled_from(SAMPLING_MODES)),
    )
    return tiny_config(
        dataset_path=draw(st.none() | st.text(max_size=12)),
        measure=measure,
        measure_params=draw(st.none() | params),
        forced_epochs=forced,
        total_pretrain_epochs=sum(forced) if forced else draw(st.integers(0, 200)),
        fcn_kernel_sizes=tuple(draw(st.lists(st.integers(1, 16), min_size=3, max_size=3))),
        sampling=sampling,
        mode=draw(st.sampled_from(EXPERIMENT_MODES)),
        align_strategy=draw(st.sampled_from(ALIGNMENT_STRATEGIES)),
        train_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


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
        with pytest.raises(ValueError, match="base_seed"):
            tiny_config(base_seed=-1)
        with pytest.raises(ValueError, match="train_fraction"):
            tiny_config(train_fraction=1.0)
        with pytest.raises(ValueError, match="target_view"):
            tiny_config(target_view=-1)
        with pytest.raises(ValueError, match="density_override"):
            tiny_config(density_override="histogram")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(train_batch_size=0), "train_batch_size must be at least 1"),
            (dict(learning_rate=0.0), "learning_rate must be positive"),
            (dict(learning_rate=-1), "learning_rate must be positive"),
            (dict(beta1=1.0), r"beta1 must lie in \(0, 1\)"),
            (dict(adam_epsilon=0.0), "adam_epsilon must be positive"),
            (dict(dropout_rate=1.0), r"dropout_rate must lie in \[0, 1\)"),
            (dict(dropout_rate=1.5), r"dropout_rate must lie in \[0, 1\)"),
            (
                dict(arch="fcn", fcn_kernel_sizes=(8, 5)),
                "fcn_kernel_sizes must hold exactly three sizes",
            ),
            (dict(arch="fcn", fcn_kernel_sizes=(8, 0, 3)), "fcn_kernel_sizes must be positive"),
            (
                dict(arch="fcn", fcn_kernel_sizes=(3.9, 5, 3)),
                r"fcn_kernel_sizes\[0\] must be an integer, got 3.9",
            ),
            (
                dict(arch="fcn", fcn_kernel_sizes=(True, 5, 3)),
                r"fcn_kernel_sizes\[0\] must be an integer, got True",
            ),
            (
                dict(align_strategy="bogus"),
                r"align_strategy must be one of \('zero-pad-to-max', .*\), got 'bogus'",
            ),
            (
                dict(measure="dtw", measure_params=SfaParams(8)),
                "measure_params must be None or DtwParams for measure 'dtw', got SfaParams",
            ),
            (
                dict(measure="boss", measure_params=DtwParams()),
                "measure_params must be None or SfaParams for measure 'boss', got DtwParams",
            ),
        ],
        ids=[
            "train_batch_size",
            "learning_rate_zero",
            "learning_rate_negative",
            "beta1",
            "adam_epsilon",
            "dropout_rate_one",
            "dropout_rate_above_one",
            "two_fcn_kernels",
            "zero_fcn_kernel",
            "float_fcn_kernel",
            "bool_fcn_kernel",
            "align_strategy",
            "dtw_with_sfa_params",
            "boss_with_dtw_params",
        ],
    )
    def test_data_free_setting_fails_at_construction(self, overrides, message):
        """Every setting that needs no data is checked when the config is
        built, and the error starts with the config key: the optimizer and
        network settings by TrainConfig's and the network's own rules, and
        the alignment strategy and measure params against their choices."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(**overrides)

    def test_kernel_sizes_checked_only_for_the_fcn(self):
        """The MLP has no kernels, so their sizes are not checked for it."""
        assert tiny_config(arch="mlp", fcn_kernel_sizes=(8, 5)).fcn_kernel_sizes == (8, 5)

    def test_forced_epochs_must_sum_to_total(self):
        with pytest.raises(ValueError, match="does not match"):
            tiny_config(forced_epochs=(3, 3), total_pretrain_epochs=4)
        config = tiny_config(forced_epochs=(1, 3), total_pretrain_epochs=4)
        assert config.forced_epochs == (1, 3)

    def test_json_round_trip(self):
        config = tiny_config(
            measure="boss",
            measure_params=SfaParams(window_length=6, word_length=4),
            sampling=SamplingConfig(batch_size=64, invert_importance=True),
            forced_epochs=(2, 2),
            fcn_kernel_sizes=(3, 3, 3),
        )
        payload = asdict(config)
        restored = experiment_config_from_json_dict(json.loads(json.dumps(payload)))
        assert restored == config

    def test_rejects_unknown_keys(self):
        payload = asdict(tiny_config())
        payload["epochs"] = 10
        with pytest.raises(ValueError, match="unknown key 'epochs'"):
            experiment_config_from_json_dict(payload)

    def test_null_only_where_the_field_allows_none(self):
        payload = {"target_view": 0, "dataset_path": None, "forced_epochs": None}
        assert experiment_config_from_json_dict(payload) == ExperimentConfig(target_view=0)
        for key in ("dropout_rate", "sampling", "fcn_kernel_sizes", "repeats"):
            with pytest.raises(ValueError, match=f"^{key} must be .*, got None$"):
                experiment_config_from_json_dict({"target_view": 0, key: None})

    def test_int_loads_where_a_float_is_expected(self):
        config = experiment_config_from_json_dict({"target_view": 0, "learning_rate": 1})
        assert config.learning_rate == 1
        with pytest.raises(ValueError, match="^learning_rate must be a number, got True$"):
            experiment_config_from_json_dict({"target_view": 0, "learning_rate": True})

    def test_measure_params_read_as_the_measures_class(self):
        config = experiment_config_from_json_dict(
            {"target_view": 0, "measure": "boss", "measure_params": {"window_length": 8}}
        )
        assert config.measure_params == SfaParams(window_length=8)
        with pytest.raises(ValueError, match="^unknown key 'measure_params.window_length'$"):
            experiment_config_from_json_dict(
                {"target_view": 0, "measure_params": {"window_length": 8}}
            )
        message = r"^measure must be one of \('dtw', 'boss'\), got 'euclid'$"
        with pytest.raises(ValueError, match=message):
            experiment_config_from_json_dict(
                {"target_view": 0, "measure": "euclid", "measure_params": {"radius": 1}}
            )

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"sampling": {"batch_size": 0}}, r"sampling\.batch_size must be at least 1"),
            (
                {"sampling": {"norm_kind": "nuclear"}},
                r"sampling\.norm_kind must be one of \('frobenius', .*\), got 'nuclear'",
            ),
            (
                {"sampling": {"sampling_mode": "weights"}},
                r"sampling\.sampling_mode must be one of \('vectors', .*\), got 'weights'",
            ),
            (
                {"measure": "boss", "measure_params": {"window_length": 4, "word_length": 8}},
                r"measure_params\.word_length 8 exceeds window_length 4",
            ),
            ({"mode": "both-ways"}, r"mode must be one of \('baseline', .*\), got 'both-ways'"),
        ],
        ids=["batch_size", "norm_kind", "sampling_mode", "word_length", "mode"],
    )
    def test_range_fault_starts_with_its_key_path(self, payload, message):
        """A value of the right type that a config's own rules reject is
        named by its dotted key path, as a mistyped value is."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            experiment_config_from_json_dict({"target_view": 0, **payload})

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
        write_config(path, config)
        assert load_experiment_config(path) == config

    @settings(max_examples=60, deadline=None)
    @given(config=experiment_configs())
    def test_file_bytes_round_trip(self, config):
        """Write then load gives an equal config, and writing that again
        gives the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            write_config(first, config)
            restored = load_experiment_config(first)
            assert restored == config
            write_config(second, restored)
            assert second.read_bytes() == first.read_bytes()


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

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_flow_path_favors_correlated_view_at_default_budget(self, seed):
        """Six channels take the coupling-flow density at its default
        iteration budget: on the boss measure with the spectral norm and
        inverted importance, the training part's schedule sums to the
        budget and gives the correlated view more epochs than the noise
        view, on every seed."""
        dataset = make_synthetic_dataset(n_samples=64, channels=6, length=48, seed=seed)
        assert select_density_method(dataset.channel_count(TARGET_VIEW)) == "flow"
        config = ExperimentConfig(
            target_view=TARGET_VIEW,
            measure="boss",
            sampling=SamplingConfig(norm_kind="spectral", invert_importance=True),
            total_pretrain_epochs=40,
            base_seed=seed,
        )
        train_part, _ = split_parts(dataset, config)
        epochs = compute_schedule(config, dataset=train_part).epochs
        assert sum(epochs) == 40
        assert epochs[CORRELATED_VIEW] > epochs[DISTRACTOR_VIEW]

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

    @pytest.mark.parametrize(
        "entry",
        [
            compute_schedule,
            split_parts,
            lambda config, dataset: run_experiment(replace(config, mode="baseline"), dataset),
        ],
        ids=["compute_schedule", "split_parts", "run_experiment_baseline"],
    )
    def test_target_view_out_of_range(self, entry):
        """Every entry point checks the target view against the dataset,
        the baseline-only experiment too, which never scores."""
        with pytest.raises(PipelineError, match="^target_view 3 out of range for 3 views$"):
            entry(config=tiny_config(target_view=3), dataset=tiny_dataset())

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


def run_once(config, schedule, dataset, repeat_index=0):
    """One repeat on the experiment's own path: ``(net, accuracy, rows)``;
    a schedule of None runs the baseline."""
    train_part, test_part = split_parts(dataset, config)
    return _run_single(config, train_part, test_part, schedule, repeat_index)


class TestRunTransfer:
    """Single-run bookkeeping: curve rows, phases, epoch numbering."""

    def test_curve_rows_cover_every_epoch(self):
        """Row count equals scheduled pretraining plus fine-tuning epochs."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(3, 1), total_pretrain_epochs=4)
        schedule = compute_schedule(config, dataset=ds)
        _, accuracy, rows = run_once(config, schedule, ds)
        assert len(rows) == sum(schedule.epochs) + config.finetune_epochs
        assert [row[2] for row in rows] == list(range(1, len(rows) + 1))
        phases = [row[3] for row in rows]
        assert phases[:3] == ["pretrain_view_0"] * 3
        assert phases[3:4] == ["pretrain_view_1"]
        assert phases[4:] == ["finetune"] * config.finetune_epochs
        assert 0.0 <= accuracy <= 1.0

    def test_baseline_rows(self):
        """Baseline runs log only fine-tuning epochs."""
        ds = tiny_dataset()
        _, _, rows = run_once(tiny_config(), None, ds)
        assert len(rows) == 3
        assert all(row[3] == "finetune" for row in rows)
        assert all(row[0] == "baseline" for row in rows)

    def test_zero_schedule_matches_baseline_exactly(self):
        """With no pretraining epochs, transfer is bit-identical to baseline."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(0, 0), total_pretrain_epochs=0)
        schedule = compute_schedule(config, dataset=ds)
        base_net, base_accuracy, base_rows = run_once(config, None, ds, repeat_index=1)
        trans_net, trans_accuracy, trans_rows = run_once(config, schedule, ds, repeat_index=1)
        assert trans_accuracy == base_accuracy
        assert [row[2:] for row in base_rows] == [row[2:] for row in trans_rows]
        for name in base_net.params:
            np.testing.assert_array_equal(base_net.params[name], trans_net.params[name])

    def test_pretraining_changes_finetune_start(self):
        """A non-zero schedule actually changes the transferred weights."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(4, 0), total_pretrain_epochs=4)
        schedule = compute_schedule(config, dataset=ds)
        zero_config = tiny_config(forced_epochs=(0, 0), total_pretrain_epochs=0)
        zero_schedule = compute_schedule(zero_config, dataset=ds)
        _, _, pretrained = run_once(config, schedule, ds)
        _, _, fresh = run_once(zero_config, zero_schedule, ds)
        pretrained_losses = [row[4] for row in pretrained if row[3] == "finetune"]
        fresh_losses = [row[4] for row in fresh if row[3] == "finetune"]
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
        _, _, rows = run_once(config, schedule, ds, repeat_index=0)
        phases = [row[3] for row in rows if row[3].startswith("pretrain")]
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
        net, _, _ = run_once(config, schedule, ds)
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

    def test_mismatched_view_shapes_rejected(self, tmp_path):
        """Weight transfer needs identical (channels, length) in every view;
        the shapes are checked before the split, which this 6-sample set
        would fail, and before any score."""
        base = tiny_dataset(n_samples=6)
        narrow = [s[:, :4] for s in base.views[0]]
        ds = MultiViewDataset(
            views=[narrow, base.views[1], base.views[2]],
            labels=base.labels,
            sample_ids=base.sample_ids,
        )
        with pytest.raises(
            PipelineError,
            match=r"^views disagree on \(channels, length\): \[\(1, 4\), \(1, 8\), \(1, 8\)\]",
        ):
            run_experiment(tiny_config(), dataset=ds, out_dir=tmp_path)
        assert not (tmp_path / "scores.json").exists()


class TestRunExperiment:
    """Repeat aggregation, persistence, and determinism."""

    def test_means_match_recomputation(self):
        """Reported means equal the plain average of per-repeat accuracies."""
        ds = tiny_dataset()
        config = tiny_config(forced_epochs=(2, 2), total_pretrain_epochs=4, repeats=3)
        report = run_experiment(config, dataset=ds)
        assert len(report.baseline.accuracies) == 3
        assert len(report.transfer.accuracies) == 3
        assert report.baseline.mean == sum(report.baseline.accuracies) / 3
        assert report.transfer.mean == sum(report.transfer.accuracies) / 3

    def test_modes_limit_sections(self):
        ds = tiny_dataset()
        baseline_only = run_experiment(tiny_config(mode="baseline"), dataset=ds)
        assert baseline_only.transfer is None
        assert baseline_only.schedule is None
        transfer_only = run_experiment(
            tiny_config(mode="transfer", forced_epochs=(2, 2), total_pretrain_epochs=4),
            dataset=ds,
        )
        assert transfer_only.baseline is None
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
        _, test_idx = split_indices(
            ds, config.train_fraction, config.base_seed + SPLIT_SEED_OFFSET
        )
        held_out = set(test_idx)
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

    def test_report_json_key_order(self, tmp_path):
        """report.json lists its keys in a fixed order at every level."""
        ds = tiny_dataset()
        report = run_experiment(tiny_config(), dataset=ds, out_dir=tmp_path)
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        payload = json.loads(text)
        assert list(payload) == [
            "mode",
            "target_view",
            "repeats",
            "schedule",
            "baseline",
            "transfer",
            "seeds",
        ]
        assert list(payload["schedule"]) == ["target_view", "scores", "epochs", "total_epochs"]
        for mode in ("baseline", "transfer"):
            assert list(payload[mode]) == ["accuracies", "mean"]
            assert payload[mode]["mean"] == getattr(report, mode).mean
        assert list(payload["seeds"]) == ["base", "scoring", "flow", "split", "per_repeat"]
        assert text == json.dumps(payload, indent=2) + "\n"

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
        assert report.transfer == report.baseline

    def test_repeat_failure_names_repeat(self):
        """A training blow-up aborts the experiment naming the repeat."""
        ds = tiny_dataset()
        config = tiny_config(mode="baseline", learning_rate=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(PipelineError, match="baseline repeat 0 failed"):
                run_experiment(config, dataset=ds)

    def test_kernel_longer_than_series_fails_before_scoring(self, tmp_path):
        """An FCN kernel longer than the aligned series is rejected, naming
        the key, before any score is computed or written."""
        ds = tiny_dataset(length=6)
        config = tiny_config(arch="fcn", fcn_kernel_sizes=(8, 5, 3))
        with pytest.raises(
            PipelineError, match=r"^fcn_kernel_sizes \[8, 5, 3\] exceed the series length 6$"
        ):
            run_experiment(config, dataset=ds, out_dir=tmp_path)
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
        train_part, test_part = map(ds.take, split_indices(ds, config.train_fraction, seed))
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

    def test_single_class_held_out_split_fails_naming_the_split(self, monkeypatch, tmp_path):
        """A held-out part of one class fails before the parts are built or
        any distance is computed, naming the split seed, the fraction and
        the class.  It used to fail inside dataset validation."""
        import mvtransfer.importance as importance

        def refuse(*args, **kwargs):
            raise AssertionError("a latent set was built")

        monkeypatch.setattr(importance, "build_latent_set", refuse)
        ds = make_synthetic_dataset(n_samples=20, length=16)
        config = tiny_config(base_seed=34)
        seed = 34 + SPLIT_SEED_OFFSET
        with pytest.raises(
            PipelineError,
            match=rf"split \(seed {seed}, train_fraction 0.7\) holds out only class 'fast'",
        ):
            run_experiment(config, dataset=ds, out_dir=tmp_path)
        assert not (tmp_path / "scores.json").exists()

    def test_report_validation(self):
        with pytest.raises(ValueError, match="expected 2 accuracies"):
            ExperimentReport(
                mode="baseline",
                target_view=2,
                repeats=2,
                schedule=None,
                baseline=ModeResult([0.5]),
                transfer=None,
                seeds={},
                wall_clock_seconds={},
            )
        with pytest.raises(ValueError, match="lie in"):
            ModeResult([1.5])
        with pytest.raises(ValueError, match="at least one accuracy"):
            ModeResult([])
        assert ModeResult([0.25, 0.5, 1.0]).mean == (0.25 + 0.5 + 1.0) / 3

    def test_report_payload_round_trips_schedule(self):
        schedule = TransferSchedule(
            scores=(0.25, 0.75), epochs=(1, 3), total_epochs=4, target_view=2
        )
        report = ExperimentReport(
            mode="transfer",
            target_view=2,
            repeats=1,
            schedule=schedule,
            baseline=None,
            transfer=ModeResult([0.75]),
            seeds={"base": 0},
            wall_clock_seconds={"total": 1.0},
        )
        payload = json.loads(json.dumps(asdict(report)))
        assert TransferSchedule(**payload["schedule"]) == schedule
        assert payload["schedule"] == {
            "target_view": 2,
            "scores": [0.25, 0.75],
            "epochs": [1, 3],
            "total_epochs": 4,
        }
        assert payload["baseline"] is None
        assert payload["transfer"] == {"accuracies": [0.75], "mean": 0.75}
