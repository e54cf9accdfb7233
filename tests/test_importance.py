"""Tests for importance sampling, matrix norms, and epoch allocation."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_random_dataset, reference_kde_log_density
from mvtransfer import flow
from mvtransfer.dataset import MultiViewDataset
from mvtransfer.density import KdeModel, fit_density
from mvtransfer.flow import FlowConfig, FlowTrainingError, init_flow_model
from mvtransfer.importance import (
    NORM_KINDS,
    SamplingConfig,
    TransferSchedule,
    allocate_epochs,
    draw_importance_matrix,
    matrix_norm,
    score_source_view,
    score_source_views,
    write_schedule_json,
)


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert config.batch_size == 1024
        assert config.norm_kind == "frobenius"
        assert not config.invert_importance
        assert config.sampling_mode == "vectors"

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            SamplingConfig(batch_size=0)
        with pytest.raises(ValueError, match="norm_kind"):
            SamplingConfig(norm_kind="nuclear")
        with pytest.raises(ValueError, match="sampling_mode"):
            SamplingConfig(sampling_mode="weights")


class TestDrawImportanceMatrix:
    def test_degenerate_kernel_repeats_support_point(self):
        model = KdeModel(support_points=[[2.0, -1.0]], bandwidth_diag=[1e-18, 1e-18])
        matrix = draw_importance_matrix(model, SamplingConfig(batch_size=3), 0)
        assert matrix.shape == (3, 2)
        assert np.allclose(matrix, [2.0, -1.0], atol=1e-6)

    def test_identity_flow_mean_matches_data_mean(self):
        """An untrained (identity) flow reproduces the standardization
        Gaussian, so a large batch mean lands within 3 standard errors."""
        rng = np.random.default_rng(90)
        data = rng.normal(loc=[1.0, -2.0], scale=[0.5, 2.0], size=(200, 2))
        model = init_flow_model(data, FlowConfig(layer_count=2, coupling_net_width=4))
        matrix = draw_importance_matrix(model, SamplingConfig(batch_size=10_000), 1)
        limit = 3.0 * data.std(axis=0) / math.sqrt(10_000)
        assert np.all(np.abs(matrix.mean(axis=0) - data.mean(axis=0)) < limit + 0.01)

    def test_determinism(self):
        rng = np.random.default_rng(91)
        model = fit_density(rng.normal(size=(20, 2)))
        config = SamplingConfig(batch_size=64)
        assert np.array_equal(
            draw_importance_matrix(model, config, 9), draw_importance_matrix(model, config, 9)
        )

    def test_density_weights_mode_builds_column_of_densities(self):
        rng = np.random.default_rng(92)
        model = fit_density(rng.normal(size=(25, 2)))
        config = SamplingConfig(batch_size=16, sampling_mode="density_weights")
        matrix = draw_importance_matrix(model, config, 4)
        assert matrix.shape == (16, 1)
        assert np.all(matrix > 0)
        samples = model.sample(16, seed=4)
        expected = [math.exp(reference_kde_log_density(model, row)) for row in samples]
        assert np.allclose(matrix[:, 0], expected, rtol=1e-15, atol=0)


class TestMatrixNorm:
    def test_three_four_five(self):
        assert matrix_norm([[3.0, 4.0]], "frobenius") == pytest.approx(5.0)

    def test_identity_frobenius(self):
        assert matrix_norm(np.eye(2), "frobenius") == pytest.approx(math.sqrt(2.0))

    def test_entrywise_l1(self):
        assert matrix_norm([[1.0, -2.0], [3.0, -4.0]], "entrywise_l1") == pytest.approx(10.0)

    def test_spectral_matches_closed_form_eigenvalue(self):
        """For a 3x2 matrix the dominant Gram eigenvalue has a closed 2x2
        form: (trace + sqrt(trace^2 - 4 det)) / 2."""
        rng = np.random.default_rng(93)
        for _ in range(25):
            matrix = rng.normal(size=(3, 2)) * rng.uniform(0.1, 5.0)
            gram = matrix.T @ matrix
            trace = gram[0, 0] + gram[1, 1]
            det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
            top = (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0))) / 2.0
            assert matrix_norm(matrix, "spectral") == pytest.approx(
                math.sqrt(top), rel=1e-8
            )

    def test_spectral_of_rank_one_row(self):
        assert matrix_norm([[3.0, 4.0]], "spectral") == pytest.approx(5.0)

    def test_spectral_of_zero_matrix(self):
        assert matrix_norm(np.zeros((3, 2)), "spectral") == 0.0

    def test_homogeneity_and_triangle_inequality(self):
        rng = np.random.default_rng(94)
        for kind in ("frobenius", "spectral", "entrywise_l1"):
            for _ in range(10):
                a = rng.normal(size=(4, 3))
                b = rng.normal(size=(4, 3))
                c = rng.uniform(-3.0, 3.0)
                assert matrix_norm(c * a, kind) == pytest.approx(
                    abs(c) * matrix_norm(a, kind), rel=1e-9, abs=1e-12
                )
                assert matrix_norm(a + b, kind) <= (
                    matrix_norm(a, kind) + matrix_norm(b, kind) + 1e-9
                )

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="2-D"):
            matrix_norm([1.0, 2.0], "frobenius")
        with pytest.raises(ValueError, match="finite"):
            matrix_norm([[np.nan]], "frobenius")
        with pytest.raises(ValueError, match="norm kind"):
            matrix_norm([[1.0]], "nuclear")


class TestAllocateEpochs:
    def test_equal_scores_split_evenly(self):
        assert allocate_epochs([1.0, 1.0, 1.0, 1.0], 200) == [50, 50, 50, 50]

    def test_exact_proportions(self):
        assert allocate_epochs([3.0, 1.0], 100) == [75, 25]

    def test_largest_remainder_tie_goes_to_lower_index(self):
        assert allocate_epochs([1.0, 1.0, 1.0], 100) == [34, 33, 33]
        assert allocate_epochs([1.0, 1.0], 3) == [2, 1]

    def test_sum_is_exact_over_random_instances(self):
        rng = np.random.default_rng(95)
        for _ in range(300):
            count = int(rng.integers(1, 9))
            scores = rng.uniform(0.0, 10.0, size=count)
            if scores.sum() == 0.0:
                scores[0] = 1.0
            total = int(rng.integers(1, 1001))
            epochs = allocate_epochs(scores, total)
            assert sum(epochs) == total
            assert all(e >= 0 for e in epochs)

    def test_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(96)
        scores = rng.uniform(0.1, 5.0, size=5)
        base = allocate_epochs(scores, 137)
        for factor in (0.25, 0.5, 2.0, 8.0, 1024.0):
            assert allocate_epochs(scores * factor, 137) == base

    def test_scale_invariance_general_factor(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            scores = rng.uniform(0.1, 5.0, size=4)
            total = int(rng.integers(1, 500))
            factor = float(rng.uniform(0.01, 100.0))
            assert allocate_epochs(scores * factor, total) == allocate_epochs(scores, total)

    def test_permutation_equivariance_for_distinct_scores(self):
        rng = np.random.default_rng(98)
        scores = np.array([0.7, 2.3, 5.1, 1.2, 3.9])
        base = allocate_epochs(scores, 211)
        for _ in range(10):
            perm = rng.permutation(5)
            permuted = allocate_epochs(scores[perm], 211)
            assert permuted == [base[i] for i in perm]

    def test_order_never_inverted_by_more_than_one(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            scores = rng.uniform(0.0, 4.0, size=5)
            scores[0] = max(scores[0], 0.1)
            epochs = allocate_epochs(scores, int(rng.integers(1, 300)))
            for i in range(5):
                for j in range(5):
                    if scores[i] > scores[j]:
                        assert epochs[i] >= epochs[j] - 1

    def test_all_zero_scores_fall_back_to_uniform(self):
        with pytest.warns(UserWarning, match="uniform"):
            epochs = allocate_epochs([0.0, 0.0, 0.0], 10)
        assert epochs == [4, 3, 3]

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            allocate_epochs([], 10)
        with pytest.raises(ValueError, match="finite"):
            allocate_epochs([1.0, np.inf], 10)
        with pytest.raises(ValueError, match="non-negative"):
            allocate_epochs([1.0, -0.5], 10)
        with pytest.raises(ValueError, match="integer"):
            allocate_epochs([1.0], 10.5)
        with pytest.raises(ValueError, match="at least 1"):
            allocate_epochs([1.0], 0)


# Scores a few ulps apart can round to the same share and remainder; the
# tie must still go to the higher score.
near_ties = st.tuples(
    st.floats(0.01, 100.0), st.lists(st.integers(0, 3), min_size=2, max_size=8)
).map(lambda case: [case[0] + step * math.ulp(case[0]) for step in case[1]])


class TestAllocateEpochsHypothesis:
    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.one_of(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 1.0, 2.0]),
                    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=8,
            ),
            near_ties,
        ),
        total=st.integers(1, 1000),
    )
    def test_exact_sum_and_monotone_in_score(self, scores, total):
        """The split always sums to the budget, and a strictly higher score
        never receives fewer epochs."""
        if sum(scores) == 0.0:
            with pytest.warns(UserWarning, match="uniform"):
                epochs = allocate_epochs(scores, total)
        else:
            epochs = allocate_epochs(scores, total)
        assert sum(epochs) == total
        for i, high in enumerate(scores):
            for j, low in enumerate(scores):
                if high > low:
                    assert epochs[i] >= epochs[j]


class TestTransferSchedule:
    def test_build_and_invariants(self):
        scores = [3.0, 1.0]
        schedule = TransferSchedule(
            target_view=2, scores=scores, epochs=allocate_epochs(scores, 100), total_epochs=100
        )
        assert schedule.scores == (3.0, 1.0)
        assert schedule.epochs == (75, 25)
        assert schedule.total_epochs == 100
        assert schedule.target_view == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to total_epochs"):
            TransferSchedule(scores=(1.0, 1.0), epochs=(5, 4), total_epochs=10, target_view=0)
        with pytest.raises(ValueError, match="matching lengths"):
            TransferSchedule(scores=(1.0,), epochs=(5, 5), total_epochs=10, target_view=0)
        with pytest.raises(ValueError, match="non-negative"):
            TransferSchedule(scores=(-1.0, 2.0), epochs=(5, 5), total_epochs=10, target_view=0)

    def test_json_payload_layout(self, tmp_path):
        scores = [2.0, 6.0]
        schedule = TransferSchedule(
            target_view=2, scores=scores, epochs=allocate_epochs(scores, 8), total_epochs=8
        )
        path = tmp_path / "scores.json"
        write_schedule_json(path, schedule, "dtw", "frobenius", {"scoring": 11})
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert list(payload) == [
            "target_view",
            "measure",
            "norm",
            "scores",
            "epochs",
            "total_epochs",
            "seeds",
        ]
        assert payload == {
            "target_view": 2,
            "measure": "dtw",
            "norm": "frobenius",
            "scores": [2.0, 6.0],
            "epochs": [2, 6],
            "total_epochs": 8,
            "seeds": {"scoring": 11},
        }
        assert text == json.dumps(payload, indent=2) + "\n"


class TestScheduleJsonHypothesis:
    @settings(max_examples=100, deadline=None)
    @given(
        views=st.lists(
            st.tuples(
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=6,
        ),
        target_view=st.integers(0, 8),
        measure=st.sampled_from(["dtw", "boss"]),
        norm_kind=st.sampled_from(NORM_KINDS),
        seeds=st.dictionaries(
            st.sampled_from(["base", "scoring", "flow"]), st.integers(0, 2**63 - 1)
        ),
    )
    def test_json_bytes_round_trip(self, views, target_view, measure, norm_kind, seeds):
        """A schedule rebuilt from its written payload writes the same bytes."""
        scores, epochs = zip(*views)
        schedule = TransferSchedule(
            scores=scores, epochs=epochs, total_epochs=sum(epochs), target_view=target_view
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            write_schedule_json(first, schedule, measure, norm_kind, seeds)
            payload = json.loads(first.read_text(encoding="utf-8"))
            back = TransferSchedule(
                scores=payload["scores"],
                epochs=payload["epochs"],
                total_epochs=payload["total_epochs"],
                target_view=payload["target_view"],
            )
            write_schedule_json(second, back, payload["measure"], payload["norm"], payload["seeds"])
            assert second.read_bytes() == first.read_bytes()


def correlated_three_view_dataset(rng, n_samples=6, channels=2, length=10):
    """Three views of the same samples: view 0 duplicates the target view
    (index 2) exactly, view 1 is independent noise."""
    target = [rng.normal(size=(channels, length)) for _ in range(n_samples)]
    duplicate = [sample.copy() for sample in target]
    noise = [3.0 * rng.normal(size=(channels, length)) for _ in range(n_samples)]
    labels = ["a" if i % 2 == 0 else "b" for i in range(n_samples)]
    ids = [f"s{i}" for i in range(n_samples)]
    return MultiViewDataset(views=[duplicate, noise, target], labels=labels, sample_ids=ids)


class TestScoreSourceView:
    def test_identical_views_score_near_zero(self):
        rng = np.random.default_rng(100)
        dataset = correlated_three_view_dataset(rng)
        with pytest.warns(UserWarning, match="floored"):
            score = score_source_view(
                dataset, 0, 2, "dtw", sampling=SamplingConfig(batch_size=256), seed=0
            )
        assert 0.0 <= score < 1e-3

    def test_duplicate_view_scores_below_noise_view(self):
        rng = np.random.default_rng(101)
        dataset = correlated_three_view_dataset(rng)
        config = SamplingConfig(batch_size=256)
        with pytest.warns(UserWarning, match="floored"):
            duplicate_score = score_source_view(dataset, 0, 2, "dtw", sampling=config, seed=0)
        noise_score = score_source_view(dataset, 1, 2, "dtw", sampling=config, seed=0)
        assert duplicate_score < noise_score

    def test_inversion_flips_the_ranking(self):
        rng = np.random.default_rng(102)
        dataset = correlated_three_view_dataset(rng)
        config = SamplingConfig(batch_size=256, invert_importance=True)
        with pytest.warns(UserWarning, match="floored"):
            duplicate_score = score_source_view(dataset, 0, 2, "dtw", sampling=config, seed=0)
        noise_score = score_source_view(dataset, 1, 2, "dtw", sampling=config, seed=0)
        assert duplicate_score > noise_score
        assert 0.0 < noise_score < duplicate_score <= 1.0

    def test_determinism(self):
        rng = np.random.default_rng(103)
        dataset = correlated_three_view_dataset(rng)
        config = SamplingConfig(batch_size=128)
        first = score_source_view(dataset, 1, 2, "dtw", sampling=config, seed=5)
        second = score_source_view(dataset, 1, 2, "dtw", sampling=config, seed=5)
        assert first == second

    def test_artifacts_persisted_when_asked(self, tmp_path):
        rng = np.random.default_rng(104)
        dataset = correlated_three_view_dataset(rng)
        score_source_view(
            dataset,
            1,
            2,
            "dtw",
            sampling=SamplingConfig(batch_size=64),
            seed=2,
            artifact_dir=tmp_path,
        )
        latent_payload = json.loads((tmp_path / "latent_view1.json").read_text())
        assert latent_payload["source_view"] == 1
        assert latent_payload["target_view"] == 2
        density_payload = json.loads((tmp_path / "density_view1.json").read_text())
        assert density_payload["variant"] == "kde"


class TestScoreSourceViews:
    """All source views scored in phases equal each view scored alone."""

    @pytest.mark.parametrize("override", ["kde", "flow"])
    def test_equals_each_view_alone_with_the_same_artifacts(self, tmp_path, override):
        rng = np.random.default_rng(105)
        dataset = make_random_dataset(rng, n_views=4, n_samples=10, channels=3, length=9)
        config = SamplingConfig(batch_size=64, norm_kind="spectral")
        flow_config = FlowConfig(layer_count=2, coupling_net_width=4, training_iterations=20)
        sources = [3, 0, 2]
        together = score_source_views(
            dataset, sources, 1, "dtw", None, override, config, seed=3,
            flow_config=flow_config, artifact_dir=tmp_path / "together",
        )
        alone = [
            score_source_view(
                dataset, source, 1, "dtw", None, override, config, seed=3,
                flow_config=flow_config, artifact_dir=tmp_path / "alone",
            )
            for source in sources
        ]
        assert together == alone
        for source in sources:
            for name in (f"latent_view{source}.json", f"density_view{source}.json"):
                assert (tmp_path / "together" / name).read_bytes() == (
                    tmp_path / "alone" / name
                ).read_bytes()

    def test_diverged_flow_names_the_source_view(self, monkeypatch):
        """A non-finite loss in the stack's second view, source view 0,
        fails scoring with that dataset index and the iteration."""
        loss_and_gradients = flow.flow_loss_and_gradients
        calls = []

        def diverge_second_view(model, batch, grads=None):
            loss, grads, mean_ll = loss_and_gradients(model, batch, grads)
            calls.append(1)
            if len(calls) == 3:
                loss[1] = np.nan
            return loss, grads, mean_ll

        monkeypatch.setattr(flow, "flow_loss_and_gradients", diverge_second_view)
        rng = np.random.default_rng(106)
        dataset = make_random_dataset(rng, n_views=3, n_samples=10, channels=2, length=9)
        with pytest.raises(FlowTrainingError) as raised:
            score_source_views(
                dataset, [2, 0], 1, "dtw", None, "flow",
                flow_config=FlowConfig(layer_count=2, coupling_net_width=4),
            )
        assert raised.value.view == 0
        assert raised.value.iteration == 3
        assert str(raised.value) == "non-finite loss at iteration 3 in the flow of source view 0"
