"""Tests for the invertible coupling-flow density model."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    flow_stacks,
    reference_fit_flow,
    reference_flow_loss_and_gradients,
    reference_inverse_batch,
    reference_log_density_batch,
)
from mvtransfer import flow
from mvtransfer.dataset import as_json
from mvtransfer.flow import (
    FlowConfig,
    FlowTrainingError,
    fit_flow,
    flow_from_json_dict,
    flow_inverse,
    flow_loss_and_gradients,
    init_flow_model,
    sample_flow,
)

QUICK = FlowConfig(layer_count=4, coupling_net_width=8, training_iterations=50)


def small_trained_model(rng, n=64, d=2, iterations=60):
    data = rng.normal(size=(n, d)) @ np.array([[1.0, 0.4], [0.0, 0.8]])[:d, :d] + 0.5
    config = FlowConfig(
        layer_count=4, coupling_net_width=8, training_iterations=iterations, seed=1
    )
    return fit_flow(data, config), data


def randomized_model(rng, d=3, layers=4, width=6):
    """Untrained model with all parameters knocked off their init values,
    so gradients and Jacobians are non-degenerate."""
    data = rng.normal(size=(32, d))
    model = init_flow_model(data, FlowConfig(layer_count=layers, coupling_net_width=width))
    for key in model.params:
        model.params[key] = model.params[key] + rng.normal(0.0, 0.3, model.params[key].shape)
    return model


def forward(model, points):
    """The latent images and total log-determinants of the rows of ``points``."""
    latent, log_det, _ = flow._forward_batch(model, points)
    return latent, log_det


def numeric_log_dets(model, points, step=1e-6):
    """log|det| of each point's central-difference Jacobian of the forward map."""
    n, d = points.shape
    jacobians = np.empty((n, d, d))
    for j in range(d):
        bump = np.zeros(d)
        bump[j] = step
        plus, minus = forward(model, points + bump)[0], forward(model, points - bump)[0]
        jacobians[:, :, j] = (plus - minus) / (2 * step)
    return np.log(np.abs(np.linalg.det(jacobians)))


class TestIdentityAtInit:
    def test_forward_is_standardization_only(self):
        """Zero output layers make every coupling layer the identity."""
        rng = np.random.default_rng(40)
        data = rng.normal(loc=3.0, scale=2.0, size=(50, 3))
        model = init_flow_model(data, QUICK)
        latent, log_det = forward(model, data[7:8])
        expected = (data[7] - model.standardize_mean) / model.standardize_scale
        assert np.array_equal(latent[0], expected)
        assert log_det[0] == pytest.approx(-np.log(model.standardize_scale).sum(), abs=0)

    def test_log_density_is_base_normal_plus_jacobian(self):
        rng = np.random.default_rng(41)
        data = rng.normal(size=(40, 2))
        model = init_flow_model(data, QUICK)
        for point, value in zip(data[:5], flow._log_density_batch(model, data[:5])):
            std = (point - model.standardize_mean) / model.standardize_scale
            expected = (
                -math.log(2.0 * math.pi)
                - 0.5 * float(std @ std)
                - float(np.log(model.standardize_scale).sum())
            )
            assert value == pytest.approx(expected, abs=1e-12)

    def test_inverse_of_zero_latent_is_data_mean(self):
        rng = np.random.default_rng(42)
        data = rng.normal(loc=-1.5, size=(30, 2))
        model = init_flow_model(data, QUICK)
        assert np.allclose(flow_inverse(model, np.zeros((1, 2)))[0], model.standardize_mean)

    def test_init_is_seed_deterministic(self):
        rng = np.random.default_rng(43)
        data = rng.normal(size=(20, 2))
        m1 = init_flow_model(data, QUICK)
        m2 = init_flow_model(data.copy(), QUICK)
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])


class TestInvertibility:
    def test_round_trip_on_random_models(self):
        rng = np.random.default_rng(44)
        for d in (2, 3, 5):
            model = randomized_model(rng, d=d)
            points = rng.normal(size=(100, d)) * 3.0
            latent, _ = forward(model, points)
            assert np.max(np.abs(flow_inverse(model, latent) - points)) < 1e-9

    def test_round_trip_other_direction(self):
        rng = np.random.default_rng(45)
        model = randomized_model(rng, d=2)
        latents = rng.normal(size=(50, 2))
        z_back, _ = forward(model, flow_inverse(model, latents))
        assert np.max(np.abs(z_back - latents)) < 1e-9

    def test_inverse_continuous_on_grid(self):
        """1-coordinate slices of the inverse produce no non-finite values."""
        rng = np.random.default_rng(46)
        model = randomized_model(rng, d=2)
        latents = np.column_stack([np.linspace(-4, 4, 41), np.full(41, 0.3)])
        assert np.all(np.isfinite(flow_inverse(model, latents)))


class TestJacobian:
    def test_log_det_matches_numeric_jacobian(self):
        """Analytic log|det| vs central-difference full Jacobian."""
        rng = np.random.default_rng(47)
        model, _ = small_trained_model(rng)
        points = rng.normal(size=(20, 2), scale=1.5)
        _, log_det = forward(model, points)
        assert np.allclose(log_det, numeric_log_dets(model, points), rtol=0, atol=1e-4)

    def test_log_det_on_randomized_model(self):
        rng = np.random.default_rng(48)
        model = randomized_model(rng, d=3)
        points = rng.normal(size=(5, 3))
        _, log_det = forward(model, points)
        assert np.allclose(log_det, numeric_log_dets(model, points), rtol=0, atol=1e-4)


def max_gradient_relative_error(model, data, step=1e-5):
    """Compare analytic parameter gradients with central finite differences."""
    _, grads, _ = flow_loss_and_gradients(model, data)
    worst = 0.0
    for key, grad in grads.items():
        param = model.params[key]
        flat = param.ravel()
        fd = np.empty_like(flat)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            loss_plus, _, _ = flow_loss_and_gradients(model, data)
            flat[idx] = original - step
            loss_minus, _, _ = flow_loss_and_gradients(model, data)
            flat[idx] = original
            fd[idx] = (loss_plus - loss_minus) / (2 * step)
        analytic = grad.ravel()
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    return worst


class TestGradients:
    def test_finite_difference_check_small_toy_set(self):
        """Every parameter tensor's gradient agrees with finite differences
        on a 5-point toy set."""
        rng = np.random.default_rng(49)
        model = randomized_model(rng, d=2, layers=2, width=4)
        data = rng.normal(size=(5, 2))
        assert max_gradient_relative_error(model, data) < 1e-4

    def test_finite_difference_check_wider_model(self):
        rng = np.random.default_rng(50)
        model = randomized_model(rng, d=3, layers=3, width=5)
        data = rng.normal(size=(6, 3)) * 2.0 + 1.0
        assert max_gradient_relative_error(model, data) < 1e-4

    def test_loss_is_negative_mean_log_likelihood(self):
        rng = np.random.default_rng(51)
        model = randomized_model(rng, d=2)
        data = rng.normal(size=(10, 2))
        loss, _, mean_ll = flow_loss_and_gradients(model, data)
        direct = np.mean([reference_log_density_batch(model, p[None])[0] for p in data])
        assert mean_ll == pytest.approx(direct, abs=1e-12)
        assert loss == pytest.approx(-direct, abs=1e-12)


class TestTraining:
    def test_likelihood_never_degrades(self):
        rng = np.random.default_rng(52)
        model, _ = small_trained_model(rng, iterations=40)
        assert model.final_log_likelihood >= model.initial_log_likelihood

    def test_training_improves_on_structured_data(self):
        """A correlated, shifted Gaussian should gain clearly over the
        identity-flow start."""
        rng = np.random.default_rng(53)
        model, _ = small_trained_model(rng, n=128, iterations=200)
        assert model.final_log_likelihood > model.initial_log_likelihood + 0.01

    def test_standard_normal_likelihood_recovery(self):
        """Trained on standard-normal draws with a right-sized flow, the
        mean log-likelihood comes out near the analytic expectation for
        the true density (negative differential entropy, -d/2*log(2*pi*e)).
        A deliberately small model is used: on 512 points a wide deep flow
        overfits and overshoots the analytic value."""
        rng = np.random.default_rng(54)
        data = rng.standard_normal((512, 2))
        config = FlowConfig(
            layer_count=2, coupling_net_width=4, training_iterations=500, seed=7
        )
        model = fit_flow(data, config)
        entropy_value = -math.log(2.0 * math.pi) - 1.0  # d = 2
        assert abs(model.final_log_likelihood - entropy_value) < 0.15
        # and the recovered density peaks near the data mean at the height
        # of a standard normal mode
        mode_value = -math.log(2.0 * math.pi)
        (at_mean,) = flow._log_density_batch(model, data.mean(axis=0)[None])
        assert abs(at_mean - mode_value) < 0.15

    def test_determinism(self):
        rng = np.random.default_rng(55)
        data = rng.normal(size=(32, 2))
        config = FlowConfig(layer_count=2, coupling_net_width=4, training_iterations=30, seed=3)
        m1 = fit_flow(data, config)
        m2 = fit_flow(data.copy(), config)
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_duplicate_points_trigger_perturbation_and_still_train(self):
        """A dataset of near-identical points would otherwise collapse; the
        dequantization noise keeps the loss finite."""
        data = np.full((16, 2), 1.0)
        data += np.arange(16)[:, None] * 1e-12  # pairwise distances ~1e-12
        config = FlowConfig(
            layer_count=2, coupling_net_width=4, training_iterations=25,
            perturbation=0.01, seed=2,
        )
        model = fit_flow(data, config)
        assert np.isfinite(model.final_log_likelihood)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            fit_flow(np.zeros((5, 2)), QUICK)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            fit_flow(np.random.default_rng(0).normal(size=(20, 1)), QUICK)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError, match="layer_count"):
            FlowConfig(layer_count=1)
        with pytest.raises(ValueError, match="learning_rate"):
            FlowConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="perturbation"):
            FlowConfig(perturbation=-1e-6)


class TestSampling:
    def test_identity_model_moments(self):
        """With the identity flow, samples are de-standardized normal draws
        whose covariance tracks the data's diagonal covariance."""
        rng = np.random.default_rng(56)
        data = rng.normal(size=(200, 2)) * np.array([2.0, 0.5]) + np.array([1.0, -3.0])
        model = init_flow_model(data, QUICK)
        samples = sample_flow(model, 10_000, seed=9)
        assert samples.shape == (10_000, 2)
        sample_var = samples.var(axis=0)
        data_var = data.var(axis=0)
        assert np.all(np.abs(sample_var - data_var) / data_var < 0.1)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(57)
        model = randomized_model(rng, d=2)
        assert np.array_equal(sample_flow(model, 50, seed=4), sample_flow(model, 50, seed=4))

    def test_trained_model_mean_recovery(self):
        """Sampling a model trained on a shifted Gaussian recovers the data
        mean within three standard errors."""
        rng = np.random.default_rng(58)
        model, data = small_trained_model(rng, n=128, iterations=150)
        samples = sample_flow(model, 4000, seed=11)
        se = samples.std(axis=0) / np.sqrt(samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - data.mean(axis=0)) < 3 * se + 0.05)


class TestSerialization:
    def test_json_round_trip_preserves_densities(self):
        rng = np.random.default_rng(59)
        model, data = small_trained_model(rng, iterations=30)
        payload = as_json(model)
        back = flow_from_json_dict(payload)
        assert np.allclose(
            flow._log_density_batch(back, data[:10]),
            flow._log_density_batch(model, data[:10]),
            rtol=0,
            atol=1e-12,
        )
        assert back.final_log_likelihood == model.final_log_likelihood

    def test_non_finite_loss_aborts_with_iteration(self):
        """An absurd learning rate overflows the coupling nets within a few
        steps; training must stop and name the failing iteration."""
        rng = np.random.default_rng(60)
        data = rng.normal(size=(16, 2))
        config = FlowConfig(
            layer_count=2, coupling_net_width=4, training_iterations=10,
            learning_rate=1e300, seed=0,
        )
        with np.errstate(all="ignore"), pytest.raises(FlowTrainingError, match="iteration"):
            fit_flow(data, config)


@st.composite
def fitted_flows(draw):
    """A small flow fitted by :func:`fit_flow`, and its training data.

    Learning rates up to 0.3 can overshoot, so some fits end on the
    best-iterate restore; duplicated rows take the perturbation path."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=8, max_value=24))
    d = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)) * draw(st.sampled_from([0.01, 1.0, 50.0]))
    if draw(st.booleans()):
        data[1::2] = data[0:n - 1:2]
    config = FlowConfig(
        layer_count=draw(st.integers(min_value=2, max_value=4)),
        coupling_net_width=draw(st.integers(min_value=1, max_value=6)),
        training_iterations=draw(st.integers(min_value=1, max_value=30)),
        learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.3])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    with np.errstate(over="ignore"):
        return fit_flow(data, config), data


class TestFittedFlowProperties:
    """Properties of fitted flows, whose parameters are views into one buffer."""

    @settings(max_examples=40, deadline=None)
    @given(fitted=fitted_flows())
    def test_parameters_share_one_buffer(self, fitted):
        model, _ = fitted
        buffers = {id(tensor.base) for tensor in model.params.values()}
        assert len(buffers) == 1
        assert next(iter(model.params.values())).base.size == sum(
            tensor.size for tensor in model.params.values()
        )

    @settings(max_examples=40, deadline=None)
    @given(fitted=fitted_flows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_inverse_recovers_forward_input(self, fitted, seed):
        model, data = fitted
        rng = np.random.default_rng(seed)
        spread = data.mean(axis=0) + data.std(axis=0) * rng.normal(size=(4, data.shape[1]))
        points = np.concatenate([data[:4], spread])
        latent, _ = forward(model, points)
        assert np.max(np.abs(flow_inverse(model, latent) - points)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(fitted=fitted_flows())
    def test_json_round_trip_is_byte_identical(self, fitted):
        model, _ = fitted
        text = json.dumps(as_json(model))
        again = json.dumps(as_json(flow_from_json_dict(json.loads(text))))
        assert again == text

    @settings(max_examples=40, deadline=None)
    @given(fitted=fitted_flows())
    def test_final_likelihood_never_below_initial(self, fitted):
        model, _ = fitted
        assert model.final_log_likelihood >= model.initial_log_likelihood


class TestStackedFit:
    """``fit_flow`` on a (V, n, d) stack trains V flows as one model."""

    @settings(max_examples=60, deadline=None)
    @given(case=flow_stacks())
    def test_each_view_bit_equal_to_its_own_fit(self, case):
        stack, config = case
        with np.errstate(over="ignore"):
            models = fit_flow(stack, config)
            references = [reference_fit_flow(latent, config) for latent in stack]
        assert len(models) == len(stack)
        for model, reference in zip(models, references):
            assert model.params.keys() == reference.params.keys()
            for key, value in reference.params.items():
                assert np.array_equal(model.params[key], value)
            assert np.array_equal(model.standardize_mean, reference.standardize_mean)
            assert np.array_equal(model.standardize_scale, reference.standardize_scale)
            assert model.initial_log_likelihood == reference.initial_log_likelihood
            assert model.final_log_likelihood == reference.final_log_likelihood

    def test_single_set_is_the_unstacked_case(self):
        rng = np.random.default_rng(61)
        data = rng.normal(size=(20, 3))
        model = fit_flow(data, QUICK)
        (stacked,) = fit_flow(data[None], QUICK)
        for key, value in model.params.items():
            assert value.shape == stacked.params[key].shape
            assert np.array_equal(value, stacked.params[key])
        assert model.final_log_likelihood == stacked.final_log_likelihood

    def test_views_share_one_parameter_buffer(self):
        rng = np.random.default_rng(62)
        models = fit_flow(rng.normal(size=(3, 16, 4)), QUICK)
        tensors = [t for model in models for t in model.params.values()]
        assert len({id(t.base) for t in tensors}) == 1
        assert tensors[0].base.size == sum(t.size for t in tensors)

    def test_one_loss_and_adam_step_per_iteration(self, monkeypatch):
        calls = {"loss": 0, "adam": 0}
        loss_and_gradients, adam = flow.flow_loss_and_gradients, flow.adam_update

        def counted_loss(*args):
            calls["loss"] += 1
            return loss_and_gradients(*args)

        def counted_adam(*args, **kwargs):
            calls["adam"] += 1
            return adam(*args, **kwargs)

        monkeypatch.setattr(flow, "flow_loss_and_gradients", counted_loss)
        monkeypatch.setattr(flow, "adam_update", counted_adam)
        fit_flow(np.random.default_rng(63).normal(size=(3, 12, 2)), QUICK)
        assert calls == {"loss": QUICK.training_iterations, "adam": QUICK.training_iterations}

    def test_divergence_of_one_view_names_it_and_the_iteration(self):
        """View 0 holds one repeated point and is not perturbed, so its only
        non-zero gradient moves a tanh-bounded log-scale and its loss stays
        finite under any step size; view 1 overflows as a lone fit does."""
        rng = np.random.default_rng(60)
        diverging = rng.normal(size=(16, 2))
        config = FlowConfig(
            layer_count=2, coupling_net_width=4, training_iterations=10,
            learning_rate=1e300, perturbation=0.0, seed=0,
        )
        stack = np.stack([np.full((16, 2), 3.0), diverging])
        with np.errstate(all="ignore"):
            reference_fit_flow(stack[0], config)
            with pytest.raises(FlowTrainingError) as lone:
                reference_fit_flow(diverging, config)
            with pytest.raises(FlowTrainingError) as stacked:
                fit_flow(stack, config)
        assert stacked.value.view == 1
        assert stacked.value.iteration == lone.value.iteration
        assert str(stacked.value) == (
            f"non-finite loss at iteration {lone.value.iteration} in view 1 of the stack"
        )

    def test_rejects_a_short_or_non_finite_stack(self):
        with pytest.raises(ValueError, match="at least 8"):
            fit_flow(np.zeros((2, 5, 3)), QUICK)
        with pytest.raises(ValueError, match="non-finite"):
            fit_flow(np.full((2, 10, 3), np.nan), QUICK)


@st.composite
def loss_cases(draw):
    """A model with every parameter redrawn at a random scale, so the tanh
    units run from linear to saturated, and a batch to evaluate it on: one
    (n, d) set or a (V, n, d) stack."""
    stacked = draw(st.booleans())
    views = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=8, max_value=59))
    d = draw(st.integers(min_value=2, max_value=8))
    config = FlowConfig(
        layer_count=draw(st.integers(min_value=2, max_value=6)),
        coupling_net_width=draw(st.integers(min_value=1, max_value=39)),
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (views, n, d) if stacked else (n, d)
    data = rng.normal(size=shape) * rng.choice([0.01, 1.0, 50.0], size=shape[-1]) + rng.normal()
    model = init_flow_model(data, config)
    for key, value in model.params.items():
        scale = draw(st.floats(min_value=0.01, max_value=2.0))
        model.params[key] = rng.normal(0.0, scale, value.shape)
    batch = data + rng.normal(0.0, 0.1, size=shape) * data.std(axis=-2, keepdims=True)
    return model, batch


class TestLossPassBitEqual:
    """The in-place loss pass on full-shape masks reproduces the per-layer
    pass it replaced (``conftest.reference_flow_loss_and_gradients``) bit
    for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=loss_cases())
    def test_loss_likelihood_and_gradients_equal_the_reference(self, case):
        model, batch = case
        with np.errstate(over="ignore"):
            loss, grads, mean_ll = flow_loss_and_gradients(model, batch)
            into = {key: np.empty_like(value) for key, value in model.params.items()}
            returned = flow_loss_and_gradients(model, batch, into)[1]
            ref_loss, ref_grads, ref_mean_ll = reference_flow_loss_and_gradients(model, batch)
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert np.asarray(mean_ll).tobytes() == np.asarray(ref_mean_ll).tobytes()
        assert returned is into
        assert grads.keys() == ref_grads.keys()
        for key, value in ref_grads.items():
            assert grads[key].tobytes() == value.tobytes(), key
            assert into[key].tobytes() == value.tobytes(), key

    @settings(max_examples=60, deadline=None)
    @given(case=loss_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_log_density_and_inverse_equal_the_reference(self, case, seed):
        model, batch = case
        latent = np.random.default_rng(seed).standard_normal(batch.shape)
        with np.errstate(over="ignore"):
            log_density = flow._log_density_batch(model, batch)
            reference = reference_log_density_batch(model, batch)
            inverse = flow_inverse(model, latent)
            reference_inverse = reference_inverse_batch(model, latent)
        assert log_density.tobytes() == reference.tobytes()
        assert inverse.tobytes() == reference_inverse.tobytes()
