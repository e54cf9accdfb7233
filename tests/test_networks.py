"""Tests for the from-scratch MLP/FCN classifiers and their training loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mvtransfer.networks import (
    Network,
    NetworkConfig,
    NetworkError,
    TrainConfig,
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    dropout_backward,
    dropout_forward,
    evaluate,
    forward,
    init_network,
    load_network,
    loss_and_gradients,
    save_network,
    softmax_cross_entropy,
    train,
    transfer_weights,
)
from mvtransfer.optim import adam_update


def mlp_config(channels=2, length=5, classes=3, seed=0):
    return NetworkConfig(
        arch="mlp", input_channels=channels, input_length=length, class_count=classes, seed=seed
    )


def fcn_config(channels=2, length=12, classes=2, dropout=0.0, kernels=(8, 5, 3), seed=0):
    return NetworkConfig(
        arch="fcn",
        input_channels=channels,
        input_length=length,
        class_count=classes,
        dropout_rate=dropout,
        fcn_kernel_sizes=kernels,
        seed=seed,
    )


def separable_fixture(rng, count=20, channels=2, length=5):
    """Linearly separable two-class samples: class means at +1 and -1."""
    half = count // 2
    zeros = rng.normal(loc=1.0, scale=0.2, size=(half, channels, length))
    ones = rng.normal(loc=-1.0, scale=0.2, size=(count - half, channels, length))
    inputs = np.concatenate([zeros, ones])
    labels = np.array([0] * half + [1] * (count - half))
    return inputs, labels


class TestInit:
    def test_mlp_parameter_count(self):
        """Dense 10->128, 128->128, 128->3 with biases totals 18,307."""
        net = init_network(mlp_config(channels=2, length=5, classes=3))
        assert sum(p.size for p in net.params.values()) == 18_307

    def test_same_seed_is_bit_identical(self):
        first = init_network(fcn_config(seed=4))
        second = init_network(fcn_config(seed=4))
        assert set(first.params) == set(second.params)
        for name in first.params:
            assert np.array_equal(first.params[name], second.params[name])

    def test_different_seeds_differ(self):
        first = init_network(mlp_config(seed=0))
        second = init_network(mlp_config(seed=1))
        assert not np.array_equal(first.params["dense1.W"], second.params["dense1.W"])

    def test_unit_kernels_accepted_for_short_inputs(self):
        net = init_network(fcn_config(length=3, kernels=(1, 1, 1)))
        assert net.params["conv1.W"].shape == (128, 2, 1)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError, match="exceed input length"):
            fcn_config(length=5, kernels=(8, 5, 3))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="arch"):
            NetworkConfig(arch="cnn2d", input_channels=1, input_length=4, class_count=2)
        with pytest.raises(ValueError, match="class_count"):
            mlp_config(classes=1)
        with pytest.raises(ValueError, match="dropout_rate"):
            fcn_config(dropout=1.0)

    def test_batchnorm_starts_as_identity(self):
        net = init_network(fcn_config())
        assert np.array_equal(net.params["bn1.gamma"], np.ones(128))
        assert np.array_equal(net.running_stats["bn2.var"], np.ones(256))


class TestConvolution:
    def conv_reference(self, x, weights, bias):
        """Direct convolution by definition with explicit zero padding."""
        batch, channels, length = x.shape
        out_channels, _, kernel = weights.shape
        left = (kernel - 1) // 2
        out = np.zeros((batch, out_channels, length))
        for b in range(batch):
            for o in range(out_channels):
                for t in range(length):
                    acc = bias[o]
                    for c in range(channels):
                        for j in range(kernel):
                            src = t + j - left
                            if 0 <= src < length:
                                acc += weights[o, c, j] * x[b, c, src]
                    out[b, o, t] = acc
        return out

    def conv_backward_reference(self, grad_output, x, weights):
        """Adjoint of ``conv_reference``: every product it sums, routed back."""
        batch, channels, length = x.shape
        out_channels, _, kernel = weights.shape
        left = (kernel - 1) // 2
        grad_input = np.zeros_like(x)
        grad_weights = np.zeros_like(weights)
        grad_bias = np.zeros(out_channels)
        for b in range(batch):
            for o in range(out_channels):
                for t in range(length):
                    g = grad_output[b, o, t]
                    grad_bias[o] += g
                    for c in range(channels):
                        for j in range(kernel):
                            src = t + j - left
                            if 0 <= src < length:
                                grad_input[b, c, src] += weights[o, c, j] * g
                                grad_weights[o, c, j] += x[b, c, src] * g
        return grad_input, grad_weights, grad_bias

    @pytest.mark.parametrize(
        "kernel,length",
        [(1, 9), (2, 9), (3, 9), (5, 9), (8, 9), (2, 2), (5, 5), (8, 8)],
    )
    def test_backward_matches_direct_adjoint(self, kernel, length):
        rng = np.random.default_rng(113 + kernel * length)
        x = rng.normal(size=(3, 2, length))
        weights = rng.normal(size=(4, 2, kernel))
        grad_output = rng.normal(size=(3, 4, length))
        _, cache = conv1d_forward(x, weights, rng.normal(size=4))
        got = conv1d_backward(grad_output, cache)
        expected = self.conv_backward_reference(grad_output, x, weights)
        for name, value, reference in zip(("input", "weights", "bias"), got, expected):
            assert value.shape == reference.shape, name
            assert np.allclose(value, reference, rtol=0.0, atol=1e-12), name

    def test_cache_holds_no_window_copies(self):
        """The backward cache keeps the padded input, never a k-fold
        windowed (im2col) array or a view onto one."""
        rng = np.random.default_rng(114)
        batch, channels, length, kernel = 3, 4, 10, 5
        x = rng.normal(size=(batch, channels, length))
        weights = rng.normal(size=(6, channels, kernel))
        _, cache = conv1d_forward(x, weights, np.zeros(6))
        padded_size = batch * channels * (length + kernel - 1)
        arrays = [item for item in cache if isinstance(item, np.ndarray)]
        assert arrays
        for array in arrays:
            assert array.size <= max(padded_size, weights.size)

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(110)
        for kernel in (1, 2, 3, 5, 8):
            x = rng.normal(size=(2, 3, 9))
            weights = rng.normal(size=(4, 3, kernel))
            bias = rng.normal(size=4)
            out, _ = conv1d_forward(x, weights, bias)
            assert np.allclose(out, self.conv_reference(x, weights, bias), atol=1e-12)

    def test_delta_kernel_shifts_input(self):
        """A kernel with a single 1 at position 0 reproduces the input
        shifted right by the left padding amount."""
        rng = np.random.default_rng(111)
        x = rng.normal(size=(1, 1, 8))
        weights = np.zeros((1, 1, 3))
        weights[0, 0, 0] = 1.0
        out, _ = conv1d_forward(x, weights, np.zeros(1))
        assert np.allclose(out[0, 0, 1:], x[0, 0, :-1])
        assert out[0, 0, 0] == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(112)
        x = rng.normal(size=(2, 2, 7))
        weights = rng.normal(size=(3, 2, 5))
        bias = rng.normal(size=3)
        sensitivity = rng.normal(size=(2, 3, 7))

        def objective(xv, wv, bv):
            out, _ = conv1d_forward(xv, wv, bv)
            return float(np.sum(out * sensitivity))

        out, cache = conv1d_forward(x, weights, bias)
        dx, dw, db = conv1d_backward(sensitivity, cache)
        step = 1e-6
        for array, grad in ((x, dx), (weights, dw), (bias, db)):
            flat = array.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                plus = objective(x, weights, bias)
                flat[idx] = keep - step
                minus = objective(x, weights, bias)
                flat[idx] = keep
                numeric = (plus - minus) / (2 * step)
                assert abs(numeric - grad.reshape(-1)[idx]) < 1e-5


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(113)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 6))
        gamma, beta = np.ones(3), np.zeros(3)
        out, _, new_mean, new_var = batchnorm_forward(
            x, gamma, beta, np.zeros(3), np.ones(3), train_mode=True
        )
        assert np.allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)
        assert np.allclose(new_mean, 0.1 * x.mean(axis=(0, 2)))
        assert np.allclose(new_var, 0.9 + 0.1 * x.var(axis=(0, 2)))

    def test_eval_mode_uses_running_statistics(self):
        x = np.full((2, 1, 3), 5.0)
        out, _, _, _ = batchnorm_forward(
            x, np.array([2.0]), np.array([1.0]), np.array([3.0]), np.array([4.0]),
            train_mode=False,
        )
        expected = 2.0 * (5.0 - 3.0) / math.sqrt(4.0 + 1e-5) + 1.0
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("train_mode", [True, False])
    def test_gradients_match_finite_differences(self, train_mode):
        rng = np.random.default_rng(114)
        x = rng.normal(size=(3, 2, 5))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        running_mean = rng.normal(size=2)
        running_var = rng.uniform(0.5, 2.0, size=2)
        sensitivity = rng.normal(size=(3, 2, 5))

        def objective(xv, gv, bv):
            out, _, _, _ = batchnorm_forward(
                xv, gv, bv, running_mean, running_var, train_mode
            )
            return float(np.sum(out * sensitivity))

        _, cache, _, _ = batchnorm_forward(
            x, gamma, beta, running_mean, running_var, train_mode
        )
        dx, dgamma, dbeta = batchnorm_backward(sensitivity, cache)
        step = 1e-6
        for array, grad in ((x, dx), (gamma, dgamma), (beta, dbeta)):
            flat = array.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                plus = objective(x, gamma, beta)
                flat[idx] = keep - step
                minus = objective(x, gamma, beta)
                flat[idx] = keep
                numeric = (plus - minus) / (2 * step)
                assert abs(numeric - grad.reshape(-1)[idx]) < 1e-5


class TestDropout:
    def test_mask_values_are_zero_or_inverted_rate(self):
        rng = np.random.default_rng(115)
        x = np.ones((10, 10))
        out, mask = dropout_forward(x, 0.5, rng)
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert np.array_equal(out, mask)

    def test_backward_reuses_the_mask(self):
        rng = np.random.default_rng(116)
        x = rng.normal(size=(4, 4))
        _, mask = dropout_forward(x, 0.3, rng)
        grad = rng.normal(size=(4, 4))
        assert np.array_equal(dropout_backward(grad, mask), grad * mask)

    def test_mean_is_preserved_in_expectation(self):
        rng = np.random.default_rng(117)
        x = np.ones((200, 200))
        out, _ = dropout_forward(x, 0.2, rng)
        assert abs(out.mean() - 1.0) < 0.02


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_class_count(self):
        loss, probs, _ = softmax_cross_entropy(np.zeros((6, 4)), np.array([0, 1, 2, 3, 0, 1]))
        assert loss == pytest.approx(math.log(4.0))
        assert np.allclose(probs, 0.25)

    def test_confident_correct_logits_give_near_zero_loss(self):
        logits = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        loss, _, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(118)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        _, _, grad = softmax_cross_entropy(logits, labels)
        step = 1e-6
        flat = logits.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            plus, _, _ = softmax_cross_entropy(logits, labels)
            flat[idx] = keep - step
            minus, _, _ = softmax_cross_entropy(logits, labels)
            flat[idx] = keep
            assert abs((plus - minus) / (2 * step) - grad.reshape(-1)[idx]) < 1e-6


class TestForward:
    @pytest.mark.parametrize("config", [mlp_config(), fcn_config(dropout=0.2)])
    def test_rows_are_probability_vectors(self, config):
        rng = np.random.default_rng(119)
        net = init_network(config)
        batch = rng.normal(size=(5, config.input_channels, config.input_length))
        for mode in ("train", "eval"):
            net.mode = mode
            probs = forward(net, batch, rng=rng)
            assert probs.shape == (5, config.class_count)
            assert np.all(probs > 0.0) and np.all(probs < 1.0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_head_gives_uniform_probabilities(self):
        rng = np.random.default_rng(120)
        net = init_network(mlp_config(classes=4))
        net.params["dense3.W"][:] = 0.0
        net.params["dense3.b"][:] = 0.0
        probs = forward(net, rng.normal(size=(3, 2, 5)))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_eval_mode_is_batch_independent(self):
        """Batch-norm in eval mode uses running statistics only, so a
        sample's output cannot depend on its batch neighbours."""
        rng = np.random.default_rng(121)
        net = init_network(fcn_config(dropout=0.2))
        for name in net.params:
            net.params[name] = net.params[name] + 0.05 * rng.normal(
                size=net.params[name].shape
            )
        for block in (1, 2, 3):
            size = net.running_stats[f"bn{block}.mean"].shape
            net.running_stats[f"bn{block}.mean"] = rng.normal(size=size)
            net.running_stats[f"bn{block}.var"] = rng.uniform(0.5, 2.0, size=size)
        net.mode = "eval"
        batch = rng.normal(size=(5, 2, 12))
        together = forward(net, batch)
        for i in range(5):
            alone = forward(net, batch[i : i + 1])
            assert np.allclose(together[i], alone[0], atol=1e-6)

    def test_forward_never_touches_running_stats(self):
        rng = np.random.default_rng(122)
        net = init_network(fcn_config(dropout=0.2))
        before = {k: v.copy() for k, v in net.running_stats.items()}
        forward(net, rng.normal(size=(4, 2, 12)), rng=rng)
        for name in before:
            assert np.array_equal(net.running_stats[name], before[name])

    def test_shape_mismatch_rejected(self):
        net = init_network(mlp_config())
        with pytest.raises(ValueError, match="batch shape"):
            forward(net, np.zeros((3, 2, 9)))
        with pytest.raises(ValueError, match="at least one sample"):
            forward(net, np.zeros((0, 2, 5)))


def max_param_fd_error(net, batch, labels, probes_per_tensor=6, step=1e-5, seed=0):
    """Worst relative disagreement between analytic and central-difference
    gradients over a seeded subsample of entries in every tensor."""
    _, grads, _ = loss_and_gradients(net, batch, labels)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, tensor in net.params.items():
        flat = tensor.reshape(-1)
        if flat.size <= probes_per_tensor:
            indices = np.arange(flat.size)
        else:
            indices = rng.choice(flat.size, size=probes_per_tensor, replace=False)
        for idx in indices:
            keep = flat[idx]
            flat[idx] = keep + step
            plus, _, _ = loss_and_gradients(net, batch, labels)
            flat[idx] = keep - step
            minus, _, _ = loss_and_gradients(net, batch, labels)
            flat[idx] = keep
            numeric = (plus - minus) / (2 * step)
            analytic = grads[name].reshape(-1)[idx]
            denominator = max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, abs(numeric - analytic) / denominator)
    return worst


class TestLossAndGradients:
    def test_rigged_confident_network_has_near_zero_loss(self):
        rng = np.random.default_rng(123)
        net = init_network(mlp_config(classes=3))
        net.params["dense3.W"][:] = 0.0
        net.params["dense3.b"][:] = [40.0, 0.0, 0.0]
        loss, _, _ = loss_and_gradients(net, rng.normal(size=(4, 2, 5)), np.zeros(4, dtype=int))
        assert loss < 1e-12

    def test_uniform_network_loss_is_log_class_count(self):
        rng = np.random.default_rng(124)
        net = init_network(mlp_config(classes=5))
        net.params["dense3.W"][:] = 0.0
        net.params["dense3.b"][:] = 0.0
        loss, _, _ = loss_and_gradients(
            net, rng.normal(size=(6, 2, 5)), rng.integers(0, 5, size=6)
        )
        assert loss == pytest.approx(math.log(5.0))

    def test_mlp_gradients_match_finite_differences(self):
        rng = np.random.default_rng(125)
        net = init_network(mlp_config())
        batch = rng.normal(size=(6, 2, 5))
        labels = rng.integers(0, 3, size=6)
        assert max_param_fd_error(net, batch, labels, probes_per_tensor=10) < 1e-4

    def test_fcn_eval_mode_gradients_match_finite_differences(self):
        rng = np.random.default_rng(126)
        net = init_network(fcn_config(dropout=0.0))
        net.mode = "eval"
        batch = rng.normal(size=(3, 2, 12))
        labels = rng.integers(0, 2, size=3)
        assert max_param_fd_error(net, batch, labels) < 1e-4

    def test_fcn_train_mode_gradients_flow_through_batch_statistics(self):
        rng = np.random.default_rng(127)
        net = init_network(fcn_config(dropout=0.0))
        net.mode = "train"
        batch = rng.normal(size=(4, 2, 12))
        labels = rng.integers(0, 2, size=4)
        assert max_param_fd_error(net, batch, labels) < 1e-4

    def test_train_mode_refreshes_running_statistics(self):
        rng = np.random.default_rng(128)
        net = init_network(fcn_config(dropout=0.0))
        before = net.running_stats["bn1.mean"].copy()
        loss_and_gradients(net, rng.normal(size=(4, 2, 12)), rng.integers(0, 2, size=4))
        assert not np.array_equal(net.running_stats["bn1.mean"], before)

    def test_dropout_draws_are_deterministic_given_generator_seed(self):
        rng_data = np.random.default_rng(129)
        net = init_network(fcn_config(dropout=0.5))
        batch = rng_data.normal(size=(4, 2, 12))
        labels = rng_data.integers(0, 2, size=4)
        loss_a, grads_a, _ = loss_and_gradients(net, batch, labels, np.random.default_rng(7))
        loss_b, grads_b, _ = loss_and_gradients(net, batch, labels, np.random.default_rng(7))
        assert loss_a == loss_b
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name])

    def test_bad_labels_rejected(self):
        net = init_network(mlp_config(classes=3))
        batch = np.zeros((2, 2, 5))
        with pytest.raises(ValueError, match="integer"):
            loss_and_gradients(net, batch, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            loss_and_gradients(net, batch, np.array([0, 3]))

    @pytest.mark.parametrize("arch", ["mlp", "fcn"])
    def test_correct_is_argmax_count(self, arch):
        """``correct`` counts the rows whose argmax probability is the label."""
        rng = np.random.default_rng(139)
        config = mlp_config(classes=3) if arch == "mlp" else fcn_config(classes=3)
        net = init_network(config)
        net.mode = "eval"
        batch = rng.normal(size=(9, 2, config.input_length))
        labels = rng.integers(0, 3, size=9)
        labels[:4] = forward(net, batch[:4]).argmax(axis=1)
        _, _, correct = loss_and_gradients(net, batch, labels)
        assert correct == np.count_nonzero(forward(net, batch).argmax(axis=1) == labels)

    def test_correct_breaks_ties_to_lower_class(self):
        """All-equal logits predict class 0, as in :func:`evaluate`."""
        rng = np.random.default_rng(140)
        net = init_network(mlp_config(classes=3))
        net.params["dense3.W"][:] = 0.0
        net.params["dense3.b"][:] = 0.0
        labels = np.array([0, 2, 0, 1, 0, 2, 1])
        _, _, correct = loss_and_gradients(net, rng.normal(size=(7, 2, 5)), labels)
        assert correct == 3


def reference_adam_step(p, grad, m, v, step, learning_rate, beta1, beta2, eps):
    """The per-key Adam expression the fused step replaced, kept as its
    bit-equality reference."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    p -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


block_shapes = st.lists(
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6), min_size=1, max_size=4
)


class TestAdamStep:
    """The optimizer step ``train`` takes; its defaults equal TrainConfig's."""

    def test_zero_gradients_leave_parameters_unchanged(self):
        net = init_network(mlp_config())
        before = {k: v.copy() for k, v in net.params.items()}
        params = list(net.params.values())
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        adam_update(params, [np.zeros_like(p) for p in params], m, v, 1)
        for name in before:
            assert np.array_equal(net.params[name], before[name])
        assert all(not block.any() for block in m + v)

    def test_matches_scalar_recurrence_by_hand(self):
        w = np.array([1.0, -2.0])
        m_state, v_state = [np.zeros(2)], [np.zeros(2)]
        gradient = np.array([0.5, -1.5])
        m = np.zeros(2)
        v = np.zeros(2)
        expected = w.copy()
        for step in (1, 2):
            adam_update([w], [gradient.copy()], m_state, v_state, step)
            m = 0.9 * m + 0.1 * gradient
            v = 0.999 * v + 0.001 * gradient**2
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            expected -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(w, expected, atol=1e-15)

    def test_large_gradient_limit_is_signed_learning_rate(self):
        w = np.zeros(2)
        adam_update([w], [np.array([1e9, -1e9])], [np.zeros(2)], [np.zeros(2)], 1)
        assert np.allclose(w, [-1e-3, 1e-3], atol=1e-9)

    def test_rejects_mismatched_gradient_shape(self):
        with pytest.raises(ValueError, match="block 1"):
            adam_update(
                [np.zeros(2), np.zeros(3)],
                [np.zeros(2), np.zeros(2)],
                [np.zeros(2), np.zeros(3)],
                [np.zeros(2), np.zeros(3)],
                1,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=block_shapes,
        steps=st.integers(min_value=1, max_value=50),
        beta1=st.floats(min_value=0.0, max_value=0.99),
        beta2=st.floats(min_value=0.5, max_value=0.9999),
        eps=st.floats(min_value=1e-12, max_value=1e-2),
        learning_rate=st.floats(min_value=1e-5, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_equal_to_per_key_expression(
        self, shapes, steps, beta1, beta2, eps, learning_rate, seed
    ):
        """Several blocks in one call, over ``steps`` successive steps,
        match the reference expression exactly in parameters and moments."""
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=shape) for shape in shapes]
        ref_params = [p.copy() for p in params]
        m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        ref_m, ref_v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        hyper = dict(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        for step in range(1, steps + 1):
            grads = [rng.normal(scale=10.0 ** rng.integers(-4, 4), size=s) for s in shapes]
            for block in zip(ref_params, grads, ref_m, ref_v):
                reference_adam_step(*block, step, **hyper)
            adam_update(params, [g.copy() for g in grads], m, v, step, **hyper)
        for got, want in zip(params + m + v, ref_params + ref_m + ref_v):
            assert np.array_equal(got, want)


class TestTraining:
    def test_zero_budget_is_a_no_op(self):
        rng = np.random.default_rng(130)
        net = init_network(fcn_config(dropout=0.2))
        params_before = {k: v.copy() for k, v in net.params.items()}
        stats_before = {k: v.copy() for k, v in net.running_stats.items()}
        inputs = rng.normal(size=(6, 2, 12))
        labels = rng.integers(0, 2, size=6)
        log = train(net, inputs, labels, TrainConfig(), epoch_budget=0)
        assert log == []
        for name in params_before:
            assert np.array_equal(net.params[name], params_before[name])
        for name in stats_before:
            assert np.array_equal(net.running_stats[name], stats_before[name])

    def test_frozen_parameters_stay_bit_identical(self):
        """The transfer step's freeze: conv tensors keep their exact values
        while every other parameter moves."""
        rng = np.random.default_rng(131)
        net = init_network(fcn_config())
        before = {k: v.copy() for k, v in net.params.items()}
        frozen = [name for name in net.params if name.startswith("conv")]
        inputs = rng.normal(size=(6, 2, 12))
        labels = np.array([0, 1, 0, 1, 0, 1])
        train(net, inputs, labels, TrainConfig(batch_size=3), epoch_budget=2, frozen_params=frozen)
        for name, tensor in net.params.items():
            assert np.array_equal(tensor, before[name]) == (name in frozen), name

    def test_overfits_separable_fixture_for_five_seeds(self):
        """A linearly separable 20-sample toy set must be memorized within
        200 epochs regardless of the seed."""
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            inputs, labels = separable_fixture(rng)
            net = init_network(mlp_config(channels=2, length=5, classes=2, seed=seed))
            log = train(net, inputs, labels, TrainConfig(seed=seed), epoch_budget=200)
            assert len(log) == 200
            assert max(entry["train_accuracy"] for entry in log) == 1.0
            assert evaluate(net, inputs, labels) == 1.0

    def test_loss_strictly_decreases_on_toy_set(self):
        rng = np.random.default_rng(131)
        inputs, labels = separable_fixture(rng)
        net = init_network(mlp_config(channels=2, length=5, classes=2))
        log = train(net, inputs, labels, TrainConfig(), epoch_budget=50)
        assert log[49]["loss"] < log[0]["loss"]

    def test_final_loss_not_above_initial_for_most_seeds(self):
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            inputs, labels = separable_fixture(rng)
            net = init_network(mlp_config(channels=2, length=5, classes=2, seed=seed))
            log = train(net, inputs, labels, TrainConfig(seed=seed), epoch_budget=20)
            if log[-1]["loss"] <= log[0]["loss"]:
                wins += 1
        assert wins >= 4

    def test_training_is_bit_reproducible(self):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(132)
            inputs, labels = separable_fixture(rng, count=12)
            net = init_network(fcn_config(channels=2, length=5, kernels=(3, 3, 3), dropout=0.2, seed=3))
            log = train(net, inputs, labels, TrainConfig(seed=9), epoch_budget=4)
            runs.append((net, log))
        first, second = runs
        assert first[1] == second[1]
        for name in first[0].params:
            assert np.array_equal(first[0].params[name], second[0].params[name])
        for name in first[0].running_stats:
            assert np.array_equal(first[0].running_stats[name], second[0].running_stats[name])

    def test_non_finite_loss_aborts_with_epoch_index(self):
        rng = np.random.default_rng(133)
        inputs, labels = separable_fixture(rng, count=8)
        net = init_network(mlp_config(channels=2, length=5, classes=2))
        config = TrainConfig(learning_rate=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(NetworkError, match="epoch"):
                train(net, inputs, labels, config, epoch_budget=5)

    def test_one_batch_accuracy_is_untrained_accuracy(self):
        """With the whole set in one batch, an epoch's logged accuracy is
        that batch's forward pass before the only step: the untrained net's."""
        rng = np.random.default_rng(141)
        inputs = rng.normal(size=(10, 2, 5))
        labels = rng.integers(0, 3, size=10)
        untrained = init_network(mlp_config(classes=3, seed=2))
        expected = evaluate(untrained, inputs, labels)
        net = init_network(mlp_config(classes=3, seed=2))
        config = TrainConfig(batch_size=16, learning_rate=0.5)
        (entry,) = train(net, inputs, labels, config, epoch_budget=1)
        assert entry["train_accuracy"] == expected
        assert evaluate(net, inputs, labels) != expected

    def test_no_separate_evaluation_pass(self, monkeypatch):
        """The logged accuracy comes from the training forward passes."""
        import mvtransfer.networks as networks

        def refuse(*args, **kwargs):
            raise AssertionError("train called evaluate")

        monkeypatch.setattr(networks, "evaluate", refuse)
        rng = np.random.default_rng(142)
        inputs, labels = separable_fixture(rng, count=12, length=12)
        net = init_network(fcn_config(kernels=(3, 3, 3), dropout=0.2))
        log = train(net, inputs, labels, TrainConfig(batch_size=5), epoch_budget=2)
        for entry in log:
            assert entry["train_accuracy"] in {k / 12 for k in range(13)}

    def test_mlp_ignores_dropout_rate(self):
        """The MLP has no dropout layer: rates 0.0 and 0.5 train identically."""
        rng = np.random.default_rng(143)
        inputs, labels = separable_fixture(rng, count=12)
        runs = []
        for rate in (0.0, 0.5):
            config = NetworkConfig(
                arch="mlp",
                input_channels=2,
                input_length=5,
                class_count=2,
                dropout_rate=rate,
                seed=1,
            )
            net = init_network(config)
            log = train(net, inputs, labels, TrainConfig(batch_size=5, seed=3), epoch_budget=3)
            runs.append((net, log))
        (first, first_log), (second, second_log) = runs
        assert first_log == second_log
        for name in first.params:
            assert np.array_equal(first.params[name], second.params[name])

    def test_network_left_in_eval_mode(self):
        rng = np.random.default_rng(135)
        inputs, labels = separable_fixture(rng, count=8)
        net = init_network(mlp_config(channels=2, length=5, classes=2))
        train(net, inputs, labels, TrainConfig(), epoch_budget=1)
        assert net.mode == "eval"


class TestEvaluate:
    def test_perfect_predictions_score_one(self):
        rng = np.random.default_rng(136)
        inputs, labels = separable_fixture(rng)
        net = init_network(mlp_config(channels=2, length=5, classes=2))
        train(net, inputs, labels, TrainConfig(), epoch_budget=200)
        assert evaluate(net, inputs, labels) == 1.0

    def test_uniform_network_tie_breaks_to_lower_class(self):
        """With all-equal probabilities argmax returns class 0, so the
        accuracy equals the class-0 share exactly (counting oracle)."""
        rng = np.random.default_rng(137)
        net = init_network(mlp_config(channels=2, length=5, classes=2))
        net.params["dense3.W"][:] = 0.0
        net.params["dense3.b"][:] = 0.0
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        inputs = rng.normal(size=(8, 2, 5))
        expected = np.count_nonzero(labels == 0) / len(labels)
        assert evaluate(net, inputs, labels) == expected

    def test_repeated_calls_are_identical(self):
        rng = np.random.default_rng(138)
        net = init_network(fcn_config(dropout=0.2))
        inputs = rng.normal(size=(6, 2, 12))
        labels = rng.integers(0, 2, size=6)
        assert evaluate(net, inputs, labels) == evaluate(net, inputs, labels)

    def test_empty_data_rejected(self):
        net = init_network(mlp_config())
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate(net, np.zeros((0, 2, 5)), np.zeros(0, dtype=int))


class TestTransferWeights:
    def test_transfer_copies_everything(self):
        rng = np.random.default_rng(139)
        inputs, labels = separable_fixture(rng, count=12)
        source = init_network(mlp_config(channels=2, length=5, classes=2, seed=0))
        train(source, inputs, labels, TrainConfig(), epoch_budget=10)
        target = init_network(mlp_config(channels=2, length=5, classes=2, seed=99))
        transfer_weights(source, target)
        for name in source.params:
            assert np.array_equal(target.params[name], source.params[name])
        assert evaluate(target, inputs, labels) == evaluate(source, inputs, labels)

    def test_transfer_then_zero_finetune_stays_bit_equal(self):
        rng = np.random.default_rng(140)
        inputs, labels = separable_fixture(rng, count=10, length=12)
        source = init_network(fcn_config(dropout=0.2, seed=1))
        train(source, inputs, labels, TrainConfig(seed=2), epoch_budget=2)
        target = init_network(fcn_config(dropout=0.2, seed=50))
        transfer_weights(source, target)
        train(target, inputs, labels, TrainConfig(seed=3), epoch_budget=0)
        for name in source.params:
            assert np.array_equal(target.params[name], source.params[name])
        for name in source.running_stats:
            assert np.array_equal(target.running_stats[name], source.running_stats[name])

    def test_copies_are_independent(self):
        source = init_network(mlp_config(seed=0))
        target = init_network(mlp_config(seed=1))
        transfer_weights(source, target)
        target.params["dense1.W"][0, 0] += 1.0
        assert target.params["dense1.W"][0, 0] != source.params["dense1.W"][0, 0]

    def test_mismatched_channels_error_names_the_field(self):
        source = init_network(mlp_config(channels=2))
        target = init_network(mlp_config(channels=3))
        with pytest.raises(ValueError, match="input_channels"):
            transfer_weights(source, target)

    def test_mismatched_arch_rejected(self):
        source = init_network(mlp_config(channels=2, length=12))
        target = init_network(fcn_config(channels=2, length=12, classes=3))
        with pytest.raises(ValueError, match="arch"):
            transfer_weights(source, target)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(141)
        inputs, labels = separable_fixture(rng, count=10, length=12)
        net = init_network(fcn_config(dropout=0.2, seed=5))
        train(net, inputs, labels, TrainConfig(seed=6), epoch_budget=2)
        path = tmp_path / "checkpoint.json"
        save_network(net, path)
        restored = load_network(path)
        assert restored.config == net.config
        assert restored.mode == net.mode
        for name in net.params:
            assert np.array_equal(restored.params[name], net.params[name])
        for name in net.running_stats:
            assert np.array_equal(restored.running_stats[name], net.running_stats[name])

    def test_bad_checkpoints_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="unparseable"):
            load_network(path)
        with pytest.raises(ValueError, match="no network checkpoint"):
            load_network(tmp_path / "missing.json")
        path2 = tmp_path / "partial.json"
        path2.write_text(json.dumps({"config": {"arch": "mlp"}}))
        with pytest.raises(ValueError, match="malformed"):
            load_network(path2)
