"""From-scratch neural classifiers with manual backpropagation.

Two small architectures are provided: a three-layer MLP over flattened
samples, and a 1-D fully convolutional network (conv + batch-norm + ReLU +
dropout blocks, global average pooling, dense softmax head).  Everything —
forward passes, gradients, the optimizer loop — is implemented directly on
numpy arrays so that training is deterministic, inspectable, and cheap to
verify against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optim import adam_update

ARCHITECTURES = ("mlp", "fcn")
MLP_HIDDEN_WIDTH = 128
FCN_FILTERS = (128, 256, 128)
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9


class NetworkError(RuntimeError):
    """Raised when training encounters a non-finite loss or similar fault."""


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters shared by init, forward, and training.

    ``dropout_rate`` applies to the FCN only: the MLP has no dropout layer,
    so its training does not depend on the rate.
    """

    arch: str
    input_channels: int
    input_length: int
    class_count: int
    dropout_rate: float = 0.2
    fcn_kernel_sizes: tuple = (8, 5, 3)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fcn_kernel_sizes", tuple(self.fcn_kernel_sizes))
        check_network_settings(self.arch, self.dropout_rate, self.fcn_kernel_sizes)
        if self.input_channels < 1:
            raise ValueError("input_channels must be at least 1")
        if self.input_length < 1:
            raise ValueError("input_length must be at least 1")
        if self.class_count < 2:
            raise ValueError("class_count must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.arch == "fcn" and any(k > self.input_length for k in self.fcn_kernel_sizes):
            raise ValueError(
                f"kernel sizes {self.fcn_kernel_sizes} exceed input length {self.input_length}"
            )


def check_network_settings(arch: str, dropout_rate: float, fcn_kernel_sizes) -> None:
    """The network rules that need no data, run by ``NetworkConfig`` and
    ``ExperimentConfig``: a known ``arch``, a ``dropout_rate`` in [0, 1),
    and three positive integer FCN kernel sizes (a bool is not an integer).
    Each ``ValueError`` names its key.
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"arch must be one of {ARCHITECTURES}, got {arch!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must lie in [0, 1)")
    if arch == "fcn":
        if len(fcn_kernel_sizes) != 3:
            raise ValueError("fcn_kernel_sizes must hold exactly three sizes")
        for i, k in enumerate(fcn_kernel_sizes):
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise ValueError(f"fcn_kernel_sizes[{i}] must be an integer, got {k!r}")
        if any(k < 1 for k in fcn_kernel_sizes):
            raise ValueError("fcn_kernel_sizes must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization constants for the mini-batch training loop."""

    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError("beta1 must lie in (0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        if self.adam_epsilon <= 0.0:
            raise ValueError("adam_epsilon must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Network:
    """A classifier: parameter tensors plus batch-norm running statistics.

    ``mode`` switches dropout and batch-norm behaviour between ``train``
    (batch statistics, active dropout) and ``eval`` (running statistics,
    deterministic identity dropout).
    """

    config: NetworkConfig
    params: dict = field(default_factory=dict)
    running_stats: dict = field(default_factory=dict)
    mode: str = "train"


def init_network(config: NetworkConfig) -> Network:
    """Build a network with fan-in-scaled uniform weights and zero biases.

    Batch-norm layers start as the identity (unit gain, zero shift, zero
    running mean, unit running variance).  Equal seeds give bit-identical
    parameters.
    """
    rng = np.random.default_rng(config.seed)
    params: dict = {}
    stats: dict = {}

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    if config.arch == "mlp":
        flat = config.input_channels * config.input_length
        params["dense1.W"] = uniform((flat, MLP_HIDDEN_WIDTH), flat)
        params["dense1.b"] = np.zeros(MLP_HIDDEN_WIDTH)
        params["dense2.W"] = uniform((MLP_HIDDEN_WIDTH, MLP_HIDDEN_WIDTH), MLP_HIDDEN_WIDTH)
        params["dense2.b"] = np.zeros(MLP_HIDDEN_WIDTH)
        params["dense3.W"] = uniform((MLP_HIDDEN_WIDTH, config.class_count), MLP_HIDDEN_WIDTH)
        params["dense3.b"] = np.zeros(config.class_count)
    else:
        in_channels = config.input_channels
        for block, (filters, kernel) in enumerate(
            zip(FCN_FILTERS, config.fcn_kernel_sizes), start=1
        ):
            fan_in = in_channels * kernel
            params[f"conv{block}.W"] = uniform((filters, in_channels, kernel), fan_in)
            params[f"conv{block}.b"] = np.zeros(filters)
            params[f"bn{block}.gamma"] = np.ones(filters)
            params[f"bn{block}.beta"] = np.zeros(filters)
            stats[f"bn{block}.mean"] = np.zeros(filters)
            stats[f"bn{block}.var"] = np.ones(filters)
            in_channels = filters
        params["head.W"] = uniform((FCN_FILTERS[-1], config.class_count), FCN_FILTERS[-1])
        params["head.b"] = np.zeros(config.class_count)
    return Network(config=config, params=params, running_stats=stats, mode="train")


# ---------------------------------------------------------------------------
# Layer primitives (pure functions returning caches for the backward pass)
# ---------------------------------------------------------------------------


def _channel_major(x: np.ndarray, kernel: int, pad_left: int) -> np.ndarray:
    """``x`` (batch, channels, length) as a zero-padded (channels, batch·padded) matrix.

    Each sample occupies ``length + kernel - 1`` consecutive columns: its
    left padding, its series, then its right padding.
    """
    batch, channels, length = x.shape
    padded = np.zeros((channels, batch, length + kernel - 1))
    padded[:, :, pad_left : pad_left + length] = x.transpose(1, 0, 2)
    return padded.reshape(channels, -1)


def conv1d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Stride-1 same-padded 1-D convolution.

    ``x`` has shape (batch, in_channels, length) and ``weights``
    (out_channels, in_channels, kernel).  The time axis is zero-padded with
    (kernel-1)//2 positions on the left and the remainder on the right, so
    the output length equals the input length.

    The padded batch is laid out as one (in_channels, batch·padded_length)
    matrix, and each kernel tap adds one matrix product over a shifted view
    of it: column ``n`` of the result is output step ``n mod padded_length``
    of sample ``n // padded_length``.  Columns past a sample's last output
    step straddle two samples and are discarded.  The cache holds only the
    padded input.
    """
    batch, _, length = x.shape
    out_channels, _, kernel = weights.shape
    pad_left = (kernel - 1) // 2
    padded = _channel_major(x, kernel, pad_left)
    columns = padded.shape[1] - kernel + 1
    acc = np.empty((out_channels, padded.shape[1]))
    np.matmul(weights[:, :, 0], padded[:, :columns], out=acc[:, :columns])
    tap = np.empty((out_channels, columns))
    for offset in range(1, kernel):
        np.matmul(weights[:, :, offset], padded[:, offset : offset + columns], out=tap)
        acc[:, :columns] += tap
    per_sample = acc.reshape(out_channels, batch, -1)[:, :, :length]
    out = per_sample.transpose(1, 0, 2) + bias[None, :, None]
    cache = (padded, weights, x.shape, pad_left)
    return out, cache


def conv1d_backward(grad_output: np.ndarray, cache):
    """Gradients of a same-padded convolution w.r.t. input, weights, bias.

    ``grad_output`` is laid out like the forward pass's padded input, with
    zeros in the discarded columns.  The input gradient is then the col2im
    sum of one matrix product per tap, and each tap's weight gradient is
    one matrix product with a shifted view of the cached input.
    """
    padded, weights, x_shape, pad_left = cache
    batch, in_channels, length = x_shape
    kernel = weights.shape[2]
    columns = padded.shape[1] - kernel + 1
    grad = _channel_major(grad_output, kernel, 0)[:, :columns]
    grad_bias = grad_output.sum(axis=(0, 2))
    padded_grad = np.zeros_like(padded)
    tap = np.empty((in_channels, columns))
    for offset in range(kernel):
        np.matmul(weights[:, :, offset].T, grad, out=tap)
        padded_grad[:, offset : offset + columns] += tap
    # Freed before the weight gradient is allocated, to keep the peak low.
    del tap
    grad_weights = np.empty_like(weights)
    for offset in range(kernel):
        grad_weights[:, :, offset] = grad @ padded[:, offset : offset + columns].T
    per_sample = padded_grad.reshape(in_channels, batch, -1)
    grad_input = per_sample[:, :, pad_left : pad_left + length].transpose(1, 0, 2)
    return grad_input, grad_weights, grad_bias


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train_mode: bool,
):
    """Per-channel batch normalization over the batch and time axes.

    Returns ``(out, cache, new_running_mean, new_running_var)``; the new
    running statistics are the exponential moving averages, with momentum
    ``BN_MOMENTUM``, that the caller may store when training (the inputs
    are never mutated).
    """
    if train_mode:
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        new_mean = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
        new_var = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    else:
        mean = running_mean
        var = running_var
        new_mean = running_mean
        new_var = running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    centered = x - mean[None, :, None]
    normalized = centered * inv_std[None, :, None]
    out = gamma[None, :, None] * normalized + beta[None, :, None]
    cache = (normalized, centered, inv_std, gamma, train_mode)
    return out, cache, new_mean, new_var


def batchnorm_backward(grad_output: np.ndarray, cache):
    """Gradients of batch normalization w.r.t. input, gain, and shift.

    In training mode the gradient flows through the batch statistics; in
    eval mode the statistics are constants and the layer is elementwise
    affine.
    """
    normalized, centered, inv_std, gamma, train_mode = cache
    grad_gamma = np.sum(grad_output * normalized, axis=(0, 2))
    grad_beta = np.sum(grad_output, axis=(0, 2))
    grad_normalized = grad_output * gamma[None, :, None]
    if not train_mode:
        grad_input = grad_normalized * inv_std[None, :, None]
        return grad_input, grad_gamma, grad_beta
    count = grad_output.shape[0] * grad_output.shape[2]
    grad_var = np.sum(grad_normalized * centered, axis=(0, 2)) * (-0.5) * inv_std**3
    grad_mean = -np.sum(grad_normalized, axis=(0, 2)) * inv_std + grad_var * (
        -2.0 / count
    ) * np.sum(centered, axis=(0, 2))
    grad_input = (
        grad_normalized * inv_std[None, :, None]
        + grad_var[None, :, None] * 2.0 * centered / count
        + grad_mean[None, :, None] / count
    )
    return grad_input, grad_gamma, grad_beta


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout: kept entries are pre-scaled by 1/(1-rate)."""
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(grad_output: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Backward pass reusing the exact mask drawn in the forward pass."""
    return grad_output * mask


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean categorical cross-entropy with the fused softmax gradient.

    Returns ``(loss, probabilities, grad_logits)`` where the gradient is
    already averaged over the batch.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)
    batch = logits.shape[0]
    loss = float(-log_probs[np.arange(batch), labels].mean())
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), labels] = 1.0
    grad_logits = (probs - one_hot) / batch
    return loss, probs, grad_logits


# ---------------------------------------------------------------------------
# Whole-network forward / backward
# ---------------------------------------------------------------------------


def _check_batch(net: Network, batch) -> np.ndarray:
    array = np.asarray(batch, dtype=float)
    expected = (net.config.input_channels, net.config.input_length)
    if array.ndim != 3 or array.shape[1:] != expected:
        raise ValueError(
            f"batch shape {array.shape} does not match (n, {expected[0]}, {expected[1]})"
        )
    if array.shape[0] == 0:
        raise ValueError("batch must contain at least one sample")
    if net.mode not in ("train", "eval"):
        raise ValueError(f"unknown network mode {net.mode!r}")
    return array


def _forward_mlp(net: Network, batch: np.ndarray):
    p = net.params
    flat = batch.reshape(batch.shape[0], -1)
    pre1 = flat @ p["dense1.W"] + p["dense1.b"]
    act1 = np.maximum(pre1, 0.0)
    pre2 = act1 @ p["dense2.W"] + p["dense2.b"]
    act2 = np.maximum(pre2, 0.0)
    logits = act2 @ p["dense3.W"] + p["dense3.b"]
    cache = {"flat": flat, "pre1": pre1, "act1": act1, "pre2": pre2, "act2": act2}
    return logits, cache


def _backward_mlp(net: Network, grad_logits: np.ndarray, cache) -> dict:
    p = net.params
    grads = {}
    grads["dense3.W"] = cache["act2"].T @ grad_logits
    grads["dense3.b"] = grad_logits.sum(axis=0)
    grad_act2 = grad_logits @ p["dense3.W"].T
    grad_pre2 = grad_act2 * (cache["pre2"] > 0.0)
    grads["dense2.W"] = cache["act1"].T @ grad_pre2
    grads["dense2.b"] = grad_pre2.sum(axis=0)
    grad_act1 = grad_pre2 @ p["dense2.W"].T
    grad_pre1 = grad_act1 * (cache["pre1"] > 0.0)
    grads["dense1.W"] = cache["flat"].T @ grad_pre1
    grads["dense1.b"] = grad_pre1.sum(axis=0)
    return grads


def _forward_fcn(
    net: Network,
    batch: np.ndarray,
    rng: np.random.Generator | None,
    update_stats: bool,
):
    p = net.params
    train_mode = net.mode == "train"
    use_dropout = train_mode and net.config.dropout_rate > 0.0
    if use_dropout and rng is None:
        rng = np.random.default_rng(net.config.seed)
    hidden = batch
    blocks = []
    for block in (1, 2, 3):
        hidden, conv_cache = conv1d_forward(
            hidden, p[f"conv{block}.W"], p[f"conv{block}.b"]
        )
        hidden, bn_cache, new_mean, new_var = batchnorm_forward(
            hidden,
            p[f"bn{block}.gamma"],
            p[f"bn{block}.beta"],
            net.running_stats[f"bn{block}.mean"],
            net.running_stats[f"bn{block}.var"],
            train_mode,
        )
        if train_mode and update_stats:
            net.running_stats[f"bn{block}.mean"] = new_mean
            net.running_stats[f"bn{block}.var"] = new_var
        relu_mask = hidden > 0.0
        hidden = hidden * relu_mask
        if use_dropout:
            hidden, drop_mask = dropout_forward(hidden, net.config.dropout_rate, rng)
        else:
            drop_mask = None
        blocks.append((conv_cache, bn_cache, relu_mask, drop_mask))
    pooled = hidden.mean(axis=2)
    logits = pooled @ p["head.W"] + p["head.b"]
    cache = {"blocks": blocks, "pooled": pooled, "length": hidden.shape[2]}
    return logits, cache


def _backward_fcn(net: Network, grad_logits: np.ndarray, cache) -> dict:
    p = net.params
    grads = {}
    grads["head.W"] = cache["pooled"].T @ grad_logits
    grads["head.b"] = grad_logits.sum(axis=0)
    grad_pooled = grad_logits @ p["head.W"].T
    length = cache["length"]
    grad_hidden = np.repeat(grad_pooled[:, :, None], length, axis=2) / length
    for block in (3, 2, 1):
        conv_cache, bn_cache, relu_mask, drop_mask = cache["blocks"][block - 1]
        if drop_mask is not None:
            grad_hidden = dropout_backward(grad_hidden, drop_mask)
        grad_hidden = grad_hidden * relu_mask
        grad_hidden, grad_gamma, grad_beta = batchnorm_backward(grad_hidden, bn_cache)
        grads[f"bn{block}.gamma"] = grad_gamma
        grads[f"bn{block}.beta"] = grad_beta
        grad_hidden, grad_weights, grad_bias = conv1d_backward(grad_hidden, conv_cache)
        grads[f"conv{block}.W"] = grad_weights
        grads[f"conv{block}.b"] = grad_bias
    return grads


def _forward_logits(net, batch, rng=None, update_stats=False):
    if net.config.arch == "mlp":
        return _forward_mlp(net, batch)
    return _forward_fcn(net, batch, rng, update_stats)


def forward(net: Network, batch, rng: np.random.Generator | None = None) -> np.ndarray:
    """Class probabilities for a batch of shape (n, channels, length).

    Respects ``net.mode``; running statistics are never modified here (they
    are refreshed only inside :func:`loss_and_gradients` during training).
    """
    array = _check_batch(net, batch)
    logits, _ = _forward_logits(net, array, rng=rng, update_stats=False)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _check_labels(labels, count: int, class_count: int) -> np.ndarray:
    array = np.asarray(labels)
    if array.shape != (count,):
        raise ValueError(f"labels shape {array.shape} does not match batch size {count}")
    if not np.issubdtype(array.dtype, np.integer):
        raise ValueError("labels must be integer class indices")
    if array.size and (array.min() < 0 or array.max() >= class_count):
        raise ValueError(f"labels must lie in [0, {class_count})")
    return array.astype(int)


def loss_and_gradients(
    net: Network, batch, labels, rng: np.random.Generator | None = None
):
    """Loss, parameter gradients and argmax-correct count for one batch.

    Returns ``(loss, grads, correct)``: the mean cross-entropy, the
    gradient of every parameter, and how many rows the forward pass
    classified correctly (ties pick the lower class, as in
    :func:`evaluate`).  In train mode, batch-norm uses batch statistics
    (updating the running averages) and dropout draws a fresh mask shared
    between the forward and backward passes; in eval mode both are
    deterministic.
    """
    array = _check_batch(net, batch)
    targets = _check_labels(labels, array.shape[0], net.config.class_count)
    logits, cache = _forward_logits(
        net, array, rng=rng, update_stats=net.mode == "train"
    )
    loss, probs, grad_logits = softmax_cross_entropy(logits, targets)
    if not np.isfinite(loss):
        raise NetworkError("non-finite loss")
    correct = int((probs.argmax(axis=1) == targets).sum())
    if net.config.arch == "mlp":
        grads = _backward_mlp(net, grad_logits, cache)
    else:
        grads = _backward_fcn(net, grad_logits, cache)
    return loss, grads, correct


def evaluate(net: Network, batch, labels) -> float:
    """Fraction of argmax-correct predictions (ties pick the lower class)."""
    array = _check_batch(net, batch)
    targets = _check_labels(labels, array.shape[0], net.config.class_count)
    previous_mode = net.mode
    net.mode = "eval"
    try:
        probs = forward(net, array)
    finally:
        net.mode = previous_mode
    predictions = probs.argmax(axis=1)
    return float((predictions == targets).mean())


def train(
    net: Network,
    batch,
    labels,
    config: TrainConfig,
    epoch_budget: int,
    frozen_params=(),
) -> list:
    """Mini-batch training for ``epoch_budget`` epochs.

    Each epoch shuffles the samples with a generator seeded once from
    ``config.seed``, walks batches of ``config.batch_size``, and records
    the sample-weighted mean loss and the running training accuracy: the
    fraction of samples each batch's train-mode forward pass classified
    correctly before its optimizer step.  A budget of 0 leaves the network
    untouched and returns an empty log.
    Parameters named in ``frozen_params`` keep their current values: each
    optimizer step, and its moment estimates, cover only the other tensors.
    The network is left in eval mode when training finishes.
    """
    budget = int(epoch_budget)
    if budget < 0:
        raise ValueError("epoch_budget must be non-negative")
    if budget == 0:
        return []
    array = _check_batch(net, batch)
    targets = _check_labels(labels, array.shape[0], net.config.class_count)
    count = array.shape[0]
    frozen = set(frozen_params)
    unknown = frozen - set(net.params)
    if unknown:
        raise ValueError(f"frozen_params name unknown parameters: {sorted(unknown)}")
    rng = np.random.default_rng(config.seed)
    trained = [name for name in net.params if name not in frozen]
    params = [net.params[name] for name in trained]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    log = []
    net.mode = "train"
    for epoch in range(1, budget + 1):
        order = rng.permutation(count)
        total_loss = 0.0
        total_correct = 0
        for start in range(0, count, config.batch_size):
            chosen = order[start : start + config.batch_size]
            try:
                loss, grads, correct = loss_and_gradients(
                    net, array[chosen], targets[chosen], rng
                )
            except NetworkError as exc:
                net.mode = "eval"
                raise NetworkError(f"training aborted at epoch {epoch}: {exc}") from exc
            step += 1
            adam_update(
                params, [grads[name] for name in trained], m, v, step,
                learning_rate=config.learning_rate, beta1=config.beta1,
                beta2=config.beta2, eps=config.adam_epsilon,
            )
            total_loss += loss * len(chosen)
            total_correct += correct
        log.append(
            {
                "epoch": epoch,
                "loss": total_loss / count,
                "train_accuracy": total_correct / count,
            }
        )
    net.mode = "eval"
    return log

