"""Invertible affine-coupling density model with manual backpropagation.

The model maps data to a standard-normal latent space through a fixed
per-dimension standardization followed by a stack of coupling layers.
Each layer leaves a masked half of the coordinates unchanged and applies
an elementwise affine transform to the rest, with scale and shift
produced by a small two-hidden-layer perceptron reading the masked half.
Log-densities follow from the change-of-variables formula: the base
normal log-density at the latent point plus the sum of per-layer
log-determinants (the bounded scale outputs) plus the standardization
log-determinant.

Everything is plain numpy; gradients of the mean negative log-likelihood
with respect to every parameter tensor are derived by hand and verified
against finite differences in the test suite.

One routine serves one latent set and a stack of them.  A model fitted
on a stack of V equally-shaped (N, d) sets carries a leading view axis
on every parameter and on its standardization; the forward pass, the
loss and its gradients run as batched matrix products and reductions
over the trailing axes, so a single set is the unstacked case of the
same code.  ``fit_flow`` trains the whole stack as one model, one loss
and one Adam step per iteration, while each view keeps its own seeded
initialization, duplicate-point perturbation and noise stream,
best-iterate snapshot and likelihoods.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from mvtransfer.dataset import _from_json_value, from_json
from mvtransfer.optim import adam_update

SCALE_BOUND = 5.0
MIN_TRAINING_POINTS = 8
DUPLICATE_DISTANCE_THRESHOLD = 1e-8


class FlowTrainingError(RuntimeError):
    """Raised when training encounters a non-finite loss.

    ``iteration`` is the 1-based step whose loss was non-finite and
    ``view`` the diverged view: its position in the fitted stack, or the
    dataset index where scoring names the source view.
    """

    def __init__(self, message: str, iteration: int, view: int):
        super().__init__(message)
        self.iteration = iteration
        self.view = view


@dataclass(frozen=True)
class FlowConfig:
    """The flow's shape and training settings.

    ``training_iterations`` defaults to 100 full-batch Adam steps.  The
    importance norms (``spectral``, ``frobenius``) read only the sampled
    batch's second-moment matrix, so a score depends on the fitted
    density's second moments, which a short fit already matches; longer
    fits moved the epoch schedule by seed-dependent scatter, not toward a
    steadier value (the budget study is in CHANGES.md)."""

    layer_count: int = 6
    coupling_net_width: int = 32
    training_iterations: int = 100
    learning_rate: float = 1e-3
    perturbation: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.layer_count < 2:
            raise ValueError(f"layer_count must be >= 2, got {self.layer_count}")
        if self.coupling_net_width < 1:
            raise ValueError(f"coupling_net_width must be positive, got {self.coupling_net_width}")
        if self.training_iterations < 1:
            raise ValueError(
                f"training_iterations must be positive, got {self.training_iterations}"
            )
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.perturbation < 0:
            raise ValueError(f"perturbation must be >= 0, got {self.perturbation}")


@dataclass
class FlowModel:
    """A coupling flow.  A stacked model adds a leading view axis to every
    parameter, to the standardization arrays and to the likelihoods, and
    shares the masks and the config across its views."""

    dimension: int
    masks: np.ndarray  # (layer_count, dimension) of 0/1
    params: dict[str, np.ndarray]
    config: FlowConfig
    standardize_mean: np.ndarray
    standardize_scale: np.ndarray
    initial_log_likelihood: float | None = None
    final_log_likelihood: float | None = None

    def log_density(self, points) -> np.ndarray:
        # density imports this module, so its checked, blocked evaluation
        # (the one both density models share) is imported when called.
        from mvtransfer.density import _blocked_log_density

        return _blocked_log_density(self, points, _log_density_batch)

    def sample(self, count: int, seed: int) -> np.ndarray:
        return sample_flow(self, count, seed)


def as_data_array(latent) -> np.ndarray:
    """``latent`` as a finite (n, d) float array."""
    data = np.asarray(latent, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D data array, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    return data.astype(np.float64)


def as_data_stack(latent) -> tuple[np.ndarray, bool]:
    """One finite (n, d) set or a (V, n, d) stack of them as a (V, n, d)
    float array, and whether ``latent`` was a stack."""
    given = np.asarray(latent, dtype=np.float64)
    stacked = given.ndim == 3
    return np.stack([as_data_array(view) for view in (given if stacked else [given])]), stacked


_LAYER_TENSORS = ("W1", "b1", "W2", "b2", "W3", "b3")


def _parameter_keys(layer_count: int) -> list[str]:
    """Every parameter tensor's key, layer by layer."""
    return [f"layer{i}.{name}" for i in range(layer_count) for name in _LAYER_TENSORS]


def _parameter_shapes(d: int, config: FlowConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's key and unstacked shape, layer by layer."""
    width = config.coupling_net_width
    layer = ((d, width), (width,), (width, width), (width,), (width, 2 * d), (2 * d,))
    return dict(zip(_parameter_keys(config.layer_count), layer * config.layer_count))


def init_flow_model(latent, config: FlowConfig | None = None) -> FlowModel:
    """Build an untrained model: alternating masks, seeded hidden weights,
    zero output layers (so the whole flow starts as the identity map on
    standardized data).

    ``latent`` is one (n, d) set or a (V, n, d) stack; a stack gets a
    stacked model whose every view draws its weights from its own
    generator seeded with ``config.seed``.
    """
    config = config or FlowConfig()
    data, stacked = as_data_stack(latent)
    d = data.shape[-1]
    if d < 2:
        raise ValueError(f"coupling layers need dimension >= 2, got {d}")
    mean = data.mean(axis=-2)
    scale = data.std(axis=-2)
    scale = np.where(scale > 1e-8, scale, 1.0)

    masks = np.empty((config.layer_count, d))
    for i in range(config.layer_count):
        masks[i] = [(j + i) % 2 == 0 for j in range(d)]

    view_count = len(data)
    rngs = [np.random.default_rng(config.seed) for _ in range(view_count)]

    def normal(std, shape):
        return np.stack([rng.normal(0.0, std, size=shape) for rng in rngs])

    # The hidden weights are drawn with std 1/sqrt(fan-in), in key order.
    params = {
        key: normal(1.0 / np.sqrt(shape[0]), shape)
        if key.endswith(("W1", "W2"))
        else np.zeros((view_count, *shape))
        for key, shape in _parameter_shapes(d, config).items()
    }
    model = FlowModel(
        dimension=d,
        masks=masks,
        params=params,
        config=config,
        standardize_mean=mean,
        standardize_scale=scale,
    )
    return model if stacked else _view_model(model, 0)


def _view_model(model: FlowModel, view: int) -> FlowModel:
    """View ``view`` of a stacked model, its arrays views into the stack's."""

    def pick(likelihoods):
        return None if likelihoods is None else float(likelihoods[view])

    return replace(
        model,
        params={key: value[view] for key, value in model.params.items()},
        standardize_mean=model.standardize_mean[view],
        standardize_scale=model.standardize_scale[view],
        initial_log_likelihood=pick(model.initial_log_likelihood),
        final_log_likelihood=pick(model.final_log_likelihood),
    )


def _layer_tensors(tensors: dict, keys: list[str]) -> list[tuple[np.ndarray, ...]]:
    """Each layer's (W1, b1, W2, b2, W3, b3) from a dict keyed like the
    parameters, given ``_parameter_keys``."""
    values = operator.itemgetter(*keys)(tensors)
    step = len(_LAYER_TENSORS)
    return [values[i:i + step] for i in range(0, len(values), step)]


def _coupling(params, u, h1, h2, out, log_scale) -> None:
    """One layer's perceptron on the masked input ``u``.  Writes the two
    hidden activations into ``h1`` and ``h2``, the raw outputs (log-scale
    half, then shift half) into ``out`` and the bounded log-scale into
    ``log_scale``."""
    W1, b1, W2, b2, W3, b3 = params
    np.matmul(u, W1, h1)
    h1 += b1[..., None, :]
    np.tanh(h1, h1)
    np.matmul(h1, W2, h2)
    h2 += b2[..., None, :]
    np.tanh(h2, h2)
    np.matmul(h2, W3, out)
    out += b3[..., None, :]
    np.divide(out[..., : log_scale.shape[-1]], SCALE_BOUND, log_scale)
    np.tanh(log_scale, log_scale)
    log_scale *= SCALE_BOUND


def _standardization_log_det(model: FlowModel) -> np.ndarray:
    return -np.log(model.standardize_scale).sum(axis=-1)


def _forward_batch(model: FlowModel, data: np.ndarray):
    """Map a batch of points to their latent images.

    Returns the latent images, their total log-determinants and the
    pass's per-layer arrays, which the backward pass reuses: the masks
    and their complements broadcast to the batch's shape, the layer inputs
    (plus the output as a last entry), the masked inputs, both hidden
    activations (lists), the bounded log-scales and their exponentials.
    The masks are broadcast once per pass, so every elementwise step runs
    on equal shapes, and every step writes into arrays allocated once per
    pass.  Here and in the backward pass outputs are passed positionally or
    by augmented assignment: numpy's ``out=`` keyword adds about 0.2 µs to
    a call, and at the sizes the pipeline fits a pass is a few hundred
    small calls.
    """
    layer_count, d = model.config.layer_count, model.dimension
    width = model.config.coupling_net_width
    lead = data.shape[:-1]
    mask = np.empty((layer_count, *lead, d))
    mask[...] = model.masks.reshape((layer_count,) + (1,) * len(lead) + (d,))
    inv = np.subtract(1.0, mask)
    x = np.empty((layer_count + 1, *lead, d))
    np.subtract(data, model.standardize_mean[..., None, :], x[0])
    x[0] /= model.standardize_scale[..., None, :]
    u, log_scale, grown = (np.empty((layer_count, *lead, d)) for _ in range(3))
    # Per-layer hidden arrays rather than one block each: at the sizes the
    # pipeline fits, a (layer_count, ..., width) block is above glibc's
    # mmap threshold, and with such blocks the pass was no faster than the
    # layer-by-layer one it replaced.
    h1 = [np.empty((*lead, width)) for _ in range(layer_count)]
    h2 = [np.empty((*lead, width)) for _ in range(layer_count)]
    out, tmp = np.empty((*lead, 2 * d)), np.empty((*lead, d))
    layers = _layer_tensors(model.params, _parameter_keys(layer_count))
    for i, params in enumerate(layers):
        np.multiply(x[i], mask[i], u[i])
        _coupling(params, u[i], h1[i], h2[i], out, log_scale[i])
        np.exp(log_scale[i], grown[i])
        # y = u + inv * (x * grown + shift)
        np.multiply(x[i], grown[i], tmp)
        tmp += out[..., d:]
        tmp *= inv[i]
        np.add(u[i], tmp, x[i + 1])
    log_det = np.full(lead, _standardization_log_det(model)[..., None])
    for layer_log_det in (inv * log_scale).sum(axis=-1):
        log_det += layer_log_det
    return x[layer_count], log_det, (mask, inv, x, u, h1, h2, log_scale, grown)


def flow_inverse(model: FlowModel, latent) -> np.ndarray:
    """Exact algebraic inverse of the forward pass: the data points whose
    latent images are the rows of ``latent``."""
    x = np.asarray(latent, dtype=np.float64)
    d, width = model.dimension, model.config.coupling_net_width
    lead = x.shape[:-1]
    h1, h2 = np.empty((*lead, width)), np.empty((*lead, width))
    out, log_scale = np.empty((*lead, 2 * d)), np.empty((*lead, d))
    layers = _layer_tensors(model.params, _parameter_keys(model.config.layer_count))
    for i in reversed(range(len(layers))):
        mask = model.masks[i]
        u = x * mask  # masked coordinates pass through unchanged
        _coupling(layers[i], u, h1, h2, out, log_scale)
        x = u + (1.0 - mask) * ((x - out[..., d:]) * np.exp(-log_scale))
    return x * model.standardize_scale[..., None, :] + model.standardize_mean[..., None, :]


def _base_log_density(latent: np.ndarray) -> np.ndarray:
    """The standard-normal log-density at each latent point."""
    d = latent.shape[-1]
    return -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (latent ** 2).sum(axis=-1)


def _log_density_batch(model: FlowModel, data: np.ndarray) -> np.ndarray:
    latent, log_det, _ = _forward_batch(model, data)
    return _base_log_density(latent) + log_det


def sample_flow(model: FlowModel, count: int, seed: int) -> np.ndarray:
    """Draw standard-normal latents and pull them back through the inverse
    transformation.  Deterministic given the seed."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((count, model.dimension))
    return flow_inverse(model, latent)


def _tanh_slope(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 - h ** 2``, tanh's derivative at the output ``h``, into ``out``."""
    np.square(h, out)
    return np.subtract(1.0, out, out)


def flow_loss_and_gradients(model: FlowModel, data: np.ndarray, grads=None):
    """Mean negative log-likelihood and its gradient for every parameter.

    Returns (loss, gradients, mean_log_likelihood).  For a stacked model
    and a (V, n, d) batch the loss and likelihood are per-view (V,)
    arrays.  Each gradient is written into ``grads[name]`` when given, an
    array shaped like the parameter (the trainer passes views into its
    flat gradient buffer), and into a new array otherwise.  The backward
    pass walks the forward's per-layer arrays in reverse, on the same
    full-shape masks and into buffers allocated once per call; the
    d-wide factors that depend only on the forward are computed for all
    layers at once.  The bounded-scale outputs receive both the downstream
    path gradient and the direct log-determinant term.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[-2]
    latent, log_det, (mask, inv, x, u, h1, h2, log_scale, grown) = _forward_batch(model, data)
    mean_ll = (_base_log_density(latent) + log_det).mean(axis=-1)
    loss = -mean_ll

    layer_count, d = model.config.layer_count, model.dimension
    p = model.params
    if grads is None:
        grads = {key: np.empty_like(value) for key, value in p.items()}
    keys = _parameter_keys(layer_count)
    layers, layer_grads = _layer_tensors(p, keys), _layer_tensors(grads, keys)
    det = -1.0 / n * inv  # direct d(loss)/d(log_scale) per transformed element
    bound = 1.0 - (log_scale / SCALE_BOUND) ** 2  # d(log_scale)/d(raw output)
    through = mask + inv * grown  # d(y)/d(x) along the diagonal
    dx = latent / n  # d(loss)/d(latent): -(1/n) * d(logN)/dz = z/n
    d_out = np.empty((*latent.shape[:-1], 2 * d))
    d_raw, d_shift = d_out[..., :d], d_out[..., d:]
    d_scale, du = np.empty_like(dx), np.empty_like(dx)
    dh2, dh1, slope = (np.empty_like(h1[0]) for _ in range(3))
    for i in reversed(range(layer_count)):
        W1, _, W2, _, W3, _ = layers[i]
        g_W1, g_b1, g_W2, g_b2, g_W3, g_b3 = layer_grads[i]
        np.multiply(dx, inv[i], d_shift)
        # d_scale = d_shift * x_in * grown + det
        np.multiply(d_shift, x[i], d_scale)
        d_scale *= grown[i]
        d_scale += det[i]
        np.multiply(d_scale, bound[i], d_raw)
        np.matmul(h2[i].swapaxes(-1, -2), d_out, g_W3)
        np.add.reduce(d_out, -2, None, g_b3)
        np.matmul(d_out, W3.swapaxes(-1, -2), dh2)
        dh2 *= _tanh_slope(h2[i], slope)
        np.matmul(h1[i].swapaxes(-1, -2), dh2, g_W2)
        np.add.reduce(dh2, -2, None, g_b2)
        np.matmul(dh2, W2.swapaxes(-1, -2), dh1)
        dh1 *= _tanh_slope(h1[i], slope)
        np.matmul(u[i].swapaxes(-1, -2), dh1, g_W1)
        np.add.reduce(dh1, -2, None, g_b1)
        np.matmul(dh1, W1.swapaxes(-1, -2), du)
        # dx = dx * (mask + inv * grown) + du * mask
        dx *= through[i]
        du *= mask[i]
        dx += du
    return loss, grads, mean_ll


def _min_pairwise_distance(data: np.ndarray) -> float:
    n = data.shape[0]
    if n < 2:
        return np.inf
    sq = (data ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (data @ data.T)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(max(d2.min(), 0.0)))


def _tensor_views(buffer: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Consecutive slices of ``buffer``'s last axis, each reshaped to its
    tensor's shape behind ``buffer``'s leading axes; views, not copies."""
    lead = buffer.shape[:-1]
    views, start = {}, 0
    for key, shape in shapes.items():
        stop = start + math.prod(shape)
        views[key] = buffer[..., start:stop].reshape(lead + shape)
        start = stop
    return views


def fit_flow(latent, config: FlowConfig | None = None) -> FlowModel | list[FlowModel]:
    """Maximum-likelihood training by full-batch Adam, for
    ``config.training_iterations`` steps (100 by default: the scores read
    only the fitted density's second moments, see ``FlowConfig``).

    ``latent`` is one (n, d) set, which gives one ``FlowModel``, or a
    (V, n, d) stack of equally-shaped sets, which gives a list of V
    models trained together: each iteration runs one loss and gradient
    pass and one Adam step over the whole (V, P) parameter block, and
    each view's result equals fitting that set alone.  The models'
    parameters are views into the shared block.

    Near-duplicate training points (minimum pairwise distance below
    10^-8 after standardization) trigger fresh zero-mean Gaussian
    perturbation of that view's data each iteration, with standard
    deviation taken from the config and noise from the view's own
    generator.  A returned model's training-set mean log-likelihood is
    never below its untrained value: each view keeps its best iterate
    (including the initial one).  A non-finite loss in any view stops the
    whole fit with a ``FlowTrainingError`` naming the view and iteration.
    """
    config = config or FlowConfig()
    data, stacked = as_data_stack(latent)
    view_count, n, d = data.shape
    if n < MIN_TRAINING_POINTS:
        raise ValueError(f"need at least {MIN_TRAINING_POINTS} training points, got {n}")
    if d < 2:
        raise ValueError(f"coupling layers need dimension >= 2, got {d}")

    model = init_flow_model(data, config)
    standardized = (data - model.standardize_mean[:, None]) / model.standardize_scale[:, None]
    perturb = np.array(
        [
            config.perturbation > 0.0
            and _min_pairwise_distance(view) < DUPLICATE_DISTANCE_THRESHOLD
            for view in standardized
        ]
    )
    noise_rngs = [np.random.default_rng(config.seed + 1) for _ in range(view_count)]

    # Parameters become views into one (V, P) buffer: one Adam block, and
    # the gradient pass writes into the matching views of a second one.
    shapes = {key: value.shape[1:] for key, value in model.params.items()}
    theta = np.concatenate([p.reshape(view_count, -1) for p in model.params.values()], axis=1)
    model.params = _tensor_views(theta, shapes)
    grad = np.empty_like(theta)
    grads = _tensor_views(grad, shapes)
    m, v = np.zeros_like(theta), np.zeros_like(theta)

    initial_ll = _log_density_batch(model, data).mean(axis=-1)
    best_ll = initial_ll.copy()
    best = theta.copy()

    batch = data.copy()
    noisy, clean = np.flatnonzero(perturb).tolist(), ~perturb
    for iteration in range(1, config.training_iterations + 1):
        for view in noisy:
            noise = noise_rngs[view].normal(0.0, config.perturbation, size=(n, d))
            np.add(data[view], noise, out=batch[view])
        loss, _, batch_ll = flow_loss_and_gradients(model, batch, grads)
        if not np.isfinite(loss).all():
            view = int(np.flatnonzero(~np.isfinite(loss))[0])
            raise FlowTrainingError(
                f"non-finite loss at iteration {iteration} in view {view} of the stack",
                iteration,
                view,
            )
        # A clean view's batch is its data, so batch_ll is the pre-update
        # training likelihood of its current parameters.
        improved = clean & (batch_ll > best_ll)
        if improved.any():
            best_ll[improved] = batch_ll[improved]
            best[improved] = theta[improved]
        adam_update([theta], [grad], [m], [v], iteration, learning_rate=config.learning_rate)

    final_ll = _log_density_batch(model, data).mean(axis=-1)
    worse = final_ll < best_ll
    if worse.any():
        theta[worse] = best[worse]
        final_ll = np.where(worse, _log_density_batch(model, data).mean(axis=-1), final_ll)
    model.initial_log_likelihood, model.final_log_likelihood = initial_ll, final_ll
    models = [_view_model(model, view) for view in range(view_count)]
    return models if stacked else models[0]


def flow_to_json_dict(model: FlowModel) -> dict:
    return {
        "dimension": model.dimension,
        "masks": model.masks.astype(int).tolist(),
        "params": {k: v.tolist() for k, v in model.params.items()},
        "standardize_mean": model.standardize_mean.tolist(),
        "standardize_scale": model.standardize_scale.tolist(),
        "config": asdict(model.config),
        "initial_log_likelihood": model.initial_log_likelihood,
        "final_log_likelihood": model.final_log_likelihood,
    }


_JSON_KEYS = ("dimension", "masks", "params", "standardize_mean", "standardize_scale", "config")


def _json_array(payload: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """``payload[key]`` as a finite float array of ``shape``."""
    try:
        array = np.array(payload[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key!r} is not a numeric array: {exc}") from exc
    if array.shape != shape:
        raise ValueError(f"{key!r} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{key!r} holds non-finite values")
    return array


def flow_from_json_dict(payload: dict) -> FlowModel:
    """The model ``flow_to_json_dict`` wrote.  A missing key, a config
    ``FlowConfig`` rejects, a mask or tensor of the wrong shape, a mask
    entry other than 0 or 1, a non-finite value or a scale that is not
    positive raises ``ValueError`` naming the key.  Each likelihood must be
    ``null`` or a finite number."""
    missing = [key for key in _JSON_KEYS if key not in payload]
    if missing:
        raise ValueError(f"no {missing[0]!r} in the flow payload")
    config = from_json(FlowConfig, payload["config"], "config")
    d = payload["dimension"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"'dimension' must be an integer, got {d!r}")
    if d < 2:
        raise ValueError(f"'dimension' must be >= 2, got {d}")
    masks = _json_array(payload, "masks", (config.layer_count, d))
    if not ((masks == 0.0) | (masks == 1.0)).all():
        raise ValueError("'masks' entries must be 0 or 1")
    shapes = _parameter_shapes(d, config)
    given = payload["params"]
    if not isinstance(given, dict):
        raise ValueError("'params' must be an object of tensors")
    absent = [key for key in shapes if key not in given]
    if absent:
        raise ValueError(f"no {absent[0]!r} in 'params'")
    extra = [key for key in given if key not in shapes]
    if extra:
        raise ValueError(
            f"'params' holds {extra[0]!r}, a tensor no {config.layer_count}-layer flow has"
        )
    params = {key: _json_array(given, key, shapes[key]) for key in given}
    mean = _json_array(payload, "standardize_mean", (d,))
    scale = _json_array(payload, "standardize_scale", (d,))
    if not (scale > 0.0).all():
        raise ValueError("'standardize_scale' entries must be positive")
    likelihoods = {
        key: _from_json_value(float | None, payload.get(key), key)
        for key in ("initial_log_likelihood", "final_log_likelihood")
    }
    return FlowModel(
        dimension=d,
        masks=masks,
        params=params,
        config=config,
        standardize_mean=mean,
        standardize_scale=scale,
        **likelihoods,
    )
