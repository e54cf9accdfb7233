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
from dataclasses import asdict, dataclass, replace

import numpy as np

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
    layer_count: int = 6
    coupling_net_width: int = 32
    training_iterations: int = 2000
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

    width = config.coupling_net_width
    params: dict[str, np.ndarray] = {}
    for i in range(config.layer_count):
        params[f"layer{i}.W1"] = normal(1.0 / np.sqrt(d), (d, width))
        params[f"layer{i}.b1"] = np.zeros((view_count, width))
        params[f"layer{i}.W2"] = normal(1.0 / np.sqrt(width), (width, width))
        params[f"layer{i}.b2"] = np.zeros((view_count, width))
        params[f"layer{i}.W3"] = np.zeros((view_count, width, 2 * d))
        params[f"layer{i}.b3"] = np.zeros((view_count, 2 * d))
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


def _coupling(model: FlowModel, i: int, u: np.ndarray):
    """Layer ``i``'s bounded log-scale and shift for the masked input ``u``,
    plus the two hidden activations the backward pass reuses."""
    p = model.params
    h1 = np.tanh(u @ p[f"layer{i}.W1"] + p[f"layer{i}.b1"][..., None, :])
    h2 = np.tanh(h1 @ p[f"layer{i}.W2"] + p[f"layer{i}.b2"][..., None, :])
    out = h2 @ p[f"layer{i}.W3"] + p[f"layer{i}.b3"][..., None, :]
    d = model.dimension
    log_scale = SCALE_BOUND * np.tanh(out[..., :d] / SCALE_BOUND)
    return log_scale, out[..., d:], h1, h2


def _layer_forward(model: FlowModel, i: int, x: np.ndarray):
    mask = model.masks[i]
    u = x * mask
    log_scale, shift, h1, h2 = _coupling(model, i, u)
    grown = np.exp(log_scale)
    inv = 1.0 - mask
    y = u + inv * (x * grown + shift)
    log_det = (inv * log_scale).sum(axis=-1)
    cache = (u, h1, h2, log_scale, grown, x)
    return y, log_det, cache


def _layer_inverse(model: FlowModel, i: int, y: np.ndarray) -> np.ndarray:
    mask = model.masks[i]
    u = y * mask  # masked coordinates pass through unchanged
    log_scale, shift, _, _ = _coupling(model, i, u)
    inv = 1.0 - mask
    return u + inv * ((y - shift) * np.exp(-log_scale))


def _standardization_log_det(model: FlowModel) -> np.ndarray:
    return -np.log(model.standardize_scale).sum(axis=-1)


def _forward_batch(model: FlowModel, data: np.ndarray, want_cache: bool = False):
    x = (data - model.standardize_mean[..., None, :]) / model.standardize_scale[..., None, :]
    log_det = np.full(x.shape[:-1], _standardization_log_det(model)[..., None])
    caches = []
    for i in range(model.config.layer_count):
        x, ld, cache = _layer_forward(model, i, x)
        log_det += ld
        if want_cache:
            caches.append(cache)
    return (x, log_det, caches) if want_cache else (x, log_det)


def _inverse_batch(model: FlowModel, latent: np.ndarray) -> np.ndarray:
    x = np.asarray(latent, dtype=np.float64)
    for i in reversed(range(model.config.layer_count)):
        x = _layer_inverse(model, i, x)
    return x * model.standardize_scale[..., None, :] + model.standardize_mean[..., None, :]


def flow_forward(model: FlowModel, point) -> tuple[np.ndarray, float]:
    """Map one data point to its latent image; also return the total
    log-determinant of the transformation (standardization included)."""
    x = np.asarray(point, dtype=np.float64).reshape(1, -1)
    latent, log_det = _forward_batch(model, x)
    return latent[0], float(log_det[0])


def flow_inverse(model: FlowModel, latent) -> np.ndarray:
    """Exact algebraic inverse of flow_forward."""
    z = np.asarray(latent, dtype=np.float64).reshape(1, -1)
    return _inverse_batch(model, z)[0]


def _log_density_batch(model: FlowModel, data: np.ndarray) -> np.ndarray:
    latent, log_det = _forward_batch(model, data)
    d = model.dimension
    base = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (latent ** 2).sum(axis=-1)
    return base + log_det


def flow_log_density(model: FlowModel, point) -> float:
    x = np.asarray(point, dtype=np.float64).reshape(1, -1)
    return float(_log_density_batch(model, x)[0])


def sample_flow(model: FlowModel, count: int, seed: int) -> np.ndarray:
    """Draw standard-normal latents and pull them back through the inverse
    transformation.  Deterministic given the seed."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((count, model.dimension))
    return _inverse_batch(model, latent)


def flow_loss_and_gradients(model: FlowModel, data: np.ndarray, grads=None):
    """Mean negative log-likelihood and its gradient for every parameter.

    Returns (loss, gradients, mean_log_likelihood).  For a stacked model
    and a (V, n, d) batch the loss and likelihood are per-view (V,)
    arrays.  Each gradient is written into ``grads[name]`` when given, an
    array shaped like the parameter (the trainer passes views into its
    flat gradient buffer), and into a new array otherwise.  The backward
    pass mirrors the forward caches layer by layer; the bounded-scale
    outputs receive both the downstream path gradient and the direct
    log-determinant term.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[-2]
    latent, log_det, caches = _forward_batch(model, data, want_cache=True)
    d = model.dimension
    log_lik = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (latent ** 2).sum(axis=-1) + log_det
    mean_ll = log_lik.mean(axis=-1)
    loss = -mean_ll

    p = model.params
    if grads is None:
        grads = {key: np.empty_like(value) for key, value in p.items()}
    dx = latent / n  # d(loss)/d(latent): -(1/n) * d(logN)/dz = z/n
    det_term = -1.0 / n  # direct d(loss)/d(log_scale) per transformed element
    for i in reversed(range(model.config.layer_count)):
        u, h1, h2, log_scale, grown, x_in = caches[i]
        mask = model.masks[i]
        inv = 1.0 - mask
        d_shift = dx * inv
        d_scale = d_shift * x_in * grown + det_term * inv
        d_raw = d_scale * (1.0 - (log_scale / SCALE_BOUND) ** 2)
        d_out = np.concatenate([d_raw, d_shift], axis=-1)
        np.matmul(h2.swapaxes(-1, -2), d_out, out=grads[f"layer{i}.W3"])
        d_out.sum(axis=-2, out=grads[f"layer{i}.b3"])
        dh2 = d_out @ p[f"layer{i}.W3"].swapaxes(-1, -2)
        dz2 = dh2 * (1.0 - h2 ** 2)
        np.matmul(h1.swapaxes(-1, -2), dz2, out=grads[f"layer{i}.W2"])
        dz2.sum(axis=-2, out=grads[f"layer{i}.b2"])
        dh1 = dz2 @ p[f"layer{i}.W2"].swapaxes(-1, -2)
        dz1 = dh1 * (1.0 - h1 ** 2)
        np.matmul(u.swapaxes(-1, -2), dz1, out=grads[f"layer{i}.W1"])
        dz1.sum(axis=-2, out=grads[f"layer{i}.b1"])
        du = dz1 @ p[f"layer{i}.W1"].swapaxes(-1, -2)
        dx = dx * (mask + inv * grown) + du * mask
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
    """Maximum-likelihood training by full-batch Adam.

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


def flow_from_json_dict(payload: dict) -> FlowModel:
    config = FlowConfig(**payload["config"])
    return FlowModel(
        dimension=int(payload["dimension"]),
        masks=np.array(payload["masks"], dtype=np.float64),
        params={k: np.array(v, dtype=np.float64) for k, v in payload["params"].items()},
        config=config,
        standardize_mean=np.array(payload["standardize_mean"], dtype=np.float64),
        standardize_scale=np.array(payload["standardize_scale"], dtype=np.float64),
        initial_log_likelihood=payload.get("initial_log_likelihood"),
        final_log_likelihood=payload.get("final_log_likelihood"),
    )
