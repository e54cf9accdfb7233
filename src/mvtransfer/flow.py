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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from mvtransfer.optim import adam_update

SCALE_BOUND = 5.0
MIN_TRAINING_POINTS = 8
DUPLICATE_DISTANCE_THRESHOLD = 1e-8


class FlowTrainingError(RuntimeError):
    """Raised when training encounters a non-finite loss."""


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


def init_flow_model(latent, config: FlowConfig | None = None) -> FlowModel:
    """Build an untrained model: alternating masks, seeded hidden weights,
    zero output layers (so the whole flow starts as the identity map on
    standardized data)."""
    config = config or FlowConfig()
    data = as_data_array(latent)
    d = data.shape[1]
    if d < 2:
        raise ValueError(f"coupling layers need dimension >= 2, got {d}")
    mean = data.mean(axis=0)
    scale = data.std(axis=0)
    scale = np.where(scale > 1e-8, scale, 1.0)

    masks = np.empty((config.layer_count, d))
    for i in range(config.layer_count):
        masks[i] = [(j + i) % 2 == 0 for j in range(d)]

    rng = np.random.default_rng(config.seed)
    width = config.coupling_net_width
    params: dict[str, np.ndarray] = {}
    for i in range(config.layer_count):
        params[f"layer{i}.W1"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, width))
        params[f"layer{i}.b1"] = np.zeros(width)
        params[f"layer{i}.W2"] = rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, width))
        params[f"layer{i}.b2"] = np.zeros(width)
        params[f"layer{i}.W3"] = np.zeros((width, 2 * d))
        params[f"layer{i}.b3"] = np.zeros(2 * d)
    return FlowModel(
        dimension=d,
        masks=masks,
        params=params,
        config=config,
        standardize_mean=mean,
        standardize_scale=scale,
    )


def _coupling(model: FlowModel, i: int, u: np.ndarray):
    """Layer ``i``'s bounded log-scale and shift for the masked input ``u``,
    plus the two hidden activations the backward pass reuses."""
    p = model.params
    h1 = np.tanh(u @ p[f"layer{i}.W1"] + p[f"layer{i}.b1"])
    h2 = np.tanh(h1 @ p[f"layer{i}.W2"] + p[f"layer{i}.b2"])
    out = h2 @ p[f"layer{i}.W3"] + p[f"layer{i}.b3"]
    d = model.dimension
    log_scale = SCALE_BOUND * np.tanh(out[:, :d] / SCALE_BOUND)
    return log_scale, out[:, d:], h1, h2


def _layer_forward(model: FlowModel, i: int, x: np.ndarray):
    mask = model.masks[i]
    u = x * mask
    log_scale, shift, h1, h2 = _coupling(model, i, u)
    grown = np.exp(log_scale)
    inv = 1.0 - mask
    y = u + inv * (x * grown + shift)
    log_det = (inv * log_scale).sum(axis=1)
    cache = (u, h1, h2, log_scale, grown, x)
    return y, log_det, cache


def _layer_inverse(model: FlowModel, i: int, y: np.ndarray) -> np.ndarray:
    mask = model.masks[i]
    u = y * mask  # masked coordinates pass through unchanged
    log_scale, shift, _, _ = _coupling(model, i, u)
    inv = 1.0 - mask
    return u + inv * ((y - shift) * np.exp(-log_scale))


def _standardization_log_det(model: FlowModel) -> float:
    return float(-np.log(model.standardize_scale).sum())


def _forward_batch(model: FlowModel, data: np.ndarray, want_cache: bool = False):
    x = (data - model.standardize_mean) / model.standardize_scale
    log_det = np.full(x.shape[0], _standardization_log_det(model))
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
    return x * model.standardize_scale + model.standardize_mean


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
    base = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (latent ** 2).sum(axis=1)
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


def flow_loss_and_gradients(model: FlowModel, data: np.ndarray):
    """Mean negative log-likelihood and its gradient for every parameter.

    Returns (loss, gradients, mean_log_likelihood).  The backward pass
    mirrors the forward caches layer by layer; the bounded-scale outputs
    receive both the downstream path gradient and the direct
    log-determinant term.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    latent, log_det, caches = _forward_batch(model, data, want_cache=True)
    d = model.dimension
    log_lik = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (latent ** 2).sum(axis=1) + log_det
    mean_ll = float(log_lik.mean())
    loss = -mean_ll

    p = model.params
    grads: dict[str, np.ndarray] = {}
    dx = latent / n  # d(loss)/d(latent): -(1/n) * d(logN)/dz = z/n
    det_term = -1.0 / n  # direct d(loss)/d(log_scale) per transformed element
    for i in reversed(range(model.config.layer_count)):
        u, h1, h2, log_scale, grown, x_in = caches[i]
        mask = model.masks[i]
        inv = 1.0 - mask
        d_scale = dx * inv * x_in * grown + det_term * inv
        d_shift = dx * inv
        d_raw = d_scale * (1.0 - (log_scale / SCALE_BOUND) ** 2)
        d_out = np.concatenate([d_raw, d_shift], axis=1)
        grads[f"layer{i}.W3"] = h2.T @ d_out
        grads[f"layer{i}.b3"] = d_out.sum(axis=0)
        dh2 = d_out @ p[f"layer{i}.W3"].T
        dz2 = dh2 * (1.0 - h2 ** 2)
        grads[f"layer{i}.W2"] = h1.T @ dz2
        grads[f"layer{i}.b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p[f"layer{i}.W2"].T
        dz1 = dh1 * (1.0 - h1 ** 2)
        grads[f"layer{i}.W1"] = u.T @ dz1
        grads[f"layer{i}.b1"] = dz1.sum(axis=0)
        du = dz1 @ p[f"layer{i}.W1"].T
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


def fit_flow(latent, config: FlowConfig | None = None) -> FlowModel:
    """Maximum-likelihood training by full-batch Adam.

    Near-duplicate training points (minimum pairwise distance below
    10^-8 after standardization) trigger fresh zero-mean Gaussian
    perturbation of the data each iteration, with standard deviation
    taken from the config.  The returned model's training-set mean
    log-likelihood is never below its untrained value: the best iterate
    (including the initial one) is kept.
    """
    config = config or FlowConfig()
    data = as_data_array(latent)
    n, d = data.shape
    if n < MIN_TRAINING_POINTS:
        raise ValueError(f"need at least {MIN_TRAINING_POINTS} training points, got {n}")
    if d < 2:
        raise ValueError(f"coupling layers need dimension >= 2, got {d}")

    model = init_flow_model(data, config)
    standardized = (data - model.standardize_mean) / model.standardize_scale
    perturb = (
        config.perturbation > 0.0
        and _min_pairwise_distance(standardized) < DUPLICATE_DISTANCE_THRESHOLD
    )
    noise_rng = np.random.default_rng(config.seed + 1)

    # Parameters become views into one buffer: one Adam block, one-copy snapshots.
    theta = np.concatenate([p.ravel() for p in model.params.values()])
    pieces = np.split(theta, np.cumsum([p.size for p in model.params.values()])[:-1])
    model.params = {k: x.reshape(p.shape) for (k, p), x in zip(model.params.items(), pieces)}
    grad = np.empty_like(theta)
    m, v = np.zeros_like(theta), np.zeros_like(theta)

    initial_ll = float(_log_density_batch(model, data).mean())
    model.initial_log_likelihood = initial_ll
    best_ll = initial_ll
    best = theta.copy()

    for iteration in range(1, config.training_iterations + 1):
        batch = data
        if perturb:
            batch = data + noise_rng.normal(0.0, config.perturbation, size=data.shape)
        loss, grads, batch_ll = flow_loss_and_gradients(model, batch)
        if not np.isfinite(loss):
            raise FlowTrainingError(f"non-finite loss at iteration {iteration}")
        if not perturb and batch_ll > best_ll:
            # batch == clean data, so batch_ll is the pre-update training
            # likelihood of the current parameters
            best_ll = batch_ll
            best[...] = theta
        np.concatenate([grads[k] for k in model.params], axis=None, out=grad)
        adam_update([theta], [grad], [m], [v], iteration, learning_rate=config.learning_rate)

    final_ll = float(_log_density_batch(model, data).mean())
    if final_ll < best_ll:
        theta[...] = best
        final_ll = float(_log_density_batch(model, data).mean())
    model.final_log_likelihood = final_ll
    return model


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
