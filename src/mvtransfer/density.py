"""Density estimation over latent distance vectors.

Low-dimensional sets (up to three channels) get a Gaussian-kernel
density estimate with a diagonal bandwidth matrix; higher-dimensional
sets get the invertible coupling flow.  ``fit_density`` applies the
dimension rule (overridable) and returns the fitted ``KdeModel`` or
``FlowModel``.  Both expose seeded ``sample`` and the same batched
``log_density``: it takes an (n, d) array of points, checks it once and
evaluates it in blocks of ``LOG_DENSITY_BLOCK_ROWS`` rows, so its working
memory stays bounded however many points a grid holds.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mvtransfer.flow import (
    FlowConfig,
    FlowModel,
    as_data_array,
    as_data_stack,
    fit_flow,
    flow_from_json_dict,
    flow_inverse,
    flow_to_json_dict,
)

KDE_MAX_DIMENSION = 3
BANDWIDTH_FLOOR = 1e-6
# Rows per block of a log-density evaluation.  A flow block of this size
# takes about 22 MB with the default config (about 5.3 KB a row).  A kernel
# block holds a few (rows, support points) float arrays, so it also stops
# near LOG_DENSITY_BLOCK_CELLS cells: 524 rows for 2000 support points.
LOG_DENSITY_BLOCK_ROWS = 4096
LOG_DENSITY_BLOCK_CELLS = 1 << 20


class DensityError(ValueError):
    """Raised for invalid density-estimation inputs or parameters."""


def select_density_method(dimension: int, override: str | None = None) -> str:
    """Dimension rule: kernel estimate up to 3 dimensions, flow above."""
    if dimension < 1:
        raise DensityError(f"dimension must be positive, got {dimension}")
    if override is not None:
        if override not in ("kde", "flow"):
            raise DensityError(f"unknown density method override {override!r}")
        return override
    return "kde" if dimension <= KDE_MAX_DIMENSION else "flow"


@dataclass
class KdeModel:
    """Gaussian-kernel mixture over the support points.

    ``bandwidth_diag`` holds the diagonal entries of the bandwidth matrix
    (per-dimension variances of the kernel).
    """

    support_points: np.ndarray
    bandwidth_diag: np.ndarray

    def __post_init__(self):
        self.support_points = np.atleast_2d(np.asarray(self.support_points, dtype=np.float64))
        self.bandwidth_diag = np.asarray(self.bandwidth_diag, dtype=np.float64).ravel()
        if self.support_points.size == 0:
            raise DensityError("support_points must be non-empty")
        if not np.all(np.isfinite(self.support_points)):
            raise DensityError("support_points contain non-finite values")
        if self.bandwidth_diag.shape[0] != self.support_points.shape[1]:
            raise DensityError(
                f"bandwidth has {self.bandwidth_diag.shape[0]} entries for "
                f"{self.support_points.shape[1]} dimensions"
            )
        if not np.all(self.bandwidth_diag > 0):
            raise DensityError("bandwidth entries must be strictly positive")

    @property
    def dimension(self) -> int:
        return self.support_points.shape[1]

    def log_density(self, points) -> np.ndarray:
        return _blocked_log_density(self, points, _kde_log_density, self.support_points.shape[0])

    def sample(self, count: int, seed: int) -> np.ndarray:
        return sample_kde(self, count, seed)


# What ``fit_density`` returns and a density file holds: either estimator.
DensityModel = KdeModel | FlowModel


def _blocked_log_density(model: DensityModel, points, evaluate, cells_per_row: int = 1):
    """The log-density at each row of an (n, d) array of points, as an
    (n,) array.  ``points`` is checked once, then ``evaluate(model, block)``
    runs on blocks of ``LOG_DENSITY_BLOCK_ROWS`` rows, fewer where rows x
    ``cells_per_row`` (a kernel model's support size) would pass
    ``LOG_DENSITY_BLOCK_CELLS``.  Both models' ``log_density`` call it."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dimension:
        raise DensityError(f"points must be an (n, {model.dimension}) array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DensityError("points contain non-finite values")
    rows = min(LOG_DENSITY_BLOCK_ROWS, max(1, LOG_DENSITY_BLOCK_CELLS // cells_per_row))
    values = np.empty(x.shape[0])
    for start in range(0, x.shape[0], rows):
        values[start:start + rows] = evaluate(model, x[start:start + rows])
    return values


def fit_kde(latent) -> KdeModel:
    """Fit the kernel model with Silverman's per-dimension bandwidth.

    A zero-variance dimension falls back to a fixed floor bandwidth with a
    warning instead of failing.
    """
    data = as_data_array(latent)
    n, d = data.shape
    if n < 2:
        raise DensityError(f"need at least 2 support points, got {n}")
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    widths = factor * data.std(axis=0, ddof=1)
    low = widths < BANDWIDTH_FLOOR
    if np.any(low):
        warnings.warn(
            f"bandwidth floored to {BANDWIDTH_FLOOR} in zero-variance dimension(s) "
            f"{np.nonzero(low)[0].tolist()}",
            stacklevel=2,
        )
        widths = np.where(low, BANDWIDTH_FLOOR, widths)
    return KdeModel(support_points=data, bandwidth_diag=widths ** 2)


def _kde_log_density(model: KdeModel, points: np.ndarray) -> np.ndarray:
    """Log of the kernel mixture at each row of ``points``, by log-sum-exp
    over the (rows, support) exponents."""
    support, widths = model.support_points, model.bandwidth_diag
    exponents = np.zeros((points.shape[0], support.shape[0]))
    for k in range(model.dimension):
        exponents += (points[:, k, None] - support[:, k]) ** 2 / widths[k]
    exponents *= -0.5
    peak = exponents.max(axis=1)
    exponents -= peak[:, None]
    lse = peak + np.log(np.exp(exponents).sum(axis=1))
    n, d = support.shape
    norm = -np.log(n) - 0.5 * d * np.log(2.0 * np.pi) - 0.5 * np.log(widths).sum()
    return norm + lse


def sample_kde(model: KdeModel, count: int, seed: int) -> np.ndarray:
    """Mixture sampling: uniform support point plus kernel-shaped noise."""
    if count < 1:
        raise DensityError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    n, d = model.support_points.shape
    picks = rng.integers(0, n, size=count)
    noise = rng.standard_normal((count, d)) * np.sqrt(model.bandwidth_diag)
    return model.support_points[picks] + noise


def fit_density(
    latent,
    override: str | None = None,
    flow_config: FlowConfig | None = None,
) -> DensityModel | list[DensityModel]:
    """Pick the method for the latent set's dimension and fit it.

    ``latent`` is one (n, K) set, which gives one model, or a (V, n, K)
    stack of sets, which gives a list of V models: one ``KdeModel`` per
    set, or the ``FlowModel``s of one stacked ``fit_flow``.
    """
    data, stacked = as_data_stack(latent)
    if select_density_method(data.shape[-1], override) == "kde":
        models = [fit_kde(s) for s in data]
    else:
        models = fit_flow(data, flow_config or FlowConfig())
    return models if stacked else models[0]


def density_model_to_json_dict(model: DensityModel) -> dict:
    if isinstance(model, KdeModel):
        variant = "kde"
        payload = {
            "support_points": model.support_points.tolist(),
            "bandwidth_diag": model.bandwidth_diag.tolist(),
        }
    else:
        variant, payload = "flow", flow_to_json_dict(model)
    return {"variant": variant, "dimension": model.dimension, variant: payload}


def density_model_from_json_dict(payload: dict) -> DensityModel:
    """The model ``density_model_to_json_dict`` wrote.  Every key, shape
    and value is checked here, the declared ``dimension`` against the
    model's too, so a malformed payload raises ``DensityError`` naming the
    key instead of failing when evaluated."""
    if not isinstance(payload, dict):
        raise DensityError("a serialized model must be a JSON object")
    variant = payload.get("variant")
    if variant not in ("kde", "flow"):
        raise DensityError(f"unknown variant {variant!r} in serialized model")
    for key in ("dimension", variant):
        if key not in payload:
            raise DensityError(f"no {key!r} in the serialized {variant} model")
    dimension, body = payload["dimension"], payload[variant]
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise DensityError(f"'dimension' must be an integer, got {dimension!r}")
    if not isinstance(body, dict):
        raise DensityError(f"{variant!r} must be a JSON object")
    if variant == "kde":
        arrays = {}
        for key, ndim in (("support_points", 2), ("bandwidth_diag", 1)):
            if key not in body:
                raise DensityError(f"no {key!r} in the serialized kde model")
            try:
                arrays[key] = np.array(body[key], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise DensityError(f"kde {key!r} is not a numeric array: {exc}") from exc
            if arrays[key].ndim != ndim:
                raise DensityError(
                    f"kde {key!r} must be a {ndim}-D array, got shape {arrays[key].shape}"
                )
            if not np.isfinite(arrays[key]).all():
                raise DensityError(f"kde {key!r} holds non-finite values")
        model = KdeModel(**arrays)
    else:
        try:
            model = flow_from_json_dict(body)
        except ValueError as exc:
            raise DensityError(f"serialized flow model: {exc}") from exc
    if model.dimension != dimension:
        raise DensityError(
            f"'dimension' is {dimension}, but the {variant} model has {model.dimension}"
        )
    return model


def save_density_model(model: DensityModel, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(density_model_to_json_dict(model), fh)
        fh.write("\n")


def load_density_model(path) -> DensityModel:
    path = Path(path)
    if not path.is_file():
        raise DensityError(f"no density model file at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DensityError(f"unparseable density model {path}: {exc}") from exc
    return density_model_from_json_dict(payload)


def evaluate_density_grid(
    model: DensityModel,
    mins,
    maxs,
    resolution: int,
    project_dims: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate exp(log-density) over a regular 1-D or 2-D grid.

    For models with more than two dimensions, ``project_dims`` selects the
    one or two coordinates to sweep; the remaining coordinates stay fixed
    at the model's central point (support mean or inverse image of the
    latent origin), making the result an axis-aligned slice.  Returns the
    full d-dimensional grid points and the density at each.
    """
    dims = list(project_dims) if project_dims is not None else list(range(model.dimension))
    if len(dims) not in (1, 2):
        raise DensityError(
            f"grids are 1-D or 2-D only; got {len(dims)} swept dimensions "
            f"(model dimension {model.dimension} needs a projection)"
        )
    if len(set(dims)) != len(dims):
        raise DensityError(f"repeated projection dimensions {dims}")
    for k in dims:
        if not 0 <= k < model.dimension:
            raise DensityError(f"projection dimension {k} out of range")
    mins = np.asarray(mins, dtype=np.float64).ravel()
    maxs = np.asarray(maxs, dtype=np.float64).ravel()
    if mins.shape[0] != len(dims) or maxs.shape[0] != len(dims):
        raise DensityError(
            f"need {len(dims)} min/max bounds, got {mins.shape[0]}/{maxs.shape[0]}"
        )
    if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
        raise DensityError(f"grid bounds must be finite: mins {mins}, maxs {maxs}")
    if np.any(mins >= maxs):
        raise DensityError(f"grid bounds reversed or empty: mins {mins}, maxs {maxs}")
    if resolution < 2:
        raise DensityError(f"resolution must be at least 2, got {resolution}")

    if isinstance(model, KdeModel):
        center = model.support_points.mean(axis=0)
    else:
        center = flow_inverse(model, np.zeros((1, model.dimension)))[0]
    axes = [np.linspace(mins[i], maxs[i], resolution) for i in range(len(dims))]
    if len(dims) == 1:
        grid = axes[0][:, None]
    else:
        a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
        grid = np.column_stack([a.ravel(), b.ravel()])
    points = np.tile(center, (grid.shape[0], 1))
    for col, k in enumerate(dims):
        points[:, k] = grid[:, col]
    densities = np.exp(model.log_density(points))
    return points, densities
