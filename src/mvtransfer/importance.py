"""Importance sampling, matrix-norm scoring, and epoch allocation.

Given a fitted density model over inter-view distance vectors, this module
draws a batch of latent samples, folds the batch into a matrix, reduces the
matrix to a scalar score through a matrix norm, and converts per-source-view
scores into an integer pretraining-epoch schedule.

Scoring runs in three phases over all requested source views: build every
view's latent set, fit the densities once (one stacked flow for all views,
or one kernel estimate per view), then draw and take the norm per view.
Scoring one view is the same routine with one view.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import write_json
from .density import DensityModel, fit_density, save_density_model
from .distance import build_latent_set
from .flow import FlowTrainingError

NORM_KINDS = ("frobenius", "spectral", "entrywise_l1")
SAMPLING_MODES = ("vectors", "density_weights")


@dataclass(frozen=True)
class SamplingConfig:
    """Controls how latent batches are drawn and reduced to a score.

    ``sampling_mode`` selects what the batch matrix holds: ``vectors`` keeps
    the sampled latent vectors as rows (the default), while
    ``density_weights`` replaces each sampled vector with the model density
    evaluated at it, yielding a single-column matrix of weights.
    """

    batch_size: int = 1024
    norm_kind: str = "frobenius"
    invert_importance: bool = False
    sampling_mode: str = "vectors"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"sampling_mode must be one of {SAMPLING_MODES}, got {self.sampling_mode!r}"
            )


def draw_importance_matrix(model: DensityModel, config: SamplingConfig, seed: int) -> np.ndarray:
    """Draw a batch of latent samples with ``seed`` as a (batch_size, K) matrix.

    In ``density_weights`` mode the result is instead the (batch_size, 1)
    column of density values at the sampled points.
    """
    samples = model.sample(config.batch_size, seed)
    if config.sampling_mode == "density_weights":
        matrix = np.exp(model.log_density(samples))[:, None]
    else:
        matrix = samples
    if not np.all(np.isfinite(matrix)):
        raise ValueError("sampled importance matrix contains non-finite entries")
    return matrix


def matrix_norm(matrix, kind: str = "frobenius") -> float:
    """Reduce a matrix to a non-negative scalar.

    ``frobenius`` is the square root of the sum of squared entries,
    ``entrywise_l1`` the sum of absolute entries, and ``spectral`` the
    largest singular value, the square root of the top eigenvalue of the
    K-by-K Gram matrix.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")
    if kind == "frobenius":
        return float(np.sqrt(np.sum(values * values)))
    if kind == "entrywise_l1":
        return float(np.sum(np.abs(values)))
    if kind == "spectral":
        top = np.linalg.eigvalsh(values.T @ values)[-1]
        return float(np.sqrt(max(top, 0.0)))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def allocate_epochs(scores, total_epochs: int) -> list[int]:
    """Split ``total_epochs`` across views proportionally to ``scores``.

    Real-valued proportional shares are rounded to integers with the
    largest-remainder method: every view first receives the floor of its
    share, then the leftover epochs go one each to the views with the
    largest fractional parts, ties favouring the higher score, then the
    lower index.  The result always sums to ``total_epochs`` exactly, and
    a strictly higher score never receives fewer epochs, even where
    rounding gives two different scores the same share.

    All-zero scores carry no preference, so the budget is spread uniformly
    and a warning is emitted.
    """
    values = np.asarray(scores, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")
    if np.any(values < 0):
        raise ValueError("scores must be non-negative")
    if isinstance(total_epochs, bool) or not isinstance(total_epochs, (int, np.integer)):
        raise ValueError("total_epochs must be an integer")
    if total_epochs < 1:
        raise ValueError("total_epochs must be at least 1")

    total_score = float(values.sum())
    if total_score == 0.0:
        warnings.warn("all scores are zero; allocating epochs uniformly", UserWarning)
        values = np.ones_like(values)
        total_score = float(values.size)

    shares = values / total_score * total_epochs
    floors = np.floor(shares).astype(int)
    leftover = int(total_epochs - floors.sum())
    remainders = shares - floors
    order = sorted(range(values.size), key=lambda i: (-remainders[i], -values[i], i))
    epochs = floors.copy()
    for index in order[:leftover]:
        epochs[index] += 1
    return [int(count) for count in epochs]


@dataclass(frozen=True)
class TransferSchedule:
    """Per-source-view scores and the integer epoch split they induce.

    The field order is the order of the keys in scores.json and in
    report.json's ``schedule``.
    """

    target_view: int
    scores: tuple
    epochs: tuple
    total_epochs: int

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        object.__setattr__(self, "epochs", tuple(int(e) for e in self.epochs))
        if len(self.scores) != len(self.epochs):
            raise ValueError("scores and epochs must have matching lengths")
        if len(self.scores) == 0:
            raise ValueError("schedule must cover at least one source view")
        if not all(np.isfinite(s) for s in self.scores):
            raise ValueError("scores must be finite")
        if any(s < 0 for s in self.scores):
            raise ValueError("scores must be non-negative")
        if any(e < 0 for e in self.epochs):
            raise ValueError("epochs must be non-negative")
        if self.total_epochs < 0:
            raise ValueError("total_epochs must be non-negative")
        if sum(self.epochs) != self.total_epochs:
            raise ValueError("epochs must sum to total_epochs exactly")
        if self.target_view < 0:
            raise ValueError("target_view must be non-negative")


def write_schedule_json(
    path, schedule: TransferSchedule, measure: str, norm_kind: str, seeds: dict
) -> None:
    """Write the schedule as scores.json: its fields, with the measure and
    norm after ``target_view`` and the scoring seeds last."""
    body = asdict(schedule)
    head = {"target_view": body.pop("target_view"), "measure": measure, "norm": norm_kind}
    write_json(path, {**head, **body, "seeds": dict(seeds)})


def score_source_view(
    dataset,
    source_view: int,
    target_view: int,
    measure: str,
    measure_params=None,
    density_override: str | None = None,
    sampling: SamplingConfig | None = None,
    *,
    seed: int = 0,
    flow_config=None,
    artifact_dir=None,
) -> float:
    """Score one source view against the target view.

    Composes the full scoring chain: build the latent set of channel-wise
    distance vectors, fit a density model over it, draw an importance batch
    with ``seed``, and reduce it to a scalar through the configured matrix
    norm.  With ``invert_importance`` the distance-flavoured score ``g`` is
    converted to the affinity ``1 / (1 + g)`` so that more similar views
    score higher.  When ``artifact_dir`` is given, the intermediate latent
    set and density model are persisted there as JSON.  This is
    :func:`score_source_views` on one view.
    """
    (score,) = score_source_views(
        dataset,
        [source_view],
        target_view,
        measure,
        measure_params,
        density_override,
        sampling,
        seed=seed,
        flow_config=flow_config,
        artifact_dir=artifact_dir,
    )
    return score


def score_source_views(
    dataset,
    source_views,
    target_view: int,
    measure: str,
    measure_params=None,
    density_override: str | None = None,
    sampling: SamplingConfig | None = None,
    *,
    seed: int = 0,
    flow_config=None,
    artifact_dir=None,
) -> list[float]:
    """Score each of ``source_views`` against the target view, in order.

    Each score equals :func:`score_source_view` on that view alone.  The
    work runs in three phases: every view's latent set, then one density
    fit over all of them (a single stacked flow, or a kernel estimate per
    view), then each view's draw and norm.  A flow that diverges fails the
    whole scoring with a ``FlowTrainingError`` naming the source view.
    """
    config = sampling if sampling is not None else SamplingConfig()
    latents = [
        build_latent_set(dataset, source, target_view, measure, measure_params)
        for source in source_views
    ]
    try:
        models = fit_density(
            np.stack([latent.vectors for latent in latents]),
            override=density_override,
            flow_config=flow_config,
        )
    except FlowTrainingError as exc:
        source = source_views[exc.view]
        raise FlowTrainingError(
            f"non-finite loss at iteration {exc.iteration} in the flow of source view {source}",
            exc.iteration,
            source,
        ) from exc
    scores = []
    for source, latent, model in zip(source_views, latents, models):
        score = matrix_norm(draw_importance_matrix(model, config, seed), config.norm_kind)
        if config.invert_importance:
            score = 1.0 / (1.0 + score)
        if artifact_dir is not None:
            _persist_artifacts(artifact_dir, source, latent, model)
        scores.append(score)
    return scores


def _persist_artifacts(artifact_dir, source_view: int, latent, model: DensityModel) -> None:
    directory = Path(artifact_dir)
    directory.mkdir(parents=True, exist_ok=True)
    write_json(directory / f"latent_view{source_view}.json", latent.to_json_dict())
    save_density_model(model, directory / f"density_view{source_view}.json")
