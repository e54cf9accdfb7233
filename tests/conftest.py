"""Shared fixture builders for the test suite."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from mvtransfer.dataset import _VIEW_HEADER, DatasetError, MultiViewDataset
from mvtransfer.flow import (
    DUPLICATE_DISTANCE_THRESHOLD,
    MIN_TRAINING_POINTS,
    SCALE_BOUND,
    FlowConfig,
    FlowModel,
    FlowTrainingError,
    _min_pairwise_distance,
    as_data_array,
    init_flow_model,
)
from mvtransfer.optim import adam_update


def make_random_dataset(
    rng: np.random.Generator,
    n_views: int = 2,
    n_samples: int = 6,
    channels: tuple[int, ...] | int = 2,
    length: int = 12,
    ragged: bool = False,
    n_classes: int = 2,
) -> MultiViewDataset:
    """Build a small random but valid dataset for structural tests."""
    if isinstance(channels, int):
        channels = (channels,) * n_views
    views = []
    for v in range(n_views):
        samples = []
        for _ in range(n_samples):
            m = length if not ragged else int(rng.integers(max(2, length - 4), length + 5))
            samples.append(rng.normal(size=(channels[v], m)))
        views.append(samples)
    sample_ids = [f"s{i:03d}" for i in range(n_samples)]
    labels = [f"c{i % n_classes}" for i in range(n_samples)]
    return MultiViewDataset(views=views, labels=labels, sample_ids=sample_ids)


def reference_dtw(x, y, band=None) -> float:
    """Row-by-row DTW on Python floats: the textbook recurrence the
    batched kernel must reproduce bit for bit.  Each cell adds its cost
    to the cheapest of its x-step, y-step and diagonal predecessors; with
    a band only cells with |i - j| <= band are reachable."""
    xs = [float(v) for v in np.asarray(x, dtype=np.float64).ravel()]
    ys = [float(v) for v in np.asarray(y, dtype=np.float64).ravel()]
    m = len(ys)
    prev = [math.inf] * m
    for i, xi in enumerate(xs):
        cur = [math.inf] * m
        lo = 0 if band is None else max(0, i - band)
        hi = m - 1 if band is None else min(m - 1, i + band)
        for j in range(lo, hi + 1):
            cost = abs(xi - ys[j])
            if i == 0 and j == 0:
                cur[j] = cost
                continue
            best = prev[j]  # step in x only
            if j > 0:
                if cur[j - 1] < best:
                    best = cur[j - 1]  # step in y only
                if prev[j - 1] < best:
                    best = prev[j - 1]  # diagonal step
            cur[j] = best + cost
        prev = cur
    return prev[m - 1]


# Symbolic Fourier words and the histogram distance, straight from the
# definitions: the oracle for the batched word-count kernel.


def naive_coefficients(series, params):
    """Per-window coefficient lists written straight from the definition:
    explicit per-window loops, trigonometric sums term by term."""
    x = [float(v) for v in series]
    w = params.window_length
    n_complex = params.word_length // 2
    first_freq = 1 if params.mean_normalize else 0
    out = []
    for start in range(len(x) - w + 1):
        window = x[start:start + w]
        if params.mean_normalize:
            total = 0.0
            for v in window:
                total += v
            mean = total / w
            window = [v - mean for v in window]
        values = []
        for freq in range(first_freq, first_freq + n_complex):
            re = 0.0
            im = 0.0
            for t in range(w):
                angle = (-2.0 * math.pi * freq * t) / w
                re += window[t] * math.cos(angle)
                im += window[t] * math.sin(angle)
            values.append(re)
            values.append(im)
        out.append(values)
    return out


def naive_bins(corpus, params):
    """Equi-depth breakpoints: each position's pooled window values sorted,
    then picked at the depth quantiles."""
    pool = []
    for series in corpus:
        pool.extend(naive_coefficients(series, params))
    n = len(pool)
    a = params.alphabet_size
    return [
        [sorted(row[p] for row in pool)[(j * n) // a] for j in range(1, a)]
        for p in range(params.word_length)
    ]


def naive_histogram(series, bins, params):
    """Reference transform: naive coefficients, breakpoint counting by
    comparison chain, duplicate-run collapsing."""
    words = []
    for values in naive_coefficients(series, params):
        word = ""
        for pos, value in enumerate(values):
            symbol = 0
            for b in bins[pos]:
                if value >= b:
                    symbol += 1
            word += chr(ord("a") + symbol)
        words.append(word)
    collapsed = []
    for word in words:
        if not collapsed or collapsed[-1] != word:
            collapsed.append(word)
    counts = {}
    for word in collapsed:
        counts[word] = counts.get(word, 0) + 1
    return counts


def naive_boss(counts_a, counts_b):
    """Two-loop reference for the symmetrized histogram distance."""
    d_ab = 0.0
    for word in counts_a:
        d_ab += (counts_a[word] - counts_b.get(word, 0)) ** 2
    d_ba = 0.0
    for word in counts_b:
        d_ba += (counts_b[word] - counts_a.get(word, 0)) ** 2
    return 0.5 * (d_ab + d_ba)


def reference_read_view_file(path: Path, sample_ids: list[str]) -> list[np.ndarray]:
    """One view file read row by row into a dict of dicts: the reader the
    columnar ``_read_view_file`` replaced, kept as its reference for
    arrays and for the message of every rejection."""
    if not path.is_file():
        raise DatasetError(f"missing view file: {path}")
    cells: dict[tuple[str, int], dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _VIEW_HEADER:
            raise DatasetError(f"{path}: bad header {header!r}, expected {_VIEW_HEADER!r}")
        known = set(sample_ids)
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DatasetError(f"{path} row {row_no}: expected 4 columns, got {len(row)}")
            sid, channel_s, t_s, value_s = row
            if sid not in known:
                raise DatasetError(f"{path} row {row_no}: unknown sample id {sid!r}")
            try:
                channel = int(channel_s)
                t = int(t_s)
                value = float(value_s)
            except ValueError as exc:
                raise DatasetError(f"{path} row {row_no}: {exc}") from exc
            if channel < 0 or t < 0:
                raise DatasetError(f"{path} row {row_no}: negative channel or t index")
            if not math.isfinite(value):
                raise DatasetError(f"{path} row {row_no}: non-finite value {value_s!r}")
            series = cells.setdefault((sid, channel), {})
            if t in series:
                raise DatasetError(f"{path} row {row_no}: duplicate (sample,channel,t) triple")
            series[t] = value

    present = {sid for sid, _ in cells}
    absent = [sid for sid in sample_ids if sid not in present]
    if absent:
        raise DatasetError(f"{path}: no data for samples {absent}")

    channel_sets = {}
    for sid, channel in cells:
        channel_sets.setdefault(sid, set()).add(channel)
    d_values = {frozenset(chs) for chs in channel_sets.values()}
    if len(d_values) != 1:
        raise DatasetError(f"{path}: inconsistent channel sets across samples")
    channels = sorted(next(iter(d_values)))
    if channels != list(range(len(channels))):
        raise DatasetError(f"{path}: channels must be 0..d-1, got {channels}")

    samples = []
    for sid in sample_ids:
        per_channel = []
        for channel in channels:
            series = cells[(sid, channel)]
            length = len(series)
            if sorted(series) != list(range(length)):
                raise DatasetError(
                    f"{path}: sample {sid!r} channel {channel} timestamps are not 0..{length - 1}"
                )
            per_channel.append([series[t] for t in range(length)])
        lengths = {len(ch) for ch in per_channel}
        if len(lengths) != 1:
            raise DatasetError(f"{path}: sample {sid!r} channels have unequal lengths {sorted(lengths)}")
        samples.append(np.array(per_channel, dtype=np.float64))
    return samples


def _reference_coupling(model: FlowModel, i: int, u: np.ndarray):
    """Layer ``i``'s bounded log-scale and shift for the masked input ``u``,
    plus the two hidden activations the backward pass reuses."""
    p = model.params
    h1 = np.tanh(u @ p[f"layer{i}.W1"] + p[f"layer{i}.b1"][..., None, :])
    h2 = np.tanh(h1 @ p[f"layer{i}.W2"] + p[f"layer{i}.b2"][..., None, :])
    out = h2 @ p[f"layer{i}.W3"] + p[f"layer{i}.b3"][..., None, :]
    d = model.dimension
    log_scale = SCALE_BOUND * np.tanh(out[..., :d] / SCALE_BOUND)
    return log_scale, out[..., d:], h1, h2


def _reference_layer_forward(model: FlowModel, i: int, x: np.ndarray):
    mask = model.masks[i]
    u = x * mask
    log_scale, shift, h1, h2 = _reference_coupling(model, i, u)
    grown = np.exp(log_scale)
    inv = 1.0 - mask
    y = u + inv * (x * grown + shift)
    log_det = (inv * log_scale).sum(axis=-1)
    cache = (u, h1, h2, log_scale, grown, x)
    return y, log_det, cache


def _reference_forward_batch(model: FlowModel, data: np.ndarray, want_cache: bool = False):
    x = (data - model.standardize_mean[..., None, :]) / model.standardize_scale[..., None, :]
    standardization_log_det = -np.log(model.standardize_scale).sum(axis=-1)
    log_det = np.full(x.shape[:-1], standardization_log_det[..., None])
    caches = []
    for i in range(model.config.layer_count):
        x, ld, cache = _reference_layer_forward(model, i, x)
        log_det += ld
        if want_cache:
            caches.append(cache)
    return (x, log_det, caches) if want_cache else (x, log_det)


def reference_inverse_batch(model: FlowModel, latent: np.ndarray) -> np.ndarray:
    """The layer-by-layer inverse pass with fresh arrays and (d,) masks."""
    x = np.asarray(latent, dtype=np.float64)
    for i in reversed(range(model.config.layer_count)):
        mask = model.masks[i]
        u = x * mask  # masked coordinates pass through unchanged
        log_scale, shift, _, _ = _reference_coupling(model, i, u)
        inv = 1.0 - mask
        x = u + inv * ((x - shift) * np.exp(-log_scale))
    return x * model.standardize_scale[..., None, :] + model.standardize_mean[..., None, :]


def reference_log_density_batch(model: FlowModel, data: np.ndarray) -> np.ndarray:
    """Per-point log-densities by the layer-by-layer forward pass with
    fresh arrays and (d,) masks that the in-place pass replaced."""
    latent, log_det = _reference_forward_batch(model, data)
    d = model.dimension
    base = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (latent ** 2).sum(axis=-1)
    return base + log_det


def reference_kde_log_density(model, point) -> float:
    """One point's kernel log-density by the one-point formula the batched
    ``_kde_log_density`` replaced: log-sum-exp over the support points on
    Python floats."""
    x = np.asarray(point, dtype=np.float64).ravel()
    diff = x - model.support_points
    exponents = -0.5 * (diff ** 2 / model.bandwidth_diag).sum(axis=1)
    peak = exponents.max()
    lse = peak + math.log(np.exp(exponents - peak).sum())
    n, d = model.support_points.shape
    norm = -math.log(n) - 0.5 * d * math.log(2.0 * math.pi) - 0.5 * float(
        np.log(model.bandwidth_diag).sum()
    )
    return norm + float(lse)


def reference_flow_loss_and_gradients(model: FlowModel, data: np.ndarray, grads=None):
    """The loss and gradient pass that ``flow_loss_and_gradients`` replaced,
    kept as its bit-equality reference: per-layer (d,) masks broadcast in
    every product, fresh arrays for every step and a concatenated output
    gradient.  Same returns and ``grads`` contract."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[-2]
    latent, log_det, caches = _reference_forward_batch(model, data, want_cache=True)
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


def reference_fit_flow(latent, config=None):
    """One latent set's flow fit, one view at a time: the training loop the
    stacked ``fit_flow`` replaced, kept as its bit-equality reference.  It
    runs the reference forward and loss passes above, so it checks the
    stacked fit against the old arithmetic end to end."""
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

    initial_ll = float(reference_log_density_batch(model, data).mean())
    model.initial_log_likelihood = initial_ll
    best_ll = initial_ll
    best = theta.copy()

    for iteration in range(1, config.training_iterations + 1):
        batch = data
        if perturb:
            batch = data + noise_rng.normal(0.0, config.perturbation, size=data.shape)
        loss, grads, batch_ll = reference_flow_loss_and_gradients(model, batch)
        if not np.isfinite(loss):
            raise FlowTrainingError(f"non-finite loss at iteration {iteration}", iteration, 0)
        if not perturb and batch_ll > best_ll:
            # batch == clean data, so batch_ll is the pre-update training
            # likelihood of the current parameters
            best_ll = batch_ll
            best[...] = theta
        np.concatenate([grads[k] for k in model.params], axis=None, out=grad)
        adam_update([theta], [grad], [m], [v], iteration, learning_rate=config.learning_rate)

    final_ll = float(reference_log_density_batch(model, data).mean())
    if final_ll < best_ll:
        theta[...] = best
        final_ll = float(reference_log_density_batch(model, data).mean())
    model.final_log_likelihood = final_ll
    return model


@st.composite
def flow_stacks(draw):
    """A stack of 1 to 3 equally-shaped latent sets and the config to fit
    them with.  Each set may duplicate its rows, which takes it down the
    perturbation path, so a stack can mix perturbing and clean views;
    learning rates up to 0.3 make some views end on the best-iterate
    restore."""
    views = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=8, max_value=40))
    d = draw(st.integers(min_value=2, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    stack = rng.normal(size=(views, n, d)) * rng.choice([0.01, 1.0, 50.0], size=(views, 1, d))
    for view in range(views):
        if draw(st.booleans()):
            stack[view, 1::2] = stack[view, 0:n - 1:2]
    config = FlowConfig(
        layer_count=draw(st.integers(min_value=2, max_value=4)),
        coupling_net_width=draw(st.integers(min_value=1, max_value=6)),
        training_iterations=draw(st.integers(min_value=1, max_value=30)),
        learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.3])),
        perturbation=draw(st.sampled_from([1e-6, 0.01])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    return stack, config
