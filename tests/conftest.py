"""Shared fixture builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from mvtransfer.dataset import MultiViewDataset


def make_random_dataset(
    rng: np.random.Generator,
    n_views: int = 2,
    n_samples: int = 6,
    channels: tuple[int, ...] | int = 2,
    length: int = 12,
    ragged: bool = False,
    n_classes: int = 2,
    with_groups: bool = False,
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
    groups = None
    if with_groups:
        groups = {sid: f"g{i % 4}" for i, sid in enumerate(sample_ids)}
    return MultiViewDataset(views=views, labels=labels, sample_ids=sample_ids, groups=groups)


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
