"""Bundled synthetic three-view fixture with a known transfer structure.

The dataset is built so that its transfer behaviour is predictable: the
last view is the classification target (two classes distinguished by the
oscillation frequency of every channel), view 0 repeats the target with a
small amount of additive noise, and view 1 is pure independent noise that
carries no information about the target.  A scheduler that measures
inter-view similarity should therefore favour view 0 over view 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dataset import MultiViewDataset, emit_dataset

CORRELATED_VIEW = 0
DISTRACTOR_VIEW = 1
TARGET_VIEW = 2


def make_synthetic_dataset(
    n_samples: int = 30,
    channels: int = 2,
    length: int = 32,
    noise_scale: float = 0.1,
    seed: int = 0,
) -> MultiViewDataset:
    """Three aligned views of two-class oscillation samples.

    Class 0 samples oscillate at one cycle per series, class 1 at two; each
    channel gets its own random phase within half a turn.  View 0 is the
    target plus Gaussian noise of scale ``noise_scale``, view 1 is
    independent standard noise, and view 2 is the target itself.
    """
    if n_samples < 4:
        raise ValueError("n_samples must be at least 4")
    if channels < 1:
        raise ValueError("channels must be at least 1")
    if length < 4:
        raise ValueError("length must be at least 4")
    if noise_scale < 0.0:
        raise ValueError("noise_scale must be non-negative")
    rng = np.random.default_rng(seed)
    times = np.arange(length) / length
    target = np.empty((n_samples, channels, length))
    correlated = np.empty_like(target)
    distractor = np.empty_like(target)
    labels = []
    for index in range(n_samples):
        label = index % 2
        frequency = 1.0 if label == 0 else 2.0
        # Phases spread over half a turn: enough jitter that samples are
        # not mere copies, while keeping the classes learnable for models
        # that read the series at fixed time positions.
        phases = rng.uniform(0.0, np.pi, size=channels)
        clean = np.sin(2.0 * np.pi * frequency * times[None, :] + phases[:, None])
        target[index] = clean + 0.05 * rng.standard_normal((channels, length))
        correlated[index] = target[index] + noise_scale * rng.standard_normal((channels, length))
        distractor[index] = rng.standard_normal((channels, length))
        labels.append("slow" if label == 0 else "fast")
    sample_ids = [f"s{index:03d}" for index in range(n_samples)]
    return MultiViewDataset(
        views=[correlated, distractor, target],
        labels=labels,
        sample_ids=sample_ids,
    )


def main(argv=None) -> int:
    """Emit the synthetic dataset to a directory in the on-disk format."""
    parser = argparse.ArgumentParser(
        prog="mvtransfer-synthetic",
        description="Write the bundled synthetic three-view dataset to a directory.",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--samples", type=int, default=30)
    parser.add_argument("--channels", type=int, default=2)
    parser.add_argument("--length", type=int, default=32)
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        dataset = make_synthetic_dataset(
            n_samples=args.samples,
            channels=args.channels,
            length=args.length,
            noise_scale=args.noise,
            seed=args.seed,
        )
        emit_dataset(dataset, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
