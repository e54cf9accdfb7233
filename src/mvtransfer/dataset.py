"""Loading, validation, alignment and splitting of multi-view time series data.

A dataset is a set of V views of the same N labelled samples.  Each view
holds one multivariate series per sample, stored as a float array of shape
``(channels, length)``.  Within a view the channel count is fixed; sample
lengths may differ until :func:`align_lengths` has been applied.

On disk a dataset is a directory with a ``manifest.json`` and one long-format
CSV per view (``sample_id,channel,t,value``).  :func:`load_dataset` and
:func:`emit_dataset` round-trip this format exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALIGNMENT_STRATEGIES = (
    "zero-pad-to-max",
    "last-value-pad-to-max",
    "truncate-to-min",
    "average-length",
)

_VIEW_HEADER = ["sample_id", "channel", "t", "value"]


class DatasetError(ValueError):
    """Raised for malformed manifests, view files or dataset invariant breaks."""


@dataclass
class MultiViewDataset:
    """V aligned views of N labelled multivariate time series samples.

    ``views[v][i]`` is sample ``i`` observed in view ``v`` as an array of
    shape ``(d_v, length)``.  Sample order is identical across views, and
    ``labels``/``sample_ids`` align with it by index.  ``groups`` optionally
    assigns each sample id to a group id (e.g. a subject) for group-based
    splitting.
    """

    views: list[list[np.ndarray]]
    labels: list[str]
    sample_ids: list[str]
    groups: dict[str, str] | None = None

    def __post_init__(self):
        self.validate()

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def classes(self) -> list[str]:
        return sorted(set(self.labels))

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def channel_count(self, view: int) -> int:
        return self.views[view][0].shape[0]

    def lengths(self, view: int) -> list[int]:
        return [sample.shape[1] for sample in self.views[view]]

    def is_aligned(self, view: int) -> bool:
        return len(set(self.lengths(view))) == 1

    def view_shape(self, view: int) -> tuple[int, int]:
        """(channels, length) of a view whose samples all share one length."""
        if not self.is_aligned(view):
            raise DatasetError(
                f"view {view} has unequal sample lengths {sorted(set(self.lengths(view)))}; "
                "align_lengths must run first"
            )
        return self.views[view][0].shape

    def take(self, indices: list[int]) -> MultiViewDataset:
        """The samples at ``indices``, in that order, as a new dataset."""
        ids = [self.sample_ids[i] for i in indices]
        groups = None
        if self.groups is not None:
            groups = {sid: self.groups[sid] for sid in ids}
        return MultiViewDataset(
            views=[[view[i].copy() for i in indices] for view in self.views],
            labels=[self.labels[i] for i in indices],
            sample_ids=ids,
            groups=groups,
        )

    def label_indices(self) -> np.ndarray:
        """Labels as integer class indices into the sorted class list."""
        index = {c: i for i, c in enumerate(self.classes)}
        return np.array([index[label] for label in self.labels], dtype=np.int64)

    def validate(self):
        if self.n_views < 2:
            raise DatasetError(f"need at least 2 views, got {self.n_views}")
        n = self.n_samples
        if len(self.labels) != n:
            raise DatasetError(f"{len(self.labels)} labels for {n} samples")
        if len(set(self.sample_ids)) != n:
            raise DatasetError("sample ids are not unique")
        if self.class_count < 2:
            raise DatasetError(f"need at least 2 classes, got {self.classes}")
        for v, samples in enumerate(self.views):
            if len(samples) != n:
                raise DatasetError(f"view {v} holds {len(samples)} samples, expected {n}")
            channels = {s.shape[0] for s in samples}
            if len(channels) != 1:
                raise DatasetError(f"view {v} mixes channel counts {sorted(channels)}")
            for i, sample in enumerate(samples):
                if sample.ndim != 2:
                    raise DatasetError(f"view {v} sample {self.sample_ids[i]} is not 2-D")
                if sample.shape[1] < 1:
                    raise DatasetError(f"view {v} sample {self.sample_ids[i]} is empty")
                if not np.all(np.isfinite(sample)):
                    raise DatasetError(
                        f"view {v} sample {self.sample_ids[i]} contains non-finite values"
                    )
        if self.groups is not None:
            missing = [sid for sid in self.sample_ids if sid not in self.groups]
            if missing:
                raise DatasetError(f"samples without group assignment: {missing}")


@dataclass
class SplitSpec:
    """How to partition samples into train and test.

    ``fraction`` mode shuffles samples with ``seed`` and takes a
    ``train_fraction`` prefix; ``by-group`` mode puts every sample whose
    group is in ``train_groups`` into train and the rest into test.  The
    group map comes from ``group_assignment`` if given, else from the
    dataset's own ``groups``.
    """

    mode: str = "fraction"
    train_fraction: float = 0.7
    train_groups: set[str] = field(default_factory=set)
    group_assignment: dict[str, str] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("fraction", "by-group"):
            raise DatasetError(f"unknown split mode {self.mode!r}")
        if self.mode == "fraction" and not 0.0 < self.train_fraction < 1.0:
            raise DatasetError(f"train_fraction must lie in (0,1), got {self.train_fraction}")
        if self.seed < 0:
            raise DatasetError(f"seed must be non-negative, got {self.seed}")


def load_dataset(root_path: str | Path) -> MultiViewDataset:
    """Read a dataset directory and return a fully validated dataset.

    Sample order is manifest order.  Every malformed input is rejected with
    the offending file (and row, where applicable) named.
    """
    root = Path(root_path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetError(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"unparseable manifest {manifest_path}: {exc}") from exc

    for key in ("views", "samples", "labels", "view_files"):
        if key not in manifest:
            raise DatasetError(f"{manifest_path}: missing key {key!r}")
    n_views = manifest["views"]
    sample_ids = list(manifest["samples"])
    labels_map = manifest["labels"]
    view_files = list(manifest["view_files"])
    if len(view_files) != n_views:
        raise DatasetError(
            f"{manifest_path}: 'views' says {n_views} but {len(view_files)} view_files listed"
        )
    unknown = sorted(set(labels_map) - set(sample_ids))
    if unknown:
        raise DatasetError(f"{manifest_path}: labels for unknown sample ids {unknown}")
    missing = [sid for sid in sample_ids if sid not in labels_map]
    if missing:
        raise DatasetError(f"{manifest_path}: samples without labels {missing}")
    labels = [str(labels_map[sid]) for sid in sample_ids]

    groups = None
    if "groups" in manifest:
        groups = {str(k): str(v) for k, v in manifest["groups"].items()}
        unknown = sorted(set(groups) - set(sample_ids))
        if unknown:
            raise DatasetError(f"{manifest_path}: groups for unknown sample ids {unknown}")

    views = []
    for rel in view_files:
        views.append(_read_view_file(root / rel, sample_ids))
    return MultiViewDataset(views=views, labels=labels, sample_ids=sample_ids, groups=groups)


def _read_view_file(path: Path, sample_ids: list[str]) -> list[np.ndarray]:
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


def emit_dataset(dataset: MultiViewDataset, root_path: str | Path):
    """Write ``dataset`` in the on-disk directory format (UTF-8, LF endings).

    Floats are written with ``repr`` so a reload reproduces every bit.
    """
    root = Path(root_path)
    root.mkdir(parents=True, exist_ok=True)
    view_files = [f"view_{v}.csv" for v in range(dataset.n_views)]
    manifest = {
        "views": dataset.n_views,
        "samples": list(dataset.sample_ids),
        "labels": dict(zip(dataset.sample_ids, dataset.labels)),
        "view_files": view_files,
    }
    if dataset.groups is not None:
        manifest["groups"] = dict(dataset.groups)
    with open(root / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    for v, rel in enumerate(view_files):
        with open(root / rel, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_VIEW_HEADER)
            for sid, sample in zip(dataset.sample_ids, dataset.views[v]):
                for channel in range(sample.shape[0]):
                    for t in range(sample.shape[1]):
                        writer.writerow([sid, channel, t, repr(float(sample[channel, t]))])


def align_lengths(dataset: MultiViewDataset, strategy: str) -> MultiViewDataset:
    """Return a copy in which all samples of each view share one length.

    ``zero-pad-to-max`` and ``last-value-pad-to-max`` extend to the view
    maximum, ``truncate-to-min`` cuts to the view minimum, and
    ``average-length`` pads or truncates to the per-view mean length rounded
    half up (shorter series are zero-padded).  Values outside the edited
    tail are untouched.
    """
    if strategy not in ALIGNMENT_STRATEGIES:
        raise DatasetError(f"unknown alignment strategy {strategy!r}")
    new_views = []
    for v in range(dataset.n_views):
        lengths = dataset.lengths(v)
        if strategy == "zero-pad-to-max":
            target, mode = max(lengths), "zero"
        elif strategy == "last-value-pad-to-max":
            target, mode = max(lengths), "edge"
        elif strategy == "truncate-to-min":
            target, mode = min(lengths), "zero"
            if target == 0:
                raise DatasetError(f"view {v}: cannot truncate to minimum length 0")
        else:
            target, mode = int(math.floor(sum(lengths) / len(lengths) + 0.5)), "zero"
        new_views.append([_resize_sample(s, target, mode) for s in dataset.views[v]])
    return MultiViewDataset(
        views=new_views,
        labels=list(dataset.labels),
        sample_ids=list(dataset.sample_ids),
        groups=dict(dataset.groups) if dataset.groups is not None else None,
    )


def _resize_sample(sample: np.ndarray, target: int, pad_mode: str) -> np.ndarray:
    length = sample.shape[1]
    if length == target:
        return sample.copy()
    if length > target:
        return sample[:, :target].copy()
    pad = target - length
    if pad_mode == "edge":
        return np.pad(sample, ((0, 0), (0, pad)), mode="edge")
    return np.pad(sample, ((0, 0), (0, pad)), mode="constant")


def split_dataset(dataset: MultiViewDataset, spec: SplitSpec) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Partition samples into (train, test), identically across all views."""
    train_idx, test_idx = split_indices(dataset, spec)
    return dataset.take(train_idx), dataset.take(test_idx)


def split_indices(dataset: MultiViewDataset, spec: SplitSpec) -> tuple[list[int], list[int]]:
    """The (train, test) sample indices of :func:`split_dataset`.

    Both lists keep the original sample order.  Fraction mode is driven
    entirely by ``spec.seed`` and is bit-reproducible.
    """
    n = dataset.n_samples
    if spec.mode == "fraction":
        n_train = int(math.floor(spec.train_fraction * n + 0.5))
        if n_train < 1 or n_train > n - 1:
            raise DatasetError(
                f"fraction {spec.train_fraction} on {n} samples leaves an empty partition"
            )
        perm = np.random.default_rng(spec.seed).permutation(n)
        train_idx = sorted(int(i) for i in perm[:n_train])
        test_idx = sorted(int(i) for i in perm[n_train:])
    else:
        assignment = spec.group_assignment if spec.group_assignment is not None else dataset.groups
        if assignment is None:
            raise DatasetError("by-group split requires group assignments")
        unassigned = [sid for sid in dataset.sample_ids if sid not in assignment]
        if unassigned:
            raise DatasetError(f"samples without group assignment: {unassigned}")
        present = {assignment[sid] for sid in dataset.sample_ids}
        phantom = sorted(set(spec.train_groups) - present)
        if phantom:
            raise DatasetError(f"train groups referenced by no sample: {phantom}")
        train_idx = [
            i for i, sid in enumerate(dataset.sample_ids)
            if assignment[sid] in spec.train_groups
        ]
        chosen = set(train_idx)
        test_idx = [i for i in range(n) if i not in chosen]
        if not train_idx or not test_idx:
            raise DatasetError("by-group split leaves an empty partition")
    return train_idx, test_idx
