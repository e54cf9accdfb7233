"""Loading, validation, alignment and splitting of multi-view time series data.

A dataset is a set of V views of the same N labelled samples.  Each view
holds one multivariate series per sample with a fixed channel count.  A view
whose samples share one length is a single C-contiguous float64 array of
shape ``(N, channels, length)``; a ragged view, as a directory with unequal
lengths loads, is a list of ``(channels, length_i)`` arrays until
:func:`align_lengths` turns it into one such array.

On disk a dataset is a directory with a ``manifest.json`` and one long-format
CSV per view (``sample_id,channel,t,value``).  :func:`load_dataset` and
:func:`emit_dataset` round-trip this format exactly.

A view file is read as plain UTF-8 whatever its suffix, and LF, CRLF and
lone-CR line ends read the same.  The reader makes one pass over a file's
bytes for its line count, its bytes outside the plain set and whether it
holds a carriage return, and drops them before the parse.  numpy's C parser
then reads the rows by one of two routes: from the path, in blocks, when the
file has no carriage return and no suffix numpy's opener decompresses;
otherwise from a handle opened with ``newline=""``, a line at a time.  Ids
are sorted one per run of equal ids, so a file whose rows come grouped by
sample, as :func:`emit_dataset` writes them, sorts one id per sample; a
file where every row starts a new run pays for the run search on top of a
sort of every row id.
"""

from __future__ import annotations

import csv
import json
import math
import types
import typing
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

ALIGNMENT_STRATEGIES = (
    "zero-pad-to-max",
    "last-value-pad-to-max",
    "truncate-to-min",
    "average-length",
)

_VIEW_HEADER = ["sample_id", "channel", "t", "value"]
# Bytes a view file may hold outside its ids: ASCII without the separators
# \x1c-\x1f.  numpy's number parsers take those separators as whitespace,
# and its integer parser gives values to some non-ASCII characters, where
# Python's int and float reject them; within these bytes numpy accepts no
# number that Python rejects, and reads each one to the same value.
_PLAIN_BYTES = bytes(b for b in range(0x80) if not 0x1C <= b <= 0x1F)
# Suffixes on which numpy's file opener decompresses a path it is given.
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_NUMBER_FORM = (
    "channel and t must be ASCII decimal integers and value an ASCII float "
    "that numpy's text parser reads"
)
_JSON_KINDS = {bool: "a bool", int: "an integer", float: "a number", str: "a string"}


class DatasetError(ValueError):
    """Raised for malformed manifests, view files or dataset invariant breaks."""


@dataclass
class MultiViewDataset:
    """V views of N labelled multivariate time series samples.

    ``views[v][i]`` is sample ``i`` observed in view ``v`` as an array of
    shape ``(d_v, length)``.  An aligned view is one ``(N, d_v, length)``
    float64 array; a list of equal-shape samples passed in is stacked into
    one.  A ragged view stays a list of samples, which only
    :func:`align_lengths` accepts.  Sample order is identical across
    views, and ``labels``/``sample_ids`` align with it by index.
    """

    views: list[np.ndarray | list[np.ndarray]]
    labels: list[str]
    sample_ids: list[str]

    def __post_init__(self):
        self.views = [_as_view(samples) for samples in self.views]
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
        return isinstance(self.views[view], np.ndarray)

    def view_shape(self, view: int) -> tuple[int, int]:
        """(channels, length) of an aligned view."""
        if not self.is_aligned(view):
            raise DatasetError(
                f"view {view} has unequal sample lengths {sorted(set(self.lengths(view)))}; "
                "align_lengths must run first"
            )
        return self.views[view].shape[1:]

    def take(self, indices: list[int]) -> MultiViewDataset:
        """The samples at ``indices``, in that order, as a new dataset."""
        if not all(map(self.is_aligned, range(self.n_views))):
            raise DatasetError("take needs aligned views; align_lengths must run first")
        return MultiViewDataset(
            views=[view[indices] for view in self.views],
            labels=[self.labels[i] for i in indices],
            sample_ids=[self.sample_ids[i] for i in indices],
        )

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


def _as_view(samples):
    """One C-contiguous float64 (N, channels, length) array when every
    sample has one 2-D shape (``samples`` itself when it already is that
    array), else the list of samples."""
    try:
        view = np.ascontiguousarray(samples, dtype=np.float64)
    except ValueError:  # samples of unequal shapes
        return list(samples)
    return view if view.ndim == 3 else list(samples)


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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"unparseable manifest {manifest_path}: {exc}") from exc

    for key in ("views", "samples", "labels", "view_files"):
        if key not in manifest:
            raise DatasetError(f"{manifest_path}: missing key {key!r}")
    n_views = manifest["views"]
    if not isinstance(n_views, int) or isinstance(n_views, bool):
        raise DatasetError(f"{manifest_path}: 'views' must be an integer, got {n_views!r}")
    for key in ("samples", "view_files"):
        entries = manifest[key]
        if not isinstance(entries, list) or not all(isinstance(x, str) for x in entries):
            raise DatasetError(f"{manifest_path}: {key!r} must be a list of strings")
    sample_ids = manifest["samples"]
    labels_map = manifest["labels"]
    view_files = manifest["view_files"]
    if not isinstance(labels_map, dict):
        raise DatasetError(
            f"{manifest_path}: 'labels' must be an object mapping sample ids to classes"
        )
    if len(set(sample_ids)) != len(sample_ids):
        duplicate = next(sid for i, sid in enumerate(sample_ids) if sid in sample_ids[:i])
        raise DatasetError(f"{manifest_path}: duplicate sample id {duplicate!r} in 'samples'")
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
    labels = [labels_map[sid] for sid in sample_ids]
    for sid, label in zip(sample_ids, labels):
        if not isinstance(label, str):
            raise DatasetError(
                f"{manifest_path}: 'labels' value for sample id {sid!r} must be a string, "
                f"got {label!r}"
            )

    views = []
    for rel in view_files:
        views.append(_read_view_file(root / rel, sample_ids))
    return MultiViewDataset(views=views, labels=labels, sample_ids=sample_ids)


def _read_view_file(path: Path, sample_ids: list[str]) -> np.ndarray | list[np.ndarray]:
    """One view's samples in ``sample_ids`` order, read column-wise.

    One read of the file's bytes comes first.  It rejects bytes that are
    not UTF-8 and keeps three integers: the line count, the count of bytes
    outside ``_PLAIN_BYTES``, and whether a carriage return occurs; the
    bytes go before the parse.  numpy's C
    parser then reads every row into one structured array, by one of the
    two routes of :func:`_parse_rows`.  Ids are sorted one per run of equal
    ids, so a file grouped by sample sorts one id per sample; each row's
    sample is its run's.  The row checks run as masks over the array, and
    each value is scattered to its place in one flat buffer.  When every
    sample has one length that buffer comes back reshaped to ``(n,
    channels, length)``; otherwise every sample is a ``(channels,
    length_i)`` view of it.  A file with any fault is read once more, row
    by row, so that the message names the first faulty row.
    """
    if not path.is_file():
        raise DatasetError(f"missing view file: {path}")
    # One character wider than any manifest id, so a longer id in the file
    # stays longer after numpy truncates it and cannot alias a real one.
    width = max(map(len, sample_ids), default=0) + 1
    lines, unplain, has_cr = _scan_bytes(path)
    by_path = not has_cr and path.suffix.lower() not in _DECOMPRESSED_SUFFIXES
    rows = _parse_rows(path, width, by_path)
    if rows is None:
        raise DatasetError(
            _first_row_fault(path, sample_ids)
            or f"{path} row {_first_rejected_row(path, width, by_path)}: {_NUMBER_FORM}"
        )
    row_ids = rows["sid"]
    run_start = np.ones(len(rows), dtype=bool)
    run_start[1:] = row_ids[1:] != row_ids[:-1]
    starts = np.flatnonzero(run_start)
    run_length = np.diff(starts, append=len(rows))
    ids, run_id = np.unique(row_ids[starts], return_inverse=True)
    ids = ids.tolist()
    position = {sid: i for i, sid in enumerate(sample_ids)}
    id_code = np.array([position.get(sid, -1) for sid in ids], dtype=np.int64)
    code = np.repeat(id_code[run_id], run_length)
    channel, t, value = rows["channel"], rows["t"], rows["value"]
    bad = (code < 0) | (channel < 0) | (t < 0) | ~np.isfinite(value)
    if bad.any():
        # with every number sound, a clean row-by-row reading leaves only an
        # id the array cannot hold, such as one ending in NUL
        row_no = int(np.flatnonzero(bad)[0]) + 2
        raise DatasetError(
            _first_row_fault(path, sample_ids)
            or f"{path} row {row_no}: numpy's text parser misreads the sample id"
        )
    samples = _scatter(len(sample_ids), code, channel, t, value)
    id_counts = np.zeros(len(ids), dtype=np.int64)
    np.add.at(id_counts, run_id, run_length)
    if samples is None or not _is_plain(lines, unplain, ids, id_counts.tolist(), len(rows)):
        fault = _first_row_fault(path, sample_ids)
        if fault is None and samples is None:
            fault = _layout_fault(path, sample_ids, code, channel, t)
        if fault is not None:
            raise DatasetError(fault)
    return samples


def _scan_bytes(path: Path) -> tuple[int, int, bool]:
    """The file's line count, its count of bytes outside ``_PLAIN_BYTES``,
    and whether it holds a carriage return, from one read of its bytes.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as the csv module
    reads them; a file without ``\\r`` needs one ``count``.  A file with a
    byte outside ``_PLAIN_BYTES`` is decoded once as UTF-8 here, so that
    bytes that are not UTF-8 are rejected naming the line they sit on,
    before any reader decodes them; an ASCII file needs no decode.
    """
    data = path.read_bytes()
    unplain = _unplain_bytes(data)
    if unplain:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise DatasetError(
                f"{path} line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
            ) from None
    has_cr = b"\r" in data
    lines = data.count(b"\n")
    if has_cr:
        lines += data.count(b"\r") - data.count(b"\r\n")
    lines += data[-1:] not in (b"\n", b"\r")
    return lines, unplain, has_cr


def _parse_rows(
    path: Path, width: int, by_path: bool, max_rows: int | None = None
) -> np.ndarray | None:
    """The data rows (the first ``max_rows`` of them, if given) as a
    structured array, or None where numpy's parser rejects them.

    The header is checked on a handle opened with ``newline=""``.  With
    ``by_path`` numpy opens the path itself and reads it in blocks,
    skipping the header line; otherwise it reads on from that handle, one
    line at a time in Python.  numpy opens a path with universal newlines
    and decompresses one named ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, so
    only a file with no ``\\r`` byte and none of those suffixes reads the
    same both ways; :func:`_read_view_file` picks the path route for no
    other.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header != _VIEW_HEADER:
            raise DatasetError(f"{path}: bad header {header!r}, expected {_VIEW_HEADER!r}")
        dtype = [
            ("sid", f"U{width}"), ("channel", np.int64), ("t", np.int64), ("value", np.float64)
        ]
        with warnings.catch_warnings():
            # a file without rows is reported as missing every sample
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                return np.loadtxt(
                    path if by_path else fh,
                    dtype=dtype,
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    encoding="utf-8",
                    skiprows=int(by_path),
                    ndmin=1,
                    max_rows=max_rows,
                )
            except ValueError:
                return None


def _unplain_bytes(data: bytes) -> int:
    return len(data.translate(None, _PLAIN_BYTES))


def _is_plain(lines: int, unplain: int, ids: list[str], id_counts: list[int], n_rows: int) -> bool:
    """Whether a file of ``lines`` lines and ``unplain`` bytes outside
    ``_PLAIN_BYTES`` holds one line per parsed row after its header and no
    such byte outside the ids, where numpy's number parsers read them
    differently from Python's ``int`` and ``float``.

    numpy skips blank lines, which the format rejects; a line break inside
    a quoted id also fails this test, and the row-by-row reading then finds
    nothing wrong.
    """
    in_ids = sum(n * _unplain_bytes(sid.encode("utf-8")) for sid, n in zip(ids, id_counts))
    return lines - 1 == n_rows and unplain == in_ids


def _scatter(n, code, channel, t, value) -> np.ndarray | list[np.ndarray] | None:
    """The samples as views of one flat buffer: the ``(n, channels, length)``
    buffer itself when all lengths are equal, else one ``(channels,
    length_i)`` view per sample.  None unless the rows hold every sample's
    channels 0..d-1 at one length per sample and each (sample, channel, t)
    cell exactly once."""
    size = len(code)
    d = int(channel.max()) + 1 if size else 0
    if not 0 < n * d <= size:
        return None
    cell = code * d + channel
    count = np.bincount(cell, minlength=n * d)
    lengths = count[::d]
    if not lengths.all() or not (count.reshape(n, d) == lengths[:, None]).all():
        return None
    if (t >= count[cell]).any():
        return None
    slot = (np.cumsum(count) - count)[cell] + t
    # size rows on size slots: a slot filled twice means another is empty
    if np.bincount(slot, minlength=size).max() != 1:
        return None
    flat = np.empty(size, dtype=np.float64)
    flat[slot] = value
    if (lengths == lengths[0]).all():
        return flat.reshape(n, d, int(lengths[0]))
    ends = np.cumsum(lengths * d).tolist()
    return [flat[end - m * d:end].reshape(d, m) for end, m in zip(ends, lengths.tolist())]


def _first_row_fault(path: Path, sample_ids: list[str]) -> str | None:
    """The first faulty row, named as a row-by-row reading meets it, or None.

    Within a row the checks run in a fixed order: column count, sample id,
    the numbers as Python's ``int``/``float`` read them, then their plain
    ASCII form, sign, finiteness and duplicate (sample, channel, t) triples.
    """
    known = set(sample_ids)
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, already checked
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                return f"{path} row {row_no}: expected 4 columns, got {len(row)}"
            sid, channel_s, t_s, value_s = row
            if sid not in known:
                return f"{path} row {row_no}: unknown sample id {sid!r}"
            try:
                triple = (sid, int(channel_s), int(t_s))
                value = float(value_s)
            except ValueError as exc:
                return f"{path} row {row_no}: {exc}"
            if _unplain_bytes(f"{channel_s}{t_s}{value_s}".encode("utf-8")):
                return f"{path} row {row_no}: {_NUMBER_FORM}"
            if triple[1] < 0 or triple[2] < 0:
                return f"{path} row {row_no}: negative channel or t index"
            if not math.isfinite(value):
                return f"{path} row {row_no}: non-finite value {value_s!r}"
            if triple in seen:
                return f"{path} row {row_no}: duplicate (sample,channel,t) triple"
            seen.add(triple)
    return None


def _first_rejected_row(path: Path, width: int, by_path: bool) -> int:
    """The row number of the first row numpy's parser rejects, in a file
    whose full parse fails but whose rows all pass :func:`_first_row_fault`
    (so it has no blank lines and data row k is file row k + 1)."""
    parsed, rejected = 0, 1  # the first `parsed` rows parse, the first `rejected` do not
    while _parse_rows(path, width, by_path, rejected) is not None:
        parsed, rejected = rejected, 2 * rejected
    while rejected - parsed > 1:
        middle = (parsed + rejected) // 2
        if _parse_rows(path, width, by_path, middle) is None:
            rejected = middle
        else:
            parsed = middle
    return rejected + 1


def _layout_fault(path: Path, sample_ids: list[str], code, channel, t) -> str:
    """The first fault in how sound rows without duplicate triples cover the
    samples, channels and timestamps, in the order a per-sample check meets
    it: absent samples, channel sets, then per sample in manifest order its
    timestamps per channel and its channel lengths."""
    cells, cell_of_row, count = np.unique(
        np.stack([code, channel], axis=1), axis=0, return_inverse=True, return_counts=True
    )
    last = np.zeros(len(cells), dtype=np.int64)
    np.maximum.at(last, cell_of_row.ravel(), t)
    channel_sets = {}
    for sample, ch in cells.tolist():
        channel_sets.setdefault(sample, set()).add(ch)
    absent = [sid for i, sid in enumerate(sample_ids) if i not in channel_sets]
    if absent:
        return f"{path}: no data for samples {absent}"
    if len({frozenset(chs) for chs in channel_sets.values()}) != 1:
        return f"{path}: inconsistent channel sets across samples"
    channels = sorted(channel_sets[0])
    if channels != list(range(len(channels))):
        return f"{path}: channels must be 0..d-1, got {channels}"
    count = count.reshape(len(sample_ids), len(channels))
    last = last.reshape(count.shape)
    for i, sid in enumerate(sample_ids):
        for ch in channels:
            length = count[i, ch]
            if last[i, ch] != length - 1:
                return f"{path}: sample {sid!r} channel {ch} timestamps are not 0..{length - 1}"
        lengths = sorted(set(count[i].tolist()))
        if len(lengths) != 1:
            return f"{path}: sample {sid!r} channels have unequal lengths {lengths}"
    raise AssertionError("_layout_fault called on rows that cover every sample")


def write_json(path, payload) -> None:
    """Write ``payload`` as UTF-8 JSON with two-space indents, LF line ends
    and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as comma-joined UTF-8 lines with LF ends
    and a final newline, each value as its ``str``, which for a float is its
    round-tripping ``repr``."""
    lines = [",".join(map(str, row)) for row in (header, *rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def from_json(cls, payload, where: str, **types_of):
    """The config dataclass ``cls`` read from the JSON object ``payload`` at key
    path ``where`` ("" at the top), each value checked against its field's
    annotation or ``types_of``; a fault raises ``ValueError`` naming the path.
    A ``float`` field takes an int or a finite float, so JSON's ``NaN`` and
    ``Infinity`` are rejected."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where or cls.__name__} must be a JSON object, got {payload!r}")
    prefix = f"{where}." if where else ""
    hints = {**typing.get_type_hints(cls), **types_of}
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise ValueError(f"unknown key {prefix + unknown[0]!r}")
    for f in fields(cls):
        if f.name not in payload and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {prefix + f.name!r}")
    values = {k: _from_json_value(hints[k], v, prefix + k) for k, v in payload.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(prefix + str(exc)) from exc


def _from_json_value(hint, value, where: str):
    if isinstance(hint, types.UnionType) and type(None) in typing.get_args(hint):
        if value is None:
            return None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if is_dataclass(hint):
        return from_json(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_from_json_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ValueError(f"{where} must be {_JSON_KINDS[hint]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return value


def emit_dataset(dataset: MultiViewDataset, root_path: str | Path):
    """Write ``dataset`` in the on-disk directory format (UTF-8, LF endings).

    Floats are written with ``repr`` so a reload reproduces every bit.  An
    id is quoted when it holds a delimiter, a quote or a line feed, and
    also when it holds a carriage return, which the csv module's minimal
    quoting leaves bare under a line-feed terminator.
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
    write_json(root / "manifest.json", manifest)
    for v, rel in enumerate(view_files):
        with open(root / rel, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            quoting = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(_VIEW_HEADER)
            for sid, sample in zip(dataset.sample_ids, dataset.views[v]):
                # csv writes a float as its repr, and QUOTE_NONNUMERIC
                # quotes only the id.
                rows = quoting if "\r" in sid else writer
                for channel in range(sample.shape[0]):
                    for t in range(sample.shape[1]):
                        rows.writerow([sid, channel, t, float(sample[channel, t])])


def align_lengths(dataset: MultiViewDataset, strategy: str) -> MultiViewDataset:
    """Return a copy in which each view is one ``(N, channels, length)``
    array.

    ``zero-pad-to-max`` and ``last-value-pad-to-max`` extend to the view
    maximum, ``truncate-to-min`` cuts to the view minimum, and
    ``average-length`` pads or truncates to the per-view mean length rounded
    half up (shorter series are zero-padded).  Values outside the edited
    tail are untouched.
    """
    if strategy not in ALIGNMENT_STRATEGIES:
        raise DatasetError(f"unknown alignment strategy {strategy!r}")
    edge = strategy == "last-value-pad-to-max"
    new_views = []
    for v in range(dataset.n_views):
        lengths = dataset.lengths(v)
        if strategy in ("zero-pad-to-max", "last-value-pad-to-max"):
            target = max(lengths)
        elif strategy == "truncate-to-min":
            target = min(lengths)
        else:
            target = int(math.floor(sum(lengths) / len(lengths) + 0.5))
        aligned = np.empty((dataset.n_samples, dataset.channel_count(v), target))
        for sample, out in zip(dataset.views[v], aligned):
            keep = min(sample.shape[1], target)
            out[:, :keep] = sample[:, :keep]
            out[:, keep:] = sample[:, keep - 1:keep] if edge else 0.0
        new_views.append(aligned)
    return MultiViewDataset(
        views=new_views,
        labels=list(dataset.labels),
        sample_ids=list(dataset.sample_ids),
    )


def split_indices(
    dataset: MultiViewDataset, train_fraction: float, seed: int
) -> tuple[list[int], list[int]]:
    """Partition the samples into (train, test) indices, identically across
    all views; ``MultiViewDataset.take`` builds each part.

    The samples are shuffled with ``seed`` and the first
    ``train_fraction`` of them, rounded half up, go to train.  Both lists
    keep the original sample order, and the split is bit-reproducible.
    """
    n = dataset.n_samples
    n_train = int(math.floor(train_fraction * n + 0.5))
    if n_train < 1 or n_train > n - 1:
        raise DatasetError(f"fraction {train_fraction} on {n} samples leaves an empty partition")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = sorted(int(i) for i in perm[:n_train])
    test_idx = sorted(int(i) for i in perm[n_train:])
    return train_idx, test_idx
