"""Tests for dataset loading, validation, alignment and splitting."""

import csv
import json
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtransfer.dataset import (
    ALIGNMENT_STRATEGIES,
    DatasetError,
    MultiViewDataset,
    _read_view_file,
    align_lengths,
    as_json,
    emit_dataset,
    from_json,
    load_dataset,
    split_indices,
    write_json,
)

from conftest import make_random_dataset, reference_read_view_file


def base_manifest(**changes):
    manifest = {
        "views": 2,
        "samples": ["a", "b", "c"],
        "labels": {"a": "left", "b": "right", "c": "left"},
        "view_files": ["view_0.csv", "view_1.csv"],
    }
    manifest.update(changes)
    return manifest


def write_fixture(root, view_rows, manifest=None):
    """Write a dataset directory from raw CSV row lists."""
    if manifest is None:
        manifest = base_manifest()
    (root / "manifest.json").write_text(json.dumps(manifest))
    for name, rows in view_rows.items():
        lines = ["sample_id,channel,t,value"] + rows
        (root / name).write_text("\n".join(lines) + "\n")


def basic_rows(sample_ids=("a", "b", "c"), d=2, m=3, scale=1.0):
    rows = []
    for i, sid in enumerate(sample_ids):
        for k in range(d):
            for t in range(m):
                rows.append(f"{sid},{k},{t},{scale * (i + 1) * (k + 1) + t}")
    return rows


class TestLoadDataset:
    def test_well_formed_fixture(self, tmp_path):
        """2-view, 3-sample, 2-class fixture loads with the right shape."""
        write_fixture(tmp_path, {"view_0.csv": basic_rows(), "view_1.csv": basic_rows(scale=2.0)})
        ds = load_dataset(tmp_path)
        assert ds.n_views == 2
        assert ds.n_samples == 3
        assert ds.class_count == 2
        assert ds.sample_ids == ["a", "b", "c"]
        assert ds.labels == ["left", "right", "left"]
        assert ds.views[0][0].shape == (2, 3)
        # row order in the file must not matter
        assert ds.views[1][1][0, 2] == 2.0 * 2 * 1 + 2

    def test_sample_order_is_manifest_order(self, tmp_path):
        manifest = {
            "views": 2,
            "samples": ["c", "a", "b"],
            "labels": {"a": "x", "b": "y", "c": "x"},
            "view_files": ["view_0.csv", "view_1.csv"],
        }
        write_fixture(
            tmp_path,
            {"view_0.csv": basic_rows(), "view_1.csv": basic_rows()},
            manifest=manifest,
        )
        ds = load_dataset(tmp_path)
        assert ds.sample_ids == ["c", "a", "b"]
        assert ds.labels == ["x", "x", "y"]

    def test_shuffled_rows_load_identically(self, tmp_path):
        rows = basic_rows()
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": rows})
        ds1 = load_dataset(tmp_path)
        shuffled = list(reversed(rows))
        write_fixture(tmp_path, {"view_0.csv": shuffled, "view_1.csv": shuffled})
        ds2 = load_dataset(tmp_path)
        for v in range(2):
            for s1, s2 in zip(ds1.views[v], ds2.views[v]):
                assert np.array_equal(s1, s2)

    def test_aligned_file_loads_as_the_reader_buffer(self, tmp_path):
        """Equal lengths load as one (N, C, L) float64 array per view: a
        reshape of the reader's flat buffer, not a copy of it."""
        write_fixture(tmp_path, {"view_0.csv": basic_rows(), "view_1.csv": basic_rows(m=4)})
        ds = load_dataset(tmp_path)
        for v, length in enumerate((3, 4)):
            view = ds.views[v]
            assert isinstance(view, np.ndarray) and view.shape == (3, 2, length)
            assert view.dtype == np.float64 and view.flags.c_contiguous
            # the base is the reader's 1-D buffer of every value, so no copy was made
            assert not view.flags.owndata and view.base.shape == (view.size,)

    def test_ragged_file_loads_as_lists_until_aligned(self, tmp_path):
        rows = basic_rows(("a", "b"), m=3) + basic_rows(("c",), m=5)
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        ds = load_dataset(tmp_path)
        assert isinstance(ds.views[0], list) and not ds.is_aligned(0)
        assert [sample.shape for sample in ds.views[0]] == [(2, 3), (2, 3), (2, 5)]
        assert ds.is_aligned(1)
        aligned = align_lengths(ds, "zero-pad-to-max")
        assert isinstance(aligned.views[0], np.ndarray) and aligned.views[0].shape == (3, 2, 5)
        for got, want in zip(aligned.views[0], ds.views[0]):
            assert got[:, :want.shape[1]].tobytes() == want.tobytes()
        assert aligned.views[1].tobytes() == ds.views[1].tobytes()

    def test_nan_cell_names_file_and_row(self, tmp_path):
        rows = basic_rows()
        rows[4] = "a,1,1,NaN"
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        with pytest.raises(DatasetError, match=r"view_0\.csv row 6.*non-finite"):
            load_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            load_dataset(tmp_path)

    def test_unparseable_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="unparseable"):
            load_dataset(tmp_path)

    def test_label_for_unknown_sample(self, tmp_path):
        manifest = {
            "views": 1,
            "samples": ["a"],
            "labels": {"a": "x", "ghost": "y"},
            "view_files": ["view_0.csv"],
        }
        write_fixture(tmp_path, {"view_0.csv": basic_rows(("a",))}, manifest=manifest)
        with pytest.raises(DatasetError, match="ghost"):
            load_dataset(tmp_path)

    def test_sample_missing_from_view_file(self, tmp_path):
        write_fixture(
            tmp_path,
            {"view_0.csv": basic_rows(("a", "b")), "view_1.csv": basic_rows()},
        )
        with pytest.raises(DatasetError, match=r"view_0\.csv.*'c'"):
            load_dataset(tmp_path)

    def test_duplicate_triple_rejected(self, tmp_path):
        rows = basic_rows()
        rows.append(rows[0])
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(tmp_path)

    def test_gap_in_timestamps_rejected(self, tmp_path):
        rows = [r for r in basic_rows() if not r.startswith("a,0,1,")]
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        with pytest.raises(DatasetError, match="timestamps"):
            load_dataset(tmp_path)

    def test_bad_header_rejected(self, tmp_path):
        write_fixture(tmp_path, {"view_0.csv": basic_rows(), "view_1.csv": basic_rows()})
        path = tmp_path / "view_1.csv"
        path.write_text(path.read_text().replace("sample_id,channel,t,value", "id,ch,t,v"))
        with pytest.raises(DatasetError, match="header"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "groups",
        [{"a": "subj1", "b": "subj1", "c": "subj2"}, ["a"]],
        ids=["object", "list"],
    )
    def test_groups_key_ignored(self, tmp_path, groups):
        """The loader ignores manifest keys it does not read, such as a
        'groups' key of any form: the dataset loads as it does without it."""
        views = {"view_0.csv": basic_rows(), "view_1.csv": basic_rows(scale=2.0)}
        write_fixture(tmp_path, views)
        plain = load_dataset(tmp_path)
        write_fixture(tmp_path, views, manifest=base_manifest(groups=groups))
        ds = load_dataset(tmp_path)
        assert (ds.sample_ids, ds.labels) == (plain.sample_ids, plain.labels)
        for v in range(ds.n_views):
            for got, want in zip(ds.views[v], plain.views[v]):
                assert got.tobytes() == want.tobytes()


class TestManifestBoundaries:
    """Malformed manifest fields fail at the manifest, naming the key, before
    any view file is read (the view files here are absent)."""

    def test_samples_string_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(base_manifest(samples="ab")))
        with pytest.raises(DatasetError, match=r"manifest\.json: 'samples' must be a list of strings"):
            load_dataset(tmp_path)

    def test_views_string_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(base_manifest(views="2")))
        with pytest.raises(DatasetError, match=r"manifest\.json: 'views' must be an integer, got '2'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "labels",
        [5, None, ["left", "right", "left"], [["a", "left"]], "left"],
        ids=["number", "null", "list-of-strings", "list-of-lists", "string"],
    )
    def test_labels_not_an_object_rejected(self, tmp_path, labels):
        (tmp_path / "manifest.json").write_text(json.dumps(base_manifest(labels=labels)))
        with pytest.raises(
            DatasetError, match=r"manifest\.json: 'labels' must be an object mapping sample ids"
        ):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "label",
        [None, [1], 1, 1.5, True, {"class": "left"}],
        ids=["null", "list", "integer", "float", "bool", "object"],
    )
    def test_non_string_label_rejected(self, tmp_path, label):
        """Classes are JSON strings: null, a list or the number 1 used to
        load as the classes 'None', '[1]' and '1'."""
        manifest = base_manifest(labels={"a": "left", "b": label, "c": "left"})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            DatasetError,
            match=r"manifest\.json: 'labels' value for sample id 'b' must be a string, got ",
        ):
            load_dataset(tmp_path)

    def test_duplicate_sample_id_named(self, tmp_path):
        manifest = base_manifest(samples=["a", "b", "a"])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=r"manifest\.json: duplicate sample id 'a' in 'samples'"):
            load_dataset(tmp_path)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a DatasetError naming its file (and, in a
    view file, the line it sits on), not a bare UnicodeDecodeError."""

    def test_manifest_byte_named(self, tmp_path):
        write_fixture(tmp_path, {"view_0.csv": basic_rows(), "view_1.csv": basic_rows()})
        path = tmp_path / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b'"left"', b'"l\xffft"', 1))
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(tmp_path)
        assert str(excinfo.value).startswith(
            f"unparseable manifest {path}: 'utf-8' codec can't decode byte 0xff"
        )

    @pytest.mark.parametrize(
        "line_no, edit, byte",
        [
            (1, lambda line: line.replace(b"channel", b"chan\xffel"), 0xFF),
            (6, lambda line: b"\xfe" + line, 0xFE),
            (8, lambda line: line + b"\xc3", 0xC3),  # a truncated two-byte sequence
            (19, lambda line: line.replace(b",", b"\x80,", 1), 0x80),
        ],
        ids=["header", "sample-id", "truncated-sequence", "last-row"],
    )
    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_view_file_byte_names_file_and_line(self, tmp_path, line_no, edit, byte, line_end):
        """Both parse routes: numpy reads an LF file from its path and a
        CRLF file from a Python handle."""
        write_fixture(tmp_path, {"view_0.csv": basic_rows(), "view_1.csv": basic_rows()})
        path = tmp_path / "view_0.csv"
        lines = path.read_bytes().splitlines()
        lines[line_no - 1] = edit(lines[line_no - 1])
        path.write_bytes(line_end.join(lines) + line_end)
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(tmp_path)
        assert str(excinfo.value) == f"{path} line {line_no}: byte 0x{byte:02x} is not valid UTF-8"

    def test_byte_past_the_first_decode_chunk(self, tmp_path):
        """A text handle decodes 8 KiB at a time, so a late byte used to fail
        while the header was read; it is named by its own line."""
        ids = [f"s{i:03d}" for i in range(120)]
        labels = {sid: ("left", "right")[i % 2] for i, sid in enumerate(ids)}
        manifest = base_manifest(samples=ids, labels=labels)
        rows = basic_rows(tuple(ids), m=8)
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": rows}, manifest=manifest)
        path = tmp_path / "view_0.csv"
        lines = path.read_bytes().split(b"\n")
        lines[1500] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        assert len(b"\n".join(lines[:1500])) > 8192
        with pytest.raises(DatasetError, match=rf"view_0\.csv line 1501: byte 0xff is not valid UTF-8$"):
            load_dataset(tmp_path)


class TestRowFaults:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("a,1,1", "expected 4 columns, got 3"),
            ("a,1,1,2.0,9", "expected 4 columns, got 5"),
            ("ghost,1,1,2.0", "unknown sample id 'ghost'"),
            ("a,-1,1,2.0", "negative channel or t index"),
            ("a,1,1,high", "could not convert string to float: 'high'"),
            ("", "expected 4 columns, got 0"),
            ("aa,1,1,2.0", "unknown sample id 'aa'"),
        ],
        ids=["3-columns", "5-columns", "unknown-id", "negative-channel", "non-numeric-value",
             "blank-line", "id-longer-than-any"],
    )
    def test_row_fault_names_file_and_row(self, tmp_path, line, message):
        rows = basic_rows()
        rows[4] = line
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(tmp_path)
        assert str(excinfo.value) == f"{tmp_path / 'view_0.csv'} row 6: {message}"

    @pytest.mark.parametrize(
        "line",
        ["b,0_0,0,2.0", "b,0,0,2_0.5", "b,0,\u0660,2.0", "b,0,0,2.0\u00a0"],
        ids=["digit-underscore-int", "digit-underscore-float", "non-ascii-digit", "non-ascii-space"],
    )
    def test_numbers_outside_numpy_grammar_rejected(self, tmp_path, line):
        """Literals Python's int/float accept but the format does not: digit
        underscores and non-ASCII digits or spaces.  Each line stands in for
        row b,0,0, so the file is sound to a reader that takes them."""
        rows = basic_rows()
        rows[6] = line
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        with pytest.raises(DatasetError, match=r"view_0\.csv row 8: channel and t must be ASCII"):
            load_dataset(tmp_path)

    def test_id_numpy_cannot_hold_rejected(self, tmp_path):
        """numpy's string arrays drop a trailing NUL, so such an id would read
        as another; the row is rejected instead."""
        manifest = base_manifest(
            samples=["a\x00", "b", "c"], labels={"a\x00": "left", "b": "right", "c": "left"}
        )
        rows = basic_rows(("a\x00", "b", "c"))
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": rows}, manifest=manifest)
        with pytest.raises(DatasetError, match=r"view_0\.csv row 2: numpy's text parser misreads"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("field", ["\u30e4", "\x1c1", "1\x1f"])
    def test_numbers_python_rejects_keep_their_message(self, tmp_path, field):
        """numpy's integer parser gives a value to some non-ASCII letters
        and skips the \\x1c-\\x1f separators; the reader still rejects them
        with the row-by-row message."""
        rows = basic_rows()
        rows[4] = f"a,{field},1,2.0"
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        path = tmp_path / "view_0.csv"
        with pytest.raises(DatasetError) as expected:
            reference_read_view_file(path, ["a", "b", "c"])
        with pytest.raises(DatasetError) as got:
            load_dataset(tmp_path)
        assert "invalid literal for int()" in str(got.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s, k, t: (k, 3 if (s, k, t) == ("a", 0, 2) else t),
             "sample 'a' channel 0 timestamps are not 0..2"),
            (lambda s, k, t: None if (s, k, t) == ("b", 1, 2) else (k, t),
             "sample 'b' channels have unequal lengths [2, 3]"),
            (lambda s, k, t: (k + 1, t), "channels must be 0..d-1, got [1, 2]"),
            (lambda s, k, t: (2 if (s, k) == ("c", 1) else k, t),
             "inconsistent channel sets across samples"),
        ],
        ids=["timestamp-past-the-end", "unequal-lengths", "channels-not-from-0", "channel-sets"],
    )
    def test_layout_fault_matches_reference(self, tmp_path, edit, message):
        """Sound rows that do not tile the samples: ``edit`` moves or drops
        the (sample, channel, t) cells of a 3-sample, 2-channel, length-3
        view."""
        rows = []
        for i, sid in enumerate("abc"):
            for k in range(2):
                for t in range(3):
                    cell = edit(sid, k, t)
                    if cell is not None:
                        rows.append(f"{sid},{cell[0]},{cell[1]},{i + k + t}.5")
        write_fixture(tmp_path, {"view_0.csv": rows, "view_1.csv": basic_rows()})
        path = tmp_path / "view_0.csv"
        with pytest.raises(DatasetError) as expected:
            reference_read_view_file(path, ["a", "b", "c"])
        with pytest.raises(DatasetError) as got:
            load_dataset(tmp_path)
        assert str(got.value) == str(expected.value) == f"{path}: {message}"

    def test_empty_body_names_every_sample(self, tmp_path):
        write_fixture(tmp_path, {"view_0.csv": [], "view_1.csv": basic_rows()})
        with pytest.raises(DatasetError, match=r"view_0\.csv: no data for samples \['a', 'b', 'c'\]"):
            load_dataset(tmp_path)


# Ids mix the characters the csv quoting and the parsers treat specially
# with arbitrary printable text; a line feed inside a quoted id makes the
# reader's line count disagree with its row count.
sample_id_text = st.text(
    st.one_of(
        st.sampled_from([",", '"', " ", "\n", "\r", "é", "中"]),
        st.characters(exclude_categories=("Cc", "Cs")),
    ),
    min_size=1,
    max_size=6,
)


def finite_bit_patterns(rng, shape):
    """Float64 values from random bit patterns; a pattern whose exponent is
    all ones (inf or nan) gets its top exponent bit cleared."""
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    values = bits.view(np.float64)
    bits[~np.isfinite(values)] &= ~np.uint64(1 << 62)
    return values


@st.composite
def ragged_datasets(draw):
    """Two views of 2-5 samples, each view with 1-4 channels and every
    sample its own length in 1-20."""
    sample_ids = draw(st.lists(sample_id_text, min_size=2, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    views = []
    for _ in range(2):
        channels = draw(st.integers(1, 4))
        views.append(
            [finite_bit_patterns(rng, (channels, draw(st.integers(1, 20)))) for _ in sample_ids]
        )
    labels = [f"c{i % 2}" for i in range(len(sample_ids))]
    return MultiViewDataset(views=views, labels=labels, sample_ids=sample_ids)


def read_records(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_records(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)


def assert_same_reading(path, sample_ids):
    """The columnar reader returns the reference's arrays bit for bit, or
    raises the reference's message."""
    try:
        expected = reference_read_view_file(path, sample_ids)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            _read_view_file(path, sample_ids)
        assert str(got.value) == str(exc)
        return None
    samples = _read_view_file(path, sample_ids)
    assert len(samples) == len(expected)
    for sample, reference in zip(samples, expected):
        assert sample.shape == reference.shape
        assert sample.tobytes() == reference.tobytes()
    return samples


def mutate(records, fault, rng, sample_ids):
    """Apply one fault to the data rows of ``records`` (header first)."""
    header, body = records[0], [list(row) for row in records[1:]]
    i = int(rng.integers(len(body)))
    row = body[i]
    if fault == "bad-header":
        header = ["sample_id", "channel", "time", "value"]
    elif fault == "drop-column":
        del row[int(rng.integers(4))]
    elif fault == "extra-column":
        row.insert(int(rng.integers(5)), "0")
    elif fault == "unknown-id":
        row[0] = next(c for c in ("?", "zz", "0", "s") if c not in sample_ids)
    elif fault == "longer-id":
        # past the reader's id width, so the parser truncates it
        row[0] = max(sample_ids, key=len) + "x" * int(rng.integers(1, 4))
    elif fault == "bad-int":
        row[1 + int(rng.integers(2))] = str(rng.choice(["x", "", "1.5", "1e2", " ", "--1"]))
    elif fault == "bad-float":
        row[3] = str(rng.choice(["x", "", "1,5", "1..5", "0x1p3", "e5"]))
    elif fault == "negative":
        row[1 + int(rng.integers(2))] = str(-int(rng.integers(1, 4)))
    elif fault == "non-finite":
        row[3] = str(rng.choice(["nan", "NaN", "inf", "-Infinity", "1e999"]))
    elif fault == "duplicate-row":
        body.insert(int(rng.integers(len(body) + 1)), list(row))
    elif fault == "drop-row":
        del body[i]
    elif fault == "blank-line":
        body.insert(int(rng.integers(len(body) + 1)), [])
    elif fault == "shift-channel":
        row[1] = str(int(row[1]) + int(rng.integers(1, 3)))
    elif fault == "shift-t":
        row[2] = str(int(row[2]) + int(rng.integers(1, 3)))
    return [header] + body


ROW_FAULTS = [
    "bad-header", "drop-column", "extra-column", "unknown-id", "longer-id", "bad-int",
    "bad-float", "negative", "non-finite", "duplicate-row", "drop-row", "blank-line",
    "shift-channel", "shift-t",
]


class TestColumnarReader:
    @settings(max_examples=60, deadline=None)
    @given(dataset=ragged_datasets(), shuffle_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_in_file_and_shuffled_order(self, dataset, shuffle_seed):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            emit_dataset(dataset, root)
            for v in range(dataset.n_views):
                path = root / f"view_{v}.csv"
                samples = assert_same_reading(path, dataset.sample_ids)
                for sample, written in zip(samples, dataset.views[v]):
                    assert sample.tobytes() == written.tobytes()
                records = read_records(path)
                body = records[1:]
                np.random.default_rng(shuffle_seed).shuffle(body)
                write_records(path, records[:1] + body)
                assert_same_reading(path, dataset.sample_ids)

    @settings(max_examples=200, deadline=None)
    @given(
        dataset=ragged_datasets(),
        fault=st.sampled_from(ROW_FAULTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_fault_gives_reference_message(self, dataset, fault, seed):
        """One random fault in an emitted view file: both readers raise the
        same message, or (a dropped last timestamp, say) read the same
        arrays."""
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            emit_dataset(dataset, root)
            path = root / "view_0.csv"
            write_records(path, mutate(read_records(path), fault, rng, dataset.sample_ids))
            assert_same_reading(path, dataset.sample_ids)


def quoted_id_dataset(ragged=False):
    """Two views of four samples whose ids need csv quoting (a comma, a
    quote) or hold a non-ASCII character; with ``ragged`` each sample has
    its own length."""
    ids = ["a,b", 'q"2', "café", "s3"]
    lengths = [3, 7, 5, 4] if ragged else [6] * len(ids)
    rng = np.random.default_rng(21)
    views = [[finite_bit_patterns(rng, (2, m)) for m in lengths] for _ in range(2)]
    return MultiViewDataset(views=views, labels=["x", "y", "x", "y"], sample_ids=ids)


def assert_same_views(got, want):
    assert got.n_views == want.n_views
    for got_view, want_view in zip(got.views, want.views):
        for sample, expected in zip(got_view, want_view):
            assert sample.shape == expected.shape
            assert sample.tobytes() == expected.tobytes()


class TestParseRoutes:
    """numpy parses a file with no carriage return and no suffix its opener
    decompresses from the path, in blocks; every other file from a handle
    opened with ``newline=""``.  Both routes read what the row-by-row
    reference reads."""

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_the_lf_original(self, tmp_path, line_end, ragged):
        dataset = quoted_id_dataset(ragged)
        emit_dataset(dataset, tmp_path / "lf")
        original = load_dataset(tmp_path / "lf")
        (tmp_path / "other").mkdir()
        for path in (tmp_path / "lf").iterdir():
            data = path.read_bytes()
            assert b"\r" not in data
            (tmp_path / "other" / path.name).write_bytes(data.replace(b"\n", line_end))
        for v in range(dataset.n_views):
            assert_same_reading(tmp_path / "other" / f"view_{v}.csv", dataset.sample_ids)
        assert_same_views(load_dataset(tmp_path / "other"), original)
        assert_same_views(original, dataset)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix_loads(self, tmp_path, suffix):
        dataset = quoted_id_dataset()
        emit_dataset(dataset, tmp_path)
        name = f"view_0.csv{suffix}"
        (tmp_path / "view_0.csv").rename(tmp_path / name)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        manifest["view_files"][0] = name
        write_json(tmp_path / "manifest.json", manifest)
        assert_same_reading(tmp_path / name, dataset.sample_ids)
        assert_same_views(load_dataset(tmp_path), dataset)

    @pytest.mark.parametrize("order", ["manifest", "reversed", "alternating"])
    def test_id_runs_at_both_ends(self, tmp_path, order):
        """Ids are sorted one per run of equal ids.  In manifest order, or
        reversed, each sample is one run; rows alternating between two
        samples start a new run on every row."""
        dataset = quoted_id_dataset()
        emit_dataset(dataset, tmp_path)
        path = tmp_path / "view_0.csv"
        header, *body = read_records(path)
        by_sample = [[row for row in body if row[0] == sid] for sid in dataset.sample_ids]
        if order == "reversed":
            body = [row for rows in reversed(by_sample) for row in rows]
        elif order == "alternating":
            pairs = zip(by_sample[1], by_sample[0])
            body = [row for pair in pairs for row in pair] + by_sample[2] + by_sample[3]
        runs = 1 + sum(a[0] != b[0] for a, b in zip(body, body[1:]))
        rows_per_sample = len(by_sample[0])  # 2 channels x 6 steps
        assert runs == {"manifest": 4, "reversed": 4, "alternating": 2 * rows_per_sample + 2}[order]
        write_records(path, [header] + body)
        samples = assert_same_reading(path, dataset.sample_ids)
        for sample, written in zip(samples, dataset.views[0]):
            assert sample.tobytes() == written.tobytes()

    def test_peak_memory_of_a_kde_dtw_sized_load(self, tmp_path):
        """The bytes of a view file are gone before numpy parses it.  On 3
        views of 200 samples x 2 channels x 128 steps (4.6 MB of CSV), the
        traced peak of load_dataset was 7.47 MB while the reader held the
        parsed rows and the file's bytes at once; it is 4.89 MB now, pinned
        here with 10 % headroom, which the old reader exceeds.  Both figures
        were measured with numpy 2.4.6: numpy's parser allocates most of the
        peak, so read a failure against the numpy version in use."""
        dataset = make_random_dataset(
            np.random.default_rng(5), n_views=3, n_samples=200, channels=2, length=128
        )
        emit_dataset(dataset, tmp_path)
        load_dataset(tmp_path)  # first-call allocations are not the reader's
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_views(loaded, dataset)
        assert peak < 1.1 * 4.89e6


class TestEmitRoundTrip:
    def test_random_dataset_round_trips_bit_for_bit(self, tmp_path):
        """emit_dataset then load_dataset reproduces every field exactly."""
        rng = np.random.default_rng(7)
        for trial in range(5):
            ds = make_random_dataset(
                rng,
                n_views=int(rng.integers(2, 4)),
                n_samples=int(rng.integers(3, 8)),
                channels=int(rng.integers(1, 4)),
                length=int(rng.integers(2, 9)),
                ragged=bool(trial % 2),
            )
            out = tmp_path / f"trial{trial}"
            emit_dataset(ds, out)
            back = load_dataset(out)
            assert back.sample_ids == ds.sample_ids
            assert back.labels == ds.labels
            assert back.n_views == ds.n_views
            for v in range(ds.n_views):
                for orig, rt in zip(ds.views[v], back.views[v]):
                    assert orig.shape == rt.shape
                    assert np.array_equal(orig, rt)

    def test_emit_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = make_random_dataset(rng)
        emit_dataset(ds, tmp_path / "x")
        emit_dataset(ds, tmp_path / "y")
        for name in ["manifest.json", "view_0.csv", "view_1.csv"]:
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_write_json_layout(self, tmp_path):
        """write_json writes two-space indented JSON with LF line ends and
        a final newline; emit_dataset's manifest is written the same way."""
        payload = {"b": [1, 2.5], "a": {"nested": None, "text": "caf\u00e9"}}
        write_json(tmp_path / "out.json", payload)
        data = (tmp_path / "out.json").read_bytes()
        assert data == (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        assert b"\r" not in data
        assert json.loads(data.decode("utf-8")) == payload
        ds = make_random_dataset(np.random.default_rng(13))
        emit_dataset(ds, tmp_path / "ds")
        manifest = (tmp_path / "ds" / "manifest.json").read_bytes()
        assert manifest == (json.dumps(json.loads(manifest), indent=2) + "\n").encode("utf-8")

    def test_id_with_carriage_return_is_quoted(self, tmp_path):
        """A lone carriage return in an id is quoted, so the directory
        loads; the other ids' rows keep the minimal quoting."""
        ids = ["a\rb", "c", "d", "e"]
        rng = np.random.default_rng(12)
        ds = MultiViewDataset(
            views=[[rng.normal(size=(1, 2)) for _ in ids] for _ in range(2)],
            labels=["x", "y", "x", "y"],
            sample_ids=ids,
        )
        emit_dataset(ds, tmp_path)
        lines = (tmp_path / "view_0.csv").read_bytes().split(b"\n")
        assert lines[1] == b'"a\rb",0,0,' + repr(float(ds.views[0][0][0, 0])).encode()
        assert lines[3] == b"c,0,0," + repr(float(ds.views[0][1][0, 0])).encode()
        back = load_dataset(tmp_path)
        assert back.sample_ids == ids
        for v in range(2):
            for orig, rt in zip(ds.views[v], back.views[v]):
                assert orig.tobytes() == rt.tobytes()


@dataclass
class Tensors:
    bias: np.ndarray
    layers: dict[str, np.ndarray]


@dataclass
class Holder:
    tensors: Tensors


class TestFromJsonArrays:
    """``from_json`` reads ``np.ndarray`` and ``dict[str, X]`` fields, and
    names a fault by its dotted key path."""

    def test_round_trip_through_as_json(self):
        value = Holder(Tensors(np.array([0.5, -1.0]), {"w": np.arange(6.0).reshape(2, 3)}))
        payload = json.loads(json.dumps(as_json(value)))
        assert payload == {
            "tensors": {"bias": [0.5, -1.0], "layers": {"w": [[0, 1, 2], [3, 4, 5]]}}
        }
        back = from_json(Holder, payload, "model")
        assert back.tensors.bias.dtype == np.float64
        assert back.tensors.bias.tobytes() == value.tensors.bias.tobytes()
        assert back.tensors.layers["w"].tobytes() == value.tensors.layers["w"].tobytes()

    @pytest.mark.parametrize(
        "tensors, message",
        [
            ({"bias": "x", "layers": {}}, "^model.tensors.bias is not a numeric array$"),
            ({"bias": [1.0, None], "layers": {}}, "^model.tensors.bias is not a numeric array$"),
            (
                {"bias": [0.0], "layers": {"w": [[1.0], 2.0]}},
                "^model.tensors.layers.w is not a numeric array: .*inhomogeneous",
            ),
            (
                {"bias": [0.0], "layers": {"w": [[1.0, float("inf")]]}},
                "^model.tensors.layers.w holds non-finite values$",
            ),
            ({"bias": [float("nan")], "layers": {}}, "^model.tensors.bias holds non-finite values$"),
            (
                {"bias": [0.0], "layers": {"w": [["1.5"]]}},
                "^model.tensors.layers.w is not a numeric array$",
            ),
            (
                {"bias": [0.0], "layers": [[1.0]]},
                r"^model.tensors.layers must be a JSON object, got \[\[1.0\]\]$",
            ),
        ],
        ids=["string", "null-entry", "ragged", "infinite", "nan", "numeric-string", "list-for-dict"],
    )
    def test_fault_named_by_path(self, tensors, message):
        with pytest.raises(ValueError, match=message):
            from_json(Holder, {"tensors": tensors}, "model")


def ragged_pair_dataset(lengths=(3, 5), extra=None):
    """2-view dataset whose view 0 has the given sample lengths."""
    all_lengths = list(lengths) + (list(extra) if extra else [])
    rng = np.random.default_rng(3)
    view0 = [rng.normal(size=(2, m)) for m in all_lengths]
    view1 = [rng.normal(size=(2, 4)) for _ in all_lengths]
    n = len(all_lengths)
    return MultiViewDataset(
        views=[view0, view1],
        labels=[f"c{i % 2}" for i in range(n)],
        sample_ids=[f"s{i}" for i in range(n)],
    )


class TestAlignLengths:
    def test_zero_pad_to_max(self):
        """Lengths {3,5} zero-pad to 5 with appended zeros."""
        ds = ragged_pair_dataset()
        out = align_lengths(ds, "zero-pad-to-max")
        assert out.lengths(0) == [5, 5]
        assert np.array_equal(out.views[0][0][:, :3], ds.views[0][0])
        assert np.array_equal(out.views[0][0][:, 3:], np.zeros((2, 2)))
        assert np.array_equal(out.views[0][1], ds.views[0][1])

    def test_last_value_pad_to_max(self):
        """The short series repeats its final observation."""
        ds = ragged_pair_dataset()
        out = align_lengths(ds, "last-value-pad-to-max")
        short = ds.views[0][0]
        padded = out.views[0][0]
        assert padded.shape == (2, 5)
        for k in range(2):
            assert padded[k, 3] == short[k, 2]
            assert padded[k, 4] == short[k, 2]

    def test_truncate_to_min(self):
        ds = ragged_pair_dataset()
        out = align_lengths(ds, "truncate-to-min")
        assert out.lengths(0) == [3, 3]
        assert np.array_equal(out.views[0][1], ds.views[0][1][:, :3])

    def test_average_length_matches_scalar_reference(self):
        """Lengths {3,5,4}: mean 4, each cell checked against a scalar padder."""
        ds = ragged_pair_dataset(lengths=(3, 5), extra=(4,))
        out = align_lengths(ds, "average-length")
        assert out.lengths(0) == [4, 4, 4]

        def reference_cell(series, k, t):
            return series[k, t] if t < series.shape[1] else 0.0

        for i in range(3):
            for k in range(2):
                for t in range(4):
                    assert out.views[0][i][k, t] == reference_cell(ds.views[0][i], k, t)

    def test_average_length_rounds_half_up(self):
        ds = ragged_pair_dataset(lengths=(3, 4))  # mean 3.5 -> 4
        out = align_lengths(ds, "average-length")
        assert out.lengths(0) == [4, 4]

    def test_alignment_is_per_view(self):
        """A view that is already aligned keeps its own length."""
        ds = ragged_pair_dataset()
        out = align_lengths(ds, "zero-pad-to-max")
        assert out.lengths(1) == [4, 4]

    def test_labels_and_count_preserved(self):
        ds = ragged_pair_dataset(lengths=(3, 5), extra=(4,))
        for strategy in ALIGNMENT_STRATEGIES:
            out = align_lengths(ds, strategy)
            assert out.labels == ds.labels
            assert out.sample_ids == ds.sample_ids
            assert all(out.is_aligned(v) for v in range(out.n_views))

    def test_unknown_strategy(self):
        with pytest.raises(DatasetError, match="strategy"):
            align_lengths(ragged_pair_dataset(), "stretch")


class TestSplitDataset:
    def test_fraction_is_deterministic(self):
        """Same seed twice gives identical splits."""
        rng = np.random.default_rng(5)
        ds = make_random_dataset(rng, n_samples=10)
        tr1, te1 = map(ds.take, split_indices(ds, 0.5, 42))
        tr2, te2 = map(ds.take, split_indices(ds, 0.5, 42))
        assert tr1.sample_ids == tr2.sample_ids
        assert te1.sample_ids == te2.sample_ids
        assert len(tr1.sample_ids) == 5

    def test_fraction_set_oracle(self):
        """Fraction 0.7 on 100 samples: sizes 70/30, disjoint, exhaustive union."""
        rng = np.random.default_rng(6)
        ds = make_random_dataset(rng, n_samples=100, n_classes=4)
        train, test = map(ds.take, split_indices(ds, 0.7, 1))
        train_set, test_set = set(train.sample_ids), set(test.sample_ids)
        assert len(train_set) == 70
        assert len(test_set) == 30
        assert train_set & test_set == set()
        assert train_set | test_set == set(ds.sample_ids)

    def test_labels_stay_aligned(self):
        rng = np.random.default_rng(8)
        ds = make_random_dataset(rng, n_samples=20, n_classes=4)
        by_id = dict(zip(ds.sample_ids, ds.labels))
        train, test = map(ds.take, split_indices(ds, 0.6, 3))
        for part in (train, test):
            assert part.labels == [by_id[sid] for sid in part.sample_ids]
            for v in range(part.n_views):
                assert len(part.views[v]) == part.n_samples

    def test_take_rejects_ragged_views(self):
        ds = make_random_dataset(np.random.default_rng(14), ragged=True)
        with pytest.raises(DatasetError, match="align_lengths must run first"):
            ds.take([0, 1])
        aligned = align_lengths(ds, "truncate-to-min")
        part = aligned.take([3, 0])
        for v in range(ds.n_views):
            assert part.views[v].tobytes() == aligned.views[v][[3, 0]].tobytes()

    def test_empty_partition_rejected(self):
        rng = np.random.default_rng(13)
        ds = make_random_dataset(rng, n_samples=3)
        with pytest.raises(DatasetError, match="partition"):
            split_indices(ds, 0.95, 0)

class TestValidation:
    def test_rejects_single_view(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DatasetError, match="2 views"):
            make_random_dataset(rng, n_views=1)

    def test_rejects_mixed_channel_counts(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng)
        mixed = list(ds.views[0])
        mixed[1] = rng.normal(size=(3, 12))
        with pytest.raises(DatasetError, match="channel counts"):
            MultiViewDataset(
                views=[mixed, ds.views[1]], labels=ds.labels, sample_ids=ds.sample_ids
            )

    def test_rejects_nonfinite(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng)
        ds.views[1][0][0, 0] = np.inf
        with pytest.raises(DatasetError, match="non-finite"):
            ds.validate()

    def test_view_shape_requires_alignment(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, ragged=True, length=10)
        if ds.is_aligned(0):  # extremely unlikely under this seed, but be safe
            ds.views[0][0] = rng.normal(size=(2, 99))
        with pytest.raises(DatasetError, match="align"):
            ds.view_shape(0)
