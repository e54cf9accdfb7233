"""Tests for dataset loading, validation, alignment and splitting."""

import json

import numpy as np
import pytest

from mvtransfer.dataset import (
    ALIGNMENT_STRATEGIES,
    DatasetError,
    MultiViewDataset,
    SplitSpec,
    align_lengths,
    emit_dataset,
    load_dataset,
    split_dataset,
)

from conftest import make_random_dataset


def write_fixture(root, view_rows, manifest=None):
    """Write a dataset directory from raw CSV row lists."""
    if manifest is None:
        manifest = {
            "views": 2,
            "samples": ["a", "b", "c"],
            "labels": {"a": "left", "b": "right", "c": "left"},
            "view_files": ["view_0.csv", "view_1.csv"],
        }
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

    def test_groups_loaded(self, tmp_path):
        manifest = {
            "views": 2,
            "samples": ["a", "b", "c"],
            "labels": {"a": "left", "b": "right", "c": "left"},
            "view_files": ["view_0.csv", "view_1.csv"],
            "groups": {"a": "subj1", "b": "subj1", "c": "subj2"},
        }
        write_fixture(
            tmp_path, {"view_0.csv": basic_rows(), "view_1.csv": basic_rows()}, manifest=manifest
        )
        ds = load_dataset(tmp_path)
        assert ds.groups == {"a": "subj1", "b": "subj1", "c": "subj2"}


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
                with_groups=bool(trial == 4),
            )
            out = tmp_path / f"trial{trial}"
            emit_dataset(ds, out)
            back = load_dataset(out)
            assert back.sample_ids == ds.sample_ids
            assert back.labels == ds.labels
            assert back.groups == ds.groups
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
        spec = SplitSpec(mode="fraction", train_fraction=0.5, seed=42)
        tr1, te1 = split_dataset(ds, spec)
        tr2, te2 = split_dataset(ds, spec)
        assert tr1.sample_ids == tr2.sample_ids
        assert te1.sample_ids == te2.sample_ids
        assert len(tr1.sample_ids) == 5

    def test_fraction_set_oracle(self):
        """Fraction 0.7 on 100 samples: sizes 70/30, disjoint, exhaustive union."""
        rng = np.random.default_rng(6)
        ds = make_random_dataset(rng, n_samples=100, n_classes=4)
        train, test = split_dataset(ds, SplitSpec(mode="fraction", train_fraction=0.7, seed=1))
        train_set, test_set = set(train.sample_ids), set(test.sample_ids)
        assert len(train_set) == 70
        assert len(test_set) == 30
        assert train_set & test_set == set()
        assert train_set | test_set == set(ds.sample_ids)

    def test_labels_stay_aligned(self):
        rng = np.random.default_rng(8)
        ds = make_random_dataset(rng, n_samples=20, n_classes=4)
        by_id = dict(zip(ds.sample_ids, ds.labels))
        train, test = split_dataset(ds, SplitSpec(train_fraction=0.6, seed=3))
        for part in (train, test):
            assert part.labels == [by_id[sid] for sid in part.sample_ids]
            for v in range(part.n_views):
                assert len(part.views[v]) == part.n_samples

    def test_by_group_partition(self):
        """8 groups, train on 6 of them: group-pure 6/2 partition."""
        rng = np.random.default_rng(9)
        n = 16
        views = [[rng.normal(size=(2, 5)) for _ in range(n)] for _ in range(2)]
        ids = [f"s{i}" for i in range(n)]
        groups = {sid: f"g{i % 8}" for i, sid in enumerate(ids)}
        ds = MultiViewDataset(
            views=views, labels=[f"c{i % 2}" for i in range(n)], sample_ids=ids, groups=groups
        )
        spec = SplitSpec(mode="by-group", train_groups={f"g{j}" for j in range(6)})
        train, test = split_dataset(ds, spec)
        assert {groups[sid] for sid in train.sample_ids} == {f"g{j}" for j in range(6)}
        assert {groups[sid] for sid in test.sample_ids} == {"g6", "g7"}
        assert train.n_samples + test.n_samples == n

    def test_by_group_uses_spec_assignment(self):
        rng = np.random.default_rng(10)
        ds = make_random_dataset(rng, n_samples=8, n_classes=2)
        assignment = {sid: ("early" if i < 4 else "late") for i, sid in enumerate(ds.sample_ids)}
        spec = SplitSpec(mode="by-group", train_groups={"early"}, group_assignment=assignment)
        train, test = split_dataset(ds, spec)
        assert train.sample_ids == ds.sample_ids[:4]
        assert test.sample_ids == ds.sample_ids[4:]

    def test_phantom_group_rejected(self):
        rng = np.random.default_rng(12)
        ds = make_random_dataset(rng, n_samples=8, with_groups=True)
        spec = SplitSpec(mode="by-group", train_groups={"g0", "nosuch"})
        with pytest.raises(DatasetError, match="nosuch"):
            split_dataset(ds, spec)

    def test_empty_partition_rejected(self):
        rng = np.random.default_rng(13)
        ds = make_random_dataset(rng, n_samples=3)
        with pytest.raises(DatasetError, match="partition"):
            split_dataset(ds, SplitSpec(train_fraction=0.95))

    def test_bad_specs_rejected(self):
        with pytest.raises(DatasetError, match="mode"):
            SplitSpec(mode="thirds")
        with pytest.raises(DatasetError, match="fraction"):
            SplitSpec(train_fraction=1.5)


class TestValidation:
    def test_rejects_single_view(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DatasetError, match="2 views"):
            make_random_dataset(rng, n_views=1)

    def test_rejects_mixed_channel_counts(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng)
        ds.views[0][1] = rng.normal(size=(3, 12))
        with pytest.raises(DatasetError, match="channel counts"):
            ds.validate()

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

    def test_label_indices(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, n_samples=6, n_classes=3)
        idx = ds.label_indices()
        assert idx.tolist() == [0, 1, 2, 0, 1, 2]
