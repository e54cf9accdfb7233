"""Tests for the package's public export list."""

import mvtransfer


def test_every_export_resolves_once():
    names = mvtransfer.__all__
    assert len(names) == len(set(names)) == 64
    for name in names:
        assert hasattr(mvtransfer, name), name
    for removed in (
        "parameter_count",
        "standardize_per_channel",
        "split_dataset",
        "run_transfer",
        "run_baseline",
        "save_network",
        "load_network",
        "SplitSpec",
    ):
        assert removed not in names
        assert not hasattr(mvtransfer, removed)
