"""Tests for the package's public export list."""

import mvtransfer


def test_every_export_resolves_once():
    names = mvtransfer.__all__
    assert len(names) == len(set(names)) == 70
    for name in names:
        assert hasattr(mvtransfer, name), name
    for removed in ("parameter_count", "standardize_per_channel"):
        assert removed not in names
        assert not hasattr(mvtransfer, removed)
