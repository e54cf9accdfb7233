"""Tests for the package's public export list."""

import re
from pathlib import Path

import mvtransfer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_once():
    names = mvtransfer.__all__
    assert len(names) == len(set(names)) == 40
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
        "BossParams",
        "channel_pairwise_distances",
        "WordHistogram",
        "flow_forward",
        "flow_log_density",
        "kde_log_density",
        "save_experiment_config",
        "schedule_to_json_dict",
        "make_synthetic_dataset",
        "build_transfer_schedule",
    ):
        assert removed not in names
        assert not hasattr(mvtransfer, removed)


def test_readme_gives_the_export_count():
    text = " ".join(README.read_text(encoding="utf-8").split())
    counts = re.findall(r"lists all (\d+) exported names", text)
    assert counts == [str(len(mvtransfer.__all__))]
