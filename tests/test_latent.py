"""Tests for channel-wise distance vectors and latent-set assembly."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mvtransfer.dataset import DatasetError, MultiViewDataset, as_json, from_json
from mvtransfer.distance import (
    DistanceError,
    DtwParams,
    ImportanceLatentSet,
    SfaParams,
    build_latent_set,
    default_sfa_params,
)

from conftest import make_random_dataset, naive_bins, naive_boss, naive_histogram, reference_dtw


def two_view_dataset(rng, n=4, k=2, m=12, copy_target=False):
    target = [rng.normal(size=(k, m)) for _ in range(n)]
    if copy_target:
        source = [s.copy() for s in target]
    else:
        source = [rng.normal(size=(k, m)) for _ in range(n)]
    return MultiViewDataset(
        views=[source, target],
        labels=[f"c{i % 2}" for i in range(n)],
        sample_ids=[f"s{i}" for i in range(n)],
    )


@st.composite
def distance_arrays(draw):
    """Two (N, K) arrays of finite non-negative distances, N >= 2, K >= 1."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(1, 4)))
    distances = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    return (
        draw(arrays(np.float64, shape, elements=distances)),
        draw(arrays(np.float64, shape, elements=distances)),
    )


def unequal_views_dataset(rng, n=6, k=2, source_length=12, target_length=17):
    """Two aligned views whose lengths differ from each other."""
    return pair_dataset(
        rng.normal(size=(n, k, source_length)), rng.normal(size=(n, k, target_length))
    )


def pair_dataset(sources, targets):
    """Two views holding the given (K, length) samples, pair by pair."""
    n = len(sources)
    return MultiViewDataset(
        views=[list(sources), list(targets)],
        labels=[f"c{i % 2}" for i in range(n)],
        sample_ids=[f"s{i}" for i in range(n)],
    )


@st.composite
def boss_view_pairs(draw):
    """Symbolic settings and two aligned (N, K, length) views of lengths
    that may differ.  Half the cases take a 26-letter alphabet with words
    of 14 letters or more, too many for an int64 code of a word; one series
    may be constant, and rounded values tie coefficients with breakpoints."""
    if draw(st.booleans()):
        w = draw(st.integers(14, 18))
        word_length, alphabet = 2 * draw(st.integers(7, w // 2)), 26
    else:
        w = draw(st.integers(2, 12))
        word_length, alphabet = 2 * draw(st.integers(1, w // 2)), draw(st.integers(2, 26))
    params = SfaParams(w, word_length, alphabet, mean_normalize=draw(st.booleans()))
    n, k = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = rng.normal(size=(n, k, draw(st.integers(w, w + 8))))
    targets = rng.normal(size=(n, k, draw(st.integers(w, w + 8))))
    if draw(st.booleans()):
        sources, targets = np.round(sources), np.round(targets)
    constant = draw(st.sampled_from([None, sources, targets]))
    if constant is not None:
        constant[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = 1.5
    return params, sources, targets


class TestBuildLatentSet:
    def test_identical_views_all_zero(self):
        rng = np.random.default_rng(23)
        ds = two_view_dataset(rng, k=3, m=10, copy_target=True)
        for measure in ("dtw", "boss"):
            latent = build_latent_set(ds, 0, 1, measure)
            assert latent.vectors.shape == (4, 3)
            assert np.all(latent.vectors == 0.0)
            assert np.all(latent.raw_vectors == 0.0)

    def test_compositional_oracle(self):
        """Each vector is the per-channel reference warping distance of
        that pair over the pair's mean length."""
        rng = np.random.default_rng(24)
        ds = two_view_dataset(rng, n=3, k=2)
        latent = build_latent_set(ds, 0, 1, "dtw")
        assert latent.size == 3
        assert latent.dimension == 2
        for i in range(3):
            pair = zip(ds.views[0][i], ds.views[1][i])
            expected = np.array([reference_dtw(a, b) for a, b in pair]) / 12.0
            assert np.array_equal(latent.vectors[i], expected)

    def test_componentwise_equals_scalar_op(self):
        """Each raw component equals the scalar distance on that channel."""
        source = np.array([[1.0, 1.0], [0.0, 0.0]])
        target = np.array([[5.0, 5.0], [1.0, 1.0]])
        latent = build_latent_set(pair_dataset([source, target], [target, source]), 0, 1, "dtw")
        for k in range(2):
            assert latent.raw_vectors[0, k] == reference_dtw(source[k], target[k]) == (8.0, 2.0)[k]
            assert latent.raw_vectors[1, k] == reference_dtw(target[k], source[k])

    def test_normalization_unequal_lengths(self):
        """Views of lengths 12 and 17: every row is divided by the mean of
        the two lengths, (12 + 17) / 2."""
        ds = unequal_views_dataset(np.random.default_rng(22), n=2, k=1)
        latent = build_latent_set(ds, 0, 1, "dtw")
        assert np.array_equal(latent.vectors, latent.raw_vectors / np.full((2, 1), 14.5))
        for i, (s, t) in enumerate(zip(*ds.views)):
            assert latent.raw_vectors[i, 0] == reference_dtw(s[0], t[0])

    def test_ragged_views_rejected(self):
        """Distances compare aligned views only; ragged ones must be
        aligned first."""
        ds = make_random_dataset(np.random.default_rng(36), ragged=True)
        assert not ds.is_aligned(0)
        with pytest.raises(DatasetError, match="align_lengths must run first"):
            build_latent_set(ds, 0, 1, "dtw")

    def test_unknown_measure_rejected(self):
        ds = two_view_dataset(np.random.default_rng(20))
        message = r"measure must be one of \('dtw', 'boss'\), got 'euclid'"
        with pytest.raises(DistanceError, match=message):
            build_latent_set(ds, 0, 1, "euclid")

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_non_finite_dtw_input_named(self, side):
        """A NaN in either view is named as the input at fault, not
        reported as a band too narrow for any warp path.  The dataset
        rejects NaN on construction, so it is written in afterwards."""
        ds = pair_dataset([np.zeros((2, 5))] * 2, [np.ones((2, 5))] * 2)
        view = 0 if side == "source" else 1
        ds.views[view][1, 1, 2] = np.nan
        name = "x (the first series)" if side == "source" else "y (the second series)"
        with pytest.raises(DistanceError, match=rf"input {re.escape(name)} contains non-finite"):
            build_latent_set(ds, 0, 1, "dtw")

    def test_wrong_params_type_rejected(self):
        ds = two_view_dataset(np.random.default_rng(21))
        with pytest.raises(DistanceError, match="dtw measure expects DtwParams, got SfaParams"):
            build_latent_set(ds, 0, 1, "dtw", measure_params=SfaParams(window_length=4))
        with pytest.raises(DistanceError, match="boss measure expects SfaParams, got DtwParams"):
            build_latent_set(ds, 0, 1, "boss", measure_params=DtwParams())

    def test_vector_invariants(self):
        for bad in (-0.5, np.nan):
            rows = np.array([[1.0, bad], [0.0, 0.0]])
            with pytest.raises(DistanceError, match="non-negative"):
                ImportanceLatentSet("dtw", 0, 1, vectors=rows)
            with pytest.raises(DistanceError, match="non-negative"):
                ImportanceLatentSet("dtw", 0, 1, vectors=np.ones((2, 2)), raw_vectors=rows)

    def test_permutation_gives_same_multiset(self):
        rng = np.random.default_rng(25)
        ds = two_view_dataset(rng, n=5)
        latent = build_latent_set(ds, 0, 1, "dtw")
        order = [3, 1, 4, 0, 2]
        permuted = MultiViewDataset(
            views=[[view[i] for i in order] for view in ds.views],
            labels=[ds.labels[i] for i in order],
            sample_ids=[ds.sample_ids[i] for i in order],
        )
        latent_p = build_latent_set(permuted, 0, 1, "dtw")
        original = sorted(map(tuple, latent.vectors.tolist()))
        shuffled = sorted(map(tuple, latent_p.vectors.tolist()))
        assert original == shuffled

    def test_boss_uses_shared_pooled_bins(self):
        """Pooled breakpoints mean a sample pair's distance depends only on
        the pool, so duplicating the pair elsewhere changes nothing."""
        rng = np.random.default_rng(26)
        ds = two_view_dataset(rng, n=4, m=20)
        params = SfaParams(window_length=8, word_length=4, alphabet_size=3)
        latent = build_latent_set(ds, 0, 1, "boss", measure_params=params)
        assert latent.size == 4
        assert np.all(latent.vectors >= 0.0)

    @pytest.mark.parametrize("given", ["sfa", "none"])
    def test_boss_rows_match_pooled_bin_oracle(self, given):
        """Each row equals the channel-wise histogram distances under
        breakpoints fitted per channel on the pooled channel series of both
        views, over the pair's mean length."""
        rng = np.random.default_rng(33)
        n, k, m = 5, 2, 20
        ds = two_view_dataset(rng, n=n, k=k, m=m)
        sfa = SfaParams(window_length=8, word_length=4, alphabet_size=3)
        latent = build_latent_set(ds, 0, 1, "boss", measure_params=sfa if given == "sfa" else None)
        if given == "none":
            sfa = default_sfa_params(m)

        def distances(pair, bins):
            return np.array([
                naive_boss(naive_histogram(s, b, sfa), naive_histogram(t, b, sfa))
                for s, t, b in zip(*pair, bins)
            ])

        pooled = [
            naive_bins([sample[c] for view in ds.views for sample in view], sfa) for c in range(k)
        ]
        per_pair_differs = False
        for i in range(n):
            pair = (ds.views[0][i], ds.views[1][i])
            raw = distances(pair, pooled)
            assert np.array_equal(latent.raw_vectors[i], raw)
            assert np.array_equal(latent.vectors[i], raw / float(m))
            own_bins = [naive_bins([pair[0][c], pair[1][c]], sfa) for c in range(k)]
            per_pair_differs |= not np.array_equal(distances(pair, own_bins), raw)
        # The oracle would not tell pooled from per-pair bins otherwise.
        assert per_pair_differs

    @settings(max_examples=100, deadline=None)
    @given(case=boss_view_pairs())
    def test_boss_rows_equal_naive_reference(self, case):
        """Every boss row equals the naive per-channel histogram distances
        under naive breakpoints pooled over both views' channel series, and
        a view scored against its own copy reads 0 everywhere."""
        params, sources, targets = case
        latent = build_latent_set(pair_dataset(sources, targets), 0, 1, "boss", measure_params=params)
        bins = [naive_bins([*sources[:, c], *targets[:, c]], params) for c in range(sources.shape[1])]
        expected = [
            [
                naive_boss(naive_histogram(s_c, b, params), naive_histogram(t_c, b, params))
                for s_c, t_c, b in zip(s, t, bins)
            ]
            for s, t in zip(sources, targets)
        ]
        assert latent.raw_vectors.tolist() == expected
        mean_length = (sources.shape[2] + targets.shape[2]) / 2.0
        assert np.array_equal(latent.vectors, np.array(expected) / mean_length)
        same = build_latent_set(pair_dataset(sources, sources.copy()), 0, 1, "boss", measure_params=params)
        assert np.all(same.raw_vectors == 0.0)

    def test_dtw_does_not_run_the_single_pair_reference(self, monkeypatch):
        """Every channel pair goes through the batched kernel."""
        import mvtransfer.distance as distance

        def refuse(*args, **kwargs):
            raise AssertionError("dtw_distance was called")

        monkeypatch.setattr(distance, "dtw_distance", refuse)
        ds = unequal_views_dataset(np.random.default_rng(34), n=5)
        assert build_latent_set(ds, 0, 1, "dtw").size == 5

    @pytest.mark.parametrize("band", [None, 8], ids=["free", "band"])
    def test_unequal_view_lengths_rows_equal_per_pair_reference(self, band):
        """Views of lengths 12 and 17 come back in sample order, bit-equal
        to the row-by-row reference per channel pair over the mean length."""
        ds = unequal_views_dataset(np.random.default_rng(35), n=12, k=3)
        params = DtwParams(band_radius=band)
        latent = build_latent_set(ds, 0, 1, "dtw", measure_params=params)
        for i, (s, t) in enumerate(zip(*ds.views)):
            raw = np.array([reference_dtw(a, b, band) for a, b in zip(s, t)])
            assert np.array_equal(latent.raw_vectors[i], raw)
            assert np.array_equal(latent.vectors[i], raw / ((12 + 17) / 2.0))

    def test_bad_view_indices(self):
        rng = np.random.default_rng(27)
        ds = two_view_dataset(rng)
        with pytest.raises(DistanceError, match="out of range"):
            build_latent_set(ds, 0, 5, "dtw")
        with pytest.raises(DistanceError, match="differ"):
            build_latent_set(ds, 1, 1, "dtw")

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(28)
        ds = make_random_dataset(rng, n_views=2, channels=(2, 3), n_samples=4)
        with pytest.raises(DistanceError, match="channel count"):
            build_latent_set(ds, 0, 1, "dtw")

    def test_raw_vectors_follow_normalization(self):
        rng = np.random.default_rng(29)
        ds = two_view_dataset(rng, m=10)
        latent = build_latent_set(ds, 0, 1, "dtw")
        assert np.array_equal(latent.vectors, latent.raw_vectors / 10.0)

    def test_band_parameter_threads_through(self):
        rng = np.random.default_rng(30)
        ds = two_view_dataset(rng, m=8)
        latent = build_latent_set(ds, 0, 1, "dtw", measure_params=DtwParams(band_radius=0))
        expected = np.stack([
            np.abs(ds.views[0][i] - ds.views[1][i]).sum(axis=1) / 8.0
            for i in range(ds.n_samples)
        ])
        assert np.allclose(latent.vectors, expected)


class TestLatentSerialization:
    def test_json_payload(self):
        rng = np.random.default_rng(31)
        ds = two_view_dataset(rng)
        latent = build_latent_set(ds, 0, 1, "dtw")
        payload = json.loads(json.dumps(as_json(latent)))
        assert list(payload) == [
            "measure", "source_view", "target_view", "vectors", "raw_vectors"
        ]
        assert payload["measure"] == latent.measure
        assert payload["source_view"] == 0 and payload["target_view"] == 1
        assert {len(row) for row in payload["vectors"]} == {latent.dimension}
        assert np.array_equal(payload["vectors"], latent.vectors)
        assert np.array_equal(payload["raw_vectors"], latent.raw_vectors)

    @settings(max_examples=60, deadline=None)
    @given(data=distance_arrays(), with_raw=st.booleans())
    def test_json_bytes_round_trip(self, data, with_raw):
        vectors, raw = data
        latent = ImportanceLatentSet(
            "boss", 1, 0, vectors=vectors, raw_vectors=raw if with_raw else None
        )
        payload = json.loads(json.dumps(as_json(latent)))
        assert np.array(payload["vectors"]).tobytes() == vectors.tobytes()
        if with_raw:
            assert np.array(payload["raw_vectors"]).tobytes() == raw.tobytes()
        else:
            assert payload["raw_vectors"] is None
        back = from_json(ImportanceLatentSet, payload, "latent")
        assert back.vectors.tobytes() == vectors.tobytes()
        if with_raw:
            assert back.raw_vectors.tobytes() == raw.tobytes()
        else:
            assert back.raw_vectors is None

    @settings(max_examples=60, deadline=None)
    @given(
        data=distance_arrays(),
        bad=st.floats(max_value=0.0, exclude_max=True) | st.just(math.nan),
        in_raw=st.booleans(),
        where=st.tuples(st.integers(0, 1_000), st.integers(0, 1_000)),
    )
    def test_negative_or_nan_entry_rejected(self, data, bad, in_raw, where):
        vectors, raw = data
        target = raw if in_raw else vectors
        target[where[0] % target.shape[0], where[1] % target.shape[1]] = bad
        with pytest.raises(DistanceError, match="non-negative"):
            ImportanceLatentSet("dtw", 0, 1, vectors=vectors, raw_vectors=raw)
        with pytest.raises(DistanceError, match="non-negative"):
            ImportanceLatentSet("dtw", 0, 1, vectors=vectors.tolist(), raw_vectors=raw.tolist())

    def test_ragged_rows_rejected(self):
        ragged = [[0.0, 1.0], [1.0]]
        with pytest.raises(DistanceError, match="differ in length"):
            ImportanceLatentSet("dtw", 0, 1, vectors=ragged)
        with pytest.raises(DistanceError, match="differ in length"):
            ImportanceLatentSet("dtw", 0, 1, vectors=np.ones((2, 2)), raw_vectors=ragged)
