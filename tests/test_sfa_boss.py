"""Tests for the windowed symbolic transform and histogram distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtransfer.distance import (
    DistanceError,
    DtwParams,
    SfaParams,
    _boss_many,
    _word_counts,
    default_sfa_params,
    sfa_fit,
    sfa_transform,
)

from conftest import naive_bins, naive_boss, naive_histogram


def as_dict(hist):
    """A ``(words, counts)`` histogram as the reference's word -> count dict."""
    words, counts = hist
    return dict(zip(words.astype(str).tolist(), counts.tolist()))


def row_dict(words, row):
    """One series' row of a count matrix as a word -> count dict of the
    words it holds."""
    return as_dict((words[row > 0], row[row > 0]))


def as_rows(*histograms):
    """Word -> count dicts as rows of one count matrix over their sorted
    union of words."""
    vocabulary = sorted({w for h in histograms for w in h})
    return np.array([[h.get(w, 0) for w in vocabulary] for h in histograms], dtype=np.int64)


class TestSfaParams:
    def test_rejects_odd_word_length(self):
        with pytest.raises(DistanceError, match="even"):
            SfaParams(window_length=8, word_length=3)

    def test_rejects_word_longer_than_window(self):
        with pytest.raises(DistanceError, match="exceeds"):
            SfaParams(window_length=4, word_length=6)

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(DistanceError, match="alphabet"):
            SfaParams(window_length=8, alphabet_size=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_length", "8"),
            ("window_length", 8.0),
            ("word_length", True),
            ("alphabet_size", None),
            ("mean_normalize", "yes"),
            ("mean_normalize", 1),
        ],
    )
    def test_rejects_wrong_types_naming_the_field(self, field, value):
        kwargs = {"window_length": 8, field: value}
        with pytest.raises(DistanceError, match=rf"{field} must be an? (integer|bool), got "):
            SfaParams(**kwargs)

    def test_accepts_numpy_integers_and_bools(self):
        params = SfaParams(
            window_length=np.int64(8), word_length=np.int32(4), mean_normalize=np.bool_(False)
        )
        assert params.window_length == 8
        assert DtwParams(band_radius=np.int64(3)).band_radius == 3

    @pytest.mark.parametrize("value", ["3", 3.0, True])
    def test_dtw_rejects_non_integer_band(self, value):
        with pytest.raises(DistanceError, match="band_radius must be an integer"):
            DtwParams(band_radius=value)

    def test_defaults_scale_with_length(self):
        p = default_sfa_params(32)
        assert p.window_length == 8
        assert p.word_length == 4
        p = default_sfa_params(100)
        assert p.window_length == 25
        p = default_sfa_params(5)
        assert p.window_length == 5 and p.word_length == 4
        p = default_sfa_params(3)
        assert p.window_length == 3 and p.word_length == 2
        with pytest.raises(DistanceError):
            default_sfa_params(1)


class TestSfaFit:
    def test_constant_corpus_degenerates_to_zero(self):
        """Centred constant windows have all-zero coefficients, so every
        breakpoint collapses to 0."""
        params = SfaParams(window_length=4, word_length=4, alphabet_size=3)
        corpus = [np.full(10, 3.7) for _ in range(3)]
        bins = sfa_fit(corpus, params)
        assert bins.shape == (4, 2)
        assert np.all(bins == 0.0)

    def test_two_symbols_breakpoint_is_median(self):
        """With a 2-letter alphabet the single breakpoint per position is
        the sort-and-index median of that position's pooled values."""
        params = SfaParams(window_length=8, word_length=4, alphabet_size=2)
        rng = np.random.default_rng(10)
        corpus = [rng.normal(size=20) for _ in range(4)]
        bins = sfa_fit(corpus, params)

        # collect the coefficient pool with the naive per-window arithmetic
        pool = []
        for series in corpus:
            x = [float(v) for v in series]
            for start in range(len(x) - 8 + 1):
                window = x[start:start + 8]
                total = 0.0
                for v in window:
                    total += v
                mean = total / 8
                window = [v - mean for v in window]
                values = []
                for freq in (1, 2):
                    re = 0.0
                    im = 0.0
                    for t in range(8):
                        angle = (-2.0 * math.pi * freq * t) / 8
                        re += window[t] * math.cos(angle)
                        im += window[t] * math.sin(angle)
                    values.append(re)
                    values.append(im)
                pool.append(values)
        pool = np.array(pool)
        for p in range(4):
            ordered = sorted(pool[:, p])
            assert bins[p, 0] == ordered[len(ordered) // 2]

    def test_breakpoints_non_decreasing(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            params = SfaParams(
                window_length=int(rng.integers(4, 12)),
                word_length=4,
                alphabet_size=int(rng.integers(2, 8)),
            )
            corpus = [
                rng.normal(size=int(rng.integers(params.window_length, 40)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            bins = sfa_fit(corpus, params)
            for row in bins:
                assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))

    def test_window_longer_than_shortest_series(self):
        params = SfaParams(window_length=10, word_length=4)
        with pytest.raises(DistanceError, match="shortest"):
            sfa_fit([np.zeros(20), np.zeros(5)], params)

    def test_empty_corpus(self):
        with pytest.raises(DistanceError, match="non-empty"):
            sfa_fit([], SfaParams(window_length=4))


class TestSfaTransform:
    def test_deterministic_on_copies(self):
        rng = np.random.default_rng(12)
        params = SfaParams(window_length=8, word_length=4, alphabet_size=3)
        x = rng.normal(size=25)
        bins = sfa_fit([x], params)
        (w1, c1), (w2, c2) = sfa_transform(x, bins, params), sfa_transform(x.copy(), bins, params)
        assert np.array_equal(w1, w2) and np.array_equal(c1, c2)

    def test_constant_series_single_word(self):
        """All windows identical, so duplicate collapsing leaves one word
        with count 1."""
        params = SfaParams(window_length=4, word_length=4, alphabet_size=3)
        x = np.full(12, 2.0)
        bins = sfa_fit([x], params)
        words, counts = sfa_transform(x, bins, params)
        assert len(words) == 1
        assert counts.tolist() == [1]

    def test_word_shape(self):
        rng = np.random.default_rng(13)
        params = SfaParams(window_length=8, word_length=6, alphabet_size=5)
        x = rng.normal(size=30)
        bins = sfa_fit([x], params)
        words, counts = sfa_transform(x, bins, params)
        assert words.dtype == np.dtype("S6")
        for word, count in as_dict((words, counts)).items():
            assert len(word) == 6
            assert all("a" <= ch <= "e" for ch in word)
            assert count >= 1

    def test_too_short_series(self):
        params = SfaParams(window_length=8, word_length=4)
        bins = np.zeros((4, 3))
        with pytest.raises(DistanceError, match="shorter"):
            sfa_transform(np.zeros(5), bins, params)

    def test_matches_naive_reference(self):
        """Word-for-word histogram equality with the straight-line
        reference, bins fitted on the series itself."""
        rng = np.random.default_rng(14)
        params = SfaParams(window_length=8, word_length=4, alphabet_size=3)
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(8, 31)))
            bins = sfa_fit([x], params)
            assert as_dict(sfa_transform(x, bins, params)) == naive_histogram(x, bins, params)

    def test_matches_naive_reference_no_centering(self):
        rng = np.random.default_rng(15)
        params = SfaParams(
            window_length=6, word_length=4, alphabet_size=4, mean_normalize=False
        )
        for _ in range(15):
            corpus = [rng.normal(size=int(rng.integers(6, 25))) for _ in range(3)]
            bins = sfa_fit(corpus, params)
            for x in corpus:
                assert as_dict(sfa_transform(x, bins, params)) == naive_histogram(x, bins, params)


@st.composite
def sfa_cases(draw):
    """Transform settings plus a corpus of 1-4 series, each from a single
    window up to 40 points; values repeat often, so constant windows and
    coefficients tied with a breakpoint come up."""
    w = draw(st.integers(2, 16))
    params = SfaParams(
        window_length=w,
        word_length=2 * draw(st.integers(1, w // 2)),
        alphabet_size=draw(st.integers(2, 26)),
        mean_normalize=draw(st.booleans()),
    )
    value = st.one_of(
        st.sampled_from([0.0, 1.0, -2.5]),
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    )
    lengths = draw(st.lists(st.integers(w, 40), min_size=1, max_size=4))
    corpus = [np.array(draw(st.lists(value, min_size=n, max_size=n))) for n in lengths]
    return params, corpus


class TestSfaHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(case=sfa_cases())
    def test_fit_and_transform_equal_naive_reference(self, case):
        params, corpus = case
        bins = sfa_fit(corpus, params)
        assert bins.tolist() == naive_bins(corpus, params)
        for series in corpus:
            assert as_dict(sfa_transform(series, bins, params)) == naive_histogram(
                series, bins, params
            )

    @settings(max_examples=150, deadline=None)
    @given(case=sfa_cases())
    def test_histograms_sorted_positive_and_distances_exact(self, case):
        """One ``_word_counts`` call over the corpus and its reversed series
        lists the observed words sorted and distinct, each series' row
        equals its reference histogram, and every pairwise distance equals
        the two-loop reference bit for bit."""
        params, corpus = case
        series = [*corpus, *(s[::-1] for s in corpus)]
        bins = sfa_fit(corpus, params)
        words, counts = _word_counts(series, bins, params)
        assert np.all(words[:-1] < words[1:])
        assert counts.dtype == np.int64 and np.all(counts.sum(0) >= 1)
        expected = [naive_histogram(s, bins, params) for s in series]
        assert [row_dict(words, row) for row in counts] == expected
        a, b = np.divmod(np.arange(len(series) ** 2), len(series))
        distances = _boss_many(counts[a], counts[b])
        for i, j, produced in zip(a, b, distances):
            assert produced == naive_boss(expected[i], expected[j])


class TestBossDistance:
    def test_identical_histograms(self):
        rows = as_rows({"ab": 3, "ba": 1}, {"ab": 3, "ba": 1})
        assert _boss_many(rows[:1], rows[1:]).tolist() == [0.0]

    def test_one_sided_example(self):
        """{ab: 2} vs empty: half of (2-0)^2 plus an empty sum."""
        rows = as_rows({"ab": 2}, {})
        assert _boss_many(rows[:1], rows[1:]).tolist() == [2.0]

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            ha, hb = _random_histograms(rng)
            rows = as_rows(ha, hb)
            assert _boss_many(rows[:1], rows[1:]).tolist() == _boss_many(rows[1:], rows[:1]).tolist()

    def test_matches_two_loop_reference(self):
        rng = np.random.default_rng(17)
        pairs = [_random_histograms(rng) for _ in range(30)]
        rows = as_rows(*(h for pair in pairs for h in pair))
        produced = _boss_many(rows[0::2], rows[1::2])
        assert produced.tolist() == [naive_boss(ha, hb) for ha, hb in pairs]


def _random_histograms(rng):
    vocab = ["".join(c) for c in zip("abcab", "abcba")]
    ha = {w: int(rng.integers(1, 6)) for w in vocab if rng.random() < 0.6}
    hb = {w: int(rng.integers(1, 6)) for w in vocab if rng.random() < 0.6}
    return ha, hb


class TestBossEndToEnd:
    def test_identical_series_zero_distance(self):
        rng = np.random.default_rng(18)
        params = SfaParams(window_length=8, word_length=4, alphabet_size=4)
        x = rng.normal(size=30)
        bins = sfa_fit([x], params)
        _, counts = _word_counts([x, x.copy()], bins, params)
        assert _boss_many(counts[:1], counts[1:]).tolist() == [0.0]
