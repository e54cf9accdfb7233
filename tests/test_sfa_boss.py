"""Tests for the windowed symbolic transform and histogram distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtransfer.distance import (
    DistanceError,
    DtwParams,
    SfaParams,
    boss_distance,
    default_sfa_params,
    sfa_fit,
    sfa_transform,
)


def naive_coefficients(series, params):
    """Per-window coefficient lists written straight from the definition:
    explicit per-window loops, trigonometric sums term by term."""
    x = [float(v) for v in series]
    w = params.window_length
    n_complex = params.word_length // 2
    first_freq = 1 if params.mean_normalize else 0
    out = []
    for start in range(len(x) - w + 1):
        window = x[start:start + w]
        if params.mean_normalize:
            total = 0.0
            for v in window:
                total += v
            mean = total / w
            window = [v - mean for v in window]
        values = []
        for freq in range(first_freq, first_freq + n_complex):
            re = 0.0
            im = 0.0
            for t in range(w):
                angle = (-2.0 * math.pi * freq * t) / w
                re += window[t] * math.cos(angle)
                im += window[t] * math.sin(angle)
            values.append(re)
            values.append(im)
        out.append(values)
    return out


def naive_bins(corpus, params):
    """Equi-depth breakpoints: each position's pooled window values sorted,
    then picked at the depth quantiles."""
    pool = []
    for series in corpus:
        pool.extend(naive_coefficients(series, params))
    n = len(pool)
    a = params.alphabet_size
    return [
        [sorted(row[p] for row in pool)[(j * n) // a] for j in range(1, a)]
        for p in range(params.word_length)
    ]


def naive_histogram(series, bins, params):
    """Reference transform: naive coefficients, breakpoint counting by
    comparison chain, duplicate-run collapsing."""
    words = []
    for values in naive_coefficients(series, params):
        word = ""
        for pos, value in enumerate(values):
            symbol = 0
            for b in bins[pos]:
                if value >= b:
                    symbol += 1
            word += chr(ord("a") + symbol)
        words.append(word)
    collapsed = []
    for word in words:
        if not collapsed or collapsed[-1] != word:
            collapsed.append(word)
    counts = {}
    for word in collapsed:
        counts[word] = counts.get(word, 0) + 1
    return counts


def as_dict(hist):
    """A ``(words, counts)`` histogram as the reference's word -> count dict."""
    words, counts = hist
    return dict(zip(words.astype(str).tolist(), counts.tolist()))


def as_arrays(counts):
    """A word -> count dict as a ``(words, counts)`` histogram."""
    words = sorted(counts)
    return (
        np.array(words, dtype=f"S{max(map(len, words), default=1)}"),
        np.array([counts[w] for w in words], dtype=np.intp),
    )


def naive_boss(counts_a, counts_b):
    """Two-loop reference for the symmetrized histogram distance."""
    d_ab = 0.0
    for word in counts_a:
        d_ab += (counts_a[word] - counts_b.get(word, 0)) ** 2
    d_ba = 0.0
    for word in counts_b:
        d_ba += (counts_b[word] - counts_a.get(word, 0)) ** 2
    return 0.5 * (d_ab + d_ba)


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
        """Words come back sorted and distinct with counts of at least 1,
        and every pairwise distance, over the corpus and its reversed
        series, equals the two-loop dict reference bit for bit."""
        params, corpus = case
        bins = sfa_fit(corpus, params)
        hists = [sfa_transform(s, bins, params) for s in [*corpus, *(s[::-1] for s in corpus)]]
        for words, counts in hists:
            assert np.all(words[:-1] < words[1:])
            assert np.all(counts >= 1)
        for ha in hists:
            for hb in hists:
                assert boss_distance(ha, hb) == naive_boss(as_dict(ha), as_dict(hb))


class TestBossDistance:
    def test_identical_histograms(self):
        h = as_arrays({"ab": 3, "ba": 1})
        assert boss_distance(h, h) == 0.0

    def test_one_sided_example(self):
        """{ab: 2} vs empty: half of (2-0)^2 plus an empty sum."""
        assert boss_distance(as_arrays({"ab": 2}), as_arrays({})) == 2.0

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            ha, hb = _random_histograms(rng)
            assert boss_distance(ha, hb) == boss_distance(hb, ha)

    def test_matches_two_loop_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            ha, hb = _random_histograms(rng)
            assert boss_distance(ha, hb) == naive_boss(as_dict(ha), as_dict(hb))


def _random_histograms(rng):
    vocab = ["".join(c) for c in zip("abcab", "abcba")]
    ha = {w: int(rng.integers(1, 6)) for w in vocab if rng.random() < 0.6}
    hb = {w: int(rng.integers(1, 6)) for w in vocab if rng.random() < 0.6}
    return as_arrays(ha), as_arrays(hb)


class TestBossEndToEnd:
    def test_identical_series_zero_distance(self):
        rng = np.random.default_rng(18)
        params = SfaParams(window_length=8, word_length=4, alphabet_size=4)
        x = rng.normal(size=30)
        bins = sfa_fit([x], params)
        ha = sfa_transform(x, bins, params)
        hb = sfa_transform(x.copy(), bins, params)
        assert boss_distance(ha, hb) == 0.0
