"""Tests for the dynamic time warping distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtransfer.distance import DistanceError, DtwParams, _dtw_many, dtw_distance

from conftest import reference_dtw


def enumerate_warp_paths(x, y, band=None):
    """Oracle: minimum path cost by exhaustive enumeration of every
    monotone, boundary-anchored warp path (steps: advance x, advance y,
    or both).  Exponential, so only for tiny series."""
    n, m = len(x), len(y)
    best = math.inf

    def in_band(i, j):
        return band is None or abs(i - j) <= band

    stack = [(0, 0, abs(x[0] - y[0]))]
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == m - 1:
            best = min(best, acc)
            continue
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < m and in_band(ni, nj):
                stack.append((ni, nj, acc + abs(x[ni] - y[nj])))
    return best


class TestDtwBasics:
    def test_identical_series(self):
        assert dtw_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_points(self):
        """One forced alignment: |1 - 5|."""
        assert dtw_distance([1], [5]) == 4.0

    def test_constant_offset_pair(self):
        assert dtw_distance([0, 0], [1, 1]) == 2.0

    def test_warping_beats_pointwise(self):
        # [0,1,1] vs [0,0,1]: pointwise cost 2, warped cost 0
        assert dtw_distance([0, 1, 1], [0, 0, 1]) == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(DistanceError, match="non-empty"):
            dtw_distance([], [1, 2])
        with pytest.raises(DistanceError, match="non-empty"):
            dtw_distance([1], [])

    def test_infeasible_band_rejected(self):
        with pytest.raises(DistanceError, match="band"):
            dtw_distance([1, 2, 3, 4, 5], [1], DtwParams(band_radius=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_named(self, bad):
        first, second = (
            rf"input {side} \(the {which} series\) contains non-finite"
            for side, which in (("x", "first"), ("y", "second"))
        )
        with pytest.raises(DistanceError, match=first):
            dtw_distance([bad, 1.0], [1.0, 2.0])
        with pytest.raises(DistanceError, match=second):
            dtw_distance([1.0, 2.0], [1.0, 2.0, bad], DtwParams(band_radius=1))

    def test_negative_band_rejected(self):
        with pytest.raises(DistanceError, match="band_radius"):
            DtwParams(band_radius=-1)

    def test_zero_band_equals_pointwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        got = dtw_distance(x, y, DtwParams(band_radius=0))
        assert got == pytest.approx(np.abs(x - y).sum(), abs=1e-12)

    def test_wide_band_equals_unconstrained(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=int(rng.integers(2, 7)))
            y = rng.normal(size=int(rng.integers(2, 7)))
            assert dtw_distance(x, y, DtwParams(band_radius=10)) == dtw_distance(x, y)


class TestDtwProperties:
    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.integers(-5, 6, size=int(rng.integers(1, 7))).tolist()
            y = rng.integers(-5, 6, size=int(rng.integers(1, 7))).tolist()
            d_xy = dtw_distance(x, y)
            d_yx = dtw_distance(y, x)
            assert d_xy == d_yx
            assert d_xy >= 0.0

    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(1, 10)))
            assert dtw_distance(x, x) == 0.0

    def test_pointwise_upper_bound(self):
        """For equal lengths, the diagonal path is feasible, so the optimum
        can never exceed the pointwise sum."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert dtw_distance(x, y) <= np.abs(x - y).sum() + 1e-12


class TestDtwEnumerationOracle:
    def test_exact_match_on_small_integer_series(self):
        """DP result equals exhaustive path enumeration, exactly."""
        rng = np.random.default_rng(5)
        for _ in range(80):
            x = rng.integers(-9, 10, size=int(rng.integers(1, 7))).tolist()
            y = rng.integers(-9, 10, size=int(rng.integers(1, 7))).tolist()
            assert dtw_distance(x, y) == enumerate_warp_paths(x, y)

    def test_exact_match_with_band(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(max(1, n - 2), min(6, n + 2) + 1))
            x = rng.integers(-9, 10, size=n).tolist()
            y = rng.integers(-9, 10, size=m).tolist()
            band = int(rng.integers(abs(n - m), 7))
            got = dtw_distance(x, y, DtwParams(band_radius=band))
            assert got == enumerate_warp_paths(x, y, band=band)

    def test_exact_match_on_float_series(self):
        """Float inputs also agree exactly: both sides add costs in the
        same forward order along any path."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = rng.normal(size=int(rng.integers(1, 7))).tolist()
            y = rng.normal(size=int(rng.integers(1, 7))).tolist()
            assert dtw_distance(x, y) == enumerate_warp_paths(x, y)


def per_pair(x, y, band=None):
    """The row-by-row reference per row pair, after the public
    ``dtw_distance`` on each pair (which raises on invalid lengths and
    must agree with the reference)."""
    public = np.array([dtw_distance(a, b, DtwParams(band_radius=band)) for a, b in zip(x, y)])
    reference = np.array([reference_dtw(a, b, band) for a, b in zip(x, y)])
    assert np.array_equal(public, reference)
    return reference


class TestDtwKernel:
    """The batched wavefront is bit-equal to the row-by-row reference."""

    @pytest.mark.parametrize(
        "p, n, m, band",
        [
            (7, 9, 5, None),
            (7, 4, 11, None),
            (5, 1, 6, None),
            (5, 6, 1, None),
            (3, 1, 1, None),
            (6, 10, 10, 0),
            (6, 9, 7, 2),
            (6, 7, 10, 3),
            (8, 12, 12, 1),
            (8, 12, 12, 2),
            (6, 9, 7, 50),
            (1, 12, 9, None),
            (1, 12, 9, 4),
        ],
    )
    def test_bit_equal_to_reference(self, p, n, m, band):
        rng = np.random.default_rng(100 + 13 * n + m)
        x = rng.normal(size=(p, n))
        y = rng.normal(size=(p, m))
        assert np.array_equal(_dtw_many(x, y, band), per_pair(x, y, band))

    @pytest.mark.parametrize(
        "p, n, m, band",
        [(16, 128, 128, None), (40, 37, 61, 30), (1, 300, 300, None), (1, 300, 290, 12)],
        ids=["workload-sized", "non-square-banded", "one-long-pair", "one-long-pair-banded"],
    )
    def test_large_shapes_bit_equal_to_reference(self, p, n, m, band):
        """Diagonals wider than a few cells and pair blocks of one row."""
        rng = np.random.default_rng(7 * p + n + m)
        x = rng.normal(size=(p, n))
        y = rng.normal(size=(p, m))
        assert np.array_equal(_dtw_many(x, y, band), per_pair(x, y, band))

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: np.pad(a, ((0, 0), (2, 3)))[:, 2:-3],
            np.asfortranarray,
            lambda a: a[::-1, ::-1].copy()[::-1, ::-1],
            lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        ],
        ids=["column-slice", "fortran-order", "reversed-view", "strided-columns"],
    )
    @pytest.mark.parametrize("band", [None, 3])
    def test_non_contiguous_inputs(self, layout, band):
        """Inputs that are not C-contiguous give the same distances as
        their contiguous copies and the reference, and stay unmodified."""
        rng = np.random.default_rng(11)
        x0, y0 = rng.normal(size=(9, 14)), rng.normal(size=(9, 12))
        x, y = layout(x0), layout(y0)
        assert not x.flags.c_contiguous and not y.flags.c_contiguous
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        expected = per_pair(x0, y0, band)
        assert np.array_equal(_dtw_many(x, y, band), expected)
        assert np.array_equal(_dtw_many(x0, y0, band), expected)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_inputs_untouched_and_result_owns_its_data(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(6, 10)), rng.normal(size=(6, 8))
        x_before, y_before = x.copy(), y.copy()
        result = _dtw_many(x, y, 4)
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)
        assert result.shape == (6,) and result.dtype == np.float64
        assert result.flags.owndata and result.base is None
        assert result.flags.c_contiguous and result.flags.writeable

    def test_band_narrower_than_length_gap_rejected(self):
        x, y = np.zeros((2, 5)), np.zeros((2, 1))
        for call in (lambda: _dtw_many(x, y, 1), lambda: per_pair(x, y, 1)):
            with pytest.raises(DistanceError, match="band radius 1 admits no warp path"):
                call()

    def test_empty_series_rejected(self):
        for x, y in ((np.zeros((2, 0)), np.zeros((2, 3))), (np.zeros((2, 3)), np.zeros((2, 0)))):
            for call in (lambda: _dtw_many(x, y), lambda: per_pair(x, y)):
                with pytest.raises(DistanceError, match="non-empty"):
                    call()


series = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


class TestDtwHypothesis:
    @settings(max_examples=80, deadline=None)
    @given(x=series, y=series)
    def test_symmetric(self, x, y):
        assert dtw_distance(x, y) == dtw_distance(y, x)

    @settings(max_examples=80, deadline=None)
    @given(x=series, y=series, band=st.integers(0, 8), extra=st.integers(1, 3))
    def test_wider_band_never_costs_more(self, x, y, band, extra):
        band = max(band, abs(len(x) - len(y)))
        narrow = dtw_distance(x, y, DtwParams(band_radius=band))
        assert dtw_distance(x, y, DtwParams(band_radius=band + extra)) <= narrow

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
        band=st.one_of(st.none(), st.integers(0, 10)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_equals_reference(self, shape, band, seed):
        p, n, m = shape
        if band is not None:
            band = max(band, abs(n - m))
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(p, n)), rng.normal(size=(p, m))
        assert np.array_equal(_dtw_many(x, y, band), per_pair(x, y, band))
