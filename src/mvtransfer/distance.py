"""Channel-wise series distances and the latent distance-vector set.

Two univariate distance measures are provided: dynamic time warping
(optionally band-constrained) and a bag-of-symbolic-words histogram
distance built on a windowed truncated Fourier transform with
equi-depth coefficient binning.  ``build_latent_set`` applies either
measure channel-by-channel to every corresponding sample pair of a
source/target view pair, stacking the distance vectors into one (N, K)
array; for the histogram measure it fits breakpoints once per channel on
that channel's series pooled over both views.  Warping has one
implementation, a batched anti-diagonal kernel whose arrays put the pair
axis last, so each diagonal over all pairs is one contiguous block;
``dtw_distance`` runs it on one series pair.

The symbolic measure makes one array pass per channel over all 2N series
of a view pair.  The series' stride-1 windows are one index gather from
the concatenated series, their truncated Fourier coefficients one
(windows, word_length) array, and the letters one comparison against the
breakpoints, read as fixed-width byte words.  Runs of a repeated word
collapse over the whole window array, breaking at every series boundary;
one ``np.unique`` lists the words observed in the channel, and one
``np.bincount`` gives the (2N, words) count matrix.  A dense count vector
over the whole alphabet (``alphabet_size ** word_length`` bins) is never
built.  The histogram distance is int64 arithmetic on count rows, so it
is exact.  The coefficients are direct-definition sums (no FFT)
accumulated over the window offset in order, so they are bit-equal to a
per-window reference reimplementation, which the test suite relies on.
``sfa_transform`` runs the word count on one series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mvtransfer.dataset import MultiViewDataset


class DistanceError(ValueError):
    """Raised for invalid distance parameters or incompatible inputs."""


def _check_integer(name: str, value) -> None:
    """Reject a parameter that is not an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DistanceError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# dynamic time warping


@dataclass(frozen=True)
class DtwParams:
    """Warping options.  ``band_radius`` None means unconstrained."""

    band_radius: int | None = None

    def __post_init__(self):
        if self.band_radius is None:
            return
        _check_integer("band_radius", self.band_radius)
        if self.band_radius < 0:
            raise DistanceError(f"band_radius must be >= 0, got {self.band_radius}")


def dtw_distance(x, y, params: DtwParams | None = None) -> float:
    """Minimum cumulative absolute-difference cost over monotone warp paths.

    Paths start at the first observation pair, end at the last, and move by
    unit steps in either or both series.  With a band radius r only cells
    with |i - j| <= r participate.  Runs ``_dtw_many`` on the one row pair.
    """
    params = params or DtwParams()
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    return float(_dtw_many(x, y, params.band_radius)[0])


def _dtw_many(x: np.ndarray, y: np.ndarray, band_radius: int | None = None) -> np.ndarray:
    """(P,) DTW distances between the rows of float64 ``x`` (P, n) and ``y`` (P, m).

    Sweeps the anti-diagonals d = i + j of every pair's cost grid at once,
    with the pair axis last: ``x``, the reversed ``y`` and the three
    diagonal buffers are (length, P) arrays, so a diagonal's cells over all
    pairs are one contiguous block and each ufunc call is one long loop.
    Row ``k`` of each (n + 1, P) diagonal buffer holds cell
    (k - 1, d - k + 1) of every pair, so row 0 is a permanent inf border;
    only the valid cells of a diagonal are written, and the stale cells a
    reused buffer keeps from three diagonals back are never read.  Each
    cell is the minimum of its three predecessors plus its cost, in the
    row-by-row recurrence's order, so the two agree bit for bit.  Cells
    outside the band, |2i - d| > r, are set to inf.  The inputs are checked
    for non-finite values only once a result is not finite, so finite
    input pays nothing for the check.
    """
    p, n = x.shape
    m = y.shape[1]
    if n == 0 or m == 0:
        raise DistanceError("dtw_distance requires non-empty series")
    if band_radius is not None and abs(n - m) > band_radius:
        raise DistanceError(
            f"band radius {band_radius} admits no warp path between lengths {n} and {m}"
        )
    x_cols = x.T.copy()
    y_reversed = y[:, ::-1].T.copy()  # cell (i, d - i) reads row m - 1 - d + i
    diag2, diag1, diag0 = (np.full((n + 1, p), np.inf) for _ in range(3))
    diag1[1] = np.abs(x[:, 0] - y[:, 0])
    cost = np.empty((n, p))
    for d in range(1, n + m - 1):
        lo, hi = max(0, d - m + 1), min(n - 1, d)
        c = cost[:hi - lo + 1]
        np.subtract(x_cols[lo:hi + 1], y_reversed[m - 1 - d + lo:m - d + hi], out=c)
        np.abs(c, out=c)
        b = diag0[lo + 1:hi + 2]
        np.minimum(diag1[lo:hi + 1], diag1[lo + 1:hi + 2], out=b)  # step in x, in y
        np.minimum(b, diag2[lo:hi + 1], out=b)  # diagonal step
        np.add(b, c, out=b)
        if band_radius is not None:
            diag0[lo + 1:max(lo, (d - band_radius + 1) // 2) + 1] = np.inf
            diag0[max(lo, (d + band_radius) // 2 + 1) + 1:hi + 2] = np.inf
        diag2, diag1, diag0 = diag1, diag0, diag2
    result = diag1[n].copy()
    if not np.all(np.isfinite(result)):
        for name, series in (("x (the first series)", x), ("y (the second series)", y)):
            if not np.all(np.isfinite(series)):
                raise DistanceError(f"DTW input {name} contains non-finite values")
        raise DistanceError("no feasible warp path (band too narrow)")
    return result


# ---------------------------------------------------------------------------
# windowed symbolic Fourier words


@dataclass(frozen=True)
class SfaParams:
    """Symbolic transform settings.

    ``word_length`` counts real coefficient components (two per retained
    complex coefficient), so it must be even.  With ``mean_normalize`` each
    window is centred first and the constant coefficient is skipped.
    """

    window_length: int
    word_length: int = 4
    alphabet_size: int = 4
    mean_normalize: bool = True

    def __post_init__(self):
        for name in ("window_length", "word_length", "alphabet_size"):
            _check_integer(name, getattr(self, name))
        if not isinstance(self.mean_normalize, (bool, np.bool_)):
            raise DistanceError(f"mean_normalize must be a bool, got {self.mean_normalize!r}")
        if self.window_length < 1:
            raise DistanceError(f"window_length must be positive, got {self.window_length}")
        if self.word_length < 2 or self.word_length % 2 != 0:
            raise DistanceError(
                f"word_length must be a positive even integer, got {self.word_length}"
            )
        if self.word_length > self.window_length:
            raise DistanceError(
                f"word_length {self.word_length} exceeds window_length {self.window_length}"
            )
        if not 2 <= self.alphabet_size <= 26:
            raise DistanceError(
                f"alphabet_size must lie in [2, 26], got {self.alphabet_size}"
            )


# Each measure and the class of its parameters.
MEASURE_PARAMS = {"dtw": DtwParams, "boss": SfaParams}


def measure_params_class(measure) -> type:
    """The parameter class of ``measure``; an unknown measure raises
    ``DistanceError`` naming the ``measure`` key."""
    if measure not in tuple(MEASURE_PARAMS):
        raise DistanceError(f"measure must be one of {tuple(MEASURE_PARAMS)}, got {measure!r}")
    return MEASURE_PARAMS[measure]


def default_sfa_params(series_length: int) -> SfaParams:
    """Standard settings scaled to a series length: window about a quarter
    of the series (at least 8, never longer than the series), 4 coefficient
    components, 4 symbols, mean-centred windows."""
    if series_length < 2:
        raise DistanceError(f"series of length {series_length} admits no symbolic words")
    w = min(series_length, max(8, math.ceil(series_length / 4)))
    l = 4 if w >= 4 else 2
    return SfaParams(window_length=w, word_length=l, alphabet_size=4, mean_normalize=True)


def _window_coefficients(windows: np.ndarray, params: SfaParams) -> np.ndarray:
    """(count, word_length) real coefficients of a (count, window_length)
    window array: real and imaginary parts of each retained frequency.

    The mean and every coefficient are summed over the window offset ``t``
    in order, each term taken from ``math.cos``/``math.sin`` of the
    definition's angle, so every value equals the direct per-window sum
    bit for bit.
    """
    w = params.window_length
    if params.mean_normalize:
        total = np.zeros(len(windows))
        for t in range(w):
            total += windows[:, t]
        windows = windows - (total / w)[:, None]
    first = 1 if params.mean_normalize else 0
    freqs = range(first, first + params.word_length // 2)
    basis = np.array([
        [trig((-2.0 * math.pi * freq * t) / w) for freq in freqs for trig in (math.cos, math.sin)]
        for t in range(w)
    ])
    coeffs = np.zeros((len(windows), params.word_length))
    for t in range(w):
        coeffs += windows[:, t, None] * basis[t]
    return coeffs


def _corpus_windows(corpus, window_length: int) -> tuple[np.ndarray, np.ndarray]:
    """The stride-1 windows of every series of a ragged corpus, series by
    series, as one (windows, window_length) array gathered from the
    concatenated series, and each series' window count."""
    series_list = [np.asarray(s, dtype=np.float64).ravel() for s in corpus]
    lengths = np.array([len(s) for s in series_list])
    counts = lengths - window_length + 1
    # window j of series s starts at offset(s) + j - (windows before s)
    shift = np.cumsum(lengths) - lengths - (np.cumsum(counts) - counts)
    starts = np.arange(counts.sum()) + np.repeat(shift, counts)
    return np.concatenate(series_list)[starts[:, None] + np.arange(window_length)], counts


def sfa_fit(corpus, params: SfaParams) -> np.ndarray:
    """Equi-depth breakpoints per coefficient position over a series corpus.

    Returns a (word_length, alphabet_size - 1) matrix; row ``p`` holds the
    non-decreasing breakpoints for coefficient position ``p``, picked from
    the sorted pool of all windows' values at the depth quantiles.
    """
    series_list = [np.asarray(s, dtype=np.float64).ravel() for s in corpus]
    if not series_list:
        raise DistanceError("sfa_fit requires a non-empty corpus")
    shortest = min(len(s) for s in series_list)
    if shortest < params.window_length:
        raise DistanceError(
            f"window_length {params.window_length} exceeds shortest corpus series ({shortest})"
        )
    windows, _ = _corpus_windows(series_list, params.window_length)
    ordered = np.sort(_window_coefficients(windows, params), axis=0)
    a = params.alphabet_size
    return np.ascontiguousarray(ordered[np.arange(1, a) * len(ordered) // a].T)


def _word_counts(corpus, bins: np.ndarray, params: SfaParams) -> tuple[np.ndarray, np.ndarray]:
    """Symbolic word counts of every series of a corpus under fitted
    breakpoints, in one pass over all their windows.

    Windows slide with stride 1; each yields a word of ``word_length``
    letters (letter = count of breakpoints at or below the coefficient);
    consecutive duplicate words within a series collapse to one
    occurrence.  Returns ``(words, counts)``: the distinct words observed
    over the corpus as a sorted ``S{word_length}`` array, and the
    (series, words) int64 matrix of each series' counts.
    """
    windows, per_series = _corpus_windows(corpus, params.window_length)
    letters = (_window_coefficients(windows, params)[:, :, None] >= bins).sum(-1) + ord("a")
    words = letters.astype(np.uint8).view(f"S{params.word_length}")[:, 0]
    run_starts = np.ones(len(words), dtype=bool)
    run_starts[1:] = words[1:] != words[:-1]
    run_starts[np.cumsum(per_series)[:-1]] = True  # a series' first window starts a run
    series = np.repeat(np.arange(len(per_series)), per_series)[run_starts]
    vocabulary, word_ids = np.unique(words[run_starts], return_inverse=True)
    v = len(vocabulary)
    counts = np.bincount(series * v + word_ids, minlength=len(per_series) * v)
    return vocabulary, counts.reshape(len(per_series), v)


def sfa_transform(x, bins: np.ndarray, params: SfaParams) -> tuple[np.ndarray, np.ndarray]:
    """Symbolic word histogram of one series under fitted breakpoints:
    ``(words, counts)``, its distinct words as a sorted ``S{word_length}``
    array and their counts, each at least 1.  Runs ``_word_counts`` on the
    one series."""
    series = np.asarray(x, dtype=np.float64).ravel()
    if len(series) < params.window_length:
        raise DistanceError(
            f"series of length {len(series)} is shorter than window_length {params.window_length}"
        )
    bins = np.asarray(bins, dtype=np.float64)
    if bins.shape != (params.word_length, params.alphabet_size - 1):
        raise DistanceError(
            f"bins shape {bins.shape} incompatible with params "
            f"({params.word_length} x {params.alphabet_size - 1})"
        )
    words, counts = _word_counts([series], bins, params)
    return words, counts[0]


def _boss_many(counts_a: np.ndarray, counts_b: np.ndarray) -> np.ndarray:
    """(P,) symmetrized squared histogram differences between the rows of
    two (P, words) count matrices over one vocabulary.

    The one-sided form sums (count_a - count_b)^2 over the words present in
    the first histogram only; the two directions are averaged so the result
    is symmetric.  The sums are int64, so they are exact.
    """
    squares = (counts_a - counts_b) ** 2
    return 0.5 * ((squares * (counts_a > 0)).sum(1) + (squares * (counts_b > 0)).sum(1))


# ---------------------------------------------------------------------------
# latent distance vectors


def _distance_rows(values, name: str) -> np.ndarray:
    """``values`` as an (N, K) float array of non-negative finite distances."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except ValueError as exc:  # ragged rows
        raise DistanceError(f"{name} rows differ in length: {exc}") from None
    if rows.ndim != 2:
        raise DistanceError(f"{name} must be 2-D (samples x channels), got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise DistanceError(f"need at least 2 vectors, got {rows.shape[0]}")
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise DistanceError(f"{name} must be non-negative and finite")
    return rows


@dataclass
class ImportanceLatentSet:
    """All per-sample distance vectors for one source/target view pair.

    ``vectors`` is the (N, K) array of values actually consumed downstream
    (the distances divided by the pair's mean series length), one row per
    sample pair;
    ``raw_vectors``, of the same shape, keeps the unnormalized distances for
    inspection.
    """

    measure: str
    source_view: int
    target_view: int
    vectors: np.ndarray
    raw_vectors: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = _distance_rows(self.vectors, "vectors")
        if self.raw_vectors is not None:
            self.raw_vectors = _distance_rows(self.raw_vectors, "raw_vectors")
            if self.raw_vectors.shape != self.vectors.shape:
                raise DistanceError(
                    f"raw_vectors shape {self.raw_vectors.shape} differs from "
                    f"vectors shape {self.vectors.shape}"
                )

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def to_json_dict(self) -> dict:
        payload = {
            "measure": self.measure,
            "source_view": self.source_view,
            "target_view": self.target_view,
            "K": self.dimension,
            "vectors": self.vectors.tolist(),
        }
        if self.raw_vectors is not None:
            payload["vectors_raw"] = self.raw_vectors.tolist()
        return payload


def _resolve_params(measure: str, params, shortest: int):
    """Check ``params`` against ``measure`` and fill in the defaults.

    Returns ``DtwParams`` for dtw and ``SfaParams`` for boss; boss without
    params takes the default symbolic settings for the ``shortest`` series.
    """
    expected = measure_params_class(measure)
    if params is None:
        return DtwParams() if measure == "dtw" else default_sfa_params(shortest)
    if not isinstance(params, expected):
        raise DistanceError(
            f"{measure} measure expects {expected.__name__}, got {type(params).__name__}"
        )
    return params


def _raw_distances(sources: np.ndarray, targets: np.ndarray, params) -> np.ndarray:
    """(N, K) distances between the matching channels of every
    (source, target) pair of an aligned (N, K, length) view pair, in pair
    order, under resolved params.

    Warping runs one ``_dtw_many`` call on the (N * K, length) rows.  Boss
    makes one pass per channel: it fits breakpoints on that channel's 2N
    series pooled over both views, counts every series' words with one
    ``_word_counts`` call, and compares source row i with target row i.
    """
    n, k = sources.shape[:2]
    if isinstance(params, DtwParams):
        x, y = sources.reshape(n * k, -1), targets.reshape(n * k, -1)
        return _dtw_many(x, y, params.band_radius).reshape(n, k)
    raw = np.empty((n, k))
    for c in range(k):
        corpus = [*sources[:, c], *targets[:, c]]
        _, counts = _word_counts(corpus, sfa_fit(corpus, params), params)
        raw[:, c] = _boss_many(counts[:n], counts[n:])
    return raw


def build_latent_set(
    dataset: MultiViewDataset,
    source_view: int,
    target_view: int,
    measure: str,
    measure_params=None,
) -> ImportanceLatentSet:
    """Distance vectors for every corresponding sample pair of two aligned
    views, in sample order.

    Each row is the pair's per-channel raw distances divided by the mean
    of the two views' series lengths, so series duration does not dominate
    the comparison.  For the histogram measure, breakpoints are fitted once
    per channel on the pooled channel series of both views, then reused
    for every pair.
    """
    v = dataset.n_views
    for name, idx in (("source_view", source_view), ("target_view", target_view)):
        if not 0 <= idx < v:
            raise DistanceError(f"{name} {idx} out of range for {v} views")
    if source_view == target_view:
        raise DistanceError("source_view and target_view must differ")
    k_source, l_source = dataset.view_shape(source_view)
    k_target, l_target = dataset.view_shape(target_view)
    if k_source != k_target:
        raise DistanceError(
            f"views disagree on channel count: {k_source} vs {k_target}"
        )

    sources, targets = dataset.views[source_view], dataset.views[target_view]
    params = _resolve_params(measure, measure_params, min(l_source, l_target))
    raw = _raw_distances(sources, targets, params)
    return ImportanceLatentSet(
        measure=measure,
        source_view=source_view,
        target_view=target_view,
        vectors=raw / ((l_source + l_target) / 2.0),
        raw_vectors=raw,
    )
