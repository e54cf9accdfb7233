"""Acceptance suite: one test per shipped guarantee, oracle-checked.

Each test is self-contained: reference values come from independent naive
implementations (exhaustive enumeration, direct transforms, quadrature,
finite differences) computed inside this file, never from the code under
test.  Every test also enforces its runtime budget.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from mvtransfer.cli import main as cli_main
from mvtransfer.dataset import emit_dataset
from mvtransfer.density import fit_density
from mvtransfer.distance import (
    SfaParams,
    _boss_many,
    _word_counts,
    dtw_distance,
    sfa_fit,
)
from mvtransfer import flow
from mvtransfer.flow import (
    FlowConfig,
    fit_flow,
    flow_inverse,
    flow_loss_and_gradients,
)
from mvtransfer.importance import SamplingConfig, allocate_epochs
from mvtransfer.networks import (
    NetworkConfig,
    TrainConfig,
    batchnorm_forward,
    batchnorm_backward,
    conv1d_forward,
    conv1d_backward,
    evaluate,
    init_network,
    loss_and_gradients,
    softmax_cross_entropy,
    train,
)
from mvtransfer.pipeline import (
    ExperimentConfig,
    _run_single,
    run_experiment,
    split_parts,
)
from mvtransfer.synthetic import make_synthetic_dataset


# ---------------------------------------------------------------------------
# independent reference implementations
# ---------------------------------------------------------------------------


def exhaustive_warp_cost(x, y):
    """Minimum warp cost by recursion over every monotone path."""
    n, m = len(x), len(y)
    best = [math.inf]

    def walk(i, j, acc):
        acc += abs(x[i] - y[j])
        if acc > best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def naive_window_coefficients(series, params):
    """Direct per-window transform: centre, then correlate with each
    retained frequency's cosine and sine basis rows."""
    w = params.window_length
    first = 1 if params.mean_normalize else 0
    out = []
    for start in range(len(series) - w + 1):
        window = list(series[start:start + w])
        if params.mean_normalize:
            total = 0.0
            for value in window:
                total += value
            mean = total / w
            window = [value - mean for value in window]
        coeffs = []
        for freq in range(first, first + params.word_length // 2):
            real = 0.0
            imag = 0.0
            for t in range(w):
                angle = (-2.0 * math.pi * freq * t) / w
                real += window[t] * math.cos(angle)
                imag += window[t] * math.sin(angle)
            coeffs.append(real)
            coeffs.append(imag)
        out.append(coeffs)
    return out


def naive_bins(corpus, params):
    """Equi-depth breakpoints per coefficient position over pooled windows."""
    pool = []
    for series in corpus:
        pool.extend(naive_window_coefficients(series, params))
    n = len(pool)
    a = params.alphabet_size
    bins = []
    for position in range(params.word_length):
        column = sorted(row[position] for row in pool)
        bins.append([column[(j * n) // a] for j in range(1, a)])
    return bins


def naive_histogram(series, bins, params):
    """Symbol words per window, consecutive duplicates collapsed."""
    words = []
    for coeffs in naive_window_coefficients(series, params):
        letters = []
        for position, value in enumerate(coeffs):
            symbol = 0
            for breakpoint in bins[position]:
                if value >= breakpoint:
                    symbol += 1
            letters.append(chr(ord("a") + symbol))
        words.append("".join(letters))
    counts = {}
    previous = None
    for word in words:
        if word != previous:
            counts[word] = counts.get(word, 0) + 1
        previous = word
    return counts


def naive_histogram_distance(counts_a, counts_b):
    """Two-loop symmetrized squared histogram difference."""
    total = 0.0
    for word, count in counts_a.items():
        total += (count - counts_b.get(word, 0)) ** 2
    for word, count in counts_b.items():
        total += (count - counts_a.get(word, 0)) ** 2
    return 0.5 * total


def network_fd_error(net, batch, labels, probes_per_tensor=6, step=1e-5, seed=0):
    """Max relative error between analytic and central-difference gradients
    over a seeded subsample of entries in every parameter tensor."""
    rng = np.random.default_rng(seed)
    _, grads, _ = loss_and_gradients(net, batch, labels)
    worst = 0.0
    for name in sorted(net.params):
        tensor = net.params[name]
        flat = tensor.reshape(-1)
        count = min(probes_per_tensor, flat.size)
        picks = rng.choice(flat.size, size=count, replace=False)
        for index in picks:
            original = flat[index]
            flat[index] = original + step
            loss_plus, _, _ = loss_and_gradients(net, batch, labels)
            flat[index] = original - step
            loss_minus, _, _ = loss_and_gradients(net, batch, labels)
            flat[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = grads[name].reshape(-1)[index]
            scale = max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def separable_fixture(rng):
    """20 samples, 2 channels x 5 steps, classes split by sign of the mean."""
    inputs = np.concatenate(
        [
            1.0 + 0.2 * rng.standard_normal((10, 2, 5)),
            -1.0 + 0.2 * rng.standard_normal((10, 2, 5)),
        ]
    )
    labels = np.array([0] * 10 + [1] * 10, dtype=np.int64)
    order = rng.permutation(20)
    return inputs[order], labels[order]


class TestAcceptance:
    """One pass/fail line per shipped guarantee."""

    def test_01_warp_distance_matches_exhaustive_enumeration(self):
        """200 short integer series pairs: dynamic program equals the
        cost of the best path found by complete enumeration, exactly."""
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(200):
            x = rng.integers(0, 10, size=rng.integers(1, 7)).astype(float)
            y = rng.integers(0, 10, size=rng.integers(1, 7)).astype(float)
            assert dtw_distance(x, y) == exhaustive_warp_cost(list(x), list(y))
        assert time.perf_counter() - started < 10.0

    def test_02_symbolic_words_match_naive_reference(self):
        """50 random series: fitted breakpoints, per-series word histograms
        (word-for-word), and histogram distances all match a direct naive
        implementation; distances are equal exactly.  The histograms and
        distances come from one batched word count over the corpus."""
        started = time.perf_counter()
        rng = np.random.default_rng(1002)
        params = SfaParams(window_length=8, word_length=4, alphabet_size=3)
        corpus = [
            rng.standard_normal(int(rng.integers(8, 31))) for _ in range(50)
        ]
        bins = sfa_fit(corpus, params)
        reference_bins = naive_bins([list(s) for s in corpus], params)
        assert bins.tolist() == reference_bins
        words, counts = _word_counts(corpus, bins, params)
        histograms = []
        for series, row in zip(corpus, counts):
            held = row > 0
            produced = dict(zip(words[held].astype(str).tolist(), row[held].tolist()))
            expected = naive_histogram(list(series), reference_bins, params)
            assert produced == expected
            histograms.append(expected)
        distances = _boss_many(counts, np.roll(counts, -1, axis=0))
        for i in range(50):
            j = (i + 1) % 50
            expected = naive_histogram_distance(histograms[i], histograms[j])
            assert distances[i] == expected
        assert time.perf_counter() - started < 10.0

    def test_03_kernel_density_integrates_to_one(self):
        """Fitted 1-D and 2-D kernel densities integrate to 1 +/- 1e-3 by
        trapezoidal quadrature over a +/-10 sigma grid."""
        started = time.perf_counter()
        rng = np.random.default_rng(1003)

        data_1d = (0.4 + 1.3 * rng.standard_normal(80)).reshape(-1, 1)
        model = fit_density(data_1d)
        mean, sigma = data_1d.mean(), data_1d.std()
        grid = np.linspace(mean - 10 * sigma, mean + 10 * sigma, 4001)
        values = np.exp(model.log_density(grid[:, None]))
        assert abs(np.trapezoid(values, grid) - 1.0) < 1e-3

        data_2d = rng.standard_normal((60, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]])
        model = fit_density(data_2d)
        mean = data_2d.mean(axis=0)
        sigma = data_2d.std(axis=0)
        xs = np.linspace(mean[0] - 10 * sigma[0], mean[0] + 10 * sigma[0], 201)
        ys = np.linspace(mean[1] - 10 * sigma[1], mean[1] + 10 * sigma[1], 201)
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
        points = np.column_stack([grid_x.ravel(), grid_y.ravel()])
        rows = np.exp(model.log_density(points)).reshape(201, 201)
        inner = np.trapezoid(rows, ys, axis=1)
        assert abs(np.trapezoid(inner, xs) - 1.0) < 1e-3
        assert time.perf_counter() - started < 5.0

    def test_04_flow_invertibility_jacobian_and_gradients(self):
        """Trained coupling flow: (a) inverse undoes forward to 1e-9 on 100
        points; (b) analytic volume-change term matches a finite-difference
        Jacobian determinant to 1e-4 on 20 points; (c) analytic training
        gradients match central differences to 1e-4 relative error."""
        started = time.perf_counter()
        data = np.random.default_rng(1004).standard_normal((64, 2))
        config = FlowConfig(
            layer_count=2, coupling_net_width=4, training_iterations=150, seed=0
        )
        model = fit_flow(data, config)

        rng = np.random.default_rng(1005)
        points = 2.0 * rng.standard_normal((100, 2))
        latent, _, _ = flow._forward_batch(model, points)
        assert np.max(np.abs(flow_inverse(model, latent) - points)) < 1e-9

        step = 1e-5
        probes = rng.standard_normal((20, 2))
        _, analytic, _ = flow._forward_batch(model, probes)
        jacobian = np.empty((20, 2, 2))
        for j in range(2):
            bump = np.zeros(2)
            bump[j] = step
            plus = flow._forward_batch(model, probes + bump)[0]
            minus = flow._forward_batch(model, probes - bump)[0]
            jacobian[:, :, j] = (plus - minus) / (2.0 * step)
        numeric = np.log(np.abs(np.linalg.det(jacobian)))
        assert np.max(np.abs(numeric - analytic)) < 1e-4

        loss, grads, _ = flow_loss_and_gradients(model, data)
        fd_step = 1e-6
        worst = 0.0
        probe_rng = np.random.default_rng(1006)
        for name in sorted(model.params):
            flat = model.params[name].reshape(-1)
            picks = probe_rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for index in picks:
                original = flat[index]
                flat[index] = original + fd_step
                loss_plus, _, _ = flow_loss_and_gradients(model, data)
                flat[index] = original - fd_step
                loss_minus, _, _ = flow_loss_and_gradients(model, data)
                flat[index] = original
                numeric = (loss_plus - loss_minus) / (2.0 * fd_step)
                analytic = grads[name].reshape(-1)[index]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / scale)
        assert worst < 1e-4
        assert time.perf_counter() - started < 60.0

    def test_05_flow_recovers_gaussian_likelihood(self):
        """Trained on 512 standard-normal 2-D draws for 500 iterations, the
        flow's density at the sample mean is within 0.15 of the standard
        normal's peak log-density -log(2*pi), and its mean train
        log-likelihood is within 0.15 of the matching expectation
        -log(2*pi) - 1."""
        started = time.perf_counter()
        data = np.random.default_rng(54).standard_normal((512, 2))
        config = FlowConfig(
            layer_count=2, coupling_net_width=4, training_iterations=500, seed=7
        )
        model = fit_flow(data, config)
        peak = -math.log(2.0 * math.pi)
        (at_mean,) = flow._log_density_batch(model, data.mean(axis=0)[None])
        assert abs(at_mean - peak) < 0.15
        assert abs(model.final_log_likelihood - (peak - 1.0)) < 0.15
        assert time.perf_counter() - started < 120.0

    def test_06_epoch_allocation_exact_and_scale_invariant(self):
        """1000 random score vectors: allocations sum to the budget exactly
        and are unchanged under positive rescaling; equal scores with a
        budget of 200 over four views give [50, 50, 50, 50]."""
        started = time.perf_counter()
        rng = np.random.default_rng(1007)
        for _ in range(1000):
            count = int(rng.integers(1, 7))
            scores = rng.uniform(0.01, 10.0, size=count).tolist()
            total = int(rng.integers(1, 501))
            allocation = allocate_epochs(scores, total)
            assert sum(allocation) == total
            factor = 2.0 ** int(rng.integers(-3, 7))
            rescaled = allocate_epochs([s * factor for s in scores], total)
            assert rescaled == allocation
        for level in (1.0, 0.37, 42.0):
            assert allocate_epochs([level] * 4, 200) == [50, 50, 50, 50]
        assert time.perf_counter() - started < 1.0

    def test_07_network_gradients_match_finite_differences(self):
        """Every layer type and both composed classifiers (dropout off,
        normalization in inference mode) pass central-difference gradient
        checks at max relative error below 1e-4."""
        started = time.perf_counter()
        rng = np.random.default_rng(1008)
        step = 1e-6

        x = rng.standard_normal((2, 3, 10))
        weights = rng.standard_normal((4, 3, 5)) * 0.3
        bias = rng.standard_normal(4) * 0.1
        sensitivity = rng.standard_normal((2, 4, 10))
        out, cache = conv1d_forward(x, weights, bias)
        grad_x, grad_w, grad_b = conv1d_backward(sensitivity, cache)
        for tensor, grad in ((x, grad_x), (weights, grad_w), (bias, grad_b)):
            flat = tensor.reshape(-1)
            for index in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                original = flat[index]
                flat[index] = original + step
                plus = float((sensitivity * conv1d_forward(x, weights, bias)[0]).sum())
                flat[index] = original - step
                minus = float((sensitivity * conv1d_forward(x, weights, bias)[0]).sum())
                flat[index] = original
                numeric = (plus - minus) / (2.0 * step)
                analytic = grad.reshape(-1)[index]
                assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6) < 1e-4

        x = rng.standard_normal((3, 4, 7))
        gamma = 1.0 + 0.2 * rng.standard_normal(4)
        beta = 0.1 * rng.standard_normal(4)
        run_mean = rng.standard_normal(4) * 0.3
        run_var = 1.0 + 0.5 * rng.random(4)
        sensitivity = rng.standard_normal((3, 4, 7))
        for train_mode in (True, False):
            out, cache, _, _ = batchnorm_forward(
                x, gamma, beta, run_mean, run_var, train_mode
            )
            grad_x, grad_gamma, grad_beta = batchnorm_backward(sensitivity, cache)
            for tensor, grad in ((x, grad_x), (gamma, grad_gamma), (beta, grad_beta)):
                flat = tensor.reshape(-1)
                for index in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                    original = flat[index]
                    flat[index] = original + step
                    plus = float(
                        (sensitivity * batchnorm_forward(
                            x, gamma, beta, run_mean, run_var, train_mode
                        )[0]).sum()
                    )
                    flat[index] = original - step
                    minus = float(
                        (sensitivity * batchnorm_forward(
                            x, gamma, beta, run_mean, run_var, train_mode
                        )[0]).sum()
                    )
                    flat[index] = original
                    numeric = (plus - minus) / (2.0 * step)
                    analytic = grad.reshape(-1)[index]
                    assert (
                        abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
                        < 1e-4
                    )

        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, _, grad_logits = softmax_cross_entropy(logits, labels)
        flat = logits.reshape(-1)
        for index in rng.choice(flat.size, size=10, replace=False):
            original = flat[index]
            flat[index] = original + step
            plus, _, _ = softmax_cross_entropy(logits, labels)
            flat[index] = original - step
            minus, _, _ = softmax_cross_entropy(logits, labels)
            flat[index] = original
            numeric = (plus - minus) / (2.0 * step)
            analytic = grad_logits.reshape(-1)[index]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6) < 1e-4

        batch = rng.standard_normal((7, 2, 5))
        labels = rng.integers(0, 3, size=7)
        mlp = init_network(
            NetworkConfig(
                arch="mlp", input_channels=2, input_length=5, class_count=3, seed=1
            )
        )
        mlp.mode = "eval"
        assert network_fd_error(mlp, batch, labels, probes_per_tensor=6) < 1e-4

        batch = rng.standard_normal((4, 2, 12))
        labels = rng.integers(0, 3, size=4)
        fcn = init_network(
            NetworkConfig(
                arch="fcn",
                input_channels=2,
                input_length=12,
                class_count=3,
                dropout_rate=0.0,
                seed=2,
            )
        )
        fcn.mode = "eval"
        assert network_fd_error(fcn, batch, labels, probes_per_tensor=4) < 1e-4
        assert time.perf_counter() - started < 60.0

    def test_08_mlp_overfits_separable_fixture(self):
        """The dense classifier reaches training accuracy 1.0 on a 20-sample
        linearly separable fixture within 200 epochs for all 5 seeds."""
        started = time.perf_counter()
        inputs, labels = separable_fixture(np.random.default_rng(1009))
        for seed in range(5):
            net = init_network(
                NetworkConfig(
                    arch="mlp", input_channels=2, input_length=5, class_count=2, seed=seed
                )
            )
            log = train(
                net,
                inputs,
                labels,
                TrainConfig(batch_size=4, seed=seed),
                epoch_budget=200,
            )
            assert max(entry["train_accuracy"] for entry in log) == 1.0, f"seed {seed}"
            assert evaluate(net, inputs, labels) == 1.0, f"seed {seed}"
        assert time.perf_counter() - started < 30.0

    def test_09_zero_schedule_transfer_equals_baseline(self, tmp_path):
        """With a forced all-zero pretraining schedule, transfer runs are
        byte-for-byte identical to baseline runs under equal seeds on the
        bundled synthetic dataset: equal accuracies, equal logged curves,
        and bit-identical networks: the same config and mode, and every
        parameter and running-statistic array equal in shape, dtype and raw
        bytes."""
        started = time.perf_counter()
        dataset = make_synthetic_dataset()
        config = ExperimentConfig(
            dataset_path=None,
            target_view=2,
            forced_epochs=(0, 0),
            total_pretrain_epochs=0,
            finetune_epochs=8,
            arch="mlp",
            train_batch_size=8,
            repeats=5,
            base_seed=0,
            mode="both",
        )
        report = run_experiment(config, dataset=dataset, out_dir=tmp_path)
        assert report.transfer.accuracies == report.baseline.accuracies
        lines = (
            (tmp_path / "curves.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
        )
        baseline_rows = [l.split(",", 1)[1] for l in lines if l.startswith("baseline,")]
        transfer_rows = [l.split(",", 1)[1] for l in lines if l.startswith("transfer,")]
        assert baseline_rows == transfer_rows

        train_part, test_part = split_parts(dataset, config)
        base_net, _, _ = _run_single(config, train_part, test_part, None, 0)
        trans_net, _, _ = _run_single(config, train_part, test_part, report.schedule, 0)
        assert base_net.config == trans_net.config
        assert base_net.mode == trans_net.mode
        for group in ("params", "running_stats"):
            base, trans = getattr(base_net, group), getattr(trans_net, group)
            assert base.keys() == trans.keys(), group
            for name, array in base.items():
                other = trans[name]
                assert (array.shape, array.dtype) == (other.shape, other.dtype), name
                assert array.tobytes() == other.tobytes(), name
        assert time.perf_counter() - started < 60.0

    def test_10_transfer_outperforms_and_favors_correlated_view(self):
        """On the bundled three-view dataset (view 0 = target + noise of
        scale 0.1, view 1 = independent noise), warp-distance scheduling
        with inverted importance gives the correlated view strictly more
        pretraining epochs than the noise view, and mean transfer accuracy
        over 5 repeats is at least the baseline mean."""
        started = time.perf_counter()
        dataset = make_synthetic_dataset()
        config = ExperimentConfig(
            dataset_path=None,
            target_view=2,
            measure="dtw",
            sampling=SamplingConfig(invert_importance=True),
            total_pretrain_epochs=40,
            finetune_epochs=10,
            arch="mlp",
            train_batch_size=8,
            learning_rate=1e-4,
            repeats=5,
            base_seed=0,
            mode="both",
        )
        report = run_experiment(config, dataset=dataset)
        assert report.schedule.epochs[0] > report.schedule.epochs[1]
        assert report.transfer.mean >= report.baseline.mean
        assert time.perf_counter() - started < 300.0

    def test_11_cli_runs_byte_identical(self, tmp_path):
        """Two command-line training runs with an identical config produce
        byte-identical report.json and curves.csv."""
        started = time.perf_counter()
        emit_dataset(make_synthetic_dataset(), tmp_path / "ds")
        config = ExperimentConfig(
            dataset_path="ds",
            target_view=2,
            measure="dtw",
            sampling=SamplingConfig(batch_size=256),
            total_pretrain_epochs=12,
            finetune_epochs=6,
            arch="mlp",
            train_batch_size=8,
            repeats=3,
            base_seed=0,
            mode="both",
        )
        (tmp_path / "config.json").write_text(json.dumps(asdict(config)), encoding="utf-8")
        for name in ("run1", "run2"):
            code = cli_main(
                [
                    "train",
                    "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / name),
                ]
            )
            assert code == 0
        for artifact in ("report.json", "curves.csv"):
            assert (tmp_path / "run1" / artifact).read_bytes() == (
                tmp_path / "run2" / artifact
            ).read_bytes(), artifact
        assert time.perf_counter() - started < 300.0
