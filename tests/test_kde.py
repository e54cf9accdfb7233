"""Tests for kernel density estimation and what both density models share:
fitting, the checked log-density, density files and grids."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    flow_stacks,
    reference_fit_flow,
    reference_kde_log_density,
    reference_log_density_batch,
)
from mvtransfer import density
from mvtransfer.density import (
    DensityError,
    DensityModel,
    KdeModel,
    _kde_log_density,
    density_model_from_json_dict,
    density_model_to_json_dict,
    evaluate_density_grid,
    fit_density,
    fit_kde,
    load_density_model,
    sample_kde,
    save_density_model,
    select_density_method,
)
from mvtransfer.flow import FlowConfig, FlowModel, init_flow_model


class TestMethodSelection:
    def test_low_dimension_uses_kde(self):
        assert select_density_method(1) == "kde"
        assert select_density_method(2) == "kde"
        assert select_density_method(3) == "kde"

    def test_high_dimension_uses_flow(self):
        assert select_density_method(4) == "flow"
        assert select_density_method(9) == "flow"

    def test_override_wins(self):
        assert select_density_method(9, override="kde") == "kde"
        assert select_density_method(2, override="flow") == "flow"

    def test_bad_inputs(self):
        with pytest.raises(DensityError, match="positive"):
            select_density_method(0)
        with pytest.raises(DensityError, match="override"):
            select_density_method(2, override="histogram")


class TestFitKde:
    def test_single_point_unit_bandwidth_is_standard_normal(self):
        """Directly constructed one-point model: density at the support
        point is the standard-normal mode 1/sqrt(2*pi)."""
        model = KdeModel(support_points=[[0.0]], bandwidth_diag=[1.0])
        value = math.exp(_kde_log_density(model, np.zeros((1, 1)))[0])
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_silverman_bandwidth_on_normal_draws(self):
        """1-D rule evaluated directly: h = (4/3)^(1/5) * n^(-1/5) * sigma."""
        rng = np.random.default_rng(70)
        data = rng.standard_normal((100, 1))
        model = fit_kde(data)
        sigma = data.std(ddof=1)
        expected = (4.0 / 3.0) ** 0.2 * 100 ** (-0.2) * sigma
        assert math.sqrt(model.bandwidth_diag[0]) == pytest.approx(expected, rel=1e-12)
        assert 0.2 < math.sqrt(model.bandwidth_diag[0]) < 0.8

    def test_zero_variance_dimension_floors_with_warning(self):
        data = np.column_stack([np.zeros(10), np.linspace(0, 1, 10)])
        with pytest.warns(UserWarning, match="floored"):
            model = fit_kde(data)
        assert math.sqrt(model.bandwidth_diag[0]) == pytest.approx(1e-6)
        assert model.bandwidth_diag[1] > model.bandwidth_diag[0]

    def test_single_point_rejected_by_fit(self):
        with pytest.raises(DensityError, match="at least 2"):
            fit_kde(np.zeros((1, 2)))

    def test_construction_rejects_wrong_array_ranks(self):
        """Support points must be (n, d) and the bandwidth (d,); neither is
        reshaped into place."""
        with pytest.raises(
            DensityError, match=r"^support_points must be a 2-D array, got shape \(2,\)$"
        ):
            KdeModel(support_points=[0.5, 0.7], bandwidth_diag=[1.0])
        with pytest.raises(
            DensityError, match=r"^bandwidth_diag must be a 1-D array, got shape \(1, 1\)$"
        ):
            KdeModel(support_points=[[0.5], [0.7]], bandwidth_diag=[[1.0]])


class TestKdeLogDensity:
    def test_symmetry_around_symmetric_support(self):
        model = KdeModel(support_points=[[-1.0], [1.0]], bandwidth_diag=[0.4])
        xs = np.linspace(0.1, 3.0, 15)[:, None]
        left, right = _kde_log_density(model, xs), _kde_log_density(model, -xs)
        assert np.allclose(left, right, rtol=0, atol=1e-12)

    def test_matches_naive_summation(self):
        """exp(log-density) equals the direct mixture sum within 1e-12."""
        rng = np.random.default_rng(72)
        data = rng.normal(size=(20, 2))
        model = fit_kde(data)
        h = model.bandwidth_diag
        points = rng.normal(size=(20, 2)) * 2.0
        for x, value in zip(points, np.exp(_kde_log_density(model, points))):
            total = 0.0
            for p in model.support_points:
                quad = (x[0] - p[0]) ** 2 / h[0] + (x[1] - p[1]) ** 2 / h[1]
                total += (
                    1.0
                    / (2.0 * math.pi * math.sqrt(h[0] * h[1]))
                    * math.exp(-0.5 * quad)
                )
            total /= len(model.support_points)
            assert value == pytest.approx(total, abs=1e-12)

    def test_integral_one_dimensional(self):
        """Trapezoidal quadrature over +-10 sigma sums to 1 within 1e-3."""
        rng = np.random.default_rng(73)
        data = rng.normal(loc=2.0, scale=1.5, size=(40, 1))
        model = fit_kde(data)
        sigma = data.std(ddof=1)
        grid = np.linspace(data.mean() - 10 * sigma, data.mean() + 10 * sigma, 4001)
        values = np.exp(_kde_log_density(model, grid[:, None]))
        integral = np.trapezoid(values, grid)
        assert abs(integral - 1.0) < 1e-3

    def test_integral_two_dimensional(self):
        rng = np.random.default_rng(74)
        data = rng.normal(size=(25, 2))
        model = fit_kde(data)
        mean = data.mean(axis=0)
        sigma = data.std(axis=0, ddof=1)
        ax0 = np.linspace(mean[0] - 10 * sigma[0], mean[0] + 10 * sigma[0], 201)
        ax1 = np.linspace(mean[1] - 10 * sigma[1], mean[1] + 10 * sigma[1], 201)
        xs, ys = np.meshgrid(ax0, ax1, indexing="ij")
        points = np.column_stack([xs.ravel(), ys.ravel()])
        values = np.exp(_kde_log_density(model, points)).reshape(201, 201)
        integral = np.trapezoid(np.trapezoid(values, ax1, axis=1), ax0)
        assert abs(integral - 1.0) < 1e-3

    def test_far_tail_is_finite(self):
        """Log-sum-exp keeps far-field evaluations finite (no underflow to
        -inf within float range of the exponent)."""
        model = KdeModel(support_points=[[0.0], [1.0]], bandwidth_diag=[0.01])
        (value,) = _kde_log_density(model, np.array([[8.0]]))
        assert np.isfinite(value)
        assert value < -100

    @pytest.mark.parametrize(
        "seed, n, d", [(94, 1, 1), (95, 30, 2), (96, 12, 3), (97, 40, 5), (98, 25, 9)]
    )
    def test_matches_the_one_point_reference(self, seed, n, d):
        """The batched kernel density equals the one-point formula it
        replaced, row by row, within 1e-15 relative."""
        rng = np.random.default_rng(seed)
        model = KdeModel(
            support_points=rng.normal(size=(n, d)), bandwidth_diag=rng.uniform(0.05, 2.0, size=d)
        )
        points = rng.normal(size=(200, d)) * 2.0
        expected = [reference_kde_log_density(model, point) for point in points]
        assert np.allclose(_kde_log_density(model, points), expected, rtol=1e-15, atol=0)


class TestSampleKde:
    def test_degenerate_kernel_returns_support_points(self):
        model = KdeModel(support_points=[[2.0, -1.0]], bandwidth_diag=[1e-18, 1e-18])
        samples = sample_kde(model, 3, seed=1)
        assert np.allclose(samples, [2.0, -1.0], atol=1e-6)

    def test_law_of_large_numbers_single_point(self):
        model = KdeModel(support_points=[[3.0, -2.0]], bandwidth_diag=[1.0, 1.0])
        samples = sample_kde(model, 100_000, seed=2)
        assert np.all(np.abs(samples.mean(axis=0) - [3.0, -2.0]) < 0.02)

    def test_determinism(self):
        rng = np.random.default_rng(75)
        model = fit_kde(rng.normal(size=(15, 2)))
        assert np.array_equal(sample_kde(model, 64, 5), sample_kde(model, 64, 5))

    def test_bad_count(self):
        model = KdeModel(support_points=[[0.0]], bandwidth_diag=[1.0])
        with pytest.raises(DensityError, match="count"):
            sample_kde(model, 0, seed=0)


class TestDensityModelWrapper:
    def test_fit_density_low_dimension(self):
        rng = np.random.default_rng(76)
        model = fit_density(rng.normal(size=(30, 2)))
        assert isinstance(model, KdeModel)
        assert np.isfinite(model.log_density([[0.0, 0.0]])).all()
        assert model.sample(10, seed=3).shape == (10, 2)

    def test_fit_density_high_dimension(self):
        rng = np.random.default_rng(77)
        config = FlowConfig(layer_count=2, coupling_net_width=4, training_iterations=10)
        model = fit_density(rng.normal(size=(40, 4)), flow_config=config)
        assert isinstance(model, FlowModel)
        assert np.isfinite(model.log_density(np.zeros((1, 4)))).all()
        assert model.sample(8, seed=4).shape == (8, 4)

    def test_override_forces_flow_in_low_dimension(self):
        rng = np.random.default_rng(78)
        config = FlowConfig(layer_count=2, coupling_net_width=4, training_iterations=10)
        model = fit_density(rng.normal(size=(30, 2)), override="flow", flow_config=config)
        assert isinstance(model, FlowModel)

    def test_json_round_trip_kde(self, tmp_path):
        rng = np.random.default_rng(79)
        model = fit_density(rng.normal(size=(12, 3)))
        path = tmp_path / "model.json"
        save_density_model(model, path)
        back = load_density_model(path)
        assert isinstance(back, KdeModel)
        probe = rng.normal(size=3)[None]
        assert np.array_equal(back.log_density(probe), model.log_density(probe))

    def test_json_round_trip_flow(self, tmp_path):
        rng = np.random.default_rng(80)
        config = FlowConfig(layer_count=2, coupling_net_width=4, training_iterations=15)
        model = fit_density(rng.normal(size=(40, 4)), flow_config=config)
        path = tmp_path / "model.json"
        save_density_model(model, path)
        back = load_density_model(path)
        probe = rng.normal(size=4)[None]
        assert np.allclose(back.log_density(probe), model.log_density(probe), rtol=0, atol=1e-12)

    def test_bad_payloads(self, tmp_path):
        with pytest.raises(DensityError, match="variant"):
            density_model_from_json_dict({"variant": "mystery", "dimension": 2})
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        with pytest.raises(DensityError, match="unparseable"):
            load_density_model(path)
        with pytest.raises(DensityError, match="no density model"):
            load_density_model(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "break_payload, named",
        [
            (lambda p: p["flow"].pop("params"), "missing key 'flow.params'"),
            (lambda p: p["flow"].pop("config"), "missing key 'flow.config'"),
            (
                lambda p: p["flow"]["params"].update({"layer0.W1": [[1.0, 2.0]]}),
                r"flow.params.layer0.W1 has shape \(1, 2\), expected \(4, 3\)",
            ),
            (
                lambda p: p["flow"]["params"].update({"layer1.b3": "x"}),
                "flow.params.layer1.b3 is not a numeric array",
            ),
            (lambda p: p["flow"].update(params=[]), "flow.params must be a JSON object"),
            (lambda p: p["flow"]["params"].pop("layer1.W2"), "missing key 'flow.params.layer1.W2'"),
            (
                lambda p: p["flow"]["params"].update({"layer2.W1": [[0.0]]}),
                "unknown key 'flow.params.layer2.W1': no 2-layer flow has it",
            ),
            (
                lambda p: p["flow"].update(masks=p["flow"]["masks"][:1]),
                r"flow.masks has shape \(1, 4\), expected \(2, 4\)",
            ),
            (lambda p: p["flow"]["masks"][0].__setitem__(0, 0.5), "flow.masks entries must be 0 or 1"),
            # layer_count 3 with two layers' tensors: the masks are checked first
            (
                lambda p: p["flow"]["config"].update(layer_count=3),
                r"flow.masks has shape \(2, 4\), expected \(3, 4\)",
            ),
            (
                lambda p: (
                    p["flow"]["config"].update(layer_count=3),
                    p["flow"]["masks"].append([1, 0, 1, 0]),
                ),
                "missing key 'flow.params.layer2.W1'",
            ),
            (
                lambda p: p["flow"]["config"].update(layer_count=2.0),
                "flow.config.layer_count must be an integer",
            ),
            (lambda p: p["flow"]["config"].update(width=4), "unknown key 'flow.config.width'"),
            (
                lambda p: p["flow"]["config"].update(learning_rate=math.nan),
                "flow.config.learning_rate must be a finite number, got nan",
            ),
            (
                lambda p: p["flow"]["standardize_scale"].__setitem__(1, math.nan),
                "flow.standardize_scale holds non-finite values",
            ),
            (
                lambda p: p["flow"]["standardize_scale"].__setitem__(1, -1.0),
                "flow.standardize_scale entries must be positive",
            ),
            (
                lambda p: p["flow"]["standardize_mean"].pop(),
                r"flow.standardize_mean has shape \(3,\), expected \(4,\)",
            ),
            (lambda p: p["flow"].update(dimension=4.0), "flow.dimension must be an integer, got 4.0"),
            (
                lambda p: p["flow"].update(initial_log_likelihood="abc"),
                "flow.initial_log_likelihood must be a number, got 'abc'",
            ),
            (
                lambda p: p["flow"].update(final_log_likelihood=[1, 2]),
                r"flow.final_log_likelihood must be a number, got \[1, 2\]",
            ),
            (
                lambda p: p["flow"].update(final_log_likelihood=True),
                "flow.final_log_likelihood must be a number, got True",
            ),
            (
                lambda p: p["flow"].update(initial_log_likelihood=math.nan),
                "flow.initial_log_likelihood must be a finite number, got nan",
            ),
            (lambda p: p.pop("flow"), "missing key 'flow'"),
            (lambda p: p.pop("dimension"), "missing key 'dimension'"),
            (lambda p: p.update(flow=[]), "flow must be a JSON object"),
            (lambda p: p.update(dimension=5), "'dimension' is 5, but the flow model has 4"),
        ],
    )
    def test_malformed_flow_payload_is_named_at_load(self, break_payload, named):
        config = FlowConfig(layer_count=2, coupling_net_width=3, training_iterations=2)
        model = fit_density(np.random.default_rng(87).normal(size=(12, 4)), flow_config=config)
        payload = density_model_to_json_dict(model)
        break_payload(payload)
        with pytest.raises(DensityError, match=named):
            density_model_from_json_dict(payload)

    @pytest.mark.parametrize(
        "break_payload, named",
        [
            (lambda p: p.pop("kde"), "missing key 'kde'"),
            (lambda p: p["kde"].pop("support_points"), "missing key 'kde.support_points'"),
            (
                lambda p: p["kde"].update(bandwidth_diag=[[1.0], 2.0]),
                "kde.bandwidth_diag is not a numeric array",
            ),
            (
                lambda p: p["kde"].update(bandwidth_diag=[1.0, math.inf]),
                "kde.bandwidth_diag holds non-finite values",
            ),
            (
                lambda p: p["kde"].update(support_points=[[[0.5, 0.1]], [[0.7, 0.2]]]),
                r"kde.support_points must be a 2-D array, got shape \(2, 1, 2\)",
            ),
            (
                lambda p: p["kde"].update(support_points=[0.5, 0.7]),
                r"kde.support_points must be a 2-D array, got shape \(2,\)",
            ),
            (
                lambda p: p["kde"].update(bandwidth_diag=[[1.0, 2.0]]),
                r"kde.bandwidth_diag must be a 1-D array, got shape \(1, 2\)",
            ),
            (lambda p: p.update(dimension="2"), "'dimension'"),
            (lambda p: p.update(dimension=3), "'dimension' is 3, but the kde model has 2"),
        ],
    )
    def test_malformed_kde_payload_is_named_at_load(self, break_payload, named):
        payload = density_model_to_json_dict(fit_density(np.random.default_rng(88).normal(size=(12, 2))))
        break_payload(payload)
        with pytest.raises(DensityError, match=named):
            density_model_from_json_dict(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(DensityError, match="JSON object"):
            density_model_from_json_dict([1, 2])

    def test_flow_file_in_the_older_layout_loads(self):
        """A flow file as written before density files came from the model's
        fields (integer masks, ``config`` after the scales) loads to the
        model that wrote it, bit for bit."""
        data = np.random.default_rng(5).normal(size=(8, 2))
        config = FlowConfig(layer_count=2, coupling_net_width=1, training_iterations=2)
        model = fit_density(data, override="flow", flow_config=config)
        back = density_model_from_json_dict(json.loads(OLDER_FLOW_FILE))
        assert back.config == config
        assert back.final_log_likelihood == model.final_log_likelihood
        probe = np.random.default_rng(7).normal(size=(16, 2))
        assert back.log_density(probe).tobytes() == model.log_density(probe).tobytes()

    def test_kde_file_in_the_older_layout_loads(self):
        model = fit_density(np.random.default_rng(6).normal(size=(3, 2)))
        back = density_model_from_json_dict(json.loads(OLDER_KDE_FILE))
        probe = np.random.default_rng(8).normal(size=(16, 2))
        assert back.log_density(probe).tobytes() == model.log_density(probe).tobytes()

    def test_file_keys_are_the_model_fields(self):
        flow = fit_density(
            np.random.default_rng(5).normal(size=(8, 2)),
            override="flow",
            flow_config=FlowConfig(layer_count=2, coupling_net_width=1, training_iterations=2),
        )
        payload = density_model_to_json_dict(flow)
        assert list(payload) == ["variant", "dimension", "flow"]
        assert list(payload["flow"]) == [
            "dimension", "masks", "params", "config", "standardize_mean",
            "standardize_scale", "initial_log_likelihood", "final_log_likelihood",
        ]
        assert payload["flow"]["masks"] == [[1.0, 0.0], [0.0, 1.0]]
        kde = density_model_to_json_dict(fit_density(np.random.default_rng(6).normal(size=(3, 2))))
        assert list(kde["kde"]) == ["support_points", "bandwidth_diag"]

    def test_round_trip_preserves_serialized_bytes(self, tmp_path):
        rng = np.random.default_rng(81)
        model = fit_density(rng.normal(size=(10, 2)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_density_model(model, a)
        save_density_model(load_density_model(a), b)
        assert a.read_bytes() == b.read_bytes()


# Density files as written before they came from the model's fields.
OLDER_FLOW_FILE = """{"variant": "flow", "dimension": 2, "flow": {"dimension": 2, "masks": [[1, \
0], [0, 1]], "params": {"layer0.W1": [[0.08964871930706222], [-0.09341224466100137]], \
"layer0.b1": [-0.0007403659512233092], "layer0.W2": [[0.6411660187596802]], "layer0.b2": \
[-0.0007355672495403924], "layer0.W3": [[0.0, 0.001999983110152581, 0.0, -0.001999924643687853]], \
"layer0.b3": [0.0, 0.000743983238058672, 0.0, -0.0007388244990432175], "layer1.W1": \
[[0.07417558418617765], [-0.3795195101869838]], "layer1.b1": [-0.0007422351597094109], \
"layer1.W2": [[0.3623391293878836]], "layer1.b2": [-0.000737827918323148], "layer1.W3": \
[[0.001999983742667434, 0.0, 0.0019999483275505957, 0.0]], "layer1.b3": [0.0007440411079640574, \
0.0, 0.0007428478638009979, 0.0]}, "standardize_mean": [-0.02509525671793165, \
-0.16370613601222017], "standardize_scale": [0.6973357009560996, 1.2297452197800356], "config": \
{"layer_count": 2, "coupling_net_width": 1, "training_iterations": 2, "learning_rate": 0.001, \
"perturbation": 1e-06, "seed": 0}, "initial_log_likelihood": -2.684195728728673, \
"final_log_likelihood": -2.684055134574793}}"""
OLDER_KDE_FILE = """{"variant": "kde", "dimension": 2, "kde": {"support_points": \
[[1.0531157544867582, 1.776491303816993], [-2.5532918384570134, -0.13796506137840808], \
[1.0137194090532766, 1.3521418253819912]], "bandwidth_diag": [2.9735141508664618, \
0.7009459750625492]}}"""


def kde_and_flow_models(d: int = 4) -> list[DensityModel]:
    """A kernel and an untrained default-config flow model over the same
    ``d``-dimensional data."""
    data = np.random.default_rng(99).normal(size=(40, d))
    return [
        fit_density(data, override="kde"),
        init_flow_model(data, FlowConfig()),
    ]


class TestLogDensity:
    """``log_density``: one checked, blocked evaluation of an (n, d) array
    for either model."""

    @pytest.mark.parametrize(
        "points, message",
        [
            (np.zeros(4), r"points must be an \(n, 4\) array, got shape \(4,\)"),
            (np.zeros((2, 3)), r"points must be an \(n, 4\) array, got shape \(2, 3\)"),
            (np.array([[0.0] * 4, [0.0, math.nan, 0.0, 0.0]]), "points contain non-finite values"),
        ],
        ids=["one-point", "wrong-width", "nan-row"],
    )
    def test_bad_points_rejected_alike_by_both_variants(self, points, message):
        messages = []
        for model in kde_and_flow_models():
            with pytest.raises(DensityError, match=message) as caught:
                model.log_density(points)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_no_points_give_no_values(self):
        for model in kde_and_flow_models():
            assert model.log_density(np.zeros((0, 4))).shape == (0,)

    def test_blocks_match_the_reference_row_by_row(self, monkeypatch):
        """Evaluated in blocks of 7 rows, each model's log-density equals
        its one-row reference within 1e-15 relative."""
        monkeypatch.setattr(density, "LOG_DENSITY_BLOCK_ROWS", 7)
        data = np.random.default_rng(99).normal(size=(40, 4))
        config = FlowConfig(layer_count=4, coupling_net_width=8, training_iterations=50)
        kde = fit_density(data, override="kde")
        flow = fit_density(data, override="flow", flow_config=config)
        points = np.random.default_rng(100).normal(size=(50, 4))
        assert np.allclose(
            kde.log_density(points),
            [reference_kde_log_density(kde, point) for point in points],
            rtol=1e-15,
            atol=0,
        )
        assert np.allclose(
            flow.log_density(points),
            [reference_log_density_batch(flow, point[None])[0] for point in points],
            rtol=1e-15,
            atol=0,
        )

    def test_kernel_grid_blocks_by_cells(self):
        """A 101x101 grid on a 2-d kernel model with 2000 support points
        peaks below 32 MiB: its blocks hold about 2^20 (rows, support)
        cells, not 4096 rows.  Each row reduces along its own row, so the
        blocked densities equal one unblocked evaluation bit for bit."""
        model = fit_density(np.random.default_rng(101).normal(size=(2000, 2)))
        tracemalloc.start()
        try:
            points, densities = evaluate_density_grid(model, [-3.0, -3.0], [3.0, 3.0], 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert np.array_equal(densities, np.exp(_kde_log_density(model, points)))


class TestDensityGrid:
    def test_one_dimensional_grid_integrates_to_one(self):
        rng = np.random.default_rng(82)
        data = rng.normal(size=(30, 1))
        model = fit_density(data)
        sigma = data.std(ddof=1)
        points, densities = evaluate_density_grid(
            model, [data.mean() - 10 * sigma], [data.mean() + 10 * sigma], 2001
        )
        assert points.shape == (2001, 1)
        integral = np.trapezoid(densities, points[:, 0])
        assert abs(integral - 1.0) < 1e-2

    def test_two_dimensional_grid_shape_and_positivity(self):
        rng = np.random.default_rng(83)
        model = fit_density(rng.normal(size=(20, 2)))
        points, densities = evaluate_density_grid(model, [-3, -3], [3, 3], 51)
        assert points.shape == (2601, 2)
        assert densities.shape == (2601,)
        assert np.all(densities >= 0)

    def test_projection_slices_high_dimensional_model(self):
        rng = np.random.default_rng(84)
        model = fit_density(rng.normal(size=(15, 3)))
        points, densities = evaluate_density_grid(
            model, [-2, -2], [2, 2], 11, project_dims=[0, 2]
        )
        assert points.shape == (121, 3)
        center = model.support_points.mean(axis=0)
        assert np.allclose(points[:, 1], center[1])
        assert np.all(densities > 0)

    def test_reversed_bounds_rejected(self):
        rng = np.random.default_rng(85)
        model = fit_density(rng.normal(size=(10, 1)))
        with pytest.raises(DensityError, match="reversed"):
            evaluate_density_grid(model, [2.0], [-2.0], 10)

    def test_large_flow_grid_memory_is_bounded(self):
        """A 301x301 grid on a 6-d default-config flow peaks below 48 MB:
        evaluated in one block it took about 490 MB."""
        model = kde_and_flow_models(d=6)[1]
        tracemalloc.start()
        try:
            points, densities = evaluate_density_grid(
                model, [-3.0, -3.0], [3.0, 3.0], 301, project_dims=[0, 1]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert densities.shape == (301 * 301,)
        assert np.isfinite(densities).all()
        assert peak < 48e6

    def test_high_dimension_without_projection_rejected(self):
        rng = np.random.default_rng(86)
        model = fit_density(rng.normal(size=(10, 3)))
        with pytest.raises(DensityError, match="projection"):
            evaluate_density_grid(model, [-1] * 3, [1] * 3, 5)


def saved_bytes(model: DensityModel) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "density.json"
        save_density_model(model, path)
        return path.read_bytes()


def resaved_bytes(data: bytes) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "density.json"
        path.write_bytes(data)
        return saved_bytes(load_density_model(path))


@st.composite
def kde_models(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=20))
    d = draw(st.integers(min_value=1, max_value=5))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return KdeModel(
        support_points=rng.normal(size=(n, d)) * scale,
        bandwidth_diag=np.exp(rng.uniform(-30.0, 10.0, size=d)),
    )


class TestDensityJsonBytes:
    """save_density_model -> load_density_model -> save_density_model
    writes the same bytes."""

    @settings(max_examples=60, deadline=None)
    @given(model=kde_models())
    def test_kde_round_trip(self, model):
        first = saved_bytes(model)
        assert resaved_bytes(first) == first

    @settings(max_examples=30, deadline=None)
    @given(case=flow_stacks())
    def test_stacked_flow_round_trip_and_reference_bytes(self, case):
        """Flows from a stacked fit, whose parameters are views into the
        shared buffer, round-trip byte for byte, and each view's file is
        the file of that view's own fit."""
        stack, config = case
        with np.errstate(over="ignore"):
            models = fit_density(stack, override="flow", flow_config=config)
            references = [reference_fit_flow(latent, config) for latent in stack]
        for model, reference in zip(models, references):
            first = saved_bytes(model)
            assert resaved_bytes(first) == first
            assert first == saved_bytes(reference)
