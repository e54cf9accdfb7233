"""Where a traced run hooks into mvtransfer, and the per-layer metrics it yields.

Each wrapper is installed on the module attribute that the caller looks up
(``pipeline.train`` rather than ``networks.train``, because the pipeline
imported the name), so the package itself is not modified.  Work counts are
computed from call arguments and results, never from the package's private
caches, so a rewrite of a layer's internals keeps them meaningful.
"""

from __future__ import annotations

import functools

import numpy as np

from mvtransfer import density, distance, flow, importance, networks, pipeline

ROOT_SPAN = "pipeline.run"
# The direct children of run_experiment that the tracer can see; everything
# else it does (prepare/split, network init, weight transfer, artifact
# writes) is the pipeline's self time.
TOP_LEVEL_SPANS = ("pipeline.schedule", "networks.train", "pipeline.test_evaluate")
CONV_BLOCKS = (1, 2, 3)
# Rounding allowance when spans are compared with the program's own timings;
# both read the same clock.
CLOCK_SLACK_S = 1e-6


@functools.lru_cache(maxsize=64)
def band_cells(n: int, m: int, radius: int | None) -> int:
    """Cells of the warping matrix a banded DTW fills."""
    if radius is None:
        return n * m
    return sum(max(0, min(m - 1, i + radius) - max(0, i - radius) + 1) for i in range(n))


def install(tracer, kernel_sizes) -> None:
    """Install every wrapper; ``tracer.restore()`` removes them.

    Convolution blocks are told apart by the kernel width each call
    receives, so the configured kernel sizes must be distinct.
    """
    block_of = {int(k): f"conv{b}" for b, k in zip(CONV_BLOCKS, kernel_sizes)}
    if len(block_of) != len(CONV_BLOCKS):
        raise ValueError(f"need {len(CONV_BLOCKS)} distinct kernel sizes, got {kernel_sizes}")
    span, fold, patch = tracer.span, tracer.fold, tracer.patch

    def dtw(result, x, y, params=None):
        radius = params.band_radius if params is not None else None
        return "distance.dtw", band_cells(int(np.size(x)), int(np.size(y)), radius)

    def sfa_fit(result, corpus, params):
        windows = sum(int(np.size(s)) - params.window_length + 1 for s in corpus)
        return "distance.sfa_fit", windows

    def sfa_transform(result, x, bins, params):
        return "distance.sfa_transform", int(np.size(x)) - params.window_length + 1

    def loss_grad(result, net, batch, labels, rng=None):
        return "networks.loss_grad", len(batch)

    def conv_forward(result, x, weights, bias):
        batch, in_channels, length = np.shape(x)
        out_channels, _, kernel = weights.shape
        macs = batch * out_channels * in_channels * kernel * length
        return f"networks.{block_of[kernel]}.fwd", macs

    def conv_backward(result, grad_output, cache):
        _, grad_weights, _ = result
        batch, out_channels, length = grad_output.shape
        _, in_channels, kernel = grad_weights.shape
        # The input and the weight gradient each cost one forward pass of MACs.
        macs = 2 * batch * out_channels * in_channels * kernel * length
        return f"networks.{block_of[kernel]}.bwd", macs

    patch(pipeline, "compute_schedule", span("pipeline.schedule", pipeline.compute_schedule))
    patch(pipeline, "score_source_view", span("importance.score", pipeline.score_source_view))
    patch(pipeline, "train", span("networks.train", pipeline.train))
    patch(pipeline, "evaluate", span("pipeline.test_evaluate", pipeline.evaluate))
    patch(
        importance,
        "build_latent_set",
        span("distance.latent", importance.build_latent_set, lambda r, *a, **k: r.size),
    )
    patch(importance, "fit_density", span("density.fit", importance.fit_density))
    patch(
        importance,
        "draw_importance_matrix",
        span("importance.draw", importance.draw_importance_matrix),
    )
    patch(importance, "matrix_norm", span("importance.norm", importance.matrix_norm))
    patch(density, "fit_flow", span("flow.fit", density.fit_flow))
    patch(distance, "dtw_distance", fold("distance.dtw", distance.dtw_distance, dtw))
    patch(distance, "sfa_fit", fold("distance.sfa_fit", distance.sfa_fit, sfa_fit))
    patch(
        distance,
        "sfa_transform",
        fold("distance.sfa_transform", distance.sfa_transform, sfa_transform),
    )
    patch(flow, "flow_loss_and_gradients", fold("flow.loss_grad", flow.flow_loss_and_gradients))
    patch(flow, "adam_update", fold("optim.flow_adam", flow.adam_update))
    patch(networks, "adam_update", fold("optim.net_adam", networks.adam_update))
    patch(
        networks,
        "loss_and_gradients",
        fold("networks.loss_grad", networks.loss_and_gradients, loss_grad),
    )
    patch(networks, "evaluate", fold("networks.evaluate", networks.evaluate))
    patch(
        networks,
        "conv1d_forward",
        fold("networks.conv.fwd", networks.conv1d_forward, conv_forward),
    )
    patch(
        networks,
        "conv1d_backward",
        fold("networks.conv.bwd", networks.conv1d_backward, conv_backward),
    )
    patch(networks, "batchnorm_forward", fold("networks.bn_fwd", networks.batchnorm_forward))
    patch(networks, "batchnorm_backward", fold("networks.bn_bwd", networks.batchnorm_backward))


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def accounting_problem(tracer, root, timings: dict) -> str | None:
    """Check the traced spans against the program's own clock.

    ``timings`` is the experiment's ``timings.json``: ``run_experiment``
    times each repeat and its whole body itself.  The schedule runs before
    the repeats and the training and held-out evaluation inside them, so
    each traced group must fit in the interval the program measured for it,
    and that body must fit in the root span.  A span that is mis-timed,
    double-counted or missing from the root breaks one of these bounds.
    """
    children = tracer.root_children(root)
    unexpected = sorted({c.name for c in children} - set(TOP_LEVEL_SPANS))
    if unexpected:
        return f"unexpected top-level spans {unexpected}"
    traced = {name: 0.0 for name in TOP_LEVEL_SPANS}
    for child in children:
        traced[child.name] += child.seconds
    repeats_s = sum(timings.get("baseline", [])) + sum(timings.get("transfer", []))
    in_repeats = traced["networks.train"] + traced["pipeline.test_evaluate"]
    if in_repeats > repeats_s + CLOCK_SLACK_S:
        return f"training and evaluation spans {in_repeats:.6f} s exceed repeats {repeats_s:.6f} s"
    body_s = traced["pipeline.schedule"] + repeats_s
    if body_s > timings["total"] + CLOCK_SLACK_S:
        return f"schedule and repeats {body_s:.6f} s exceed the total {timings['total']:.6f} s"
    if timings["total"] > root.seconds + CLOCK_SLACK_S:
        return f"the total {timings['total']:.6f} s exceeds the root span {root.seconds:.6f} s"
    return None


def layer_metrics(tracer, run: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment."""
    (root,) = tracer.roots(run)
    totals = tracer.totals(run)

    def seconds(name):
        return totals.get(name, {}).get("seconds", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_seconds(name):
        return totals.get(name, {}).get("self_seconds", 0.0)

    def work(name):
        return totals.get(name, {}).get("work", 0.0)

    conv = [f"networks.conv{b}.{d}" for b in CONV_BLOCKS for d in ("fwd", "bwd")]
    conv_s = sum(seconds(n) for n in conv)
    conv_gmac = sum(work(n) for n in conv) / 1e9
    sfa_s = seconds("distance.sfa_fit") + seconds("distance.sfa_transform")
    sfa_windows = work("distance.sfa_fit") + work("distance.sfa_transform")
    iterations = calls("flow.loss_grad")
    metrics = {
        "trace.experiment_s": root.seconds,
        "pipeline.schedule_s": seconds("pipeline.schedule"),
        "pipeline.test_evaluate_s": seconds("pipeline.test_evaluate"),
        "pipeline.self_s": root.seconds - root.child_s,
        "distance.latent_s": seconds("distance.latent"),
        "distance.pairs": work("distance.latent"),
        "distance.dtw_s": seconds("distance.dtw"),
        "distance.dtw_cells": work("distance.dtw"),
        "distance.dtw_cells_per_s": _rate(work("distance.dtw"), seconds("distance.dtw")),
        "distance.sfa_fit_s": seconds("distance.sfa_fit"),
        "distance.sfa_transform_s": seconds("distance.sfa_transform"),
        "distance.sfa_windows": sfa_windows,
        "distance.sfa_windows_per_s": _rate(sfa_windows, sfa_s),
        "density.fit_s": seconds("density.fit"),
        "flow.fit_s": seconds("flow.fit"),
        "flow.iterations": iterations,
        "flow.iter_ms": 1e3 * seconds("flow.fit") / iterations if iterations else 0.0,
        "flow.loss_grad_s": seconds("flow.loss_grad"),
        "importance.score_s": self_seconds("importance.score"),
        "importance.draw_s": seconds("importance.draw"),
        "importance.norm_s": seconds("importance.norm"),
        "optim.flow_adam_s": seconds("optim.flow_adam"),
        "optim.flow_adam_calls": calls("optim.flow_adam"),
        "optim.net_adam_s": seconds("optim.net_adam"),
        "optim.net_adam_calls": calls("optim.net_adam"),
        "networks.train_s": seconds("networks.train"),
        "networks.batches": calls("networks.loss_grad"),
        "networks.sample_epochs_per_s": _rate(
            work("networks.loss_grad"), seconds("networks.train")
        ),
        "networks.loss_grad_s": seconds("networks.loss_grad"),
        "networks.evaluate_s": seconds("networks.evaluate"),
        "networks.evaluate_calls": calls("networks.evaluate"),
        "networks.conv_gmac": conv_gmac,
        "networks.conv_gmac_per_s": _rate(conv_gmac, conv_s),
        "networks.bn_fwd_s": seconds("networks.bn_fwd"),
        "networks.bn_bwd_s": seconds("networks.bn_bwd"),
    }
    for name in conv:
        metrics[f"{name}_s"] = seconds(name)
    return metrics
