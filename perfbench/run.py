"""Benchmark of mvtransfer experiments on seeded synthetic data.

One run generates a dataset with ``mvtransfer.synthetic`` and an experiment
config from ``--seed``, writes both to disk, and then measures what one
``mvtransfer train --mode both`` invocation does with them:

* set-up: importing the package, ``load_experiment_config`` and
  ``load_dataset`` from the CSV directory, timed in fresh processes;
* ``run_experiment`` with artifacts written, repeated for ``--seconds``
  seconds.

Every experiment's outputs are checked; a failed check counts as a failed
run.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics of traced experiments (interleaved with untraced ones, which give
the tracing overhead).  Metric names and units come from ``BENCHMARK.json``
at the root of the checkout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kde-dtw --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

# One BLAS thread, which is never more than nproc: the measured work then
# stays on one core of a small, shared host.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_REPEATS = 7
# What the calibration work takes at the reference speed: its median on the
# 2-vCPU Xeon host where perfbench/baseline.json was measured.  Times are
# reported scaled to this speed (see HostSpeed).
CALIBRATION_REFERENCE_S = 0.35
MIN_TIMED = 3
MIN_TRACED_PAIRS = 2
ARTIFACTS = ("scores.json", "report.json", "curves.csv")
# The traced experiment's top-level child spans plus the pipeline's self time.
ACCOUNTED = ("pipeline.schedule_s", "networks.train_s", "pipeline.test_evaluate_s", "pipeline.self_s")


@dataclass(frozen=True)
class Workload:
    samples: int
    channels: int
    length: int
    config: dict


# Why each workload is chosen is recorded in BENCHMARK.json; sizes keep one
# experiment at a few seconds on a 2-core host so that a run holds several.
WORKLOADS = {
    "kde-dtw": Workload(
        samples=200,
        channels=2,
        length=128,
        config={
            "measure": "dtw",
            "arch": "mlp",
            "sampling": {"norm_kind": "frobenius", "invert_importance": True},
            "total_pretrain_epochs": 40,
            "finetune_epochs": 20,
            "repeats": 3,
        },
    ),
    "flow-boss": Workload(
        samples=64,
        channels=6,
        length=48,
        config={
            "measure": "boss",
            "arch": "mlp",
            "sampling": {"norm_kind": "spectral", "invert_importance": True},
            "total_pretrain_epochs": 40,
            "finetune_epochs": 20,
            "repeats": 3,
        },
    ),
    # The split is random, not stratified, and the program rejects a part
    # that holds one class.  At 20 samples and the default 0.7 split the six
    # test samples were all of one class for about 1 seed in 80; a 14/14
    # split of 28 samples keeps the training batch at 14 and never left a
    # part with one class in seeds 0 to 99999.
    "fcn-train": Workload(
        samples=28,
        channels=2,
        length=16,
        config={
            "measure": "dtw",
            "arch": "fcn",
            "train_fraction": 0.5,
            "sampling": {"norm_kind": "frobenius", "invert_importance": True},
            "total_pretrain_epochs": 2,
            "finetune_epochs": 1,
            "repeats": 1,
        },
    ),
}

# Runs in a fresh interpreter: the set-up of one ``mvtransfer train``.
SETUP_CODE = """
import sys, time
from pathlib import Path
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mvtransfer.cli
from mvtransfer.dataset import load_dataset
from mvtransfer.pipeline import load_experiment_config
imported = time.perf_counter()
config_path = Path(sys.argv[2])
config = load_experiment_config(config_path)
configured = time.perf_counter()
dataset = load_dataset(config_path.parent / config.dataset_path)
loaded = time.perf_counter()
print(mvtransfer.__file__)
print(dataset.n_samples, imported - start, configured - imported, loaded - configured)
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, or the set-up read the wrong inputs."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"no benchmark spec at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def import_package() -> None:
    """Import mvtransfer from this checkout's sources, never from elsewhere."""
    if not (SRC / "mvtransfer" / "__init__.py").is_file():
        raise BenchmarkError(f"no mvtransfer sources under {SRC}")
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import mvtransfer

    if Path(mvtransfer.__file__).resolve().parent != (SRC / "mvtransfer").resolve():
        raise BenchmarkError(f"mvtransfer imported from {mvtransfer.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": BLAS_THREADS,
    }


class HostSpeed:
    """Times a fixed piece of work that does not use mvtransfer.

    On a shared host the speed of a core drifts by tens of percent over
    seconds to minutes, so a whole run can sit in a slow or a fast phase.
    Timed before and after each set-up and each experiment, this work gives
    the host's speed during it; ``scale`` turns a measured time into the
    time at the reference speed.  The work mixes what the workloads spend
    their time on: a pure-Python dynamic programme like DTW, many small
    numpy operations like the flow and MLP steps, and GEMMs like the
    convolutions.  It does not change when mvtransfer does, so a change to
    the program shows in the scaled times in full.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal(60).tolist()
        self.b = rng.standard_normal(60).tolist()
        self.x = rng.standard_normal((64, 6))
        self.w1 = rng.standard_normal((6, 32))
        self.w2 = rng.standard_normal((32, 6))
        self.gemm = rng.standard_normal((128, 512))

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(60):
            previous = [0.0] + [float("inf")] * 60
            for ai in self.a:
                current = [float("inf")] * 61
                for j, bj in enumerate(self.b):
                    d = ai - bj
                    current[j + 1] = d * d + min(previous[j], previous[j + 1], current[j])
                previous = current
        for _ in range(3000):
            hidden = np.tanh(self.x @ self.w1)
            error = hidden @ self.w2 - self.x
            delta = (error @ self.w2.T) * (1.0 - hidden * hidden)
            (self.x.T @ delta).sum()
        for _ in range(400):
            self.gemm @ self.gemm.T
        return time.perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from a time measured between two calibrations to the reference speed."""
        return CALIBRATION_REFERENCE_S / ((before + after) / 2)


def write_inputs(work: Path, workload: Workload, seed: int) -> Path:
    """Emit the seeded dataset and its config; return the config path."""
    from mvtransfer.dataset import emit_dataset
    from mvtransfer.synthetic import TARGET_VIEW, make_synthetic_dataset

    dataset = make_synthetic_dataset(
        n_samples=workload.samples,
        channels=workload.channels,
        length=workload.length,
        seed=seed,
    )
    emit_dataset(dataset, work / "data")
    config = {
        "dataset_path": "data",
        "target_view": TARGET_VIEW,
        "mode": "both",
        "base_seed": seed,
        **workload.config,
    }
    config_path = work / "experiment.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def measure_setup(config_path: Path, samples: int, host: HostSpeed) -> list[dict]:
    """Time the set-up of ``mvtransfer train`` in fresh interpreters."""
    results = []
    before = host.seconds()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        module_file, fields = done.stdout.strip().splitlines()[-2:]
        count, import_s, config_s, load_s = fields.split()
        if Path(module_file).resolve().parent != (SRC / "mvtransfer").resolve():
            raise BenchmarkError(f"set-up imported mvtransfer from {module_file}")
        if int(count) != samples:
            raise BenchmarkError(f"set-up loaded {count} samples, expected {samples}")
        import_s, config_s, load_s = float(import_s), float(config_s), float(load_s)
        after = host.seconds()
        results.append(
            {
                "import_s": import_s,
                "config_s": config_s,
                "load_s": load_s,
                "total_s": import_s + config_s + load_s,
                "scaled_s": (import_s + config_s + load_s) * host.scale(before, after),
            }
        )
        before = after
    return results


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, config, reference: dict | None) -> tuple[dict, list]:
    """Hashes of the deterministic artifacts and the checks they fail."""
    from mvtransfer.synthetic import CORRELATED_VIEW, DISTRACTOR_VIEW

    problems = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    epochs = report["schedule"]["epochs"]
    if sum(epochs) != config.total_pretrain_epochs:
        problems.append(f"schedule {epochs} does not sum to {config.total_pretrain_epochs}")
    sources = [v for v in range(len(epochs) + 1) if v != config.target_view]
    correlated = epochs[sources.index(CORRELATED_VIEW)]
    distractor = epochs[sources.index(DISTRACTOR_VIEW)]
    if correlated <= distractor:
        problems.append(f"correlated view got {correlated} epochs, distractor {distractor}")
    for mode in ("baseline", "transfer"):
        accuracies = report[mode]["accuracies"]
        if len(accuracies) != config.repeats or not all(0.0 <= a <= 1.0 for a in accuracies):
            problems.append(f"{mode} accuracies {accuracies} for {config.repeats} repeats")
    hashes = {name: sha256(out / name) for name in ARTIFACTS}
    if reference is not None and hashes != reference:
        problems.append("artifacts differ from the first run")
    return hashes, problems


@dataclass
class Outcome:
    seconds: float
    traced: bool
    hashes: dict | None
    problems: list
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


class Experiments:
    """Runs ``run_experiment`` on the loaded inputs, traced or not."""

    def __init__(self, work: Path, config, dataset, tracer=None):
        self.work = work
        self.config = config
        self.dataset = dataset
        self.tracer = tracer
        self.reference = None
        self.count = 0

    def run(self, traced: bool) -> Outcome:
        from mvtransfer import pipeline

        import layers

        index = self.count
        self.count += 1
        out = self.work / f"out-{index}"
        run_experiment = pipeline.run_experiment
        if traced:
            self.tracer.run_id = index
            layers.install(self.tracer, self.config.fcn_kernel_sizes)
            run_experiment = self.tracer.span(layers.ROOT_SPAN, run_experiment)
        start = time.perf_counter()
        try:
            run_experiment(self.config, dataset=self.dataset, out_dir=out)
            elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Outcome(time.perf_counter() - start, traced, None, ["raised"])
        finally:
            if traced:
                self.tracer.restore()
        try:
            hashes, problems = check_outputs(out, self.config, self.reference)
            timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
            if traced:
                (root,) = self.tracer.roots(index)
                elapsed = root.seconds
                problem = layers.accounting_problem(self.tracer, root, timings)
                if problem:
                    problems.append(problem)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            hashes, problems = None, [f"unreadable outputs: {exc!r}"]
        shutil.rmtree(out, ignore_errors=True)
        if self.reference is None and hashes is not None and not problems:
            self.reference = hashes
        return Outcome(elapsed, traced, hashes, problems)


def run_for(
    experiments: Experiments, host: HostSpeed, seconds: float, trace: bool
) -> list[Outcome]:
    """Experiments until ``seconds`` are used, each one timed.

    There is no warm-up: every ``mvtransfer train`` invocation pays its
    first-call costs, and the first experiment is measured no slower than
    later ones.  A run stops before starting an experiment that would end
    more than half a typical experiment past the deadline, once it holds
    its minimum samples.  A traced run alternates untraced and traced
    experiments.  The host's speed is calibrated before and after each one.
    """
    start = time.perf_counter()
    outcomes: list[Outcome] = []
    before = host.seconds()
    while True:
        traced = sum(o.traced for o in outcomes)
        untraced = len(outcomes) - traced
        if trace:
            enough = traced >= MIN_TRACED_PAIRS and traced == untraced
        else:
            enough = untraced >= MIN_TIMED
        if enough:
            typical = statistics.median(o.seconds for o in outcomes)
            if time.perf_counter() - start + typical / 2 > seconds:
                return outcomes
        outcome = experiments.run(traced=trace and traced < untraced)
        after = host.seconds()
        outcome.scale = host.scale(before, after)
        before = after
        outcomes.append(outcome)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def format_value(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_package()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from mvtransfer.dataset import load_dataset
    from mvtransfer.pipeline import load_experiment_config

    import layers
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        config_path = write_inputs(work, workload, args.seed)
        host = HostSpeed()
        setup = measure_setup(config_path, workload.samples, host)
        config = load_experiment_config(config_path)
        dataset = load_dataset(config_path.parent / config.dataset_path)
        tracer = Tracer() if args.trace else None
        outcomes = run_for(
            Experiments(work, config, dataset, tracer), host, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    for index, outcome in enumerate(outcomes):
        if outcome.problems:
            print(f"experiment {index} failed: {'; '.join(outcome.problems)}", file=sys.stderr)
    hashes = next((o.hashes for o in outcomes if o.hashes), {})
    for name in ARTIFACTS:
        print(f"sha256 {name} {hashes.get(name, 'missing')}")
    timed = [o for o in outcomes if not o.problems]
    untraced = [o for o in timed if not o.traced]
    traced = [o for o in timed if o.traced]

    values: dict[str, float] = {}
    per_run = []
    if args.trace:
        per_run = [
            layers.layer_metrics(tracer, index)
            for index, o in enumerate(outcomes)
            if o.traced and not o.problems
        ]
        if per_run:
            for name in per_run[0]:
                values[name] = statistics.median(m[name] for m in per_run)
            values["trace.overhead_ratio"] = statistics.median(
                o.scaled_s for o in traced
            ) / statistics.median(o.scaled_s for o in untraced)
        values["dataset.load_s"] = statistics.median(s["load_s"] for s in setup)
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
        trace_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"env": env, "setup": setup, "metrics": values, **tracer.to_json_dict()}
        trace_path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        values["setup_s"] = statistics.median(s["scaled_s"] for s in setup)
        if untraced:
            values["experiment_s"] = statistics.median(o.scaled_s for o in untraced)
        values["peak_rss_mb"] = peak_rss_mb()
        wanted = spec["end_to_end"]

    print(
        f"setup_s samples={len(setup)} "
        f"wall median={format_value(statistics.median(s['total_s'] for s in setup))} s "
        f"scaled median={format_value(statistics.median(s['scaled_s'] for s in setup))} s"
    )
    samples = traced if args.trace else untraced
    if samples:
        wall = [o.seconds for o in samples]
        print(
            f"experiment_s{' (traced)' if args.trace else ''} samples={len(samples)} "
            f"wall median={format_value(statistics.median(wall))} "
            f"min={format_value(min(wall))} max={format_value(max(wall))} s "
            f"scaled median={format_value(statistics.median(o.scaled_s for o in samples))} s"
        )
    print("durations_s " + " ".join(f"{'T' if o.traced else ''}{o.seconds:.4g}" for o in outcomes))
    print("host_scale " + " ".join(f"{o.scale:.4g}" for o in outcomes))
    print(f"failed_ratio {len(failed)}/{len(outcomes)} = {format_value(len(failed) / len(outcomes))} ratio")
    if args.trace and per_run:
        parts = [n for n in ACCOUNTED if n in values]
        print(
            "accounting " + " + ".join(f"{n}={format_value(values[n])}" for n in parts)
            + f" = {format_value(sum(values[n] for n in parts))}"
            + f" of trace.experiment_s={format_value(values['trace.experiment_s'])} s (medians)"
        )
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
            print(f"{entry['name']:32s} {format_value(values[entry['name']]):>14s} {entry['unit']}")
    missing = [e["name"] for e in wanted if e["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
