"""Run the benchmark on several seeds and summarise every metric.

    python3 perfbench/summary.py --seeds 1 2 3 4 5
    python3 perfbench/summary.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

For each workload of BENCHMARK.json it makes one untraced run per seed,
then one traced run on the first seed, one after another and never in
parallel, each for the ``run_seconds`` of BENCHMARK.json.  It prints every
end-to-end metric with its unit, median, first and third quartile (as
``statistics.quantiles(n=4)`` gives them) and spread: the distance between
the quartiles as a share of the median, which the bounds in BENCHMARK.json
are judged against.  It prints ``failed_ratio`` over all runs and every
per-layer metric of the traced run.  ``--out`` also
writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return env, json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = []
        for seed in args.seeds:
            summary["env"], result = run_once(workload, seed, seconds, 0)
            untraced.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)[1]
        runs = untraced + [traced]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = summarise(untraced)
        per_layer = traced["metrics"]
        summary["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        print(f"== {workload}: failed_ratio {failed}/{attempted} = {failed / attempted:.6g} ratio")
        for name, s in end_to_end.items():
            bound = bounds[name]
            verdict = "steady" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:30s} median={s['median']:.6g} {s['unit']} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bound} {verdict}")
        for name, m in per_layer.items():
            print(f"  {name:30s} {m['value']:.6g} {m['unit']} (traced, seed {args.seeds[0]})")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
