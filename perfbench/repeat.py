"""Run the benchmark over ten seeds and report medians and spreads.

    python3 perfbench/repeat.py [--traced K] [--out FILE]

Reads ``BENCHMARK.json`` at the checkout root and runs its command once per
seed (SEED0 .. SEED0 + RUNS - 1) for each workload. For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread (Q3 - Q1) / median next to the metric's bound. With
``--traced K`` it also makes K traced runs per workload and reports the
medians of the per-layer metrics and the tracing overhead, the traced
``trace.wall_s`` median minus the untraced ``wall_s`` median. ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEED0 = 1000


def _run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported failed ops:\n{done.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [_run(bench, workload, SEED0 + i, 0) for i in range(RUNS)]
        entry = {"end_to_end": {}}
        for metric in bench["end_to_end"]:
            st = _stats([r[metric["name"]] for r in runs])
            st["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = st
            print(f"{workload:16s} {metric['name']:12s} median {st['median']:10.4f} "
                  f"IQR [{st['q1']:.4f}, {st['q3']:.4f}] spread {st['spread']:.4f} "
                  f"(bound {metric['bound']}, target < {metric['bound'] / 3:.4f})", flush=True)
        if args.traced:
            traced = [_run(bench, workload, SEED0 + i, 1) for i in range(args.traced)]
            layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
            overhead = layers["trace.wall_s"] - entry["end_to_end"]["wall_s"]["median"]
            entry["per_layer_median"] = layers
            entry["tracing_overhead_s"] = overhead
            print(f"{workload:16s} tracing overhead {overhead:+.3f} s over "
                  f"{args.traced} traced runs", flush=True)
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
