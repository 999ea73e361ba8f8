"""Alternating runs of the benchmark in two checkouts, kept as a bench file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json

PARENT_DIR and CHANGE_DIR are two csflab checkouts that declare the same
benchmark in ``BENCHMARK.json``. Each seed that ``perfbench/repeat.py``
runs (SEED0 .. SEED0 + RUNS - 1, 1000-1009) is one pair: every workload
runs the declared command (``python3 perfbench/run.py --workload W --seed
S --seconds <run_seconds> --trace 0``) once in each checkout, the parent
first on even seeds and the change first on odd ones, so that a drift of
the host's speed falls on both sides alike.

The file holds, per workload and per end-to-end metric, each side's run
values with the median, quartiles and ``spread`` that ``repeat._stats``
gives them and the benchmark's bound; per pair, ``change_wins`` (pairs in
which the change read better, ties counting for neither),
``median_change`` (change median over parent median, minus one) and
``median_gap_over_parent_iqr``; and ``all_correct``, with the machine facts
that each side's runs print. A summary table goes to stdout,
one line per run to stderr. Exit status 1 when any run fails or reports an
incorrect result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

# the seeds and the per-side statistics of perfbench/repeat.py
_spec = importlib.util.spec_from_file_location(
    "repeat", Path(__file__).resolve().parent.parent / "perfbench" / "repeat.py"
)
repeat = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repeat)

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600.0


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float):
    """One benchmark run: its printed summary and machine facts, or Nones.

    Unlike ``repeat._run``, it runs in a given checkout and reports a failed
    run instead of exiting, so that the other runs still count.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit status {proc.returncode}")
        summary = json.loads(lines[-1])
        machine = next((json.loads(line[len("machine "):])
                        for line in lines if line.startswith("machine ")), None)
    except ValueError as exc:
        print(f"{checkout}: {workload} seed {seed}: {exc}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, None
    return summary, machine


def side_summary(values: list[float], bound: float) -> dict:
    """``repeat._stats`` of one side's runs and the bound; Nones below 2 runs."""
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3", "spread"), None) | {
            "values": values, "bound": bound}
    return repeat._stats(values) | {"bound": bound}


def summarise(results: dict, end_to_end: list[dict]) -> dict:
    """The bench file's ``workloads`` from one run per seed of each side.

    ``results[workload][side]`` lists the runs in seed order: the summary
    that the benchmark prints as its last line, or None for a failed run.
    """
    out = {}
    for workload, sides in results.items():
        entry = {side: {"end_to_end": {}} for side in SIDES}
        entry["pairs"] = {}
        for metric in end_to_end:
            name = metric["name"]
            vals = {
                side: [r["metrics"][name]["value"] if r else None for r in sides[side]]
                for side in SIDES
            }
            for side in SIDES:
                entry[side]["end_to_end"][name] = side_summary(
                    [v for v in vals[side] if v is not None], metric["bound"]
                )
            pairs = [(p, c) for p, c in zip(vals["parent"], vals["change"])
                     if p is not None and c is not None]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent = entry["parent"]["end_to_end"][name]
            change = entry["change"]["end_to_end"][name]
            gap = iqr = None
            if parent["median"] is not None and change["median"] is not None:
                gap = abs(change["median"] - parent["median"])
                iqr = parent["q3"] - parent["q1"]
            entry["pairs"][name] = {
                "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
                "pairs": len(pairs),
                "median_change": change["median"] / parent["median"] - 1.0
                if gap is not None and parent["median"] else None,
                "median_gap_over_parent_iqr": gap / iqr if iqr else None,
            }
        entry["all_correct"] = all(
            r is not None and r["correct"] for side in SIDES for r in sides[side]
        )
        out[workload] = entry
    return out


def _table(workloads: dict) -> list[str]:
    rows = [f"{'workload':16} {'metric':12} {'parent':>10} {'change':>10} "
            f"{'change':>8} {'wins':>6} {'gap/IQR':>8}"]
    for workload, entry in workloads.items():
        for name, pair in entry["pairs"].items():
            p = entry["parent"]["end_to_end"][name]["median"]
            c = entry["change"]["end_to_end"][name]["median"]
            rel = pair["median_change"]
            gap = pair["median_gap_over_parent_iqr"]
            rows.append(
                f"{workload:16} {name:12} {p if p is not None else 'n/a':>10.6} "
                f"{c if c is not None else 'n/a':>10.6} "
                f"{f'{rel:+.2%}' if rel is not None else 'n/a':>8} "
                f"{pair['change_wins']:>3}/{pair['pairs']:<2} "
                f"{f'{gap:.2f}' if gap is not None else 'n/a':>8}"
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    benches = {side: json.loads((d / "BENCHMARK.json").read_text()) for side, d in dirs.items()}
    if benches["parent"] != benches["change"]:
        parser.error("the two checkouts declare different benchmarks")
    bench = benches["change"]

    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    machine = {}
    seeds = range(repeat.SEED0, repeat.SEED0 + repeat.RUNS)
    for seed in seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                summary, facts = run_once(dirs[side], bench["command"], workload, seed,
                                          bench["run_seconds"])
                results[workload][side].append(summary)
                machine[side] = facts or machine.get(side)
                shown = {k: round(m["value"], 4) for k, m in summary["metrics"].items()} \
                    if summary else "failed"
                ok = summary is not None and summary["correct"]
                print(f"seed {seed} {workload} {side}: {shown}"
                      f"{'' if ok else ' INCORRECT'}", file=sys.stderr, flush=True)

    summarised = summarise(results, bench["end_to_end"])
    document = {
        "made_with": (
            f"{' '.join(bench['command'])} --workload W --seed S --seconds "
            f"{bench['run_seconds']} --trace 0, once in a checkout of the parent "
            f"commit and once in a checkout of the change, for seeds "
            f"{seeds[0]}-{seeds[-1]} (tools/bench_pairs.py); each seed is one pair, "
            "run for every workload in turn, parent first on even seeds and "
            "change first on odd seeds"
        ),
        "machine": {side: machine.get(side) for side in SIDES},
        "notes": (
            "Times are raw, as measured. Each value is one run: the median over "
            "its ops. change_wins counts the pairs in which the change read "
            "better; median_change is the change median over the parent median, "
            "minus one; median_gap_over_parent_iqr is the distance between the "
            "medians over the parent's Q3 - Q1."
        ),
        "workloads": summarised,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print("\n".join(_table(summarised)))
    return 0 if all(e["all_correct"] for e in summarised.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
