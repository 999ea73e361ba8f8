"""csflab benchmark: one command, four workloads, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a csflab checkout; the program is imported from its
``src`` directory. Each op runs in a fresh interpreter (``op.py``) with
CSF_THREADS=1 and the BLAS pools pinned to one thread, so one op is one
single-threaded process. Ops repeat, with the same seeded input, until S
seconds have passed and the workload's ``OPS_PER_RUN`` ops (default one)
have run, so that a workload whose output must repeat across ops is checked
on two. Times are reported as measured.

``--trace 0`` reports the end-to-end metrics (medians over the ops):

* ``wall_s``      -- wall time of the op after set-up;
* ``cpu_s``       -- user + system CPU time of the op process over the op;
* ``peak_rss_mb`` -- peak resident memory of the op process;
* ``setup_s``     -- process start until ``import csflab`` is done and the
  input curve is built.

``--trace 1`` runs the ops under the outside-in tracer (``tracer.py``) and
reports the per-layer metrics instead, together with ``trace.wall_s`` (the
traced op's wall time: tracing overhead is that minus the untraced
``wall_s``). Traced ops also check the tracer's count identities.

An op fails when its process fails or its check does (the acceptance bound
it mirrors, bit-equal read-back, stable run.csv bytes, the same output
digest across the ops of a run). Workload names and metric units come
from ``BENCHMARK.json`` at the checkout root. The last line of stdout is
the JSON result; details of every op and the machine facts go to
``perfbench/.work/result-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COMPUTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# ellipse_records makes two ops so that its run.csv bytes are compared
# across the ops of a run, field_io two because its memory-bound op is the
# noisiest; one op of the two longest workloads keeps a full benchmark pass
# (4 + 22 runs per workload) under an hour
OPS_PER_RUN = {"ellipse_records": 2, "field_io": 2}
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
PINNED_ENV = {
    "CSF_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(workload, seed, workdir, trace, timeout, log):
    """Start op.py and wait for it; return its result, or None if it failed."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "op.py"), workload, str(seed), str(workdir), str(result_path)]
    if trace:
        cmd += ["--trace", "--spans", str(WORK / f"spans-{workload}.json")]
    with open(workdir / "op.log", "w") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    result = None
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - start
        if not Path(result["versions"]["csflab_file"]).resolve().is_relative_to(SRC.resolve()):
            result["problems"] = result.get("problems", []) + ["csflab was not imported from src/"]
    else:
        tail = (workdir / "op.log").read_text()[-2000:]
        log(f"op process failed ({code}):\n{tail}")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _machine_facts(versions: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "csflab").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "pinned_env": PINNED_ENV,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def main(argv=None) -> int:
    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        log(f"error: no {bench_path}; run from a csflab checkout")
        return 2
    bench = json.loads(bench_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csflab" / "__init__.py").is_file():
        log(f"error: no csflab package under {SRC}; run from a csflab checkout")
        return 2

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    min_ops = OPS_PER_RUN.get(args.workload, 1)
    started = time.monotonic()
    ops = []
    while True:
        elapsed = time.monotonic() - started
        result = _run_child(
            args.workload, args.seed, WORK / f"{tag}-op{len(ops)}", args.trace,
            timeout=RUN_LIMIT_S - elapsed, log=log,
        )
        ops.append(result)
        if result is None:
            break
        elapsed = time.monotonic() - started
        if elapsed * (len(ops) + 1) / len(ops) > RUN_LIMIT_S - 10:
            if len(ops) < min_ops:
                log(f"warning: stopping after {len(ops)} of {min_ops} ops to stay inside {RUN_LIMIT_S} s")
            break
        if elapsed >= args.seconds and len(ops) >= min_ops:
            break

    done = [op for op in ops if op is not None]
    if len({op["digest"] for op in done}) > 1:
        for op in done:
            op["problems"].append("output differs between ops of the same seed")
    for op in done:
        op["problems"] += op.get("trace_problems", [])
    failed = sum(1 for op in ops if op is None or op["problems"])
    for i, op in enumerate(ops):
        for problem in op["problems"] if op else ():
            log(f"op {i} failed its check: {problem}")
    if not done:
        log("error: no op finished; nothing to report")
        return 1

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {
        m["name"]: {
            "value": statistics.median((op["layers"] if args.trace else op)[m["name"]] for op in done),
            "unit": m["unit"],
        }
        for m in declared
    }
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{label}")
    print(f"{args.workload} ops = {len(done)}, wall_s of each = " + ", ".join(f"{op['wall_s']:.4f}" for op in done))

    facts = _machine_facts(done[0]["versions"])
    print("machine " + json.dumps(facts, sort_keys=True))
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    detail = {"args": vars(args), "machine": facts, "ops": ops, "summary": summary}
    (WORK / f"result-{args.workload}.json").write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
