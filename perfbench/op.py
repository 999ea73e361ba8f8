"""One benchmark op in a fresh interpreter.

    python3 perfbench/op.py WORKLOAD SEED WORKDIR RESULT [--trace --spans FILE]

Imports csflab, builds the seeded input (that is set-up), then times one op
of WORKLOAD, measures its CPU time and peak RSS, checks its output and
writes a JSON result to RESULT. ``run.py`` starts this script with
CSF_THREADS=1 and PYTHONPATH pointing at the checkout's ``src``, and takes
set-up time as the span from starting the process to the ``ready`` stamp.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(name, seed, workdir, trace, size_key="full", spans_path=None) -> dict:
    """Set up, time, check (and optionally trace) one op of workload ``name``."""
    from workloads import WORKLOADS, identity_problems

    workload = WORKLOADS[name]
    size = workload.sizes[size_key]
    inputs = workload.setup(seed, size, workdir)
    out = {"ready": time.monotonic()}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        result = workload.op(inputs, size, workdir)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
    problems, digest = workload.check(inputs, size, result, workdir)
    out.update(
        {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_kib / 1024.0,
            "problems": problems,
            "digest": digest,
        }
    )
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.wall_s"] = wall
        layers["trace.spans"] = len(tracer.spans)
        fired = {n: agg["count"] for n, agg in tracer.aggregate().items()}
        out["trace_problems"] = identity_problems(workload, layers, size, fired)
        out["layers"] = layers
        out["fired"] = fired
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    out = run_op(args.workload, args.seed, args.workdir, args.trace, spans_path=args.spans)

    import csflab
    import numpy as np
    import scipy

    out["versions"] = {
        "csflab": csflab.__version__,
        "csflab_file": csflab.__file__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    args.result.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
