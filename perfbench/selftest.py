"""Tracer self-test on small inputs.

    python3 perfbench/selftest.py

Runs every workload once, traced, at its "small" size in this process and
fails (exit 1) when a tracer identity breaks, a workload's expected span
never fires, or a tracer site fires on no workload. A rename in csflab
makes ``Tracer.install`` raise, which also fails here. The acceptance
checks are not asserted: their bounds hold at the full sizes only.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from op import run_op  # noqa: E402
from run import WORK  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    problems = []
    fired_anywhere = set()
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            out = run_op(name, seed=1, workdir=Path(tmp), trace=True, size_key="small")
        layers = out["layers"]
        fired_anywhere.update(span for span, count in out["fired"].items() if count)
        problems += [f"{name}: {p}" for p in out["trace_problems"]]
        print(f"{name}: {len(out['trace_problems'])} tracer problems, {layers['trace.spans']} spans, "
              f"steps {layers['flow.steps']}, geometry calls {layers['curve.geometry_calls']}")
    problems += [f"tracer site {span} fires on no workload"
                 for span in SPAN_NAMES if span not in fired_anywhere]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("tracer self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
