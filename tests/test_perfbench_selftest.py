"""The benchmark's tracer self-test, so a renamed traced function fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # runs every workload at its small size, traced; it writes only under
    # the git-ignored perfbench/.work/ (-B: no bytecode files either)
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
