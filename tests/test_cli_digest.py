"""Every CLI output file is byte-identical across fresh interpreters.

Two runs of ``tools/cli_digest.py`` with different ``PYTHONHASHSEED``
values must print the same digests: no output may depend on the string
hash order of one interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "tools/cli_digest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_cli_outputs_do_not_depend_on_the_hash_seed():
    one, two = digest(1), digest(2)
    assert one == two
    paths = [line.split("  ", 1)[1] for line in one]
    # every command wrote its files: 14 simulate runs (the open custom-file
    # curve among them), the sphere run, two ratio fields and the helix scan
    assert sum(p.endswith("/run.csv") for p in paths) == 15
    assert sum(p.endswith("/analyze.csv") for p in paths) == 14
    assert "open.curve" in paths
    assert sum(p.endswith("/ratiofield.txt") for p in paths) == 2
    assert "sphere/consistency.csv" in paths and "scan/fscan.csv" in paths
