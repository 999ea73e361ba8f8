"""Every CLI output file is byte-identical across fresh interpreters.

Two runs of ``tools/cli_digest.py`` with different ``PYTHONHASHSEED``
values must print the same digests: no output may depend on the string
hash order of one interpreter. A third run takes LAPACK ``ptsv`` from
SciPy's wrapper instead of numpy's OpenBLAS and must print them too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# cli_digest with numpy's ptsv lookup failing, as where numpy exports none
FALLBACK = """\
import sys
sys.path.insert(0, "tools")
from csflab import tridiag
tridiag._numpy_ptsv = lambda: None
import cli_digest
status = cli_digest.main([])
assert "scipy.linalg._flapack" in sys.modules, "no solve went through scipy"
sys.exit(status)
"""


def digest(hash_seed, fallback=False):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
    script = ["-c", FALLBACK] if fallback else ["tools/cli_digest.py"]
    proc = subprocess.run(
        [sys.executable, "-B", *script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def default_digest():
    return digest(1)


def test_cli_outputs_do_not_depend_on_the_hash_seed(default_digest):
    one, two = default_digest, digest(2)
    assert one == two
    paths = [line.split("  ", 1)[1] for line in one]
    # every command wrote its files: 14 simulate runs (the open custom-file
    # curve among them), the sphere run, two ratio fields and the helix
    # scans on a log and a linear m grid
    assert sum(p.endswith("/run.csv") for p in paths) == 15
    assert sum(p.endswith("/analyze.csv") for p in paths) == 14
    assert "open.curve" in paths
    assert sum(p.endswith("/ratiofield.txt") for p in paths) == 2
    assert "sphere/consistency.csv" in paths
    assert "scan/fscan.csv" in paths and "scan-linear/fscan.csv" in paths


def test_cli_outputs_do_not_depend_on_the_lapack_route(default_digest):
    assert digest(1, fallback=True) == default_digest
