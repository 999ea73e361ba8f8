"""Digest of every file a fixed set of csflab commands writes.

    PYTHONPATH=src python3 tools/cli_digest.py [--keep DIR]

Runs ``csflab.cli.main`` in this process on small inputs: ``simulate`` on
the ellipse, circle, helix, graph-curve, sphere-perturbed and cos2u
presets with both schemes (every stop reason, frequent remeshes), and on
a fixed open curve that the tool writes into its output directory
(``custom-file``: the curve reader, the one-sided end stencils and the
banded solve without the cyclic correction), ``analyze`` on each of those
runs, ``sphere-verify``, ``ratio-field`` with both metrics and
``helix-scan`` on a log and a linear m grid. It prints one
``sha256  path`` line per file written, sorted by path, the path relative
to the output directory. The command output itself is discarded.

Run it once per checkout, with ``PYTHONPATH`` pointing at that checkout's
``src``, and ``diff`` the two outputs: equal lines mean byte-identical
files. Two runs of one checkout under different ``PYTHONHASHSEED``
values check that the outputs are the same in every fresh interpreter.
Exit status 1 when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

from csflab.cli import main as csflab_main
from csflab.flow import SCHEMES

_SIM = ("--n", "64", "--record-every", "4", "--remesh-every", "3")

# (output subdirectory, simulate arguments)
SIMULATIONS = (
    ("ellipse", ("--preset", "ellipse", "--t-end", "0.05", *_SIM)),
    ("circle", ("--preset", "circle", "--n", "32", "--record-every", "40")),
    ("helix", ("--preset", "helix", "--max-steps", "9", *_SIM)),
    (
        "graph-curve",
        ("--preset", "graph-curve", "--eps", "0.2", "--t-end", "0.03", *_SIM),
    ),
    ("sphere-perturbed", ("--preset", "sphere-perturbed", "--t-end", "0.05", *_SIM)),
    ("cos2u", ("--preset", "cos2u-curve", *_SIM)),
)
OPEN_CURVE = "open.curve"


def write_open_curve(path: Path) -> None:
    """A fixed open space arc of 40 unevenly spaced vertices."""
    lines = ["# csf-curve v1", "topology open"]
    for k in range(40):
        u = 3.0 * (k / 39) ** 1.5
        lines.append(f"{math.cos(u):.6f} {math.sin(u):.6f} {0.3 * u:.6f}")
    path.write_text("\n".join(lines) + "\n")


def commands(out: Path) -> list[tuple[str, ...]]:
    """Every csflab command line the digest runs, in order."""
    runs = []
    custom = ("--preset", "custom-file", "--path", str(out / OPEN_CURVE))
    for name, args in (*SIMULATIONS, ("open", (*custom, "--t-end", "0.02", *_SIM))):
        for scheme in SCHEMES:
            target = str(out / "simulate" / f"{name}-{scheme}")
            runs.append(("simulate", *args, "--scheme", scheme, "--out", target))
            runs.append(("analyze", "--dir", target))
    runs.append(
        ("sphere-verify", "--n", "64", "--t-end", "0.12", "--out", str(out / "sphere"))
    )
    for preset, metric in (("ellipse", "d_over_psi"), ("cos2u-curve", "d_over_l")):
        runs.append(
            ("ratio-field", "--preset", preset, "--n", "256", "--metric", metric,
             "--out", str(out / "field" / f"{preset}-{metric}"))
        )
    # the linear grid runs from the circle, m = 0, to m = 1.759, where a
    # float's ``(1 + m) ** 2`` (C pow) and numpy's square round apart
    for name, m_args in (
        ("scan", ("--m-min", "0.01", "--m-max", "10", "--m-steps", "5", "--log-m")),
        ("scan-linear", ("--m-min", "0", "--m-max", "1.759", "--m-steps", "6")),
    ):
        runs.append(
            ("helix-scan", *m_args, "--y-min", "0.25", "--y-max", "6.3",
             "--y-steps", "7", "--out", str(out / name))
        )
    return runs


def digest(out: Path) -> list[str]:
    """Run every command into ``out``; one ``sha256  path`` line per file."""
    out.mkdir(parents=True, exist_ok=True)
    write_open_curve(out / OPEN_CURVE)
    for argv in commands(out):
        with contextlib.redirect_stdout(io.StringIO()):
            status = csflab_main(list(argv))
        if status != 0:
            raise RuntimeError(f"csflab {' '.join(argv)} exited {status}")
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
        for path in sorted(out.rglob("*"))
        if path.is_file()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="write into this directory and keep it")
    args = parser.parse_args(argv)
    try:
        if args.keep:
            lines = digest(Path(args.keep))
        else:
            with tempfile.TemporaryDirectory() as tmp:
                lines = digest(Path(tmp))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
