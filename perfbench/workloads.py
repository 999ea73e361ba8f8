"""The four benchmark workloads: inputs, one op, and its correctness check.

Each workload puts a different csflab layer in charge of the run:

* ``helix_flow``      -- semi-implicit step kernel (geometry + cyclic solve);
  the periodic chord-arc minimum is the second cost. Criterion-03 fixture.
* ``ellipse_records`` -- chord-arc pair kernel (``ratio_minima`` per record
  row), plus writing the run and re-analysing it from disk. Criterion-02
  fixture.
* ``sphere_profile``  -- explicit stepper and the intrinsic geodesic flow;
  no tridiagonal solve, no chord-arc work, no I/O. Criterion 08.
* ``field_io``        -- ``csflab ratio-field`` at n=2048 and reading the
  58 MB field back: file I/O and memory.

The seed fixes a rigid rotation about the z axis and, for closed curves, a
cyclic shift of the vertex labels. Every check below is invariant under
both, and the program only ever sees the transformed curve.

Checks mirror the acceptance bounds of ``tests/test_acceptance.py``; they
run after the op has been timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import csflab as cs
from csflab import chordarc, cli, diagnostics, fileio, flow, sphere

HELIX_FLOW = "helix_flow"
ELLIPSE_RECORDS = "ellipse_records"
SPHERE_PROFILE = "sphere_profile"
FIELD_IO = "field_io"


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, size, workdir) -> inputs
    op: Callable  # (inputs, size, workdir) -> result
    check: Callable  # (inputs, size, result, workdir) -> (problems, digest)
    identities: Callable  # (layer metrics, size) -> [(label, lhs, rhs)]
    spans: tuple  # span names the traced op must fire
    # "full" is the benchmark; "small" feeds the tracer self-test, where
    # the acceptance bounds (set for the full size) are not asserted
    sizes: dict


def seeded_curve(curve: cs.SampledCurve, seed: int) -> cs.SampledCurve:
    """Rotate about z by a seeded angle; shift closed-curve labels cyclically."""
    rng = random.Random(seed)
    theta = 2.0 * math.pi * rng.random()
    shift = rng.randrange(curve.n)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pts = curve.points @ rot.T
    if curve.topology == cs.CLOSED:
        pts = np.roll(pts, shift, axis=0)
    # a z rotation leaves the helix period offset (0, 0, 2*pi*b) unchanged
    return cs.SampledCurve(pts, curve.topology, curve.offset)


def _preset_setup(name, **params):
    def setup(seed, size, workdir):
        preset = cs.make_preset(name, n=size["n"], **params)
        return {"curve": seeded_curve(cs.build_curve(preset), seed)}

    return setup


def _row_bits(row) -> tuple:
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row)
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- helix_flow -------------------------------------------------------------


def _helix_op(inputs, size, workdir):
    config = flow.FlowConfig(t_end=size["t_end"], record_every=size["record_every"])
    return flow.run(inputs["curve"], config)


def _helix_check(inputs, size, record, workdir):
    # criterion 03: self-similar shrinking helix, monotone (d/l)_min
    spread = a_err = 0.0
    for _, t, curve in record.snapshots:
        axis = np.hypot(curve.points[:, 0], curve.points[:, 1])
        spread = max(spread, (axis.max() - axis.min()) / axis.mean())
        oracle = cs.helix_radius_at(1.0, 1.0, t)
        a_err = max(a_err, abs(axis.mean() - oracle) / oracle)
    dl = np.array([r.dl_min for r in record.rows])
    steps = np.array([r.step for r in record.rows])
    slope_min = float((np.diff(dl) / np.diff(steps)).min())
    problems = []
    if not spread < 1e-4:
        problems.append(f"helix axis spread {spread:.3e} >= 1e-4")
    if not a_err < 1e-3:
        problems.append(f"helix a(t) error {a_err:.3e} >= 1e-3")
    if not slope_min >= -1e-6:
        problems.append(f"(d/l)_min slope {slope_min:.3e} < -1e-6")
    rows = repr([_row_bits(r) for r in record.rows]).encode()
    return problems, _digest(rows)


def _helix_identities(m, size):
    return [
        ("tridiag.solves == flow.steps", m["tridiag.solves"], m["flow.steps"]),
        (
            "curve.geometry_calls == flow.steps + flow.remeshes + 1",
            m["curve.geometry_calls"],
            m["flow.steps"] + m["flow.remeshes"] + 1,
        ),
        ("chordarc.reductions == flow.record_rows", m["chordarc.reductions"], m["flow.record_rows"]),
    ]


# --- ellipse_records --------------------------------------------------------


def _ellipse_op(inputs, size, workdir):
    config = flow.FlowConfig(t_end=size["t_end"], record_every=size["record_every"])
    record = flow.run(inputs["curve"], config)
    out = diagnostics.emit_record(record, Path(workdir) / "run")
    return record, diagnostics.analyze_directory(out)


def _ellipse_check(inputs, size, result, workdir):
    record, analyzed = result
    rows = record.rows
    # criterion 02: dL/dt = -int k^2 ds between consecutive rows
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        slope = (b.L - a.L) / (b.t - a.t)
        burn = 0.5 * (a.total_sq_curv + b.total_sq_curv)
        worst = max(worst, abs(slope + burn) / burn)
    problems = []
    if not worst < 1e-2:
        problems.append(f"length law error {worst:.3e} >= 1e-2")
    if [_row_bits(r) for r in analyzed] != [_row_bits(r) for r in rows]:
        problems.append("analyze rows differ from the live rows")
    run_csv = (Path(workdir) / "run" / "run.csv").read_bytes()
    rewritten = Path(workdir) / "analyze.csv"
    fileio.write_run_csv(analyzed, rewritten)
    if rewritten.read_bytes() != run_csv:
        problems.append("run.csv bytes differ from the re-analysed rows")
    return problems, _digest(run_csv)


def _ellipse_identities(m, size):
    return [
        ("tridiag.solves == flow.steps", m["tridiag.solves"], m["flow.steps"]),
        (
            "curve.geometry_calls == flow.steps + flow.remeshes + 1 + diagnostics.analyze_rows",
            m["curve.geometry_calls"],
            m["flow.steps"] + m["flow.remeshes"] + 1 + m["diagnostics.analyze_rows"],
        ),
        ("diagnostics.analyze_rows == flow.record_rows", m["diagnostics.analyze_rows"], m["flow.record_rows"]),
        (
            "chordarc.reductions == flow.record_rows + diagnostics.analyze_rows",
            m["chordarc.reductions"],
            m["flow.record_rows"] + m["diagnostics.analyze_rows"],
        ),
        # run.csv, run.json and one snapshot per record row
        ("fileio.files_written == flow.record_rows + 2", m["fileio.files_written"], m["flow.record_rows"] + 2),
    ]


# --- sphere_profile ---------------------------------------------------------


def _sphere_op(inputs, size, workdir):
    return sphere.consistency_profile(inputs["curve"], size["targets"], cfl=0.4)


def _sphere_check(inputs, size, rows, workdir):
    # criterion 08: rescaled extrinsic run matches the intrinsic flow
    worst = max(r[2] for r in rows)
    problems = [] if worst < 1e-2 else [f"max vertex gap {worst:.3e} >= 1e-2"]
    return problems, _digest(repr([tuple(x.hex() for x in r) for r in rows]).encode())


def _sphere_identities(m, size):
    return [
        (
            "sphere.geometry_calls == 2 * sphere.geodesic_steps",
            m["sphere.geometry_calls"],
            2 * m["sphere.geodesic_steps"],
        ),
        ("curve.geometry_calls == flow.explicit_steps + 1", m["curve.geometry_calls"], m["flow.explicit_steps"] + 1),
        ("tridiag.solves == 0", m["tridiag.solves"], 0),
        ("chordarc.reductions == 0", m["chordarc.reductions"], 0),
        ("fileio.files_written == 0", m["fileio.files_written"], 0),
    ]


# --- field_io ---------------------------------------------------------------


def _field_setup(seed, size, workdir):
    preset = cs.make_preset(cs.COS2U_CURVE, n=size["n"])
    curve = seeded_curve(cs.build_curve(preset), seed)
    path = Path(workdir) / "input.curve"
    fileio.write_curve(curve, path)
    return {"curve": curve, "path": path}


def _field_op(inputs, size, workdir):
    out = Path(workdir) / "field"
    code = cli.main(
        [
            "ratio-field", "--preset", "custom-file", "--path", str(inputs["path"]),
            "--metric", cs.D_OVER_PSI, "--out", str(out),
        ]
    )
    return code, fileio.read_ratio_field(out / "ratiofield.txt")


def _field_check(inputs, size, result, workdir):
    code, read_back = result
    problems = [] if code == 0 else [f"ratio-field exited {code}"]
    live = chordarc.ratio_field(inputs["curve"], cs.D_OVER_PSI, 2)
    if not np.array_equal(read_back.values, live.values, equal_nan=True):
        problems.append("ratio field read back differs from the in-memory field")
    if (read_back.metric, read_back.exclusion_band) != (live.metric, live.exclusion_band):
        problems.append("ratio field header differs")
    minima_path = Path(workdir) / "field" / "minima.csv"
    written = [(r["i"], r["j"], r["value"]) for r in fileio.read_minima_csv(minima_path)]
    if written != chordarc.find_local_minima(read_back):
        problems.append(f"minima.csv rows ({len(written)}) differ from the field's minima")
    return problems, _digest(minima_path.read_bytes())


def _field_identities(m, size):
    n = size["n"]
    return [
        ("fileio.files_written == 2", m["fileio.files_written"], 2),
        ("chordarc.field_bytes == 8 * n * n", m["chordarc.field_bytes"], 8 * n * n),
        ("flow.steps == 0", m["flow.steps"], 0),
    ]


STEP_SPANS = ("flow.run", "flow.step", "flow.remesh", "flow.record", "curve.geometry", "tridiag.solve", "chordarc.reduction")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            HELIX_FLOW,
            _preset_setup(cs.HELIX, a=1.0, b=1.0),
            _helix_op,
            _helix_check,
            _helix_identities,
            STEP_SPANS,
            {
                "full": {"n": 1024, "t_end": 0.5, "record_every": 200},
                "small": {"n": 64, "t_end": 0.4, "record_every": 20},
            },
        ),
        Workload(
            ELLIPSE_RECORDS,
            _preset_setup(cs.ELLIPSE),
            _ellipse_op,
            _ellipse_check,
            _ellipse_identities,
            STEP_SPANS
            + ("diagnostics.emit", "diagnostics.analyze", "diagnostics.analyze_row", "fileio.write", "fileio.read"),
            {
                "full": {"n": 512, "t_end": 0.3, "record_every": 50},
                "small": {"n": 64, "t_end": 0.4, "record_every": 20},
            },
        ),
        Workload(
            SPHERE_PROFILE,
            _preset_setup(cs.SPHERE_PERTURBED, eps=0.2, harmonic=3),
            _sphere_op,
            _sphere_check,
            _sphere_identities,
            ("sphere.profile", "flow.explicit_step", "curve.geometry", "sphere.geodesic", "sphere.geodesic_step", "sphere.geometry"),
            {
                "full": {"n": 512, "targets": (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)},
                "small": {"n": 64, "targets": (0.01, 0.02)},
            },
        ),
        Workload(
            FIELD_IO,
            _field_setup,
            _field_op,
            _field_check,
            _field_identities,
            ("cli.main", "chordarc.field", "chordarc.local_minima", "chordarc.pair_diag", "fileio.write", "fileio.read"),
            {"full": {"n": 2048}, "small": {"n": 128}},
        ),
    )
}


def identity_problems(workload: Workload, metrics: dict, size: dict, fired: dict) -> list[str]:
    """Tracer self-test: the count identities and the spans that must fire."""
    problems = [
        f"tracer identity {label} fails: {lhs} != {rhs}"
        for label, lhs, rhs in workload.identities(metrics, size)
        if lhs != rhs
    ]
    problems += [f"span {name} never fired" for name in workload.spans if not fired.get(name)]
    return problems
