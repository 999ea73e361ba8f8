"""Run orchestration and directory-level emission.

Ties the pieces together: builds a preset, runs the flow, writes run.csv,
run.json and per-record curve snapshots into one directory, and recomputes
diagnostics from saved snapshots so an archived run can be audited without
rerunning the flow.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

from . import fileio
from .errors import InvalidArgumentError
from .flow import (
    FlowConfig,
    RecordRow,
    RunRecord,
    row_indicator,
    run,
    snapshot_diagnostics,
)
from .presets import Preset, build_curve, sphere_radius_for

_SNAP_RE = re.compile(r"snap_(\d+)\.curve$")


def emit_record(record: RunRecord, out_dir) -> Path:
    """Write snap_<step>.curve files, then run.csv and run.json; overwrites.

    The snapshots go first, so a write cut short leaves no run.csv row
    without its snapshot.
    """
    if not record.rows:
        raise InvalidArgumentError("refusing to emit an empty record")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for step, _, curve in record.snapshots:
        fileio.write_curve(curve, out / f"snap_{step}.curve")
    fileio.write_run_csv(record.rows, out / "run.csv")
    fileio.write_run_json(record, out / "run.json")
    return out


def simulate_preset(preset: Preset, config: FlowConfig) -> RunRecord:
    """Build the preset curve and run it; spherical presets get the
    sphere_residual column filled automatically."""
    radius = sphere_radius_for(preset)
    if radius is not None and config.sphere_radius is None:
        config = replace(config, sphere_radius=radius)
    return run(build_curve(preset), config)


def analyze_directory(run_dir) -> list[RecordRow]:
    """Recompute diagnostic rows from the snapshots saved in a run directory.

    Reads run.csv for the recorded times, run.json for the configuration
    and vanishing-time estimate, and every snap_<step>.curve; returns rows
    built by the same measurement code the live run used.  run.csv must
    hold as many rows as run.json records, and the snapshot steps must be
    the run.csv steps, each exactly once.
    """
    run_dir = Path(run_dir)
    csv_path = run_dir / "run.csv"
    json_path = run_dir / "run.json"
    if not csv_path.is_file() or not json_path.is_file():
        raise InvalidArgumentError(f"{run_dir} is not a run directory")
    csv_rows = fileio.read_run_csv(csv_path)
    payload = fileio.read_run_json(json_path)
    if len(csv_rows) != payload["rows"]:
        raise InvalidArgumentError(
            f"{json_path} records {payload['rows']} rows, but {csv_path} holds {len(csv_rows)}"
        )
    recorded: dict[int, RecordRow] = {}
    for row in csv_rows:
        if recorded.setdefault(row.step, row) is not row:
            raise InvalidArgumentError(f"{csv_path} repeats step {row.step}")
    config = fileio.config_from_json(payload)

    snapshots: dict[int, Path] = {}
    for path in sorted(run_dir.iterdir()):  # so a repeated step names its files in order
        match = _SNAP_RE.match(path.name)
        if match and snapshots.setdefault(step := int(match.group(1)), path) is not path:
            raise InvalidArgumentError(
                f"step {step} has two snapshots in {run_dir}: "
                f"{snapshots[step].name} and {path.name}"
            )
    if not snapshots:
        raise InvalidArgumentError(f"{run_dir} contains no snapshots")
    for step in recorded:
        if step not in snapshots:
            raise InvalidArgumentError(
                f"run.csv step {step} has no snapshot in {run_dir}"
            )

    rows = []
    for step, path in sorted(snapshots.items()):
        if step not in recorded:
            raise InvalidArgumentError(f"snapshot step {step} missing from run.csv")
        t = recorded[step].t
        curve = fileio.read_curve(path)
        row = snapshot_diagnostics(curve, t, step, config.sphere_radius)
        row.sing_indicator = row_indicator(row, payload["t_est"])
        rows.append(row)
    return rows
