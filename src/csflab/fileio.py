"""Readers and writers for the flat-file formats the tool emits.

Formats:

* curve snapshots: line 1 ``# csf-curve v1``, line 2 ``topology <name>``
  (plus the offset triple for periodic curves), then one ``x y z`` row per
  vertex;
* ratio fields: ``# csf-ratiofield v1``, ``metric <name>``, ``n <count>``,
  then ``i j value`` rows for the finite upper-triangle cells;
* run.csv / minima.csv / fscan.csv / consistency.csv with fixed headers.

Every number is written with repr's shortest round-trip form, so reading a
file back yields bit-identical floats; inapplicable columns are empty
strings, never zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chordarc import METRICS, RatioField
from .curve import CLOSED, OPEN, PERIODIC, SampledCurve, TOPOLOGIES
from .errors import InvalidArgumentError
from .flow import FlowConfig, RecordRow, RunRecord

CURVE_MAGIC = "# csf-curve v1"
FIELD_MAGIC = "# csf-ratiofield v1"
RUN_CSV_HEADER = (
    "step,t,L,k_max,total_abs_curv,total_sq_curv,"
    "dl_min,dpsi_min,sphere_residual,sing_indicator"
)
MINIMA_CSV_HEADER = "i,j,value,d,l,psi,alpha,cond22,cond31"
FSCAN_CSV_HEADER = "m,y,F,G,exact_derivative"
CONSISTENCY_CSV_HEADER = "t,t_tilde,max_deviation"


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the same double."""
    return repr(float(value))


def _cell(value: float | None) -> str:
    return "" if value is None else format_float(value)


def _parse_cell(text: str) -> float | None:
    return None if text == "" else float(text)


def write_curve(curve: SampledCurve, path) -> None:
    lines = [CURVE_MAGIC]
    if curve.topology == PERIODIC:
        ox, oy, oz = (format_float(v) for v in curve.offset)
        lines.append(f"topology {PERIODIC} {ox} {oy} {oz}")
    else:
        lines.append(f"topology {curve.topology}")
    for x, y, z in curve.points:
        lines.append(f"{format_float(x)} {format_float(y)} {format_float(z)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve(path) -> SampledCurve:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != CURVE_MAGIC:
        raise InvalidArgumentError(f"{path}: missing '{CURVE_MAGIC}' header")
    if len(lines) < 2:
        raise InvalidArgumentError(f"{path}: missing topology line")
    tokens = lines[1].split()
    if not tokens or tokens[0] != "topology":
        raise InvalidArgumentError(f"{path}: malformed topology line")
    offset = None
    if len(tokens) == 2 and tokens[1] in (CLOSED, OPEN):
        topology = tokens[1]
    elif len(tokens) == 5 and tokens[1] == PERIODIC:
        topology = PERIODIC
        try:
            offset = [float(v) for v in tokens[2:5]]
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}: bad offset: {exc}") from exc
    else:
        raise InvalidArgumentError(
            f"{path}: topology must be one of {TOPOLOGIES} "
            "(periodic takes an offset triple)"
        )
    points = []
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InvalidArgumentError(f"{path}:{ln}: expected 'x y z'")
        try:
            points.append([float(v) for v in parts])
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{ln}: {exc}") from exc
    return SampledCurve(np.array(points, dtype=float), topology, offset)


def write_run_csv(rows: list[RecordRow], path) -> None:
    lines = [RUN_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.step),
                    format_float(r.t),
                    format_float(r.L),
                    format_float(r.k_max),
                    format_float(r.total_abs_curv),
                    format_float(r.total_sq_curv),
                    _cell(r.dl_min),
                    _cell(r.dpsi_min),
                    _cell(r.sphere_residual),
                    _cell(r.sing_indicator),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_run_csv(path) -> list[RecordRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != RUN_CSV_HEADER:
        raise InvalidArgumentError(f"{path}: unexpected run.csv header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        if len(f) != 10:
            raise InvalidArgumentError(f"{path}: expected 10 columns, got {len(f)}")
        rows.append(
            RecordRow(
                step=int(f[0]),
                t=float(f[1]),
                L=float(f[2]),
                k_max=float(f[3]),
                total_abs_curv=float(f[4]),
                total_sq_curv=float(f[5]),
                dl_min=_parse_cell(f[6]),
                dpsi_min=_parse_cell(f[7]),
                sphere_residual=_parse_cell(f[8]),
                sing_indicator=_parse_cell(f[9]),
            )
        )
    return rows


def write_run_json(record: RunRecord, path) -> None:
    payload = {
        "config": asdict(record.config),
        "t_est": record.t_est,
        "stop_reason": record.stop_reason,
        "rows": len(record.rows),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_run_json(path) -> dict:
    payload = json.loads(Path(path).read_text())
    for key in ("config", "t_est", "stop_reason"):
        if key not in payload:
            raise InvalidArgumentError(f"{path}: missing '{key}'")
    return payload


def config_from_json(payload: dict) -> FlowConfig:
    return FlowConfig(**payload["config"])


def write_ratio_field(field: RatioField, path) -> None:
    """Stream the finite upper-triangle cells row by row, never all at once."""
    with open(path, "w") as fh:
        fh.write(f"{FIELD_MAGIC}\nmetric {field.metric}\nn {field.n}\n")
        for i, row in enumerate(field.values):
            cells = enumerate(row[i + 1 :].tolist(), start=i + 1)
            fh.writelines(
                f"{i} {j} {format_float(v)}\n" for j, v in cells if math.isfinite(v)
            )


def read_ratio_field(path) -> RatioField:
    with open(path) as fh:
        header = [fh.readline() for _ in range(3)]
        if "" in header or header[0].strip() != FIELD_MAGIC:
            raise InvalidArgumentError(f"{path}: missing '{FIELD_MAGIC}' header")
        metric_tokens = header[1].split()
        n_tokens = header[2].split()
        if len(metric_tokens) != 2 or metric_tokens[0] != "metric":
            raise InvalidArgumentError(f"{path}: malformed metric line")
        if metric_tokens[1] not in METRICS:
            raise InvalidArgumentError(f"{path}: unknown metric {metric_tokens[1]!r}")
        if len(n_tokens) != 2 or n_tokens[0] != "n" or not n_tokens[1].isdigit():
            raise InvalidArgumentError(f"{path}: malformed n line")
        n = int(n_tokens[1])
        values = np.full((n, n), np.nan)
        min_sep = n
        for ln, line in enumerate(fh, start=4):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InvalidArgumentError(f"{path}:{ln}: expected 'i j value'")
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidArgumentError(f"{path}:{ln}: pair out of range")
            values[i, j] = v
            values[j, i] = v
            sep = abs(i - j)
            min_sep = min(min_sep, sep, n - sep)
    values.setflags(write=False)
    return RatioField(values=values, metric=metric_tokens[1], exclusion_band=min_sep - 1)


def write_minima_csv(rows: list[dict], path) -> None:
    """Rows carry keys matching the header; cond31/psi/alpha may be None."""
    lines = [MINIMA_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r["i"]),
                    str(r["j"]),
                    format_float(r["value"]),
                    format_float(r["d"]),
                    format_float(r["l"]),
                    _cell(r["psi"]),
                    _cell(r["alpha"]),
                    format_float(r["cond22"]),
                    _cell(r["cond31"]),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_minima_csv(path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != MINIMA_CSV_HEADER:
        raise InvalidArgumentError(f"{path}: unexpected minima.csv header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        if len(f) != 9:
            raise InvalidArgumentError(f"{path}: expected 9 columns, got {len(f)}")
        rows.append(
            {
                "i": int(f[0]),
                "j": int(f[1]),
                "value": float(f[2]),
                "d": float(f[3]),
                "l": float(f[4]),
                "psi": _parse_cell(f[5]),
                "alpha": _parse_cell(f[6]),
                "cond22": float(f[7]),
                "cond31": _parse_cell(f[8]),
            }
        )
    return rows


def write_fscan_csv(rows: list[tuple[float, float, float, float, float]], path) -> None:
    lines = [FSCAN_CSV_HEADER]
    for m, y, f_val, g_val, deriv in rows:
        lines.append(
            ",".join(format_float(v) for v in (m, y, f_val, g_val, deriv))
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_fscan_csv(path) -> list[tuple[float, float, float, float, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != FSCAN_CSV_HEADER:
        raise InvalidArgumentError(f"{path}: unexpected fscan.csv header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        if len(f) != 5:
            raise InvalidArgumentError(f"{path}: expected 5 columns, got {len(f)}")
        rows.append(tuple(float(v) for v in f))
    return rows


def write_consistency_csv(rows: list[tuple[float, float, float]], path) -> None:
    lines = [CONSISTENCY_CSV_HEADER]
    for t, t_tilde, deviation in rows:
        lines.append(",".join(format_float(v) for v in (t, t_tilde, deviation)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_consistency_csv(path) -> list[tuple[float, float, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CONSISTENCY_CSV_HEADER:
        raise InvalidArgumentError(f"{path}: unexpected consistency.csv header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        if len(f) != 3:
            raise InvalidArgumentError(f"{path}: expected 3 columns, got {len(f)}")
        rows.append(tuple(float(v) for v in f))
    return rows
