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

Ratio fields are the large files (n=2048 gives 2 M cells, 58 MB).  The
writer formats each matrix row with one ``repr`` of the row's finite cells
and one ``write``; the reader parses ``_CHUNK_LINES`` lines at a time with
numpy's text parser and scatters them into the matrix, walking a chunk
line by line only to name the line of an error.  Curve snapshots take one
``repr`` of all their coordinates, split into ``x y z`` rows, and are read
back with one call of the same parser.

Every writer goes through ``_atomic_open``: the text goes to a temporary
file in the target directory that replaces the target only once it is
complete, so a failing or interrupted write leaves any earlier file intact
and no partial one behind.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import warnings
from contextlib import contextmanager
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

# ratio-field body lines parsed per numpy call: 2**16 lines are about 2 MB
# of text, small beside the n x n matrix they fill
_CHUNK_LINES = 2**16
_CELL_DTYPE = [("i", "i8"), ("j", "i8"), ("v", "f8")]


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the same double."""
    return repr(float(value))


def _cell(value: float | None) -> str:
    return "" if value is None else format_float(value)


def _parse_cell(text: str) -> float | None:
    return None if text == "" else float(text)


@contextmanager
def _atomic_open(path):
    """Text handle on a temporary file that replaces ``path`` on success.

    The temporary file sits in the target's directory, so ``os.replace`` is
    a rename within one file system; it is removed if the block raises,
    including on ``KeyboardInterrupt``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_lines(lines: list[str], path) -> None:
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path, header: str, name: str, convert) -> list:
    """Rows of a fixed-header CSV, each ``convert``-ed from its split fields."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise InvalidArgumentError(f"{path}: unexpected {name} header")
    width = header.count(",") + 1
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = line.split(",")
        if len(f) != width:
            raise InvalidArgumentError(
                f"{path}:{ln}: expected {width} columns, got {len(f)}"
            )
        try:
            rows.append(convert(f))
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{ln}: {exc}") from exc
    return rows


def write_curve(curve: SampledCurve, path) -> None:
    lines = [CURVE_MAGIC]
    if curve.topology == PERIODIC:
        ox, oy, oz = (format_float(v) for v in curve.offset)
        lines.append(f"topology {PERIODIC} {ox} {oy} {oz}")
    else:
        lines.append(f"topology {curve.topology}")
    # one repr of all coordinates, as format_float of each, split into rows
    texts = iter(repr(curve.points.ravel().tolist())[1:-1].split(", "))
    lines.extend(map(" ".join, zip(texts, texts, texts)))
    _write_lines(lines, path)


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
    try:
        points = _parse_rows(lines[2:], float, ndmin=2)
    except ValueError:
        points = None
    if points is None or (points.size and points.shape[1] != 3):
        raise _bad_point_line(path, lines[2:])
    return SampledCurve(points, topology, offset)


def _bad_point_line(path, lines: list[str]) -> InvalidArgumentError:
    """The error naming the first bad body line of a curve file (line 3 on)."""
    for ln, line in enumerate(lines, start=3):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            return InvalidArgumentError(f"{path}:{ln}: expected 'x y z'")
        try:
            [float(v) for v in parts]  # float's message names the token
            _parse_rows([line], float, ndmin=2)
        except ValueError as exc:
            return InvalidArgumentError(f"{path}:{ln}: {exc}")
    return InvalidArgumentError(f"{path}: unreadable curve body")


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
    _write_lines(lines, path)


def read_run_csv(path) -> list[RecordRow]:
    return _read_table(
        path,
        RUN_CSV_HEADER,
        "run.csv",
        lambda f: RecordRow(
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
        ),
    )


def write_run_json(record: RunRecord, path) -> None:
    payload = {
        "config": asdict(record.config),
        "t_est": record.t_est,
        "stop_reason": record.stop_reason,
        "rows": len(record.rows),
    }
    _write_lines([json.dumps(payload, indent=2, sort_keys=True)], path)


def read_run_json(path) -> dict:
    payload = json.loads(Path(path).read_text())
    for key in ("config", "t_est", "stop_reason"):
        if key not in payload:
            raise InvalidArgumentError(f"{path}: missing '{key}'")
    return payload


def config_from_json(payload: dict) -> FlowConfig:
    return FlowConfig(**payload["config"])


def write_ratio_field(field: RatioField, path) -> None:
    """Write the finite upper-triangle cells, one ``write`` per matrix row."""
    labels = [f" {j} " for j in range(field.n)]
    with _atomic_open(path) as fh:
        fh.write(f"{FIELD_MAGIC}\nmetric {field.metric}\nn {field.n}\n")
        for i, row in enumerate(field.values):
            cols = np.flatnonzero(np.isfinite(row[i + 1 :])) + (i + 1)
            if not cols.size:
                continue
            # a list's repr is float.__repr__ of each item, as format_float
            texts = repr(row[cols].tolist())[1:-1].split(", ")
            cells = map(operator.add, map(labels.__getitem__, cols.tolist()), texts)
            lead = str(i)
            fh.write(lead + f"\n{lead}".join(cells) + "\n")


def _parse_rows(lines: list[str], dtype, ndmin: int) -> np.ndarray:
    """Whitespace-separated body lines in one array; blank lines are skipped."""
    with warnings.catch_warnings():
        # a chunk of blank lines is no error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=ndmin)


def _bad_line(path, first: int, lines: list[str], n: int) -> InvalidArgumentError:
    """The error naming the first bad line of a chunk starting at line ``first``."""
    for ln, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        if len(line.split()) != 3:
            return InvalidArgumentError(f"{path}:{ln}: expected 'i j value'")
        try:
            ((i, j, _),) = _parse_rows([line], _CELL_DTYPE, ndmin=1).tolist()
        except ValueError:
            return InvalidArgumentError(
                f"{path}:{ln}: expected integers i j and a float value, "
                f"got {line.strip()!r}"
            )
        if not (0 <= i < n and 0 <= j < n):
            return InvalidArgumentError(f"{path}:{ln}: pair out of range")
    return InvalidArgumentError(f"{path}:{first}-{first + len(lines) - 1}: unreadable")


def read_ratio_field(path) -> RatioField:
    """Read a field written by ``write_ratio_field``.

    ``i j v`` and ``j i v`` set the same pair of symmetric cells.  A pair
    given on more than one line takes the value of its last line.  The
    exclusion band is one less than the smallest cyclic index gap of the
    lines read.
    """
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
        first = 4
        while lines := list(itertools.islice(fh, _CHUNK_LINES)):
            try:
                cells = _parse_rows(lines, _CELL_DTYPE, ndmin=1)
            except ValueError as exc:
                raise _bad_line(path, first, lines, n) from exc
            i, j, v = cells["i"], cells["j"], cells["v"]
            if not ((i >= 0) & (i < n) & (j >= 0) & (j < n)).all():
                raise _bad_line(path, first, lines, n)
            first += len(lines)
            if not v.size:
                continue
            sep = np.abs(i - j)
            min_sep = min(min_sep, int(sep.min()), int((n - sep).min()))
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            key = lo * n + hi
            if (np.diff(key) <= 0).any():
                # out of the writer's order, maybe repeated: keep each
                # pair's last line, since repeated fancy-index assignment
                # has no defined winner
                _, last = np.unique(key[::-1], return_index=True)
                keep = key.size - 1 - last
                lo, hi, v = lo[keep], hi[keep], v[keep]
            values[lo, hi] = v
            values[hi, lo] = v
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
    _write_lines(lines, path)


def read_minima_csv(path) -> list[dict]:
    return _read_table(
        path,
        MINIMA_CSV_HEADER,
        "minima.csv",
        lambda f: {
            "i": int(f[0]),
            "j": int(f[1]),
            "value": float(f[2]),
            "d": float(f[3]),
            "l": float(f[4]),
            "psi": _parse_cell(f[5]),
            "alpha": _parse_cell(f[6]),
            "cond22": float(f[7]),
            "cond31": _parse_cell(f[8]),
        },
    )


def write_fscan_csv(rows: list[tuple[float, float, float, float, float]], path) -> None:
    lines = [FSCAN_CSV_HEADER]
    for m, y, f_val, g_val, deriv in rows:
        lines.append(
            ",".join(format_float(v) for v in (m, y, f_val, g_val, deriv))
        )
    _write_lines(lines, path)


def read_fscan_csv(path) -> list[tuple[float, float, float, float, float]]:
    return _read_table(path, FSCAN_CSV_HEADER, "fscan.csv", lambda f: tuple(map(float, f)))


def write_consistency_csv(rows: list[tuple[float, float, float]], path) -> None:
    lines = [CONSISTENCY_CSV_HEADER]
    for t, t_tilde, deviation in rows:
        lines.append(",".join(format_float(v) for v in (t, t_tilde, deviation)))
    _write_lines(lines, path)


def read_consistency_csv(path) -> list[tuple[float, float, float]]:
    return _read_table(
        path, CONSISTENCY_CSV_HEADER, "consistency.csv", lambda f: tuple(map(float, f))
    )
