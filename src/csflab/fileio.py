"""Readers and writers for the flat-file formats the tool emits.

Formats:

* curve snapshots: line 1 ``# csf-curve v1``, line 2 ``topology <name>``
  (plus the offset triple for periodic curves), then one ``x y z`` row per
  vertex;
* ratio fields: ``# csf-ratiofield v1``, ``metric <name>``, ``n <count>``,
  then ``i j value`` rows for the finite upper-triangle cells;
* tables (run.csv, minima.csv, fscan.csv, consistency.csv): a header of
  column names, then one comma-separated line per row, written and read by
  ``write_table`` / ``read_table`` from a ``Table`` of column kinds.

Every number is written with repr's shortest round-trip form, so reading a
file back yields bit-identical floats; inapplicable columns are empty
strings, never zeros.

Ratio fields are the large files (n=2048 gives 2 M cells, 58 MB).  The
writer formats each matrix row with one ``repr`` of the row's finite cells
and one ``write``; curve snapshots take one ``repr`` of all coordinates,
split into ``x y z`` rows.  Both readers take exactly the lines their
writer writes (a field line has ``0 <= i < j < n``, its pair after the
previous line's in row-major order) and skip blank lines.  One parser
reads both bodies ``_CHUNK_LINES`` (8,192) lines per numpy call, about
0.7 MB beside the matrix, and names a bad line's ``path:line`` by
rereading only the failing chunk.

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
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .chordarc import METRICS, MIN_FIELD_VERTICES, RatioField
from .curve import CLOSED, OPEN, PERIODIC, SampledCurve, TOPOLOGIES
from .errors import InvalidArgumentError, require_integer, require_real
from .flow import STOP_REASONS, FlowConfig, RecordRow, RunRecord

CURVE_MAGIC = "# csf-curve v1"
FIELD_MAGIC = "# csf-ratiofield v1"
# body lines parsed per numpy call, each going on at the open file's next
# line (numpy pulls lines from the file's iterator up to max_rows rows;
# checked on numpy 2.4.6 only).  A ratio-field chunk costs about 84 bytes a
# line in flight (parser buffers, parsed cells): 0.7 MB for 2**13 lines,
# small beside the 34 MB n=2048 matrix, and as fast to read as larger chunks
_CHUNK_LINES = 2**13
# the body row of each format; the field names spell the expected line
_POINT_DTYPE = np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8")])
_CELL_DTYPE = np.dtype([("i", "i8"), ("j", "i8"), ("value", "f8")])


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the same double."""
    return repr(float(value))


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


@contextmanager
def _decoded(path):
    """Turn a decode failure while reading ``path`` into an error naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        reason = f"not {exc.encoding} text ({exc.reason})"
        raise InvalidArgumentError(f"{path}: {reason}") from exc


def _write_lines(lines: list[str], path) -> None:
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Table:
    """A fixed-header CSV: a header of column names, then one line per row.

    ``columns`` maps each name, in file order, to its kind (a key of
    ``_KINDS``); ``values`` maps a row to its values in column order and
    ``row`` maps such values back to a row; both default to ``tuple``.
    """

    name: str
    columns: dict[str, str]
    values: Callable = tuple
    row: Callable = tuple

    @property
    def header(self) -> str:
        return ",".join(self.columns)


# column kinds, spelled as RecordRow's field annotations: how a cell is
# written and read back; an optional float writes None as the empty cell
_KINDS = {
    "int": (str, int),
    "float": (format_float, float),
    "float | None": (
        lambda v: "" if v is None else format_float(v),
        lambda text: None if text == "" else float(text),
    ),
}
_RUN_COLUMNS = {f.name: f.type for f in fields(RecordRow)}
_MINIMA_COLUMNS = {
    "i": "int", "j": "int", "value": "float", "d": "float", "l": "float",
    "psi": "float | None", "alpha": "float | None", "cond22": "float",
    "cond31": "float | None",
}

RUN_CSV = Table(
    "run.csv", _RUN_COLUMNS, operator.attrgetter(*_RUN_COLUMNS), lambda v: RecordRow(*v)
)
MINIMA_CSV = Table(
    "minima.csv",
    _MINIMA_COLUMNS,
    operator.itemgetter(*_MINIMA_COLUMNS),
    lambda v: dict(zip(_MINIMA_COLUMNS, v)),
)
FSCAN_CSV = Table(
    "fscan.csv", dict.fromkeys(("m", "y", "F", "G", "exact_derivative"), "float")
)
CONSISTENCY_CSV = Table(
    "consistency.csv", dict.fromkeys(("t", "t_tilde", "max_deviation"), "float")
)


def write_table(table: Table, rows, path) -> None:
    """Write the header and one line per row; a row of the wrong width raises."""
    formats = [_KINDS[kind][0] for kind in table.columns.values()]
    lines = [table.header]
    for r in rows:
        cells = zip(formats, table.values(r), strict=True)
        lines.append(",".join([f(v) for f, v in cells]))
    _write_lines(lines, path)


def read_table(table: Table, path) -> list:
    """Rows of a table file; blank lines are skipped, errors name ``path:line``."""
    with _decoded(path):
        lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != table.header:
        raise InvalidArgumentError(f"{path}: unexpected {table.name} header")
    parsers = [_KINDS[kind][1] for kind in table.columns.values()]
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(parsers):
            raise InvalidArgumentError(
                f"{path}:{ln}: expected {len(parsers)} columns, got {len(cells)}"
            )
        try:
            rows.append(table.row([p(c) for p, c in zip(parsers, cells)]))
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{ln}: {exc}") from exc
    return rows


# the names perfbench's tracer and workloads bind
write_run_csv = partial(write_table, RUN_CSV)
read_run_csv = partial(read_table, RUN_CSV)
write_minima_csv = partial(write_table, MINIMA_CSV)
read_minima_csv = partial(read_table, MINIMA_CSV)


def write_curve(curve: SampledCurve, path) -> None:
    lines = [CURVE_MAGIC]
    if curve.topology == PERIODIC:
        ox, oy, oz = (format_float(v) for v in curve.offset)
        lines.append(f"topology {PERIODIC} {ox} {oy} {oz}")
    else:
        lines.append(f"topology {curve.topology}")
    # one repr per coordinate row, as format_float of each, zipped into lines
    columns = (repr(row.tolist())[1:-1].split(", ") for row in curve.points.T)
    lines.extend(map(" ".join, zip(*columns)))
    _write_lines(lines, path)


def read_curve(path) -> SampledCurve:
    with _decoded(path), open(path) as fh:
        magic, topology_line = fh.readline(), fh.readline()
        if magic.strip() != CURVE_MAGIC:
            raise InvalidArgumentError(f"{path}: missing '{CURVE_MAGIC}' header")
        if not topology_line:
            raise InvalidArgumentError(f"{path}: missing topology line")
        tokens = topology_line.split()
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
        chunks = _body_chunks(path, fh, 2, _POINT_DTYPE)
        points = np.concatenate([np.empty(0), *(rows.view(np.float64) for _, rows in chunks)])
    return SampledCurve(points.reshape(-1, 3), topology, offset)


def write_run_json(record: RunRecord, path) -> None:
    payload = {
        "config": asdict(record.config),
        "t_est": record.t_est,
        "stop_reason": record.stop_reason,
        "rows": len(record.rows),
    }
    _write_lines([json.dumps(payload, indent=2, sort_keys=True)], path)


def read_run_json(path) -> dict:
    """The run.json payload, checked to give a ``FlowConfig``, a float
    ``t_est``, a ``stop_reason`` from ``STOP_REASONS`` and a non-negative
    integer ``rows``; a malformed file raises an error naming ``path``."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from exc
    keys = ("config", "t_est", "stop_reason", "rows")
    if not isinstance(payload, dict) or not payload.keys() >= set(keys):
        raise InvalidArgumentError(f"{path}: expected a JSON object with keys {keys}")
    try:
        config_from_json(payload)
        payload["t_est"] = require_real("t_est", payload["t_est"])
        if payload["stop_reason"] not in STOP_REASONS:
            raise InvalidArgumentError(f"unknown stop_reason {payload['stop_reason']!r}")
        if require_integer("rows", payload["rows"]) < 0:
            raise InvalidArgumentError(f"rows must not be negative, got {payload['rows']}")
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
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


def _parse_rows(lines, dtype, max_rows: int | None = None) -> np.ndarray:
    """Body lines, a list or an open file, as rows of ``dtype``; blank lines are skipped."""
    with warnings.catch_warnings():
        # a chunk of blank lines is no error, and blank lines are no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
        return np.loadtxt(lines, dtype, comments=None, ndmin=1, max_rows=max_rows)


def _body_chunks(path, fh, head: int, dtype):
    """Yield (rows before it, its rows) for each chunk of ``dtype`` rows in
    the open file ``path`` past ``head`` header lines; a bad line raises."""
    done = 0
    while True:
        try:
            rows = _parse_rows(fh, dtype, max_rows=_CHUNK_LINES)
        except ValueError as exc:
            raise _bad_line(path, head, done, dtype) from exc
        if rows.size:
            yield done, rows
        if rows.size < _CHUNK_LINES:  # the parser stopped at the end of the file
            return
        done += rows.size


def _bad_line(path, head: int, first: int, dtype, reason=None) -> InvalidArgumentError:
    """The error naming body row ``first`` for ``reason``; with no reason,
    the first row of the chunk from ``first`` on that does not parse alone.
    Only that chunk's lines are parsed again."""
    with open(path) as fh:
        lines = enumerate(itertools.islice(fh, head, None), start=head + 1)
        rows = ((ln, line) for ln, line in lines if line.strip())
        for ln, line in itertools.islice(rows, first, first + _CHUNK_LINES):
            if reason is None:
                try:
                    _parse_rows([line], dtype)
                except ValueError:
                    reason = f"expected '{' '.join(dtype.names)}', got {line.strip()!r}"
                else:
                    continue
            return InvalidArgumentError(f"{path}:{ln}: {reason}")
    return InvalidArgumentError(f"{path}: unreadable body")


def _pair_error(i: int, j: int, n: int, last: int) -> str:
    """Why cell (i, j), after the cell keyed ``last``, is not a writer's line."""
    if not (0 <= i < n and 0 <= j < n):
        return f"pair out of range: ({i}, {j}) with n {n}"
    if i >= j:
        return f"{'diagonal' if i == j else 'mirrored'} pair ({i}, {j})"
    return f"{'repeated' if i * n + j == last else 'out-of-order'} pair ({i}, {j})"


def read_ratio_field(path) -> RatioField:
    """Read a field written by ``write_ratio_field``.

    Each body line is one finite cell, ``i j value`` with ``0 <= i < j < n``,
    in increasing row-major order of (i, j); any other line raises an error
    naming it.  The exclusion band is one less than the smallest cyclic
    index gap of the lines read.
    """
    # a decode failure can surface in the header, a chunk or _bad_line's walk
    with _decoded(path), open(path) as fh:
        header = [fh.readline() for _ in range(3)]
        if "" in header or header[0].strip() != FIELD_MAGIC:
            raise InvalidArgumentError(f"{path}: missing '{FIELD_MAGIC}' header")
        metric_tokens = header[1].split()
        n_tokens = header[2].split()
        if len(metric_tokens) != 2 or metric_tokens[0] != "metric":
            raise InvalidArgumentError(f"{path}: malformed metric line")
        if metric_tokens[1] not in METRICS:
            raise InvalidArgumentError(f"{path}: unknown metric {metric_tokens[1]!r}")
        if len(n_tokens) != 2 or n_tokens[0] != "n" or not n_tokens[1].isdecimal():
            raise InvalidArgumentError(f"{path}: malformed n line")
        n = int(n_tokens[1])
        if n < MIN_FIELD_VERTICES:
            raise InvalidArgumentError(
                f"{path}: n {n} is below the {MIN_FIELD_VERTICES} vertices a field needs"
            )
        values = np.full((n, n), np.nan)
        min_sep, last = n, -1  # last: the row-major key i * n + j of the last cell
        for done, cells in _body_chunks(path, fh, 3, _CELL_DTYPE):
            i, j, v = cells["i"], cells["j"], cells["value"]
            key = i * n + j
            ok = (i >= 0) & (i < j) & (j < n) & (np.diff(key, prepend=last) > 0)
            if not ok.all():
                k = int(ok.argmin())
                reason = _pair_error(int(i[k]), int(j[k]), n, int(key[k - 1]) if k else last)
                raise _bad_line(path, 3, done + k, _CELL_DTYPE, reason)
            last = int(key[-1])
            sep = j - i
            min_sep = min(min_sep, int(sep.min()), int((n - sep).min()))
            values[i, j] = v
            values[j, i] = v
    values.setflags(write=False)
    return RatioField(values=values, metric=metric_tokens[1], exclusion_band=min_sep - 1)
