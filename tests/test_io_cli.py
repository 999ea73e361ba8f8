"""File formats and the command-line entry points."""

import json
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csflab.cli as cli
from csflab import CLOSED, D_OVER_PSI, FlowConfig, SampledCurve, ratio_field, run
from csflab.chordarc import METRICS, RatioField
from csflab.curve import OPEN, PERIODIC
from csflab.diagnostics import emit_record
from csflab.errors import InvalidArgumentError, NumericalFailureError
from csflab.flow import RecordRow, RunRecord
from csflab import fileio, flow
from csflab.fileio import (
    CONSISTENCY_CSV,
    CURVE_MAGIC,
    FIELD_MAGIC,
    FSCAN_CSV,
    MINIMA_CSV,
    RUN_CSV,
    config_from_json,
    format_float,
    read_curve,
    read_minima_csv,
    read_ratio_field,
    read_run_csv,
    read_run_json,
    read_table,
    write_curve,
    write_ratio_field,
    write_run_csv,
    write_run_json,
    write_table,
)
from reference import circle, same_bits


def test_format_float_round_trips():
    for v in (0.1, 1.0 / 3.0, 6.280662313909506, 1e-300, -0.0):
        assert float(format_float(v)) == v
    assert float(format_float(np.float64(0.1))) == 0.1


def test_curve_round_trip_all_topologies(tmp_path):
    rng = np.random.default_rng(5)
    curves = [
        circle(16, 1.2345),
        SampledCurve(np.cumsum(rng.uniform(0.1, 1.0, (10, 3)), axis=0), OPEN),
    ]
    u = np.arange(12) * (2.0 * math.pi / 12)
    curves.append(
        SampledCurve(
            np.column_stack([np.cos(u), np.sin(u), 0.3 * u]),
            PERIODIC,
            offset=(0.0, 0.0, 0.3 * 2.0 * math.pi),
        )
    )
    for k, c in enumerate(curves):
        path = tmp_path / f"c{k}.curve"
        write_curve(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CURVE_MAGIC
        assert lines[1].startswith("topology ")
        back = read_curve(path)
        assert back.topology == c.topology
        assert np.array_equal(back.points, c.points)
        if c.offset is None:
            assert back.offset is None
        else:
            assert np.array_equal(back.offset, c.offset)


def test_curve_header_literals(tmp_path):
    path = tmp_path / "p.curve"
    u = np.arange(8) * 0.5
    pc = SampledCurve(
        np.column_stack([np.cos(u), np.sin(u), u]), PERIODIC, offset=(0.0, 0.0, 4.0)
    )
    write_curve(pc, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "topology periodic 0.0 0.0 4.0"
    write_curve(circle(8), path)
    assert path.read_text().splitlines()[1] == "topology closed"


def test_curve_rejects_malformed(tmp_path):
    path = tmp_path / "bad.curve"
    path.write_text("# wrong magic\ntopology closed\n0 0 0\n")
    with pytest.raises(InvalidArgumentError):
        read_curve(path)
    path.write_text(CURVE_MAGIC + "\ntopology klein\n0 0 0\n")
    with pytest.raises(InvalidArgumentError):
        read_curve(path)
    path.write_text(CURVE_MAGIC + "\ntopology closed\n0 0\n")
    with pytest.raises(InvalidArgumentError):
        read_curve(path)
    path.write_text(CURVE_MAGIC + "\ntopology closed\n0 0 zero\n")
    with pytest.raises(InvalidArgumentError):
        read_curve(path)


def test_run_csv_round_trip(tmp_path):
    rec = run(circle(64), FlowConfig(t_end=0.02, record_every=20))
    path = tmp_path / "run.csv"
    write_run_csv(rec.rows, path)
    first = path.read_text().splitlines()[0]
    assert first == "step,t,L,k_max,total_abs_curv,total_sq_curv,dl_min,dpsi_min,sphere_residual,sing_indicator"
    assert first == RUN_CSV.header
    back = read_run_csv(path)
    assert len(back) == len(rec.rows)
    for a, b in zip(rec.rows, back):
        assert a == b
    # inapplicable diagnostics stay empty fields, not zeros
    assert rec.rows[0].sphere_residual is None
    line = path.read_text().splitlines()[1]
    assert line.split(",")[8] == ""


def test_run_json_round_trip(tmp_path):
    cfg = FlowConfig(t_end=0.02, record_every=20, cfl=0.3)
    rec = run(circle(64), cfg)
    path = tmp_path / "run.json"
    write_run_json(rec, path)
    payload = read_run_json(path)
    assert payload["stop_reason"] == "t_end"
    assert payload["rows"] == len(rec.rows)
    assert payload["t_est"] == rec.t_est
    assert config_from_json(payload) == cfg


def test_run_json_infinite_t_est(tmp_path):
    cfg = FlowConfig(max_steps=1, record_every=1)
    rec = run(circle(64), cfg)
    assert math.isinf(rec.t_est) or rec.t_est > 0  # tiny runs may not contract
    rec2 = RunRecord(rec.rows, rec.snapshots, math.inf, "max_steps", cfg)
    path = tmp_path / "run.json"
    write_run_json(rec2, path)
    assert math.isinf(read_run_json(path)["t_est"])


@pytest.mark.parametrize("reason", flow.STOP_REASONS)
def test_run_json_reads_every_stop_reason(tmp_path, reason):
    cfg = FlowConfig(max_steps=1, record_every=1)
    rec = run(circle(32), cfg)
    path = tmp_path / "run.json"
    write_run_json(RunRecord(rec.rows, rec.snapshots, 1, reason, cfg), path)
    payload = read_run_json(path)
    assert payload["stop_reason"] == reason
    assert type(payload["t_est"]) is float and payload["t_est"] == 1.0


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("t_est", True, "t_est must be a real number, got True"),
        ("t_est", "1.5", "t_est must be a real number, got '1.5'"),
        ("t_est", None, "t_est must be a real number, got None"),
        ("stop_reason", 42, "unknown stop_reason 42"),
        ("stop_reason", "bogus", "unknown stop_reason 'bogus'"),
        ("stop_reason", None, "unknown stop_reason None"),
    ],
)
def test_run_json_names_a_bad_t_est_or_stop_reason(tmp_path, key, value, message):
    path = tmp_path / "run.json"
    write_run_json(run(circle(32), FlowConfig(max_steps=1)), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: {message}")):
        read_run_json(path)


def test_ratio_field_round_trip(tmp_path):
    th = np.arange(32) * (2.0 * math.pi / 32)
    r = 1.0 + 0.3 * np.cos(2 * th)
    c = SampledCurve(np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(32)]), CLOSED)
    field = ratio_field(c, D_OVER_PSI, exclusion_band=3)
    path = tmp_path / "f.txt"
    write_ratio_field(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == FIELD_MAGIC
    assert lines[1] == "metric d_over_psi"
    assert lines[2] == "n 32"
    # only finite upper-triangle cells are stored
    for ln in lines[3:]:
        i, j, _ = ln.split()
        assert int(i) < int(j)
    back = read_ratio_field(path)
    assert back.metric == field.metric
    assert back.exclusion_band == field.exclusion_band
    assert np.array_equal(back.values, field.values, equal_nan=True)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# csf-curve v1\nmetric d_over_l\nn 16\n", "missing '# csf-ratiofield v1'"),
        (f"{FIELD_MAGIC}\nmetric\nn 16\n", "malformed metric line"),
        (f"{FIELD_MAGIC}\nmetric chord\nn 16\n", "unknown metric 'chord'"),
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn sixteen\n", "malformed n line"),
        # a superscript digit passes str.isdigit but not int()
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn \u00b2\n", "malformed n line"),
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn 16\n0 3 0.5\n\n1 4\n", ":6: expected 'i j value'"),
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn 16\n0 3 0.5\n0 16 0.5\n", ":5: pair out of range"),
        # a vertex paired with itself has no ratio: it would set a finite
        # diagonal cell and an exclusion band of -1
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn 16\n0 3 0.5\n\n3 3 0.5\n", ":6: diagonal pair (3, 3)"),
    ],
)
def test_ratio_field_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        read_ratio_field(path)


@pytest.mark.parametrize("n, body", [(0, ""), (3, "0 1 0.5\n")])
def test_ratio_field_rejects_too_few_vertices(tmp_path, n, body):
    # ratio_field refuses fewer than MIN_FIELD_VERTICES vertices, so the
    # reader does too: n 0 would give a 0 x 0 field with band -1
    path = tmp_path / "f.txt"
    path.write_text(f"{FIELD_MAGIC}\nmetric d_over_l\nn {n}\n{body}")
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: n {n} is below")):
        read_ratio_field(path)


@pytest.mark.parametrize(
    "write, read",
    [
        pytest.param(
            lambda path: write_run_csv(
                run(circle(32), FlowConfig(t_end=0.01, record_every=1000)).rows, path
            ),
            read_run_csv,
            id="table",
        ),
        pytest.param(lambda path: write_curve(circle(8), path), read_curve, id="curve"),
        # about 46 KB, so the byte lies past the first block the text layer
        # decodes for the header: it surfaces inside a parsed chunk, and
        # again in the walk that looks for the chunk's bad line
        pytest.param(
            lambda path: write_ratio_field(ratio_field(circle(64), D_OVER_PSI, 2), path),
            read_ratio_field,
            id="ratio-field",
        ),
    ],
)
def test_readers_reject_undecodable_bytes(tmp_path, write, read):
    path = tmp_path / "f"
    write(path)
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: not utf-8 text")) as exc:
        read(path)
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


def reference_ratio_field_text(field):
    # reference writer: one f-string per finite upper-triangle cell
    lines = [f"{FIELD_MAGIC}\nmetric {field.metric}\nn {field.n}\n"]
    for i, row in enumerate(field.values):
        for j, v in enumerate(row[i + 1 :].tolist(), start=i + 1):
            if math.isfinite(v):
                lines.append(f"{i} {j} {v!r}\n")
    return "".join(lines)


def reference_read_ratio_field(path):
    # reference reader: one split/int/float per body line, header lines
    # assumed well formed; each line must hold a pair 0 <= i < j < n past the
    # previous line's in row-major order; returns (values, metric, band)
    lines = path.read_text().splitlines()
    n = int(lines[2].split()[1])
    values = np.full((n, n), np.nan)
    min_sep, last = n, (-1, -1)
    for line in lines[3:]:
        if not line.strip():
            continue
        i, j, v = line.split()
        i, j, v = int(i), int(j), float(v)
        assert 0 <= i < j < n and (i, j) > last, line
        last = (i, j)
        values[i, j] = values[j, i] = v
        min_sep = min(min_sep, j - i, n - (j - i))
    return values, lines[1].split()[1], min_sep - 1


# shortest-repr corner cases: subnormals, tiny, the switch to exponent form
# at 1e16 (and back below 1e-4), large exact integers, -0.0
SPECIAL_VALUES = [5e-324, 2.2250738585072014e-308 / 3, 1e-300, 9999999999999998.0,
                  1e16, 1e22, 1.2345678901234567e21, 0.1, 1e-4, 9.9e-5, -0.0, 1.0 / 3.0]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 96),
    band=st.integers(1, 47),
    metric=st.sampled_from(sorted(METRICS)),
    cells=st.lists(st.tuples(st.integers(0, 95), st.integers(0, 95),
                             st.sampled_from(SPECIAL_VALUES)), max_size=12),
    empty_rows=st.lists(st.integers(0, 95), max_size=4),
    chunk=st.sampled_from([1, 7, fileio._CHUNK_LINES]),
)
def test_ratio_field_text_round_trip(seed, n, band, metric, cells, empty_rows, chunk):
    band = min(band, n // 2 - 1)
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    r = 1.0 + 0.4 * rng.uniform(-1.0, 1.0) * np.cos(2 * th)
    curve = SampledCurve(
        np.column_stack([r * np.cos(th), r * np.sin(th), 0.3 * rng.normal(size=n)]), CLOSED
    )
    values = ratio_field(curve, metric, band).values.copy()
    for i, j, v in cells:
        i, j = i % n, j % n
        if math.isfinite(values[i, j]):  # hand-set cells stay outside the band
            values[i, j] = values[j, i] = v
    for k in empty_rows:  # a row and its mirror column with no finite cell
        values[k % n, :] = values[:, k % n] = math.nan
    field = RatioField(values=values, metric=metric, exclusion_band=band)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CHUNK_LINES", chunk)
        path = Path(tmp) / "f.txt"
        write_ratio_field(field, path)
        assert path.read_text() == reference_ratio_field_text(field)
        back = read_ratio_field(path)
        ref_values, ref_metric, ref_band = reference_read_ratio_field(path)
    assert (back.metric, back.exclusion_band) == (ref_metric, ref_band)
    assert same_bits(back.values, ref_values)
    finite = np.isfinite(values)
    assert np.array_equal(np.isfinite(back.values), finite)
    assert same_bits(back.values[finite], values[finite])
    if not empty_rows:
        assert back.exclusion_band == band


def reference_curve_text(curve):
    # reference writer: one format_float per coordinate, one f-string per vertex
    lines = [CURVE_MAGIC]
    if curve.topology == PERIODIC:
        ox, oy, oz = (format_float(v) for v in curve.offset)
        lines.append(f"topology {PERIODIC} {ox} {oy} {oz}")
    else:
        lines.append(f"topology {curve.topology}")
    for x, y, z in curve.points:
        lines.append(f"{format_float(x)} {format_float(y)} {format_float(z)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    topology=st.sampled_from([CLOSED, OPEN, PERIODIC]),
    cells=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 2),
                             st.sampled_from(SPECIAL_VALUES)), max_size=8),
)
def test_curve_text_equals_per_value_writer(seed, n, topology, cells):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 9)
    for i, k, v in cells:  # shortest-repr corner cases in any coordinate
        pts[i % n, k] = v
    offset = rng.normal(size=3) * 3.0 if topology == PERIODIC else None
    curve = SampledCurve(pts, topology, offset)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.curve"
        write_curve(curve, path)
        assert path.read_bytes() == reference_curve_text(curve).encode()
        back = read_curve(path)
    assert same_bits(back.points, curve.points)


# a bad ratio-field body line of each kind, in place of "k k+3 0.k+1" (k = bad,
# n 32), and its message; "repeated" and "order" need a line before them
_BAD_CELLS = {
    "token": ("{k} {j} x{k}", "expected 'i j value', got '{k} {j} x{k}'"),
    "count": ("{k} {j}", "expected 'i j value', got '{k} {j}'"),
    "range": ("{k} 40 0.5", "pair out of range: ({k}, 40) with n 32"),
    "diagonal": ("{k} {k} 0.5", "diagonal pair ({k}, {k})"),
    "mirrored": ("{j} {k} 0.5", "mirrored pair ({j}, {k})"),
    "repeated": ("{p} {i} 0.5", "repeated pair ({p}, {i})"),
    "order": ("{p} {k} 0.5", "out-of-order pair ({p}, {k})"),
}


@settings(max_examples=60, deadline=None)
@given(
    chunk=st.sampled_from([1, 7, fileio._CHUNK_LINES]),
    bad=st.integers(0, 20),
    blank=st.integers(0, 21),
    kind=st.sampled_from(sorted(_BAD_CELLS)),
)
def test_ratio_field_error_names_line_across_chunks(chunk, bad, blank, kind):
    # 21 body lines, one made bad, one blank line inserted; with chunks of
    # 1 and 7 lines the bad and blank lines fall on and beside chunk edges,
    # and a repeated or out-of-order line may follow its previous line across one
    assume(bad > 0 or kind not in ("repeated", "order"))
    body = [f"{k} {k + 3} 0.{k + 1}" for k in range(21)]
    names = {"k": bad, "j": bad + 3, "p": bad - 1, "i": bad + 2}
    text, message = (part.format(**names) for part in _BAD_CELLS[kind])
    body[bad] = text
    body.insert(blank, "")
    line = 4 + bad + (blank <= bad)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CHUNK_LINES", chunk)
        path = Path(tmp) / "f.txt"
        path.write_text(f"{FIELD_MAGIC}\nmetric d_over_l\nn 32\n" + "\n".join(body) + "\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:{line}: {message}")):
            read_ratio_field(path)


@settings(max_examples=30, deadline=None)
@given(
    chunk=st.sampled_from([1, 7, fileio._CHUNK_LINES]),
    bad=st.integers(0, 20),
    blank=st.integers(0, 21),
    text=st.sampled_from(["0.5 x 1.5", "0.5 1.5", "0.5 1.5 2.5 3.5", "1 2 3e"]),
)
def test_curve_error_names_line_across_chunks(chunk, bad, blank, text):
    # the ratio-field case's layout on a curve body: 21 vertex lines after
    # the two header lines, one a bad token or the wrong column count
    body = [f"{k}.5 {k} -{k}.25" for k in range(21)]
    body[bad] = text
    body.insert(blank, "")
    line = 3 + bad + (blank <= bad)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CHUNK_LINES", chunk)
        path = Path(tmp) / "c.curve"
        path.write_text(f"{CURVE_MAGIC}\ntopology open\n" + "\n".join(body) + "\n")
        message = f"{path}:{line}: expected 'x y z', got {text!r}"
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            read_curve(path)


@pytest.mark.parametrize("kind", ["token", "range", "curve"])
def test_ratio_field_error_rereads_only_the_failing_chunk(tmp_path, monkeypatch, kind):
    # 40 rows, a blank line before every fifth, chunks of 7 rows: bad row 33
    # is in the fifth chunk, on line 4 + 33 + 7 blank lines (3 + 33 + 7 in a
    # curve file), and naming it parses no row of the four chunks that
    # passed; a row that parses but breaks the pair order is named from the
    # chunk's own parse, with no row parsed again
    if kind == "curve":
        head, read, line = f"{CURVE_MAGIC}\ntopology open\n", read_curve, 43
    else:
        head, read, line = f"{FIELD_MAGIC}\nmetric d_over_l\nn 64\n", read_ratio_field, 44
    body = [f"{k} {k + 3} 0.{k + 1}" for k in range(40)]
    body[33] = "33 70 0.5" if kind == "range" else "33 36 x"
    for k in range(35, -1, -5):
        body.insert(k, "")
    path = tmp_path / "f.txt"
    path.write_text(head + "\n".join(body) + "\n")
    monkeypatch.setattr(fileio, "_CHUNK_LINES", 7)
    parsed = []
    parse_rows = fileio._parse_rows

    def counting(lines, *args, **kwargs):
        if isinstance(lines, list):
            parsed.extend(lines)
        return parse_rows(lines, *args, **kwargs)

    monkeypatch.setattr(fileio, "_parse_rows", counting)
    message = "pair out of range" if kind == "range" else "expected "
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:{line}: {message}")):
        read(path)
    if kind == "range":
        assert parsed == []
    else:
        assert parsed[0] == "28 31 0.29\n" and len(parsed) == 6


@pytest.mark.parametrize("chunk", [1, 2, 7, None])
def test_ratio_field_repeated_and_mirrored_pairs(tmp_path, monkeypatch, chunk):
    # the writer puts each finite cell on one line, i < j, in row-major
    # order: a mirrored, repeated or out-of-order line is not one it writes,
    # and raises naming its line, also after a blank line or a chunk edge
    if chunk:
        monkeypatch.setattr(fileio, "_CHUNK_LINES", chunk)
    path = tmp_path / "f.txt"
    head = f"{FIELD_MAGIC}\nmetric d_over_l\nn 16\n0 5 0.5\n2 9 0.75\n\n"
    for last, message in [
        ("5 0 0.25", "mirrored pair (5, 0)"),
        ("9 2 0.25", "mirrored pair (9, 2)"),
        ("2 9 0.125", "repeated pair (2, 9)"),
        ("1 6 0.375", "out-of-order pair (1, 6)"),
        ("2 8 0.375", "out-of-order pair (2, 8)"),
    ]:
        path.write_text(head + last + "\n2 15 0.625\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:7: {message}")):
            read_ratio_field(path)
    path.write_text(head + "2 10 0.25\n2 15 0.625\n")
    field = read_ratio_field(path)
    ref_values, _, ref_band = reference_read_ratio_field(path)
    assert same_bits(field.values, ref_values)
    assert field.exclusion_band == ref_band == 2  # (2, 15) is 3 apart cyclically
    assert np.isfinite(field.values).sum() == 8


def test_read_ratio_field_holds_one_chunk_beside_the_matrix(tmp_path):
    # a file of more than 2**16 lines: beside the matrix it returns, the
    # reader holds one chunk of _CHUNK_LINES parsed cells and the parser's
    # buffers (about 0.7 MB), and no line strings
    field = ratio_field(circle(400), D_OVER_PSI, exclusion_band=2)
    path = tmp_path / "f.txt"
    write_ratio_field(field, path)
    assert path.read_text().count("\n") > 2**16
    read_ratio_field(path)
    tracemalloc.start()
    try:
        back = read_ratio_field(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, field.values, equal_nan=True)
    assert peak - back.values.nbytes < 1_500_000


class _FailingWrites:
    """File-handle proxy whose ``write`` raises after ``limit`` calls."""

    def __init__(self, fh, limit, exc):
        self.fh, self.limit, self.exc, self.calls = fh, limit, exc, 0

    def write(self, text):
        self.calls += 1
        if self.calls > self.limit:
            raise self.exc
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failed_write_keeps_earlier_file(tmp_path, monkeypatch, exc):
    old = ratio_field(circle(32), D_OVER_PSI, 2)
    path = tmp_path / "ratiofield.txt"
    write_ratio_field(old, path)
    before = path.read_bytes()
    new = RatioField(values=old.values * 0.5, metric=old.metric, exclusion_band=2)
    monkeypatch.setattr(
        fileio, "open", lambda p, mode: _FailingWrites(open(p, mode), 5, exc), raising=False
    )
    with pytest.raises(type(exc)):
        write_ratio_field(new, path)  # header and four rows written, then the fifth fails
    with pytest.raises(type(exc)):
        write_ratio_field(new, tmp_path / "fresh.txt")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ratiofield.txt"]


def _replace_token(path, line, column, sep):
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(sep)
    fields[column] = "x1"
    lines[line - 1] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n")


_ROW = RecordRow(step=0, t=0.0, L=6.28, k_max=1.0, total_abs_curv=6.28, total_sq_curv=6.28)
_MINIMA_ROW = {"i": 3, "j": 17, "value": 0.5, "d": 1.0, "l": 2.0, "psi": None,
               "alpha": None, "cond22": 0.25, "cond31": None}


def _table_case(table, rows):
    return pytest.param(
        partial(write_table, table), rows, partial(read_table, table), ",", id=table.name
    )


@pytest.mark.parametrize(
    "write, rows, read, sep",
    [
        _table_case(RUN_CSV, [_ROW, _ROW]),
        _table_case(MINIMA_CSV, [_MINIMA_ROW, _MINIMA_ROW]),
        _table_case(FSCAN_CSV, [(0.1, 1.0, 0.5, 0.5, 0.1)] * 2),
        _table_case(CONSISTENCY_CSV, [(0.1, 0.2, 1e-6)] * 2),
        (lambda rows, p: write_curve(circle(8), p), None, read_curve, " "),
        (lambda rows, p: write_ratio_field(ratio_field(circle(16), D_OVER_PSI, 2), p),
         None, read_ratio_field, " "),
    ],
)
def test_readers_name_the_line_of_a_bad_token(tmp_path, write, rows, read, sep):
    path = tmp_path / "table.txt"
    write(rows, path)
    line = 5 if read is read_ratio_field else 3  # the second data line
    _replace_token(path, line, 0, sep)
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:{line}: ")):
        read(path)


@pytest.mark.parametrize("bad", [3, 5, 6, 11])
def test_curve_reader_skips_blank_lines_and_names_bad_line(tmp_path, bad):
    # body lines 3..10 hold the 8 vertices; a blank and a whitespace-only
    # line are inserted as lines 5 and 12, shifting the vertices after them
    c = circle(8, 0.7)
    path = tmp_path / "c.curve"
    write_curve(c, path)
    lines = path.read_text().splitlines()
    lines[4:4] = [""]
    lines.append("  \t")
    path.write_text("\n".join(lines) + "\n")
    back = read_curve(path)
    assert same_bits(back.points, c.points)
    if bad == 5:  # the blank line itself: give it one token
        lines[bad - 1] = "1.5"
    else:
        fields = lines[bad - 1].split()
        fields[1] = "0.5e"
        lines[bad - 1] = " ".join(fields)
    message = f"{path}:{bad}: expected 'x y z', got {lines[bad - 1]!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        read_curve(path)


def test_minima_csv_round_trip(tmp_path):
    rows = [
        {"i": 3, "j": 17, "value": 0.5, "d": 1.0, "l": 2.0, "psi": 1.9,
         "alpha": 0.9, "cond22": 0.25, "cond31": -0.125},
        {"i": 0, "j": 64, "value": 0.7, "d": 6.28, "l": 8.88, "psi": None,
         "alpha": None, "cond22": 1.5, "cond31": None},
    ]
    path = tmp_path / "minima.csv"
    write_table(MINIMA_CSV, rows, path)
    assert path.read_text().splitlines()[0] == MINIMA_CSV.header
    back = read_table(MINIMA_CSV, path)
    assert back == rows


def test_fscan_and_consistency_round_trip(tmp_path):
    fs = [(0.01, 1.0, -0.5, -0.51, 0.001), (0.1, 2.0, 0.3, 0.363, 0.02)]
    p1 = tmp_path / "fscan.csv"
    write_table(FSCAN_CSV, fs, p1)
    assert p1.read_text().splitlines()[0] == FSCAN_CSV.header
    assert read_table(FSCAN_CSV, p1) == fs
    cs_rows = [(0.05, 0.399, 1e-6), (0.1, 0.458, 2e-6)]
    p2 = tmp_path / "consistency.csv"
    write_table(CONSISTENCY_CSV, cs_rows, p2)
    assert p2.read_text().splitlines()[0] == CONSISTENCY_CSV.header
    assert read_table(CONSISTENCY_CSV, p2) == cs_rows


_INF = math.inf
_PINNED_TABLES = [
    (
        RUN_CSV,
        [
            RecordRow(step=np.int64(7), t=-0.0, L=5e-324, k_max=1e300,
                      total_abs_curv=_INF, total_sq_curv=np.float64(0.1)),
            RecordRow(12, np.float64(1 / 3), 6.28, -_INF, 2.5, 1e-300,
                      -0.0, 5e-324, np.float64(1e300), _INF),
        ],
        "step,t,L,k_max,total_abs_curv,total_sq_curv,"
        "dl_min,dpsi_min,sphere_residual,sing_indicator\n"
        "7,-0.0,5e-324,1e+300,inf,0.1,,,,\n"
        "12,0.3333333333333333,6.28,-inf,2.5,1e-300,-0.0,5e-324,1e+300,inf\n",
    ),
    (
        MINIMA_CSV,
        [
            {"i": np.int64(3), "j": 17, "value": np.float64(0.5), "d": 1e300,
             "l": 5e-324, "psi": None, "alpha": None, "cond22": -0.0, "cond31": None},
            {"i": 0, "j": np.int64(64), "value": 0.7, "d": _INF, "l": 8.88,
             "psi": -0.0, "alpha": np.float64(0.1), "cond22": 1.5, "cond31": 5e-324},
        ],
        "i,j,value,d,l,psi,alpha,cond22,cond31\n"
        "3,17,0.5,1e+300,5e-324,,,-0.0,\n"
        "0,64,0.7,inf,8.88,-0.0,0.1,1.5,5e-324\n",
    ),
    (
        FSCAN_CSV,
        [(np.float64(0.01), 1, -0.0, 5e-324, 1e300),
         (0.1, np.float64(2.0), _INF, -_INF, np.float64(1 / 3))],
        "m,y,F,G,exact_derivative\n"
        "0.01,1.0,-0.0,5e-324,1e+300\n"
        "0.1,2.0,inf,-inf,0.3333333333333333\n",
    ),
    (
        CONSISTENCY_CSV,
        [(np.float64(0.05), -0.0, 5e-324), (1, 1e300, _INF)],
        "t,t_tilde,max_deviation\n0.05,-0.0,5e-324\n1.0,1e+300,inf\n",
    ),
]


@pytest.mark.parametrize(
    "table, rows, text", _PINNED_TABLES, ids=[t.name for t, _, _ in _PINNED_TABLES]
)
def test_tables_write_pinned_bytes(tmp_path, table, rows, text):
    # empty optional cells, signed zero, subnormal, huge, infinite and numpy
    # cells, byte for byte; what is read back writes the same bytes again
    path = tmp_path / table.name
    write_table(table, rows, path)
    assert path.read_bytes() == text.encode()
    back = read_table(table, path)
    assert back == rows
    again = tmp_path / "again.csv"
    write_table(table, back, again)
    assert again.read_bytes() == text.encode()


def run_cli(args):
    return cli.main(args)


def test_simulate_flag_defaults_are_the_flow_config_defaults():
    args = vars(cli._build_parser().parse_args(["simulate", "--out", "x"]))
    defaults = asdict(FlowConfig())
    flags = args.keys() & defaults.keys()
    assert flags == set(defaults) - {"sphere_radius"}  # set by the preset
    assert {k: args[k] for k in flags} == {k: defaults[k] for k in flags}


def test_cli_simulate_and_analyze(tmp_path):
    out = tmp_path / "run"
    code = run_cli([
        "simulate", "--preset", "circle", "--n", "64",
        "--t-end", "0.05", "--record-every", "20", "--out", str(out),
    ])
    assert code == 0
    rows = read_run_csv(out / "run.csv")
    assert rows[0].step == 0 and rows[-1].t == pytest.approx(0.05, abs=1e-12)
    snaps = sorted(p.name for p in out.glob("snap_*.curve"))
    assert "snap_0.curve" in snaps
    payload = read_run_json(out / "run.json")
    assert payload["stop_reason"] == "t_end"
    assert run_cli(["analyze", "--dir", str(out)]) == 0
    analyzed = read_run_csv(out / "analyze.csv")
    assert len(analyzed) == len(snaps)
    by_step = {r.step: r for r in rows}
    for row in analyzed:
        orig = by_step[row.step]
        assert row.L == orig.L and row.dl_min == orig.dl_min


def test_cli_analyze_rejects_a_missing_snapshot(tmp_path, capsys):
    # a run.csv row whose snapshot is gone must not be dropped silently
    out = tmp_path / "run"
    assert run_cli([
        "simulate", "--preset", "ellipse", "--n", "64",
        "--t-end", "0.01", "--record-every", "1000", "--out", str(out),
    ]) == 0
    steps = [row.step for row in read_run_csv(out / "run.csv")]
    assert len(steps) == 2
    (out / f"snap_{steps[1]}.curve").unlink()
    capsys.readouterr()
    assert run_cli(["analyze", "--dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: run.csv step {steps[1]} has no snapshot in {out}\n"
    assert not (out / "analyze.csv").exists()


def test_cli_analyze_rejects_a_lost_run_csv_row(tmp_path, capsys):
    # the last row and its snapshot gone: run.json still counts both rows
    out = tmp_path / "run"
    assert run_cli([
        "simulate", "--preset", "ellipse", "--n", "64",
        "--t-end", "0.02", "--record-every", "5", "--out", str(out),
    ]) == 0
    rows = read_run_csv(out / "run.csv")
    assert len(rows) == 2 and read_run_json(out / "run.json")["rows"] == 2
    write_run_csv(rows[:1], out / "run.csv")
    (out / f"snap_{rows[1].step}.curve").unlink()
    capsys.readouterr()
    assert run_cli(["analyze", "--dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {out / 'run.json'} records 2 rows, but {out / 'run.csv'} holds 1\n"
    )
    assert not (out / "analyze.csv").exists()


def circle_run_dir(tmp_path):
    # a circle run of two rows, steps 0 and its last
    out = tmp_path / "run"
    assert run_cli([
        "simulate", "--preset", "circle", "--n", "64",
        "--t-end", "0.01", "--record-every", "1000", "--out", str(out),
    ]) == 0
    rows = read_run_csv(out / "run.csv")
    assert len(rows) == 2
    return out, rows


def test_cli_analyze_rejects_a_step_with_two_snapshots(tmp_path, capsys):
    # snap_0<k>.curve and snap_<k>.curve both read as step k
    out, rows = circle_run_dir(tmp_path)
    last = rows[-1].step
    (out / f"snap_0{last}.curve").write_bytes((out / f"snap_{last}.curve").read_bytes())
    capsys.readouterr()
    assert run_cli(["analyze", "--dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: step {last} has two snapshots in {out}: "
        f"snap_0{last}.curve and snap_{last}.curve\n"
    )
    assert not (out / "analyze.csv").exists()


def test_cli_analyze_rejects_a_repeated_run_csv_row(tmp_path, capsys):
    # the last row twice, and run.json counting three rows
    out, rows = circle_run_dir(tmp_path)
    write_run_csv(rows + rows[-1:], out / "run.csv")
    payload = json.loads((out / "run.json").read_text())
    payload["rows"] = 3
    (out / "run.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["analyze", "--dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'run.csv'} repeats step {rows[-1].step}\n"
    assert not (out / "analyze.csv").exists()


def test_run_json_writes_numpy_integer_config(tmp_path):
    cfg = FlowConfig(t_end=0.01, record_every=np.int64(20), max_steps=np.int32(50))
    path = tmp_path / "run.json"
    write_run_json(run(circle(32), cfg), path)
    assert config_from_json(read_run_json(path)) == cfg


@pytest.mark.parametrize("name", ["run.csv", "snap_0.curve"])
def test_cli_analyze_rejects_undecodable_bytes(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert run_cli([
        "simulate", "--preset", "circle", "--n", "32", "--t-end", "0.01", "--out", str(out),
    ]) == 0
    with open(out / name, "ab") as fh:
        fh.write(b"\xff")
    capsys.readouterr()
    assert run_cli(["analyze", "--dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / name}: not utf-8 text (invalid start byte)\n"


def test_emit_record_writes_run_csv_last(tmp_path, monkeypatch):
    # a write cut short after the snapshots leaves no run.csv behind
    record = run(circle(32), FlowConfig(t_end=0.01, record_every=1000))

    def failing(*args):
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "write_run_csv", failing)
    with pytest.raises(OSError, match="disk full"):
        emit_record(record, tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
        f"snap_{step}.curve" for step, _, _ in record.snapshots
    )


@pytest.mark.parametrize("preset", ["helix", "open-arc"])
def test_cli_non_closed_runs_have_no_vanishing_time(tmp_path, capsys, preset):
    # open and periodic curves never vanish: t_est is inf, the indicator 0
    if preset == "open-arc":
        th = np.linspace(0.0, math.pi, 64)
        arc = SampledCurve(np.column_stack([np.cos(th), np.sin(th), 0.2 * th]), OPEN)
        write_curve(arc, tmp_path / "arc.curve")
        args = ["--preset", "custom-file", "--path", str(tmp_path / "arc.curve")]
    else:
        args = ["--preset", preset, "--n", "64"]
    out = tmp_path / "run"
    code = run_cli([
        "simulate", *args, "--t-end", "0.05", "--record-every", "20", "--out", str(out),
    ])
    assert code == 0
    assert "t_est=inf" in capsys.readouterr().out
    assert read_curve(out / "snap_0.curve").topology != CLOSED
    assert math.isinf(read_run_json(out / "run.json")["t_est"])
    rows = read_run_csv(out / "run.csv")
    assert len(rows) > 1 and all(r.sing_indicator == 0.0 for r in rows)
    assert run_cli(["analyze", "--dir", str(out)]) == 0
    assert read_run_csv(out / "analyze.csv") == rows


def test_cli_simulate_custom_file(tmp_path):
    src = tmp_path / "input.curve"
    write_curve(circle(48, 0.8), src)
    out = tmp_path / "run"
    code = run_cli([
        "simulate", "--preset", "custom-file", "--path", str(src),
        "--t-end", "0.01", "--out", str(out),
    ])
    assert code == 0
    assert read_run_csv(out / "run.csv")[0].L == pytest.approx(
        2 * 48 * 0.8 * math.sin(math.pi / 48), rel=1e-12
    )


def test_cli_ratio_field_outputs(tmp_path):
    out = tmp_path / "field"
    code = run_cli([
        "ratio-field", "--preset", "ellipse", "--n", "64",
        "--metric", "d_over_psi", "--band", "2", "--out", str(out),
    ])
    assert code == 0
    field = read_ratio_field(out / "ratiofield.txt")
    assert field.metric == D_OVER_PSI
    minima = read_minima_csv(out / "minima.csv")
    assert minima and all(m["cond31"] is not None for m in minima)


@pytest.mark.parametrize("metric, arc", [("d_over_l", "l"), ("d_over_psi", "psi")])
def test_cli_minima_values_are_their_rows_ratios(tmp_path, metric, arc):
    # each pair is measured once: a minimum's value is its own row's d / l or
    # d / psi, bit for bit
    out = tmp_path / metric
    assert run_cli([
        "ratio-field", "--preset", "cos2u-curve", "--n", "256",
        "--metric", metric, "--out", str(out),
    ]) == 0
    minima = read_minima_csv(out / "minima.csv")
    assert len(minima) > 40
    assert [m["value"] for m in minima] == [m["d"] / m[arc] for m in minima]


@pytest.mark.parametrize("r, cause", [("1e200", "overflows"), ("1e-200", "underflows")])
def test_cli_rejects_segments_that_cannot_be_measured(tmp_path, capsys, r, cause):
    # distinct, finite vertices whose squared differences leave the float range
    out = tmp_path / "run"
    assert run_cli([
        "simulate", "--preset", "circle", "--n", "16", "--r", r,
        "--t-end", "1", "--max-steps", "5", "--out", str(out),
    ]) == 1
    # the last line: numpy may warn of the overflow on its way
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: segment 0 length {cause}")
    assert not out.exists()


def test_cli_helix_scan(tmp_path):
    out = tmp_path / "scan"
    code = run_cli([
        "helix-scan", "--m-min", "0.01", "--m-max", "0.1", "--m-steps", "3",
        "--y-min", "0.5", "--y-max", "6.0", "--y-steps", "4", "--out", str(out),
    ])
    assert code == 0
    rows = read_table(FSCAN_CSV, out / "fscan.csv")
    assert len(rows) == 12
    ms = sorted({r[0] for r in rows})
    assert ms[0] == 0.01 and ms[-1] == 0.1


@pytest.mark.parametrize("m_min, m_max", [("0.1", "0"), ("0.1", "-1"), ("0", "1")])
def test_cli_helix_scan_log_m_needs_positive_bounds(tmp_path, capsys, m_min, m_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        code = run_cli([
            "helix-scan", "--m-min", m_min, "--m-max", m_max, "--m-steps", "3",
            "--log-m", "--y-min", "0.5", "--y-max", "6.0", "--y-steps", "4",
            "--out", str(tmp_path / "scan"),
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: --log-m needs positive --m-min and --m-max\n"
    assert not (tmp_path / "scan").exists()


def test_cli_sphere_verify(tmp_path):
    out = tmp_path / "sv"
    code = run_cli([
        "sphere-verify", "--eps", "0.1", "--k", "2", "--n", "64",
        "--t-end", "0.12", "--out", str(out),
    ])
    assert code == 0
    cons = read_table(CONSISTENCY_CSV, out / "consistency.csv")
    assert len(cons) == 6
    assert cons[-1][0] == pytest.approx(0.12)
    assert max(r[2] for r in cons) < 1e-3
    rows = read_run_csv(out / "run.csv")
    assert all(r.sphere_residual is not None for r in rows)
    # the preset's radius, filled in by simulate_preset
    assert read_run_json(out / "run.json")["config"]["sphere_radius"] == 1.0


def test_cli_exit_codes(tmp_path):
    assert run_cli([]) == 1
    assert run_cli(["simulate", "--preset", "nope", "--out", str(tmp_path)]) == 1
    assert run_cli(["analyze", "--dir", str(tmp_path / "missing")]) == 1
    assert run_cli(["sphere-verify", "--t-end", "0.7", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: "{not json",
        lambda payload: "42",
        lambda payload: json.dumps({**payload, "config": [1, 2]}),
        lambda payload: json.dumps({**payload, "config": {**payload["config"], "bogus": 1}}),
        lambda payload: json.dumps({**payload, "config": {**payload["config"], "cfl": "x"}}),
        lambda payload: json.dumps({**payload, "t_est": "soon"}),
        lambda payload: json.dumps({**payload, "t_est": "1.5"}),
        lambda payload: json.dumps({**payload, "t_est": True}),
        lambda payload: json.dumps({**payload, "stop_reason": 42}),
        lambda payload: json.dumps({**payload, "stop_reason": "bogus"}),
        lambda payload: json.dumps({**payload, "config": {**payload["config"], "record_every": 2.5}}),
        lambda payload: json.dumps({k: v for k, v in payload.items() if k != "rows"}),
        lambda payload: json.dumps({**payload, "rows": -1}),
        lambda payload: json.dumps({**payload, "rows": 2.0}),
        lambda payload: json.dumps({**payload, "rows": True}),
    ],
    ids=[
        "invalid-json",
        "not-an-object",
        "config-not-an-object",
        "unknown-config-key",
        "mistyped-config-value",
        "t_est-not-a-number",
        "t_est-a-numeric-string",
        "t_est-a-bool",
        "stop_reason-not-a-string",
        "stop_reason-unknown",
        "fractional-record_every",
        "rows-missing",
        "rows-negative",
        "rows-not-an-integer",
        "rows-a-bool",
    ],
)
def test_cli_analyze_rejects_malformed_run_json(tmp_path, capsys, corrupt):
    out = tmp_path / "run"
    assert run_cli([
        "simulate", "--preset", "circle", "--n", "32", "--t-end", "0.01", "--out", str(out),
    ]) == 0
    path = out / "run.json"
    path.write_text(corrupt(json.loads(path.read_text())))
    capsys.readouterr()
    assert run_cli(["analyze", "--dir", str(out)]) == 1
    assert f"error: {path}: " in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    out = tmp_path / "boom"

    def exploding_simulate(preset, config):
        partial = run(circle(64), FlowConfig(max_steps=2, record_every=1))
        raise NumericalFailureError("vertices collided", record=partial)

    monkeypatch.setattr(cli, "simulate_preset", exploding_simulate)
    code = run_cli([
        "simulate", "--preset", "circle", "--n", "64",
        "--t-end", "0.1", "--out", str(out),
    ])
    assert code == 2
    # the partial record was still emitted for post-mortems
    assert (out / "run.csv").exists()
    assert len(read_run_csv(out / "run.csv")) >= 1


def test_cli_simulate_keeps_rows_on_interrupt(tmp_path, monkeypatch):
    calls = []
    real = flow._STEPPERS[flow.SEMI_IMPLICIT]

    def interrupting(state, dt):
        calls.append(None)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return real(state, dt)

    out = tmp_path / "run"
    args = [
        "simulate", "--preset", "circle", "--n", "64", "--t-end", "0.1",
        "--record-every", "2", "--out", str(out),
    ]
    monkeypatch.setitem(flow._STEPPERS, flow.SEMI_IMPLICIT, interrupting)
    assert run_cli(args) == 130
    rows = read_run_csv(out / "run.csv")
    assert [r.step for r in rows] == [0, 2, 4]
    assert read_run_json(out / "run.json")["stop_reason"] == "interrupted"
    # every file is complete and no temporary file is left behind
    names = sorted(p.name for p in out.iterdir())
    assert names == ["run.csv", "run.json", "snap_0.curve", "snap_2.curve", "snap_4.curve"]
    monkeypatch.undo()
    good = run(circle(64), FlowConfig(t_end=0.1, record_every=2, max_steps=4))
    assert [r.t for r in rows] == [r.t for r in good.rows]
    assert [r.L for r in rows] == [r.L for r in good.rows]


@pytest.mark.parametrize(
    "kind, code", [(NumericalFailureError, 2), (KeyboardInterrupt, 130)]
)
def test_cli_sphere_verify_keeps_rows_on_failure(tmp_path, monkeypatch, kind, code):
    calls = []
    real = flow._STEPPERS[flow.SEMI_IMPLICIT]

    def fails_at_120(state, dt):
        calls.append(None)
        if len(calls) == 120:
            raise kind("vertices collided")
        return real(state, dt)

    out = tmp_path / "sv"
    monkeypatch.setitem(flow._STEPPERS, flow.SEMI_IMPLICIT, fails_at_120)
    assert run_cli([
        "sphere-verify", "--n", "64", "--t-end", "0.4", "--out", str(out),
    ]) == code
    rows = read_run_csv(out / "run.csv")
    assert [r.step for r in rows] == [0, 50, 100]
    assert all(r.sphere_residual is not None for r in rows)
    reason = "numerical_failure" if code == 2 else "interrupted"
    assert read_run_json(out / "run.json")["stop_reason"] == reason
    assert not (out / "consistency.csv").exists()


def test_cli_determinism_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--preset", "ellipse", "--n", "64", "--t-end", "0.02", "--out"]
    assert run_cli(args + [str(a)]) == 0
    assert run_cli(args + [str(b)]) == 0
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()


def test_cli_ratio_field_repeat_runs_same_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli([
            "ratio-field", "--preset", "cos2u-curve", "--n", "96",
            "--metric", "d_over_l", "--band", "2", "--out", str(out),
        ]) == 0
        outs.append((out / "ratiofield.txt").read_bytes())
    assert outs[0] == outs[1]
