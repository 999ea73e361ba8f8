"""File formats and the command-line entry points."""

import math
import re

import numpy as np
import pytest

import csflab.cli as cli
from csflab import (
    CLOSED,
    D_OVER_PSI,
    FlowConfig,
    InvalidArgumentError,
    NumericalFailureError,
    OPEN,
    PERIODIC,
    RunRecord,
    SampledCurve,
    ratio_field,
    run,
)
from csflab.fileio import (
    CURVE_MAGIC,
    FIELD_MAGIC,
    FSCAN_CSV_HEADER,
    MINIMA_CSV_HEADER,
    RUN_CSV_HEADER,
    config_from_json,
    format_float,
    read_consistency_csv,
    read_curve,
    read_fscan_csv,
    read_minima_csv,
    read_ratio_field,
    read_run_csv,
    read_run_json,
    write_consistency_csv,
    write_curve,
    write_fscan_csv,
    write_minima_csv,
    write_ratio_field,
    write_run_csv,
    write_run_json,
)


def circle(n, r=1.0):
    th = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(n)])
    return SampledCurve(pts, CLOSED)


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
    assert first == RUN_CSV_HEADER
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
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn 16\n0 3 0.5\n\n1 4\n", ":6: expected 'i j value'"),
        (f"{FIELD_MAGIC}\nmetric d_over_l\nn 16\n0 3 0.5\n0 16 0.5\n", ":5: pair out of range"),
    ],
)
def test_ratio_field_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        read_ratio_field(path)


def test_minima_csv_round_trip(tmp_path):
    rows = [
        {"i": 3, "j": 17, "value": 0.5, "d": 1.0, "l": 2.0, "psi": 1.9,
         "alpha": 0.9, "cond22": 0.25, "cond31": -0.125},
        {"i": 0, "j": 64, "value": 0.7, "d": 6.28, "l": 8.88, "psi": None,
         "alpha": None, "cond22": 1.5, "cond31": None},
    ]
    path = tmp_path / "minima.csv"
    write_minima_csv(rows, path)
    assert path.read_text().splitlines()[0] == MINIMA_CSV_HEADER
    back = read_minima_csv(path)
    assert back == rows


def test_fscan_and_consistency_round_trip(tmp_path):
    fs = [(0.01, 1.0, -0.5, -0.51, 0.001), (0.1, 2.0, 0.3, 0.363, 0.02)]
    p1 = tmp_path / "fscan.csv"
    write_fscan_csv(fs, p1)
    assert p1.read_text().splitlines()[0] == FSCAN_CSV_HEADER
    assert read_fscan_csv(p1) == fs
    cs_rows = [(0.05, 0.399, 1e-6), (0.1, 0.458, 2e-6)]
    p2 = tmp_path / "consistency.csv"
    write_consistency_csv(cs_rows, p2)
    assert read_consistency_csv(p2) == cs_rows


def run_cli(args):
    return cli.main(args)


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


def test_cli_helix_scan(tmp_path):
    out = tmp_path / "scan"
    code = run_cli([
        "helix-scan", "--m-min", "0.01", "--m-max", "0.1", "--m-steps", "3",
        "--y-min", "0.5", "--y-max", "6.0", "--y-steps", "4", "--out", str(out),
    ])
    assert code == 0
    rows = read_fscan_csv(out / "fscan.csv")
    assert len(rows) == 12
    ms = sorted({r[0] for r in rows})
    assert ms[0] == 0.01 and ms[-1] == 0.1


def test_cli_sphere_verify(tmp_path):
    out = tmp_path / "sv"
    code = run_cli([
        "sphere-verify", "--eps", "0.1", "--k", "2", "--n", "64",
        "--t-end", "0.12", "--out", str(out),
    ])
    assert code == 0
    cons = read_consistency_csv(out / "consistency.csv")
    assert len(cons) == 6
    assert cons[-1][0] == pytest.approx(0.12)
    assert max(r[2] for r in cons) < 1e-3
    rows = read_run_csv(out / "run.csv")
    assert all(r.sphere_residual is not None for r in rows)


def test_cli_exit_codes(tmp_path):
    assert run_cli([]) == 1
    assert run_cli(["simulate", "--preset", "nope", "--out", str(tmp_path)]) == 1
    assert run_cli(["analyze", "--dir", str(tmp_path / "missing")]) == 1
    assert run_cli(["sphere-verify", "--t-end", "0.7", "--out", str(tmp_path)]) == 1


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


def test_cli_determinism_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--preset", "ellipse", "--n", "64", "--t-end", "0.02", "--out"]
    assert run_cli(args + [str(a)]) == 0
    assert run_cli(args + [str(b)]) == 0
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()


def test_cli_ratio_field_thread_invariance(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        monkeypatch.setenv("CSF_THREADS", threads)
        assert run_cli([
            "ratio-field", "--preset", "cos2u-curve", "--n", "96",
            "--metric", "d_over_l", "--band", "2", "--out", str(out),
        ]) == 0
        outs.append((out / "ratiofield.txt").read_bytes())
    assert outs[0] == outs[1]
