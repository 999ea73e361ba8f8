"""Command-line surface: simulate, ratio-field, helix-scan, sphere-verify,
analyze.

Exit codes: 0 on success, 1 for invalid arguments or unreadable inputs,
2 when the numerics fail mid-run, 130 when interrupted (Ctrl-C).  A run
that fails or is interrupted still writes the record it has so far.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .chordarc import (
    D_OVER_L,
    METRICS,
    find_local_minima,
    pair_diagnostics,
    ratio_field,
)
from .diagnostics import analyze_directory, emit_record, simulate_preset
from .errors import CsfError, InvalidArgumentError, NumericalFailureError
from .fileio import (
    CONSISTENCY_CSV,
    FSCAN_CSV,
    write_minima_csv,
    write_ratio_field,
    write_run_csv,
    write_table,
)
from .flow import SCHEMES, FlowConfig
from .helix import (
    HelixParams,
    helix_pair_condition,
    helix_pair_condition_scaled,
    helix_ratio_time_derivative,
)
from .presets import PRESET_NAMES, SPHERE_PERTURBED, make_preset, build_curve
from .sphere import consistency_profile


def _add_preset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=PRESET_NAMES, default="circle")
    parser.add_argument("--n", type=int, default=512, help="vertex count")
    parser.add_argument("--r", type=float, default=None, help="circle radius")
    parser.add_argument("--a", type=float, default=None, help="first shape axis")
    parser.add_argument("--b", type=float, default=None, help="second shape axis")
    parser.add_argument("--eps", type=float, default=None, help="perturbation size")
    parser.add_argument("--k", type=int, default=None, help="perturbation harmonic")
    parser.add_argument("--path", default=None, help="curve file for custom-file")


def _preset_from_args(args: argparse.Namespace):
    mapping = (
        ("r", "r"),
        ("a", "a"),
        ("b", "b"),
        ("eps", "eps"),
        ("k", "harmonic"),
        ("path", "path"),
    )
    params = {}
    for flag, key in mapping:
        value = getattr(args, flag)
        if value is not None:
            params[key] = value
    return make_preset(args.preset, n=args.n, **params)


# FlowConfig fields that ``simulate`` takes as --flags, with their types
_FLOW_FLAGS = (
    ("t_end", float),
    ("cfl", float),
    ("record_every", int),
    ("remesh_every", int),
    ("max_steps", int),
    ("stop_length_fraction", float),
    ("stop_curvature_resolution", float),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csflab",
        description="Curve shortening flow laboratory for discrete space curves.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sim = sub.add_parser("simulate", help="evolve a preset and write artifacts")
    _add_preset_arguments(sim)
    flow = FlowConfig()  # the one source of the flag defaults
    sim.add_argument("--scheme", choices=SCHEMES, default=flow.scheme)
    for name, kind in _FLOW_FLAGS:
        flag = "--" + name.replace("_", "-")
        sim.add_argument(flag, type=kind, default=getattr(flow, name))
    sim.add_argument("--out", required=True)

    field = sub.add_parser("ratio-field", help="pairwise ratio field and minima")
    _add_preset_arguments(field)
    field.add_argument("--metric", choices=METRICS, default=D_OVER_L)
    field.add_argument("--band", type=int, default=2)
    field.add_argument("--out", required=True)

    scan = sub.add_parser("helix-scan", help="helix condition values on a grid")
    scan.add_argument("--m-min", type=float, required=True)
    scan.add_argument("--m-max", type=float, required=True)
    scan.add_argument("--m-steps", type=int, required=True)
    scan.add_argument("--log-m", action="store_true")
    scan.add_argument("--y-min", type=float, required=True)
    scan.add_argument("--y-max", type=float, required=True)
    scan.add_argument("--y-steps", type=int, required=True)
    scan.add_argument("--out", required=True)

    verify = sub.add_parser("sphere-verify", help="sphere conservation checks")
    verify.add_argument("--eps", type=float, default=0.2)
    verify.add_argument("--k", type=int, default=3)
    verify.add_argument("--n", type=int, default=512)
    verify.add_argument("--t-end", type=float, default=0.4)
    verify.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="recompute diagnostics from snapshots")
    analyze.add_argument("--dir", required=True)

    return parser


def _simulate_and_emit(preset, config: FlowConfig, out):
    """Run ``preset``, write its record to ``out``, and return both.

    A run that fails or is interrupted writes the rows it reached before
    the error goes on to ``main``, which picks the exit code.
    """
    try:
        record = simulate_preset(preset, config)
    except (NumericalFailureError, KeyboardInterrupt) as exc:
        partial = getattr(exc, "record", None)
        if partial is not None and partial.rows:
            emit_record(partial, out)
        raise
    return record, emit_record(record, out)


def _cmd_simulate(args: argparse.Namespace) -> int:
    preset = _preset_from_args(args)
    flags = {name: getattr(args, name) for name, _ in _FLOW_FLAGS}
    config = FlowConfig(scheme=args.scheme, **flags)
    record, _ = _simulate_and_emit(preset, config, args.out)
    print(
        f"wrote {Path(args.out) / 'run.csv'}: {len(record.rows)} rows, "
        f"stop={record.stop_reason}, t_est={record.t_est:g}"
    )
    return 0


def _cmd_ratio_field(args: argparse.Namespace) -> int:
    curve = build_curve(_preset_from_args(args))
    field = ratio_field(curve, args.metric, args.band)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ratio_field(field, out / "ratiofield.txt")
    minima = find_local_minima(field)
    diags = pair_diagnostics(curve, [(i, j) for i, j, _ in minima])
    rows = [
        {
            "i": i,
            "j": j,
            "value": value,
            "d": diag.d,
            "l": diag.l,
            "psi": diag.psi,
            "alpha": diag.alpha,
            "cond22": diag.cond_dl,
            "cond31": diag.cond_dpsi,
        }
        for (i, j, value), diag in zip(minima, diags)
    ]
    write_minima_csv(rows, out / "minima.csv")
    print(f"wrote {out / 'ratiofield.txt'} and {len(rows)} minima")
    return 0


def _cmd_helix_scan(args: argparse.Namespace) -> int:
    if args.m_steps < 1 or args.y_steps < 1:
        raise InvalidArgumentError("grid step counts must be positive")
    if args.log_m:
        if not (args.m_min > 0.0 and args.m_max > 0.0):
            raise InvalidArgumentError("--log-m needs positive --m-min and --m-max")
        m_grid = np.geomspace(args.m_min, args.m_max, args.m_steps)
    else:
        m_grid = np.linspace(args.m_min, args.m_max, args.m_steps)
    y_grid = np.linspace(args.y_min, args.y_max, args.y_steps)
    f_table = helix_pair_condition(y_grid, m_grid[:, None])
    g_table = helix_pair_condition_scaled(y_grid, m_grid[:, None])
    rows = []
    for m, f_vals, g_vals in zip(m_grid.tolist(), f_table.tolist(), g_table.tolist()):
        params = HelixParams(a=1.0, b=np.sqrt(m))
        d_vals = helix_ratio_time_derivative(params, y_grid).tolist()
        rows += zip([m] * len(d_vals), y_grid.tolist(), f_vals, g_vals, d_vals)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(FSCAN_CSV, rows, out / "fscan.csv")
    print(f"wrote {out / 'fscan.csv'}: {len(rows)} rows")
    return 0


def _cmd_sphere_verify(args: argparse.Namespace) -> int:
    preset = make_preset(SPHERE_PERTURBED, n=args.n, eps=args.eps, harmonic=args.k)
    if not 0.0 < args.t_end < 0.5:
        raise InvalidArgumentError("--t-end must lie in (0, 0.5)")
    config = FlowConfig(t_end=args.t_end)
    record, out = _simulate_and_emit(preset, config, args.out)
    targets = args.t_end * np.arange(1, 7) / 6.0
    profile = consistency_profile(record.snapshots[0][2], targets)
    write_table(CONSISTENCY_CSV, profile, out / "consistency.csv")
    worst = max(row[2] for row in profile)
    print(
        f"wrote {out / 'run.csv'} and consistency.csv; "
        f"max deviation {worst:.3g}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows = analyze_directory(args.dir)
    out_path = Path(args.dir) / "analyze.csv"
    write_run_csv(rows, out_path)
    print(f"wrote {out_path}: {len(rows)} rows")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "ratio-field": _cmd_ratio_field,
    "helix-scan": _cmd_helix_scan,
    "sphere-verify": _cmd_sphere_verify,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; this tool reports 1 for bad input
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except NumericalFailureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except (CsfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
