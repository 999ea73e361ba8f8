"""End-to-end acceptance suite.

One test per criterion; each prints a single `criterion NN PASS/FAIL` line
with the measured quantities next to their fixed tolerances.  The heavy
flow runs are shared through module-scoped fixtures.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csflab as cs
import csflab.cli as cli
from csflab.helix import shrinking_circle_radius
from reference import brute_force_field, ellipse_area_at, helix_dl_min_at


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def circle_run():
    curve = cs.build_curve(cs.make_preset(cs.CIRCLE, n=256))
    cfg = cs.FlowConfig(t_end=0.4, scheme=cs.SEMI_IMPLICIT, record_every=100)
    return cs.run(curve, cfg)


@pytest.fixture(scope="module")
def ellipse_run():
    curve = cs.build_curve(cs.make_preset(cs.ELLIPSE, n=512))
    cfg = cs.FlowConfig(t_end=0.3, record_every=50)
    return cs.run(curve, cfg)


@pytest.fixture(scope="module")
def helix_run():
    curve = cs.build_curve(cs.make_preset(cs.HELIX, n=1024, a=1.0, b=1.0))
    cfg = cs.FlowConfig(t_end=0.5, record_every=200)
    return cs.run(curve, cfg)


@pytest.fixture(scope="module")
def sphere_run():
    # shared by the conservation and round-point criteria: run the perturbed
    # sphere curve all the way to length exhaustion near t = 1/2
    curve = cs.build_curve(cs.make_preset(cs.SPHERE_PERTURBED, n=512, eps=0.2, harmonic=3))
    cfg = cs.FlowConfig(record_every=200, sphere_radius=1.0)
    return cs.run(curve, cfg)


def test_criterion_01_shrinking_circle(circle_run):
    final = circle_run.snapshots[-1][2]
    radius = float(np.hypot(final.points[:, 0], final.points[:, 1]).mean())
    expected = math.sqrt(1.0 - 2 * 0.4)
    rel = abs(radius - expected) / expected
    t_err = abs(circle_run.t_est - 0.5)
    ok = rel < 1e-3 and t_err < 2e-2
    report(1, ok,
           f"circle n=256 t=0.4: radius rel err {rel:.2e} (<1e-3), "
           f"|T_est-0.5| {t_err:.2e} (<2e-2)")


def test_criterion_02_length_law(ellipse_run):
    rows = ellipse_run.rows
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        slope = (b.L - a.L) / (b.t - a.t)
        burn = 0.5 * (a.total_sq_curv + b.total_sq_curv)
        worst = max(worst, abs(slope + burn) / burn)
    ok = worst < 1e-2
    report(2, ok, f"ellipse n=512: worst |dL/dt + int k^2|/int k^2 {worst:.2e} (<1e-2)")


def test_criterion_03_helix_self_similarity(helix_run):
    spread = 0.0
    a_err = 0.0
    for _, t, curve in helix_run.snapshots:
        axis = np.hypot(curve.points[:, 0], curve.points[:, 1])
        spread = max(spread, (axis.max() - axis.min()) / axis.mean())
        oracle = cs.helix_radius_at(1.0, 1.0, t)
        a_err = max(a_err, abs(axis.mean() - oracle) / oracle)
    dl = np.array([r.dl_min for r in helix_run.rows])
    steps = np.array([r.step for r in helix_run.rows])
    slope_min = float((np.diff(dl) / np.diff(steps)).min())
    # the paper's exact law b / sqrt(a(t)^2 + b^2), within 2/n^2
    law_err = max(abs(r.dl_min - helix_dl_min_at(1.0, 1.0, r.t)) for r in helix_run.rows)
    law_bound = 2.0 / 1024**2
    ok = (spread < 1e-4 and a_err < 1e-3 and slope_min >= -1e-6
          and law_err < law_bound)
    report(3, ok,
           f"helix n=1024: axis spread {spread:.2e} (<1e-4), a(t) err {a_err:.2e} "
           f"(<1e-3), (d/l)_min slope >= {slope_min:.2e} (>=-1e-6), "
           f"|(d/l)_min - b/sqrt(a(t)^2+b^2)| {law_err:.2e} (<{law_bound:.2e}, "
           f"margin {law_bound / law_err:.1f}x)")


def test_criterion_04_derivative_positivity():
    ys = np.linspace(8 * math.pi / 800, 8 * math.pi, 800)
    ms = np.concatenate([[0.0], np.logspace(-2, 2, 40)])
    worst = math.inf
    for a in (0.5, 1.0, 2.0):
        for m in ms:
            p = cs.HelixParams(a, a * math.sqrt(m))
            worst = min(worst, float(cs.helix_ratio_time_derivative(p, ys).min()))
    ok = worst >= -1e-12
    report(4, ok, f"exact ratio derivative min {worst:.2e} over (a,m,y) grid (>=-1e-12)")


def test_criterion_05_negative_condition_region():
    m_grid = np.linspace(0.01, 0.1, 19)
    y_grid = np.linspace(4 * math.pi / 400, 4 * math.pi, 400)
    cells, _ = cs.negative_condition_cells(m_grid, y_grid, threshold=-0.1)
    limit_worst = max(abs(cs.helix_pair_condition(1e-4, m)) for m in m_grid)
    ok = bool(cells) and limit_worst < 1e-6
    report(5, ok,
           f"pair condition: {len(cells)} cells below -0.1 on m in [0.01,0.1], "
           f"|F(1e-4, m)| max {limit_worst:.2e} (<1e-6)")


def test_criterion_06_scaled_condition_threshold():
    y_grid = np.linspace(4 * math.pi / 400, 4 * math.pi, 400)
    g_min = float(np.min(cs.helix_pair_condition_scaled(y_grid, 1.0)))
    m_grid = np.linspace(0.01, 2.0, 400)
    mstar = cs.scaled_condition_threshold(m_grid, y_grid)
    ok = g_min >= 0.0 and mstar <= 1.0
    report(6, ok, f"scaled condition: min at m=1 {g_min:.2e} (>=0), m* {mstar:.4f} (<=1)")


def test_criterion_07_sphere_conservation(sphere_run):
    residuals = [r.sphere_residual for r in sphere_run.rows if r.t <= 0.4]
    worst = max(residuals)
    ok = worst < 5e-3 and len(residuals) > 10
    report(7, ok,
           f"perturbed sphere n=512: max | |x|^2-(1-2t) | {worst:.2e} to t=0.4 (<5e-3)")


def test_criterion_08_intrinsic_extrinsic_consistency():
    curve = cs.build_curve(cs.make_preset(cs.SPHERE_PERTURBED, n=512, eps=0.2, harmonic=3))
    rows = cs.consistency_profile(curve, [0.05, 0.1, 0.15, 0.2, 0.25, 0.3], cfl=0.4)
    worst = max(r[2] for r in rows)
    ok = worst < 1e-2
    report(8, ok, f"rescaled vs intrinsic flow: max vertex gap {worst:.2e} to t=0.3 (<1e-2)")


def test_criterion_09_round_point(sphere_run):
    dpsi = np.array([r.dpsi_min for r in sphere_run.rows])
    worst_drop = float(np.diff(dpsi).min())
    entered_at = None
    for _, t, curve in sphere_run.snapshots:
        k = cs.compute_geometry(curve).scalar_curvature
        ratio = float(k.max() / k.min())
        if 0.9 <= ratio <= 1.1:
            entered_at = t
            break
    ok = worst_drop >= -1e-5 and entered_at is not None
    when = "never" if entered_at is None else f"t={entered_at:.3f}"
    report(9, ok,
           f"(d/psi)_min worst drop {worst_drop:.2e} (>=-1e-5), curvature ratio "
           f"in [0.9,1.1] at {when} (stop: {sphere_run.stop_reason})")


def test_criterion_10_structural_invariants(tmp_path):
    problems = []

    # Fenchel lower bound on every closed preset
    fenchel_worst = math.inf
    for name in (cs.CIRCLE, cs.ELLIPSE, cs.COS2U_CURVE, cs.SPHERE_PERTURBED):
        curve = cs.build_curve(cs.make_preset(name, n=512))
        total = cs.total_absolute_curvature(cs.compute_geometry(curve))
        fenchel_worst = min(fenchel_worst, total)
    if not fenchel_worst >= 2 * math.pi - 0.05:
        problems.append(f"Fenchel bound violated: {fenchel_worst:.6f}")

    # round circle has d/psi identically 1
    field = cs.ratio_field(
        cs.build_curve(cs.make_preset(cs.CIRCLE, n=2048)), cs.D_OVER_PSI, 2
    )
    finite = field.values[np.isfinite(field.values)]
    dpsi_err = float(np.abs(finite - 1.0).max())
    if not dpsi_err < 1e-6:
        problems.append(f"circle d/psi deviates by {dpsi_err:.2e}")

    # blocked vectorized field equals the brute-force double loop exactly
    small = cs.build_curve(cs.make_preset(cs.COS2U_CURVE, n=64))
    for metric in (cs.D_OVER_L, cs.D_OVER_PSI):
        fast = cs.ratio_field(small, metric, 2).values
        slow = brute_force_field(small, metric, 2)
        if not np.array_equal(fast, slow, equal_nan=True):
            problems.append(f"{metric} field differs from brute force")

    # bit-identical outputs across repeat runs, and in a fresh interpreter
    # whose string hashes differ from this one's
    def simulate(label):
        return [
            "simulate", "--preset", "sphere-perturbed", "--n", "64",
            "--t-end", "0.05", "--record-every", "20", "--out", str(tmp_path / label),
        ]

    for label in ("a", "b"):
        assert cli.main(simulate(label)) == 0
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
    )
    fresh = subprocess.run(
        [sys.executable, "-m", "csflab.cli", *simulate("c")],
        env=env, capture_output=True, text=True,
    )
    assert fresh.returncode == 0, fresh.stderr
    digests = {label: (tmp_path / label / "run.csv").read_bytes() for label in "abc"}
    if digests["a"] != digests["b"]:
        problems.append("repeat runs differ")
    if digests["a"] != digests["c"]:
        problems.append(f"a fresh interpreter with PYTHONHASHSEED={hash_seed} changes run.csv")

    ok = not problems
    report(10, ok,
           "fenchel min {:.4f} (>=2pi-0.05), circle d/psi err {:.2e} (<1e-6), "
           "brute-force equal, deterministic{}".format(
               fenchel_worst, dpsi_err,
               "" if ok else "; " + "; ".join(problems)))


def test_criterion_11_observed_order(circle_run, ellipse_run):
    # each law's error E at n/4, n/2 and n, through run with the default
    # remeshing; both log2(E(n/4)/E(n/2)) and log2(E(n/2)/E(n)) must lie in
    # [1.7, 2.3], the scheme's order 2 (Roache 1998)
    def final(name, n, t):
        curve = cs.build_curve(cs.make_preset(name, n=n))
        # rows and snapshots at the start and at t only
        return cs.run(curve, cs.FlowConfig(t_end=t, record_every=10**9))

    def radius(run):
        pts = run.snapshots[-1][2].points
        return np.hypot(pts[:, 0], pts[:, 1]).mean()

    def area(run):  # of the projection onto the plane z = 0
        x, y = run.snapshots[-1][2].points[:, :2].T
        return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)

    def mean_sq_norm(run):
        return (run.snapshots[-1][2].points ** 2).sum(axis=1).mean()

    cases = (  # label, preset, n, t, the run at n if a fixture holds it, measure, law
        ("circle radius", cs.CIRCLE, 256, 0.4, circle_run, radius,
         shrinking_circle_radius(1.0, 0.4)),
        ("ellipse area", cs.ELLIPSE, 512, 0.3, ellipse_run, area,
         ellipse_area_at(2.0, 1.0, 0.3)),
        ("sphere mean |x|^2", cs.SPHERE_PERTURBED, 256, 0.4, None, mean_sq_norm,
         1.0 - 2.0 * 0.4),
        ("helix (d/l)_min", cs.HELIX, 512, 0.5, None, lambda run: run.rows[-1].dl_min,
         helix_dl_min_at(1.0, 1.0, 0.5)),
    )
    details, ok = [], True
    for label, name, n, t, full, measure, law in cases:
        runs = [final(name, n // 4, t), final(name, n // 2, t)]
        runs.append(full or final(name, n, t))
        errs = [abs(float(measure(run)) - law) for run in runs]
        p = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
        ok = ok and all(1.7 <= order <= 2.3 for order in p)
        details.append(f"{label} n={n}: |E| {errs[2]:.2e}, p {p[0]:.2f}/{p[1]:.2f}")
    report(11, ok, "; ".join(details) + " (p in [1.7, 2.3])")
