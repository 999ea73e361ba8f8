"""Time stepping against the shrinking-circle recurrences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dptsv

from csflab import (
    CLOSED,
    SEMI_IMPLICIT,
    FlowConfig,
    SampledCurve,
    compute_geometry,
    run,
)
from csflab.curve import OPEN, PERIODIC, segment_lengths
from csflab.errors import (
    InvalidArgumentError,
    InvalidCurveError,
    NumericalFailureError,
)
from csflab.flow import (
    EXPLICIT,
    SCHEMES,
    RecordRow,
    estimate_vanishing_time,
    make_state,
    run_to_times,
    sphere_residual,
    stable_step,
    step_explicit,
    step_semi_implicit,
)
from csflab.helix import helix_radius_at, shrinking_circle_radius
from csflab.presets import HELIX, SPHERE_PERTURBED, build_curve, make_preset
from csflab import flow, tridiag


def circle(n, r=1.0):
    th = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(n)])
    return SampledCurve(pts, CLOSED)


def radii(curve):
    return np.hypot(curve.points[:, 0], curve.points[:, 1])


def test_stable_step_formula():
    g = compute_geometry(circle(128, 2.0))
    assert stable_step(g, cfl=0.5) == 0.5 * g.ds.min() ** 2 / 2.0


def test_explicit_circle_one_step():
    # curvature vector is exactly -p/r^2, so one Euler step scales by 1 - dt/r^2
    r = 1.5
    st = make_state(circle(64, r))
    dt = stable_step(st.geometry, 0.5)
    nxt = step_explicit(st, dt)
    expected = r * (1.0 - dt / r**2)
    assert np.abs(radii(nxt.curve) - expected).max() < 1e-13
    assert nxt.t == dt and nxt.step == 1


def test_explicit_rejects_unstable_dt():
    st = make_state(circle(32))
    with pytest.raises(InvalidArgumentError, match="^dt=.* exceeds the stability bound"):
        step_explicit(st, 10.0 * stable_step(st.geometry, 1.0))
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidArgumentError, match="^dt must be positive$"):
            step_explicit(st, dt)


def test_semi_implicit_circle_one_step():
    # solving (I - dt A) delta = dt A p on the exact circle gives r/(1 + dt/r^2)
    r = 1.0
    st = make_state(circle(128, r))
    dt = 1e-3
    nxt = step_semi_implicit(st, dt)
    expected = r / (1.0 + dt / r**2)
    assert np.abs(radii(nxt.curve) - expected).max() < 1e-12


def test_semi_implicit_takes_large_steps():
    st = make_state(circle(64))
    dt = 100.0 * stable_step(st.geometry, 1.0)
    nxt = step_semi_implicit(st, dt)
    rr = radii(nxt.curve)
    assert np.isfinite(rr).all() and (rr > 0).all() and rr.max() < 1.0


def test_run_circle_radius_matches_recurrence():
    # the discrete circle stays a circle, ds = 2 r sin(pi/n), so the whole
    # run reduces to a scalar recurrence with the same adaptive dt rule
    n, r0, t_end, cfl = 128, 1.0, 0.2, 0.5
    cfg = FlowConfig(t_end=t_end, cfl=cfl, record_every=100, remesh_every=10**9)
    rec = run(circle(n, r0), cfg)
    r, t = r0, 0.0
    while t < t_end * (1.0 - 1e-12):
        ds = 2.0 * r * math.sin(math.pi / n)
        dt = min(cfl * ds * ds / 2.0, t_end - t)
        r = r / (1.0 + dt / r**2)
        t += dt
    final = rec.snapshots[-1][2]
    assert abs(radii(final).mean() - r) / r < 1e-9
    # first-order-in-time bias against the continuum law stays small
    assert abs(r - math.sqrt(r0**2 - 2 * t_end)) < 5e-4


def test_run_records_and_stop_reason():
    cfg = FlowConfig(t_end=0.05, record_every=25)
    rec = run(circle(64), cfg)
    assert rec.stop_reason == "t_end"
    assert rec.rows[0].step == 0 and rec.rows[0].t == 0.0
    assert abs(rec.rows[-1].t - 0.05) < 1e-12
    steps = [r.step for r in rec.rows]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert all(b.L < a.L for a, b in zip(rec.rows, rec.rows[1:]))
    assert len(rec.snapshots) == len(rec.rows)


def test_run_length_exhausted():
    cfg = FlowConfig(stop_length_fraction=0.5, record_every=50)
    rec = run(circle(64), cfg)
    assert rec.stop_reason == "length_exhausted"
    assert rec.rows[-1].L <= 0.5 * rec.rows[0].L + 1e-9


def test_run_max_steps():
    cfg = FlowConfig(max_steps=7, record_every=100)
    rec = run(circle(64), cfg)
    assert rec.stop_reason == "max_steps"
    assert rec.rows[-1].step == 7


def test_open_curve_endpoints_fixed():
    t = np.linspace(0.0, math.pi, 40)
    pts = np.column_stack([t, 0.5 * np.sin(t), np.zeros_like(t)])
    c = SampledCurve(pts, OPEN)
    for scheme in (EXPLICIT, SEMI_IMPLICIT):
        cfg = FlowConfig(t_end=0.01, scheme=scheme, record_every=100, remesh_every=10**9)
        rec = run(c, cfg)
        final = rec.snapshots[-1][2]
        assert np.abs(final.points[0] - pts[0]).max() == 0.0
        assert np.abs(final.points[-1] - pts[-1]).max() == 0.0
        # the bump flattens, shortening the curve
        assert rec.rows[-1].L < rec.rows[0].L


def test_periodic_flow_preserves_offset():
    n, a, b = 256, 1.0, 0.5
    u = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([a * np.cos(u), a * np.sin(u), b * u])
    c = SampledCurve(pts, PERIODIC, offset=(0.0, 0.0, 2.0 * math.pi * b))
    cfg = FlowConfig(t_end=0.02, record_every=50)
    rec = run(c, cfg)
    final = rec.snapshots[-1][2]
    assert np.array_equal(final.offset, c.offset)
    # helix radius shrinks, z-distribution stays helical
    ax = np.hypot(final.points[:, 0], final.points[:, 1])
    assert ax.mean() < a
    assert (ax.max() - ax.min()) / ax.mean() < 1e-8


def test_remesh_keeps_run_healthy():
    cfg = FlowConfig(t_end=0.1, record_every=40, remesh_every=20)
    rec = run(circle(96), cfg)
    final = rec.snapshots[-1][2]
    assert final.n == 96
    seg = np.linalg.norm(np.diff(final.points, axis=0), axis=1)
    assert (seg.max() - seg.min()) / seg.mean() < 1e-2
    assert abs(rec.rows[-1].L - 2 * math.pi * math.sqrt(1 - 2 * 0.1)) < 1e-3


def test_estimate_vanishing_time_exact_on_circle_law():
    r0 = 1.0

    def row(t):
        return RecordRow(
            step=0, t=t, L=2 * math.pi * math.sqrt(r0**2 - 2 * t),
            k_max=1.0, total_abs_curv=2 * math.pi, total_sq_curv=2 * math.pi,
            dl_min=None, dpsi_min=None, sphere_residual=None, sing_indicator=None,
        )

    rows = [row(t) for t in np.linspace(0.0, 0.3, 12)]
    t_est = estimate_vanishing_time(rows)
    assert abs(t_est - 0.5) < 1e-12


def test_estimate_vanishing_time_non_contracting():
    rows = [
        RecordRow(step=i, t=0.1 * i, L=1.0 + 0.1 * i, k_max=1.0,
                  total_abs_curv=1.0, total_sq_curv=1.0, dl_min=None,
                  dpsi_min=None, sphere_residual=None, sing_indicator=None)
        for i in range(5)
    ]
    assert math.isinf(estimate_vanishing_time(rows))


def test_singularity_indicator_circle_is_half():
    # k^2 (T - t) = (r0^2/2 - t)/(r0^2 - 2t) = 1/2 for the exact circle law
    cfg = FlowConfig(t_end=0.3, record_every=100)
    rec = run(circle(256), cfg)
    vals = np.array([r.sing_indicator for r in rec.rows])
    assert np.abs(vals - 0.5).max() < 5e-3


def test_run_to_times_hits_exact_targets():
    targets = [0.01, 0.025, 0.04]
    out = run_to_times(circle(64), targets)
    for (t, curve), target in zip(out, targets):
        assert abs(t - target) < 1e-14
        expected = math.sqrt(1.0 - 2 * target)
        assert abs(radii(curve).mean() - expected) < 1e-4


def observed_orders(errors):
    # log2 of successive error ratios, as dt halves
    return [math.log2(abs(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_first_order_in_time_against_the_exact_laws(scheme):
    # dt = cfl min(ds)^2 / 2 at fixed n, so halving cfl halves a first-order
    # error.  The circle radius and the sphere law |p|^2 = 1 - 2t show no
    # spatial error at n = 64, so their errors themselves halve.  The helix
    # radius also errs by a spatial term as large as the time error, which
    # no dt removes, so its order is read from successive differences of
    # the signed error, over one more halving (Roache 1998, observed order
    # of accuracy).
    def errors(curve, t, cfls, error):
        out = []
        for cfl in cfls:
            ((t_end, c),) = run_to_times(curve, [t], cfl=cfl, scheme=scheme)
            out.append(error(c, t_end))
        return out

    circle_err = errors(
        circle(64), 0.4, (1.0, 0.5, 0.25),
        lambda c, t: radii(c).mean() / shrinking_circle_radius(1.0, t) - 1.0,
    )
    sphere_err = errors(
        build_curve(make_preset(SPHERE_PERTURBED, n=64)), 0.2, (1.0, 0.5, 0.25),
        lambda c, t: sphere_residual(c, t, 1.0),
    )
    helix_err = errors(
        build_curve(make_preset(HELIX, n=64)), 0.4, (1.0, 0.5, 0.25, 0.125),
        lambda c, t: radii(c).mean() / helix_radius_at(1.0, 1.0, t) - 1.0,
    )
    orders = {
        "circle": observed_orders(circle_err),
        "sphere": observed_orders(sphere_err),
        "helix": observed_orders(np.diff(helix_err)),
    }
    for law, pair in orders.items():
        assert all(abs(p - 1.0) < 0.1 for p in pair), (law, pair)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        FlowConfig(cfl=0.0)
    with pytest.raises(InvalidArgumentError):
        FlowConfig(t_end=-1.0)
    with pytest.raises(InvalidArgumentError):
        FlowConfig(scheme="leapfrog")
    with pytest.raises(InvalidArgumentError):
        FlowConfig(record_every=0)
    # a float field takes a real number, not a bool, and t_end and
    # sphere_radius also take None; each refusal names the field
    reals = ("cfl", "t_end", "stop_length_fraction", "stop_curvature_resolution", "sphere_radius")
    for name in reals:
        bad = [True, np.bool_(False), "0.5", 0.5j, [0.5]]
        if name not in ("t_end", "sphere_radius"):
            bad.append(None)
        for value in bad:
            with pytest.raises(InvalidArgumentError, match=f"^{name} must be a real number, got "):
                FlowConfig(**{name: value})
    assert FlowConfig(t_end=None).t_end is None and FlowConfig(t_end=math.inf).t_end == math.inf
    assert FlowConfig(sphere_radius=None).sphere_radius is None
    cfl = FlowConfig(cfl=np.float32(0.5)).cfl
    assert cfl == 0.5 and type(cfl) is float


@pytest.mark.parametrize("name", ["remesh_every", "record_every", "max_steps"])
@pytest.mark.parametrize("value", [2.5, 5.0, True, np.bool_(True), "5", None])
def test_config_step_counts_must_be_integers(name, value):
    # a fractional cadence would record and remesh on a rounded-up cadence
    with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer, got "):
        FlowConfig(**{name: value})


@pytest.mark.parametrize("name", ["remesh_every", "record_every", "max_steps"])
@pytest.mark.parametrize("value", [np.int64(5), np.int32(5), np.uint8(5)])
def test_config_step_counts_take_numpy_integers_as_int(name, value):
    value = getattr(FlowConfig(**{name: value}), name)
    assert value == 5 and type(value) is int


def random_curve(seed, n, topology):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    offset = rng.normal(size=3) * 3.0 if topology == PERIODIC else None
    return SampledCurve(pts, topology, offset)


def rolled_neighbors(curve):
    # predecessor/successor arrays built independently of compute_geometry
    pts = curve.points
    prev = np.roll(pts, 1, axis=0)
    nxt = np.roll(pts, -1, axis=0)
    if curve.topology == PERIODIC:
        prev[0] = pts[-1] - curve.offset
        nxt[-1] = pts[0] + curve.offset
    return prev, nxt


def neighbor_steps(curve):
    """Segment lengths before and after each centre row, the stencil weights
    a and c, and the Laplacian a (p- - p) + c (p+ - p) of the rows: all
    vertices of a closed or periodic curve, the interior ones of an open
    curve."""
    pts = curve.points
    seg = segment_lengths(curve)
    if curve.is_cyclic():
        (prev, nxt), cur = rolled_neighbors(curve), pts
        hm, hp = np.roll(seg, 1), seg
    else:
        prev, cur, nxt = pts[:-2], pts[1:-1], pts[2:]
        hm, hp = seg[:-1], seg[1:]
    a = 2.0 / (hm * (hm + hp))
    c = 2.0 / (hp * (hm + hp))
    lap = a[:, None] * (prev - cur) + c[:, None] * (nxt - cur)
    return hm, hp, a, c, lap


def reference_semi_implicit(curve, dt):
    # the mass-lumped rows recomputed here from the segment lengths; open
    # curves solve through SciPy's own dptsv
    hm, hp, _, _, lap = neighbor_steps(curve)
    ds = 0.5 * (hm + hp)
    diag = ds + dt / hm + dt / hp
    rhs = lap * (dt * ds)[:, None]
    delta = np.zeros_like(curve.points)
    if curve.is_cyclic():
        delta += tridiag.solve_cyclic_tridiagonal(diag, -(dt / hp), rhs)
    else:
        *_, delta[1:-1], info = dptsv(diag, -(dt / hp[:-1]), rhs)
        assert info == 0
    return curve.points + delta


def dense_backward_euler(curve, dt):
    # the unscaled (I - dt L) delta = dt L p, L assembled densely from the
    # segment lengths and solved by numpy.linalg.solve
    _, _, a, c, lap = neighbor_steps(curve)
    n = curve.n
    first = 0 if curve.is_cyclic() else 1
    matrix = np.zeros((len(a), n))
    for row, i in enumerate(range(first, first + len(a))):
        matrix[row, (i - 1) % n] -= dt * a[row]
        matrix[row, (i + 1) % n] -= dt * c[row]
        matrix[row, i] += 1.0 + dt * (a[row] + c[row])
    moved = curve.points.copy()
    unknowns = slice(first, first + len(a))
    moved[unknowns] += np.linalg.solve(matrix[:, unknowns], dt * lap)
    return moved


def reference_curvature_vectors(curve, tangents):
    # (2 / (h- + h+)) ((p+ - p) / h+ - (p - p-) / h-), one-sided at open ends
    pts = curve.points
    seg = segment_lengths(curve)
    if curve.is_cyclic():
        prev, nxt = rolled_neighbors(curve)
        hm, hp = np.roll(seg, 1)[:, None], seg[:, None]
        raw = (2.0 / (hm + hp)) * ((nxt - pts) / hp - (pts - prev) / hm)
    else:
        h = seg
        raw = np.empty_like(pts)
        hm, hp = h[:-1, None], h[1:, None]
        raw[1:-1] = (2.0 / (hm + hp)) * (
            (pts[2:] - pts[1:-1]) / hp - (pts[1:-1] - pts[:-2]) / hm
        )
        raw[0] = 2.0 * ((pts[2] - pts[1]) / h[1] - (pts[1] - pts[0]) / h[0]) / (h[0] + h[1])
        raw[-1] = 2.0 * (
            (pts[-1] - pts[-2]) / h[-1] - (pts[-2] - pts[-3]) / h[-2]
        ) / (h[-1] + h[-2])
    return raw - np.einsum("ij,ij->i", raw, tangents)[:, None] * tangents


# the two solvers, in the order flow._backward_euler takes them
SOLVES = (tridiag.solve_cyclic_tridiagonal, tridiag.solve_tridiagonal)

CURVE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 64),
    topology=st.sampled_from([CLOSED, PERIODIC, OPEN]),
)


@settings(max_examples=60, deadline=None)
@given(**CURVE_CASES, dt_scale=st.floats(0.01, 100.0))
def test_semi_implicit_step_equals_reference_bit_for_bit(seed, n, topology, dt_scale):
    curve = random_curve(seed, n, topology)
    state = make_state(curve)
    dt = dt_scale * stable_step(state.geometry)
    nxt = step_semi_implicit(state, dt)
    assert np.array_equal(nxt.curve.points, reference_semi_implicit(curve, dt))


@settings(max_examples=60, deadline=None)
@given(**CURVE_CASES, dt_scale=st.floats(0.01, 100.0))
def test_mass_lumped_step_equals_the_unscaled_dense_system(seed, n, topology, dt_scale):
    # scaling each row by its lumped mass changes the system, not its
    # solution: the step agrees with a dense solve of the unscaled rows
    curve = random_curve(seed, n, topology)
    geom = compute_geometry(curve)
    dt = dt_scale * stable_step(geom)
    expected = dense_backward_euler(curve, dt)
    moved = [flow._backward_euler(curve, geom, dt, *SOLVES)]
    assert np.abs(moved[0].T - expected).max() <= 1e-13 * np.abs(expected).max()
    # and both LAPACK routes give it the same bits, for either solver
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tridiag, "_numpy_ptsv", lambda: None)
        moved.append(flow._backward_euler(curve, geom, dt, *SOLVES))
    assert np.array_equal(moved[0].view(np.int64), moved[1].view(np.int64))


@settings(max_examples=60, deadline=None)
@given(**CURVE_CASES)
def test_curvature_vectors_match_quotient_form(seed, n, topology):
    curve = random_curve(seed, n, topology)
    g = compute_geometry(curve)
    expected = reference_curvature_vectors(curve, g.tangents)
    k_max = np.linalg.norm(expected, axis=1).max()
    assert np.abs(g.curvature_vectors - expected).max() <= 1e-14 * k_max
    rows = n if curve.is_cyclic() else n - 2
    assert len(g.laplacian) == rows and not g.laplacian.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("scheme", [EXPLICIT, SEMI_IMPLICIT])
def test_step_raises_the_constructors_non_finite_failure(monkeypatch, scheme, bad):
    # the new curve's constructor runs the one non-finite test of a step;
    # the stepper raises its failure as a NumericalFailureError
    state = make_state(circle(32))
    dt = stable_step(state.geometry, 0.5)
    if scheme == EXPLICIT:
        moves = state.geometry.curvature_vectors.copy()
        moves[7, 1] = bad
        geometry = dataclasses.replace(state.geometry, curvature_vectors=moves)
        state = dataclasses.replace(state, geometry=geometry)
        step, message = step_explicit, "explicit step produced non-finite vertices"
    else:
        def bad_solve(diag, off, rhs):
            delta = tridiag.solve_cyclic_tridiagonal(diag, off, rhs)
            delta[7, 1] = bad
            return delta

        monkeypatch.setattr(flow, "solve_cyclic_tridiagonal", bad_solve)
        step, message = step_semi_implicit, "implicit step produced non-finite vertices"
    with pytest.raises(NumericalFailureError) as info:
        step(state, dt)
    assert str(info.value) == message
    cause = info.value.__cause__
    assert isinstance(cause, InvalidCurveError)
    assert str(cause) == "points contain non-finite values"


def test_step_keeps_other_curve_failures(monkeypatch):
    # a finite but degenerate step is the constructor's error, not a
    # non-finite one
    state = make_state(circle(32))

    def collapse(diag, off, rhs):
        return np.zeros_like(rhs) - state.curve.points

    monkeypatch.setattr(flow, "solve_cyclic_tridiagonal", collapse)
    with pytest.raises(InvalidCurveError, match="consecutive vertices must be"):
        step_semi_implicit(state, stable_step(state.geometry, 0.5))


def test_run_failure_names_last_good_state(monkeypatch):
    calls = []

    def failing_solve(diag, off, rhs):
        calls.append(None)
        if len(calls) < 5:
            return tridiag.solve_cyclic_tridiagonal(diag, off, rhs)
        return np.full_like(rhs, np.nan)

    cfg = FlowConfig(record_every=2, t_end=1.0)
    good = run(circle(64), FlowConfig(record_every=2, max_steps=4))
    step, t, last = good.snapshots[-1]
    geom = compute_geometry(last)
    monkeypatch.setattr(flow, "solve_cyclic_tridiagonal", failing_solve)
    with pytest.raises(NumericalFailureError) as info:
        run(circle(64), cfg)
    message = str(info.value)
    assert step == 4
    assert "step 5 failed: implicit step produced non-finite vertices" in message
    assert f"step 4, t={t!r}," in message
    assert f"dt={stable_step(geom, cfg.cfl)!r}," in message
    assert f"min ds={float(geom.ds.min())!r}," in message
    assert f"k_max={float(geom.scalar_curvature.max())!r})" in message
    partial = info.value.record
    assert partial.stop_reason == "numerical_failure"
    assert [r.step for r in partial.rows] == [0, 2, 4]
    assert [r.t for r in partial.rows] == [r.t for r in good.rows]


def test_run_to_times_failure_names_last_good_state(monkeypatch):
    calls = []

    def failing_solve(diag, off, rhs):
        calls.append(None)
        if len(calls) < 5:
            return tridiag.solve_cyclic_tridiagonal(diag, off, rhs)
        return np.full_like(rhs, np.nan)

    cfl, target = 0.5, 0.3
    state = make_state(circle(64))
    for _ in range(4):
        state = step_semi_implicit(state, stable_step(state.geometry, cfl))
    dt = min(stable_step(state.geometry, cfl), target - state.t)
    geom = state.geometry
    monkeypatch.setattr(flow, "solve_cyclic_tridiagonal", failing_solve)
    with pytest.raises(NumericalFailureError) as info:
        run_to_times(circle(64), [0.1 * target, target], cfl=cfl, scheme=SEMI_IMPLICIT)
    assert str(info.value) == (
        "step 5 failed: implicit step produced non-finite vertices (last good "
        f"state: step 4, t={state.t!r}, dt={dt!r}, "
        f"min ds={float(geom.ds.min())!r}, "
        f"k_max={float(geom.scalar_curvature.max())!r})"
    )
    assert isinstance(info.value.__cause__, NumericalFailureError)


def test_run_keeps_partial_record_on_interrupt(monkeypatch):
    calls = []

    def interrupting(state, dt):
        calls.append(None)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return step_semi_implicit(state, dt)

    cfg = FlowConfig(record_every=2, t_end=1.0)
    good = run(circle(64), FlowConfig(record_every=2, max_steps=4))
    monkeypatch.setitem(flow._STEPPERS, SEMI_IMPLICIT, interrupting)
    with pytest.raises(KeyboardInterrupt) as info:
        run(circle(64), cfg)
    partial = info.value.record
    assert partial.stop_reason == "interrupted"
    assert partial.config is cfg
    assert [r.step for r in partial.rows] == [0, 2, 4]
    assert [s for s, _, _ in partial.snapshots] == [0, 2, 4]
    assert [r.t for r in partial.rows] == [r.t for r in good.rows]
    assert np.array_equal(partial.snapshots[-1][2].points, good.snapshots[-1][2].points)


@pytest.mark.parametrize("kind", [KeyboardInterrupt, NumericalFailureError])
def test_run_to_times_attaches_the_pairs_reached_so_far(monkeypatch, kind):
    cfl = 0.5
    dt0 = stable_step(make_state(circle(64)).geometry, cfl)
    targets = [0.0, 1.5 * dt0, 3.2 * dt0, 8.0 * dt0]
    full = run_to_times(circle(64), targets, cfl=cfl, scheme=SEMI_IMPLICIT)
    calls = []

    def fails_fifth(state, dt):
        calls.append(None)
        if len(calls) == 5:
            raise kind("boom")
        return step_semi_implicit(state, dt)

    monkeypatch.setitem(flow._STEPPERS, SEMI_IMPLICIT, fails_fifth)
    with pytest.raises(kind) as info:
        run_to_times(circle(64), targets, cfl=cfl, scheme=SEMI_IMPLICIT)
    partial = info.value.record
    # steps 1-2 land on 1.5 dt0, steps 3-4 on 3.2 dt0; step 5 never ends
    assert len(partial) == 3
    for (t, curve), (t_full, curve_full) in zip(partial, full):
        assert t == t_full and np.array_equal(curve.points, curve_full.points)
    if kind is NumericalFailureError:
        assert str(info.value).startswith("step 5 failed: boom (last good state: step 4,")


def test_run_to_times_stops_at_the_step_cap(monkeypatch):
    assert FlowConfig().max_steps == flow.MAX_STEPS
    cfl = 0.5
    dt0 = stable_step(make_state(circle(64)).geometry, cfl)
    reached = [0.0, 1.5 * dt0, 3.2 * dt0]
    full = run_to_times(circle(64), reached, cfl=cfl, scheme=SEMI_IMPLICIT)
    monkeypatch.setattr(flow, "MAX_STEPS", 6)
    # the circle is gone at t = 1/2, so t = 10 is never reached
    with pytest.raises(NumericalFailureError) as info:
        run_to_times(circle(64), reached + [10.0], cfl=cfl, scheme=SEMI_IMPLICIT)
    message = str(info.value)
    assert message.startswith("step cap of 6 steps reached at t=")
    assert message.endswith(", short of target t=10.0")
    t_cap = float(message.split("t=")[1].split(",")[0])
    assert 3.2 * dt0 < t_cap < 10.0
    # steps 1-4 land on the three targets; the state at the cap is no target
    partial = info.value.record
    assert len(partial) == 3
    for (t, curve), (t_full, curve_full) in zip(partial, full):
        assert t == t_full and np.array_equal(curve.points, curve_full.points)
