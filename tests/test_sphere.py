"""Spherical flows: decomposition, time dilation, and consistency."""

import dataclasses
import math

import numpy as np
import pytest

from csflab import (
    CLOSED,
    SPHERE_PERTURBED,
    SampledCurve,
    build_curve,
    compute_geometry,
    consistency_profile,
    make_preset,
)
from csflab.errors import (
    DomainError,
    InvalidArgumentError,
    InvalidCurveError,
    NotOnSphereError,
    NumericalFailureError,
)
from csflab.flow import run_to_times, snapshot_diagnostics, sphere_residual, stable_step
from csflab.sphere import (
    decompose_curvature,
    inverse_time_dilation,
    rescale,
    run_geodesic_flow,
    step_geodesic_flow,
    time_dilation,
)
from csflab import flow, sphere


def latitude_circle(n, theta, r=1.0):
    phi = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([
        r * math.sin(theta) * np.cos(phi),
        r * math.sin(theta) * np.sin(phi),
        np.full(n, r * math.cos(theta)),
    ])
    return SampledCurve(pts, CLOSED)


def test_latitude_decomposition_oracle():
    theta = 1.0
    c = latitude_circle(256, theta)
    dec = decompose_curvature(c)
    assert abs(dec.radius - 1.0) < 1e-12
    # normal curvature 1/R, geodesic curvature cot(theta)
    assert np.abs(dec.k_n - 1.0).max() < 1e-9
    assert np.abs(np.abs(dec.k_g) - 1.0 / math.tan(theta)).max() < 1e-9
    # frame vectors are unit and mutually orthogonal
    g = compute_geometry(c)
    assert np.abs(np.linalg.norm(dec.n_vec, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", dec.n_vec, g.tangents)).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", dec.q_vec, dec.n_vec)).max() < 1e-12


def test_decomposition_reconstructs_curvature_vector():
    c = build_curve(make_preset(SPHERE_PERTURBED, n=256, eps=0.3, harmonic=4))
    dec = decompose_curvature(c)
    g = compute_geometry(c)
    recon = dec.k_g[:, None] * dec.q_vec + dec.k_n[:, None] * dec.n_vec
    scale = np.linalg.norm(g.curvature_vectors, axis=1)
    err = np.linalg.norm(recon - g.curvature_vectors, axis=1)
    assert (err <= 1e-6 * np.maximum(scale, 1.0)).all()


def test_great_circle_has_zero_geodesic_curvature():
    c = latitude_circle(128, math.pi / 2.0)
    dec = decompose_curvature(c)
    assert np.abs(dec.k_g).max() < 1e-9
    assert np.abs(dec.k_n - 1.0).max() < 1e-9


def test_decompose_rejects_off_sphere_curve():
    th = np.arange(64) * (2.0 * math.pi / 64)
    pts = np.column_stack([2.0 * np.cos(th), np.sin(th), np.zeros(64)])
    with pytest.raises(NotOnSphereError):
        decompose_curvature(SampledCurve(pts, CLOSED))


def test_sphere_residual_tracks_radius_law():
    c = latitude_circle(64, 1.2)
    assert sphere_residual(c, 0.0, 1.0) < 1e-12
    # same curve read as a time-t snapshot of a shrinking unit sphere
    t = 0.3
    shrunk = SampledCurve(c.points * math.sqrt(1.0 - 2 * t), CLOSED)
    assert sphere_residual(shrunk, t, 1.0) < 1e-12
    assert sphere_residual(c, t, 1.0) > 0.5  # wrong time shows up immediately
    with pytest.raises(DomainError):
        sphere_residual(c, 0.5, 1.0)


def test_record_row_residual_is_sphere_residual_until_the_sphere_is_gone():
    c = latitude_circle(64, 1.2)
    for t in (0.0, 0.3, 0.4999):
        row = snapshot_diagnostics(c, t, 0, sphere_radius=1.0)
        assert row.sphere_residual == sphere_residual(c, t, 1.0)
    for t in (0.5, 0.7):  # r0^2 - 2t <= 0: no sphere left to measure against
        assert snapshot_diagnostics(c, t, 0, sphere_radius=1.0).sphere_residual is None
    assert snapshot_diagnostics(c, 0.0, 0).sphere_residual is None


def test_time_dilation_values_and_roundtrip():
    assert time_dilation(0.0) == 0.5 * math.log(2.0)
    assert abs(time_dilation(0.25) - 0.5 * math.log(4.0)) < 1e-15
    for t in (0.0, 0.1, 0.3, 0.49):
        assert abs(inverse_time_dilation(time_dilation(t)) - t) < 1e-12
    with pytest.raises(DomainError):
        time_dilation(0.5)


def test_rescale_projects_to_unit_sphere():
    t = 0.2
    factor = math.sqrt(1.0 - 2 * t)
    c = latitude_circle(64, 0.8, r=factor)
    st = rescale(c, t)
    assert abs(st.t_tilde - time_dilation(t)) < 1e-15
    assert st.source_t == t
    assert np.abs(np.linalg.norm(st.curve_tilde.points, axis=1) - 1.0).max() < 1e-15


def test_rescale_rejects_wrong_radius():
    c = latitude_circle(64, 0.8, r=1.0)
    with pytest.raises(InvalidArgumentError):
        rescale(c, 0.4)  # radius should be sqrt(0.2), not 1


def test_geodesic_flow_latitude_ode():
    # cos(theta) grows like e^{t_tilde} under the intrinsic flow
    theta0 = 1.0
    st = rescale(latitude_circle(256, theta0), 0.0)
    dt = 0.25
    out = run_geodesic_flow(st, [st.t_tilde + dt])
    z = out[0].curve_tilde.points[:, 2]
    assert z.max() - z.min() < 1e-12  # stays a latitude circle
    assert abs(z.mean() - math.cos(theta0) * math.exp(dt)) < 1e-4
    assert np.abs(np.linalg.norm(out[0].curve_tilde.points, axis=1) - 1.0).max() < 1e-12


def test_geodesic_flow_first_order_in_time():
    # the explicit geodesic step against the latitude-circle law above, as
    # tests/test_flow.py checks the ambient schemes: halving cfl halves
    # dt_tilde at fixed n, so a first-order error halves too
    theta0, dt = 1.0, 0.25
    st = rescale(latitude_circle(64, theta0), 0.0)
    errors = []
    for cfl in (1.0, 0.5, 0.25):
        (end,) = run_geodesic_flow(st, [st.t_tilde + dt], cfl=cfl)
        errors.append(end.curve_tilde.points[:, 2].mean() - math.cos(theta0) * math.exp(dt))
    orders = [math.log2(abs(a / b)) for a, b in zip(errors, errors[1:])]
    assert all(abs(p - 1.0) < 0.1 for p in orders), (errors, orders)


def test_step_geodesic_flow_bounds_dt():
    st = rescale(latitude_circle(64, 1.0), 0.0)
    geom = compute_geometry(st.curve_tilde)
    with pytest.raises(InvalidArgumentError, match="^dt_tilde=.* exceeds the stability bound"):
        step_geodesic_flow(st, 10.0 * stable_step(geom))
    for dt_tilde in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidArgumentError, match="^dt_tilde must be positive$"):
            step_geodesic_flow(st, dt_tilde)
    nxt = step_geodesic_flow(st, 0.5 * stable_step(geom))
    assert nxt.t_tilde > st.t_tilde


@pytest.mark.parametrize(
    "call, grid",
    [
        pytest.param("run_to_times", [0.1, 0.05], id="run_to_times-decreasing"),
        pytest.param("run_to_times", [-0.01, 0.05], id="run_to_times-before-start"),
        pytest.param("run_geodesic_flow", [0.1, 0.05], id="geodesic-decreasing"),
        pytest.param("run_geodesic_flow", [-0.01, 0.05], id="geodesic-before-start"),
        pytest.param("consistency_profile", [0.1, 0.05], id="profile-decreasing"),
        pytest.param("run_to_times", [math.nan], id="run_to_times-nan"),
        pytest.param("run_geodesic_flow", [0.05, math.nan], id="geodesic-nan"),
    ],
)
def test_fixed_grid_runs_reject_a_bad_grid(monkeypatch, call, grid):
    # grids are offsets from each run's start time; the grid is checked
    # before any geometry, so no step is taken and no geometry computed
    c = build_curve(make_preset(SPHERE_PERTURBED, n=64))
    start = rescale(c, 0.0)
    geometries = []

    def counted(curve):
        geometries.append(curve)
        return compute_geometry(curve)

    for module in (flow, sphere):
        monkeypatch.setattr(module, "compute_geometry", counted)
    calls = {
        "run_to_times": lambda: run_to_times(c, grid),
        "run_geodesic_flow": lambda: run_geodesic_flow(
            start, [start.t_tilde + x for x in grid]
        ),
        "consistency_profile": lambda: consistency_profile(c, grid),
    }
    message = "^target times must increase from the start time on$"
    with pytest.raises(InvalidArgumentError, match=message):
        calls[call]()
    assert geometries == []


def test_consistency_profile_small_grid():
    c = build_curve(make_preset(SPHERE_PERTURBED, n=128, eps=0.2, harmonic=3))
    targets = [0.05, 0.1, 0.15]
    rows = consistency_profile(c, targets, cfl=0.4)
    assert [r[0] for r in rows] == targets
    for t, t_tilde, gap in rows:
        assert abs(t_tilde - time_dilation(t)) < 1e-12
        assert gap < 1e-3
    # deviation accumulates but stays tiny on a smooth perturbation
    gaps = [r[2] for r in rows]
    assert gaps == sorted(gaps)


def test_run_geodesic_flow_failure_names_last_good_state(monkeypatch):
    cfl = 0.5
    start = rescale(build_curve(make_preset(SPHERE_PERTURBED, n=64)), 0.0)
    target = start.t_tilde + 0.05
    state = start
    for _ in range(4):
        geom = compute_geometry(state.curve_tilde)
        state = step_geodesic_flow(state, stable_step(geom, cfl))
    geom = compute_geometry(state.curve_tilde)
    dt = min(stable_step(geom, cfl), target - state.t_tilde)

    calls = []

    def nan_on_fifth(curve, geometry=None):
        calls.append(None)
        decomp = decompose_curvature(curve, geometry)
        if len(calls) < 5:
            return decomp
        return dataclasses.replace(decomp, k_g=np.full_like(decomp.k_g, np.nan))

    monkeypatch.setattr(sphere, "decompose_curvature", nan_on_fifth)
    with pytest.raises(NumericalFailureError) as info:
        run_geodesic_flow(start, [target], cfl)
    assert str(info.value) == (
        "step 5 failed: geodesic step produced non-finite vertices (last good "
        f"state: step 4, t={state.t_tilde!r}, dt={dt!r}, "
        f"min ds={float(geom.ds.min())!r}, "
        f"k_max={float(geom.scalar_curvature.max())!r})"
    )
    assert isinstance(info.value.__cause__, NumericalFailureError)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_geodesic_step_raises_the_constructors_non_finite_failure(monkeypatch, bad):
    state = rescale(build_curve(make_preset(SPHERE_PERTURBED, n=64)), 0.0)
    dt = stable_step(compute_geometry(state.curve_tilde), 0.5)

    def bad_k_g(curve, geometry=None):
        decomp = decompose_curvature(curve, geometry)
        k_g = decomp.k_g.copy()
        k_g[5] = bad
        return dataclasses.replace(decomp, k_g=k_g)

    monkeypatch.setattr(sphere, "decompose_curvature", bad_k_g)
    with pytest.raises(NumericalFailureError) as info:
        with np.errstate(invalid="ignore"):
            step_geodesic_flow(state, dt)
    assert str(info.value) == "geodesic step produced non-finite vertices"
    cause = info.value.__cause__
    assert isinstance(cause, InvalidCurveError)
    assert str(cause) == "points contain non-finite values"


def test_run_geodesic_flow_step_without_geometry_fails(monkeypatch):
    # the curve made by step 4 has no geometry: step 4 failed, and the last
    # good state is step 3 with the dt that step 4 was given
    cfl = 0.5
    start = rescale(build_curve(make_preset(SPHERE_PERTURBED, n=64)), 0.0)
    state = start
    for _ in range(3):
        state = step_geodesic_flow(state, stable_step(compute_geometry(state.curve_tilde), cfl))
    geom = compute_geometry(state.curve_tilde)
    dt = stable_step(geom, cfl)
    fourth = step_geodesic_flow(state, dt).curve_tilde

    def degenerate_fourth(curve):
        if np.array_equal(curve.points, fourth.points):
            raise InvalidCurveError("degenerate centered-difference tangent")
        return compute_geometry(curve)

    monkeypatch.setattr(sphere, "compute_geometry", degenerate_fourth)
    with pytest.raises(NumericalFailureError) as info:
        run_geodesic_flow(start, [start.t_tilde + 0.05], cfl)
    assert str(info.value).startswith(
        "step 4 failed: degenerate centered-difference tangent (last good "
        f"state: step 3, t={state.t_tilde!r}, dt={dt!r}, "
        f"min ds={float(geom.ds.min())!r}, "
    )


@pytest.mark.parametrize("kind", [KeyboardInterrupt, NumericalFailureError])
def test_run_geodesic_flow_attaches_the_states_reached_so_far(monkeypatch, kind):
    cfl = 0.5
    start = rescale(build_curve(make_preset(SPHERE_PERTURBED, n=64)), 0.0)
    dt0 = stable_step(compute_geometry(start.curve_tilde), cfl)
    targets = [start.t_tilde + m * dt0 for m in (1.5, 3.2, 8.0)]
    full = run_geodesic_flow(start, targets, cfl)
    calls = []

    def fails_fifth(state, dt_tilde):
        calls.append(None)
        if len(calls) == 5:
            raise kind("boom")
        return step_geodesic_flow(state, dt_tilde)

    monkeypatch.setattr(sphere, "step_geodesic_flow", fails_fifth)
    with pytest.raises(kind) as info:
        run_geodesic_flow(start, targets, cfl)
    partial = info.value.record
    # steps 1-2 land on the first target, steps 3-4 on the second
    assert len(partial) == 2
    for state, state_full in zip(partial, full):
        assert state.t_tilde == state_full.t_tilde
        assert state.source_t == state_full.source_t
        assert np.array_equal(state.curve_tilde.points, state_full.curve_tilde.points)
    if kind is NumericalFailureError:
        assert str(info.value).startswith("step 5 failed: boom (last good state: step 4,")


def test_run_geodesic_flow_stops_at_the_step_cap(monkeypatch):
    cfl = 0.5
    start = rescale(build_curve(make_preset(SPHERE_PERTURBED, n=64)), 0.0)
    dt0 = stable_step(compute_geometry(start.curve_tilde), cfl)
    reached = [start.t_tilde + m * dt0 for m in (1.5, 3.2)]
    full = run_geodesic_flow(start, reached, cfl)
    monkeypatch.setattr(flow, "MAX_STEPS", 6)
    far = start.t_tilde + 1e6 * dt0
    with pytest.raises(NumericalFailureError) as info:
        run_geodesic_flow(start, reached + [far], cfl)
    message = str(info.value)
    assert message.startswith("step cap of 6 steps reached at t=")
    assert message.endswith(f", short of target t={far!r}")
    t_cap = float(message.split("t=")[1].split(",")[0])
    assert reached[-1] < t_cap < far
    # steps 1-4 land on the two targets; the state at the cap is no target
    partial = info.value.record
    assert len(partial) == 2
    for state, state_full in zip(partial, full):
        assert state.t_tilde == state_full.t_tilde
        assert state.source_t == state_full.source_t
        assert np.array_equal(state.curve_tilde.points, state_full.curve_tilde.points)
