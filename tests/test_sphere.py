"""Spherical flows: the geodesic/normal split, time dilation, and consistency.

The split is ``reference``'s, on its reference geometry; no code in the
package splits curvature.
"""

import math
import re

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
from csflab.curve import OPEN, row_norm
from csflab.flow import (
    _run_to_targets,
    run_to_times,
    snapshot_diagnostics,
    sphere_residual,
    stable_step,
)
from csflab.sphere import (
    GEODESIC_DT,
    RescaledState,
    rescale,
    run_geodesic_flow,
    step_geodesic_flow,
    time_dilation,
)
from csflab.helix import shrinking_circle_radius
from csflab import flow, sphere, tridiag
from reference import (
    dense_backward_euler,
    perturbed_start,
    projected,
    reference_decomposition,
    reference_geometry,
)

# criterion 08's grid of flow times
CRITERION_08_GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]


def latitude_circle(n, theta, r=1.0):
    phi = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([
        r * math.sin(theta) * np.cos(phi),
        r * math.sin(theta) * np.sin(phi),
        np.full(n, r * math.cos(theta)),
    ])
    return SampledCurve(pts, CLOSED)


def split_curvature(curve):
    """k_g, k_n and the frame q_vec, n_vec of the reference split, on the
    reference geometry's C-ordered arrays: on ``compute_geometry``'s
    F-ordered views ``np.einsum`` adds in another order."""
    return reference_decomposition(curve, reference_geometry(curve))


def explicit_geodesic_step(state, dt_tilde):
    """The reference step: forward Euler on k_g * q_vec, then the radial
    projection.  It is stable only for dt_tilde <= stable_step(geometry)."""
    curve = state.curve_tilde
    decomp = split_curvature(curve)
    moved = projected(curve.points + decomp["q_vec"] * (dt_tilde * decomp["k_g"])[:, None])
    return RescaledState(
        SampledCurve(moved, curve.topology, curve.offset), state.t_tilde + dt_tilde
    )


def explicit_geodesic_flow(state, t_tilde_targets, cfl):
    """``run_geodesic_flow`` with the reference step at its stability bound."""
    return _run_to_targets(
        lambda: state,
        explicit_geodesic_step,
        lambda geom: stable_step(geom, cfl),
        t_tilde_targets,
        state.t_tilde - 1e-14,
        geometry=lambda st: compute_geometry(st.curve_tilde),
        clock=lambda st: st.t_tilde,
    )


def test_latitude_decomposition_oracle():
    theta = 1.0
    c = latitude_circle(256, theta)
    dec = split_curvature(c)
    assert abs(dec["radius"] - 1.0) < 1e-12
    # normal curvature 1/R, geodesic curvature cot(theta)
    assert np.abs(dec["k_n"] - 1.0).max() < 1e-9
    assert np.abs(np.abs(dec["k_g"]) - 1.0 / math.tan(theta)).max() < 1e-9
    # frame vectors are unit and mutually orthogonal
    n_vec, q_vec = dec["n_vec"], dec["q_vec"]
    assert np.abs(np.linalg.norm(n_vec, axis=1) - 1.0).max() < 1e-12
    tangents = compute_geometry(c).tangents
    assert np.abs(np.einsum("ij,ij->i", n_vec, tangents)).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", q_vec, n_vec)).max() < 1e-12


def test_decomposition_reconstructs_curvature_vector():
    c = build_curve(make_preset(SPHERE_PERTURBED, n=256, eps=0.3, harmonic=4))
    dec = split_curvature(c)
    kvec = compute_geometry(c).curvature_vectors
    recon = dec["k_g"][:, None] * dec["q_vec"] + dec["k_n"][:, None] * dec["n_vec"]
    scale = np.linalg.norm(kvec, axis=1)
    err = np.linalg.norm(recon - kvec, axis=1)
    assert (err <= 1e-6 * np.maximum(scale, 1.0)).all()


def test_great_circle_has_zero_geodesic_curvature():
    c = latitude_circle(128, math.pi / 2.0)
    dec = split_curvature(c)
    assert np.abs(dec["k_g"]).max() < 1e-9
    assert np.abs(dec["k_n"] - 1.0).max() < 1e-9


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
    for t in (0.0, 0.1, 0.3, 0.49):  # back through t = 1/2 - exp(-2 t_tilde)
        assert abs(0.5 - math.exp(-2.0 * time_dilation(t)) - t) < 1e-12
    with pytest.raises(DomainError):
        time_dilation(0.5)


# each reader of the law R(t)^2 = r0^2 - 2t, called at a time t on the unit
# sphere's clock, whose end is T = 1/2
LAW_READERS = {
    "sphere_residual": lambda t: sphere_residual(latitude_circle(16, 1.0), t, 1.0),
    "shrinking_circle_radius": lambda t: shrinking_circle_radius(1.0, t),
    "rescale": lambda t: rescale(latitude_circle(16, 1.0), t),
    "time_dilation": time_dilation,
    "consistency_profile": lambda t: consistency_profile(latitude_circle(16, 1.0), [0.1, t]),
}


@pytest.mark.parametrize("t", [0.5, 0.7, math.nan], ids=["T", "past-T", "nan"])
@pytest.mark.parametrize("reader", sorted(LAW_READERS))
def test_every_law_reader_raises_the_laws_domain_error(monkeypatch, reader, t):
    # before any geometry: consistency_profile dilates its grid before a step
    for module in (flow, sphere):
        monkeypatch.setattr(module, "compute_geometry", None)
    with pytest.raises(DomainError, match=re.escape("radius 1 is gone at T = 0.5; t = ")):
        LAW_READERS[reader](t)


@pytest.mark.parametrize("cfl", [True, "0.5", 0, 1.5, math.nan])
def test_consistency_profile_checks_cfl_before_any_step(monkeypatch, cfl):
    for module in (flow, sphere):
        monkeypatch.setattr(module, "compute_geometry", None)
    with pytest.raises(InvalidArgumentError, match="^cfl must"):
        consistency_profile(latitude_circle(16, 1.0), [0.1], cfl=cfl)


def test_dilated_clock_and_rescale_keep_their_closed_forms_bits():
    # -0.5 ln(0.5 - t) and sqrt(1 - 2t), each written out, as the reference
    rng = np.random.default_rng(36)
    ts = np.concatenate([
        np.linspace(-1.0, 0.5, 30_000, endpoint=False),
        rng.uniform(0.0, 0.5, 30_000),
        0.5 - np.logspace(-16, -1, 500),
    ]).tolist()
    clock = np.array([time_dilation(t) for t in ts])
    reference = np.array([-0.5 * math.log(0.5 - t) for t in ts])
    assert np.array_equal(clock.view(np.int64), reference.view(np.int64))
    for t in ts[::600]:
        radius = math.sqrt(1.0 - 2.0 * t)
        c = latitude_circle(16, 0.8, r=radius)
        rows = c.points.T / radius
        rows /= row_norm(rows)
        got = np.ascontiguousarray(rescale(c, t).curve_tilde.points).view(np.int64)
        assert np.array_equal(got, np.ascontiguousarray(rows.T).view(np.int64)), t


def test_rescale_projects_to_unit_sphere():
    t = 0.2
    factor = math.sqrt(1.0 - 2 * t)
    c = latitude_circle(64, 0.8, r=factor)
    st = rescale(c, t)
    assert abs(st.t_tilde - time_dilation(t)) < 1e-15
    assert np.abs(np.linalg.norm(st.curve_tilde.points, axis=1) - 1.0).max() < 1e-15


def test_rescale_rejects_wrong_radius():
    c = latitude_circle(64, 0.8, r=1.0)
    with pytest.raises(InvalidArgumentError):
        rescale(c, 0.4)  # radius should be sqrt(0.2), not 1


def test_geodesic_flow_latitude_ode():
    # cos(theta) grows like e^{t_tilde} under the intrinsic flow.  At
    # GEODESIC_DT the z error is -9.93e-5 at n = 64 and n = 256 alike: time
    # error only, with the sign of a backward-Euler step, which lags
    theta0, dt = 1.0, 0.25
    errors = []
    for n in (64, 256):
        st = rescale(latitude_circle(n, theta0), 0.0)
        (end,) = run_geodesic_flow(st, [st.t_tilde + dt])
        z = end.curve_tilde.points[:, 2]
        assert z.max() - z.min() < 1e-12  # stays a latitude circle
        assert np.abs(np.linalg.norm(end.curve_tilde.points, axis=1) - 1.0).max() < 1e-12
        errors.append(z.mean() - math.cos(theta0) * math.exp(dt))
    assert all(-1e-4 < err < -9e-5 for err in errors), errors
    assert abs(errors[0] - errors[1]) < 1e-9, errors


def test_geodesic_flow_first_order_in_time(monkeypatch):
    # the backward-Euler geodesic step against the latitude-circle law above,
    # as tests/test_flow.py checks the ambient schemes: halving dt_tilde at
    # fixed n halves a first-order error too
    theta0, dt = 1.0, 0.25
    st = rescale(latitude_circle(64, theta0), 0.0)
    errors = []
    for dt_tilde in (0.01, 0.005, 0.0025):
        monkeypatch.setattr(sphere, "GEODESIC_DT", dt_tilde)
        (end,) = run_geodesic_flow(st, [st.t_tilde + dt])
        errors.append(end.curve_tilde.points[:, 2].mean() - math.cos(theta0) * math.exp(dt))
    orders = [math.log2(abs(a / b)) for a, b in zip(errors, errors[1:])]
    assert all(abs(p - 1.0) < 0.1 for p in orders), (errors, orders)


@pytest.mark.parametrize("topology", [CLOSED, OPEN])
@pytest.mark.parametrize("dt_tilde", [GEODESIC_DT, 0.05])
def test_geodesic_step_equals_a_dense_solve(topology, dt_tilde):
    state = perturbed_start(64, topology)
    nxt = step_geodesic_flow(state, dt_tilde)
    expected = projected(dense_backward_euler(state.curve_tilde, dt_tilde))
    assert np.abs(nxt.curve_tilde.points - expected).max() < 1e-12
    assert nxt.t_tilde == state.t_tilde + dt_tilde
    if topology == OPEN:  # the endpoints stay where they were
        ends = [0, -1]
        assert np.abs(nxt.curve_tilde.points[ends] - state.curve_tilde.points[ends]).max() < 1e-15


def test_geodesic_flow_matches_the_explicit_reference():
    # on criterion 08's grid at n = 128 the explicit reference at cfl 0.4
    # takes about as many steps as GEODESIC_DT does; the two runs differ by
    # at most 3.1e-4 per vertex
    start = perturbed_start(128)
    targets = [time_dilation(t) for t in CRITERION_08_GRID]
    reference = explicit_geodesic_flow(start, targets, 0.4)
    new = run_geodesic_flow(start, targets)
    assert [st.t_tilde for st in new] == [st.t_tilde for st in reference]
    for got, want in zip(new, reference):
        gap = np.linalg.norm(got.curve_tilde.points - want.curve_tilde.points, axis=1)
        assert gap.max() < 5e-4


def test_consistency_profile_step_counts(monkeypatch):
    # criterion 08 at n = 512: the intrinsic side takes GEODESIC_DT steps,
    # plus at most one short landing step per target, where the explicit
    # step took 17,140; the explicit ambient side still takes 17,140
    counts = {"geodesic": 0, "explicit": 0}

    def counted(name, fn):
        def step(*args):
            counts[name] += 1
            return fn(*args)

        return step

    monkeypatch.setattr(
        sphere, "step_geodesic_flow", counted("geodesic", step_geodesic_flow)
    )
    monkeypatch.setitem(
        flow._STEPPERS, flow.EXPLICIT, counted("explicit", flow._STEPPERS[flow.EXPLICIT])
    )
    curve = build_curve(make_preset(SPHERE_PERTURBED, n=512, eps=0.2, harmonic=3))
    rows = consistency_profile(curve, CRITERION_08_GRID, cfl=0.4)
    span = time_dilation(CRITERION_08_GRID[-1]) - time_dilation(0.0)
    assert counts["geodesic"] <= math.ceil(span / GEODESIC_DT) + len(CRITERION_08_GRID)
    assert counts["explicit"] == 17_140
    assert max(r[2] for r in rows) < 1e-2


def test_consistency_profile_checks_the_start_before_any_step(monkeypatch):
    # a start off the unit sphere fails its rescale before the ambient flow
    # takes a step
    calls = []
    explicit = flow._STEPPERS[flow.EXPLICIT]
    monkeypatch.setitem(
        flow._STEPPERS, flow.EXPLICIT, lambda *args: calls.append(1) or explicit(*args)
    )
    curve = build_curve(make_preset(SPHERE_PERTURBED, n=128, eps=0.2, harmonic=3))
    doubled = SampledCurve(2.0 * curve.points, CLOSED)
    with pytest.raises(NotOnSphereError, match="^mean radius 2 is not the expected 1$"):
        consistency_profile(doubled, [0.05, 0.1])
    assert calls == []


@pytest.mark.parametrize("topology", [CLOSED, OPEN])
def test_geodesic_step_bits_do_not_depend_on_the_lapack_route(monkeypatch, topology):
    state = perturbed_start(64, topology)
    targets = [state.t_tilde + 5.5 * GEODESIC_DT]
    default = step_geodesic_flow(state, 0.05), run_geodesic_flow(state, targets)
    monkeypatch.setattr(tridiag, "_numpy_ptsv", lambda: None)
    scipy = step_geodesic_flow(state, 0.05), run_geodesic_flow(state, targets)
    for a, b in ((default[0], scipy[0]), (default[1][0], scipy[1][0])):
        assert a.t_tilde == b.t_tilde
        assert np.array_equal(
            a.curve_tilde.points.view(np.int64), b.curve_tilde.points.view(np.int64)
        )


def test_step_geodesic_flow_takes_any_positive_dt():
    st = rescale(latitude_circle(64, 1.0), 0.0)
    geom = compute_geometry(st.curve_tilde)
    for dt_tilde in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidArgumentError, match="^dt_tilde must be positive$"):
            step_geodesic_flow(st, dt_tilde)
    # far beyond the explicit bound the step stays on the unit sphere and
    # keeps the latitude circle one
    nxt = step_geodesic_flow(st, 100.0 * stable_step(geom))
    assert nxt.t_tilde > st.t_tilde
    pts = nxt.curve_tilde.points
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    assert np.ptp(pts[:, 2]) < 1e-12 and pts[0, 2] > st.curve_tilde.points[0, 2]


def test_step_geodesic_flow_rejects_an_off_sphere_curve():
    th = np.arange(64) * (2.0 * math.pi / 64)
    pts = np.column_stack([2.0 * np.cos(th), np.sin(th), np.zeros(64)])
    with pytest.raises(NotOnSphereError, match="^vertex radii spread"):
        step_geodesic_flow(RescaledState(SampledCurve(pts, CLOSED), 0.0), 1e-3)


def assert_grid_rejected_before_any_geometry(monkeypatch, call, grid, message):
    # a grid's floats are offsets from each run's start time; it is checked
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
            start, [start.t_tilde + x if isinstance(x, float) else x for x in grid]
        ),
        "consistency_profile": lambda: consistency_profile(c, grid),
    }
    with pytest.raises(InvalidArgumentError, match=message):
        calls[call]()
    assert geometries == []


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
    message = "^target times must increase from the start time on$"
    assert_grid_rejected_before_any_geometry(monkeypatch, call, grid, message)


@pytest.mark.parametrize("value", ["0.05", True, None])
@pytest.mark.parametrize("call", ["run_to_times", "run_geodesic_flow", "consistency_profile"])
def test_fixed_grid_runs_take_only_real_targets(monkeypatch, call, value):
    # a str or a bool is no time, though float() would read "0.05" and True
    message = f"^target time must be a real number, got {re.escape(repr(value))}$"
    assert_grid_rejected_before_any_geometry(monkeypatch, call, [0.01, value], message)


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
    start = perturbed_start(64)
    target = start.t_tilde + 0.05
    state = start
    for _ in range(4):
        state = step_geodesic_flow(state, GEODESIC_DT)
    geom = compute_geometry(state.curve_tilde)
    dt = min(GEODESIC_DT, target - state.t_tilde)

    calls = []

    def nan_on_fifth(*system):
        calls.append(None)
        delta = sphere_solve(*system)
        return delta if len(calls) < 5 else np.full_like(delta, np.nan)

    sphere_solve = sphere.solve_cyclic_tridiagonal
    monkeypatch.setattr(sphere, "solve_cyclic_tridiagonal", nan_on_fifth)
    with pytest.raises(NumericalFailureError) as info:
        run_geodesic_flow(start, [target])
    assert str(info.value) == (
        "step 5 failed: geodesic step produced non-finite vertices (last good "
        f"state: step 4, t={state.t_tilde!r}, dt={dt!r}, "
        f"min ds={float(geom.ds.min())!r}, "
        f"k_max={float(geom.scalar_curvature.max())!r})"
    )
    assert isinstance(info.value.__cause__, NumericalFailureError)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_geodesic_step_raises_the_constructors_non_finite_failure(monkeypatch, bad):
    state = perturbed_start(64)
    sphere_solve = sphere.solve_cyclic_tridiagonal

    def bad_vertex(*system):
        delta = sphere_solve(*system).copy()
        delta[5, 0] = bad
        return delta

    monkeypatch.setattr(sphere, "solve_cyclic_tridiagonal", bad_vertex)
    with pytest.raises(NumericalFailureError) as info:
        with np.errstate(invalid="ignore"):
            step_geodesic_flow(state, GEODESIC_DT)
    assert str(info.value) == "geodesic step produced non-finite vertices"
    cause = info.value.__cause__
    assert isinstance(cause, InvalidCurveError)
    assert str(cause) == "points contain non-finite values"


def test_run_geodesic_flow_step_without_geometry_fails(monkeypatch):
    # the curve made by step 4 has no geometry: step 4 failed, and the last
    # good state is step 3 with the dt that step 4 was given
    start = perturbed_start(64)
    state = start
    for _ in range(3):
        state = step_geodesic_flow(state, GEODESIC_DT)
    geom = compute_geometry(state.curve_tilde)
    fourth = step_geodesic_flow(state, GEODESIC_DT).curve_tilde

    def degenerate_fourth(curve):
        if np.array_equal(curve.points, fourth.points):
            raise InvalidCurveError("degenerate centered-difference tangent")
        return compute_geometry(curve)

    monkeypatch.setattr(sphere, "compute_geometry", degenerate_fourth)
    with pytest.raises(NumericalFailureError) as info:
        run_geodesic_flow(start, [start.t_tilde + 0.05])
    assert str(info.value).startswith(
        "step 4 failed: degenerate centered-difference tangent (last good "
        f"state: step 3, t={state.t_tilde!r}, dt={GEODESIC_DT!r}, "
        f"min ds={float(geom.ds.min())!r}, "
    )


@pytest.mark.parametrize("kind", [KeyboardInterrupt, NumericalFailureError])
def test_run_geodesic_flow_attaches_the_states_reached_so_far(monkeypatch, kind):
    start = perturbed_start(64)
    targets = [start.t_tilde + m * GEODESIC_DT for m in (1.5, 3.2, 8.0)]
    full = run_geodesic_flow(start, targets)
    calls = []

    def fails_fifth(state, dt_tilde):
        calls.append(None)
        if len(calls) == 5:
            raise kind("boom")
        return step_geodesic_flow(state, dt_tilde)

    monkeypatch.setattr(sphere, "step_geodesic_flow", fails_fifth)
    with pytest.raises(kind) as info:
        run_geodesic_flow(start, targets)
    partial = info.value.record
    # steps 1-2 land on the first target, steps 3-4 on the second
    assert len(partial) == 2
    for state, state_full in zip(partial, full):
        assert state.t_tilde == state_full.t_tilde
        assert np.array_equal(state.curve_tilde.points, state_full.curve_tilde.points)
    if kind is NumericalFailureError:
        assert str(info.value).startswith("step 5 failed: boom (last good state: step 4,")


def test_run_geodesic_flow_stops_at_the_step_cap(monkeypatch):
    start = perturbed_start(64)
    reached = [start.t_tilde + m * GEODESIC_DT for m in (1.5, 3.2)]
    full = run_geodesic_flow(start, reached)
    monkeypatch.setattr(flow, "MAX_STEPS", 6)
    far = start.t_tilde + 1e6 * GEODESIC_DT
    with pytest.raises(NumericalFailureError) as info:
        run_geodesic_flow(start, reached + [far])
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
        assert np.array_equal(state.curve_tilde.points, state_full.curve_tilde.points)
