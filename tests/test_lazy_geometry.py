"""Curvature on demand, the stop test by bound and the in-place next curve.

``compute_geometry`` builds the arc elements and the Laplacian rows at once
and the tangents and curvature on first read; every step writes its new
vertices into the closure the next curve adopts; and ``run`` reads the exact
k_max only when ``curve.curvature_bound`` allows that the resolution test
might fire.  ``reference``'s geometry and steps compute every array at once
and copy each next curve through its constructor, and every output must
agree with them bit for bit: the curves drawn here hold no -0.0, so the
sign rule of the Laplacian's zeros never applies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csflab import CLOSED, SEMI_IMPLICIT, FlowConfig, SampledCurve, compute_geometry, run
from csflab import curve as curve_module
from csflab import flow
from csflab.curve import OPEN, PERIODIC, curvature_bound
from csflab.errors import InvalidCurveError, NumericalFailureError
from csflab.flow import (
    FlowState,
    make_state,
    stable_step,
    step_explicit,
    step_semi_implicit,
)
from csflab.sphere import RescaledState, step_geodesic_flow
from reference import (
    backward_euler,
    explicit_step,
    geodesic_step,
    reference_geometry,
    same_bits,
    wavy_curve,
)

REFERENCE_STEPS = dict(
    explicit=explicit_step, semi_implicit=backward_euler, geodesic=geodesic_step
)


def eager_step(kind, curve, dt):
    # the curve one step makes, copied into a new curve by its constructor
    vertices = REFERENCE_STEPS[kind](curve, reference_geometry(curve), dt)
    return SampledCurve(vertices, curve.topology, curve.offset)


def lazy_step(kind, curve, dt):
    if kind == "explicit":
        return step_explicit(make_state(curve), dt).curve
    if kind == "semi_implicit":
        return step_semi_implicit(make_state(curve), dt).curve
    return step_geodesic_flow(RescaledState(curve, 0.0), dt).curve_tilde


CURVES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 64),
    topology=st.sampled_from([CLOSED, PERIODIC, OPEN]),
    noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
)

GEOMETRY_ARRAYS = (
    "segment_lengths", "ds", "laplacian",
    "tangents", "curvature_vectors", "scalar_curvature",
)


# ------------------------------------------------------------------- tests


@settings(max_examples=80, deadline=None)
@given(**CURVES, kind=st.sampled_from(["explicit", "semi_implicit", "geodesic"]),
       fraction=st.floats(0.01, 1.0))
def test_steps_and_lazy_geometry_equal_the_eager_reference(
    seed, n, topology, noise, kind, fraction
):
    on_sphere = kind == "geodesic"
    if on_sphere and topology == PERIODIC:
        topology = CLOSED  # a periodic curve does not lie on a sphere
    curve = wavy_curve(seed, n, topology, noise, on_sphere)
    dt = fraction * stable_step(compute_geometry(curve))
    got, expected = lazy_step(kind, curve, dt), eager_step(kind, curve, dt)
    assert same_bits(got.points, expected.points)
    assert got.topology == expected.topology
    assert got.offset is None if topology != PERIODIC else same_bits(got.offset, expected.offset)
    assert not got.points.flags.writeable and not got._wrapped.flags.writeable
    assert same_bits(got._wrapped, expected._wrapped)  # the wrap columns too
    geom, reference = compute_geometry(got), reference_geometry(expected)
    for name in GEOMETRY_ARRAYS:
        assert same_bits(getattr(geom, name), reference[name]), name
    assert geom.total_length == reference["total_length"]


@settings(max_examples=150, deadline=None)
@given(**CURVES, scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
def test_the_bound_covers_the_computed_curvature(seed, n, topology, noise, scale):
    rng = np.random.default_rng(seed)
    smooth = wavy_curve(seed, n, topology, noise)
    raw_noise = SampledCurve(rng.normal(size=(n, 3)) * scale, topology,
                             smooth.offset if topology == PERIODIC else None)
    for curve in (smooth, raw_noise):
        geom = compute_geometry(curve)
        assert float(geom.scalar_curvature.max()) <= curvature_bound(geom)


def hairpin(k0, k2):
    # vertex 1 is the tip of a hairpin whose neighbours nearly coincide: the
    # squares of its tangent's chord are subnormal, so the computed chord
    # length is short and the "unit" tangent longer than sqrt(2)
    b = 2.0**-537  # b * b is the least subnormal
    u = np.arange(12) * (2.0 * math.pi / 12)
    pts = 10.0 * np.column_stack([np.cos(u), np.sin(u), np.zeros(12)])
    pts[0], pts[1] = 0.0, 1.0
    pts[2] = [math.sqrt(k0) * b, math.sqrt(k0) * b, math.sqrt(k2) * b]
    return SampledCurve(pts, CLOSED)


@pytest.mark.parametrize("k0, k2", [(0.49, 1.45), (0.45, 1.4), (0.49, 1.49)])
def test_the_bound_covers_a_hairpin_with_a_subnormal_chord(k0, k2):
    geom = compute_geometry(hairpin(k0, k2))
    tip = float(geom.scalar_curvature[1])
    # sqrt(3) max|Laplacian entry| alone does not bound this curvature
    assert tip > math.sqrt(3.0) * float(np.abs(geom.laplacian).max())
    assert float(geom.scalar_curvature.max()) <= curvature_bound(geom)
    # so the stop test still decides as the exact one does
    kds = float(geom.scalar_curvature.max()) * float(geom.ds.min())
    for limit in (kds, float(np.nextafter(kds, 0.0)), 0.5 * kds):
        assert flow._resolution_exhausted(geom, limit) == (kds > limit)


@settings(max_examples=150, deadline=None)
@given(**CURVES, position=st.floats(-2.0, 2.0))
def test_the_stop_test_decides_as_the_exact_one(seed, n, topology, noise, position):
    # limits around the exact k_max * min(ds), and off by a few ulp of it
    geom = compute_geometry(wavy_curve(seed, n, topology, noise))
    kds = float(geom.scalar_curvature.max()) * float(geom.ds.min())
    for limit in (kds * 2.0**position, kds, np.nextafter(kds, 0.0), np.nextafter(kds, 1.0)):
        assert flow._resolution_exhausted(geom, float(limit)) == (kds > limit)


def test_a_run_stops_on_resolution_at_the_reference_step():
    # the limit just below the largest exact k_max * min(ds) of the first 40
    # steps: the run stops at the first step that reaches it, with the rows
    # of a run that records every step
    curve = wavy_curve(5, 48, CLOSED, 0.02)
    probe = run(curve, FlowConfig(record_every=1, max_steps=40, remesh_every=7,
                                  stop_curvature_resolution=1e300))
    kds = [row.k_max * float(compute_geometry(c).ds.min())
           for row, (_, _, c) in zip(probe.rows, probe.snapshots, strict=True)]
    top = max(kds[1:])
    stop = kds.index(top, 1)
    config = FlowConfig(record_every=3, max_steps=40, remesh_every=7,
                        stop_curvature_resolution=float(np.nextafter(top, 0.0)))
    record = run(curve, config)
    assert record.stop_reason == "resolution_exhausted"
    steps = [s for s in range(stop + 1) if s % 3 == 0 or s == stop]
    assert [r.step for r in record.rows] == steps
    for row, step in zip(record.rows, steps):
        ref = probe.rows[step]
        for name in ("t", "L", "k_max", "total_abs_curv", "total_sq_curv", "dl_min", "dpsi_min"):
            assert same_bits(getattr(row, name), getattr(ref, name)), (step, name)
    for (step, t, c), (ref_step, ref_t, ref_c) in zip(
        record.snapshots, [probe.snapshots[s] for s in steps]
    ):
        assert (step, t) == (ref_step, ref_t) and same_bits(c.points, ref_c.points)
    # at the exact value itself nothing is exceeded before step 40
    config = FlowConfig(record_every=3, max_steps=40, remesh_every=7,
                        stop_curvature_resolution=top)
    assert run(curve, config).stop_reason == "max_steps"


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
def test_the_curvature_is_computed_once_per_geometry(monkeypatch, topology):
    calls = []
    counted = curve_module.row_dot

    def counting(u, v):
        calls.append(None)
        return counted(u, v)

    monkeypatch.setattr(curve_module, "row_dot", counting)
    geom = compute_geometry(wavy_curve(3, 24, topology, 0.01))
    assert calls == []  # compute_geometry reads no tangent
    first = (geom.tangents, geom.curvature_vectors, geom.scalar_curvature)
    again = (geom.tangents, geom.curvature_vectors, geom.scalar_curvature)
    assert len(calls) == 1
    for a, b in zip(first, again):
        assert a is b and not a.flags.writeable
    step_semi_implicit(make_state(wavy_curve(3, 24, topology, 0.01)), 1e-4)
    assert len(calls) == 1  # nor does a semi-implicit step


def hairpin_state(state, dt):
    # the state one step makes, with vertex 5 between two equal neighbours:
    # a valid curve whose tangent at vertex 5 is undefined
    pts = state.curve.points.copy()
    pts[6] = pts[4]
    curve = SampledCurve(pts, state.curve.topology, state.curve.offset)
    return FlowState(curve, state.t + dt, state.step + 1, compute_geometry(curve))


def test_a_recorded_state_without_a_tangent_fails_its_step(monkeypatch):
    good = run(wavy_curve(2, 32, CLOSED, 0.01),
               FlowConfig(record_every=2, max_steps=6, stop_curvature_resolution=1e300))
    assert good.stop_reason == "max_steps"
    last = good.snapshots[-1][2]
    geom = compute_geometry(last)
    calls = []

    def seventh_is_a_hairpin(state, dt):
        calls.append(None)
        return (hairpin_state if len(calls) == 7 else step_semi_implicit)(state, dt)

    monkeypatch.setitem(flow._STEPPERS, SEMI_IMPLICIT, seventh_is_a_hairpin)
    config = FlowConfig(record_every=1, t_end=1.0, stop_curvature_resolution=1e300)
    with pytest.raises(NumericalFailureError) as info:
        run(wavy_curve(2, 32, CLOSED, 0.01), config)
    assert str(info.value) == (
        "step 7 failed: degenerate centered-difference tangent (last good state: "
        f"step 6, t={good.snapshots[-1][1]!r}, dt={stable_step(geom, 0.5)!r}, "
        f"min ds={float(geom.ds.min())!r}, "
        f"k_max={float(geom.scalar_curvature.max())!r})"
    )
    assert isinstance(info.value.__cause__, InvalidCurveError)
    partial = info.value.record
    assert partial.stop_reason == "numerical_failure"
    assert [r.step for r in partial.rows] == list(range(7))
    assert [s for s, _, _ in partial.snapshots] == list(range(7))


def test_a_last_good_state_without_a_tangent_prints_nan(monkeypatch):
    # a semi-implicit step reads no tangent, so a hairpin state steps on,
    # unrecorded, and the next failure's last good state has no k_max
    calls = []

    def hairpin_then_nan(state, dt):
        calls.append(None)
        if len(calls) == 3:
            return hairpin_state(state, dt)
        if len(calls) == 4:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(flow, "solve_cyclic_tridiagonal",
                           lambda diag, off, rhs: np.full_like(rhs, np.nan))
                return step_semi_implicit(state, dt)
        return step_semi_implicit(state, dt)

    monkeypatch.setitem(flow._STEPPERS, SEMI_IMPLICIT, hairpin_then_nan)
    config = FlowConfig(record_every=10, t_end=1.0, stop_curvature_resolution=1e300)
    with pytest.raises(NumericalFailureError) as info:
        run(wavy_curve(2, 32, CLOSED, 0.01), config)
    message = str(info.value)
    assert message.startswith("step 4 failed: implicit step produced non-finite vertices")
    assert "(last good state: step 3, " in message and message.endswith(", k_max=nan)")
    assert [r.step for r in info.value.record.rows] == [0]


def test_a_start_without_a_tangent_raises_as_it_is():
    pts = wavy_curve(2, 32, CLOSED, 0.01).points.copy()
    pts[6] = pts[4]
    with pytest.raises(InvalidCurveError, match="^degenerate centered-difference tangent$"):
        run(SampledCurve(pts, CLOSED), FlowConfig(max_steps=3))
    # the explicit step reads the tangent of the state it steps from
    state = make_state(SampledCurve(pts, CLOSED))
    with pytest.raises(InvalidCurveError, match="^degenerate centered-difference tangent$"):
        step_explicit(state, 1e-6)
