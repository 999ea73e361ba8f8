"""The three public time loops against verbatim copies of their old bodies.

``run``, ``run_to_times`` and ``run_geodesic_flow`` each used to hold a
time loop of their own; they now call one driver.  The references below
keep those old loops as they were, and every result (record rows,
snapshots, stop reason, vanishing-time estimate, landed ``(t, curve)``
pairs and ``RescaledState``s) must agree bit for bit, compared as int64
views.  Cases include targets that fall inside one landing tolerance but
not the other, so the two tolerances (``1e-12`` in ``run``, ``1e-14`` in
the other two) cannot trade places unnoticed.  The geodesic reference
steps the fixed ``GEODESIC_DT`` where its old body took
``stable_step(geometry, cfl)``, as ``run_geodesic_flow`` does now.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from csflab import (
    CLOSED,
    SEMI_IMPLICIT,
    FlowConfig,
    SampledCurve,
    compute_geometry,
    run,
)
from csflab.curve import OPEN, PERIODIC
from csflab.errors import InvalidArgumentError, InvalidCurveError, NumericalFailureError
from csflab.flow import (
    EXPLICIT,
    NO_REMESH,
    SCHEMES,
    _STEPPERS,
    FlowState,
    RecordRow,
    RunRecord,
    _remeshed,
    estimate_vanishing_time,
    make_state,
    row_indicator,
    run_to_times,
    snapshot_diagnostics,
    stable_step,
)
from csflab.sphere import GEODESIC_DT, RescaledState, run_geodesic_flow, step_geodesic_flow
from reference import bits, perturbed_start, smooth_curve


# ---------------------------------------------------------------- references


def failure_message(exc, step, t, dt, geometry):
    return (
        f"step {step + 1} failed: {exc} (last good state: "
        f"step {step}, t={float(t)!r}, dt={float(dt)!r}, "
        f"min ds={float(geometry.ds.min())!r}, "
        f"k_max={float(geometry.scalar_curvature.max())!r})"
    )


def reference_run(initial, config):
    state = make_state(initial)
    l_start = state.geometry.total_length
    stepper = _STEPPERS[config.scheme]

    rows: list[RecordRow] = []
    snapshots: list[tuple[int, float, SampledCurve]] = []

    def record(st: FlowState) -> None:
        rows.append(
            snapshot_diagnostics(
                st.curve, st.t, st.step, config.sphere_radius, st.geometry
            )
        )
        snapshots.append((st.step, st.t, st.curve))

    def partial(stop_reason: str) -> RunRecord:
        return RunRecord(rows, snapshots, math.inf, stop_reason, config)

    stop_reason = None
    try:
        record(state)
        while stop_reason is None:
            if config.t_end is not None and state.t >= config.t_end:
                stop_reason = "t_end"
                break
            if state.step >= config.max_steps:
                stop_reason = "max_steps"
                break
            dt = stable_step(state.geometry, config.cfl)
            if config.t_end is not None:
                dt = min(dt, config.t_end - state.t)
            try:
                nxt = stepper(state, dt)
                if nxt.step % config.remesh_every == 0:
                    nxt = _remeshed(nxt)
            except (InvalidCurveError, NumericalFailureError) as exc:
                raise NumericalFailureError(
                    failure_message(exc, state.step, state.t, dt, state.geometry),
                    record=partial("numerical_failure"),
                ) from exc
            state = nxt

            geom = state.geometry
            if geom.total_length < config.stop_length_fraction * l_start:
                stop_reason = "length_exhausted"
            elif (
                float(geom.scalar_curvature.max()) * float(geom.ds.min())
                > config.stop_curvature_resolution
            ):
                stop_reason = "resolution_exhausted"
            elif config.t_end is not None and state.t >= config.t_end * (1.0 - 1e-12):
                stop_reason = "t_end"

            if stop_reason is not None or state.step % config.record_every == 0:
                if rows[-1].step != state.step:
                    record(state)

        # breaks at the top of the loop (t_end already reached, max_steps)
        # bypass the in-loop record, so close the row list here
        if rows[-1].step != state.step:
            record(state)
    except KeyboardInterrupt as exc:
        # a row appended without its snapshot (interrupted inside record)
        # is dropped so both lists describe the same steps
        del rows[len(snapshots):]
        exc.record = partial("interrupted")
        raise

    t_est = estimate_vanishing_time(rows) if initial.topology == CLOSED else math.inf
    for row in rows:
        row.sing_indicator = row_indicator(row, t_est)
    return RunRecord(rows, snapshots, t_est, stop_reason, config)


def reference_run_to_times(initial, targets, cfl=0.5, scheme=EXPLICIT):
    targets = [float(t) for t in targets]
    if any(b <= a for a, b in zip(targets, targets[1:])) or (
        targets and targets[0] < 0.0
    ):
        raise InvalidArgumentError("target times must be non-negative, increasing")
    stepper = _STEPPERS[scheme] if scheme in SCHEMES else None
    if stepper is None:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}")
    state = make_state(initial)
    out: list[tuple[float, SampledCurve]] = []
    try:
        for target in targets:
            if target == 0.0:
                out.append((0.0, state.curve))
                continue
            while state.t < target * (1.0 - 1e-14):
                dt = min(stable_step(state.geometry, cfl), target - state.t)
                state = stepper(state, dt)
            out.append((state.t, state.curve))
    except (InvalidCurveError, NumericalFailureError) as exc:
        raise NumericalFailureError(
            failure_message(exc, state.step, state.t, dt, state.geometry)
        ) from exc
    return out


def reference_run_geodesic_flow(state, t_tilde_targets):
    targets = [float(x) for x in t_tilde_targets]
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise InvalidArgumentError("dilated target times must be increasing")
    if targets and targets[0] < state.t_tilde - 1e-14:
        raise InvalidArgumentError("targets must not precede the current time")
    out: list[RescaledState] = []
    step, good = 0, None
    try:
        for target in targets:
            while state.t_tilde < target * (1.0 - 1e-14):
                geom = compute_geometry(state.curve_tilde)
                good = (step, state.t_tilde, geom)
                dt = min(GEODESIC_DT, target - state.t_tilde)
                state = step_geodesic_flow(state, dt)
                step += 1
            out.append(state)
    except (InvalidCurveError, NumericalFailureError) as exc:
        if good is None:  # the starting curve itself has no geometry
            raise
        last_step, t_tilde, geom = good
        raise NumericalFailureError(
            failure_message(exc, last_step, t_tilde, dt, geom)
        ) from exc
    return out


# ------------------------------------------------------------- bit digests


def listed(x):
    return bits(x).tolist()


def row_bits(row):
    return [
        v if v is None or isinstance(v, int) else listed(v)
        for v in dataclasses.astuple(row)
    ]


def record_bits(record):
    return (
        [row_bits(r) for r in record.rows],
        [(step, listed(t), listed(c.points)) for step, t, c in record.snapshots],
        listed(record.t_est),
        record.stop_reason,
    )


def pairs_bits(out):
    return [(listed(t), listed(c.points)) for t, c in out]


def states_bits(out):
    return [(listed(s.t_tilde), listed(s.curve_tilde.points)) for s in out]


def outcome(fn, digest, *args, **kwargs):
    """What a call returned (as bits) or which error it raised, and how."""
    try:
        return ("returned", digest(fn(*args, **kwargs)))
    except (NumericalFailureError, InvalidArgumentError, InvalidCurveError) as exc:
        return ("raised", type(exc), str(exc))


CURVES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 64),
    topology=st.sampled_from([CLOSED, PERIODIC, OPEN]),
    amp=st.floats(0.0, 0.1),
)

# relative gaps from a landing to the next target: inside both landing
# tolerances, between 1e-14 and 1e-12, and outside both
GAPS = (4e-15, 1e-13, 5e-12)


def time_unit(curve, cfl):
    """The first step, capped so a few dozen of them stay far from the
    vanishing time of the coarsest curve (run_to_times never remeshes)."""
    return min(stable_step(compute_geometry(curve), cfl), 0.006)


def later_targets(start, dt0, multiples, gap_index):
    """Targets start + cumulative multiples of dt0, the last one repeated at
    a relative gap from its predecessor when ``gap_index`` is given."""
    targets = list(start + dt0 * np.cumsum(multiples))
    if gap_index is not None:
        targets.append(targets[-1] * (1.0 + GAPS[gap_index]))
    return targets


# ------------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(
    **CURVES,
    scheme=st.sampled_from(SCHEMES),
    cfl=st.floats(0.1, 1.0),
    remesh_every=st.sampled_from([1, 2, 3, 5, NO_REMESH]),
    record_every=st.integers(1, 6),
    t_end_steps=st.one_of(st.none(), st.floats(0.3, 25.0)),
    max_steps=st.integers(1, 30),
    stop_length_fraction=st.one_of(st.floats(0.05, 0.95), st.floats(0.99, 0.9999)),
    stop_curvature_resolution=st.floats(0.05, 2.0),
    sphere=st.booleans(),
)
def test_run_equals_reference(
    seed, n, topology, amp, scheme, cfl, remesh_every, record_every,
    t_end_steps, max_steps, stop_length_fraction, stop_curvature_resolution, sphere,
):
    curve = smooth_curve(seed, n, topology, amp)
    dt0 = stable_step(compute_geometry(curve), cfl)
    config = FlowConfig(
        cfl=cfl,
        remesh_every=remesh_every,
        record_every=record_every,
        t_end=None if t_end_steps is None else t_end_steps * dt0,
        stop_length_fraction=stop_length_fraction,
        stop_curvature_resolution=stop_curvature_resolution,
        scheme=scheme,
        max_steps=max_steps,
        sphere_radius=2.0 if sphere else None,
    )
    expected = outcome(reference_run, record_bits, curve, config)
    event(expected[1][3] if expected[0] == "returned" else expected[1].__name__)
    assert outcome(run, record_bits, curve, config) == expected


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
@pytest.mark.parametrize("gap", (0.0,) + GAPS)
def test_run_lands_within_its_own_tolerance(scheme, topology, gap):
    # t_end a relative gap past the time of step 6: within 1e-12 the run
    # lands there, beyond it one more, tiny step reaches t_end
    curve = smooth_curve(7, 32, topology, 0.05)
    probe = reference_run(
        curve, FlowConfig(scheme=scheme, record_every=1, max_steps=6, remesh_every=4)
    )
    assert probe.stop_reason == "max_steps"
    t_end = probe.rows[-1].t / (1.0 - gap)
    config = FlowConfig(scheme=scheme, record_every=4, t_end=t_end, remesh_every=4)
    new, ref = run(curve, config), reference_run(curve, config)
    assert record_bits(new) == record_bits(ref)
    assert ref.rows[-1].step == (6 if gap < 1e-12 else 7)


@settings(max_examples=150, deadline=None)
@given(
    **CURVES,
    scheme=st.sampled_from(SCHEMES),
    cfl=st.floats(0.1, 1.0),
    from_zero=st.booleans(),
    multiples=st.lists(st.floats(0.2, 6.0), min_size=1, max_size=4),
    gap_index=st.one_of(st.none(), st.integers(0, len(GAPS) - 1)),
)
def test_run_to_times_equals_reference(
    seed, n, topology, amp, scheme, cfl, from_zero, multiples, gap_index
):
    curve = smooth_curve(seed, n, topology, amp)
    dt0 = time_unit(curve, cfl)
    targets = [0.0] * from_zero + later_targets(0.0, dt0, multiples, gap_index)
    assert outcome(run_to_times, pairs_bits, curve, targets, cfl, scheme) == outcome(
        reference_run_to_times, pairs_bits, curve, targets, cfl, scheme
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(12, 64),
    eps=st.floats(0.01, 0.3),
    harmonic=st.integers(2, 4),
    topology=st.sampled_from([CLOSED, OPEN]),
    at_start=st.booleans(),
    multiples=st.lists(st.floats(0.2, 6.0), min_size=1, max_size=4),
    gap_index=st.one_of(st.none(), st.integers(0, len(GAPS) - 1)),
)
def test_run_geodesic_flow_equals_reference(
    n, eps, harmonic, topology, at_start, multiples, gap_index
):
    start = perturbed_start(n, topology, eps, harmonic)
    targets = [start.t_tilde] * at_start + later_targets(
        start.t_tilde, GEODESIC_DT, multiples, gap_index
    )
    assert outcome(run_geodesic_flow, states_bits, start, targets) == outcome(
        reference_run_geodesic_flow, states_bits, start, targets
    )


@pytest.mark.parametrize("gap_index", range(len(GAPS)))
def test_landing_gaps_take_the_expected_steps(gap_index):
    # a target 1e-13 past the last landing takes one more step under the
    # 1e-14 tolerance; 4e-15 takes none, 5e-12 takes one
    curve = smooth_curve(3, 32, CLOSED, 0.05)
    dt0 = stable_step(compute_geometry(curve), 0.5)
    targets = later_targets(0.0, dt0, [2.5], gap_index)
    new = run_to_times(curve, targets, 0.5, SEMI_IMPLICIT)
    assert pairs_bits(new) == pairs_bits(
        reference_run_to_times(curve, targets, 0.5, SEMI_IMPLICIT)
    )
    moved = new[-1][0] != new[-2][0]
    assert moved == (gap_index > 0)
    start = perturbed_start(32)
    targets = later_targets(start.t_tilde, GEODESIC_DT, [2.5], gap_index)
    new = run_geodesic_flow(start, targets)
    assert states_bits(new) == states_bits(reference_run_geodesic_flow(start, targets))
    assert (new[-1].t_tilde != new[-2].t_tilde) == (gap_index > 0)
