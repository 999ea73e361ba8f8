"""Time integration of the curvature flow for discrete curves.

Two schemes share one adaptive step, ``stable_step``: the stencil's own
forward-Euler bound, scaled by cfl <= 1:

* ``explicit``       -- forward Euler on the projected curvature vector;
* ``semi_implicit``  -- backward Euler on the arc-length Laplacian with
  coefficients frozen at the current geometry, solved as one symmetric
  positive-definite (mass-lumped) tridiagonal system per step, with cyclic
  closure for closed/periodic curves and fixed endpoints for open ones.
  It is built from what ``compute_geometry`` already holds, so each step
  forms the Laplacian once.  It stays stable for any dt and is the default
  because it never blows up when remeshing changes min(ds) under the
  integrator.  It reads no tangent and no curvature vector, so its steps
  never compute them (``CurveGeometry`` does on first read).

One three-point stencil serves the geometry, the solve and the remesh: the
Laplacian rows are the solve's right-hand side and the second derivatives
of ``resample_uniform``'s cubic spline, so a remesh every ``remesh_every``
steps keeps the scheme's order 2 in h.

The backward-Euler system is built in one place, ``_backward_euler``; the
intrinsic step of the sphere check, ``sphere.step_geodesic_flow``, solves
it too, on the unit sphere, at a fixed dilated-time step instead of this
module's step rule.  Every step, like a remesh, writes its new vertices
into the centre of a fresh (3, n + 2) buffer, which becomes the next
curve's closure without a copy (``curve._adopt``).

``run``, ``run_to_times`` and ``sphere.run_geodesic_flow`` share one time
loop, ``_integrate``: the dt clamp, the landing on target times, the
``MAX_STEPS`` step cap, the failure message and the output attached on
failure or interrupt live there; ``_run_to_targets`` drives it on a fixed
grid with the caller's dt rule.  ``run``'s curvature-resolution stop test
reads the exact k_max only when a cheap upper bound on it, taken from the
Laplacian rows, comes near the threshold (``_resolution_exhausted``).
Runs are deterministic: identical inputs give bit-identical records.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import chordarc
from .curve import (
    CLOSED,
    PERIODIC,
    CurveGeometry,
    SampledCurve,
    _adopt,
    _resample,
    compute_geometry,
    curvature_bound,
    row_dot,
    total_absolute_curvature,
    total_squared_curvature,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidCurveError,
    NumericalFailureError,
    require_integer,
    require_real,
)
from .helix import radius_squared_at
from .tridiag import solve_cyclic_tridiagonal, solve_tridiagonal

EXPLICIT = "explicit"
SEMI_IMPLICIT = "semi_implicit"
SCHEMES = (EXPLICIT, SEMI_IMPLICIT)

# remesh_every value that effectively disables remeshing
NO_REMESH = 10**9

# step cap of the time loop, and FlowConfig.max_steps' default
MAX_STEPS = 1_000_000

# the last record rows that estimate_vanishing_time fits L^2 over
VANISHING_FIT_ROWS = 8

# every stop_reason that run gives its RunRecord
STOP_REASONS = ("t_end", "length_exhausted", "resolution_exhausted", "max_steps",
                "numerical_failure", "interrupted")


@dataclass(frozen=True)
class FlowConfig:
    """Parameters controlling a flow run."""

    cfl: float = 0.5
    remesh_every: int = 50
    record_every: int = 50
    t_end: float | None = None  # None runs until a stopping criterion fires
    stop_length_fraction: float = 0.05
    stop_curvature_resolution: float = 0.5
    scheme: str = SEMI_IMPLICIT
    max_steps: int = MAX_STEPS
    sphere_radius: float | None = None  # fills the sphere_residual column

    def __post_init__(self):
        # the annotations are strings: "int", "float", "float | None", "str"
        for name, kind in FlowConfig.__annotations__.items():
            value = getattr(self, name)
            if kind == "int":
                object.__setattr__(self, name, require_integer(name, value))
            elif kind == "float" or (kind == "float | None" and value is not None):
                object.__setattr__(self, name, require_real(name, value))
        if not (0.0 < self.cfl <= 1.0):
            raise InvalidArgumentError("cfl must lie in (0, 1]")
        if self.remesh_every < 1 or self.record_every < 1:
            raise InvalidArgumentError("step cadences must be positive")
        if self.t_end is not None and not self.t_end > 0.0:
            raise InvalidArgumentError("t_end must be positive or None")
        if not (0.0 < self.stop_length_fraction < 1.0):
            raise InvalidArgumentError("stop_length_fraction must be in (0, 1)")
        if not self.stop_curvature_resolution > 0.0:
            raise InvalidArgumentError("stop_curvature_resolution must be positive")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(f"unknown scheme {self.scheme!r}")
        if self.max_steps < 1:
            raise InvalidArgumentError("max_steps must be positive")
        # radius_squared_at takes no infinite radius, which would fail mid-run
        if self.sphere_radius is not None and not 0.0 < self.sphere_radius < math.inf:
            raise InvalidArgumentError("sphere_radius must be finite, positive or None")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Curve, time, step counter and cached geometry of a running flow."""

    curve: SampledCurve
    t: float
    step: int
    geometry: CurveGeometry


@dataclass
class RecordRow:
    """One diagnostics row; None marks a column that does not apply."""

    step: int
    t: float
    L: float
    k_max: float
    total_abs_curv: float
    total_sq_curv: float
    dl_min: float | None = None
    dpsi_min: float | None = None
    sphere_residual: float | None = None
    sing_indicator: float | None = None


@dataclass
class RunRecord:
    """Full output of a flow run: rows, snapshots and run-level estimates."""

    rows: list[RecordRow]
    snapshots: list[tuple[int, float, SampledCurve]]
    t_est: float
    stop_reason: str
    config: FlowConfig


def make_state(curve: SampledCurve) -> FlowState:
    return FlowState(curve=curve, t=0.0, step=0, geometry=compute_geometry(curve))


def stable_step(geometry: CurveGeometry, cfl: float = 1.0) -> float:
    """cfl / max(a_i + c_i) of the stencil, cfl * min(h_{i-1} h_i) / 2 over
    the vertices that move (not an open curve's ends): at cfl <= 1 each
    forward-Euler update of the stencil is a convex combination of a vertex
    and its neighbours, the discrete maximum principle (Deckelnick, Dziuk
    and Elliott 2005)."""
    seg = geometry.segment_lengths
    m = float((seg[:-1] * seg[1:]).min())
    if len(seg) == len(geometry.ds):  # closed or periodic: vertex 0 moves too
        m = min(m, float(seg[-1] * seg[0]))
    return cfl * m / 2.0


def _backward_euler(
    curve: SampledCurve, geom: CurveGeometry, dt: float, solve_cyclic, solve_open
) -> np.ndarray:
    """A fresh (3, n + 2) buffer whose centre columns hold the vertices,
    component-major, after one backward-Euler step; its wrap columns are
    left for ``curve._adopt`` to fill.

    Solves (I - dt*Lap) delta = dt * Lap(points) on the rows of ``geom``,
    the geometry of ``curve``, each scaled by its lumped mass ds_i into the
    symmetric positive-definite mass-lumped system (Dziuk 1994): coupling
    -dt/h per segment, diagonal ds_i + dt/h_{i-1} + dt/h_i, right-hand side
    dt * ds_i * Lap_i.  delta is added to the vertices.  The caller passes
    the solvers it imported (``solve_cyclic`` for the n rows of closed and
    periodic curves, ``solve_open`` for the n - 2 interior rows of open
    ones, whose endpoints stay fixed), so each module's solves stay its own.
    """
    cyclic = curve.is_cyclic()
    inv = dt / geom.segment_lengths  # one coupling per segment
    if cyclic:
        ds, off = geom.ds, -inv
        inv = np.concatenate((inv[-1:], inv))  # the corner couples row 0 too
    else:
        ds, off = geom.ds[1:-1], -inv[1:-1]
    diag = ds + inv[:-1]  # each row's couplings: inv[i-1], then inv[i]
    diag += inv[1:]
    rhs = geom.laplacian * (dt * ds)[:, None]
    wrapped = np.empty((3, curve.n + 2))
    moved = wrapped[:, 1:-1]
    if cyclic:
        np.add(solve_cyclic(diag, off, rhs).T, curve.points.T, out=moved)
    else:  # the fixed endpoints move by +0.0, as every vertex adds its delta
        moved[:, 0] = moved[:, -1] = 0.0
        moved[:, 1:-1] = solve_open(diag, off, rhs).T
        moved += curve.points.T
    return wrapped


def step_explicit(state: FlowState, dt: float) -> FlowState:
    """Forward Euler step: each vertex moves by dt times its curvature vector.

    Open-curve endpoints are Dirichlet data and do not move.  A dt above
    ``stable_step`` at cfl 1, the bound of the discrete maximum principle,
    is rejected.
    """
    if not dt > 0.0:
        raise InvalidArgumentError("dt must be positive")
    bound = stable_step(state.geometry)
    if dt > bound * (1.0 + 1e-9):
        raise InvalidArgumentError(f"dt={dt:g} exceeds the stability bound {bound:g}")
    # component-major (3, n), the layout of the geometry and of the solves,
    # in the centre of the next curve's closure
    wrapped = np.empty((3, state.curve.n + 2))
    moved = np.multiply(dt, state.geometry.curvature_vectors.T, out=wrapped[:, 1:-1])
    if not state.curve.is_cyclic():
        moved[:, 0] = moved[:, -1] = 0.0
    moved += state.curve.points.T
    curve = _adopt(wrapped, state.curve, "explicit")
    return FlowState(curve, state.t + dt, state.step + 1, compute_geometry(curve))


def step_semi_implicit(state: FlowState, dt: float) -> FlowState:
    """Backward Euler step on the frozen arc-length Laplacian.

    Solves (I - dt*Lap) delta = dt * Lap(points) for the displacement field,
    which is periodic even for periodic-with-offset curves (the offset
    cancels in second differences), then adds delta to the vertices.  The
    rows are scaled by their lumped masses, which makes the system
    symmetric (see ``_backward_euler``).  Open curves solve on the interior
    and keep both endpoints fixed.
    """
    if not dt > 0.0:
        raise InvalidArgumentError("dt must be positive")
    wrapped = _backward_euler(
        state.curve, state.geometry, dt, solve_cyclic_tridiagonal, solve_tridiagonal
    )
    curve = _adopt(wrapped, state.curve, "implicit")
    return FlowState(curve, state.t + dt, state.step + 1, compute_geometry(curve))


_STEPPERS = {EXPLICIT: step_explicit, SEMI_IMPLICIT: step_semi_implicit}


def _remeshed(state: FlowState) -> FlowState:
    curve = _resample(state.curve, state.geometry, state.curve.n)
    return FlowState(curve, state.t, state.step, compute_geometry(curve))


def estimate_vanishing_time(rows: list[RecordRow]) -> float:
    """Root of the linear fit of L^2 over the last ``VANISHING_FIT_ROWS`` rows.

    Returns inf when the fit slope is non-negative (the curve is not
    contracting toward a point on those rows).
    """
    tail = rows[-VANISHING_FIT_ROWS:]
    if len(tail) < 2:
        return math.inf
    t = np.array([r.t for r in tail])
    lsq = np.array([r.L for r in tail]) ** 2
    slope, intercept = np.polyfit(t, lsq, 1)
    if not np.isfinite(slope) or slope >= 0.0:
        return math.inf
    return float(-intercept / slope)


def row_indicator(row: RecordRow, t_est: float) -> float | None:
    """k_max^2 * (t_est - t) of one row; 0 if t_est is infinite, None if t >= t_est."""
    if math.isinf(t_est):
        return 0.0
    if t_est > row.t:
        return row.k_max**2 * (t_est - row.t)
    return None


def sphere_residual(curve: SampledCurve, t: float = 0.0, r0: float = 1.0) -> float:
    """Worst-vertex violation of the conservation law |p|^2 = r0^2 - 2t
    (``helix.radius_squared_at``, which raises once the sphere is gone)."""
    target = radius_squared_at(r0, t)
    rsq = row_dot(curve.points.T, curve.points.T)
    return float(np.max(np.abs(rsq - target)))


def snapshot_diagnostics(
    curve: SampledCurve,
    t: float,
    step: int,
    sphere_radius: float | None = None,
    geometry: CurveGeometry | None = None,
) -> RecordRow:
    """Measure one record row from a curve; sing_indicator stays unset.

    Ratio minima fill only for topologies where they are defined, and the
    sphere residual only while the reference sphere still exists.
    """
    geom = geometry if geometry is not None else compute_geometry(curve)
    row = RecordRow(
        step=step,
        t=t,
        L=geom.total_length,
        k_max=float(geom.scalar_curvature.max()),
        total_abs_curv=total_absolute_curvature(geom),
        total_sq_curv=total_squared_curvature(geom),
    )
    if curve.topology == CLOSED:
        row.dl_min, row.dpsi_min = chordarc.ratio_minima(curve)
    elif curve.topology == PERIODIC:
        row.dl_min = chordarc.min_pair_ratio(curve, chordarc.D_OVER_L)
    if sphere_radius is not None:
        with contextlib.suppress(DomainError):  # the sphere is gone
            row.sphere_residual = sphere_residual(curve, t, sphere_radius)
    return row


def _k_max(geometry: CurveGeometry) -> float:
    # a last good state's k_max for a failure message: nan when its tangent
    # is undefined, which no semi-implicit or geodesic step reads
    try:
        return float(geometry.scalar_curvature.max())
    except InvalidCurveError:
        return math.nan


def _resolution_exhausted(geom: CurveGeometry, limit: float) -> bool:
    """Whether k_max * min(ds) exceeds ``limit``, the exact k_max read only
    when ``curvature_bound`` says that it might.

    k_max <= B, and as min(ds) > 0 and rounding keeps order, fl(k_max *
    min ds) <= fl(B * min ds): when the bound's product is at most
    ``limit``, the exact one is too, and the exact k_max decides the rest.
    So every decision is that of the exact test; a NaN reads as not
    exhausted both ways.
    """
    ds_min = float(geom.ds.min())
    if not curvature_bound(geom) * ds_min > limit:
        return False
    return float(geom.scalar_curvature.max()) * ds_min > limit


def _integrate(
    state,
    advance,
    dt_rule,
    targets,
    tolerance: float,
    record,
    so_far,
    max_steps: int,
    geometry=lambda state: state.geometry,
    clock=lambda state: state.t,
    after_step=None,
) -> str | None:
    """The one time loop: step ``state`` toward each target time in turn.

    Each step takes dt = min(dt_rule(geometry(state)), target - t).  A target
    is reached once clock(state) >= target * (1 - tolerance) and its state
    goes to ``record``.  ``max_steps`` is tested before a step,
    ``after_step`` after it; a stop records its state and returns its
    reason.  A step fails when ``advance``, or the geometry,
    record or stop test of the state it made, raises ``InvalidCurveError``
    or ``NumericalFailureError``; the error raised names the last good
    state and, like a ``KeyboardInterrupt``, carries
    ``so_far(stop_reason)`` as ``record``.  A failure before the first step
    is raised as it is.
    """
    steps, good, dt = 0, None, math.nan
    try:
        for target in targets:
            landing = target * (1.0 - tolerance)
            while (t := clock(state)) < landing:
                if steps >= max_steps:
                    record(state)
                    return "max_steps"
                geom = geometry(state)
                good = (steps, t, geom)
                dt = min(dt_rule(geom), target - t)
                state = advance(state, dt)
                steps += 1
                if after_step is not None and (reason := after_step(state)):
                    record(state)
                    return reason
            record(state)
    except (InvalidCurveError, NumericalFailureError) as exc:
        if good is None:  # the starting state has no geometry
            raise
        step, t_good, geom = good
        raise NumericalFailureError(
            f"step {step + 1} failed: {exc} (last good state: "
            f"step {step}, t={float(t_good)!r}, dt={float(dt)!r}, "
            f"min ds={float(geom.ds.min())!r}, k_max={_k_max(geom)!r})",
            record=so_far("numerical_failure"),
        ) from exc
    except KeyboardInterrupt as exc:
        exc.record = so_far("interrupted")
        raise
    return None


def _run_to_targets(start, advance, dt_rule, targets, earliest, keep=None, **loop):
    """The fixed-grid driver: ``keep(state)``, or the state, at each target time.

    Targets increase strictly from ``earliest`` on, and are checked before
    ``start()`` makes the starting state, so a bad grid costs no geometry;
    steps of ``dt_rule(geometry)`` land within 1e-14; ``loop`` goes to
    ``_integrate``.
    """
    targets = [require_real("target time", t) for t in targets]
    # written so that a NaN target fails too
    if any(not a < b for a, b in zip(targets, targets[1:])) or (
        targets and not targets[0] >= earliest
    ):
        raise InvalidArgumentError("target times must increase from the start time on")
    clock = loop.get("clock", lambda st: st.t)
    out, times = [], []

    def record(st) -> None:
        times.append(clock(st))
        out.append(st if keep is None else keep(st))

    if _integrate(
        start(),
        advance,
        dt_rule,
        targets,
        1e-14,
        record,
        lambda _: out,
        MAX_STEPS,  # read at each run
        **loop,
    ):
        out.pop()  # the state at the cap is no target
        raise NumericalFailureError(
            f"step cap of {MAX_STEPS} steps reached at t={times[-1]!r}, "
            f"short of target t={targets[len(out)]!r}",
            record=out,
        )
    return out


def run(initial: SampledCurve, config: FlowConfig) -> RunRecord:
    """Advance the flow until t_end or a stopping criterion fires.

    Records a diagnostics row and a snapshot at step 0, every
    ``record_every`` steps, and at the final step.  On numerical failure the
    raised exception names the failing step, dt and the last good state's
    t, min ds and k_max, and carries the partial record.  A
    ``KeyboardInterrupt`` is re-raised with the partial record attached as
    its ``record`` attribute, stop reason ``"interrupted"``.  Only closed
    curves get a fitted vanishing-time estimate; open and periodic curves
    never shrink to a point, so theirs is ``inf``.
    """
    state = make_state(initial)
    l_start = state.geometry.total_length
    stepper = _STEPPERS[config.scheme]
    rows: list[RecordRow] = []
    snapshots: list[tuple[int, float, SampledCurve]] = []

    def record(st: FlowState) -> None:
        if not rows or rows[-1].step != st.step:
            row = snapshot_diagnostics(
                st.curve, st.t, st.step, config.sphere_radius, st.geometry
            )
            rows.append(row)
            snapshots.append((st.step, st.t, st.curve))

    def advance(st: FlowState, dt: float) -> FlowState:
        nxt = stepper(st, dt)
        return _remeshed(nxt) if nxt.step % config.remesh_every == 0 else nxt

    def after_step(st: FlowState) -> str | None:
        geom = st.geometry
        if geom.total_length < config.stop_length_fraction * l_start:
            return "length_exhausted"
        if _resolution_exhausted(geom, config.stop_curvature_resolution):
            return "resolution_exhausted"
        if st.step % config.record_every == 0:
            record(st)
        return None

    def so_far(stop_reason: str) -> RunRecord:
        # a row appended without its snapshot (interrupted inside record)
        # is dropped so both lists describe the same steps
        del rows[len(snapshots):]
        return RunRecord(rows, snapshots, math.inf, stop_reason, config)

    # the t = 0 target records the start
    targets = (0.0, math.inf if config.t_end is None else config.t_end)
    stop_reason = _integrate(
        state,
        advance,
        lambda geom: stable_step(geom, config.cfl),
        targets,
        1e-12,
        record,
        so_far,
        config.max_steps,
        after_step=after_step,
    )
    t_est = estimate_vanishing_time(rows) if initial.topology == CLOSED else math.inf
    for row in rows:
        row.sing_indicator = row_indicator(row, t_est)
    return RunRecord(rows, snapshots, t_est, stop_reason or "t_end", config)


def run_to_times(
    initial: SampledCurve,
    targets,
    cfl: float = 0.5,
    scheme: str = EXPLICIT,
) -> list[tuple[float, SampledCurve]]:
    """Integrate without remeshing and return the curve at each target time.

    Used for scheme-to-scheme and extrinsic-to-intrinsic comparisons where
    vertex labels must stay aligned between runs.  A failed step raises
    ``NumericalFailureError`` naming it and the last good state, as in
    ``run``; that error and a ``KeyboardInterrupt`` carry the ``(t, curve)``
    pairs reached so far as ``record``.  So does the ``NumericalFailureError``
    raised when ``MAX_STEPS`` steps leave a target unreached.  ``cfl`` and
    ``scheme`` are checked as ``FlowConfig`` checks them, before any step.
    """
    config = FlowConfig(cfl=cfl, scheme=scheme)
    return _run_to_targets(
        lambda: make_state(initial),
        _STEPPERS[config.scheme],
        lambda geom: stable_step(geom, config.cfl),
        targets,
        0.0,
        keep=lambda st: (st.t, st.curve),
    )
