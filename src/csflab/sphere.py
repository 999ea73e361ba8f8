"""Flows of curves confined to shrinking spheres.

A curve starting on the unit sphere stays on the sphere of squared radius
1 - 2t under the curvature flow (``helix.radius_squared_at``, the one home
of that law); ``flow.sphere_residual`` measures how well a discrete run
conserves it.  This module rescales curves back to the unit sphere with
the matching dilated time and runs the intrinsic geodesic-curvature flow
on the unit sphere, so that the two descriptions can be compared snapshot
by snapshot; both step through the one time loop of ``flow``.

The intrinsic step is backward Euler on the arc-length Laplacian, the
system of ``flow.step_semi_implicit``, followed by a radial projection back
onto the unit sphere (Deckelnick-Dziuk-Elliott, Acta Numer. 14, 2005).  It
needs no stability bound, so the flow steps a fixed ``GEODESIC_DT``.  The
rescaled flow always lives on the unit sphere, so one dilated step gives
one time error at every vertex count: on criterion 08's grid
(t = 0.05 ... 0.3, the perturbed sphere with eps 0.2 and harmonic 3) the
worst gap to the rescaled ambient run is 8.9e-4, 3.7e-4, 2.6e-4 and
2.3e-4 at n = 64, 128, 256 and 512, against a bound of 1e-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import SampledCurve, _adopt, compute_geometry, row_norm
from .errors import InvalidArgumentError, NotOnSphereError, require_real
from .flow import _backward_euler, _run_to_targets, run_to_times
from .helix import radius_squared_at
from .tridiag import solve_cyclic_tridiagonal, solve_tridiagonal

SPHERE_REL_TOL = 1e-3  # vertex-radius spread the geodesic step allows
RESCALE_REL_TOL = 2e-2  # looser: rescaling accepts accumulated flow drift

# the intrinsic flow's fixed dilated-time step, the same at every n
GEODESIC_DT = 4e-4


def _mean_radius(rows: np.ndarray, rel_tol: float) -> float:
    radii = row_norm(rows)
    mean = float(radii.sum()) / len(radii)  # np.mean's bits
    worst = float(np.abs(radii - mean).max())
    if worst > rel_tol * mean:
        raise NotOnSphereError(
            f"vertex radii spread {worst:.3g} exceeds {rel_tol:g} of {mean:.3g}"
        )
    return mean


def time_dilation(t: float) -> float:
    """Dilated clock -0.5 * ln(0.5 - t); maps [0, 1/2) onto [0.5*ln 2, inf)."""
    return -0.5 * math.log(0.5 * radius_squared_at(1.0, t))  # 0.5 - t, or DomainError


@dataclass(frozen=True, eq=False)
class RescaledState:
    """Unit-sphere curve with its dilated time, the one clock it keeps."""

    curve_tilde: SampledCurve
    t_tilde: float


def rescale(curve: SampledCurve, t: float) -> RescaledState:
    """Map a sphere-of-time-t curve back to the unit sphere.

    Divides by sqrt(1 - 2t) and then projects each vertex radially so the
    constraint holds to roundoff; the curve must sit near the expected
    sphere to begin with.
    """
    expected = math.sqrt(radius_squared_at(1.0, t))
    rows = curve.points.T
    mean = _mean_radius(rows, RESCALE_REL_TOL)
    if abs(mean - expected) > RESCALE_REL_TOL * expected:
        raise NotOnSphereError(
            f"mean radius {mean:.4g} is not the expected {expected:.4g}"
        )
    wrapped = np.empty((3, curve.n + 2))
    scaled = np.divide(rows, expected, out=wrapped[:, 1:-1])
    scaled /= row_norm(scaled)
    tilde = _adopt(wrapped, curve, "rescale")
    return RescaledState(curve_tilde=tilde, t_tilde=time_dilation(t))


def step_geodesic_flow(state: RescaledState, dt_tilde: float) -> RescaledState:
    """One backward-Euler step of the unit-sphere geodesic-curvature flow.

    Solves (I - dt_tilde*Lap) delta = dt_tilde * Lap(points), in the
    mass-lumped symmetric rows of ``flow.step_semi_implicit``, and
    projects each moved vertex radially back onto the unit sphere, which
    removes the normal part of the curvature vector.  Any positive dt_tilde
    is stable.  Open curves keep both endpoints, up to the projection's
    rounding.  A curve whose vertex radii spread more than
    ``SPHERE_REL_TOL`` raises ``NotOnSphereError``.
    """
    if not dt_tilde > 0.0:
        raise InvalidArgumentError("dt_tilde must be positive")
    curve = state.curve_tilde
    _mean_radius(curve.points.T, SPHERE_REL_TOL)
    wrapped = _backward_euler(
        curve,
        compute_geometry(curve),
        dt_tilde,
        solve_cyclic_tridiagonal,
        solve_tridiagonal,
    )
    moved = wrapped[:, 1:-1]
    moved /= row_norm(moved)  # a non-finite vertex stays non-finite
    tilde = _adopt(wrapped, curve, "geodesic")
    return RescaledState(curve_tilde=tilde, t_tilde=state.t_tilde + dt_tilde)


def run_geodesic_flow(state: RescaledState, t_tilde_targets) -> list[RescaledState]:
    """Advance the intrinsic flow, returning the state at each dilated time.

    Steps are ``GEODESIC_DT`` long, cut short to land on each target.  A
    failed step raises ``NumericalFailureError`` naming it and the last good
    state in the format of ``flow.run``, with t and dt on the dilated
    clock.  A step whose new curve has no geometry counts as failed, so the
    last good state is the one before it.  That error, a
    ``KeyboardInterrupt`` and the ``NumericalFailureError`` raised when
    ``flow.MAX_STEPS`` steps leave a target unreached carry the states
    reached so far as ``record``.
    """
    return _run_to_targets(
        lambda: state,
        step_geodesic_flow,
        lambda geom: GEODESIC_DT,
        t_tilde_targets,
        state.t_tilde - 1e-14,
        geometry=lambda st: compute_geometry(st.curve_tilde),
        clock=lambda st: st.t_tilde,
    )


def consistency_profile(
    initial: SampledCurve, t_targets, cfl: float = 0.4
) -> list[tuple[float, float, float]]:
    """Rows (t, t_tilde, max deviation) comparing the two flow descriptions.

    Runs the ambient flow explicitly at ``cfl`` without remeshing and the
    intrinsic flow on the matching dilated grid, both from ``initial``
    (which must lie on the unit sphere).  The grid is dilated and the start
    rescaled first, so a time at or past the sphere's end raises
    ``DomainError``, and a start off the unit sphere ``NotOnSphereError``,
    before any step.
    """
    targets = [require_real("target time", t) for t in t_targets]
    if not targets or targets[0] <= 0.0:
        raise InvalidArgumentError("need a non-empty grid of positive flow times")
    dilated = [time_dilation(t) for t in targets]
    start = rescale(initial, 0.0)
    ambient = run_to_times(initial, targets, cfl=cfl)
    intrinsic = run_geodesic_flow(start, dilated)
    rows = []
    for (t, curve), state in zip(ambient, intrinsic):
        diff = rescale(curve, t).curve_tilde.points - state.curve_tilde.points
        rows.append((t, state.t_tilde, float(np.max(np.linalg.norm(diff, axis=1)))))
    return rows
