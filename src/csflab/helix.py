"""Closed-form helix quantities and related analytic reference models.

A helix (a cos u, a sin u, b u) has constant curvature a/(a^2+b^2) and
torsion b/(a^2+b^2), so everything about its chord-arc behavior reduces to
scalar functions of the parameter separation y = u2 - u1 and the pitch
ratio m = b^2/a^2.  This module evaluates those functions, the sign
condition they feed, and exact radius laws used as test oracles elsewhere.

Near y = 0 several expressions subtract almost-equal quantities; a series
branch below a documented threshold keeps them accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DiagonalPairError, DomainError, InvalidArgumentError

# below this separation, 2-2cos(y) and friends switch to series evaluation
SERIES_Y = 1e-3


@dataclass(frozen=True)
class HelixParams:
    """Radius and pitch of the helix (a cos u, a sin u, b u)."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise InvalidArgumentError("helix radius a must be positive")
        if not math.isfinite(self.b):
            raise InvalidArgumentError("helix pitch b must be finite")

    @property
    def m(self) -> float:
        """Squared torsion-to-curvature ratio b^2/a^2."""
        return self.b * self.b / (self.a * self.a)


def _check_m(m: float) -> float:
    m = float(m)
    if not (math.isfinite(m) and m >= 0.0):
        raise InvalidArgumentError("pitch ratio m must be finite and non-negative")
    return m


def _as_positive_y(y):
    arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidArgumentError("separation y must be positive and finite")
    return arr


def _maybe_scalar(value: np.ndarray, template) -> float | np.ndarray:
    if np.ndim(template) == 0:
        return float(value)
    return value


def _two_minus_two_cos(y: np.ndarray) -> np.ndarray:
    """2 - 2cos(y), with a series branch that survives y -> 0."""
    y = np.asarray(y, dtype=float)
    y2 = y * y
    series = y2 - y2 * y2 / 12.0 + y2 * y2 * y2 / 360.0
    with np.errstate(invalid="ignore"):
        direct = 2.0 - 2.0 * np.cos(y)
    return np.where(np.abs(y) < SERIES_Y, series, direct)


def cosine_taylor_gap(y) -> float | np.ndarray:
    """cos(y) - (1 - y^2/2), the quantity whose sign drives helix monotonicity.

    Non-negative for every real y because the truncated cosine series is a
    lower bound; evaluated by series below |y| = 0.1 to avoid cancellation.
    """
    arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("y must be finite")
    y2 = arr * arr
    y4 = y2 * y2
    series = y4 / 24.0 - y4 * y2 / 720.0 + y4 * y4 / 40320.0
    direct = np.cos(arr) - 1.0 + y2 / 2.0
    return _maybe_scalar(np.where(np.abs(arr) < 0.1, series, direct), y)


def helix_pair_condition(y, m: float) -> float | np.ndarray:
    """Sign condition for a helix vertex pair separated by parameter y.

    Closed form of the chord-arc minimum condition evaluated on an exact
    helix with pitch ratio m; negative values mark pairs where that
    condition fails.  Vanishes as y -> 0, a removable singularity.
    """
    m = _check_m(m)
    arr = _as_positive_y(y)
    v = _two_minus_two_cos(arr)
    y2 = arr * arr
    one_m = 1.0 + m
    value = (
        -4.0
        + v / one_m
        + 4.0 * m / one_m
        + 4.0 * v / (one_m * y2)
        + (v + m * y2) / (one_m * one_m)
    )
    return _maybe_scalar(value, y)


def negative_condition_cells(
    m_grid, y_grid, threshold: float = -1e-6
) -> tuple[list[tuple[float, float]], float | None]:
    """Exhaustive scan for grid cells where the pair condition is negative.

    Returns the (m, y) cells below ``threshold`` and the largest m among
    them (None when the scan finds nothing).  The small negative threshold
    keeps y -> 0 roundoff from registering as a hit.
    """
    m_arr = np.asarray(m_grid, dtype=float)
    y_arr = _as_positive_y(y_grid)
    if m_arr.ndim != 1 or y_arr.ndim != 1:
        raise InvalidArgumentError("grids must be one-dimensional")
    if not np.all(np.isfinite(m_arr)) or np.any(m_arr < 0.0):
        raise InvalidArgumentError("m grid must be finite and non-negative")
    cells: list[tuple[float, float]] = []
    for m in m_arr:
        values = helix_pair_condition(y_arr, float(m))
        for yv in y_arr[values < threshold]:
            cells.append((float(m), float(yv)))
    sup_m = max((m for m, _ in cells), default=None)
    return cells, sup_m


def helix_pair_condition_scaled(y, m: float) -> float | np.ndarray:
    """The pair condition multiplied by (1+m)^2, clearing denominators."""
    m = _check_m(m)
    arr = _as_positive_y(y)
    v = _two_minus_two_cos(arr)
    y2 = arr * arr
    one_m = 1.0 + m
    value = (
        -4.0 * one_m * one_m
        + one_m * v
        + 4.0 * m * one_m
        + one_m * 4.0 * v / y2
        + v
        + m * y2
    )
    return _maybe_scalar(value, y)


def scaled_condition_threshold(m_grid, y_grid) -> float:
    """Smallest grid m above which the scaled condition stays non-negative.

    Scans m descending and stops at the first failure, so no monotonicity
    in m is assumed.  Returns inf when even the largest grid m fails
    somewhere on the y grid.
    """
    m_arr = np.sort(np.asarray(m_grid, dtype=float))
    y_arr = _as_positive_y(y_grid)
    if m_arr.size == 0:
        raise InvalidArgumentError("empty m grid")
    threshold = math.inf
    for m in m_arr[::-1]:
        if float(np.min(helix_pair_condition_scaled(y_arr, float(m)))) < 0.0:
            break
        threshold = float(m)
    return threshold


def helix_ratio_time_derivative(params: HelixParams, y) -> float | np.ndarray:
    """Exact time derivative of d/l for a helix pair under the flow.

    (2m / (l d (1+m))) * (a^2/(a^2+b^2)) * (cos y - 1 + y^2/2) with chord
    d and arc l of the pair; non-negative for all y > 0 and identically
    zero for a circle (b = 0).
    """
    arr = _as_positive_y(y)
    m = params.m
    if m == 0.0:
        return _maybe_scalar(np.zeros_like(arr), y)
    a2 = params.a * params.a
    b2 = params.b * params.b
    arc = arr * math.sqrt(a2 + b2)
    chord = np.sqrt(a2 * _two_minus_two_cos(arr) + b2 * arr * arr)
    gap = cosine_taylor_gap(arr)
    value = (2.0 * m / (arc * chord * (1.0 + m))) * (a2 / (a2 + b2)) * gap
    return _maybe_scalar(value, y)


@dataclass(frozen=True)
class GraphCurveSpec:
    """Sampled graph-over-the-axis curve (f(u), g(u), b u) with bounds.

    Carries first derivatives only to audit the constant-speed identity
    f'^2 + g'^2 = speed^2; second derivatives are supplied analytically by
    the preset, never re-differenced.  With strict=True a violated identity
    or acceleration bound raises; otherwise it is recorded in the _ok flags.
    """

    u: np.ndarray
    f: np.ndarray
    g: np.ndarray
    df: np.ndarray
    dg: np.ndarray
    d2f: np.ndarray
    d2g: np.ndarray
    speed: float
    accel_bound: float
    pitch: float
    strict: bool = True
    speed_identity_ok: bool = field(init=False, default=True)
    accel_bound_ok: bool = field(init=False, default=True)

    def __post_init__(self):
        arrays = {}
        for name in ("u", "f", "g", "df", "dg", "d2f", "d2g"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} must be a finite 1-D array")
            arrays[name] = arr
        sizes = {a.size for a in arrays.values()}
        if len(sizes) != 1 or arrays["u"].size < 2:
            raise InvalidArgumentError("grid arrays must share one length >= 2")
        if np.any(np.diff(arrays["u"]) <= 0.0):
            raise InvalidArgumentError("u grid must be strictly increasing")
        if not self.speed > 0.0 or not self.accel_bound >= 0.0:
            raise InvalidArgumentError("speed must be positive, bound non-negative")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        speed_err = np.max(
            np.abs(self.df**2 + self.dg**2 - self.speed * self.speed)
        )
        speed_ok = bool(speed_err <= 1e-8 * max(1.0, self.speed * self.speed))
        accel_peak = float(np.max(self.d2f**2 + self.d2g**2))
        accel_ok = bool(accel_peak <= self.accel_bound * (1.0 + 1e-12) + 1e-12)
        if self.strict and not (speed_ok and accel_ok):
            raise InvalidArgumentError(
                "graph-curve spec violates its declared speed or bound "
                f"(speed error {speed_err:.3g}, peak accel {accel_peak:.3g})"
            )
        object.__setattr__(self, "speed_identity_ok", speed_ok)
        object.__setattr__(self, "accel_bound_ok", accel_ok)


def helix_graph_spec(
    a: float = 1.0,
    b: float = 1.0,
    n: int = 256,
    periods: float = 1.0,
    eps: float = 0.0,
    harmonic: int = 3,
    endpoint: bool = True,
) -> GraphCurveSpec:
    """Graph-curve sampling of a helix, optionally perturbed in f.

    With eps != 0 the first component becomes a cos(u) + eps cos(harmonic u)
    and the constant-speed identity no longer holds; the spec is then built
    non-strict so the violation is flagged instead of raised.  Pass
    endpoint=False to match an n-vertex periodic sampling that stops one
    step short of a full period.
    """
    if n < 2:
        raise InvalidArgumentError("need at least two grid points")
    u = np.linspace(0.0, 2.0 * math.pi * periods, n, endpoint=endpoint)
    h = float(harmonic)
    f = a * np.cos(u) + eps * np.cos(h * u)
    g = a * np.sin(u)
    df = -a * np.sin(u) - eps * h * np.sin(h * u)
    dg = a * np.cos(u)
    d2f = -a * np.cos(u) - eps * h * h * np.cos(h * u)
    d2g = -a * np.sin(u)
    accel_bound = float(np.max(d2f**2 + d2g**2)) * (1.0 + 1e-12)
    return GraphCurveSpec(
        u=u,
        f=f,
        g=g,
        df=df,
        dg=dg,
        d2f=d2f,
        d2g=d2g,
        speed=a,
        accel_bound=accel_bound,
        pitch=b,
        strict=(eps == 0.0),
    )


def _grid_index(spec: GraphCurveSpec, u_value: float) -> int:
    u = spec.u
    tol = 1e-12 * max(1.0, float(np.max(np.abs(u))))
    idx = int(np.searchsorted(u, u_value))
    for candidate in (idx - 1, idx):
        if 0 <= candidate < u.size and abs(u[candidate] - u_value) <= tol:
            return candidate
    raise InvalidArgumentError(f"u = {u_value!r} is not a grid point")


def graph_curve_condition(spec: GraphCurveSpec, u1: float, u2: float) -> float:
    """Pair condition for graph curves, from sampled values and bounds.

    (f''(u2)-f''(u1))(f(u2)-f(u1)) + (g''(u2)-g''(u1))(g(u2)-g(u1))
    + (A/(speed^2+pitch^2)) ((f(u1)-f(u2))^2 + (g(u1)-g(u2))^2
    + pitch^2 (u1-u2)^2), where A is the declared acceleration bound.
    Non-negative values certify the pair.
    """
    i1 = _grid_index(spec, float(u1))
    i2 = _grid_index(spec, float(u2))
    if i1 == i2:
        raise DiagonalPairError("graph-curve condition needs two distinct points")
    f, g, d2f, d2g = spec.f, spec.g, spec.d2f, spec.d2g
    duf = f[i2] - f[i1]
    dug = g[i2] - g[i1]
    du = spec.u[i1] - spec.u[i2]
    scale = spec.accel_bound / (spec.speed**2 + spec.pitch**2)
    return float(
        (d2f[i2] - d2f[i1]) * duf
        + (d2g[i2] - d2g[i1]) * dug
        + scale * (duf * duf + dug * dug + spec.pitch**2 * du * du)
    )


def shrinking_circle_radius(r0: float, t: float) -> float:
    """Radius sqrt(r0^2 - 2t) of a round circle after time t of flow."""
    if not r0 > 0.0:
        raise InvalidArgumentError("initial radius must be positive")
    remaining = r0 * r0 - 2.0 * t
    if remaining <= 0.0:
        raise DomainError(
            f"circle of radius {r0:g} vanishes at t = {r0 * r0 / 2.0:g}"
        )
    return math.sqrt(remaining)


def helix_radius_at(a0: float, b: float, t: float) -> float:
    """Helix radius a(t) solving a' = -a/(a^2 + b^2) from a(0) = a0.

    Uses the conserved relation a^2/2 + b^2 ln(a) = a0^2/2 + b^2 ln(a0) - t
    and root-finds it; with b = 0 this is the shrinking circle, which does
    reach zero in finite time (a true helix never does).
    """
    # imported on use: scipy.optimize (which pulls in scipy.linalg) takes
    # about three times as long to import as the whole package
    from scipy.optimize import brentq

    if not a0 > 0.0:
        raise InvalidArgumentError("initial radius must be positive")
    if b == 0.0:
        return shrinking_circle_radius(a0, t)
    b2 = b * b
    target = a0 * a0 / 2.0 + b2 * math.log(a0) - t

    def residual(a: float) -> float:
        return a * a / 2.0 + b2 * math.log(a) - target

    lo, hi = a0, a0
    while residual(lo) > 0.0:
        lo /= 2.0
        if lo < 1e-300:
            raise DomainError("radius underflow while bracketing the root")
    while residual(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError("radius overflow while bracketing the root")
    return float(brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16))
