"""Closed-form helix quantities and related analytic reference models.

A helix (a cos u, a sin u, b u) has constant curvature a/(a^2+b^2) and
torsion b/(a^2+b^2), so everything about its chord-arc behavior reduces to
scalar functions of the parameter separation y = u2 - u1 and the pitch
ratio m = b^2/a^2.  This module evaluates those functions, the sign
condition they feed, and exact radius laws: the shrinking law
R(t)^2 = r0^2 - 2t of circles and spheres, which ``flow`` and ``sphere``
read, and the helix radius, a test oracle.

Near y = 0 several expressions subtract almost-equal quantities; a series
branch below a documented threshold keeps them accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalPairError,
    DomainError,
    InvalidArgumentError,
    require_integer,
    require_real,
)

# below this separation, 2-2cos(y) and friends switch to series evaluation
SERIES_Y = 1e-3


@dataclass(frozen=True)
class HelixParams:
    """Radius and pitch of the helix (a cos u, a sin u, b u)."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise InvalidArgumentError("helix radius a must be positive")
        if not math.isfinite(self.b):
            raise InvalidArgumentError("helix pitch b must be finite")

    @property
    def m(self) -> float:
        """Squared torsion-to-curvature ratio b^2/a^2."""
        return self.b * self.b / (self.a * self.a)


def _real(name: str, value) -> float | np.ndarray:
    # value as require_real takes it, or an integer or float array, as floats
    if isinstance(value, np.ndarray) or np.ndim(value):
        if (arr := np.asarray(value)).dtype.kind not in "iuf":
            raise InvalidArgumentError(
                f"{name} must be a real array, got dtype {arr.dtype}"
            )
        return arr.astype(float)
    return require_real(name, value)


def _check_m(m) -> float | np.ndarray:
    m = _real("m", m)
    if not (np.all(np.isfinite(m)) and np.all(m >= 0.0)):
        raise InvalidArgumentError("pitch ratio m must be finite and non-negative")
    return m


def _as_positive_y(y):
    arr = np.asarray(_real("y", y))
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidArgumentError("separation y must be positive and finite")
    return arr


def _maybe_scalar(value: np.ndarray) -> float | np.ndarray:
    return float(value) if np.ndim(value) == 0 else value


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
    arr = np.asarray(_real("y", y))
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("y must be finite")
    y2 = arr * arr
    y4 = y2 * y2
    series = y4 / 24.0 - y4 * y2 / 720.0 + y4 * y4 / 40320.0
    direct = np.cos(arr) - 1.0 + y2 / 2.0
    return _maybe_scalar(np.where(np.abs(arr) < 0.1, series, direct))


def helix_pair_condition_scaled(y, m) -> float | np.ndarray:
    """Sign condition for a helix vertex pair, times (1+m)^2: G(y, m).

    Closed form of the chord-arc minimum condition evaluated on an exact
    helix with pitch ratio m and parameter separation y, with its
    denominators cleared; negative values mark pairs where that condition
    fails.  Vanishes as y -> 0, a removable singularity.  m may be an
    array that broadcasts against y: a column of m gives the (m, y) table.
    """
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
    return _maybe_scalar(value)


def helix_pair_condition(y, m) -> float | np.ndarray:
    """The pair condition itself, F(y, m) = G(y, m) / (1+m)^2; m broadcasts."""
    m = _check_m(m)
    # C pow, as a Python float's ** 2 is; numpy's ** 2 squares, an ulp apart at times
    return _maybe_scalar(helix_pair_condition_scaled(y, m) / np.float_power(1.0 + m, 2))


def _scan_grids(m_grid, y_grid) -> tuple[np.ndarray, np.ndarray]:
    # the (m, y) grids of a scan: non-empty and 1-D, m >= 0 and y > 0, finite
    m_arr, y_arr = np.asarray(m_grid), np.asarray(y_grid)
    if m_arr.ndim != 1 or y_arr.ndim != 1 or not (m_arr.size and y_arr.size):
        raise InvalidArgumentError("grids must be non-empty and one-dimensional")
    return _check_m(m_arr), _as_positive_y(y_arr)


def negative_condition_cells(
    m_grid, y_grid, threshold: float = -1e-6
) -> tuple[list[tuple[float, float]], float | None]:
    """Exhaustive scan for grid cells where the pair condition is negative.

    Returns the (m, y) cells below ``threshold`` and the largest m among
    them (None when the scan finds nothing).  The small negative threshold
    keeps y -> 0 roundoff from registering as a hit.
    """
    m_arr, y_arr = _scan_grids(m_grid, y_grid)
    rows, cols = np.nonzero(helix_pair_condition(y_arr, m_arr[:, None]) < threshold)
    cells = list(zip(m_arr[rows].tolist(), y_arr[cols].tolist()))
    return cells, max((m for m, _ in cells), default=None)


def scaled_condition_threshold(m_grid, y_grid) -> float:
    """Smallest grid m above which the scaled condition stays non-negative.

    The grid m next above the largest m whose row fails anywhere on the y
    grid, so no monotonicity in m is assumed; inf when that is the largest
    grid m, and the smallest grid m when no row fails.
    """
    m_arr, y_arr = _scan_grids(m_grid, y_grid)
    row_min = np.min(helix_pair_condition_scaled(y_arr, m_arr[:, None]), axis=1)
    worst = np.max(m_arr[row_min < 0.0], initial=-math.inf)
    return float(np.min(m_arr[m_arr > worst], initial=math.inf))


def helix_ratio_time_derivative(params: HelixParams, y) -> float | np.ndarray:
    """Exact time derivative of d/l for a helix pair under the flow.

    (2m / (l d (1+m))) * (a^2/(a^2+b^2)) * (cos y - 1 + y^2/2) with chord
    d and arc l of the pair; non-negative for all y > 0 and identically
    zero for a circle (b = 0).
    """
    arr = _as_positive_y(y)
    m = params.m
    if m == 0.0:
        return _maybe_scalar(np.zeros_like(arr))
    a2 = params.a * params.a
    b2 = params.b * params.b
    arc = arr * math.sqrt(a2 + b2)
    chord = np.sqrt(a2 * _two_minus_two_cos(arr) + b2 * arr * arr)
    gap = cosine_taylor_gap(arr)
    value = (2.0 * m / (arc * chord * (1.0 + m))) * (a2 / (a2 + b2)) * gap
    return _maybe_scalar(value)


@dataclass(frozen=True)
class GraphCurveSpec:
    """Sampled graph-over-the-axis curve (f(u), g(u), pitch u) with bounds.

    The second derivatives are supplied analytically by the preset, never
    re-differenced.  ``accel_bound`` must cover their sampled peak
    max(f''^2 + g''^2): a smaller bound certifies nothing, so it raises.
    """

    u: np.ndarray
    f: np.ndarray
    g: np.ndarray
    d2f: np.ndarray
    d2g: np.ndarray
    speed: float
    accel_bound: float
    pitch: float

    def __post_init__(self):
        arrays = {}
        for name in ("u", "f", "g", "d2f", "d2g"):
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
        accel_peak = float(np.max(self.d2f**2 + self.d2g**2))
        if accel_peak > self.accel_bound:
            raise InvalidArgumentError(
                f"acceleration bound {self.accel_bound!r} is below the sampled "
                f"peak {accel_peak!r}"
            )


def helix_graph_spec(
    a: float = 1.0,
    b: float = 1.0,
    n: int = 256,
    eps: float = 0.0,
    harmonic: int = 3,
) -> GraphCurveSpec:
    """Graph-curve sampling of a helix on the preset grid, optionally
    perturbed in f.

    The grid is one period without its end, u = 2 pi k / n for k < n.
    With eps != 0 the first component becomes a cos(u) + eps cos(harmonic u),
    so the curve's speed is no longer the declared constant a.  a, b and eps
    must be real numbers and n and harmonic integers, else
    ``InvalidArgumentError``.
    """
    a, b, eps = require_real("a", a), require_real("b", b), require_real("eps", eps)
    if require_integer("n", n) < 2:
        raise InvalidArgumentError("need at least two grid points")
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    h = float(require_integer("harmonic", harmonic))
    d2f = -a * np.cos(u) - eps * h * h * np.cos(h * u)
    d2g = -a * np.sin(u)
    return GraphCurveSpec(
        u=u,
        f=a * np.cos(u) + eps * np.cos(h * u),
        g=a * np.sin(u),
        d2f=d2f,
        d2g=d2g,
        speed=a,
        accel_bound=float(np.max(d2f**2 + d2g**2)),
        pitch=b,
    )


def graph_curve_condition(spec: GraphCurveSpec, i: int, j: int) -> float:
    """Pair condition for graph curves at grid indices i and j.

    (f''(u_j)-f''(u_i))(f(u_j)-f(u_i)) + (g''(u_j)-g''(u_i))(g(u_j)-g(u_i))
    + (A/(speed^2+pitch^2)) ((f(u_i)-f(u_j))^2 + (g(u_i)-g(u_j))^2
    + pitch^2 (u_i-u_j)^2), where A is the declared acceleration bound.
    Non-negative values certify the pair.
    """
    n = spec.u.size
    i, j = require_integer("i", i), require_integer("j", j)
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidArgumentError(
            f"grid indices must lie in [0, {n}), got {i} and {j}"
        )
    if i == j:
        raise DiagonalPairError("graph-curve condition needs two distinct points")
    f, g, d2f, d2g = spec.f, spec.g, spec.d2f, spec.d2g
    duf = f[j] - f[i]
    dug = g[j] - g[i]
    du = spec.u[i] - spec.u[j]
    scale = spec.accel_bound / (spec.speed**2 + spec.pitch**2)
    return float(
        (d2f[j] - d2f[i]) * duf
        + (d2g[j] - d2g[i]) * dug
        + scale * (duf * duf + dug * dug + spec.pitch**2 * du * du)
    )


def radius_squared_at(r0: float, t: float) -> float:
    """R(t)^2 = r0^2 - 2t of a round circle of radius r0, or of the sphere
    of radius r0 about 0 that a curve on it stays on, after time t of flow.
    Both are gone at T = r0^2/2; from there on ``DomainError`` is raised."""
    r0, t = require_real("r0", r0), require_real("t", t)
    if not (math.isfinite(r0) and r0 > 0.0):
        raise InvalidArgumentError("initial radius must be positive and finite")
    remaining = r0 * r0 - 2.0 * t
    if not remaining > 0.0:  # a NaN t fails too
        raise DomainError(f"radius {r0:g} is gone at T = {r0 * r0 / 2.0:g}; t = {t:g}")
    return remaining


def shrinking_circle_radius(r0: float, t: float) -> float:
    """Radius sqrt(r0^2 - 2t) of a round circle after time t of flow."""
    return math.sqrt(radius_squared_at(r0, t))


def helix_radius_at(a0: float, b: float, t: float) -> float:
    """Helix radius a(t) solving a' = -a/(a^2 + b^2) from a(0) = a0.

    Uses the conserved relation a^2/2 + b^2 ln(a) = a0^2/2 + b^2 ln(a0) - t
    and root-finds it; with b = 0 this is the shrinking circle, which does
    reach zero in finite time (a true helix never does).
    """
    a0, b, t = require_real("a0", a0), require_real("b", b), require_real("t", t)
    if not (math.isfinite(a0) and a0 > 0.0 and math.isfinite(b) and math.isfinite(t)):
        raise InvalidArgumentError("a0 must be positive, and a0, b and t finite")
    # imported on use: scipy.optimize (which pulls in scipy.linalg) takes
    # about three times as long to import as the whole package
    from scipy.optimize import brentq

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
