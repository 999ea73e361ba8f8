"""Chord-to-arc ratio fields and local-minimum diagnostics.

For a closed curve of length L and two vertices with chord d and shorter
arc l, two ratios are tracked:

* d/l   -- plain chord-arc ratio in (0, 1];
* d/psi -- chord relative to the chord of a round circle of the same
  length subtending the same arc, psi = (L/pi) * sin(pi*l/L).

Periodic curves use a one-way arc along the periodic extension (the curve
plus one offset copy), where only d/l makes sense.

One pair kernel, ``_pair_blocks``, serves every reduction.  It visits each
pair once, as the cell i < j, in row blocks of about ``_BLOCK_CELLS`` cells,
and gives, for each block, the chords, the arcs and the excluded cells.
Rows lo:hi take columns lo+band+1 .. hi-1+max_gap, the arc s[j] - s[i], and
exclude gaps j-i outside [band+1, max_gap].  Closed curves fold the arc to
the shorter one, min(l, L - l), and use max_gap = n-band-1, since a larger
gap lies within the band the other way round; the rows from n-band-1 on
have no pair.  Periodic curves use the forward arc along the extension and
max_gap = n.  Chords, folded arcs and psi are symmetric in i and j, so the
closed cell (i, j) holds the same bits as (j, i); ``ratio_field`` fills the
cells i < j and mirrors them below the diagonal.  Only its output is n x n:
``ratio_minima`` and ``min_pair_ratio`` keep running minima over about
n^2/2 cells.  CSF_THREADS (capped at the CPU count) maps the per-block
function over a thread pool; each cell has one fixed arithmetic order and
minima are exact, so results never depend on the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .curve import (
    CLOSED,
    PERIODIC,
    CurveGeometry,
    SampledCurve,
    arc_positions,
    compute_geometry,
)
from .errors import (
    DiagonalPairError,
    InvalidArgumentError,
    UnsupportedTopologyError,
)

D_OVER_L = "d_over_l"
D_OVER_PSI = "d_over_psi"
METRICS = (D_OVER_L, D_OVER_PSI)

MIN_FIELD_VERTICES = 16

# cells per row block of the pair kernel: max(1, _BLOCK_CELLS // width) rows,
# where width is the column count of the block's first row, so blocks grow
# taller as the i < j rows shorten; block arrays of about 64 KB stay below
# glibc's 128 KB mmap threshold, so blocks reuse heap memory instead of
# faulting in fresh pages for each block
_BLOCK_CELLS = 2**13


def comparison_chord(arc: np.ndarray | float, length: float):
    """Chord of a round circle of circumference ``length`` spanning ``arc``."""
    return (length / math.pi) * np.sin(arc * math.pi / length)


def arc_angle(arc: np.ndarray | float, length: float):
    """Half the central angle pi*l/L spanned by the arc on that circle."""
    return arc * math.pi / length


def _thread_count() -> int:
    try:
        requested = int(os.environ.get("CSF_THREADS", ""))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


@dataclass(frozen=True, eq=False)
class RatioField:
    """Pairwise ratio matrix; cells within the exclusion band hold NaN."""

    values: np.ndarray
    metric: str
    exclusion_band: int

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _check_reduction(curve: SampledCurve, metric: str, band: int) -> None:
    # a metric defined for the topology, and a band that leaves some pair
    if metric not in METRICS:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    if curve.topology != CLOSED and (curve.topology, metric) != (PERIODIC, D_OVER_L):
        raise UnsupportedTopologyError(
            f"no {metric} pair ratios for {curve.topology!r} curves"
        )
    limit = curve.n // 2 if curve.topology == CLOSED else curve.n  # largest gap
    if not 1 <= band < limit:
        raise InvalidArgumentError(
            f"exclusion_band must be in [1, {limit}) at n={curve.n}, got {band}"
        )


def _periodic_extension(curve: SampledCurve) -> tuple[np.ndarray, np.ndarray]:
    """The curve plus one offset copy, and the arc positions of its 2n vertices."""
    ext = np.vstack([curve.points, curve.points + curve.offset])
    seg = np.linalg.norm(np.diff(ext, axis=0), axis=1)
    return ext, np.concatenate([[0.0], np.cumsum(seg)])


def _pair_blocks(curve: SampledCurve, band: int, fn) -> list:
    """The pair kernel: fn(rows, cols, ratio) for every row block, in order.

    ``rows`` and ``cols`` are the slices of the block; for them it computes
    the chords d, the arcs l and the excluded cells once, and
    ``ratio(metric)`` is that block of the ratio table with the excluded
    cells set to NaN.  Only pairs i < j are visited, each once, with the
    columns and excluded gaps given in the module docstring.
    """
    n = curve.n
    closed = curve.topology == CLOSED
    if closed:
        pts = curve.points
        s, length = arc_positions(curve)
        max_gap = n - band - 1  # a larger gap is within the band the other way
    else:
        pts, s = _periodic_extension(curve)
        length = None  # only d/l, which needs no length, is defined
        max_gap = n
    px, py, pz = np.ascontiguousarray(pts.T)
    idx = np.arange(len(pts))
    last = len(pts) - 1

    def block(bounds: tuple[slice, slice]):
        rows, cols = bounds
        dx = px[rows, None] - px[None, cols]
        dy = py[rows, None] - py[None, cols]
        dz = pz[rows, None] - pz[None, cols]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        arc = s[None, cols] - s[rows, None]
        if closed:
            arc = np.minimum(arc, length - arc)
        gap = idx[None, cols] - idx[rows, None]
        excluded = (gap <= band) | (gap > max_gap)

        def ratio(metric: str) -> np.ndarray:
            den = arc if metric == D_OVER_L else comparison_chord(arc, length)
            with np.errstate(invalid="ignore", divide="ignore"):
                vals = d / den
            vals[excluded] = np.nan
            return vals

        return fn(rows, cols, ratio)

    bounds = []
    lo = 0
    while lo < max_gap:  # closed rows from n-band-1 on have no pair i < j
        width = min(lo + max_gap, last) - lo - band
        hi = min(lo + max(1, _BLOCK_CELLS // width), max_gap)
        end = min(hi - 1 + max_gap, last) + 1
        bounds.append((slice(lo, hi), slice(lo + band + 1, end)))
        lo = hi
    workers = min(_thread_count(), len(bounds))
    if workers == 1:
        return list(map(block, bounds))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block, bounds))


def ratio_field(
    curve: SampledCurve, metric: str = D_OVER_L, exclusion_band: int = 2
) -> RatioField:
    """Pairwise ratio matrix for a closed curve with at least 16 vertices.

    The band of ``exclusion_band`` index steps around the diagonal is set to
    NaN: ratios of near-identical vertices approach 1 with O(h^2) noise and
    would drown every genuine extremum search in discretization artifacts.
    """
    if curve.topology != CLOSED:
        raise UnsupportedTopologyError(
            f"ratio fields require a closed curve, not {curve.topology!r}"
        )
    if curve.n < MIN_FIELD_VERTICES:
        raise InvalidArgumentError(
            f"ratio fields need at least {MIN_FIELD_VERTICES} vertices"
        )
    _check_reduction(curve, metric, exclusion_band)
    values = np.full((curve.n, curve.n), np.nan)

    def fill(rows: slice, cols: slice, ratio) -> slice:
        values[rows, cols] = ratio(metric)
        return rows

    # the kernel fills the cells i < j; the block of rows lo:hi is then
    # mirrored into columns lo:hi, whose cells below the diagonal still hold
    # NaN, so fmax takes each mirrored value and keeps the cells above it
    for rows in _pair_blocks(curve, exclusion_band, fill):
        lo, hi = rows.start, rows.stop
        values[lo:, lo:hi] = np.fmax(values[lo:, lo:hi], values[lo:hi, lo:].T)
    values.setflags(write=False)
    return RatioField(values=values, metric=metric, exclusion_band=exclusion_band)


def find_local_minima(field: RatioField) -> list[tuple[int, int, float]]:
    """Cells not exceeding any of their eight torus neighbors.

    Band cells are never candidates and are ignored as neighbors.  A strict
    decrease toward at least one neighbor is required so that flat regions
    do not report every interior cell.  Pairs are canonicalized to i < j and
    deduplicated, then sorted by (value, i, j).
    """
    vals = field.values
    if not np.isfinite(vals).any():
        raise InvalidArgumentError("ratio field has no finite cells")
    n = vals.shape[0]
    # the eight torus neighbors are views into one wrapped copy
    padded = np.pad(vals, 1, mode="wrap")
    padded_finite = np.isfinite(padded)
    is_min = padded_finite[1:-1, 1:-1].copy()
    strictly_below = np.zeros_like(is_min)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            rows = slice(1 + di, 1 + di + n)
            cols = slice(1 + dj, 1 + dj + n)
            nb, finite = padded[rows, cols], padded_finite[rows, cols]
            with np.errstate(invalid="ignore"):
                is_min &= ~finite | (vals <= nb)
                strictly_below |= finite & (vals < nb)
    is_min &= strictly_below
    found: dict[tuple[int, int], float] = {}
    for i, j in zip(*np.nonzero(is_min)):
        key = (int(i), int(j)) if i < j else (int(j), int(i))
        found.setdefault(key, float(vals[i, j]))
    return sorted(
        ((i, j, v) for (i, j), v in found.items()), key=lambda r: (r[2], r[0], r[1])
    )


def min_pair_ratio(
    curve: SampledCurve, metric: str = D_OVER_L, exclusion_band: int = 2
) -> float:
    """Global minimum of the pair ratio outside the exclusion band."""
    _check_reduction(curve, metric, exclusion_band)
    minima = _pair_blocks(
        curve, exclusion_band, lambda rows, cols, ratio: np.nanmin(ratio(metric))
    )
    return float(min(minima))


def ratio_minima(
    curve: SampledCurve, exclusion_band: int = 2
) -> tuple[float, float]:
    """(min d/l, min d/psi) for a closed curve in one pairwise pass."""
    _check_reduction(curve, D_OVER_PSI, exclusion_band)  # d/psi needs closed

    def block_minima(rows: slice, cols: slice, ratio) -> tuple[float, float]:
        return np.nanmin(ratio(D_OVER_L)), np.nanmin(ratio(D_OVER_PSI))

    dl, dpsi = zip(*_pair_blocks(curve, exclusion_band, block_minima))
    return float(min(dl)), float(min(dpsi))


def arc_curvature_integral(
    curve: SampledCurve,
    i: int,
    j: int,
    geometry: CurveGeometry | None = None,
) -> float:
    """Integral of |k| ds over the shorter arc from vertex i to vertex j.

    The two end vertices contribute half their lumped weight, so the
    integrals over the two complementary arcs add up exactly to the total
    absolute curvature.
    """
    if curve.topology != CLOSED:
        raise UnsupportedTopologyError("arc integrals require a closed curve")
    geom = geometry if geometry is not None else compute_geometry(curve)
    _validate_closed_pair(curve, i, j)
    kds = geom.scalar_curvature * geom.ds
    total = float(np.sum(kds))
    s, length = arc_positions(curve)
    lo, hi = (i, j) if i < j else (j, i)
    span = slice(lo, hi + 1)
    forward = float(np.sum(kds[span])) - 0.5 * float(kds[lo]) - 0.5 * float(kds[hi])
    if s[hi] - s[lo] <= length - (s[hi] - s[lo]):
        return forward
    return total - forward


@dataclass(frozen=True)
class PairDiagnostics:
    """Everything measured about one vertex pair.

    ``psi``, ``alpha``, ``d_over_psi``, the comparison residuals and
    ``cond_dpsi`` are None for periodic pairs, where no comparison circle
    exists.  The chord direction used for tangent products points along the
    (shorter) arc from its first vertex to its last, so results do not
    depend on argument order.
    """

    i: int
    j: int
    d: float
    l: float
    d_over_l: float
    psi: float | None
    alpha: float | None
    d_over_psi: float | None
    chord_tangent_start: float
    chord_tangent_end: float
    tangent_sum_sq: float
    first_var_residual_dl: tuple[float, float]
    first_var_residual_dpsi: tuple[float, float] | None
    cond_dl: float
    cond_dpsi: float | None


def ratio_minimum_condition_dl(diag: PairDiagnostics, total_curvature: float) -> float:
    """Sign test certifying that a d/l local minimum rises under the flow.

    Evaluates -|e1+e2|^2 + <e1+e2, w>^2 + (d/l)^2 * (total |k| integral)^2
    from measured tangents; non-negative values certify monotonicity at this
    pair.  ``total_curvature`` is the |k| integral over the whole curve (or
    one full period for periodic pairs).
    """
    omega_dot = diag.chord_tangent_start + diag.chord_tangent_end
    return (
        -diag.tangent_sum_sq
        + omega_dot**2
        + (diag.d**2 / diag.l**2) * total_curvature**2
    )


def ratio_minimum_condition_dpsi(
    diag: PairDiagnostics, arc_curvature: float
) -> float:
    """Sign test for a d/psi local minimum, from the shorter-arc |k| integral.

    Evaluates cos(a)*I^2 - cos(a)*4*pi^2*l^2/L^2 - psi*l*|e1+e2|^2/d^2
    + (4l/psi)*cos(a)^2 where I = ``arc_curvature`` and the length L enters
    through psi and alpha.  Needs a closed-curve pair.
    """
    if diag.psi is None or diag.alpha is None:
        raise UnsupportedTopologyError(
            "comparison-circle condition needs a closed-curve pair"
        )
    cos_a = math.cos(diag.alpha)
    # alpha = pi*l/L, so 4*pi^2*l^2/L^2 = 4*alpha^2
    return (
        cos_a * arc_curvature**2
        - cos_a * 4.0 * diag.alpha**2
        - diag.psi * diag.l * diag.tangent_sum_sq / (diag.d * diag.d)
        + (4.0 * diag.l / diag.psi) * cos_a**2
    )


def _validate_closed_pair(curve: SampledCurve, i: int, j: int) -> None:
    n = curve.n
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidArgumentError(f"pair ({i}, {j}) out of range for n={n}")
    if i == j:
        raise DiagonalPairError(f"vertex pair ({i}, {j}) has no chord")


def pair_diagnostics(
    curve: SampledCurve,
    i: int,
    j: int,
    geometry: CurveGeometry | None = None,
) -> PairDiagnostics:
    """Chord, arc, ratios, tangent products and both stability conditions.

    Closed curves measure along the shorter of the two arcs; periodic
    curves measure forward along the periodic extension, allowing j up to
    i + n (the pure-offset pair).
    """
    geom = geometry if geometry is not None else compute_geometry(curve)
    i, j, n = int(i), int(j), curve.n
    psi = alpha = arc_curvature = residual_dpsi = None
    if curve.topology == CLOSED:
        _validate_closed_pair(curve, i, j)
        s, length = arc_positions(curve)
        lo, hi = (i, j) if i < j else (j, i)
        fwd = float(s[hi] - s[lo])
        if fwd <= length - fwd:
            start, end, arc = lo, hi, fwd
        else:
            start, end, arc = hi, lo, length - fwd
        chord = curve.points[end] - curve.points[start]
        psi = float(comparison_chord(arc, length))
        alpha = float(arc_angle(arc, length))
        arc_curvature = arc_curvature_integral(curve, i, j, geom)
    elif curve.topology == PERIODIC:
        if not 0 <= i < n:
            raise InvalidArgumentError(f"first index {i} out of range for n={n}")
        if j == i:
            raise DiagonalPairError(f"vertex pair ({i}, {j}) has no chord")
        if not i < j <= i + n:
            raise InvalidArgumentError(
                f"periodic pair needs i < j <= i + n, got ({i}, {j})"
            )
        ext, s = _periodic_extension(curve)
        start, end, arc = i, j % n, float(s[j] - s[i])
        chord = ext[j] - ext[i]
    else:
        raise UnsupportedTopologyError(
            f"pair diagnostics need a cyclic curve, not {curve.topology!r}"
        )
    d = float(np.linalg.norm(chord))
    if d == 0.0:
        raise InvalidArgumentError(f"vertices {i} and {j} coincide")
    omega = chord / d
    e_start, e_end = geom.tangents[start], geom.tangents[end]
    e_sum = e_start + e_end
    ct_start = float(e_start @ omega)
    ct_end = float(e_end @ omega)
    d_over_l = d / arc
    if psi is not None:
        target = (d / psi) * math.cos(alpha)
        residual_dpsi = (ct_start - target, ct_end - target)
    diag = PairDiagnostics(
        i=i,
        j=j,
        d=d,
        l=arc,
        d_over_l=d_over_l,
        psi=psi,
        alpha=alpha,
        d_over_psi=None if psi is None else d / psi,
        chord_tangent_start=ct_start,
        chord_tangent_end=ct_end,
        tangent_sum_sq=float(e_sum @ e_sum),
        first_var_residual_dl=(ct_start - d_over_l, ct_end - d_over_l),
        first_var_residual_dpsi=residual_dpsi,
        cond_dl=math.nan,
        cond_dpsi=None,
    )
    curve_curvature = float(np.sum(geom.scalar_curvature * geom.ds))
    return replace(
        diag,
        cond_dl=ratio_minimum_condition_dl(diag, curve_curvature),
        cond_dpsi=(
            None
            if arc_curvature is None
            else ratio_minimum_condition_dpsi(diag, arc_curvature)
        ),
    )
