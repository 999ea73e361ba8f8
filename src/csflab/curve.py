"""Discrete space curves: sampling, tangents, curvature vectors, arc length.

A curve is an ordered array of 3D vertices with one of three topologies:

* ``closed``   -- the last vertex connects back to the first;
* ``open``     -- free ends, boundary vertices use one-sided stencils;
* ``periodic`` -- one period of a translation-invariant curve; the successor
  of the last vertex is the first vertex shifted by a constant offset vector.

No function here modifies its arguments.  The constructor builds the
closure once: it copies the caller's vertices (never freezing or sharing the
caller's array) between the two wrap vertices into a read-only (3, n + 2)
array, and ``points`` is a read-only, F-ordered (n, 3) view of its centre
columns.  It also measures every segment once, to validate it, and
``segment_lengths`` and ``compute_geometry`` share those read-only lengths.

The kernels work component-major, on (3, n) arrays with one contiguous row
per coordinate, and read the closure where it lies.  The (n, 3) arrays of a
``CurveGeometry`` are ``.T`` views of read-only (3, n) buffers too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidCurveError

CLOSED = "closed"
OPEN = "open"
PERIODIC = "periodic"
TOPOLOGIES = (CLOSED, OPEN, PERIODIC)

# Minimum vertex counts per topology; below these the stencils degenerate.
MIN_VERTICES = {CLOSED: 8, PERIODIC: 8, OPEN: 4}

# Coordinates and offset below this in magnitude keep every coordinate
# difference of a segment below 2e153, and its squared length below 1.2e307.
_SQUARES_FIT = 1e153


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # dot products of the vertices of two (3, m) arrays, with the bits of
    # np.einsum("ij,ij->i") on (m, 3) rows: it adds (p0 + p2) + p1 onto +0.0
    p = u * v
    d = p[0] + 0.0
    d += p[2]
    d += p[1]
    return d


def row_norm(x: np.ndarray) -> np.ndarray:
    # norms of the vertices of a (3, m) array, np.linalg.norm(axis=1)'s bits
    s = np.add.reduce(x * x, axis=0)
    return np.sqrt(s, out=s)


def _unmeasured(
    steps: np.ndarray, lengths: np.ndarray, first: int, degenerate: str
) -> InvalidCurveError:
    # the error for the first of ``lengths`` that measured 0 or inf, from the
    # (3, m) coordinate differences it was measured from: segment ``first`` on
    k = int(np.flatnonzero(~((lengths > 0.0) & (lengths < math.inf)))[0])
    largest = float(np.abs(steps[:, k]).max())
    if largest == 0.0:
        return InvalidCurveError(degenerate)
    cause = "overflows" if lengths[k] > 0.0 else "underflows to zero"
    return InvalidCurveError(
        f"segment {first + k} length {cause}: its largest coordinate "
        f"difference, {largest!r}, leaves the float range when squared"
    )


def _checked_offset(offset, topology: str) -> np.ndarray | None:
    # None or a finite float 3-vector, the same rule for every topology; a
    # periodic curve needs a nonzero one, any other drops a zero one
    if offset is None:
        if topology == PERIODIC:
            raise InvalidCurveError("periodic topology requires an offset")
        return None
    try:
        off = np.array(offset, dtype=float)
        xyz = off.tolist()
        valid = off.shape == (3,) and all(map(math.isfinite, xyz))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidCurveError("offset must be a finite 3-vector")
    if topology != PERIODIC:
        if any(xyz):
            raise InvalidCurveError(f"{topology} topology takes no offset")
        return None
    if not any(xyz):
        raise InvalidCurveError("periodic offset must be nonzero")
    if sum(v * v for v in xyz) == 0.0:  # as in np.linalg.norm(off)
        raise InvalidCurveError(
            "periodic offset length underflows to zero: its largest component, "
            f"{max(map(abs, xyz))!r}, leaves the float range when squared"
        )
    return off


def _closure(
    pts: np.ndarray, off: np.ndarray | None, cyclic: bool
) -> tuple[np.ndarray, np.ndarray]:
    # the (3, n + 2) closure of the (n, 3) vertices and its segment lengths,
    # each length checked to be positive and finite
    n = len(pts)
    seg = np.empty(n if cyclic else n - 1)
    wrapped = np.empty((3, n + 2))
    rows = wrapped[:, 1:-1]
    rows[...] = pts.T  # a straight copy of a step's (3, n) output
    inner = seg[: n - 1]
    inner[:] = row_norm(rows[:, 1:] - rows[:, :-1])
    # a finite length is below 1.4e154, so the sum is inf only if a length is
    if inner.min() == 0.0 or inner.sum() == math.inf:
        steps = rows[:, 1:] - rows[:, :-1]
        raise _unmeasured(steps, inner, 0, "consecutive vertices must be distinct")
    first, last = wrapped[:, 1], wrapped[:, -2]
    if off is not None:  # a periodic curve's wrap vertices lie one period away
        first, last = first + off, last - off
    wrapped[:, 0], wrapped[:, -1] = (last, first) if cyclic else (first, last)
    if cyclic:
        closing = wrapped[:, -1] - wrapped[:, -2]
        seg[-1] = math.sqrt(closing.dot(closing))  # as np.linalg.norm does
        if not 0.0 < seg[-1] < math.inf:
            kind = "closing" if off is None else "period-closing"
            raise _unmeasured(
                closing[:, None], seg[-1:], n - 1, f"{kind} segment is degenerate"
            )
    return wrapped, seg


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Ordered vertex polyline with topology and optional period offset.

    Construction validates the vertices and measures every segment once on
    the way; the lengths are kept read-only and returned by
    ``segment_lengths``, so no later step measures them again.  A length
    whose square leaves the float range, inf or 0 for distinct vertices,
    is rejected with the segment and the cause named, and without numpy's
    overflow warning.  ``_wrapped``
    is the (3, n + 2) closure: the vertex before vertex 0, the vertices, the
    one after the last (a period away on periodic curves, the ends on open).
    """

    points: np.ndarray
    topology: str = CLOSED
    offset: np.ndarray | None = None
    _segments: np.ndarray = field(init=False, repr=False)
    _wrapped: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidCurveError("points must be an (n, 3) array")
        # one pass: below the range, no square can overflow; NaN and inf fail it
        extent = np.abs(pts).max(initial=0.0)
        if not extent < _SQUARES_FIT and not np.isfinite(pts).all():
            raise InvalidCurveError("points contain non-finite values")
        if self.topology not in TOPOLOGIES:
            raise InvalidCurveError(f"unknown topology {self.topology!r}")
        n = len(pts)
        if n < MIN_VERTICES[self.topology]:
            raise InvalidCurveError(
                f"{self.topology} curve needs at least "
                f"{MIN_VERTICES[self.topology]} vertices, got {n}"
            )
        off = _checked_offset(self.offset, self.topology)
        if off is not None:  # it shifts the wrap vertices and the closing segment
            extent += max(map(abs, off.tolist()))
        if extent < _SQUARES_FIT:
            wrapped, seg = _closure(pts, off, self.topology != OPEN)
        else:  # measured in silence, then rejected or accepted on the lengths
            with np.errstate(over="ignore", invalid="ignore"):
                wrapped, seg = _closure(pts, off, self.topology != OPEN)

        wrapped.setflags(write=False)
        seg.setflags(write=False)
        if off is not None:
            off.setflags(write=False)
        # a view taken after the freeze, so that it is read-only too
        object.__setattr__(self, "points", wrapped[:, 1:-1].T)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_segments", seg)
        object.__setattr__(self, "_wrapped", wrapped)

    @property
    def n(self) -> int:
        return len(self.points)

    def is_cyclic(self) -> bool:
        return self.topology in (CLOSED, PERIODIC)


@dataclass(frozen=True, eq=False)
class CurveGeometry:
    """Per-vertex differential data of a sampled curve.

    ``tangents`` are unit vectors, ``curvature_vectors`` are orthogonal to
    them (the tangential part of the second-difference stencil is projected
    out), ``scalar_curvature`` is their norm, and ``ds`` is the mass-lumped
    arc element (half the sum of the two adjacent segment lengths), which
    makes ``ds.sum()`` equal to ``total_length`` exactly.

    ``laplacian`` holds the three-point arc-length Laplacian of the centre
    rows: all ``n`` vertices of a closed or periodic curve, the ``n - 2``
    interior vertices of an open one, row i being
    ``(p_prev - p_i) / (h_prev ds_i) + (p_next - p_i) / (h_next ds_i)``.
    ``segment_lengths`` is the curve's own read-only segment array; with
    ``ds`` it gives the semi-implicit step its mass-lumped system.  The
    (n, 3) arrays are non-contiguous; ``.T`` gives their (3, n) buffers.
    """

    tangents: np.ndarray
    curvature_vectors: np.ndarray
    scalar_curvature: np.ndarray
    ds: np.ndarray
    total_length: float
    segment_lengths: np.ndarray
    laplacian: np.ndarray


def segment_lengths(curve: SampledCurve) -> np.ndarray:
    """Chord lengths of the polyline segments.

    Closed and periodic curves return ``n`` entries (the last one closes the
    loop or the period); open curves return ``n - 1``.  The array is the
    read-only one the constructor measured, shared by every caller.
    """
    return curve._segments


def arc_positions(curve: SampledCurve) -> tuple[np.ndarray, float]:
    """Cumulative arc position of each vertex and the total length."""
    seg = segment_lengths(curve)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(s[-1])
    return s[: curve.n], total


def compute_geometry(curve: SampledCurve) -> CurveGeometry:
    """Tangents, curvature vectors and arc elements of ``curve``.

    The centre rows (every vertex of a closed or periodic curve, the
    interior vertices of an open one) get the normalized centered-difference
    tangent and the three-point arc-length Laplacian on non-uniform spacing,
    ``a (p_- - p) + c (p_+ - p)``.  That Laplacian, projected orthogonal to
    the tangent, is the curvature vector.  Open-curve endpoints use
    one-sided stencils: the chord of the end segment and the Laplacian of
    the adjacent interior vertex.
    """
    seg = segment_lengths(curve)
    cyclic = curve.is_cyclic()

    ext = curve._wrapped  # the closure: open curves' end chords are end segments
    tangents = ext[:, 2:] - ext[:, :-2]
    chord_len = row_norm(tangents)
    if chord_len.min() <= 0.0:
        raise InvalidCurveError("degenerate centered-difference tangent")
    tangents /= chord_len

    steps = ext[:, 1:] - ext[:, :-1]
    if cyclic:
        hm, hp = np.concatenate((seg[-1:], seg[:-1])), seg
    else:
        steps = steps[:, 1:-1]  # the interior vertices' neighbour differences
        hm, hp = seg[:-1], seg[1:]
    span = hm + hp
    a = 2.0 / (hm * span)
    c = 2.0 / (hp * span)
    ds = 0.5 * span
    raw = np.empty_like(tangents)
    # c (p_+ - p) - a (p - p_-): a (p_- - p) + c (p_+ - p) up to the sign of a zero
    lap = np.multiply(a, steps[:, :-1], out=raw if cyclic else raw[:, 1:-1])
    np.subtract(c * steps[:, 1:], lap, out=lap)
    if not cyclic:
        # the ends repeat the adjacent Laplacian row and take half a segment
        raw[:, 0], raw[:, -1] = raw[:, 1], raw[:, -2]
        ds = np.concatenate(([0.5 * seg[0]], ds, [0.5 * seg[-1]]))

    # the curvature vector: the Laplacian with its tangential residue removed
    kvec = raw - row_dot(raw, tangents) * tangents
    scalar = row_norm(kvec)
    for arr in (tangents, kvec, scalar, ds, raw, lap):
        arr.setflags(write=False)
    return CurveGeometry(
        tangents=tangents.T,
        curvature_vectors=kvec.T,
        scalar_curvature=scalar,
        ds=ds,
        total_length=float(seg.sum()),
        segment_lengths=seg,
        laplacian=lap.T,
    )


def total_absolute_curvature(geometry: CurveGeometry) -> float:
    """Discrete integral of |k| along the curve: sum of k_i * ds_i."""
    return float(np.sum(geometry.scalar_curvature * geometry.ds))


def total_squared_curvature(geometry: CurveGeometry) -> float:
    """Discrete integral of k^2 along the curve."""
    return float(np.sum(geometry.scalar_curvature**2 * geometry.ds))


def resample_uniform(curve: SampledCurve, n: int) -> SampledCurve:
    """Resample to ``n`` vertices at uniform arc spacing.

    New vertices sit on the piecewise-linear interpolant at equal arc-length
    fractions of the polyline.  Closed and periodic curves keep vertex 0 as
    the anchor; open curves keep both endpoints exactly.  Topology and offset
    are preserved.
    """
    if n < MIN_VERTICES[curve.topology]:
        raise InvalidArgumentError(
            f"cannot resample {curve.topology} curve to {n} vertices"
        )
    ext = curve._wrapped[:, 1:]  # the vertices, then the one after the last
    seg = segment_lengths(curve)  # the lengths the curve itself reports
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]

    if curve.topology == OPEN:
        targets = np.arange(n) * (total / (n - 1))
        targets[-1] = total
    else:
        targets = np.arange(n) * (total / n)

    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    new_rows = ext[:, idx] + frac * (ext[:, idx + 1] - ext[:, idx])
    if curve.topology == OPEN:
        new_rows[:, 0], new_rows[:, -1] = ext[:, 0], ext[:, -1]
    return SampledCurve(new_rows.T, curve.topology, curve.offset)
