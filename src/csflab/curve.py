"""Discrete space curves: sampling, tangents, curvature vectors, arc length.

A curve is an ordered array of 3D vertices with one of three topologies:

* ``closed``   -- the last vertex connects back to the first;
* ``open``     -- free ends, boundary vertices use one-sided stencils;
* ``periodic`` -- one period of a translation-invariant curve; the successor
  of the last vertex is the first vertex shifted by a constant offset vector.

All functions here are pure. Vertex arrays are marked read-only on
construction so shared curves cannot be mutated behind a caller's back.
The constructor measures every segment once, to validate it, and keeps the
lengths (read-only as well); ``segment_lengths`` and ``compute_geometry``
share that array instead of measuring the polyline again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidCurveError

CLOSED = "closed"
OPEN = "open"
PERIODIC = "periodic"
TOPOLOGIES = (CLOSED, OPEN, PERIODIC)

# Minimum vertex counts per topology; below these the stencils degenerate.
MIN_VERTICES = {CLOSED: 8, PERIODIC: 8, OPEN: 4}


def _row_norms(x: np.ndarray) -> np.ndarray:
    # Euclidean norms of the rows of an (m, 3) array.  Same bits as
    # np.linalg.norm(x, axis=1), which sums the squares in this order, at a
    # third of its cost.
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Ordered vertex polyline with topology and optional period offset.

    Construction validates the vertices and measures every segment once on
    the way; the lengths are kept read-only and returned by
    ``segment_lengths``, so no later step measures them again.
    """

    points: np.ndarray
    topology: str = CLOSED
    offset: np.ndarray | None = None
    _segments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidCurveError("points must be an (n, 3) array")
        if not np.isfinite(pts).all():
            raise InvalidCurveError("points contain non-finite values")
        if self.topology not in TOPOLOGIES:
            raise InvalidCurveError(f"unknown topology {self.topology!r}")
        n = len(pts)
        if n < MIN_VERTICES[self.topology]:
            raise InvalidCurveError(
                f"{self.topology} curve needs at least "
                f"{MIN_VERTICES[self.topology]} vertices, got {n}"
            )
        off = self.offset
        if self.topology == PERIODIC:
            if off is None:
                raise InvalidCurveError("periodic topology requires an offset")
            off = np.ascontiguousarray(np.asarray(off, dtype=float))
            if off.shape != (3,) or not np.isfinite(off).all():
                raise InvalidCurveError("offset must be a finite 3-vector")
            if np.linalg.norm(off) == 0.0:
                raise InvalidCurveError("periodic offset must be nonzero")
        elif off is not None and np.linalg.norm(np.asarray(off, float)) != 0.0:
            raise InvalidCurveError(f"{self.topology} topology takes no offset")
        else:
            off = None

        seg = _row_norms(pts[1:] - pts[:-1])
        if seg.size and seg.min() == 0.0:
            raise InvalidCurveError("consecutive vertices must be distinct")
        if self.topology == CLOSED:
            closing = np.linalg.norm(pts[0] - pts[-1])
            if closing == 0.0:
                raise InvalidCurveError("closing segment is degenerate")
            seg = np.append(seg, closing)
        elif self.topology == PERIODIC:
            closing = np.linalg.norm(pts[0] + off - pts[-1])
            if closing == 0.0:
                raise InvalidCurveError("period-closing segment is degenerate")
            seg = np.append(seg, closing)

        pts.setflags(write=False)
        seg.setflags(write=False)
        if off is not None:
            off.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_segments", seg)

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

    ``lap_lower``, ``lap_upper`` and ``laplacian`` hold the three-point
    arc-length Laplacian of the centre rows: all ``n`` vertices of a closed
    or periodic curve, the ``n - 2`` interior vertices of an open one.  Row
    i is ``lap_lower[i] (p_prev - p_i) + lap_upper[i] (p_next - p_i)``; the
    semi-implicit step reuses these rows as its tridiagonal system.
    ``segment_lengths`` is the curve's own read-only segment array, not a
    copy.
    """

    tangents: np.ndarray
    curvature_vectors: np.ndarray
    scalar_curvature: np.ndarray
    ds: np.ndarray
    total_length: float
    segment_lengths: np.ndarray
    lap_lower: np.ndarray
    lap_upper: np.ndarray
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


def _project_normal(raw: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    # Remove the tangential residue of the second-difference stencil so the
    # curvature vector is orthogonal to the tangent to rounding accuracy.
    tang_comp = np.einsum("ij,ij->i", raw, tangents)
    return raw - tang_comp[:, None] * tangents


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
    pts = curve.points
    seg = segment_lengths(curve)

    if curve.is_cyclic():
        first, last = pts[:1], pts[-1:]
        if curve.topology == PERIODIC:
            first, last = first + curve.offset, last - curve.offset
        prev = np.concatenate((last, pts[:-1]))
        nxt = np.concatenate((pts[1:], first))
        cur = pts
        hm = np.concatenate((seg[-1:], seg[:-1]))
        hp = seg
    else:
        prev, cur, nxt = pts[:-2], pts[1:-1], pts[2:]
        hm, hp = seg[:-1], seg[1:]

    chord = nxt - prev
    chord_len = _row_norms(chord)
    if chord_len.min() <= 0.0:
        raise InvalidCurveError("degenerate centered-difference tangent")
    span = hm + hp
    a = 2.0 / (hm * span)
    c = 2.0 / (hp * span)
    lap = a[:, None] * (prev - cur) + c[:, None] * (nxt - cur)
    tangents = chord / chord_len[:, None]
    raw = lap
    ds = 0.5 * span
    if not curve.is_cyclic():
        head, tail = (pts[1] - pts[0]) / seg[0], (pts[-1] - pts[-2]) / seg[-1]
        tangents = np.concatenate(([head], tangents, [tail]))
        raw = np.concatenate((lap[:1], lap, lap[-1:]))
        ds = np.concatenate(([0.5 * seg[0]], ds, [0.5 * seg[-1]]))

    kvec = _project_normal(raw, tangents)
    scalar = _row_norms(kvec)
    for arr in (tangents, kvec, scalar, ds, a, c, lap):
        arr.setflags(write=False)
    return CurveGeometry(
        tangents=tangents,
        curvature_vectors=kvec,
        scalar_curvature=scalar,
        ds=ds,
        total_length=float(np.sum(seg)),
        segment_lengths=seg,
        lap_lower=a,
        lap_upper=c,
        laplacian=lap,
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
    pts = curve.points
    if curve.topology == CLOSED:
        ext = np.vstack([pts, pts[0]])
    elif curve.topology == PERIODIC:
        ext = np.vstack([pts, pts[0] + curve.offset])
    else:
        ext = pts
    seg = np.linalg.norm(np.diff(ext, axis=0), axis=1)
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
    new_pts = ext[idx] + frac[:, None] * (ext[idx + 1] - ext[idx])
    if curve.topology == OPEN:
        new_pts[0] = pts[0]
        new_pts[-1] = pts[-1]
    return SampledCurve(new_pts, curve.topology, curve.offset)
