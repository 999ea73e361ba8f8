"""Discrete space curves: sampling, tangents, curvature vectors, arc length.

A curve is an ordered array of 3D vertices with one of three topologies:

* ``closed``   -- the last vertex connects back to the first;
* ``open``     -- free ends, boundary vertices use one-sided stencils;
* ``periodic`` -- one period of a translation-invariant curve; the successor
  of the last vertex is the first vertex shifted by a constant offset vector.

No function here modifies its arguments.  The constructor copies a curve
from outside (never freezing or sharing the caller's array) between the
two wrap vertices of a read-only (3, n + 2) closure; ``points`` is a
read-only, F-ordered (n, 3) view of its centre columns.  A curve made from
a curve (a flow step, a remesh, a rescale) writes its vertices into a fresh
closure, which ``_adopt`` takes over without a copy.  Either way one check
decides: the segments, measured once in one ``np.errstate``, accept or
reject the curve, and ``segment_lengths`` and ``compute_geometry`` share
those read-only lengths.

The kernels work component-major, on (3, n) arrays with one contiguous row
per coordinate, and read the closure where it lies.  The (n, 3) arrays of a
``CurveGeometry`` are ``.T`` views of read-only (3, n) buffers too.  A
geometry computes its arc elements and Laplacian rows at once, and its
tangents and curvature on first read: a semi-implicit step reads none, and
a remesh reads the rows as the second derivatives of its order-2 spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidCurveError,
    NumericalFailureError,
    require_integer,
)

CLOSED = "closed"
OPEN = "open"
PERIODIC = "periodic"
TOPOLOGIES = (CLOSED, OPEN, PERIODIC)

# Minimum vertex counts per topology; below these the stencils degenerate.
MIN_VERTICES = {CLOSED: 8, PERIODIC: 8, OPEN: 4}


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
    ends: np.ndarray, lengths: np.ndarray, first: int, degenerate: str
) -> InvalidCurveError:
    # the error for the first of ``lengths`` that measured 0 or inf, those of
    # the segments between the (3, m + 1) vertices ``ends``: segment ``first`` on
    k = int(np.flatnonzero(~((lengths > 0.0) & (lengths < math.inf)))[0])
    largest = float(np.abs(ends[:, k + 1] - ends[:, k]).max())
    if largest == 0.0:
        return InvalidCurveError(degenerate)
    cause = "overflows" if lengths[k] > 0.0 else "underflows to zero"
    if largest == math.inf:  # the difference itself, not only its square
        p, q = (tuple(v.tolist()) for v in ends[:, k : k + 2].T)
        why = f"the difference of its vertices, {p} and {q}, leaves the float range"
    else:
        why = f"its largest coordinate difference, {largest!r}, leaves the float range"
        why += " when squared"
    return InvalidCurveError(f"segment {first + k} length {cause}: {why}")


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


def _close(wrapped: np.ndarray, off: np.ndarray | None, cyclic: bool) -> np.ndarray:
    # fills in the wrap columns of the (3, n + 2) closure whose centre holds
    # the vertices, and returns its segment lengths, each checked to be
    # positive and finite: measured in silence, then rejected or accepted on
    # the lengths.  Every vertex ends an inner segment, so a non-finite one
    # fails an inner length
    n = wrapped.shape[1] - 2
    seg = np.empty(n if cyclic else n - 1)
    rows = wrapped[:, 1:-1]
    inner = seg[: n - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        inner[:] = row_norm(rows[:, 1:] - rows[:, :-1])
        # a finite length is below 1.4e154, so the sum is finite only if all are
        if not (inner.min() > 0.0 and inner.sum() < math.inf):
            if not np.isfinite(rows).all():
                raise InvalidCurveError("points contain non-finite values")
            raise _unmeasured(rows, inner, 0, "consecutive vertices must be distinct")
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
                    wrapped[:, -2:], seg[-1:], n - 1, f"{kind} segment is degenerate"
                )
    return seg


def _freeze(
    curve: SampledCurve, wrapped: np.ndarray, seg: np.ndarray, off: np.ndarray | None
) -> None:
    # makes the checked closure, lengths and offset the curve's, read-only
    wrapped.setflags(write=False)
    seg.setflags(write=False)
    if off is not None:
        off.setflags(write=False)
    # a view taken after the freeze, so that it is read-only too
    object.__setattr__(curve, "points", wrapped[:, 1:-1].T)
    object.__setattr__(curve, "offset", off)
    object.__setattr__(curve, "_segments", seg)
    object.__setattr__(curve, "_wrapped", wrapped)


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Ordered vertex polyline with topology and optional period offset.

    Construction rejects non-finite vertices and measures every segment
    once on the way; the lengths are kept read-only and returned by
    ``segment_lengths``, so no later step measures them again.  A length
    that leaves the float range, inf or 0 for distinct vertices, because a
    coordinate difference or its square does, is rejected with the segment
    and the cause named, and without numpy's overflow warning.  ``_wrapped``
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
        off = _checked_offset(self.offset, self.topology)
        wrapped = np.empty((3, n + 2))
        wrapped[:, 1:-1] = pts.T
        seg = _close(wrapped, off, self.topology != OPEN)
        _freeze(self, wrapped, seg, off)

    @property
    def n(self) -> int:
        return len(self.points)

    def is_cyclic(self) -> bool:
        return self.topology in (CLOSED, PERIODIC)


def _adopt(wrapped: np.ndarray, like: SampledCurve, step: str) -> SampledCurve:
    """The curve that a ``step`` made from ``like``, whose vertices it wrote
    into the centre columns of ``wrapped``, a fresh (3, n + 2) buffer that
    the curve takes over as its closure, without a copy.

    The segment lengths are the one check: a non-finite vertex raises the
    step's ``NumericalFailureError`` from the constructor's
    ``InvalidCurveError``, a bad segment of finite vertices that error
    itself.  The topology and the read-only, already checked offset are
    those of ``like``; the step checked its vertex count.
    """
    try:
        seg = _close(wrapped, like.offset, like.is_cyclic())
    except InvalidCurveError as exc:
        if np.isfinite(wrapped[:, 1:-1]).all():
            raise
        raise NumericalFailureError(f"{step} step produced non-finite vertices") from exc
    curve = object.__new__(SampledCurve)
    object.__setattr__(curve, "topology", like.topology)
    _freeze(curve, wrapped, seg, like.offset)
    return curve


@dataclass(frozen=True, eq=False)
class CurveGeometry:
    """Per-vertex differential data of a sampled curve.

    ``ds`` is the mass-lumped arc element (half the sum of the two adjacent
    segment lengths), which makes ``ds.sum()`` equal to ``total_length``
    exactly.  ``laplacian`` holds the three-point arc-length Laplacian of
    the centre rows: all ``n`` vertices of a closed or periodic curve, the
    ``n - 2`` interior vertices of an open one, row i being
    ``(p_prev - p_i) / (h_prev ds_i) + (p_next - p_i) / (h_next ds_i)``.
    ``segment_lengths`` is the curve's own read-only segment array; with
    ``ds`` it gives the semi-implicit step its mass-lumped system.

    ``tangents`` are unit vectors, ``curvature_vectors`` are orthogonal to
    them (the tangential part of the Laplacian is projected out), and
    ``scalar_curvature`` is their norm.  The three are computed together
    from ``_wrapped``, the curve's closure, and the Laplacian rows on first
    read, and cached: every read returns the same read-only arrays.  That
    first read raises ``InvalidCurveError`` when a centered-difference
    tangent is degenerate (p_{i+1} == p_{i-1}).  The (n, 3) arrays are
    non-contiguous; ``.T`` gives their (3, n) buffers.
    """

    ds: np.ndarray
    total_length: float
    segment_lengths: np.ndarray
    laplacian: np.ndarray
    _wrapped: np.ndarray = field(repr=False)

    @cached_property
    def _curvature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the centre rows' normalized centered-difference tangents, and the
        # Laplacian with its tangential residue removed; open-curve ends take
        # the chord of the end segment and the adjacent Laplacian row
        ext = self._wrapped
        tangents = ext[:, 2:] - ext[:, :-2]
        chord_len = row_norm(tangents)
        if chord_len.min() <= 0.0:
            raise InvalidCurveError("degenerate centered-difference tangent")
        tangents /= chord_len
        raw = self.laplacian.T
        if raw.shape != tangents.shape:  # open: repeat the end rows
            raw = np.concatenate((raw[:, :1], raw, raw[:, -1:]), axis=1)
        kvec = raw - row_dot(raw, tangents) * tangents
        scalar = row_norm(kvec)
        for arr in (tangents, kvec, scalar):
            arr.setflags(write=False)
        return tangents.T, kvec.T, scalar

    tangents = property(lambda self: self._curvature[0])
    curvature_vectors = property(lambda self: self._curvature[1])
    scalar_curvature = property(lambda self: self._curvature[2])


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
    """Arc elements and Laplacian rows of ``curve``; tangents and curvature
    vectors on first read.

    The centre rows (every vertex of a closed or periodic curve, the
    interior vertices of an open one) get the three-point arc-length
    Laplacian on non-uniform spacing, ``a (p_- - p) + c (p_+ - p)``, and
    the normalized centered-difference tangent.  That Laplacian, projected
    orthogonal to the tangent, is the curvature vector.  Open-curve
    endpoints use one-sided stencils: the chord of the end segment and the
    Laplacian of the adjacent interior vertex.
    """
    seg = segment_lengths(curve)
    ext = curve._wrapped
    steps = ext[:, 1:] - ext[:, :-1]
    if curve.is_cyclic():
        hm, hp = np.concatenate((seg[-1:], seg[:-1])), seg
    else:
        steps = steps[:, 1:-1]  # the interior vertices' neighbour differences
        hm, hp = seg[:-1], seg[1:]
    span = hm + hp
    a = 2.0 / (hm * span)
    c = 2.0 / (hp * span)
    ds = 0.5 * span
    # c (p_+ - p) - a (p - p_-): a (p_- - p) + c (p_+ - p) up to the sign of a zero
    lap = a * steps[:, :-1]
    np.subtract(c * steps[:, 1:], lap, out=lap)
    if not curve.is_cyclic():  # the ends take half a segment
        ds = np.concatenate(([0.5 * seg[0]], ds, [0.5 * seg[-1]]))
    for arr in (ds, lap):
        arr.setflags(write=False)
    return CurveGeometry(
        ds=ds,
        total_length=float(seg.sum()),
        segment_lengths=seg,
        laplacian=lap.T,
        _wrapped=ext,
    )


def curvature_bound(geometry: CurveGeometry) -> float:
    """An upper bound on every computed ``scalar_curvature`` value, read off
    the Laplacian rows without computing a tangent: 2 sqrt(3) m + 1e-160,
    m being the largest |entry| of ``laplacian`` (NaN if one is NaN).

    A curvature vector is a Laplacian row r (open ends repeat one), at most
    sqrt(3) m long, minus (r . t) t for the computed tangent t.  That
    projection lengthens r by the factor sqrt(1 + c^2 |t|^2 (|t|^2 - 2)),
    c being the cosine between r and t, so not at all while |t|^2 <= 2.
    |t|^2 is 1 up to a few ulp unless the squares of the tangent's chord are
    subnormal: a hairpin whose neighbours nearly coincide can then read
    |t|^2 up to 2.5, and its curvature up to 1.5 |r| (the tests build one at
    1.44 sqrt(3) m), which the factor 2 covers with the rounding of the
    projection and the norm.  Where the squares the norm sums are subnormal
    it can err by sqrt(3 * 2^-1075) < 3e-162 in absolute terms, within the
    1e-160.
    """
    return 2.0 * math.sqrt(3.0) * float(np.abs(geometry.laplacian).max()) + 1e-160


def total_absolute_curvature(geometry: CurveGeometry) -> float:
    """Discrete integral of |k| along the curve: sum of k_i * ds_i."""
    return float(np.sum(geometry.scalar_curvature * geometry.ds))


def total_squared_curvature(geometry: CurveGeometry) -> float:
    """Discrete integral of k^2 along the curve."""
    return float(np.sum(geometry.scalar_curvature**2 * geometry.ds))


def resample_uniform(curve: SampledCurve, n: int) -> SampledCurve:
    """Resample to ``n`` vertices at uniform arc spacing, to order 2.

    A new vertex at fraction b = 1 - a of the segment p_i p_{i+1}, of length
    h, is a p_i + b p_{i+1} + h^2/6 ((a^3 - a) M_i + (b^3 - b) M_{i+1}): the
    cubic spline whose second derivatives M are the curve's Laplacian rows
    (M_n = M_0 on cyclic curves; the ends of an open one repeat the adjacent
    row).  A smooth curve moves by O(h^4) per remesh, not the polygon's
    O(h^2), so a remeshed flow keeps its order 2.  Closed and periodic
    curves keep vertex 0 as the anchor; open curves keep both endpoints
    exactly.  Topology and offset are preserved.
    """
    if require_integer("n", n) < MIN_VERTICES[curve.topology]:
        raise InvalidArgumentError(
            f"cannot resample {curve.topology} curve to {n} vertices"
        )
    return _resample(curve, compute_geometry(curve), n)


def _resample(curve: SampledCurve, geom: CurveGeometry, n: int) -> SampledCurve:
    # ``resample_uniform`` on ``geom``, the geometry of ``curve`` (a run's state holds it)
    ext = curve._wrapped[:, 1:]  # the vertices, then the one after the last
    seg, lap = geom.segment_lengths, geom.laplacian.T
    cyclic = curve.is_cyclic()
    m = np.hstack((lap, lap[:, :1]) if cyclic else (lap[:, :1], lap, lap[:, -1:]))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    # an open curve's last target is its end, whose vertex is kept below
    targets = np.arange(n) * (cum[-1] / (n if cyclic else n - 1))
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(seg) - 1)
    b = (targets - cum[idx]) / seg[idx]
    a = 1.0 - b
    w = seg[idx] * seg[idx] * (a * b) / -6.0  # a^3 - a = -a b (1 + a), and b alike
    wrapped = np.empty((3, n + 2))
    new_rows = wrapped[:, 1:-1]
    np.add(a * ext[:, idx], b * ext[:, idx + 1], out=new_rows)
    new_rows += w * ((1.0 + a) * m[:, idx] + (1.0 + b) * m[:, idx + 1])
    if not cyclic:
        new_rows[:, 0], new_rows[:, -1] = ext[:, 0], ext[:, -1]
    return _adopt(wrapped, curve, "remesh")
