"""Discrete geometry of sampled curves against closed-form oracles."""

import math

import numpy as np
import pytest

from csflab import (
    CLOSED,
    SampledCurve,
    arc_positions,
    compute_geometry,
    total_absolute_curvature,
)
from csflab.curve import (
    OPEN,
    PERIODIC,
    resample_uniform,
    segment_lengths,
    total_squared_curvature,
)
from csflab.errors import InvalidCurveError
from csflab import curve as curve_module


def circle(n, r=1.0):
    th = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(n)])
    return SampledCurve(pts, CLOSED)


def helix(n, a=1.0, b=1.0, periods=1):
    u = np.arange(n) * (periods * 2.0 * math.pi / n)
    pts = np.column_stack([a * np.cos(u), a * np.sin(u), b * u])
    return SampledCurve(pts, PERIODIC, offset=(0.0, 0.0, periods * 2.0 * math.pi * b))


def test_circle_perimeter_exact():
    n, r = 128, 2.5
    c = circle(n, r)
    # inscribed n-gon perimeter
    expected = 2.0 * n * r * math.sin(math.pi / n)
    g = compute_geometry(c)
    assert abs(g.total_length - expected) < 1e-12 * expected
    assert abs(segment_lengths(c).sum() - expected) < 1e-12 * expected


def test_circle_curvature_is_exactly_one_over_r():
    # the uniform 3-point stencil reproduces -p/r^2 exactly on a circle
    for r in (0.5, 1.0, 3.0):
        g = compute_geometry(circle(256, r))
        assert np.abs(g.scalar_curvature - 1.0 / r).max() < 1e-10 / r


def test_curvature_vector_points_inward_on_circle():
    c = circle(64)
    g = compute_geometry(c)
    inward = -c.points / np.linalg.norm(c.points, axis=1)[:, None]
    kv = g.curvature_vectors / g.scalar_curvature[:, None]
    assert np.abs(kv - inward).max() < 1e-10


def test_tangents_unit_and_curvature_orthogonal():
    n = 200
    th = np.arange(n) * (2.0 * math.pi / n)
    r = 1.0 + 0.3 * np.cos(2 * th) + 0.15 * np.sin(5 * th)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), 0.2 * np.sin(3 * th)])
    g = compute_geometry(SampledCurve(pts, CLOSED))
    assert np.abs(np.linalg.norm(g.tangents, axis=1) - 1.0).max() < 1e-12
    dots = np.abs(np.einsum("ij,ij->i", g.tangents, g.curvature_vectors))
    assert (dots <= 1e-8 * np.maximum(g.scalar_curvature, 1e-300)).all()


def test_ds_sums_to_total_length():
    g = compute_geometry(circle(100))
    assert abs(g.ds.sum() - g.total_length) < 1e-12
    go = compute_geometry(
        SampledCurve(np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)]), OPEN)
    )
    assert abs(go.ds.sum() - go.total_length) < 1e-12


def test_helix_curvature_second_order():
    a, b = 1.0, 1.0
    k_exact = a / (a * a + b * b)
    errs = []
    for n in (128, 256):
        g = compute_geometry(helix(n, a, b))
        errs.append(np.abs(g.scalar_curvature - k_exact).max())
    assert errs[0] < 1e-3
    # halving h divides the error by about 4
    assert errs[0] / errs[1] > 3.0


def test_straight_line_zero_curvature():
    pts = np.column_stack([np.linspace(0, 2, 40), np.linspace(0, 1, 40), np.zeros(40)])
    g = compute_geometry(SampledCurve(pts, OPEN))
    assert np.abs(g.scalar_curvature).max() < 1e-12
    assert abs(g.total_length - math.sqrt(5.0)) < 1e-12


def test_open_endpoint_tangents_one_sided():
    t = np.linspace(0.0, 1.0, 30)
    pts = np.column_stack([t, t * t, np.zeros_like(t)])
    g = compute_geometry(SampledCurve(pts, OPEN))
    first_chord = pts[1] - pts[0]
    first_chord /= np.linalg.norm(first_chord)
    assert np.abs(g.tangents[0] - first_chord).max() < 1e-12


def test_arc_positions_monotone_and_consistent():
    c = circle(77)
    s, total = arc_positions(c)
    assert s[0] == 0.0
    assert (np.diff(s) > 0).all()
    assert abs(total - compute_geometry(c).total_length) < 1e-12


def test_total_curvature_integrals_on_circle():
    n = 512
    g = compute_geometry(circle(n))
    # k = 1 exactly, so both integrals equal the polygon perimeter
    L = g.total_length
    assert abs(total_absolute_curvature(g) - L) < 1e-10
    assert abs(total_squared_curvature(g) - L) < 1e-10
    assert abs(total_absolute_curvature(g) - 2.0 * math.pi) < 1e-3


def pair_distances(curve, i, j):
    """Reference chord d and shorter arc l between vertices i and j of a closed curve."""
    s, total = arc_positions(curve)
    d = float(np.linalg.norm(curve.points[i] - curve.points[j]))
    arc = abs(float(s[j] - s[i]))
    return d, min(arc, total - arc)


def test_pair_distances_circle_oracle():
    n, r = 256, 1.0
    c = circle(n, r)
    h = 2.0 * r * math.sin(math.pi / n)
    for (i, j, m) in [(0, 10, 10), (5, 133, 128), (0, 255, 1)]:
        d, l = pair_distances(c, i, j)
        sep = min((j - i) % n, (i - j) % n)
        assert abs(l - sep * h) < 1e-12
        assert abs(d - 2.0 * r * math.sin(sep * math.pi / n)) < 1e-12
        assert m == sep


def test_pair_distances_shorter_arc_on_closed():
    c = circle(100)
    d1, l1 = pair_distances(c, 2, 97)
    d2, l2 = pair_distances(c, 97, 2)
    assert d1 == d2 and l1 == l2
    _, total = arc_positions(c)
    assert l1 < 0.5 * total


def test_resample_uniform_spacing_and_length():
    n = 200
    th = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([2.0 * np.cos(th), np.sin(th), np.zeros(n)])
    c = SampledCurve(pts, CLOSED)
    L0 = compute_geometry(c).total_length
    rc = resample_uniform(c, 150)
    assert rc.n == 150 and rc.topology == CLOSED
    seg = segment_lengths(rc)
    assert (seg.max() - seg.min()) / seg.mean() < 1e-3
    assert abs(compute_geometry(rc).total_length - L0) / L0 < 1e-3


def test_resample_periodic_keeps_offset():
    c = helix(128)
    rc = resample_uniform(c, 96)
    assert rc.topology == PERIODIC
    assert np.allclose(rc.offset, c.offset, rtol=0, atol=0)
    assert np.abs(rc.points[0] - c.points[0]).max() < 1e-12


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
def test_resample_takes_the_curves_own_segment_lengths(monkeypatch, topology):
    # the lengths are measured once, by the constructor: a remesh and the
    # curve it resamples agree on every segment, the closing one included
    c = circle(40) if topology == CLOSED else helix(40)
    if topology == OPEN:
        c = SampledCurve(c.points, OPEN)
    seen = []

    def spy(curve):
        seen.append(curve)
        return segment_lengths(curve)

    monkeypatch.setattr(curve_module, "segment_lengths", spy)
    rc = resample_uniform(c, 33)
    assert seen == [c]
    monkeypatch.undo()
    assert np.array_equal(rc.points, resample_uniform(c, 33).points)


def test_validation_rejects_bad_input():
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    off = (0.0, 0.0, 1.0)

    def rejects(message, points, topology=CLOSED, offset=None):
        with pytest.raises(InvalidCurveError, match=message):
            SampledCurve(points, topology, offset)

    rejects(r"points must be an \(n, 3\) array", good[:, :2])
    rejects(r"points must be an \(n, 3\) array", good.ravel())
    nanpts = good.copy()
    nanpts[0, 0] = math.nan
    rejects("points contain non-finite values", nanpts)
    rejects("unknown topology 'moebius'", good, "moebius")
    rejects("closed curve needs at least 8 vertices, got 5", good[:5])
    rejects("open curve needs at least 4 vertices, got 3", good[:3], OPEN)
    rejects("periodic topology requires an offset", good, PERIODIC)
    rejects("offset must be a finite 3-vector", good, PERIODIC, (0.0, math.inf, 1.0))
    rejects("offset must be a finite 3-vector", good, PERIODIC, (0.0, 1.0))
    rejects("periodic offset must be nonzero", good, PERIODIC, (0.0, 0.0, 0.0))
    rejects("closed topology takes no offset", good, CLOSED, off)
    rejects("open topology takes no offset", good, OPEN, off)
    bad = good.copy()
    bad[3] = bad[2]
    rejects("consecutive vertices must be distinct", bad)
    looped = good.copy()
    looped[-1] = looped[0]
    rejects("closing segment is degenerate", looped)
    shifted = good.copy()
    shifted[-1] = shifted[0] + off
    rejects("period-closing segment is degenerate", shifted, PERIODIC, off)
    # the same vertices are valid where the failing segment does not exist
    # or is measured differently
    assert SampledCurve(looped, OPEN).n == 8
    assert SampledCurve(looped, PERIODIC, off).n == 8
    assert SampledCurve(good, CLOSED, (0.0, 0.0, 0.0)).offset is None


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
@pytest.mark.parametrize(
    "scale, cause", [(1e200, "overflows"), (1e-200, "underflows to zero")]
)
def test_segments_whose_squares_leave_the_float_range_are_rejected(
    topology, scale, cause
):
    # distinct, finite vertices whose squared differences overflow or underflow
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    offset = (0.0, 0.0, 1.0) if topology == PERIODIC else None
    with pytest.raises(InvalidCurveError, match=f"^segment 0 length {cause}"):
        SampledCurve(good * scale, topology, offset)


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC])
def test_closing_segments_that_overflow_or_underflow_are_rejected(topology):
    offset = (0.0, 0.0, 1.0) if topology == PERIODIC else None
    shift = np.zeros(3) if offset is None else np.array(offset)
    # seven segments of 1e154, whose squares fit, and a closing one of 7e154
    far = np.zeros((8, 3))
    far[:, 0] = np.arange(8) * 1e154
    with pytest.raises(InvalidCurveError, match="^segment 7 length overflows"):
        SampledCurve(far, topology, offset)
    # the last vertex 1e-200 from where the closing segment ends
    near = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    near[-1] = near[0] + shift + (0.0, 1e-200, 0.0)
    with pytest.raises(InvalidCurveError, match="^segment 7 length underflows to zero"):
        SampledCurve(near, topology, offset)
    assert SampledCurve(far, OPEN).n == SampledCurve(near, OPEN).n == 8


@pytest.mark.parametrize(
    "topology, offset, accepted",
    [
        (PERIODIC, (math.nan, 0.0, 1.0), False),
        (PERIODIC, (0.0, -math.inf, 1.0), False),
        (PERIODIC, (0.0, 0.0, -0.0), False),
        # nonzero, but its squares underflow to zero, as in np.linalg.norm
        (PERIODIC, (1e-200, 1e-200, 1e-200), False),
        (PERIODIC, (1e-160, 1e-160, 1e-160), True),
        (PERIODIC, (0.0, 0.0, 1.0), True),
        (CLOSED, (0.0, 0.0, 1e-160), False),
        (CLOSED, (0.0, 0.0, -0.0), True),
        (OPEN, (0.0, 0.0, 0.0), True),
        # an offset is zero only when every component is
        (CLOSED, (0.0, 0.0, 1e-200), False),
        (OPEN, (5e-324, 0.0, 0.0), False),
    ],
)
def test_offset_validation_table(topology, offset, accepted):
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    if accepted:
        curve = SampledCurve(good, topology, offset)
        assert (curve.offset is None) == (topology != PERIODIC)
    else:
        with pytest.raises(InvalidCurveError, match="offset"):
            SampledCurve(good, topology, offset)


@pytest.mark.parametrize(
    "topology, offset, message",
    [
        (PERIODIC, (0.0, -0.0, 0.0), "^periodic offset must be nonzero$"),
        (
            PERIODIC,
            (1e-200, -3e-200, 1e-200),
            "^periodic offset length underflows to zero: its largest component, "
            "3e-200, leaves the float range when squared$",
        ),
        (CLOSED, (0.0, 0.0, 1e-200), "^closed topology takes no offset$"),
    ],
    ids=["zero", "underflow", "closed-tiny"],
)
def test_offset_errors_name_their_cause(topology, offset, message):
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    with pytest.raises(InvalidCurveError, match=message):
        SampledCurve(good, topology, offset)


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
@pytest.mark.parametrize(
    "offset",
    [[0.0, 0.0], [[0.0]], [[0.0, 0.0, 1.0]], "abc", ["0", "x", "1"], {"z": 1.0}],
    ids=["short", "nested", "row", "text", "texts", "dict"],
)
def test_an_offset_is_none_or_a_finite_3_vector(topology, offset):
    # one rule for every topology; a closed or open curve dropped the first
    # two, and numpy's conversion error escaped as a bare ValueError
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    with pytest.raises(InvalidCurveError, match="^offset must be a finite 3-vector$"):
        SampledCurve(good, topology, offset)


@pytest.mark.parametrize(
    "topology, offset",
    [(OPEN, None), (CLOSED, None), (PERIODIC, (0.0, 0.0, 1e140))],
)
def test_coordinates_near_the_square_limit_with_small_steps_are_valid(topology, offset):
    # coordinates of 1e154 have squares past the float range, their 1e140
    # differences do not: measured without a warning, and accepted
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    far = good * 1e140 + 1e154
    lengths = segment_lengths(SampledCurve(far, topology, offset))
    assert np.array_equal(lengths[:7], np.linalg.norm(np.diff(far, axis=0), axis=1))
    assert np.all((lengths > 1e139) & (lengths < 1e141))


def test_only_coordinates_past_the_safe_range_are_measured_in_an_errstate(monkeypatch):
    errstate, calls = np.errstate, []

    def spy(**kwargs):
        calls.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", spy)
    good = np.column_stack([np.cos(np.arange(8)), np.sin(np.arange(8)), np.zeros(8)])
    SampledCurve(good, CLOSED)
    SampledCurve(good * 1e152, PERIODIC, (0.0, 0.0, 1e152))
    assert calls == []
    # the offset's share in the closing segment counts
    SampledCurve(good * 1e152, PERIODIC, (0.0, 0.0, 1e153))
    SampledCurve(good * 1e140 + 1e154, OPEN)
    assert calls == [{"over": "ignore", "invalid": "ignore"}] * 2


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
def test_segment_lengths_are_shared_and_read_only(topology):
    u = np.arange(12) * 0.5
    pts = np.column_stack([np.cos(u), np.sin(u), 0.1 * u])
    c = SampledCurve(pts, topology, (0.0, 0.0, 1.0) if topology == PERIODIC else None)
    seg = segment_lengths(c)
    assert len(seg) == (11 if topology == OPEN else 12)
    assert not seg.flags.writeable
    with pytest.raises(ValueError):
        seg[0] = 1.0
    assert segment_lengths(c) is seg
    assert compute_geometry(c).segment_lengths is seg


def test_points_are_read_only():
    c = circle(16)
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
def test_the_callers_arrays_are_copied_not_frozen(topology):
    u = np.arange(12) * 0.5
    pts = np.column_stack([np.cos(u), np.sin(u), 0.1 * u])
    offset = np.array([0.0, 0.0, 1.0]) if topology == PERIODIC else None
    c = SampledCurve(pts, topology, offset)
    assert c.points is not pts and not np.shares_memory(c.points, pts)
    # a read-only (n, 3) view of the (3, n + 2) closure, one column per vertex
    assert not c.points.flags.writeable and np.shares_memory(c.points, c._wrapped)
    assert c.points.strides == (c.points.itemsize, 14 * c.points.itemsize)
    points, seg, geom = c.points.copy(), segment_lengths(c).copy(), compute_geometry(c)
    pts[0, 0] = 5.0  # the caller's arrays stay writable, and the curve keeps its own
    pts[-1] = -pts[-1]
    if offset is not None:
        offset[2] = 7.0
        assert c.offset[2] == 1.0
    assert np.array_equal(c.points, points)
    assert np.array_equal(segment_lengths(c), seg)
    again = compute_geometry(c)
    for name in ("tangents", "curvature_vectors", "ds", "laplacian"):
        assert np.array_equal(getattr(again, name), getattr(geom, name)), name
