"""The component-major step kernel: shared helpers, read-only views, layout.

The kernels compute on (3, n) arrays, one contiguous row per coordinate.
A curve's ``points`` is a read-only, F-ordered (n, 3) view of its (3, n + 2)
closure, which shares no memory with the caller's array.  ``row_dot`` and
``row_norm`` must give the bits of ``np.einsum`` and ``np.linalg.norm`` over
C-ordered (n, 3) rows; the (n, 3) arrays handed out are read-only views
whose base is read-only too; and a curve's geometry, steps, resampling,
chord-arc reductions and written file do not depend on the memory layout
or dtype of its input vertices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csflab import CLOSED, SampledCurve, compute_geometry
from csflab.chordarc import min_pair_ratio, ratio_field, ratio_minima
from csflab.curve import OPEN, PERIODIC, resample_uniform, row_dot, row_norm
from csflab.fileio import write_curve
from csflab.flow import make_state, stable_step, step_explicit, step_semi_implicit
from csflab.sphere import RescaledState, step_geodesic_flow
from reference import same_bits


# scales 1e-8 .. 1e8 plus signed zeros, subnormals and components whose
# squares and products overflow to inf
COMPONENT = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.floats(-8.0, 8.0)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308, 1e160, -1e200]),
)
ROWS = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=COMPONENT)


@settings(max_examples=200, deadline=None)
@given(u=ROWS, data=st.data())
def test_row_helpers_equal_einsum_and_norm(u, data):
    v = data.draw(arrays(np.float64, u.shape, elements=COMPONENT))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dot = np.einsum("ij,ij->i", u, v)
        norm = np.linalg.norm(u, axis=1)
        # the helpers take component-major rows, contiguous or not
        for cu, cv in ((u.T, v.T), (u.T.copy(), v.T.copy())):
            assert same_bits(row_dot(cu, cv), dot)
            assert same_bits(row_norm(cu), norm)


def sphere_curve(topology, n=24, scale=1.0):
    # a wavy loop on the sphere of radius ``scale``, rounded to integers
    # when the scale is large enough for that to stay on the sphere
    u = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([np.cos(u), np.sin(u), 0.3 * np.sin(3.0 * u)])
    pts *= scale / np.linalg.norm(pts, axis=1)[:, None]
    if scale > 1.0:
        pts = np.round(pts)
    offset = (0.0, 0.0, scale) if topology == PERIODIC else None
    return pts, offset


# the arrays a geometry hands out: three computed at once, three on first read
GEOMETRY_ARRAYS = (
    "ds", "segment_lengths", "laplacian",
    "tangents", "curvature_vectors", "scalar_curvature",
)


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
def test_geometry_and_decomposition_arrays_are_read_only_views(topology):
    pts, offset = sphere_curve(topology)
    curve = SampledCurve(pts, topology, offset)
    geom = compute_geometry(curve)
    found = [getattr(geom, name) for name in GEOMETRY_ARRAYS]
    for arr in found:
        # each (n, 3) array views a (3, n) buffer with contiguous rows
        assert arr.ndim == 1 or arr.strides[0] == arr.itemsize
        assert not arr.flags.writeable
        assert arr.base is None or not arr.base.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def layouts(pts):
    # the same vertices as F-ordered, strided and integer arrays
    strided = np.zeros((2 * len(pts), 7))[::2, 1::2]
    strided[...] = pts
    return {
        "fortran": np.asfortranarray(pts),
        "strided": strided,
        "integer": pts.astype(np.int64),
    }


def pair_reductions(curve):
    # the chord-arc reductions defined for the curve's topology
    if curve.topology == CLOSED:
        return [*ratio_minima(curve), ratio_field(curve).values]
    if curve.topology == PERIODIC:
        return [min_pair_ratio(curve)]
    return []


def curve_bytes(curve, path):
    write_curve(curve, path)
    return path.read_bytes()


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC, OPEN])
def test_kernels_do_not_depend_on_input_layout(topology, tmp_path):
    pts, offset = sphere_curve(topology, scale=1e6)
    ref = SampledCurve(pts, topology, offset)
    ref_geom = compute_geometry(ref)
    dt = 0.5 * stable_step(ref_geom)
    steps = (step_explicit, step_semi_implicit)
    ref_steps = [step(make_state(ref), dt) for step in steps]
    ref_geodesic = step_geodesic_flow(RescaledState(ref, 0.0), dt)
    ref_resampled = [resample_uniform(ref, m).points for m in (17, 31)]
    ref_reductions = pair_reductions(ref)
    for name, variant in layouts(pts).items():
        curve = SampledCurve(variant, topology, offset)
        assert not curve.points.flags.writeable, name
        assert np.shares_memory(curve.points, curve._wrapped), name
        assert not np.shares_memory(curve.points, variant), name
        geom = compute_geometry(curve)
        for name in (*GEOMETRY_ARRAYS, "total_length"):
            assert same_bits(getattr(geom, name), getattr(ref_geom, name)), name
        for step, expected in zip(steps, ref_steps):
            moved = step(make_state(curve), dt)
            assert same_bits(moved.curve.points, expected.curve.points), name
        moved = step_geodesic_flow(RescaledState(curve, 0.0), dt)
        assert same_bits(moved.curve_tilde.points, ref_geodesic.curve_tilde.points)
        for m, expected in zip((17, 31), ref_resampled):
            assert same_bits(resample_uniform(curve, m).points, expected), (name, m)
        for got, expected in zip(pair_reductions(curve), ref_reductions, strict=True):
            assert same_bits(got, expected), name
        # the file of a C-ordered float copy of the variant, since the
        # integer copy holds +0.0 where the rounding left -0.0
        c_ordered = SampledCurve(np.ascontiguousarray(variant, float), topology, offset)
        written = curve_bytes(curve, tmp_path / "variant.txt")
        assert written == curve_bytes(c_ordered, tmp_path / "c_ordered.txt"), name
