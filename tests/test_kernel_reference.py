"""The step kernel against the references of ``reference``.

``compute_geometry``, the explicit step, the geodesic step and the cyclic
solve write out row norms and the Sherman-Morrison correction by hand, and
``resample_uniform`` reads the curve's closure from the constructor and its
spline's second derivatives from ``compute_geometry``'s Laplacian.  Each
is compared with ``reference``'s geometry and steps, or with a reference
below spelled with ``np.hstack``, ``np.vstack`` and ``np.outer``, on
C-ordered copies of the vertices, since ``np.einsum`` adds in another order
on other layouts.  ``reference_arc_curvature_integral`` measures the arc
positions and picks the shorter arc on its own, as a separate routine;
``pair_diagnostics`` reads both from its pair frame.  Results must agree bit
for bit, signed zeros included, with one stated exception: ``laplacian``,
``curvature_vectors`` and the geodesic step's vertices, whose solve takes
the Laplacian as its right-hand side, are compared by ``same_values``, the
sign rule of the Laplacian's zeros that ``reference`` states.  Everything
else keeps every bit: the two zeros differ only where the vertex's own
coordinate is +0.0, its predecessor's +0.0 and its successor's -0.0.  The
explicit step adds either zero to that +0.0; the resample adds it to
a p_i + b p_{i+1} on the two segments of the vertex, +0.0 on both; and
``row_dot`` of zeros is +0.0 either way.  The planar curves that ``CURVES``
draws, whose z-coordinates mix +0.0 and -0.0 and whose x and y values
repeat, hold such zeros; the ``rng.normal`` curves hold none.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csflab import CLOSED, arc_positions, compute_geometry, total_absolute_curvature
from csflab.chordarc import pair_diagnostics
from csflab.curve import MIN_VERTICES, OPEN, PERIODIC, resample_uniform, segment_lengths
from csflab.flow import make_state, stable_step, step_explicit
from csflab.sphere import RescaledState, step_geodesic_flow
from csflab.tridiag import solve_cyclic_tridiagonal, solve_tridiagonal
from reference import (
    explicit_step,
    geodesic_step,
    random_curve,
    reference_geometry,
    reference_segments,
    same_bits,
    same_values,
)


def reference_resample(curve, m):
    # the closing vertex stacked onto the vertices, cumulative arc length, a
    # sorted search for the segment of each equally spaced target, and the
    # cubic spline whose second derivatives M are reference_geometry's
    # Laplacian rows, M_n = M_0 on cyclic curves, the ends of an open curve
    # taking the adjacent row; a^3 - a = -a b (1 + a), and b^3 - b alike
    pts = np.ascontiguousarray(curve.points)
    lap = reference_geometry(curve)["laplacian"]
    if curve.topology == CLOSED:
        ext, rows = np.vstack([pts, pts[0]]), np.vstack([lap, lap[0]])
    elif curve.topology == PERIODIC:
        ext, rows = np.vstack([pts, pts[0] + curve.offset]), np.vstack([lap, lap[0]])
    else:
        ext, rows = pts, np.vstack([lap[0], lap, lap[-1]])
    seg = reference_segments(curve)
    cum = np.cumsum(np.append(0.0, seg))
    if curve.topology == OPEN:
        targets = np.arange(m) * (cum[-1] / (m - 1))
        targets[-1] = cum[-1]
    else:
        targets = np.arange(m) * (cum[-1] / m)
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(seg) - 1)
    b = (targets - cum[idx]) / seg[idx]
    a = 1.0 - b
    w = seg[idx] * seg[idx] * (a * b) / -6.0
    a, b, w = a[:, None], b[:, None], w[:, None]
    new = a * ext[idx] + b * ext[idx + 1]
    new += w * ((1.0 + a) * rows[idx] + (1.0 + b) * rows[idx + 1])
    if curve.topology == OPEN:
        new[[0, -1]] = pts[[0, -1]]
    return new


def reference_cyclic_solve(diag, off, rhs):
    # the Sherman-Morrison wrap as a stacked copy and an outer product
    n = diag.size
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    gamma = -diag[0]
    mod_diag = diag.copy()
    mod_diag[0] -= gamma
    mod_diag[-1] -= off[-1] * off[-1] / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = off[-1]
    sol = solve_tridiagonal(mod_diag, off[:-1], np.hstack([b, u[:, None]]))
    y, z = sol[:, :-1], sol[:, -1]
    denom = 1.0 + z[0] + (off[-1] / gamma) * z[-1]
    vy = y[0] + (off[-1] / gamma) * y[-1]
    x = y - np.outer(z, vy / denom)
    return x[:, 0] if single else x


def reference_arc_curvature_integral(curve, i, j):
    # the |k| ds integral over the shorter arc from vertex i to vertex j, the
    # two end vertices at half weight, so the two arcs add up to the total
    geom = compute_geometry(curve)
    kds = geom.scalar_curvature * geom.ds
    s, length = arc_positions(curve)
    lo, hi = (i, j) if i < j else (j, i)
    span = slice(lo, hi + 1)
    forward = float(np.sum(kds[span])) - 0.5 * float(kds[lo]) - 0.5 * float(kds[hi])
    if s[hi] - s[lo] <= length - (s[hi] - s[lo]):
        return forward
    return total_absolute_curvature(geom) - forward


CURVES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 64),
    topology=st.sampled_from([CLOSED, PERIODIC, OPEN]),
    scale=st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
    planar=st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(**CURVES)
def test_geometry_equals_norm_reference(seed, n, topology, scale, planar):
    curve = random_curve(seed, n, topology, scale, planar)
    expected = reference_geometry(curve)
    assert same_bits(segment_lengths(curve), expected["segment_lengths"])
    geom = compute_geometry(curve)
    for name, value in expected.items():
        same = same_values if name in ("laplacian", "curvature_vectors") else same_bits
        assert same(getattr(geom, name), value), name
    # the centre rows only, read-only
    rows = n if curve.is_cyclic() else n - 2
    assert len(geom.laplacian) == rows and not geom.laplacian.flags.writeable


@settings(max_examples=80, deadline=None)
@given(**CURVES, data=st.data())
def test_resample_equals_stacked_reference(seed, n, topology, scale, planar, data):
    curve = random_curve(seed, n, topology, scale, planar)
    m = data.draw(st.integers(MIN_VERTICES[topology], 2 * n), label="m")
    resampled = resample_uniform(curve, m)
    assert same_bits(resampled.points, reference_resample(curve, m))
    assert resampled.topology == topology
    if topology == PERIODIC:
        assert same_bits(resampled.offset, curve.offset)


@settings(max_examples=60, deadline=None)
@given(**CURVES, fraction=st.floats(0.01, 1.0))
def test_explicit_step_equals_reference(seed, n, topology, scale, planar, fraction):
    curve = random_curve(seed, n, topology, scale, planar)
    state = make_state(curve)
    dt = fraction * stable_step(state.geometry)
    nxt = step_explicit(state, dt)
    assert same_bits(nxt.curve.points, explicit_step(curve, reference_geometry(curve), dt))
    assert nxt.t == dt and nxt.step == 1


@settings(max_examples=60, deadline=None)
@given(**CURVES, fraction=st.floats(0.01, 100.0), t_tilde=st.floats(0.0, 5.0))
def test_geodesic_step_equals_cross_reference(
    seed, n, topology, scale, planar, fraction, t_tilde
):
    # the mass-lumped backward-Euler step on the reference geometry, then the
    # radial projection; any positive dt is stable
    curve = random_curve(seed, n, topology, scale, planar, on_sphere=True)
    dt = fraction * stable_step(compute_geometry(curve))
    projected = geodesic_step(curve, reference_geometry(curve), dt)
    nxt = step_geodesic_flow(RescaledState(curve, t_tilde), dt)
    assert same_values(nxt.curve_tilde.points, projected)
    assert nxt.t_tilde == t_tilde + dt


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 64),
    columns=st.sampled_from([None, 1, 3, 4]),
    scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
)
def test_cyclic_solve_equals_outer_reference(seed, n, columns, scale):
    # diagonally dominant with a positive diagonal: positive definite
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n) * scale
    diag = (2.5 + rng.uniform(0.0, 1.0, n)) * scale
    rhs = rng.standard_normal(n if columns is None else (n, columns))
    x = solve_cyclic_tridiagonal(diag, off, rhs)
    assert same_bits(x, reference_cyclic_solve(diag, off, rhs))


@settings(max_examples=60, deadline=None)
@given(
    seed=CURVES["seed"],
    n=CURVES["n"],
    scale=CURVES["scale"],
    planar=CURVES["planar"],
    data=st.data(),
)
def test_arc_curvature_equals_the_integral_reference(seed, n, scale, planar, data):
    # every pair in both orientations, from one call
    curve = random_curve(seed, n, CLOSED, scale, planar)
    index = st.integers(0, n - 1)
    pairs = data.draw(
        st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]), min_size=1),
        label="pairs",
    )
    pairs += [(j, i) for i, j in pairs]
    for (i, j), diag in zip(pairs, pair_diagnostics(curve, pairs), strict=True):
        assert same_bits(diag.arc_curvature, reference_arc_curvature_integral(curve, i, j))
