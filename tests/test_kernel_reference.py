"""The step kernel against reference code written with numpy's generic calls.

``compute_geometry``, the explicit step, the geodesic step and the cyclic
solve write out row norms and the Sherman-Morrison correction by hand, and
``resample_uniform`` reads the curve's closure from the constructor.  Each
reference below is the same arithmetic spelled with ``np.linalg.norm``,
``np.roll``, ``np.hstack``, ``np.vstack`` and ``np.outer`` (the geodesic
step's on the stencil rows of the reference geometry), on C-ordered copies
of the vertices, since ``np.einsum`` adds in another order on other layouts.
``reference_decomposition``, the geodesic/normal split of the curvature
vector, has no kernel to match: it is the one split, read by the oracles and
the explicit reference step of ``test_sphere``, always on
``reference_geometry``'s arrays.  ``reference_arc_curvature_integral``
measures the arc positions and picks the shorter arc on its own, as a
separate routine; ``pair_diagnostics`` reads both from its pair frame.
Results must agree bit for bit, signed zeros included, with one stated
exception.  The kernel forms the Laplacian as c (p+ - p) - a (p - p-),
which is the reference's a (p- - p) + c (p+ - p) up to the sign of a zero:
x - x is +0.0 both ways round.  So ``laplacian``, ``curvature_vectors``
and the geodesic step's vertices, whose solve takes the Laplacian as its
right-hand side, must agree bit for bit where a value is nonzero and
compare equal (==) where both values are zero.  Everything else keeps
every bit: the two zeros differ only where the vertex's own coordinate is
+0.0, to which the explicit step adds either zero, and ``row_dot`` of
zeros is +0.0 either way.  The planar curves that ``CURVES`` draws, whose
z-coordinates mix +0.0 and -0.0 and whose x and y values repeat, hold such
zeros; the ``rng.normal`` curves hold none.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csflab import (
    CLOSED,
    SampledCurve,
    arc_positions,
    compute_geometry,
    total_absolute_curvature,
)
from csflab.chordarc import pair_diagnostics
from csflab.curve import MIN_VERTICES, OPEN, PERIODIC, resample_uniform, segment_lengths
from csflab.flow import make_state, stable_step, step_explicit
from csflab.sphere import RescaledState, step_geodesic_flow
from csflab.tridiag import solve_cyclic_tridiagonal, solve_tridiagonal


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(np.int64), np.ascontiguousarray(y).view(np.int64)
    )


def same_values(x, y):
    # the sign rule of the Laplacian's zeros: bits where a value is nonzero,
    # == where both values are zero
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.array_equal(x, y) and same_bits(x[x != 0.0], y[y != 0.0])


def planar_vertices(rng, n):
    # a rounded circle of radius 4n with +-1 integer noise: consecutive
    # vertices lie about 25 apart, x and y values repeat near the extremes,
    # and z is +0.0 or -0.0 at random
    u = np.arange(n) * (2.0 * np.pi / n)
    xy = np.round(4.0 * n * np.column_stack([np.cos(u), np.sin(u)]))
    xy += rng.integers(-1, 2, size=(n, 2))
    return np.column_stack([xy, rng.choice([0.0, -0.0], n)])


def random_curve(seed, n, topology, scale, planar=False, on_sphere=False):
    rng = np.random.default_rng(seed)
    pts = planar_vertices(rng, n) if planar else rng.normal(size=(n, 3))
    if on_sphere:
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    offset = rng.normal(size=3) * 3.0 * scale if topology == PERIODIC else None
    if planar and offset is not None:
        offset[2] = rng.choice([0.0, -0.0])  # the wrap vertices stay planar
    return SampledCurve(pts * scale, topology, offset)


def reference_segments(curve):
    pts = np.ascontiguousarray(curve.points)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if curve.topology == CLOSED:
        seg = np.append(seg, np.linalg.norm(pts[0] - pts[-1]))
    elif curve.topology == PERIODIC:
        seg = np.append(seg, np.linalg.norm(pts[0] + curve.offset - pts[-1]))
    return seg


def reference_geometry(curve):
    pts = np.ascontiguousarray(curve.points)
    seg = reference_segments(curve)
    if curve.is_cyclic():
        prev, nxt = np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)
        if curve.topology == PERIODIC:
            prev[0] = pts[-1] - curve.offset
            nxt[-1] = pts[0] + curve.offset
        cur, hm, hp = pts, np.roll(seg, 1), seg
    else:
        prev, cur, nxt = pts[:-2], pts[1:-1], pts[2:]
        hm, hp = seg[:-1], seg[1:]
    chord = nxt - prev
    a = 2.0 / (hm * (hm + hp))
    c = 2.0 / (hp * (hm + hp))
    lap = a[:, None] * (prev - cur) + c[:, None] * (nxt - cur)
    tangents = chord / np.linalg.norm(chord, axis=1)[:, None]
    raw, ds = lap, 0.5 * (hm + hp)
    if not curve.is_cyclic():
        head = (pts[1] - pts[0]) / seg[0]
        tail = (pts[-1] - pts[-2]) / seg[-1]
        tangents = np.vstack([head, tangents, tail])
        raw = np.vstack([lap[:1], lap, lap[-1:]])
        ds = np.concatenate([[0.5 * seg[0]], ds, [0.5 * seg[-1]]])
    kvec = raw - np.einsum("ij,ij->i", raw, tangents)[:, None] * tangents
    return dict(
        tangents=tangents,
        curvature_vectors=kvec,
        scalar_curvature=np.linalg.norm(kvec, axis=1),
        ds=ds,
        total_length=float(np.sum(seg)),
        segment_lengths=seg,
        laplacian=lap,
    )


def reference_resample(curve, m):
    # the closing vertex stacked onto the vertices, cumulative arc length and
    # a sorted search for the segment of each equally spaced target
    pts = np.ascontiguousarray(curve.points)
    if curve.topology == CLOSED:
        ext = np.vstack([pts, pts[0]])
    elif curve.topology == PERIODIC:
        ext = np.vstack([pts, pts[0] + curve.offset])
    else:
        ext = pts
    seg = reference_segments(curve)
    cum = np.cumsum(np.append(0.0, seg))
    if curve.topology == OPEN:
        targets = np.arange(m) * (cum[-1] / (m - 1))
        targets[-1] = cum[-1]
    else:
        targets = np.arange(m) * (cum[-1] / m)
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    new = ext[idx] + frac[:, None] * (ext[idx + 1] - ext[idx])
    if curve.topology == OPEN:
        new[[0, -1]] = pts[[0, -1]]
    return new


def reference_decomposition(curve, geom):
    # k_g * q_vec + k_n * n_vec rebuilds the curvature vector to roundoff:
    # n_vec, the inner normal, is made exactly orthogonal to the discrete
    # tangent, whose O(h^2) tilt against the position would otherwise leak
    # into the rebuild, and q_vec = n_vec x tangent completes the frame
    pts = np.ascontiguousarray(curve.points)
    radii = np.linalg.norm(pts, axis=1)
    inward = -pts / radii[:, None]
    tangents = geom["tangents"]
    tilt = np.einsum("ij,ij->i", inward, tangents)
    n_vec = inward - tilt[:, None] * tangents
    n_vec = n_vec / np.linalg.norm(n_vec, axis=1)[:, None]
    q_vec = np.cross(n_vec, tangents)
    q_vec = q_vec / np.linalg.norm(q_vec, axis=1)[:, None]
    kvec = geom["curvature_vectors"]
    return dict(
        k_g=np.einsum("ij,ij->i", kvec, q_vec),
        k_n=np.einsum("ij,ij->i", kvec, n_vec),
        n_vec=n_vec,
        q_vec=q_vec,
        radius=float(np.mean(radii)),
    )


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
    move = dt * reference_geometry(curve)["curvature_vectors"]
    if topology == OPEN:
        move[0] = move[-1] = 0.0
    nxt = step_explicit(state, dt)
    assert same_bits(nxt.curve.points, curve.points + move)
    assert nxt.t == dt and nxt.step == 1


@settings(max_examples=60, deadline=None)
@given(**CURVES, fraction=st.floats(0.01, 100.0), t_tilde=st.floats(0.0, 5.0))
def test_geodesic_step_equals_cross_reference(
    seed, n, topology, scale, planar, fraction, t_tilde
):
    # the mass-lumped backward-Euler system on the reference geometry, with
    # the couplings dt / h of its segments, then the radial projection; any
    # positive dt is stable
    curve = random_curve(seed, n, topology, scale, planar, on_sphere=True)
    geom = reference_geometry(curve)
    dt = fraction * stable_step(compute_geometry(curve))
    seg = geom["segment_lengths"]
    if topology == OPEN:
        ds, hm, hp, off = geom["ds"][1:-1], seg[:-1], seg[1:], seg[1:-1]
    else:
        ds, hm, hp, off = geom["ds"], np.roll(seg, 1), seg, seg
    system = (ds + dt / hm + dt / hp, -(dt / off), geom["laplacian"] * (dt * ds)[:, None])
    moved = curve.points.copy()
    if topology == OPEN:
        moved[1:-1] += solve_tridiagonal(*system)
    else:
        moved += solve_cyclic_tridiagonal(*system)
    projected = moved / np.linalg.norm(moved, axis=1)[:, None]
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
