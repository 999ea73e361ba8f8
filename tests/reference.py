"""The references the tests compare the package against, one of each.

Test modules import them as ``from reference import ...`` and from no other
test module; ``test_shared_references`` checks both.  Each reference is the
arithmetic of a kernel spelled with numpy's generic calls (``np.linalg.norm``,
``np.roll``, ``np.einsum``, a dense or LAPACK solve) on C-ordered (n, 3)
vertices, and each test compares at its own stated strictness: ``same_bits``
(every bit, signed zeros included), ``same_values`` (bits where a value is
nonzero, == where both are zero) or a tolerance.

The one place where the bits of a reference and a kernel may part is the
sign of a zero in the Laplacian.  The kernel forms it as c (p+ - p) -
a (p - p-), ``reference_geometry`` as a (p- - p) + c (p+ - p); x - x is
+0.0 both ways round, so the two differ only where a coordinate of a vertex
and of its neighbours are zeros of mixed sign, as ``planar_vertices`` draws
them.  ``brute_force_field`` reads the package through ``cs.``, as the
acceptance gate that calls it does.
"""

import math

import numpy as np
from scipy.linalg.lapack import dptsv

import csflab as cs
from csflab import CLOSED, SPHERE_PERTURBED, SampledCurve, build_curve, make_preset
from csflab.curve import OPEN, PERIODIC, segment_lengths
from csflab.sphere import rescale
from csflab.tridiag import solve_cyclic_tridiagonal

# ------------------------------------------------------------ bit comparisons


def bits(x):
    # the int64 view of a C-ordered float copy: equal views, equal bits
    return np.ascontiguousarray(np.asarray(x, dtype=float)).view(np.int64)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(bits(x), bits(y))


def same_values(x, y):
    # the sign rule of the Laplacian's zeros: bits where a value is nonzero,
    # == where both values are zero
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.array_equal(x, y) and same_bits(x[x != 0.0], y[y != 0.0])


# -------------------------------------------------------------------- curves


def circle(n, r=1.0):
    th = np.arange(n) * (2.0 * math.pi / n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(n)])
    return SampledCurve(pts, CLOSED)


def helix(n, a=1.0, b=1.0, periods=1):
    u = np.arange(n) * (periods * 2.0 * math.pi / n)
    pts = np.column_stack([a * np.cos(u), a * np.sin(u), b * u])
    return SampledCurve(pts, PERIODIC, offset=(0.0, 0.0, periods * 2.0 * math.pi * b))


def planar_vertices(rng, n):
    # a rounded circle of radius 4n with +-1 integer noise: consecutive
    # vertices lie about 25 apart, x and y values repeat near the extremes,
    # and z is +0.0 or -0.0 at random
    u = np.arange(n) * (2.0 * np.pi / n)
    xy = np.round(4.0 * n * np.column_stack([np.cos(u), np.sin(u)]))
    xy += rng.integers(-1, 2, size=(n, 2))
    return np.column_stack([xy, rng.choice([0.0, -0.0], n)])


def random_curve(seed, n, topology, scale=1.0, planar=False, on_sphere=False):
    # normal vertices (or planar ones) times scale; a periodic curve's offset
    # is drawn after them
    rng = np.random.default_rng(seed)
    pts = planar_vertices(rng, n) if planar else rng.normal(size=(n, 3))
    if on_sphere:
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    offset = rng.normal(size=3) * 3.0 * scale if topology == PERIODIC else None
    if planar and offset is not None:
        offset[2] = rng.choice([0.0, -0.0])  # the wrap vertices stay planar
    return SampledCurve(pts * scale, topology, offset)


def wavy_curve(seed, n, topology, noise, on_sphere=False):
    # a wavy loop (a line for open curves) with relative noise of size noise
    rng = np.random.default_rng(seed)
    u = np.arange(n) * (2.0 * math.pi / n)
    if topology == OPEN:
        u = np.linspace(0.0, 2.0, n)
    pts = np.column_stack([np.cos(u), np.sin(u), 0.3 * np.sin(3.0 * u)])
    if topology == OPEN:
        pts[:, 0] = 1.0 + u
    elif topology == PERIODIC:  # one turn rises by the offset
        pts[:, 2] += u / math.pi
    pts += noise * rng.normal(size=pts.shape)
    if on_sphere:
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    offset = (0.0, 0.0, 2.0) if topology == PERIODIC else None
    return SampledCurve(pts, topology, offset)


def smooth_curve(seed, n, topology, amp):
    """A closed, periodic or open curve with random low harmonics of size amp."""
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(3, 3)) * amp
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(3, 3))
    if topology == OPEN:
        u = np.linspace(0.0, math.pi, n)
        base = np.column_stack([u, np.zeros(n), np.zeros(n)])
    else:
        u = np.arange(n) * (2.0 * math.pi / n)
        rise = 0.3 * u if topology == PERIODIC else np.zeros(n)
        base = np.column_stack([1.5 * np.cos(u), np.sin(u), rise])
    for k in range(3):  # harmonic k + 2, amplitude over k + 2: no loops form
        base += coef[k] / (k + 2) * np.cos((k + 2) * u[:, None] + phase[k])
    offset = np.array([0.0, 0.0, 0.6 * math.pi]) if topology == PERIODIC else None
    return SampledCurve(base, topology, offset)


def perturbed_start(n, topology=CLOSED, eps=0.2, harmonic=3):
    # the perturbed-sphere preset on the unit sphere at dilated time t(0); an
    # open start is its first two thirds
    curve = build_curve(make_preset(SPHERE_PERTURBED, n=n, eps=eps, harmonic=harmonic))
    if topology == OPEN:
        curve = SampledCurve(curve.points[: 2 * n // 3], OPEN)
    return rescale(curve, 0.0)


# ------------------------------------------------------------------ geometry


def reference_segments(curve):
    pts = np.ascontiguousarray(curve.points)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if curve.topology == CLOSED:
        seg = np.append(seg, np.linalg.norm(pts[0] - pts[-1]))
    elif curve.topology == PERIODIC:
        seg = np.append(seg, np.linalg.norm(pts[0] + curve.offset - pts[-1]))
    return seg


def reference_geometry(curve):
    # the arrays of compute_geometry, by name
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


# --------------------------------------------------------------------- steps


def projected(pts):
    # each vertex radially onto the unit sphere
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def explicit_step(curve, geom, dt):
    # the vertices moved by dt times the curvature vectors of ``geom``; open
    # ends stay
    move = dt * geom["curvature_vectors"]
    if curve.topology == OPEN:
        move[0] = move[-1] = 0.0
    return curve.points + move


def backward_euler(curve, geom, dt):
    """The vertices after one mass-lumped backward-Euler step on the rows of
    ``geom``: coupling -dt/h per segment, diagonal ds + dt/h- + dt/h+ and
    right-hand side dt ds Lap.  Cyclic rows solve through the package's
    cyclic solve, open ones through SciPy's own dptsv, and the fixed ends of
    an open curve move by +0.0."""
    seg = geom["segment_lengths"]
    if curve.topology == OPEN:
        ds, hm, hp, off = geom["ds"][1:-1], seg[:-1], seg[1:], seg[1:-1]
    else:
        ds, hm, hp, off = geom["ds"], np.roll(seg, 1), seg, seg
    system = (ds + dt / hm + dt / hp, -(dt / off), geom["laplacian"] * (dt * ds)[:, None])
    if curve.topology != OPEN:
        return curve.points + solve_cyclic_tridiagonal(*system)
    delta = np.zeros((curve.n, 3))
    *_, delta[1:-1], info = dptsv(*system)
    assert info == 0
    return curve.points + delta


def geodesic_step(curve, geom, dt):
    # the backward-Euler step, then the radial projection
    return projected(backward_euler(curve, geom, dt))


def dense_backward_euler(curve, dt):
    """The vertices after the unscaled step (I - dt Lap) delta = dt Lap p:
    the stencil weights a = 2 / (h- (h- + h+)) and c = 2 / (h+ (h- + h+)),
    the right-hand side rows a (p- - p) + c (p+ - p), and the matrix
    assembled densely over all n vertices and solved by numpy.linalg.solve;
    open ends stay."""
    seg, pts, n = segment_lengths(curve), curve.points, curve.n
    hm, hp = (np.roll(seg, 1), seg) if curve.is_cyclic() else (seg[:-1], seg[1:])
    a, c = 2.0 / (hm * (hm + hp)), 2.0 / (hp * (hm + hp))
    first = 0 if curve.is_cyclic() else 1
    rows = np.arange(first, first + len(a))  # the vertex of each row
    prev, cur, nxt = pts[(rows - 1) % n], pts[rows], pts[(rows + 1) % n]
    if curve.topology == PERIODIC:  # the wrap neighbours lie a period away
        prev[0] -= curve.offset
        nxt[-1] += curve.offset
    lap = np.zeros((len(a), n))  # the Laplacian rows, over all n vertices
    lap[range(len(a)), (rows - 1) % n] += a
    lap[range(len(a)), rows] -= a + c
    lap[range(len(a)), (rows + 1) % n] += c
    moved = pts.copy()
    moved[rows] += np.linalg.solve(
        np.eye(len(a)) - dt * lap[:, rows],
        dt * (a[:, None] * (prev - cur) + c[:, None] * (nxt - cur)),
    )
    return moved


# ---------------------------------------------------------------------- laws


def ellipse_area_at(a, b, t):
    # the area of the ellipse of semi-axes a and b after time t of flow: a
    # convex planar curve loses its total turning, 2 pi, of area per unit time
    return math.pi * (a * b - 2.0 * t)


def helix_dl_min_at(a0, b, t):
    # (d/l)_min of the helix of radius a(t) and pitch 2 pi b, that of its
    # period pair: chord 2 pi b over arc 2 pi sqrt(a(t)^2 + b^2)
    a = cs.helix_radius_at(a0, b, t)
    return b / math.sqrt(a * a + b * b)


# ----------------------------------------------------------------- chord-arc


def brute_force_field(curve, metric, band):
    # the closed pair table cell by cell, with the kernel's cell arithmetic
    pts = curve.points
    n = curve.n
    s, length = cs.arc_positions(curve)
    out = np.full((n, n), math.nan)
    for i in range(n):
        for j in range(n):
            if min(abs(i - j), n - abs(i - j)) <= band:
                continue
            dx = pts[i, 0] - pts[j, 0]
            dy = pts[i, 1] - pts[j, 1]
            dz = pts[i, 2] - pts[j, 2]
            d = np.sqrt(dx * dx + dy * dy + dz * dz)
            fwd = np.abs(s[i] - s[j])
            arc = min(fwd, length - fwd)
            if metric == cs.D_OVER_L:
                out[i, j] = d / arc
            else:
                out[i, j] = d / ((length / math.pi) * np.sin(arc * math.pi / length))
    return out
