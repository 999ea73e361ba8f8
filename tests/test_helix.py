"""Closed-form helix evaluators against independent oracles."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from csflab import (
    HELIX,
    HelixParams,
    build_curve,
    compute_geometry,
    helix_pair_condition,
    helix_pair_condition_scaled,
    helix_radius_at,
    helix_ratio_time_derivative,
    make_preset,
    negative_condition_cells,
    scaled_condition_threshold,
    total_absolute_curvature,
)
from csflab.chordarc import pair_diagnostics
from csflab.errors import DiagonalPairError, DomainError, InvalidArgumentError
from csflab.helix import (
    SERIES_Y,
    GraphCurveSpec,
    _two_minus_two_cos,
    cosine_taylor_gap,
    graph_curve_condition,
    helix_graph_spec,
    shrinking_circle_radius,
)
from csflab.presets import (
    CIRCLE,
    COS2U_CURVE,
    CUSTOM_FILE,
    ELLIPSE,
    GRAPH_CURVE,
    PRESET_NAMES,
    SPHERE_PERTURBED,
    graph_spec_for,
)
from csflab import presets
import csflab


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        HelixParams(0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        HelixParams(-1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        HelixParams(math.nan, 1.0)
    assert HelixParams(2.0, 1.0).m == 0.25


def chord_arc_ratio(a, b, y):
    arc = y * math.hypot(a, b)
    chord = math.sqrt(a * a * (2.0 - 2.0 * math.cos(y)) + b * b * y * y)
    return chord / arc


def test_ratio_derivative_matches_chain_rule():
    # d/dt (d/l) along the flow, where only a(t) moves: a' = -a/(a^2+b^2)
    for a, b, y in [(1.0, 1.0, 2 * math.pi), (1.0, 0.5, 3.0), (2.0, 1.0, 10.0)]:
        aprime = -a / (a * a + b * b)
        eps = 1e-6
        fd = (
            chord_arc_ratio(a + eps * aprime, b, y)
            - chord_arc_ratio(a - eps * aprime, b, y)
        ) / (2.0 * eps)
        got = helix_ratio_time_derivative(HelixParams(a, b), y)
        assert abs(got - fd) < 1e-9


def test_ratio_derivative_special_values():
    # (a=1, b=1, y=2pi): l = 2pi sqrt(2), d = 2pi, factor = 2pi^2
    got = helix_ratio_time_derivative(HelixParams(1.0, 1.0), 2.0 * math.pi)
    l = 2.0 * math.pi * math.sqrt(2.0)
    d = 2.0 * math.pi
    expected = (2.0 * 1.0 / (l * d * 2.0)) * 0.5 * (2.0 * math.pi**2)
    assert abs(got - expected) < 1e-15
    assert abs(got - 1.0 / (4.0 * math.sqrt(2.0))) < 1e-15
    # a circle (b = 0) keeps its ratios: derivative identically zero
    ys = np.linspace(0.1, 20.0, 50)
    assert np.abs(helix_ratio_time_derivative(HelixParams(1.0, 0.0), ys)).max() == 0.0


def test_ratio_derivative_nonnegative_on_grid():
    ys = np.linspace(1e-3, 8 * math.pi, 800)
    for a in (0.5, 1.0, 2.0):
        for m in np.logspace(-2, 2, 25):
            b = a * math.sqrt(m)
            vals = helix_ratio_time_derivative(HelixParams(a, b), ys)
            assert vals.min() >= -1e-12


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.1, 10.0),
    m=st.floats(0.0, 100.0),
    y=st.floats(1e-4, 40.0),
)
def test_ratio_derivative_nonnegative_property(a, m, y):
    b = a * math.sqrt(m)
    assert helix_ratio_time_derivative(HelixParams(a, b), y) >= -1e-12


def test_cosine_taylor_gap_nonnegative_and_continuous():
    ys = np.linspace(1e-6, 30.0, 4000)
    assert cosine_taylor_gap(ys).min() >= 0.0
    # small-y leading term
    assert abs(cosine_taylor_gap(1e-2) - 1e-8 / 24.0) < 1e-12
    # both sides of the series switch agree
    lo, hi = cosine_taylor_gap(0.1 - 1e-9), cosine_taylor_gap(0.1 + 1e-9)
    assert abs(lo - hi) < 1e-12


def test_pair_condition_signs():
    assert helix_pair_condition(2.0 * math.pi, 0.01) < -0.1
    assert helix_pair_condition(2.0 * math.pi, 10.0) > 0.0
    for m in np.logspace(-2, 2, 40):
        assert abs(helix_pair_condition(1e-4, m)) < 1e-6


def test_pair_condition_series_branch_continuous():
    # values straddling the series switch at y = 1e-3 may differ only by
    # the direct branch's rounding noise, far below the F ~ 1e-6 scale
    for m in (0.0, 0.3, 1.0, 20.0):
        below = helix_pair_condition(0.999e-3, m)
        above = helix_pair_condition(1.001e-3, m)
        assert abs(below - above) < 1e-8
        # within the series branch, F/y^2 is essentially constant
        r1 = helix_pair_condition(0.5e-3, m) / 0.5e-3**2
        r2 = below / 0.999e-3**2
        assert abs(r1 - r2) < 1e-5 * max(1.0, abs(r2))


def test_pair_condition_matches_discrete_minimum_condition():
    # the closed form equals the d/l minimum condition of the sampled helix
    # evaluated at the one-period offset pair
    for a, b in [(1.0, 1.0), (1.0, 0.5)]:
        n = 1024
        c = build_curve(make_preset(HELIX, n=n, a=a, b=b))
        (diag,) = pair_diagnostics(c, [(0, n)])
        assert diag.total_curvature == total_absolute_curvature(compute_geometry(c))
        cond = diag.cond_dl
        F = helix_pair_condition(2.0 * math.pi, (b / a) ** 2)
        assert abs(cond - F) < 2e-2 * max(1.0, abs(F))


def test_scaled_condition_is_clearing_of_denominators():
    ys = np.linspace(0.05, 4 * math.pi, 300)
    for m in (0.02, 0.5, 1.0, 7.0):
        F = helix_pair_condition(ys, m)
        G = helix_pair_condition_scaled(ys, m)
        assert np.abs(G - (1.0 + m) ** 2 * F).max() < 1e-10 * np.abs(G).max()


def reference_pair_condition(y, m):
    # F(y, m) as its own hand-expanded formula, before it became G / (1+m)^2
    v = _two_minus_two_cos(y)
    y2 = y * y
    one_m = 1.0 + m
    return (
        -4.0
        + v / one_m
        + 4.0 * m / one_m
        + 4.0 * v / (one_m * y2)
        + (v + m * y2) / (one_m * one_m)
    )


# twice the largest |F - reference| measured over 8 million random (m, y)
# with m in [0, 1e3] and y in (0, 40]: a few units in the last place of the
# largest term, m y^2 / (1+m)^2 <= y^2 / 4
F_REFERENCE_BOUND = 2.3e-13


@settings(max_examples=300, deadline=None)
@given(
    m=st.floats(0.0, 1e3),
    y=st.one_of(st.floats(1e-12, SERIES_Y), st.floats(1e-12, 40.0)),
)
def test_pair_condition_matches_the_expanded_reference(m, y):
    got = helix_pair_condition(y, m)
    expected = reference_pair_condition(y, m)
    assert abs(got - expected) <= F_REFERENCE_BOUND
    if abs(expected) > F_REFERENCE_BOUND:
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_pair_condition_matches_the_reference_on_a_grid():
    ys = np.concatenate([np.geomspace(1e-8, SERIES_Y, 200), np.linspace(SERIES_Y, 40.0, 5000)])
    for m in np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 299)]):
        got = helix_pair_condition(ys, m)
        expected = reference_pair_condition(ys, m)
        assert np.abs(got - expected).max() <= F_REFERENCE_BOUND
        clear = np.abs(expected) > F_REFERENCE_BOUND
        assert np.array_equal(np.sign(got[clear]), np.sign(expected[clear]))


@pytest.mark.parametrize(
    "m_grid, y_grid",
    [
        pytest.param([[0.1, 0.2]], [0.5, 1.0], id="2d-m"),
        pytest.param([0.5], [[0.5, 1.0]], id="2d-y"),
        pytest.param([], [0.5, 1.0], id="empty-m"),
        pytest.param([0.5], [], id="empty-y"),
        pytest.param([0.5, math.nan], [0.5, 1.0], id="nan-m"),
        pytest.param([0.5], [0.5, math.nan], id="nan-y"),
        pytest.param([0.5, -0.1], [0.5, 1.0], id="negative-m"),
        pytest.param([0.5], [0.0, 1.0], id="zero-y"),
    ],
)
@pytest.mark.parametrize("scan", [negative_condition_cells, scaled_condition_threshold])
def test_condition_scans_check_their_grids(scan, m_grid, y_grid):
    with pytest.raises(InvalidArgumentError):
        scan(m_grid, y_grid)


def test_scaled_condition_nonnegative_at_m_one():
    ys = np.linspace(4 * math.pi / 400, 4 * math.pi, 400)
    assert helix_pair_condition_scaled(ys, 1.0).min() >= 0.0


def test_threshold_on_declared_grid():
    m_grid = np.linspace(0.01, 2.0, 400)
    y_grid = np.linspace(4 * math.pi / 400, 4 * math.pi, 400)
    mstar = scaled_condition_threshold(m_grid, y_grid)
    assert mstar <= 1.0
    # independent rescan: smallest grid m from which every larger m passes
    passing = np.array(
        [float(np.min(helix_pair_condition_scaled(y_grid, m))) >= 0.0 for m in m_grid]
    )
    fails = np.nonzero(~passing)[0]
    expected = m_grid[fails[-1] + 1] if fails.size else m_grid[0]
    assert mstar == expected
    assert 0.1 < mstar < 0.13
    # sanity: the scaled condition is indeed clean at m* and dirty below
    assert helix_pair_condition_scaled(y_grid, mstar).min() >= 0.0
    assert helix_pair_condition_scaled(y_grid, 0.05).min() < 0.0
    # a grid whose largest m still fails reports inf
    assert math.isinf(scaled_condition_threshold([0.01], y_grid))


def test_negative_cells_scan():
    m_grid = np.linspace(0.01, 0.1, 10)
    y_grid = np.linspace(0.1, 4 * math.pi, 200)
    cells, sup_m = negative_condition_cells(m_grid, y_grid)
    assert cells
    assert any(helix_pair_condition(y, m) < -0.1 for m, y in cells)
    assert abs(sup_m - 0.1) < 1e-12
    empty, none_sup = negative_condition_cells([1.0], y_grid)
    assert empty == [] and none_sup is None


def test_evaluate_helix_pair_bundle():
    # every pair quantity for (a=1, b=1) at y = 2pi, where 2 - 2cos y = 0:
    # scaled condition -4(1+m)^2 + 4m(1+m) + m y^2 = 4pi^2 - 8 at m = 1
    params = HelixParams(1.0, 1.0)
    y = 2.0 * math.pi
    assert params.m == 1.0
    scaled = helix_pair_condition_scaled(y, params.m)
    assert abs(scaled - (4.0 * math.pi**2 - 8.0)) < 1e-12
    assert abs(helix_pair_condition(y, params.m) - scaled / 4.0) < 1e-12
    got = helix_ratio_time_derivative(params, y)
    assert abs(got - 1.0 / (4.0 * math.sqrt(2.0))) < 1e-15


def test_graph_spec_rejects_a_bound_below_its_peak():
    # a built spec declares the sampled peak of f''^2 + g''^2 as its bound
    for eps in (0.0, 0.05):
        spec = helix_graph_spec(1.0, 1.0, n=128, eps=eps, harmonic=3)
        assert spec.accel_bound == np.max(spec.d2f**2 + spec.d2g**2)
    fields = dict(u=spec.u, f=spec.f, g=spec.g, d2f=spec.d2f, d2g=spec.d2g, speed=1.0, pitch=1.0)
    # the condition certifies nothing under a bound the curve exceeds
    with pytest.raises(InvalidArgumentError, match="is below the sampled peak"):
        GraphCurveSpec(accel_bound=np.nextafter(spec.accel_bound, 0.0), **fields)
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        GraphCurveSpec(accel_bound=spec.accel_bound, **dict(fields, u=spec.u[::-1]))


def test_graph_condition_on_helix_spec():
    spec = helix_graph_spec(1.0, 1.0, n=256)
    vals = [graph_curve_condition(spec, 0, k) for k in range(1, 256)]
    assert min(vals) >= 0.0
    # adjacent grid points approach the vanishing limit from above
    assert 0.0 <= vals[0] < 1e-6
    with pytest.raises(DiagonalPairError):
        graph_curve_condition(spec, 3, 3)
    # the condition takes grid indices, not parameter values
    for i, j in [(0, 0.5), (0, 256), (-1, 3), (True, 3)]:
        with pytest.raises(InvalidArgumentError):
            graph_curve_condition(spec, i, j)
    assert graph_curve_condition(spec, np.int64(5), 40) == graph_curve_condition(spec, 5, 40)


@pytest.mark.parametrize(
    "name, params",
    [
        pytest.param(GRAPH_CURVE, {"eps": 0.0}, id="0.0"),
        pytest.param(GRAPH_CURVE, {"eps": 0.1}, id="0.1"),
        pytest.param(HELIX, {"a": 0.7, "b": -2.5}, id="helix"),
    ],
)
def test_graph_spec_for_matches_the_preset_curve(name, params):
    n = 256
    preset = make_preset(name, n=n, **params)
    spec = graph_spec_for(preset)
    points = build_curve(preset).points
    assert np.array_equal(np.column_stack([spec.f, spec.g, spec.pitch * spec.u]), points)
    # the same bits as the vertex formula (a cos u + eps cos 3u, a sin u, b u)
    a, b, eps = preset.params["a"], preset.params["b"], params.get("eps", 0.0)
    u = np.arange(n) * (2.0 * math.pi / n)
    reference = np.column_stack([a * np.cos(u) + eps * np.cos(3 * u), a * np.sin(u), b * u])
    assert np.array_equal(points.view(np.int64), reference.view(np.int64))
    assert math.isfinite(graph_curve_condition(spec, 5, 40))


@pytest.mark.parametrize("name", [HELIX, GRAPH_CURVE])
@pytest.mark.parametrize(
    "a, b",
    [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]
    + [(bad, 1.0) for bad in (math.nan, math.inf, -math.inf)]
    + [(1.0, bad) for bad in (math.nan, math.inf, -math.inf)],
)
def test_helix_presets_reject_a_non_positive_or_b_zero(name, a, b):
    with pytest.raises(InvalidArgumentError, match=f"{name} preset needs a > 0 and b != 0"):
        build_curve(make_preset(name, n=16, a=a, b=b))


@pytest.mark.parametrize(
    "name, key",
    [
        (CIRCLE, "r"),
        (ELLIPSE, "a"),
        (ELLIPSE, "b"),
        (HELIX, "a"),
        (HELIX, "b"),
        (GRAPH_CURVE, "a"),
        (GRAPH_CURVE, "b"),
        (GRAPH_CURVE, "eps"),
        (SPHERE_PERTURBED, "eps"),
    ],
)
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, "1", None, 1j, True, np.bool_(True), [1.0]]
)
def test_float_preset_parameters_must_be_finite(name, key, value):
    # one check names the parameter, before any vertex is computed; a value
    # that is no real number, a bool included, is refused for its type
    if isinstance(value, float):
        message = f", got {key}={value!r}$"
    else:
        message = f"^{key} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidArgumentError, match=message):
        build_curve(make_preset(name, n=16, **{key: value}))


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("n", [8.5, 9.0, True, "9"])
def test_presets_need_an_integer_vertex_count(name, n):
    # n=8.5 built a 9-vertex ellipse with a short closing segment
    with pytest.raises(InvalidArgumentError, match=f"n must be an integer, got {n!r}"):
        make_preset(name, n=n)


def test_presets_take_numpy_integers_as_int():
    preset = make_preset(ELLIPSE, n=np.int64(9))
    assert preset.n == 9 and type(preset.n) is int
    assert build_curve(preset).n == 9


@pytest.mark.parametrize(
    "name, params",
    [(SPHERE_PERTURBED, {}), (GRAPH_CURVE, {"eps": 0.1})],
)
def test_preset_harmonics_must_be_integers(name, params):
    # 2.5 and 3.9 were cut to 2 and 3 without a word
    for bad in (2.5, 3.9, True):
        with pytest.raises(InvalidArgumentError, match="harmonic must be an integer"):
            build_curve(make_preset(name, n=64, harmonic=bad, **params))
    default = build_curve(make_preset(name, n=64, **params)).points
    for good in (3, np.int64(3)):
        points = build_curve(make_preset(name, n=64, harmonic=good, **params)).points
        assert np.array_equal(points.view(np.int64), default.view(np.int64))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_need_as_many_vertices_as_their_curves(name):
    # every built-in curve is closed or periodic, so 8 vertices at least
    with pytest.raises(InvalidArgumentError, match="presets need at least 8 vertices, got 7"):
        make_preset(name, n=7)
    if name != CUSTOM_FILE:  # its vertex count comes from its file
        assert build_curve(make_preset(name, n=8)).n == 8


def _one_shot_arc_uniform_points(position, n):
    # the table built at full length in one pass, as presets did before
    # building it in chunks
    dense = max(4096, 64 * n) + 1
    u = np.linspace(0.0, 2.0 * math.pi, dense)
    pts = position(u)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return position(np.interp(np.arange(n) * (s[-1] / n), s, u))


@pytest.mark.parametrize("n", [64, 65, 512, 2048])  # 65: the first two-chunk table
@pytest.mark.parametrize("name", [ELLIPSE, COS2U_CURVE, SPHERE_PERTURBED])
def test_arc_uniform_points_equal_the_one_shot_table(monkeypatch, name, n):
    positions = []
    arc_uniform_points = presets._arc_uniform_points

    def spy(position, n):
        positions.append(position)
        return arc_uniform_points(position, n)

    monkeypatch.setattr(presets, "_arc_uniform_points", spy)
    points = build_curve(make_preset(name, n=n)).points
    reference = _one_shot_arc_uniform_points(positions[0], n)
    assert np.array_equal(points.view(np.int64), reference.view(np.int64))


def test_shrinking_circle_oracle():
    assert abs(shrinking_circle_radius(1.0, 0.25) - math.sqrt(0.5)) < 1e-15
    assert shrinking_circle_radius(1.0, 0.0) == 1.0
    with pytest.raises(DomainError):
        shrinking_circle_radius(1.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        shrinking_circle_radius(0.0, 0.1)


def test_helix_radius_conservation_identity():
    a0, b = 1.0, 1.0
    for t in (0.1, 0.5, 2.0, 10.0):
        a = helix_radius_at(a0, b, t)
        lhs = a * a / 2.0 + b * b * math.log(a)
        rhs = a0 * a0 / 2.0 + b * b * math.log(a0) - t
        assert abs(lhs - rhs) < 1e-12
        assert 0.0 < a < a0
    # helix with b > 0 never collapses: still positive far beyond r0^2/2
    assert helix_radius_at(1.0, 1.0, 100.0) > 0.0


def test_helix_radius_matches_direct_ode_integration():
    a0, b, t = 1.0, 1.0, 0.5

    def rhs(_, a):
        return -a / (a * a + b * b)

    sol = solve_ivp(rhs, (0.0, t), [a0], rtol=1e-12, atol=1e-14, dense_output=True)
    assert abs(helix_radius_at(a0, b, t) - sol.y[0, -1]) < 1e-9


def test_helix_radius_b_zero_is_circle():
    assert abs(helix_radius_at(1.0, 0.0, 0.25) - math.sqrt(0.5)) < 1e-14
    with pytest.raises(DomainError):
        helix_radius_at(1.0, 0.0, 0.5)


# one semi-implicit step, the first tridiagonal solve of the interpreter
STEP = (
    "from csflab import flow; flow.step_semi_implicit("
    "flow.make_state(csflab.build_curve(csflab.make_preset('circle', n=16))), 1e-3)"
)


@pytest.mark.parametrize(
    "then, check",
    [
        pytest.param("import csflab.cli", f"{name!r} not in sys.modules", id=name)
        for name in ("scipy", "scipy.linalg", "scipy.optimize", "concurrent.futures")
    ]
    + [
        # brentq is imported by helix_radius_at when it runs
        pytest.param(
            "csflab.helix_radius_at(1.0, 1.0, 0.1)",
            "'scipy.optimize' in sys.modules",
            id="brentq-on-use",
        ),
        # explicit steps solve no system, and the sphere flow's solves take
        # numpy's ptsv where it exports one, as a semi-implicit step does
        pytest.param(
            "csflab.consistency_profile("
            "csflab.build_curve(csflab.make_preset('sphere-perturbed', n=16)), [0.01])",
            "csflab.tridiag._numpy_ptsv() is None or 'scipy' not in sys.modules",
            id="no-scipy-without-a-solve",
        ),
        # the first tridiagonal solve looks LAPACK up, not the import
        pytest.param(
            "from csflab import flow, tridiag\n"
            "before = tridiag._numpy_ptsv.cache_info().currsize\n" + STEP,
            "(before, tridiag._numpy_ptsv.cache_info().currsize) == (0, 1)",
            id="lapack-on-first-solve",
        ),
        # where numpy's OpenBLAS exports ptsv, a step loads nothing of scipy
        pytest.param(
            STEP,
            "csflab.tridiag._numpy_ptsv() is None"
            " or not {'scipy', 'scipy.linalg._flapack'} & sys.modules.keys()",
            id="lapack-without-scipy-init",
        ),
        # where it does not, the step imports scipy.linalg.lapack
        pytest.param(
            "from csflab import tridiag\n"
            "tridiag._numpy_ptsv = lambda: None\n" + STEP,
            "'scipy.linalg.lapack' in sys.modules",
            id="lapack-fallback-imports-scipy-linalg",
        ),
    ]
    + [
        # the fallback and scipy.linalg, imported before or after, hand out
        # the very same dptsv
        pytest.param(
            then,
            "csflab.tridiag._load_flapack().dptsv is scipy.linalg.lapack.dptsv",
            id=name,
        )
        for name, then in (
            ("same-dptsv", "csflab.tridiag._load_flapack(); import scipy.linalg.lapack"),
            ("same-dptsv-scipy-first", "import csflab.tridiag, scipy.linalg.lapack"),
        )
    ],
)
def test_start_up_imports(then, check):
    # a fresh interpreter, so modules loaded by other tests do not count
    env = dict(os.environ, PYTHONPATH=str(Path(csflab.__file__).resolve().parents[1]))
    code = f"import sys, csflab\n{then}\nprint({check})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout.strip()) == (0, "True"), out.stderr
