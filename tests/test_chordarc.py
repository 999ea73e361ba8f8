"""Chord-arc ratio fields, minima, and the minimum conditions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csflab import (
    CLOSED,
    D_OVER_L,
    D_OVER_PSI,
    SampledCurve,
    arc_positions,
    compute_geometry,
    min_pair_ratio,
    ratio_field,
    total_absolute_curvature,
)
from csflab.chordarc import (
    METRICS,
    RatioField,
    comparison_chord,
    find_local_minima,
    pair_diagnostics,
    ratio_minima,
)
from csflab.curve import OPEN, PERIODIC, segment_lengths
from csflab.errors import (
    DiagonalPairError,
    InvalidArgumentError,
    UnsupportedTopologyError,
)
from csflab import chordarc
from reference import brute_force_field, circle, helix, random_curve


def dumbbell(n):
    th = np.arange(n) * (2.0 * math.pi / n)
    r = 1.0 + 0.4 * np.cos(2 * th) + 0.1 * np.sin(3 * th)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(n)])
    return SampledCurve(pts, CLOSED)


def test_comparison_chord_oracle():
    L = 10.0
    # a half-length arc of the comparison circle spans its diameter
    assert abs(comparison_chord(L / 2.0, L) - L / math.pi) < 1e-14
    assert comparison_chord(0.0, L) == 0.0
    # small arcs: psi ~ l
    assert abs(comparison_chord(1e-4, L) - 1e-4) < 1e-10


def test_circle_dl_field_matches_polygon_formula():
    n, r = 64, 2.0
    f = ratio_field(circle(n, r), D_OVER_L, exclusion_band=2)
    s = math.sin(math.pi / n)
    for i, j in [(0, 5), (3, 35), (10, 42), (0, 32)]:
        m = min((j - i) % n, (i - j) % n)
        expected = math.sin(m * math.pi / n) / (m * s)
        assert abs(f.values[i, j] - expected) < 1e-13
        assert f.values[i, j] == f.values[j, i]


def test_circle_dpsi_field_is_constant():
    # every pair of a polygonal circle has d/psi = pi / (n sin(pi/n))
    n = 64
    f = ratio_field(circle(n), D_OVER_PSI, exclusion_band=2)
    expected = math.pi / (n * math.sin(math.pi / n))
    finite = f.values[np.isfinite(f.values)]
    assert finite.size > 0
    assert np.abs(finite - expected).max() < 1e-12


def test_exclusion_band_masks_near_diagonal():
    n, band = 32, 3
    f = ratio_field(circle(n), D_OVER_L, exclusion_band=band)
    for i in range(n):
        for j in range(n):
            sep = min((j - i) % n, (i - j) % n)
            assert np.isnan(f.values[i, j]) == (sep <= band)


def test_ratio_field_validation():
    with pytest.raises(InvalidArgumentError):
        ratio_field(circle(16), "chord_over_arc", 2)
    with pytest.raises(InvalidArgumentError):
        ratio_field(circle(16), D_OVER_L, 0)
    with pytest.raises(InvalidArgumentError):
        ratio_field(circle(16), D_OVER_L, 8)  # band >= n/2
    with pytest.raises(UnsupportedTopologyError):
        ratio_field(helix(32), D_OVER_L, 2)
    f = ratio_field(circle(16), D_OVER_L, 2)
    with pytest.raises(ValueError):
        f.values[0, 5] = 0.0


def test_find_local_minima_planted():
    n = 20
    vals = np.full((n, n), 2.0)
    rng = np.random.default_rng(0)
    vals += rng.uniform(0.0, 0.1, (n, n))
    vals = 0.5 * (vals + vals.T)
    for k in range(n):
        for b in (-2, -1, 0, 1, 2):
            vals[k, (k + b) % n] = math.nan
    vals[4, 12] = vals[12, 4] = 0.5  # unique planted minimum
    f = RatioField(values=vals, metric=D_OVER_L, exclusion_band=2)
    mins = find_local_minima(f)
    assert mins[0][:2] == (4, 12)
    assert mins[0][2] == 0.5
    # canonical i < j ordering, ascending values
    assert all(i < j for i, j, _ in mins)
    assert all(a[2] <= b[2] for a, b in zip(mins, mins[1:]))


def test_find_local_minima_plateau_needs_strict_neighbor():
    n = 20
    vals = np.full((n, n), 1.0)
    for k in range(n):
        for b in (-2, -1, 0, 1, 2):
            vals[k, (k + b) % n] = math.nan
    f = RatioField(values=vals, metric=D_OVER_L, exclusion_band=2)
    # constant field: no cell is strictly below any neighbor
    assert find_local_minima(f) == []


def test_find_local_minima_all_nan_rejected():
    vals = np.full((16, 16), math.nan)
    f = RatioField(values=vals, metric=D_OVER_L, exclusion_band=2)
    with pytest.raises(InvalidArgumentError):
        find_local_minima(f)


def rolled_local_minima(vals):
    # reference: each of the eight torus neighbors as a rolled copy
    is_min = np.isfinite(vals)
    strictly_below = np.zeros_like(is_min)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            nb = np.roll(np.roll(vals, -di, axis=0), -dj, axis=1)
            finite = np.isfinite(nb)
            with np.errstate(invalid="ignore"):
                is_min &= ~finite | (vals <= nb)
                strictly_below |= finite & (vals < nb)
    found = {}
    for i, j in zip(*np.nonzero(is_min & strictly_below)):
        key = (int(i), int(j)) if i < j else (int(j), int(i))
        found.setdefault(key, float(vals[i, j]))
    return sorted(((i, j, v) for (i, j), v in found.items()), key=lambda r: (r[2], r[0], r[1]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    levels=st.integers(1, 4),
    nan_share=st.sampled_from([0.0, 0.2, 0.6]),
    symmetric=st.booleans(),
    nan_rows=st.lists(st.integers(0, 39), max_size=3),
    band_rows=st.sampled_from([1, 2, 3, None]),
)
def test_find_local_minima_equals_rolled_reference(
    seed, n, levels, nan_share, symmetric, nan_rows, band_rows
):
    # few distinct levels give ties and plateaus; NaN cells sit anywhere,
    # including on the wrap-around rows and columns.  Bands of 1, 2 or 3
    # rows (or the default budget) put band seams, the wrap rows and whole
    # NaN rows on band edges
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, levels, (n, n)) / 4.0
    vals[rng.random((n, n)) < nan_share] = math.nan
    if symmetric:
        vals = np.where(np.arange(n)[:, None] <= np.arange(n), vals, vals.T)
    for k in nan_rows:  # a row and its mirror column with no finite cell
        vals[k % n, :] = vals[:, k % n] = math.nan
    vals[0, 0] = 0.5  # at least one finite cell
    f = RatioField(values=vals, metric=D_OVER_L, exclusion_band=0)
    with pytest.MonkeyPatch.context() as mp:
        if band_rows is not None:
            mp.setattr(chordarc, "_BLOCK_CELLS", band_rows * n)
        assert find_local_minima(f) == rolled_local_minima(vals)


def test_find_local_minima_holds_one_band_beside_the_field():
    # the search holds one padded band of about _BLOCK_CELLS cells and its
    # masks at a time, never an n x n temporary
    f = ratio_field(dumbbell(512), D_OVER_L, exclusion_band=2)
    expected = find_local_minima(f)
    tracemalloc.start()
    try:
        found = find_local_minima(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == expected
    assert peak < f.values.nbytes / 4


def test_dumbbell_neck_minimum_satisfies_first_variation():
    # at an interior minimum of d/l both chord-tangent angles equal the ratio
    n = 512
    c = dumbbell(n)
    f = ratio_field(c, D_OVER_L, exclusion_band=2)
    mins = find_local_minima(f)
    s, L = arc_positions(c)
    interior = []
    for i, j, v in mins:
        fwd = abs(s[j] - s[i])
        l = min(fwd, L - fwd)
        if l < 0.48 * L:
            interior.append((i, j, v))
    assert interior, "dumbbell neck should produce an interior d/l minimum"
    diags = pair_diagnostics(c, [(i, j) for i, j, _ in interior])
    for (i, j, v), diag in zip(interior, diags, strict=True):
        r1, r2 = diag.first_var_residual_dl
        assert abs(r1) < 5.0 / n
        assert abs(r2) < 5.0 / n
        assert abs(diag.d_over_l - v) < 1e-13


def test_circle_conditions_close_to_continuum():
    n = 256
    c = circle(n)
    g = compute_geometry(c)
    total = total_absolute_curvature(g)
    for diag in pair_diagnostics(c, [(0, 64), (0, 128), (17, 100)]):
        # d/psi condition vanishes on a round circle up to O(h^2)
        cond31 = diag.cond_dpsi
        assert abs(cond31) < 2e-4
        # d/l condition reduces to (2 pi d / l)^2 > 0
        assert diag.total_curvature == total
        cond22 = diag.cond_dl
        expected = (diag.d_over_l * total) ** 2
        assert abs(cond22 - expected) < 1e-8
        assert cond22 > 0.0
    # and the O(h^2) error actually contracts under refinement
    fine = circle(2 * n)
    (d_fine,) = pair_diagnostics(fine, [(0, 2 * 64)])
    (d_coarse,) = pair_diagnostics(c, [(0, 64)])
    coarse = abs(d_coarse.cond_dpsi)
    refined = abs(d_fine.cond_dpsi)
    assert refined < coarse / 3.0


def test_cos2u_symmetric_pairs_are_borderline():
    from csflab import COS2U_CURVE, build_curve, make_preset

    n = 256
    c = build_curve(make_preset(COS2U_CURVE, n=n))
    for diag in pair_diagnostics(c, [(0, n // 2), (n // 4, 3 * n // 4)]):
        assert abs(diag.alpha - math.pi / 2.0) < 1e-9
        cond = diag.cond_dpsi
        assert abs(cond) < 5e-2  # exact symmetry makes these nearly critical
        assert abs(cond) < 1e-9


@pytest.mark.parametrize("topology", [CLOSED, PERIODIC])
def test_one_call_builds_one_frame_and_one_geometry(monkeypatch, topology):
    calls = {"_pair_frame": 0, "compute_geometry": 0}
    for name in calls:

        def counted(curve, name=name, original=getattr(chordarc, name)):
            calls[name] += 1
            return original(curve)

        monkeypatch.setattr(chordarc, name, counted)
    n = 96
    c = dumbbell(n) if topology == CLOSED else helix(n, 1.0, 0.7)
    pairs = [(i, i + 30) for i in range(0, n - 30, 4)]
    diags = pair_diagnostics(c, pairs)
    assert [(d.i, d.j) for d in diags] == pairs
    assert calls == {"_pair_frame": 1, "compute_geometry": 1}


@pytest.mark.parametrize(
    "topology, pair, error, message",
    [
        (CLOSED, (-1, 5), InvalidArgumentError, r"pair \(-1, 5\) out of range for n=64"),
        (CLOSED, (5, 64), InvalidArgumentError, r"pair \(5, 64\) out of range for n=64"),
        (CLOSED, (64, 64), InvalidArgumentError, r"pair \(64, 64\) out of range"),
        (CLOSED, (5, 5), DiagonalPairError, r"vertex pair \(5, 5\) has no chord"),
        (PERIODIC, (64, 70), InvalidArgumentError, "first index 64 out of range for n=64"),
        (PERIODIC, (5, 5), DiagonalPairError, r"vertex pair \(5, 5\) has no chord"),
        (PERIODIC, (5, 4), InvalidArgumentError, r"needs i < j <= i \+ n, got \(5, 4\)"),
        (PERIODIC, (5, 70), InvalidArgumentError, r"needs i < j <= i \+ n, got \(5, 70\)"),
        (OPEN, (0, 20), UnsupportedTopologyError, "need a cyclic curve, not 'open'"),
        (CLOSED, (0.9, 5.5), InvalidArgumentError, "i must be an integer, got 0.9"),
        (CLOSED, (True, 5), InvalidArgumentError, "i must be an integer, got True"),
        (PERIODIC, (1, 5.0), InvalidArgumentError, r"j must be an integer, got 5\.0"),
        (PERIODIC, (1, "5"), InvalidArgumentError, "j must be an integer, got '5'"),
    ],
)
def test_pair_diagnostics_check_every_pair(topology, pair, error, message):
    # a bad pair after a good one still raises, with its own message
    if topology == PERIODIC:
        c = helix(64, 1.0, 0.7)
    else:
        c = SampledCurve(dumbbell(64).points, topology)
    with pytest.raises(error, match=message):
        pair_diagnostics(c, [(0, 20), pair])


def test_pair_diagnostics_take_numpy_integer_indices():
    c = dumbbell(64)
    pairs = [(np.int64(3), np.int32(40)), (np.uint8(7), np.int16(12))]
    found = pair_diagnostics(c, pairs)
    assert [(d.i, d.j) for d in found] == [(3, 40), (7, 12)]
    assert all(type(d.i) is int and type(d.j) is int for d in found)
    assert found == pair_diagnostics(c, [(3, 40), (7, 12)])


def test_pair_diagnostics_closed_orientation_invariance():
    c = dumbbell(128)
    a, b = pair_diagnostics(c, [(20, 90), (90, 20)])
    assert a.d == b.d and a.l == b.l and a.cond_dl == b.cond_dl


def test_pair_diagnostics_periodic_helix():
    n, a, b = 256, 1.0, 0.7
    c = helix(n, a, b)
    (diag,) = pair_diagnostics(c, [(3, 3 + n)])
    # one full period: chord is the pure offset
    assert abs(diag.d - 2.0 * math.pi * b) < 1e-12
    seg = 2.0 * a * math.sin(math.pi / n)
    expected_l = n * math.hypot(seg, 2.0 * math.pi * b / n)
    assert abs(diag.l - expected_l) < 1e-9
    assert diag.psi is None and diag.alpha is None and diag.d_over_psi is None
    assert diag.first_var_residual_dpsi is None
    assert diag.cond_dpsi is None
    assert diag.cond_dl is not None and math.isfinite(diag.cond_dl)
    with pytest.raises(DiagonalPairError):
        pair_diagnostics(c, [(5, 5)])


def test_min_pair_ratio_periodic_matches_brute_force():
    n = 128
    c = helix(n, 1.0, 0.4)
    got = min_pair_ratio(c, D_OVER_L, exclusion_band=2)
    ext = np.vstack([c.points, c.points + c.offset])
    seg = np.linalg.norm(np.diff(c.points, axis=0), axis=1)
    closing = np.linalg.norm(c.points[0] + c.offset - c.points[-1])
    s = np.concatenate([[0.0], np.cumsum(np.concatenate([seg, [closing]]))])
    best = math.inf
    for i in range(n):
        for j in range(i + 3, min(i + n, 2 * n - 1) + 1):
            d = np.linalg.norm(ext[j] - ext[i])
            l = (s[j % n] + (j // n) * s[n]) - s[i] if j >= n else s[j] - s[i]
            best = min(best, d / l)
    assert abs(got - best) < 1e-12


def loop_periodic_min(curve, band):
    # forward pairs (i, i + gap), gap in [band + 1, n], on the periodic extension,
    # whose arcs run on over the curve's own segments: one period, then n - 1
    n = curve.n
    ext = np.vstack([curve.points, curve.points + curve.offset])
    seg = segment_lengths(curve)
    s = np.concatenate([[0.0], np.cumsum(np.concatenate([seg, seg[: n - 1]]))])
    best = math.inf
    for i in range(n):
        for j in range(i + band + 1, i + n + 1):
            dx = ext[i, 0] - ext[j, 0]
            dy = ext[i, 1] - ext[j, 1]
            dz = ext[i, 2] - ext[j, 2]
            best = min(best, np.sqrt(dx * dx + dy * dy + dz * dz) / (s[j] - s[i]))
    return best


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 64),
    band=st.integers(1, 31),
    block_cells=st.sampled_from([1, 100, chordarc._BLOCK_CELLS]),
)
def test_closed_reductions_equal_loops_bit_for_bit(seed, n, band, block_cells):
    band = min(band, n // 2 - 1)
    c = random_curve(seed, n, CLOSED)
    slow = {m: brute_force_field(c, m, band) for m in (D_OVER_L, D_OVER_PSI)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordarc, "_BLOCK_CELLS", block_cells)
        for metric in (D_OVER_L, D_OVER_PSI):
            fast = ratio_field(c, metric, band).values
            assert np.array_equal(fast, slow[metric], equal_nan=True)
            assert min_pair_ratio(c, metric, band) == np.nanmin(slow[metric])
        assert ratio_minima(c, band) == (
            np.nanmin(slow[D_OVER_L]),
            np.nanmin(slow[D_OVER_PSI]),
        )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 64),
    band=st.integers(1, 63),
    block_cells=st.sampled_from([1, 100, chordarc._BLOCK_CELLS]),
)
def test_periodic_minimum_equals_loop_bit_for_bit(seed, n, band, block_cells):
    band = min(band, n - 1)
    h = random_curve(seed, n, PERIODIC)
    slow = loop_periodic_min(h, band)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordarc, "_BLOCK_CELLS", block_cells)
        assert min_pair_ratio(h, D_OVER_L, band) == slow


def periodic_kernel_cells(curve, band):
    # the d/l cell of every forward pair (i, i + g) the pair kernel hands out
    def block(gaps, ratio):
        vals = ratio(D_OVER_L).copy()  # the buffer is reused by the next block
        return {(i, i + g): v for g, row in zip(gaps, vals) for i, v in enumerate(row)}

    cells = {}
    for found in chordarc._pair_blocks(curve, band, block):
        cells.update(found)
    return cells


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 32), band=st.integers(1, 31))
def test_pair_diagnostics_hold_the_kernels_bits(seed, n, band):
    # one chord formula and one frame: every pair's ratios are its cells
    closed = random_curve(seed, n, CLOSED)
    closed_band = min(band, n // 2 - 1)
    fields = {m: ratio_field(closed, m, closed_band).values for m in METRICS}
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if min(abs(i - j), n - abs(i - j)) > closed_band
    ]
    for (i, j), diag in zip(pairs, pair_diagnostics(closed, pairs), strict=True):
        assert diag.d_over_l == fields[D_OVER_L][i, j]
        assert diag.d_over_psi == fields[D_OVER_PSI][i, j]
    periodic = random_curve(seed, n, PERIODIC)
    periodic_band = min(band, n - 1)
    cells = periodic_kernel_cells(periodic, periodic_band)
    assert len(cells) == n * (n - periodic_band)
    diags = pair_diagnostics(periodic, list(cells))
    for value, diag in zip(cells.values(), diags, strict=True):
        assert diag.d_over_l == value


def kernel_cells(curve, band):
    # what the pair kernel hands out: the (i, j) of every cell, closed pairs
    # canonicalised to i < j, the number of cells and the most gaps in a block
    n = curve.n

    def block(gaps, ratio):
        vals = ratio(D_OVER_L)
        assert vals.shape[0] == len(gaps) and not np.isnan(vals).any()
        i = np.arange(vals.shape[1])
        pairs = []
        for g in gaps:
            j = i + g
            if curve.topology == CLOSED:
                j %= n
                pairs += zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())
            else:
                pairs += zip(i.tolist(), j.tolist())
        return pairs, vals.size, len(gaps)

    pairs, cells, heights = zip(*chordarc._pair_blocks(curve, band, block))
    return sorted(p for ps in pairs for p in ps), sum(cells), max(heights)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 80),
    band=st.integers(1, 79),
    block_cells=st.sampled_from([1, 7, 100, chordarc._BLOCK_CELLS]),
)
def test_kernel_visits_each_pair_once(seed, n, band, block_cells):
    closed_band = min(band, n // 2 - 1)
    periodic_band = min(band, n - 1)
    closed = random_curve(seed, n, CLOSED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordarc, "_BLOCK_CELLS", block_cells)
        pairs, cells, tallest = kernel_cells(closed, closed_band)
        p_pairs, p_cells, p_tallest = kernel_cells(
            random_curve(seed, n, PERIODIC), periodic_band
        )
    # closed: each unordered pair outside the cyclic band once, as i < j
    assert len(pairs) == n * (n - 2 * closed_band - 1) // 2
    assert pairs == [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if min(j - i, n - j + i) > closed_band
    ]
    assert cells <= n * (n + tallest) / 2
    assert cells == len(pairs)  # every cell a pair: no masked cell
    # periodic: each forward pair (i, i + gap), gap in [band + 1, n], once
    assert p_pairs == [
        (i, j) for i in range(n) for j in range(i + periodic_band + 1, i + n + 1)
    ]
    assert p_cells <= n * (n - periodic_band + p_tallest - 1)
    assert p_cells == len(p_pairs)


@pytest.mark.parametrize("n", [16, 17, 40, 41])
@pytest.mark.parametrize("block_cells", [1, 2**13])
def test_widest_band_and_single_cell_blocks(n, block_cells):
    # band n//2 - 1 leaves only the pairs half way round: n/2 of them on
    # even n, n on odd n, all on one gap, which is one block at any budget
    band = n // 2 - 1
    c = random_curve(n, n, CLOSED)
    slow = {m: brute_force_field(c, m, band) for m in (D_OVER_L, D_OVER_PSI)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chordarc, "_BLOCK_CELLS", block_cells)
        pairs, _, tallest = kernel_cells(c, band)
        for metric in (D_OVER_L, D_OVER_PSI):
            fast = ratio_field(c, metric, band).values
            assert np.array_equal(fast, slow[metric], equal_nan=True)
            assert min_pair_ratio(c, metric, band) == np.nanmin(slow[metric])
        assert ratio_minima(c, band) == (
            np.nanmin(slow[D_OVER_L]),
            np.nanmin(slow[D_OVER_PSI]),
        )
    assert len(pairs) == (n // 2 if n % 2 == 0 else n)
    assert np.count_nonzero(np.isfinite(slow[D_OVER_L])) == 2 * len(pairs)
    assert tallest == 1


@pytest.mark.parametrize(
    "reduce, topology",
    [
        (lambda c, band: min_pair_ratio(c, D_OVER_L, band), CLOSED),
        (lambda c, band: ratio_minima(c, band), CLOSED),
        (lambda c, band: min_pair_ratio(c, D_OVER_L, band), PERIODIC),
    ],
    ids=["closed-min_pair_ratio", "ratio_minima", "periodic-min_pair_ratio"],
)
def test_band_leaving_no_pair_is_rejected(reduce, topology):
    n = 64
    c = circle(n) if topology == CLOSED else helix(n)
    widest = n // 2 - 1 if topology == CLOSED else n - 1
    assert np.all(np.isfinite(reduce(c, widest)))
    for band in (0, widest + 1):
        with pytest.raises(InvalidArgumentError):
            reduce(c, band)


@pytest.mark.parametrize(
    "reduce",
    [
        lambda c, band: min_pair_ratio(c, D_OVER_L, band),
        lambda c, band: ratio_minima(c, band),
        lambda c, band: ratio_field(c, D_OVER_L, band).values,
    ],
    ids=["min_pair_ratio", "ratio_minima", "ratio_field"],
)
def test_band_must_be_an_integer(reduce):
    # a bool is no band, and a float or str band is an argument error, not a TypeError
    c = circle(64)
    for band in (True, np.bool_(True), 2.0, "2", None):
        with pytest.raises(InvalidArgumentError, match="exclusion_band must be an integer"):
            reduce(c, band)
    for band in (np.int64(2), np.int32(2), np.uint8(2)):
        assert np.array_equal(reduce(c, band), reduce(c, 2), equal_nan=True)


def test_min_pair_ratio_periodic_rejects_dpsi():
    with pytest.raises(UnsupportedTopologyError):
        min_pair_ratio(helix(64), D_OVER_PSI, 2)


def test_ratio_minima_matches_field_minima():
    c = dumbbell(128)
    dl, dpsi = ratio_minima(c, exclusion_band=2)
    f_dl = ratio_field(c, D_OVER_L, 2)
    f_dpsi = ratio_field(c, D_OVER_PSI, 2)
    assert dl == np.nanmin(f_dl.values)
    assert dpsi == np.nanmin(f_dpsi.values)


def test_min_dl_is_constant_along_shrinking_circles():
    # d/l is scale invariant
    minima = [min_pair_ratio(circle(64, r), D_OVER_L, 2) for r in (1.0, 0.9, 0.8)]
    assert np.abs(np.diff(minima)).max() < 1e-14


def test_arc_curvature_integral_circle_oracle():
    n, r = 128, 1.5
    c = circle(n, r)
    h = 2.0 * r * math.sin(math.pi / n)
    # half-weight endpoints make the arc integral exactly m*h/r
    pairs = [(0, 10), (7, 50), (0, 64)]
    for (i, j), diag in zip(pairs, pair_diagnostics(c, pairs), strict=True):
        m = min((j - i) % n, (i - j) % n)
        got = diag.arc_curvature
        assert abs(got - m * h / r) < 1e-10


def test_arc_integral_takes_shorter_arc_with_half_endpoints():
    c = dumbbell(96)
    g = compute_geometry(c)
    total = total_absolute_curvature(g)
    kds = g.scalar_curvature * g.ds
    # short index span: integral is the in-span sum with half endpoints
    short, back, wide = pair_diagnostics(c, [(10, 40), (40, 10), (2, 90)])
    span_sum = kds[10:41].sum() - 0.5 * kds[10] - 0.5 * kds[40]
    assert abs(short.arc_curvature - span_sum) < 1e-12
    assert back.arc_curvature == short.arc_curvature
    # wide index span: the complement is the shorter arc
    wide_sum = kds[2:91].sum() - 0.5 * kds[2] - 0.5 * kds[90]
    assert abs(wide.arc_curvature - (total - wide_sum)) < 1e-12

