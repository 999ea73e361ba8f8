"""Chord-to-arc ratio fields and local-minimum diagnostics.

For a closed curve of length L and two vertices with chord d and shorter
arc l, two ratios are tracked:

* d/l   -- plain chord-arc ratio in (0, 1];
* d/psi -- chord relative to the chord of a round circle of the same
  length subtending the same arc, psi = (L/pi) * sin(pi*l/L).

Periodic curves use a one-way arc along the periodic extension (the curve
plus one offset copy), where only d/l makes sense.  The extension's arcs
come from the curve's own segment lengths, the n of one period and then its
first n - 1 again, so nothing here measures a segment.

Every pair is read from one frame, ``_pair_frame``: the rows x, y, z and s
of the vertices laid twice.  Its chord is sqrt((dx^2 + dy^2) + dz^2) in
that order, both in the pair kernel and in ``pair_diagnostics``, so a
pair's diagnostics hold the bits of its cell.

One pair kernel, ``_pair_blocks``, serves every reduction.  It walks gaps,
not rows: a block is a run of whole cyclic diagonals, the pairs (i, i+g)
for every vertex i and each gap g of the block, read as windows of the
frame, in blocks of about ``_BLOCK_CELLS`` cells.  Periodic curves take
gaps band+1 .. n along the extension, with the forward arc s[i+g] - s[i].
Closed curves, whose frame repeats s, take gaps band+1 .. n//2, since a
larger gap is a smaller one the other way round; the arc
|s[i+g mod n] - s[i]| is folded to the shorter one, min(l, L - l),
and on even n the gap n/2 takes only i < n/2.  So every cell of a block is
a pair outside the band, each pair comes once, and no cell is masked.
Chords, folded arcs and psi are symmetric in i and j, so a closed pair
holds the same bits whichever end comes first; ``ratio_field`` writes each
value into both of its cells.  Only its output is n x n: ``ratio_minima``
and ``min_pair_ratio`` keep running minima over about n^2/2 cells.
The blocks run serially, in gap order, and each cell has one fixed
arithmetic order, so every result is the same bit for bit on every run.

``find_local_minima`` walks the field in bands of the same budget,
max(1, _BLOCK_CELLS // n) rows, so the ratio-field path holds the one
n x n matrix plus O(rows*n) working memory (about 0.5 MB), never an
n x n temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curve import (
    CLOSED,
    PERIODIC,
    SampledCurve,
    arc_positions,
    compute_geometry,
    row_norm,
    segment_lengths,
    total_absolute_curvature,
)
from .errors import (
    DiagonalPairError,
    InvalidArgumentError,
    UnsupportedTopologyError,
)

D_OVER_L = "d_over_l"
D_OVER_PSI = "d_over_psi"
METRICS = (D_OVER_L, D_OVER_PSI)

MIN_FIELD_VERTICES = 16

# cells per gap block of the pair kernel: max(1, _BLOCK_CELLS // n) whole
# diagonals, computed in place in one allocation of three buffers per block
# (768 KB, within the L2 cache).  One allocation keeps being served from the
# heap; three separate 256 KB buffers were returned to the system after each
# block and made the pair rows of a flow run about twice as slow.
_BLOCK_CELLS = 2**15


def comparison_chord(arc: np.ndarray | float, length: float):
    """Chord of a round circle of circumference ``length`` spanning ``arc``."""
    return (length / math.pi) * np.sin(arc * math.pi / length)


@dataclass(frozen=True, eq=False)
class RatioField:
    """Pairwise ratio matrix; cells within the exclusion band hold NaN."""

    values: np.ndarray
    metric: str
    exclusion_band: int

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _check_reduction(curve: SampledCurve, metric: str, band: int) -> None:
    # a metric defined for the topology, and a band that leaves some pair
    if metric not in METRICS:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    if curve.topology != CLOSED and (curve.topology, metric) != (PERIODIC, D_OVER_L):
        raise UnsupportedTopologyError(
            f"no {metric} pair ratios for {curve.topology!r} curves"
        )
    limit = curve.n // 2 if curve.topology == CLOSED else curve.n  # largest gap
    if not 1 <= band < limit:
        raise InvalidArgumentError(
            f"exclusion_band must be in [1, {limit}) at n={curve.n}, got {band}"
        )


def _pair_frame(curve: SampledCurve) -> tuple[np.ndarray, float | None]:
    """(4, 2n) rows x, y, z and s of the vertices laid twice, and the length.

    A closed curve repeats its vertices and their arc positions, and comes
    with its length L.  A periodic curve puts the second lap one offset on,
    and its s runs on along it: one cumsum over the curve's own segment
    lengths followed by the first n - 1 of them again.  Its length is None,
    since only d/l, which needs none, is defined there.
    """
    n = curve.n
    rows = curve.points.T
    if curve.topology == CLOSED:
        s, length = arc_positions(curve)
        lap = np.vstack([rows, s])
        return np.hstack([lap, lap]), length
    seg = segment_lengths(curve)
    s = np.concatenate(([0.0], np.cumsum(np.concatenate((seg, seg[: n - 1])))))
    return np.vstack([np.hstack([rows, rows + curve.offset[:, None]]), s]), None


def _pair_blocks(curve: SampledCurve, band: int, fn) -> list:
    """The pair kernel: fn(gaps, ratio) for every gap block, in order.

    ``gaps`` is the range of index gaps g of the block, one row each, and
    column i of row g is the pair (i, i+g), with i+g taken mod n on closed
    curves.  For the block it computes the chords d and the arcs l once, in
    place, and ``ratio(metric)`` returns that block of the ratio table in a
    buffer that the block's next ``ratio`` call overwrites.  Every cell is a
    pair outside the band, and each pair is visited once.
    """
    n = curve.n
    closed = curve.topology == CLOSED
    frame, length = _pair_frame(curve)
    # on closed curves a gap g < top pairs every vertex i with i + g
    top = (n + 1) // 2 if closed else n + 1
    rows = frame[:, None, :n]  # x, y, z and s of vertex i, as (1, n) rows
    windows = sliding_window_view(frame, n, axis=1)  # [:, g, i] is vertex i + g

    def block(gaps: range):
        m = n if gaps.start < top else n // 2
        x, y, z, s0 = rows[..., :m]
        xw, yw, zw, sw = windows[:, gaps.start : gaps.stop, :m]
        d, arc, out = np.empty((3, len(gaps), m))
        np.subtract(x, xw, out=d)
        np.multiply(d, d, out=d)
        for c, cw in ((y, yw), (z, zw)):
            np.subtract(c, cw, out=out)
            np.multiply(out, out, out=out)
            np.add(d, out, out=d)
        np.sqrt(d, out=d)
        np.subtract(sw, s0, out=arc)
        if closed:
            np.abs(arc, out=arc)
            np.subtract(length, arc, out=out)
            np.minimum(arc, out, out=arc)

        def ratio(metric: str) -> np.ndarray:
            if metric == D_OVER_L:
                return np.divide(d, arc, out=out)
            # psi in comparison_chord's order: (L/pi) * sin(l * pi / L)
            np.multiply(arc, math.pi, out=out)
            np.divide(out, length, out=out)
            np.sin(out, out=out)
            np.multiply(length / math.pi, out, out=out)
            return np.divide(d, out, out=out)

        return fn(gaps, ratio)

    step = max(1, _BLOCK_CELLS // n)
    blocks = [range(g, min(g + step, top)) for g in range(band + 1, top, step)]
    if closed and n % 2 == 0:
        blocks.append(range(top, top + 1))  # gap n/2: only i < n/2, half width
    return list(map(block, blocks))


def ratio_field(
    curve: SampledCurve, metric: str = D_OVER_L, exclusion_band: int = 2
) -> RatioField:
    """Pairwise ratio matrix for a closed curve with at least 16 vertices.

    The band of ``exclusion_band`` index steps around the diagonal is set to
    NaN: ratios of near-identical vertices approach 1 with O(h^2) noise and
    would drown every genuine extremum search in discretization artifacts.
    """
    if curve.topology != CLOSED:
        raise UnsupportedTopologyError(
            f"ratio fields require a closed curve, not {curve.topology!r}"
        )
    if curve.n < MIN_FIELD_VERTICES:
        raise InvalidArgumentError(
            f"ratio fields need at least {MIN_FIELD_VERTICES} vertices"
        )
    _check_reduction(curve, metric, exclusion_band)
    n = curve.n
    values = np.full((n, n), np.nan)
    flat = values.reshape(-1)  # a view: stepping n + 1 walks a diagonal

    def fill(gaps: range, ratio) -> None:
        # cell i of gap g is (i, i+g) above the diagonal while i < n - g and
        # (i, i+g-n) below it from there on; each value also goes to its mirror
        for g, row in zip(gaps, ratio(metric)):
            split = n - g
            wrapped = len(row) - split
            flat[g : split * (n + 1) : n + 1] = row[:split]
            flat[g * n :: n + 1][:split] = row[:split]
            flat[split * n :: n + 1][:wrapped] = row[split:]
            flat[split :: n + 1][:wrapped] = row[split:]

    _pair_blocks(curve, exclusion_band, fill)
    values.setflags(write=False)
    return RatioField(values=values, metric=metric, exclusion_band=exclusion_band)


def _band_minima(vals: np.ndarray, lo: int, h: int):
    """Local minima of rows lo .. lo+h-1 of a torus field, as (rows, cols)
    index arrays in row-major order, and whether those rows hold a finite cell.

    The band is copied once with one wrapped row above and below it and one
    wrapped column on either side.  Each cell and its eight neighbors are
    then read as equal flat runs of that copy, so every test is one pass
    over contiguous memory.  Everything this allocates is freed on return.
    """
    n = vals.shape[1]
    width = n + 2
    padded = np.empty((h + 2, width))
    padded[1:-1, 1:-1] = vals[lo : lo + h]
    padded[0, 1:-1] = vals[lo - 1]  # row -1 is row n - 1
    padded[-1, 1:-1] = vals[(lo + h) % n]
    padded[:, 0] = padded[:, -2]
    padded[:, -1] = padded[:, 1]
    flat = padded.reshape(-1)
    flat_finite = np.isfinite(flat)
    # the run from the band's first cell to its last also passes the two
    # wrap columns between each pair of rows; their results land in the
    # last two columns of the (h, width) masks and are never read
    start, size = width + 1, (h - 1) * width + n
    cells = flat[start : start + size]
    is_min = np.zeros((h, width), dtype=bool)
    strictly_below = np.zeros_like(is_min)
    run_min = is_min.reshape(-1)[:size]
    run_below = strictly_below.reshape(-1)[:size]
    run_min[:] = flat_finite[start : start + size]
    any_finite = bool(is_min[:, :n].any())
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            at = start + di * width + dj
            nb, finite = flat[at : at + size], flat_finite[at : at + size]
            with np.errstate(invalid="ignore"):
                run_min &= ~finite | (cells <= nb)
                run_below |= finite & (cells < nb)
    is_min &= strictly_below
    rows, cols = np.nonzero(is_min[:, :n])
    return rows + lo, cols, any_finite


def find_local_minima(field: RatioField) -> list[tuple[int, int, float]]:
    """Cells not exceeding any of their eight torus neighbors.

    Band cells are never candidates and are ignored as neighbors.  A strict
    decrease toward at least one neighbor is required so that flat regions
    do not report every interior cell.  Pairs are canonicalized to i < j and
    deduplicated, then sorted by (value, i, j).

    The search walks bands of max(1, _BLOCK_CELLS // n) rows, the pair
    kernel's block budget, in row order.  Beside the field and the minima
    it holds one band's padded copy and masks at a time, about 16 bytes per
    band cell (0.5 MB at n=512 and at n=2048), not n x n temporaries.
    """
    vals = field.values
    n = vals.shape[0]
    step = max(1, _BLOCK_CELLS // n)
    any_finite = False
    found: dict[tuple[int, int], float] = {}
    for lo in range(0, n, step):
        rows, cols, finite = _band_minima(vals, lo, min(step, n - lo))
        any_finite = any_finite or finite
        for i, j in zip(rows.tolist(), cols.tolist()):
            found.setdefault((i, j) if i < j else (j, i), float(vals[i, j]))
    if not any_finite:
        raise InvalidArgumentError("ratio field has no finite cells")
    return sorted(
        ((i, j, v) for (i, j), v in found.items()), key=lambda r: (r[2], r[0], r[1])
    )


def min_pair_ratio(
    curve: SampledCurve, metric: str = D_OVER_L, exclusion_band: int = 2
) -> float:
    """Global minimum of the pair ratio outside the exclusion band."""
    _check_reduction(curve, metric, exclusion_band)
    minima = _pair_blocks(
        curve, exclusion_band, lambda gaps, ratio: ratio(metric).min()
    )
    return float(min(minima))


def ratio_minima(
    curve: SampledCurve, exclusion_band: int = 2
) -> tuple[float, float]:
    """(min d/l, min d/psi) for a closed curve in one pairwise pass."""
    _check_reduction(curve, D_OVER_PSI, exclusion_band)  # d/psi needs closed

    def block_minima(gaps: range, ratio) -> tuple[float, float]:
        return ratio(D_OVER_L).min(), ratio(D_OVER_PSI).min()

    dl, dpsi = zip(*_pair_blocks(curve, exclusion_band, block_minima))
    return float(min(dl)), float(min(dpsi))


@dataclass(frozen=True)
class PairDiagnostics:
    """Everything measured about one vertex pair.

    ``total_curvature`` is the |k| integral over the curve (one period on
    periodic curves) and ``arc_curvature`` the one over the shorter arc, its
    end vertices at half weight.  ``psi``, ``alpha``, ``d_over_psi``, the
    comparison residuals, ``arc_curvature`` and ``cond_dpsi`` are None for
    periodic pairs, where no comparison circle exists.  The chord direction
    used for tangent products points along the (shorter) arc from its first
    vertex to its last, so results do not depend on argument order.
    """

    i: int
    j: int
    d: float
    l: float
    d_over_l: float
    psi: float | None
    alpha: float | None
    d_over_psi: float | None
    chord_tangent_start: float
    chord_tangent_end: float
    tangent_sum_sq: float
    first_var_residual_dl: tuple[float, float]
    first_var_residual_dpsi: tuple[float, float] | None
    total_curvature: float
    arc_curvature: float | None

    @property
    def cond_dl(self) -> float:
        """Sign test certifying that a d/l local minimum rises under the flow.

        Evaluates -|e1+e2|^2 + <e1+e2, w>^2 + (d/l)^2 * (total |k| integral)^2
        from measured tangents; non-negative values certify monotonicity at
        this pair.
        """
        omega_dot = self.chord_tangent_start + self.chord_tangent_end
        return (
            -self.tangent_sum_sq
            + omega_dot**2
            + (self.d**2 / self.l**2) * self.total_curvature**2
        )

    @property
    def cond_dpsi(self) -> float | None:
        """Sign test for a d/psi local minimum, from the shorter-arc |k| integral.

        Evaluates cos(a)*I^2 - cos(a)*4*pi^2*l^2/L^2 - psi*l*|e1+e2|^2/d^2
        + (4l/psi)*cos(a)^2 where I = ``arc_curvature`` and the length L enters
        through psi and alpha.
        """
        if self.arc_curvature is None:
            return None
        cos_a = math.cos(self.alpha)
        # alpha = pi*l/L, so 4*pi^2*l^2/L^2 = 4*alpha^2
        return (
            cos_a * self.arc_curvature**2
            - cos_a * 4.0 * self.alpha**2
            - self.psi * self.l * self.tangent_sum_sq / (self.d * self.d)
            + (4.0 * self.l / self.psi) * cos_a**2
        )


def pair_diagnostics(
    curve: SampledCurve, pairs: list[tuple[int, int]]
) -> list[PairDiagnostics]:
    """Chord, arc, ratios, tangent products and both stability conditions,
    one ``PairDiagnostics`` per (i, j) of ``pairs``.

    Closed curves measure along the shorter of the two arcs; periodic
    curves measure forward along the periodic extension, allowing j up to
    i + n (the pure-offset pair).  The geometry, the |k| ds weights and the
    pair kernel's frame are computed once for all pairs.  Each chord is
    measured with the kernel's formula, so ``d_over_l`` and ``d_over_psi``
    hold the bits of the pair's ``ratio_field`` cell.
    """
    if not curve.is_cyclic():
        raise UnsupportedTopologyError(
            f"pair diagnostics need a cyclic curve, not {curve.topology!r}"
        )
    n, closed = curve.n, curve.topology == CLOSED
    geom = compute_geometry(curve)
    kds = geom.scalar_curvature * geom.ds
    total = total_absolute_curvature(geom)
    frame, length = _pair_frame(curve)
    found = []
    for i, j in pairs:
        i, j = int(i), int(j)
        if closed and not (0 <= i < n and 0 <= j < n):
            raise InvalidArgumentError(f"pair ({i}, {j}) out of range for n={n}")
        if not 0 <= i < n:
            raise InvalidArgumentError(f"first index {i} out of range for n={n}")
        if i == j:
            raise DiagonalPairError(f"vertex pair ({i}, {j}) has no chord")
        if not (closed or i < j <= i + n):
            raise InvalidArgumentError(
                f"periodic pair needs i < j <= i + n, got ({i}, {j})"
            )
        psi = alpha = arc_curvature = residual_dpsi = None
        if closed:
            lo, hi = (i, j) if i < j else (j, i)
            fwd = float(frame[3, hi] - frame[3, lo])
            # |k| ds from lo to hi, the end vertices at half weight
            inner = float(np.sum(kds[lo : hi + 1]))
            inner = inner - 0.5 * float(kds[lo]) - 0.5 * float(kds[hi])
            if fwd <= length - fwd:
                start, far, arc, arc_curvature = lo, hi, fwd, inner
            else:
                start, far, arc, arc_curvature = hi, lo, length - fwd, total - inner
            psi = float(comparison_chord(arc, length))
            alpha = arc * math.pi / length
        else:
            start, far, arc = i, j, float(frame[3, j] - frame[3, i])
        # a (3, 1) column, so that row_norm adds ((dx^2 + dy^2) + dz^2) as the kernel
        chord = frame[:3, far : far + 1] - frame[:3, start : start + 1]
        d = float(row_norm(chord)[0])
        if d == 0.0:
            raise InvalidArgumentError(f"vertices {i} and {j} coincide")
        omega = chord[:, 0] / d
        e_start, e_end = geom.tangents[start], geom.tangents[far % n]
        e_sum = e_start + e_end
        ct_start, ct_end = float(e_start @ omega), float(e_end @ omega)
        d_over_l = d / arc
        if psi is not None:
            target = (d / psi) * math.cos(alpha)
            residual_dpsi = (ct_start - target, ct_end - target)
        found.append(
            PairDiagnostics(
                i=i, j=j, d=d, l=arc, d_over_l=d_over_l, psi=psi, alpha=alpha,
                d_over_psi=None if psi is None else d / psi,
                chord_tangent_start=ct_start, chord_tangent_end=ct_end,
                tangent_sum_sq=float(e_sum @ e_sum),
                first_var_residual_dl=(ct_start - d_over_l, ct_end - d_over_l),
                first_var_residual_dpsi=residual_dpsi,
                total_curvature=total, arc_curvature=arc_curvature,
            )
        )
    return found
