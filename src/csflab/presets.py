"""Named starting curves with analytically placed vertices.

Closed presets are sampled uniformly by arc length: a dense parameter
table of the analytic curve is inverted so every vertex still lies exactly
on the curve but consecutive vertices are equidistant along it.  Uniform
spacing makes the first remesh a near no-op and keeps symmetric features
(crests, valleys, axis points) on exact vertex indices.  The dense table
is built in chunks of 4096 samples, so only the parameters and their arc
lengths are held at full length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import CLOSED, MIN_VERTICES, PERIODIC, SampledCurve
from .errors import InvalidArgumentError, require_integer, require_real
from .helix import GraphCurveSpec, helix_graph_spec

CIRCLE = "circle"
ELLIPSE = "ellipse"
HELIX = "helix"
GRAPH_CURVE = "graph-curve"
COS2U_CURVE = "cos2u-curve"
SPHERE_PERTURBED = "sphere-perturbed"
CUSTOM_FILE = "custom-file"

PRESET_NAMES = (
    CIRCLE,
    ELLIPSE,
    HELIX,
    GRAPH_CURVE,
    COS2U_CURVE,
    SPHERE_PERTURBED,
    CUSTOM_FILE,
)

_DEFAULTS: dict[str, dict] = {
    CIRCLE: {"r": 1.0},
    ELLIPSE: {"a": 2.0, "b": 1.0},
    HELIX: {"a": 1.0, "b": 1.0},
    GRAPH_CURVE: {"a": 1.0, "b": 1.0, "eps": 0.0, "harmonic": 3},
    COS2U_CURVE: {},
    SPHERE_PERTURBED: {"eps": 0.2, "harmonic": 3},
    CUSTOM_FILE: {"path": None},
}


@dataclass(frozen=True)
class Preset:
    """A named initial-curve family with its shape parameters."""

    name: str
    n: int = 512
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise InvalidArgumentError(
                f"unknown preset {self.name!r}; choose from {PRESET_NAMES}"
            )
        object.__setattr__(self, "n", require_integer("n", self.n))
        if self.n < MIN_VERTICES[CLOSED]:  # the built-in curves are closed or periodic
            raise InvalidArgumentError(
                f"presets need at least {MIN_VERTICES[CLOSED]} vertices, got {self.n}"
            )
        allowed = set(_DEFAULTS[self.name])
        unknown = set(self.params) - allowed
        if unknown:
            raise InvalidArgumentError(
                f"preset {self.name!r} does not take {sorted(unknown)}"
            )
        merged = {**_DEFAULTS[self.name], **self.params}
        object.__setattr__(self, "params", merged)


def make_preset(name: str, n: int = 512, **params) -> Preset:
    return Preset(name=name, n=n, params=params)


# samples per chunk of the arc-length table, and the table's smallest size
_TABLE_CHUNK = 4096


def _arc_uniform_points(position, n: int) -> np.ndarray:
    """n points of the closed curve ``position`` equally spaced along it.

    Builds a dense polyline of ``position(u)`` over [0, 2 pi], accumulates
    chord length, and inverts it at n equal arc targets below the full
    length (u = 2 pi duplicates u = 0).  Chunks share their end sample and
    carry the running sum in ``cumsum``'s order, so ``s`` has the bits of
    one ``cumsum`` over the whole polyline.
    """
    dense = max(_TABLE_CHUNK, 64 * n) + 1
    u = np.linspace(0.0, 2.0 * math.pi, dense)
    s = np.empty(dense)
    s[0] = 0.0
    for lo in range(0, dense - 1, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, dense - 1)
        seg = np.linalg.norm(np.diff(position(u[lo : hi + 1]), axis=0), axis=1)
        s[lo + 1 : hi + 1] = np.cumsum(np.concatenate(([s[lo]], seg)))[1:]
    return position(np.interp(np.arange(n) * (s[-1] / n), s, u))


def _circle_points(r: float, n: int) -> np.ndarray:
    u = np.arange(n) * (2.0 * math.pi / n)
    return np.column_stack([r * np.cos(u), r * np.sin(u), np.zeros(n)])


def _ellipse_points(a: float, b: float, n: int) -> np.ndarray:
    def position(u):
        return np.column_stack([a * np.cos(u), b * np.sin(u), np.zeros_like(u)])

    return _arc_uniform_points(position, n)


def _cos2u_points(n: int) -> np.ndarray:
    def position(u):
        return np.column_stack([np.cos(u), np.sin(u), np.cos(2.0 * u)])

    return _arc_uniform_points(position, n)


def _sphere_perturbed_points(eps: float, harmonic: int, n: int) -> np.ndarray:
    if harmonic < 2:
        raise InvalidArgumentError("harmonic must be an integer >= 2")

    def position(u):
        raw = np.column_stack(
            [np.cos(u), np.sin(u), eps * np.cos(harmonic * u)]
        )
        return raw / np.linalg.norm(raw, axis=1)[:, None]

    return _arc_uniform_points(position, n)


def _param(preset: Preset, key: str, rule: str, in_range=lambda value: True):
    """The float parameter ``key``, which must be a finite real and
    ``in_range``; otherwise the error states ``rule`` and names the parameter."""
    value = require_real(key, preset.params[key])
    if math.isfinite(value) and in_range(value):
        return value
    raise InvalidArgumentError(f"{rule}, got {key}={value!r}")


def _positive(value) -> bool:
    return value > 0.0


def build_curve(preset: Preset) -> SampledCurve:
    """Materialize the preset as a sampled curve."""
    p = preset.params
    n = preset.n
    if preset.name == CIRCLE:
        r = _param(preset, "r", "circle radius must be positive and finite", _positive)
        return SampledCurve(_circle_points(r, n), CLOSED)
    if preset.name == ELLIPSE:
        rule = "ellipse semi-axes must be positive and finite"
        a, b = (_param(preset, key, rule, _positive) for key in ("a", "b"))
        return SampledCurve(_ellipse_points(a, b, n), CLOSED)
    if preset.name == COS2U_CURVE:
        return SampledCurve(_cos2u_points(n), CLOSED)
    if preset.name == SPHERE_PERTURBED:
        rule = "perturbation eps must lie in (0, 0.5]"
        eps = _param(preset, "eps", rule, lambda eps: 0.0 < eps <= 0.5)
        harmonic = require_integer("harmonic", p["harmonic"])
        return SampledCurve(_sphere_perturbed_points(eps, harmonic, n), CLOSED)
    if preset.name in (HELIX, GRAPH_CURVE):
        spec = graph_spec_for(preset)
        pts = np.column_stack([spec.f, spec.g, spec.pitch * spec.u])
        offset = np.array([0.0, 0.0, 2.0 * math.pi * spec.pitch])
        return SampledCurve(pts, PERIODIC, offset)
    if preset.name == CUSTOM_FILE:
        if not p["path"]:
            raise InvalidArgumentError("custom-file preset needs a path")
        from . import fileio

        return fileio.read_curve(p["path"])
    raise InvalidArgumentError(f"unknown preset {preset.name!r}")


def graph_spec_for(preset: Preset) -> GraphCurveSpec:
    """Analytic graph-curve spec on the helix or graph-curve preset grid.

    The helix is the graph curve with eps = 0; both presets take their
    vertices (f, g, b u) from this spec.
    """
    if preset.name not in (HELIX, GRAPH_CURVE):
        raise InvalidArgumentError(
            "graph specs exist only for helix and graph-curve presets"
        )
    rule = f"{preset.name} preset needs a > 0 and b != 0, both finite"
    shape = {
        "a": _param(preset, "a", rule, _positive),
        "b": _param(preset, "b", rule, lambda b: b != 0.0),
    }
    if preset.name == GRAPH_CURVE:
        eps = _param(preset, "eps", "graph-curve eps must be finite")
        harmonic = require_integer("harmonic", preset.params["harmonic"])
        shape.update(eps=eps, harmonic=harmonic)
    return helix_graph_spec(n=preset.n, **shape)


def sphere_radius_for(preset: Preset) -> float | None:
    """Initial sphere radius when the preset is spherical, else None."""
    return 1.0 if preset.name == SPHERE_PERTURBED else None
