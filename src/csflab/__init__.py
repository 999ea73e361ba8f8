"""csflab: a numerical laboratory for the curvature flow of space curves.

Evolves discrete closed, open and periodic curves by their curvature
vector, tracks chord-arc ratio fields and their local minima, evaluates
the analytic helix and graph-curve stability conditions, and verifies the
shrinking-sphere structure of spherical flows.

The package namespace holds the entry points below; everything else is
imported from the module that defines it (``csflab.flow``,
``csflab.chordarc``, ...).
"""

from .chordarc import D_OVER_L, D_OVER_PSI, min_pair_ratio, ratio_field
from .curve import (
    CLOSED,
    SampledCurve,
    arc_positions,
    compute_geometry,
    total_absolute_curvature,
)
from .flow import SEMI_IMPLICIT, FlowConfig, run
from .helix import (
    HelixParams,
    helix_pair_condition,
    helix_pair_condition_scaled,
    helix_radius_at,
    helix_ratio_time_derivative,
    negative_condition_cells,
    scaled_condition_threshold,
)
from .presets import (
    CIRCLE,
    COS2U_CURVE,
    ELLIPSE,
    HELIX,
    SPHERE_PERTURBED,
    build_curve,
    make_preset,
)
from .sphere import consistency_profile

__version__ = "0.1.0"

__all__ = [
    "CIRCLE",
    "CLOSED",
    "COS2U_CURVE",
    "D_OVER_L",
    "D_OVER_PSI",
    "ELLIPSE",
    "HELIX",
    "SEMI_IMPLICIT",
    "SPHERE_PERTURBED",
    "FlowConfig",
    "HelixParams",
    "SampledCurve",
    "__version__",
    "arc_positions",
    "build_curve",
    "compute_geometry",
    "consistency_profile",
    "helix_pair_condition",
    "helix_pair_condition_scaled",
    "helix_radius_at",
    "helix_ratio_time_derivative",
    "make_preset",
    "min_pair_ratio",
    "negative_condition_cells",
    "ratio_field",
    "run",
    "scaled_condition_threshold",
    "total_absolute_curvature",
]
