"""csflab: a numerical laboratory for the curvature flow of space curves.

Evolves discrete closed, open and periodic curves by their curvature
vector, tracks chord-arc ratio fields and their local minima, evaluates
the analytic helix and graph-curve stability conditions, and verifies the
shrinking-sphere structure of spherical flows.
"""

from .chordarc import (
    D_OVER_L,
    D_OVER_PSI,
    PairDiagnostics,
    RatioField,
    arc_curvature_integral,
    comparison_chord,
    find_local_minima,
    min_pair_ratio,
    pair_diagnostics,
    ratio_field,
    ratio_minima,
    ratio_minimum_condition_dl,
    ratio_minimum_condition_dpsi,
)
from .curve import (
    CLOSED,
    OPEN,
    PERIODIC,
    CurveGeometry,
    SampledCurve,
    arc_positions,
    compute_geometry,
    resample_uniform,
    segment_lengths,
    total_absolute_curvature,
    total_squared_curvature,
)
from .diagnostics import (
    analyze_directory,
    emit_record,
    simulate_preset,
)
from .errors import (
    CsfError,
    DiagonalPairError,
    DomainError,
    IndicatorUndefinedError,
    InvalidArgumentError,
    InvalidCurveError,
    NotOnSphereError,
    NumericalFailureError,
    UnsupportedTopologyError,
)
from .flow import (
    EXPLICIT,
    NO_REMESH,
    SEMI_IMPLICIT,
    FlowConfig,
    FlowState,
    RecordRow,
    RunRecord,
    estimate_vanishing_time,
    make_state,
    run,
    run_to_times,
    singularity_indicator,
    snapshot_diagnostics,
    stable_step,
    step_explicit,
    step_semi_implicit,
)
from .helix import (
    GraphCurveSpec,
    HelixParams,
    cosine_taylor_gap,
    graph_curve_condition,
    helix_graph_spec,
    helix_pair_condition,
    helix_pair_condition_scaled,
    helix_radius_at,
    helix_ratio_time_derivative,
    negative_condition_cells,
    scaled_condition_lower_bound,
    scaled_condition_threshold,
    shrinking_circle_radius,
)
from .presets import (
    CIRCLE,
    COS2U_CURVE,
    CUSTOM_FILE,
    ELLIPSE,
    GRAPH_CURVE,
    HELIX,
    PRESET_NAMES,
    SPHERE_PERTURBED,
    Preset,
    build_curve,
    graph_spec_for,
    make_preset,
    sphere_radius_for,
)
from .sphere import (
    RescaledState,
    SphereDecomposition,
    consistency_check,
    consistency_profile,
    decompose_curvature,
    inverse_time_dilation,
    rescale,
    run_geodesic_flow,
    sphere_residual,
    step_geodesic_flow,
    time_dilation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
