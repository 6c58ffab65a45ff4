"""Parallel transport, holonomy, and curvature estimation on trivial SO(3) bundles.

The flat "natural" connection on R^3 (whose curvature two-form is the cross
product), the rolling-sphere connections on the plane and on spheres, Lie
group integrators for the transport equation, small-loop curvature
estimators, and residual checks relating the SO(3) and unit-quaternion
pictures through the double cover.
"""

from .connections import (
    PLANE_ROLLING_PULLBACK,
    POLAR_CAP,
    LocalConnectionForm,
    Surface,
    curvature_closed_form,
    natural_alpha,
    natural_form,
    parametric_surface,
    plane_rolling_form,
    pullback_form,
    sphere_surface,
    surface_rolling_form,
)
from .liecore import (
    canonical_quat,
    check_rotation,
    check_unit_quat,
    commutator,
    cross,
    exp_so3,
    hat,
    lie_hom_derivative,
    log_so3,
    quat_to_rotation,
    rotation_to_quat,
    vee,
)
from .transport import (
    IntegratorConfig,
    PathSpec,
    TransportResult,
    circle,
    commutator_by_flows,
    convergence_order,
    great_arc,
    holonomy,
    integration_grid,
    lift_transport,
    line,
    parallelogram_loop,
    polyline,
    small_loop_curvature,
    time_ordered_product,
    transport,
    transport_quat,
)
from .verify import (
    ResidualReport,
    antipodal_check,
    check_alpha_naturality,
    check_curvature_naturality,
    check_omega_naturality,
    check_section_path_independence,
    check_transport_naturality,
    default_span_loops,
    degenerate_span_loops,
    holonomy_span_check,
    inner_unit_sphere_identity,
    lasso_loop,
    run_all_checks,
    section_residual,
    sphere_curvature_factor,
    unit_sphere_section,
)

__version__ = "0.1.0"
