"""Residual checks tying the SO(3) and unit-quaternion pictures together.

Each check returns a :class:`ResidualReport` whose ``passed`` flag is exactly
``max_residual <= tolerance``. The naturality checks compare the natural
connections on the two groups through the double cover (whose derivative
doubles axis vectors); the section checks integrate the quaternion lift of
sphere rolling; the span check certifies that plane-rolling holonomy
logarithms fill out all of so(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import (
    LocalConnectionForm,
    natural_alpha,
    natural_form,
    plane_rolling_form,
    sphere_surface,
    surface_rolling_form,
)
from .liecore import (
    commutator,
    cross,
    hat,
    lie_hom_derivative,
    log_so3,
    quat_conj,
    quat_mul,
    quat_to_rotation,
)
from .transport import (
    IntegratorConfig,
    PathSpec,
    circle,
    great_arc,
    holonomy,
    integration_grid,
    polyline,
    scale_path,
    small_loop_curvature,
    transport,
    transport_quat,
    _compose,
    _form_sampler,
)

SPAN_THRESHOLD = 1e-4  # smallest singular value required of normalized holonomy logs
_BASEPOINT = np.array([0.0, 0.0, 1.0])  # all section lifts start here


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one check: worst residual over its samples vs a tolerance."""

    name: str
    max_residual: float
    samples: int
    tolerance: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.max_residual <= self.tolerance):
            raise ValueError("inconsistent report: passed must equal max_residual <= tolerance")


def make_report(name: str, max_residual: float, samples: int, tolerance: float) -> ResidualReport:
    r = float(max_residual)
    return ResidualReport(
        name=name, max_residual=r, samples=int(samples), tolerance=float(tolerance),
        passed=bool(r <= float(tolerance)),
    )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_unit_quat(rng) -> np.ndarray:
    while True:
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
        if n > 1e-3:
            return q / n


def _left_matrix(q) -> np.ndarray:
    """4x4 matrix of left Hamilton multiplication by q (basis w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def _s3_bracket(xi, eta) -> np.ndarray:
    """Bracket of pure quaternions through the left-multiplication matrices.

    [L(xi), L(eta)] = L(xi eta - eta xi); the first column of a left matrix
    is the quaternion itself, so the pure part of that column is returned.
    """
    Lx = _left_matrix(np.concatenate([[0.0], np.asarray(xi, dtype=float)]))
    Le = _left_matrix(np.concatenate([[0.0], np.asarray(eta, dtype=float)]))
    return commutator(Lx, Le)[:, 0][1:]


# ---------------------------------------------------------------------------
# naturality checks


def check_alpha_naturality(samples: int = 100, seed: int = 101) -> ResidualReport:
    """Total forms commute with the double cover on randomized tangents.

    Sends the S^3 total-space value through the algebra isomorphism and
    compares with the SO(3) total form at the image point: base points and
    base tangents double, a right-invariant tangent w q at q maps to
    hat(2w) phi(q) at phi(q).
    """
    rng = np.random.RandomState(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        q = _random_unit_quat(rng)
        R = quat_to_rotation(q)

        xi_quat = quat_mul(np.concatenate([[0.0], w]), q)
        alpha_s3 = (
            quat_mul(quat_conj(q), xi_quat)
            - quat_mul(quat_mul(quat_conj(q), np.concatenate([[0.0], v])), q)
        )[1:]
        lhs = lie_hom_derivative(alpha_s3)
        rhs = natural_alpha(2.0 * x, R, 2.0 * v, hat(2.0 * w) @ R)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return make_report("alpha-naturality", worst, samples, 1e-8)


def check_omega_naturality(samples: int = 100, seed: int = 202) -> ResidualReport:
    """Local forms commute with the algebra isomorphism: omega(2v) = 2 omega(v)."""
    rng = np.random.RandomState(seed)
    form = natural_form()
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lhs = form(2.0 * x, lie_hom_derivative(v))
        rhs = lie_hom_derivative(-v)  # image of the S^3 local value omega(v) = -v
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return make_report("omega-naturality", worst, samples, 1e-12)


def check_curvature_naturality(samples: int = 100, seed: int = 303) -> ResidualReport:
    """Curvatures correspond: the image of the S^3 bracket is the doubled cross product.

    The S^3 curvature value on (u, v) is the pure-quaternion bracket, computed
    here through 4x4 left-multiplication matrices; its image under the algebra
    isomorphism must equal the SO(3) curvature cross(2u, 2v).
    """
    rng = np.random.RandomState(seed)
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lhs = lie_hom_derivative(_s3_bracket(u, v))
        rhs = cross(lie_hom_derivative(u), lie_hom_derivative(v))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return make_report("curvature-naturality", worst, samples, 1e-10)


def default_naturality_path() -> PathSpec:
    """Non-planar figure-eight polyline used by the transport naturality check."""
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 2.0, 1.0],
            [-1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, -1.0, 0.0],
            [0.0, -2.0, 1.0],
            [-1.0, -1.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    return polyline(pts, closed=True)


def check_transport_naturality(
    path: PathSpec | None = None, config: IntegratorConfig | None = None
) -> ResidualReport:
    """Quaternion transport projects onto SO(3) transport along the doubled path.

    Because the covering map doubles algebra increments, the S^3 run along c
    corresponds to the SO(3) run along 2c on the same grid; each step maps
    exactly, so the residual is pure roundoff.
    """
    c = path or default_naturality_path()
    cfg = config or IntegratorConfig()
    q = transport_quat(c, config=cfg).final
    lhs = quat_to_rotation(q)
    rhs = transport(natural_form(), scale_path(c, 2.0), config=cfg).final
    return make_report("transport-naturality", float(np.linalg.norm(lhs - rhs)), 1, 1e-7)


# ---------------------------------------------------------------------------
# sphere sections through the quaternion lift


def lift_transport(
    form: LocalConnectionForm,
    path: PathSpec,
    q0=None,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Continuous unit-quaternion lift of an SO(3) transport run.

    Steps with half the algebra increment, quat_exp(dt a / 2), so the image
    under the double cover reproduces exp_so3(dt a) exactly at every step
    while the sign is tracked by continuity from q0. This is the quaternion
    product that :func:`liecurv.transport.transport` projects to SO(3); both
    come from the same stepping engine.
    """
    sample = _form_sampler(form, path)
    cfg = config or IntegratorConfig(steps=512)
    q = np.array([1.0, 0.0, 0.0, 0.0]) if q0 is None else np.asarray(q0, dtype=float)
    nodes = integration_grid(cfg.steps, path.corners)
    _, Q = _compose(sample, nodes, cfg.method == "exp-midpoint", 0.5, q)
    return Q[-1]


def unit_sphere_section(p, config: IntegratorConfig | None = None, legs=None):
    """Quaternion section of unit-sphere rolling at the point p.

    Transports the identity lift from the basepoint (0, 0, 1) to p along a
    great arc (or along the supplied legs, a sequence of (path, surface)
    pairs in chart coordinates) and returns the pair

        (integrated lift, closed-form value (z, -y, x, 0)).

    The two agree up to a global sign.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError("unit_sphere_section expects a point in R^3")
    if abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise ValueError("point must lie on the unit sphere")

    if legs is None:
        legs = [] if np.linalg.norm(p - _BASEPOINT) <= 1e-12 else [great_arc(_BASEPOINT, p)]
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for leg_path, leg_surface in legs:
        q = lift_transport(surface_rolling_form(leg_surface), leg_path, q, config)

    formula = np.array([p[2], -p[1], p[0], 0.0])
    return q, formula


def section_residual(p, config: IntegratorConfig | None = None, legs=None) -> float:
    """Distance (up to global sign) between the integrated and closed-form section."""
    q, formula = unit_sphere_section(p, config=config, legs=legs)
    return float(min(np.linalg.norm(q - formula), np.linalg.norm(q + formula)))


def check_section_path_independence(
    samples: int = 5, seed: int = 404, config: IntegratorConfig | None = None
) -> ResidualReport:
    """The rotation reached at a target does not depend on the great-arc route.

    Each sample compares the direct arc from the basepoint with a two-leg
    route through a random waypoint, as rotations (so the quaternion sign
    ambiguity drops out).
    """
    rng = np.random.RandomState(seed)
    worst = 0.0
    done = 0
    while done < samples:
        p = _unit(rng.standard_normal(3))
        m = _unit(rng.standard_normal(3))
        # keep arcs well defined: no leg may connect near-identical points
        pairs = [(_BASEPOINT, p), (_BASEPOINT, m), (m, p)]
        if any(abs(float(a @ b)) > 0.99 for a, b in pairs):
            continue
        q_direct, _ = unit_sphere_section(p, config=config)
        q_via, _ = unit_sphere_section(
            p, config=config, legs=[great_arc(_BASEPOINT, m), great_arc(m, p)]
        )
        diff = np.linalg.norm(quat_to_rotation(q_direct) - quat_to_rotation(q_via))
        worst = max(worst, float(diff))
        done += 1
    return make_report("section-path-independence", worst, samples, 1e-6)


def antipodal_check(
    samples: int = 3, seed: int = 505, config: IntegratorConfig | None = None
) -> ResidualReport:
    """Antipodal targets receive the same rotation (the cover kernel is +-1).

    Checks the pole pair (0,0,1) / (0,0,-1) plus randomized pairs.
    """
    rng = np.random.RandomState(seed)
    points = [_BASEPOINT.copy()]
    while len(points) < max(samples, 1):
        p = _unit(rng.standard_normal(3))
        if abs(float(p @ _BASEPOINT)) <= 0.99:
            points.append(p)
    worst = 0.0
    for p in points:
        q_plus, _ = unit_sphere_section(p, config=config)
        q_minus, _ = unit_sphere_section(-p, config=config)
        diff = np.linalg.norm(quat_to_rotation(q_plus) - quat_to_rotation(q_minus))
        worst = max(worst, float(diff))
    return make_report("antipodal-sections", worst, len(points), 1e-6)


def inner_unit_sphere_identity(
    loop: PathSpec | None = None, config: IntegratorConfig | None = None
) -> ResidualReport:
    """Rolling inside the unit sphere transports nothing: holonomy is the identity.

    The inner Gauss map cancels every velocity (v + Dn v = 0), so the
    connection form vanishes identically and any loop returns I exactly.
    """
    form = surface_rolling_form(sphere_surface(1.0, side="inner"))
    c = loop or circle(center=np.array([1.2, 0.5]), radius=0.4)
    cfg = config or IntegratorConfig(steps=512)
    residual = float(np.linalg.norm(holonomy(form, c, cfg) - np.eye(3)))
    return make_report("inner-unit-sphere-identity", residual, 1, 1e-12)


# ---------------------------------------------------------------------------
# holonomy span and curvature scaling


def lasso_loop(base, corner) -> PathSpec:
    """Closed loop: straight tail from ``base`` to ``corner``, around the unit
    square anchored there, and back along the tail.

    Conjugating a square by different tails tilts the holonomy logarithms,
    which is what lets a family of lassos span all of so(3) even under a
    translation-invariant connection.
    """
    b = np.asarray(base, dtype=float)
    c = np.asarray(corner, dtype=float)
    if b.shape != c.shape or b.ndim != 1:
        raise ValueError("lasso_loop expects base and corner of equal dimension")
    e1 = np.zeros_like(b)
    e1[0] = 1.0
    e2 = np.zeros_like(b)
    e2[1] = 1.0
    pts = np.array([b, c, c + e1, c + e1 + e2, c + e2, c, b])
    return polyline(pts, closed=True)


def default_span_loops() -> list[PathSpec]:
    """Three unit-square lassos from the origin with well-spread tails."""
    base = np.zeros(2)
    return [
        lasso_loop(base, np.array([2.0, 0.0])),
        lasso_loop(base, np.array([-1.0, 1.5])),
        lasso_loop(base, np.array([0.5, -2.0])),
    ]


def holonomy_span_check(
    loops=None,
    form: LocalConnectionForm | None = None,
    config: IntegratorConfig | None = None,
) -> ResidualReport:
    """Do the loops' holonomy logarithms span so(3)?

    Normalizes each log to a unit axis and reports the shortfall of the
    smallest singular value below SPAN_THRESHOLD (0 when the family spans;
    the report fails when any direction is missing, e.g. for repeated or
    translated copies of one loop under a translation-invariant form).
    """
    form = form or plane_rolling_form()
    loops = list(loops) if loops is not None else default_span_loops()
    if len(loops) < 3:
        raise ValueError("span check needs at least three loops")
    cfg = config or IntegratorConfig(steps=64)
    cols = []
    for c in loops:
        w = log_so3(holonomy(form, c, cfg))
        n = np.linalg.norm(w)
        cols.append(np.zeros(3) if n < 1e-12 else w / n)
    sigma_min = float(np.linalg.svd(np.column_stack(cols), compute_uv=False)[-1])
    shortfall = max(0.0, SPAN_THRESHOLD - sigma_min)
    return make_report("plane-rolling-span", shortfall, len(loops), 0.0)


def degenerate_span_loops() -> list[PathSpec]:
    """Three copies of one lasso: a control family that cannot span so(3)."""
    loop = lasso_loop(np.zeros(2), np.array([2.0, 0.0]))
    return [loop, loop, loop]


def sphere_curvature_factor(
    radius: float, eps: float = 1e-2, config: IntegratorConfig | None = None
) -> float:
    """Measured ratio of sphere-rolling curvature to the flat-case curvature.

    Estimates the curvature at a fixed chart point from Richardson-
    extrapolated small loops and projects it onto the flat value
    cross(U, V) of the chart pushforwards. The signed projection recovers
    1 - 1/r^2, including its sign (-3 at r = 1/2, 0 at r = 1).

    ``eps`` is the embedded size of the probing loops; chart tangents scale
    with the radius, so the chart-coordinate parallelogram uses eps / r
    (otherwise large spheres would wrap the holonomy angle past pi).
    """
    surface = sphere_surface(radius, side="outer")
    form = surface_rolling_form(surface)
    cfg = config or IntegratorConfig(steps=512)
    x = np.array([1.0, 0.3])
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    est = small_loop_curvature(form, x, u, v, eps / radius, cfg, richardson=True)
    T = surface.chart_tangent(x)
    flat = cross(T @ u, T @ v)
    return float((est @ flat) / (flat @ flat))


def sphere_factor_report(config: IntegratorConfig | None = None) -> ResidualReport:
    """Report the radius-2 curvature factor against its exact value 0.75."""
    factor = sphere_curvature_factor(2.0, config=config)
    return make_report("sphere-curvature-factor", abs(factor - 0.75), 1, 7.5e-4)


def run_all_checks(config: IntegratorConfig | None = None, seed: int | None = None) -> list[ResidualReport]:
    """The standard battery, ordered by check name, with fixed default seeds.

    ``seed`` offsets every randomized check's seed; ``config`` overrides the
    integrator for the transport-based checks.
    """
    def s(default: int) -> int:
        return default if seed is None else seed + default

    reports = [
        check_alpha_naturality(seed=s(101)),
        check_omega_naturality(seed=s(202)),
        check_curvature_naturality(seed=s(303)),
        check_transport_naturality(config=config),
        check_section_path_independence(seed=s(404), config=config),
        antipodal_check(seed=s(505), config=config),
        inner_unit_sphere_identity(config=config),
        holonomy_span_check(config=config),
        sphere_factor_report(config=config),
    ]
    return sorted(reports, key=lambda r: r.name)
