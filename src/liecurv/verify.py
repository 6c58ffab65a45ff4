"""Residual checks tying the SO(3) and unit-quaternion pictures together.

Each check returns a :class:`ResidualReport`, whose ``passed`` flag is
computed as ``max_residual <= tolerance``. The naturality checks compare the
natural connections on the two groups through the double cover (whose
derivative doubles axis vectors); the section checks integrate the quaternion
lift of sphere rolling; the span check certifies that plane-rolling holonomy
logarithms fill out all of so(3). The curvature probe,
:func:`curvature_probe`, is the one ``liecurv curvature`` runs, so the CLI
prints the same factor as :func:`sphere_curvature_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connections import (
    LocalConnectionForm,
    curvature_closed_form,
    natural_alpha,
    natural_form,
    plane_rolling_form,
    sphere_surface,
    surface_rolling_form,
)
from .liecore import (
    commutator,
    cross,
    hamilton,
    hat,
    lie_hom_derivative,
    log_so3,
    quat_to_rotation,
)
from .transport import (
    IntegratorConfig,
    PathSpec,
    circle,
    great_arc,
    holonomy,
    lift_transport,
    polyline,
    small_loop_curvature,
    transport,
    transport_quat,
    with_default_steps,
)

NATURALITY_SAMPLES = 100  # random draws per pointwise naturality check
SPAN_THRESHOLD = 1e-4  # smallest singular value required of normalized holonomy logs
_BASEPOINT = np.array([0.0, 0.0, 1.0])  # all section lifts start here
# vertices of the non-planar figure-eight that the transport naturality check runs
_FIGURE_EIGHT = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                          [1.0, -1.0, 0.0], [0.0, -2.0, 1.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one check: worst residual over its samples vs a tolerance.

    The numbers are stored as Python floats and ints, and ``passed`` is
    derived from them: ``max_residual <= tolerance``.
    """

    name: str
    max_residual: float
    samples: int
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", self.max_residual <= self.tolerance)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_unit_quat(rng) -> np.ndarray:
    while True:
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
        if n > 1e-3:
            return q / n


def _worst(D: np.ndarray) -> float:
    """Largest row norm of the residual stack D, each row's norm taken as for a single vector
    (``np.linalg.norm(D, axis=-1)`` sums in another order and can differ in the last bit)."""
    return max(0.0, *(float(np.linalg.norm(d)) for d in D))


def _pure(u: np.ndarray) -> np.ndarray:
    """Pure quaternions (0, u) for a stack of 3-vectors u."""
    return np.concatenate([np.zeros(u.shape[:-1] + (1,)), u], axis=-1)


def _left_matrix(q) -> np.ndarray:
    """4x4 matrices of left Hamilton multiplication by a stack of quaternions q (basis w, x, y, z)."""
    w, x, y, z = (q[..., i] for i in range(4))
    rows = [w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w]
    return np.stack(rows, axis=-1).reshape(q.shape[:-1] + (4, 4))


def _s3_bracket(xi, eta) -> np.ndarray:
    """Bracket of (stacks of) pure quaternions through the left-multiplication matrices.

    [L(xi), L(eta)] = L(xi eta - eta xi); the first column of a left matrix
    is the quaternion itself, so the pure part of that column is returned.
    """
    Lx = _left_matrix(_pure(np.asarray(xi, dtype=float)))
    Le = _left_matrix(_pure(np.asarray(eta, dtype=float)))
    return commutator(Lx, Le)[..., 1:, 0]


# ---------------------------------------------------------------------------
# naturality checks: each draws its samples in stream order and evaluates them as one stack


def check_alpha_naturality(seed: int = 0) -> ResidualReport:
    """Total forms commute with the double cover on randomized tangents.

    Sends the S^3 total-space value through the algebra isomorphism and
    compares with the SO(3) total form at the image point: base points and
    base tangents double, a right-invariant tangent w q at q maps to
    hat(2w) phi(q) at phi(q). Draws NATURALITY_SAMPLES samples (x, v, w,
    then a unit quaternion q) from RandomState(101 + seed).
    """
    rng = np.random.RandomState(101 + seed)
    draws = [(rng.standard_normal(9), _random_unit_quat(rng)) for _ in range(NATURALITY_SAMPLES)]
    xvw, q = map(np.stack, zip(*draws))
    x, v, w = xvw.reshape(-1, 3, 3).transpose(1, 0, 2)
    R = quat_to_rotation(q)

    # quaternions as component rows (w, x, y, z): q's conjugate, and pure quaternions (0, u) on a zero row
    qc, zero = (q[:, 0], -q[:, 1], -q[:, 2], -q[:, 3]), np.zeros(NATURALITY_SAMPLES)
    xi_quat = hamilton((zero, *w.T), q.T)
    alpha_s3 = np.subtract(hamilton(qc, xi_quat), hamilton(hamilton(qc, (zero, *v.T)), q.T))[1:].T
    lhs = lie_hom_derivative(alpha_s3)
    rhs = natural_alpha(2.0 * x, R, 2.0 * v, hat(2.0 * w) @ R)
    return ResidualReport("alpha-naturality", _worst(lhs - rhs), NATURALITY_SAMPLES, 1e-8)


def check_omega_naturality(seed: int = 0) -> ResidualReport:
    """Local forms commute with the algebra isomorphism: omega(2v) = 2 omega(v).

    Draws NATURALITY_SAMPLES samples (x, v) from RandomState(202 + seed).
    """
    x, v = np.random.RandomState(202 + seed).standard_normal((NATURALITY_SAMPLES, 2, 3)).transpose(1, 0, 2)
    lhs = natural_form().evaluate(2.0 * x, lie_hom_derivative(v))
    rhs = lie_hom_derivative(-v)  # image of the S^3 local value omega(v) = -v
    return ResidualReport("omega-naturality", _worst(lhs - rhs), NATURALITY_SAMPLES, 1e-12)


def check_curvature_naturality(seed: int = 0) -> ResidualReport:
    """Curvatures correspond: the image of the S^3 bracket is the doubled cross product.

    The S^3 curvature value on (u, v) is the pure-quaternion bracket, computed
    here through 4x4 left-multiplication matrices; its image under the algebra
    isomorphism must equal the SO(3) curvature cross(2u, 2v). Draws
    NATURALITY_SAMPLES samples (u, v) from RandomState(303 + seed).
    """
    u, v = np.random.RandomState(303 + seed).standard_normal((NATURALITY_SAMPLES, 2, 3)).transpose(1, 0, 2)
    lhs = lie_hom_derivative(_s3_bracket(u, v))
    rhs = cross(lie_hom_derivative(u), lie_hom_derivative(v))
    return ResidualReport("curvature-naturality", _worst(lhs - rhs), NATURALITY_SAMPLES, 1e-10)


def check_transport_naturality(config: IntegratorConfig | None = None) -> ResidualReport:
    """Quaternion transport projects onto SO(3) transport along the doubled path.

    Because the covering map doubles algebra increments, the S^3 run along c
    corresponds to the SO(3) run along 2c on the same grid. c is the closed polyline through
    ``_FIGURE_EIGHT`` and 2c the one through its doubled vertices. Doubling is exact, so both runs feed one
    engine bitwise equal increments and the residual is 0.0 by construction; the engine itself is checked
    against an ordered product of exponentials in the tests. Both runs take ``config``, with the
    transports' own 10,000 steps unless it gives a count.
    """
    q = transport_quat(polyline(_FIGURE_EIGHT, closed=True), config=config).final
    lhs = quat_to_rotation(q)
    rhs = transport(natural_form(), polyline(2.0 * _FIGURE_EIGHT, closed=True), config=config).final
    return ResidualReport("transport-naturality", float(np.linalg.norm(lhs - rhs)), 1, 1e-7)


# ---------------------------------------------------------------------------
# sphere sections through the quaternion lift


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
    return q, np.array([p[2], -p[1], p[0], 0.0])


def section_residual(q, formula) -> float:
    """Distance up to global sign, min(|q - f|, |q + f|), between an integrated
    section ``q`` and its closed form, as :func:`unit_sphere_section` returns them."""
    return float(min(np.linalg.norm(q - formula), np.linalg.norm(q + formula)))


def check_section_path_independence(seed: int = 0, config: IntegratorConfig | None = None) -> ResidualReport:
    """The rotation reached at a target does not depend on the great-arc route.

    Each of 5 samples, drawn from RandomState(404 + seed), compares the
    direct arc from the basepoint with a two-leg route through a random
    waypoint, as rotations (so the quaternion sign ambiguity drops out).
    """
    rng = np.random.RandomState(404 + seed)
    worst, done = 0.0, 0
    while done < 5:
        p, m = _unit(rng.standard_normal(3)), _unit(rng.standard_normal(3))
        # keep arcs well defined: no leg may connect near-identical points
        pairs = [(_BASEPOINT, p), (_BASEPOINT, m), (m, p)]
        if any(abs(float(a @ b)) > 0.99 for a, b in pairs):
            continue
        q_direct, _ = unit_sphere_section(p, config=config)
        q_via, _ = unit_sphere_section(p, config=config, legs=[great_arc(_BASEPOINT, m), great_arc(m, p)])
        worst = max(worst, float(np.linalg.norm(quat_to_rotation(q_direct) - quat_to_rotation(q_via))))
        done += 1
    return ResidualReport("section-path-independence", worst, done, 1e-6)


def antipodal_check(seed: int = 0, config: IntegratorConfig | None = None) -> ResidualReport:
    """Antipodal targets receive the same rotation (the cover kernel is +-1).

    Checks the pole pair (0,0,1) / (0,0,-1) plus two pairs drawn from
    RandomState(505 + seed).
    """
    rng = np.random.RandomState(505 + seed)
    points = [_BASEPOINT.copy()]
    while len(points) < 3:
        p = _unit(rng.standard_normal(3))
        if abs(float(p @ _BASEPOINT)) <= 0.99:
            points.append(p)
    worst = 0.0
    for p in points:
        q_plus, _ = unit_sphere_section(p, config=config)
        q_minus, _ = unit_sphere_section(-p, config=config)
        worst = max(worst, float(np.linalg.norm(quat_to_rotation(q_plus) - quat_to_rotation(q_minus))))
    return ResidualReport("antipodal-sections", worst, len(points), 1e-6)


def inner_unit_sphere_identity(config: IntegratorConfig | None = None) -> ResidualReport:
    """Rolling inside the unit sphere transports nothing: holonomy is the identity.

    The inner Gauss map cancels every velocity (v + Dn v = 0), so the
    connection form vanishes identically and any loop returns I exactly;
    the check runs a circle of chart radius 0.4 around (1.2, 0.5), in 512 steps unless ``config`` gives a count.
    """
    form = surface_rolling_form(sphere_surface(1.0, side="inner"))
    c = circle(center=np.array([1.2, 0.5]), radius=0.4)
    residual = float(np.linalg.norm(holonomy(form, c, with_default_steps(config, 512)) - np.eye(3)))
    return ResidualReport("inner-unit-sphere-identity", residual, 1, 1e-12)


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
    e1, e2 = np.eye(len(b))[:2]
    pts = np.array([b, c, c + e1, c + e1 + e2, c + e2, c, b])
    return polyline(pts, closed=True)


def default_span_loops() -> list[PathSpec]:
    """Three unit-square lassos from the origin with well-spread tails."""
    return [lasso_loop(np.zeros(2), np.array(corner)) for corner in ([2.0, 0.0], [-1.0, 1.5], [0.5, -2.0])]


def holonomy_span_check(loops=None, config: IntegratorConfig | None = None) -> ResidualReport:
    """Do the loops' plane-rolling holonomy logarithms span so(3)?

    Normalizes each log to a unit axis and reports the shortfall of the
    smallest singular value below SPAN_THRESHOLD (0 when the family spans;
    the report fails when any direction is missing, e.g. for repeated or
    translated copies of one loop under a translation-invariant form). 64 steps unless ``config`` gives a count.
    """
    form = plane_rolling_form()
    loops = list(loops) if loops is not None else default_span_loops()
    if len(loops) < 3:
        raise ValueError("span check needs at least three loops")
    cfg = with_default_steps(config, 64)
    cols = []
    for c in loops:
        w = log_so3(holonomy(form, c, cfg))
        n = np.linalg.norm(w)
        cols.append(np.zeros(3) if n < 1e-12 else w / n)
    sigma_min = float(np.linalg.svd(np.column_stack(cols), compute_uv=False)[-1])
    shortfall = max(0.0, SPAN_THRESHOLD - sigma_min)
    return ResidualReport("plane-rolling-span", shortfall, len(loops), 0.0)


def degenerate_span_loops() -> list[PathSpec]:
    """Three copies of one lasso: a control family that cannot span so(3)."""
    loop = lasso_loop(np.zeros(2), np.array([2.0, 0.0]))
    return [loop, loop, loop]


def curvature_probe(
    form: LocalConnectionForm, x, eps: float, config: IntegratorConfig | None, direction=None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Small-loop curvature on the unit sides e1, e2 at x: ``(estimate, closed_form, factor)``.

    The estimate of Omega_x(e1, e2) is small_loop_curvature's at loop scale
    ``eps``, in 512 steps unless ``config`` gives a count (exp-midpoint if ``config`` is None). The closed
    form is :func:`liecurv.connections.curvature_closed_form`'s, which
    refuses forms without one. The factor is the estimate's signed
    projection onto ``direction`` (the closed form by default) over
    |direction|^2, both taken on direction scaled by a power of two to a largest
    entry in [1/2, 1): the same bits, and no underflow of |direction|^2 (r^4 on a sphere).
    """
    u, v = np.eye(form.base_dim)[:2]
    ref = curvature_closed_form(form, x, u, v)
    d = ref if direction is None else direction
    est = small_loop_curvature(form, x, u, v, eps, with_default_steps(config, 512))
    scale = 2.0 ** -int(np.frexp(np.abs(d).max())[1])
    d = d * scale
    return est, ref, float((est @ d) / (d @ d)) * scale


def sphere_curvature_probe(
    radius: float, side: str, eps: float, config: IntegratorConfig | None = None
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """:func:`curvature_probe` of sphere rolling at the chart point (1, 0.3), and the exact factor.

    The factor is the projection onto the flat value cross(U, V) of the
    chart pushforwards of the unit chart sides, so it recovers the exact
    factor 1 - 1/r^2 on either side, including its sign (-3 at r = 1/2, 0 at r = 1).

    ``eps`` is the embedded size of the probing loops; chart tangents scale
    with the radius, so the chart-coordinate parallelogram uses eps / r
    (otherwise large spheres would wrap the holonomy angle past pi).

    A refusal names the radius and eps as given, as ``liecurv curvature``'s
    ``--radius`` and ``--eps``; one from the chart loop also states its side eps / r.
    """
    given = f"sphere curvature at --radius {radius!r} and --eps {eps!r} is refused"
    try:
        surface = sphere_surface(radius, side=side)
    except ValueError as e:
        raise ValueError(f"{given}: {e}") from None
    x, h = np.array([1.0, 0.3]), eps / float(radius)
    loop = f"{given}: its chart loop at (1, 0.3) has side eps / r = {h:.6g}"
    T = surface.chart_tangent(x)
    try:
        probe = curvature_probe(surface_rolling_form(surface), x, h, config, cross(T[:, 0], T[:, 1]))
    except ValueError as e:
        raise ValueError(f"{loop}, and {e}") from None
    return (*probe, 1.0 - surface.gauss_curvature)


def sphere_curvature_factor(radius: float, config: IntegratorConfig | None = None) -> float:
    """Measured ratio of outer sphere-rolling curvature to the flat-case curvature, 1 - 1/r^2.

    The factor of :func:`sphere_curvature_probe` on the outer side at eps = 1e-2.
    """
    return sphere_curvature_probe(radius, "outer", 1e-2, config)[2]


# The check registry: name -> (run(seed, config), in the battery). Randomized
# checks pass the requested seed on; the others ignore it. span-degenerate is a control fixture built to fail
# (repeated loops cannot span so(3)), so it stays out of the battery.
CHECKS = {
    "alpha-naturality": (lambda s, cfg: check_alpha_naturality(seed=s), True),
    "omega-naturality": (lambda s, cfg: check_omega_naturality(seed=s), True),
    "curvature-naturality": (lambda s, cfg: check_curvature_naturality(seed=s), True),
    "transport-naturality": (lambda s, cfg: check_transport_naturality(config=cfg), True),
    "section-path-independence": (lambda s, cfg: check_section_path_independence(seed=s, config=cfg), True),
    "antipodal-sections": (lambda s, cfg: antipodal_check(seed=s, config=cfg), True),
    "inner-unit-sphere-identity": (lambda s, cfg: inner_unit_sphere_identity(config=cfg), True),
    "plane-rolling-span": (lambda s, cfg: holonomy_span_check(config=cfg), True),
    "sphere-curvature-factor": (lambda s, cfg: ResidualReport(
        "sphere-curvature-factor", abs(sphere_curvature_factor(2.0, cfg) - 0.75), 1, 7.5e-4), True),
    "span-degenerate": (lambda s, cfg: holonomy_span_check(loops=degenerate_span_loops(), config=cfg), False),
}


def run_check(name: str, seed: int = 0, config: IntegratorConfig | None = None) -> ResidualReport:
    """Run the registered check ``name`` (see :data:`CHECKS`)."""
    return CHECKS[name][0](seed, config)


def run_all_checks(config: IntegratorConfig | None = None, seed: int = 0) -> list[ResidualReport]:
    """The standard battery, ordered by check name.

    ``seed`` is passed to every randomized check; ``config`` overrides the integrator
    for the transport-based checks, each with its own step count unless ``config`` gives one.
    """
    return [run_check(name, seed, config) for name, (_, in_all) in sorted(CHECKS.items()) if in_all]
