"""Connection one-forms on trivial SO(3) bundles and the surfaces they roll on.

A local connection form assigns to each base point ``x`` and tangent vector
``v`` an element of so(3), written in axis coordinates (see
:mod:`liecurv.liecore`). The canonical example here is the flat "natural"
form ``omega_x(v) = -v`` on R^3, whose curvature is the cross product.
Rolling a sphere on the plane, or on another surface, gives further forms
with the same structure group.

Base points for surface forms live in chart coordinates; tangent vectors are
pushed to the embedding through the chart tangent map before the normal and
shape operator act on them.

Catalog forms and sphere charts are *vectorized*: besides single points
they accept stacks of shape (n, d) and return stacks, so the transport
engine evaluates a whole block of nodes in one call. Forms built from user
callables (and :func:`parametric_surface`) are evaluated one point at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liecore import cross, hat, vee

POLAR_CAP = 1e-3  # spherical charts exclude colatitudes within this of 0 or pi

# Linear embedding of plane displacements into so(3) axis coordinates for
# plane rolling: (x1, x2) -> quarter-turned horizontal axis (x2, -x1, 0).
# Pulling the natural form back through it reproduces plane_rolling_form.
PLANE_ROLLING_PULLBACK = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0]])


@dataclass(frozen=True)
class LocalConnectionForm:
    """so(3)-valued one-form on a base domain of dimension ``base_dim``.

    ``evaluate(x, v)`` must be linear in ``v``; ``descriptor`` names the
    construction and drives the curvature catalog in
    :func:`curvature_closed_form`. ``surface``/``radius`` carry extra data
    for surface-rolling forms. ``vectorized`` declares that ``evaluate``
    also maps stacks of shape (n, base_dim) to stacks of shape (n, 3).
    """

    base_dim: int
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str
    radius: float | None = None
    surface: "Surface | None" = None
    vectorized: bool = False

    def __call__(self, x, v) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != (self.base_dim,) or v.shape != (self.base_dim,):
            raise ValueError(
                f"form '{self.descriptor}' expects point and tangent of "
                f"dimension {self.base_dim}, got {x.shape} and {v.shape}"
            )
        return self.evaluate(x, v)


@dataclass(frozen=True)
class TotalConnectionForm:
    """Connection form on the total space of the trivial bundle.

    ``evaluate(x, g, v, xi)`` takes a base point, a group element, a base
    tangent vector, and a tangent vector at ``g`` (a 3x3 matrix with
    ``g^T xi`` skew). At ``g = I, xi = 0`` it reproduces the local form.
    """

    local: LocalConnectionForm
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, g, v, xi) -> np.ndarray:
        return self.evaluate(
            np.asarray(x, dtype=float),
            np.asarray(g, dtype=float),
            np.asarray(v, dtype=float),
            np.asarray(xi, dtype=float),
        )


def natural_form() -> LocalConnectionForm:
    """The flat connection on R^3 with omega_x(v) = -v.

    Its curvature two-form is the Lie bracket: Omega(u, v) = u x v.
    """
    return LocalConnectionForm(
        base_dim=3,
        evaluate=lambda x, v: -v,
        descriptor="natural-so3",
        vectorized=True,
    )


def _group_tangent_algebra(g: np.ndarray, xi: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Left-translate a tangent vector xi at g to the algebra: vee(g^T xi).

    Rejects xi that is not tangent to SO(3) at g (g^T xi not skew within tol).
    """
    M = g.T @ xi
    asym = np.linalg.norm(M + M.T)
    if asym > tol:
        raise ValueError(
            f"vector is not tangent to SO(3) at g (|g^T xi + (g^T xi)^T| = {asym:.3e})"
        )
    return vee(0.5 * (M - M.T))


def natural_alpha(x, g, v, xi) -> np.ndarray:
    """Total-space form of the natural connection on R^3 x SO(3).

    alpha_(x,g)(v, xi) = vee(g^T xi) - vee(g^T hat(v) g). Horizontal vectors
    (v, hat(v) g) are annihilated; vertical generators (0, g hat(w)) return w.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != (3,) or v.shape != (3,):
        raise ValueError("natural_alpha expects base point and tangent in R^3")
    if g.shape != (3, 3) or xi.shape != (3, 3):
        raise ValueError("natural_alpha expects 3x3 group element and tangent matrix")
    left = _group_tangent_algebra(g, xi)
    return left - vee(g.T @ hat(v) @ g)


def total_form(local: LocalConnectionForm) -> TotalConnectionForm:
    """Extend a local form to the total space of the trivial bundle.

    alpha_(x,g)(v, xi) = vee(g^T xi) + Ad_{g^-1}(omega_x(v)).
    """

    def evaluate(x, g, v, xi):
        return _group_tangent_algebra(g, xi) + g.T @ local(x, v)

    return TotalConnectionForm(local=local, evaluate=evaluate)


def j_plane(v) -> np.ndarray:
    """Quarter turn of a plane vector: J(v1, v2) = (v2, -v1)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValueError("j_plane expects a 2-vector")
    return np.array([v[1], -v[0]])


def plane_rolling_form() -> LocalConnectionForm:
    """Connection of a unit sphere rolling without slipping on the plane.

    omega_x(v) = -(J(v), 0) in axis coordinates: a displacement v of the
    contact point rotates the sphere about the quarter-turned horizontal
    axis. The form is constant in x; its curvature is the bracket term only.
    """

    def evaluate(x, v):
        # -(J(v), 0) with J(v1, v2) = (v2, -v1), on the last axis
        return np.stack([-v[..., 1], v[..., 0], np.zeros_like(v[..., 0])], axis=-1)

    return LocalConnectionForm(base_dim=2, evaluate=evaluate, descriptor="plane-rolling", vectorized=True)


def pullback_form(f, inner: LocalConnectionForm) -> LocalConnectionForm:
    """Pull back a form on R^3 through a linear map f: R^d -> R^3.

    (f* omega)_x(v) = omega_{f(x)}(f(v)). ``f`` is a 3 x d matrix.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != 3:
        raise ValueError(f"pullback_form expects a 3 x d matrix, got shape {f.shape}")
    if inner.base_dim != 3:
        raise ValueError("pullback_form requires the inner form to live on R^3")
    return LocalConnectionForm(
        base_dim=f.shape[1],
        evaluate=lambda x, v: inner.evaluate(x @ f.T, v @ f.T),
        descriptor=f"pullback[{inner.descriptor}]",
        vectorized=inner.vectorized,
    )


@dataclass(frozen=True)
class Surface:
    """An embedded surface given by a chart, with its Gauss map data.

    ``chart`` maps chart coordinates u = (u1, u2) to a point in R^3 and
    ``chart_tangent`` gives the 3x2 Jacobian there. ``normal_at`` and
    ``shape_derivative_at`` evaluate the unit normal n and the value
    Dn(x)(v_emb) at the chart point u (v_emb is an embedded tangent vector).

    ``normal`` and ``shape_derivative`` are the same maps as functions of the
    embedded point; they are provided for surfaces with closed-form Gauss
    maps (spheres, planes) and are None for generic numeric charts.

    ``vectorized`` declares that every map also takes stacks of chart points
    of shape (n, 2) (and embedded vectors of shape (n, 3)) and returns stacks.
    """

    kind: str
    chart: Callable[[np.ndarray], np.ndarray]
    chart_tangent: Callable[[np.ndarray], np.ndarray]
    normal_at: Callable[[np.ndarray], np.ndarray]
    shape_derivative_at: Callable[[np.ndarray, np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray] | None = None
    shape_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    vectorized: bool = False


def _orthonormal_frame(frame) -> np.ndarray:
    if frame is None:
        return np.eye(3)
    F = np.column_stack([np.asarray(f, dtype=float) for f in frame])
    if F.shape != (3, 3):
        raise ValueError("frame must consist of three 3-vectors")
    if np.linalg.norm(F.T @ F - np.eye(3)) > 1e-10:
        raise ValueError("frame vectors are not orthonormal")
    return F


def sphere_surface(radius: float, side: str = "outer", frame=None) -> Surface:
    """Sphere of the given radius with a spherical chart (colatitude, longitude).

    chart(theta, phi) = r (sin th cos ph f1 + sin th sin ph f2 + cos th f3)
    for an orthonormal frame (f1, f2, f3), identity by default. Chart points
    with colatitude within POLAR_CAP of a pole are refused (the tangent map
    degenerates there).

    ``side`` selects the Gauss map of the rolling problem: "outer" for a unit
    sphere rolling on the outside (n = x/r points outward), "inner" for
    rolling inside (n = -x/r).
    """
    r = float(radius)
    if r <= 0.0:
        raise ValueError(f"sphere radius must be positive, got {r}")
    if side not in ("outer", "inner"):
        raise ValueError(f"side must be 'outer' or 'inner', got {side!r}")
    F = _orthonormal_frame(frame)
    sign = 1.0 if side == "outer" else -1.0

    def colatitude(u, what):
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (2,):
            raise ValueError("sphere chart expects (colatitude, longitude) pairs")
        th = u[..., 0]
        outside = ~((POLAR_CAP <= th) & (th <= np.pi - POLAR_CAP))  # NaN is outside too
        if np.any(outside):
            bad = float(np.ravel(th)[np.argmax(np.ravel(outside))])
            raise ValueError(
                f"{what} at colatitude {bad:.6f} lies in the polar cap "
                f"(must stay within [{POLAR_CAP}, pi - {POLAR_CAP}])"
            )
        return th, u[..., 1]

    def chart(u):
        th, ph = colatitude(u, "chart point")
        st = np.sin(th)
        return r * np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1) @ F.T

    def chart_tangent(u):
        th, ph = colatitude(u, "chart tangent")
        st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        d_th = np.stack([ct * cp, ct * sp, -st], axis=-1) @ F.T
        d_ph = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1) @ F.T
        return r * np.stack([d_th, d_ph], axis=-1)

    def normal(x):
        x = np.asarray(x, dtype=float)
        return sign * x / r

    def shape_derivative(x, v):
        v = np.asarray(v, dtype=float)
        return sign * v / r

    def shape_derivative_at(u, v_emb):
        colatitude(u, "chart point")  # Dn is the same at every point; only the refusal needs u
        return shape_derivative(None, v_emb)

    return Surface(
        kind=f"sphere-{side}",
        chart=chart,
        chart_tangent=chart_tangent,
        normal_at=lambda u: normal(chart(u)),
        shape_derivative_at=shape_derivative_at,
        normal=normal,
        shape_derivative=shape_derivative,
        vectorized=True,
    )


def parametric_surface(
    chart: Callable[[np.ndarray], np.ndarray],
    normal_at: Callable[[np.ndarray], np.ndarray] | None = None,
    h: float = 1e-5,
    kind: str = "parametric",
) -> Surface:
    """Surface from a chart alone; Gauss map data filled in numerically.

    The chart tangent map is built by central differences with step ``h``.
    When ``normal_at`` is not supplied, the normal is the normalized cross
    product of the chart partials (orientation follows the chart). The shape
    operator value Dn(x)(v_emb) differentiates the normal field along the
    chart direction that pushes forward to v_emb.
    """

    def chart_tangent(u):
        u = np.asarray(u, dtype=float)
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        d1 = (np.asarray(chart(u + e1), float) - np.asarray(chart(u - e1), float)) / (2 * h)
        d2 = (np.asarray(chart(u + e2), float) - np.asarray(chart(u - e2), float)) / (2 * h)
        return np.column_stack([d1, d2])

    if normal_at is None:

        def normal_at(u):  # noqa: F811 - deliberate default binding
            T = chart_tangent(u)
            n = np.cross(T[:, 0], T[:, 1])
            nn = np.linalg.norm(n)
            if nn < 1e-12:
                raise ValueError("chart tangent map singular: cannot orient a normal")
            return n / nn

    def shape_derivative_at(u, v_emb):
        u = np.asarray(u, dtype=float)
        v_emb = np.asarray(v_emb, dtype=float)
        T = chart_tangent(u)
        w, *_ = np.linalg.lstsq(T, v_emb, rcond=None)
        na = np.asarray(normal_at(u + h * w), dtype=float)
        nb = np.asarray(normal_at(u - h * w), dtype=float)
        return (na - nb) / (2 * h)

    return Surface(
        kind=kind,
        chart=lambda u: np.asarray(chart(np.asarray(u, dtype=float)), dtype=float),
        chart_tangent=chart_tangent,
        normal_at=lambda u: np.asarray(normal_at(np.asarray(u, dtype=float)), dtype=float),
        shape_derivative_at=shape_derivative_at,
    )


def surface_rolling_form(surface: Surface) -> LocalConnectionForm:
    """Connection of a unit sphere rolling without slipping on ``surface``.

    In chart coordinates, with v_emb the embedded image of the chart tangent
    vector v:

        omega_u(v) = -( n(x) x (v_emb + Dn(x)(v_emb)) ),   x = chart(u).

    For the radius-r sphere with outward normal this reduces to
    omega = -(1/r)(1 + 1/r) (x x v_emb).
    """

    radius = None
    if surface.kind.startswith("sphere-"):
        # recover the radius from the chart for the curvature catalog
        radius = float(np.linalg.norm(surface.chart(np.array([np.pi / 2, 0.0]))))

    def evaluate(u, v):
        T = surface.chart_tangent(u)
        t1, t2 = T[..., 0], T[..., 1]
        area = np.linalg.norm(np.cross(t1, t2), axis=-1)
        scale = np.linalg.norm(t1, axis=-1) * np.linalg.norm(t2, axis=-1)
        if np.any(area <= 1e-12 * np.maximum(scale, 1e-300)):
            raise ValueError("chart tangent map singular at the requested point")
        v_emb = np.einsum("...ij,...j->...i", T, v)
        n = surface.normal_at(u)
        return -np.cross(n, v_emb + surface.shape_derivative_at(u, v_emb))

    return LocalConnectionForm(
        base_dim=2,
        evaluate=evaluate,
        descriptor=surface.kind,
        radius=radius,
        surface=surface,
        vectorized=surface.vectorized,
    )


def curvature_closed_form(form: LocalConnectionForm, x, u, v) -> np.ndarray:
    """Exact curvature Omega_x(u, v) for the catalog connections.

    natural-so3: u x v. plane-rolling: cross product of u and v embedded as
    (u1, u2, 0); the quarter turn inside the form drops out of the bracket.
    sphere-outer / sphere-inner of radius r: (1 - 1/r^2) (U x V) where U, V
    are the chart pushforwards of u, v.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = form.descriptor
    if d == "natural-so3":
        return cross(u, v)
    if d == "plane-rolling":
        return cross(np.array([u[0], u[1], 0.0]), np.array([v[0], v[1], 0.0]))
    if d in ("sphere-outer", "sphere-inner"):
        r = form.radius
        T = form.surface.chart_tangent(x)
        return (1.0 - 1.0 / (r * r)) * cross(T @ u, T @ v)
    raise ValueError(f"no closed-form curvature catalogued for '{d}'")


def curvature_numeric(form: LocalConnectionForm, x, u, v, h: float = 1e-4) -> np.ndarray:
    """Curvature Omega_x(u, v) = d omega(u, v) + [omega(u), omega(v)].

    The exterior-derivative part uses central differences with step ``h`` on
    the constant extensions of u and v (their bracket vanishes, so no
    correction term is needed).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d_u = (form(x + h * u, v) - form(x - h * u, v)) / (2 * h)
    d_v = (form(x + h * v, u) - form(x - h * v, u)) / (2 * h)
    return d_u - d_v + cross(form(x, u), form(x, v))
