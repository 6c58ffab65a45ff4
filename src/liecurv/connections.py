"""Connection one-forms on trivial SO(3) bundles and the surfaces they roll on.

A local connection form assigns to each base point ``x`` and tangent vector
``v`` an element of so(3), written in axis coordinates (see
:mod:`liecurv.liecore`). The canonical example here is the flat "natural"
form ``omega_x(v) = -v`` on R^3, whose curvature is the cross product.
Rolling a sphere on the plane, or on another surface, gives further forms
with the same structure group.

Base points for surface forms live in chart coordinates. Each
:class:`Surface` carries its rolling map: :func:`parametric_surface` builds it
from the chart tangent, normal and shape operator; :func:`sphere_surface`
evaluates it in closed form, with one pass of trigonometry per call. Each
form states its own curvature where a closed form is known.

Forms take stacks: ``evaluate`` maps points and tangents of shape (n, d) to
shape (n, 3), so the transport engine evaluates a whole block of nodes in
one call. So does every map of a :class:`Surface`, the chart included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liecore import cross, first_failure, hat, vee

POLAR_CAP = 1e-3  # spherical charts exclude colatitudes within this of 0 or pi

# Linear embedding of plane displacements into so(3) axis coordinates for
# plane rolling: (x1, x2) -> quarter-turned horizontal axis (x2, -x1, 0).
# Pulling the natural form back through it reproduces plane_rolling_form.
PLANE_ROLLING_PULLBACK = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0]])


@dataclass(frozen=True)
class LocalConnectionForm:
    """so(3)-valued one-form on a base domain of dimension ``base_dim``.

    ``evaluate(x, v)`` must be linear in ``v``; ``descriptor`` names the
    construction. ``evaluate`` maps stacks of points and tangents of shape
    (n, base_dim) to stacks of shape (n, 3), and single points to 3-vectors.
    ``curvature(x, u, v)`` is the exact curvature Omega_x(u, v) at one point,
    or None when no closed form is known. ``translation_invariant`` declares that
    omega_x(v) does not depend on x; the engine then calls ``evaluate(None, v)``.
    """

    base_dim: int
    evaluate: Callable[[np.ndarray | None, np.ndarray], np.ndarray]
    descriptor: str
    curvature: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    translation_invariant: bool = False


def natural_form() -> LocalConnectionForm:
    """The flat connection on R^3 with omega_x(v) = -v.

    Its curvature two-form is the Lie bracket: Omega(u, v) = u x v.
    """
    return LocalConnectionForm(
        base_dim=3,
        evaluate=lambda x, v: -v,
        descriptor="natural-so3",
        curvature=lambda x, u, v: cross(u, v),
        translation_invariant=True,
    )


def natural_alpha(x, g, v, xi) -> np.ndarray:
    """Total-space form of the natural connection on R^3 x SO(3).

    alpha_(x,g)(v, xi) = vee(g^T xi) - vee(g^T hat(v) g). Horizontal vectors
    (v, hat(v) g) are annihilated; vertical generators (0, g hat(w)) return w.
    A ``xi`` not tangent to SO(3) at g (g^T xi not skew within 1e-8) is refused.
    Stacks (..., 3) and (..., 3, 3) are evaluated row by row; a refusal names the first bad row.
    """
    x, g, v, xi = (np.asarray(a, dtype=float) for a in (x, g, v, xi))
    if x.shape[-1:] != (3,) or v.shape[-1:] != (3,):
        raise ValueError("natural_alpha expects base point and tangent in R^3")
    if g.shape[-2:] != (3, 3) or xi.shape[-2:] != (3, 3):
        raise ValueError("natural_alpha expects 3x3 group element and tangent matrix")
    gT = np.swapaxes(g, -1, -2)
    M = gT @ xi
    MT = np.swapaxes(M, -1, -2)
    asym = np.linalg.norm(M + MT, axis=(-2, -1))
    if (asym > 1e-8).any():
        i, where = first_failure(asym > 1e-8)
        raise ValueError(f"vector{where} is not tangent to SO(3) at g (|g^T xi + (g^T xi)^T| = {asym[i]:.3e})")
    return vee(0.5 * (M - MT)) - vee(gT @ hat(v) @ g)


def plane_rolling_form() -> LocalConnectionForm:
    """Connection of a unit sphere rolling without slipping on the plane.

    omega_x(v) = -(J(v), 0) in axis coordinates: a displacement v of the
    contact point rotates the sphere about the quarter-turned horizontal
    axis. The form is constant in x, so its curvature (u1, u2, 0) x (v1, v2, 0) is the bracket term only.
    """

    def evaluate(x, v):
        # -(J(v), 0) with J(v1, v2) = (v2, -v1), on the last axis
        return np.stack([-v[..., 1], v[..., 0], np.zeros_like(v[..., 0])], axis=-1)

    return LocalConnectionForm(base_dim=2, evaluate=evaluate, descriptor="plane-rolling",
                               curvature=lambda x, u, v: cross([u[0], u[1], 0.0], [v[0], v[1], 0.0]),
                               translation_invariant=True)


def pullback_form(f, inner: LocalConnectionForm) -> LocalConnectionForm:
    """Pull back a form on R^3 through a linear map f: R^d -> R^3.

    (f* omega)_x(v) = omega_{f(x)}(f(v)). ``f`` is a 3 x d matrix. The
    curvature is the inner form's at the images, Omega_{f(x)}(f(u), f(v)).
    A linear pullback of a translation-invariant form is translation invariant.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != 3:
        raise ValueError(f"pullback_form expects a 3 x d matrix, got shape {f.shape}")
    if inner.base_dim != 3:
        raise ValueError("pullback_form requires the inner form to live on R^3")
    return LocalConnectionForm(
        base_dim=f.shape[1],
        evaluate=lambda x, v: inner.evaluate(None if x is None else x @ f.T, v @ f.T),
        descriptor=f"pullback[{inner.descriptor}]",
        curvature=None if inner.curvature is None else lambda x, u, v: inner.curvature(x @ f.T, u @ f.T, v @ f.T),
        translation_invariant=inner.translation_invariant,
    )


@dataclass(frozen=True)
class Surface:
    """An embedded surface given by a chart, with its rolling map.

    ``chart`` maps chart coordinates u = (u1, u2) to a point in R^3 and
    ``chart_tangent`` gives the 3x2 Jacobian there.

    ``rolling(u, v)`` is n x (v_emb + Dn(x)(v_emb)) for a chart tangent
    vector v with embedded image v_emb = chart_tangent(u) v, where n is the
    unit normal and Dn its derivative (the shape operator) at x = chart(u);
    it is minus the rolling connection form (see :func:`surface_rolling_form`).
    Every map takes a chart point (2,) or a stack (..., 2), with chart
    tangents (..., 2), and returns the matching stack of 3-vectors or 3x2
    Jacobians. ``gauss_curvature`` is the constant Gauss curvature K, or
    None when it is not known in closed form.
    """

    kind: str
    chart: Callable[[np.ndarray], np.ndarray]
    chart_tangent: Callable[[np.ndarray], np.ndarray]
    rolling: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gauss_curvature: float | None


def _orthonormal_frame(frame) -> np.ndarray:
    if frame is None:
        return np.eye(3)
    F = np.column_stack([np.asarray(f, dtype=float) for f in frame])
    if F.shape != (3, 3):
        raise ValueError("frame must consist of three 3-vectors")
    # an orthonormal frame's entries are at most 1 in size: a bound first keeps F.T @ F free of inf and NaN
    if not (np.abs(F) <= 2.0).all() or not np.linalg.norm(F.T @ F - np.eye(3)) <= 1e-10:  # NaN too
        raise ValueError("frame vectors are not orthonormal")
    return F


def sphere_radius(radius) -> float:
    """``radius`` as a float, refused unless r^2 and 1/r^2 are finite, nonzero floats (about 1e-154 < r < 1e154)."""
    r = float(radius)
    if not (0.0 < r and 0.0 < r * r < np.inf and 1.0 / (r * r) < np.inf):
        raise ValueError(f"sphere radius must be positive and finite, with finite r^2 and 1/r^2, got {r}")
    return r


def sphere_surface(radius: float, side: str = "outer", frame=None) -> Surface:
    """Sphere of the given radius with a spherical chart (colatitude, longitude).

    chart(theta, phi) = r (sin th cos ph f1 + sin th sin ph f2 + cos th f3)
    for an orthonormal frame (f1, f2, f3), identity by default. Chart points
    with colatitude within POLAR_CAP of a pole are refused (the tangent map
    degenerates there).

    ``side`` selects the Gauss map of the rolling problem: "outer" for a unit
    sphere rolling on the outside (n = x/r points outward), "inner" for
    rolling inside (n = -x/r).

    With side sign s (+1 outer, -1 inner), n = s x / r and Dn = s / r, the
    rolling map is in closed form: n x (v_emb + Dn v_emb) = (s r + 1) det(F)
    F (v_th e_ph - v_ph sin(th) e_th), with e_th = (cos th cos ph, cos th sin ph,
    -sin th) and e_ph = (-sin ph, cos ph, 0). det(F) = -1 for a left-handed
    frame, and s r + 1 is exactly 0 on the inner unit sphere. When every
    colatitude of a stack is one float, as along a latitude or a great arc,
    and the tangents have the points' shape, the rolling map takes its sine
    and cosine once for the stack, with the same bits.

    A radius is refused unless r^2 and 1/r^2 are finite, nonzero floats (about
    1e-154 < r < 1e154), so that the Gauss curvature K = 1/r^2 and 1 - K are finite.
    """
    r = sphere_radius(radius)
    if side not in ("outer", "inner"):
        raise ValueError(f"side must be 'outer' or 'inner', got {side!r}")
    F = _orthonormal_frame(frame)
    sign = 1.0 if side == "outer" else -1.0
    # row vectors times these apply F; C order, as F.T's own order gives a one-row stack other bits
    Ft = np.ascontiguousarray(F.T)
    rolling_map = (sign * r + 1.0) * np.linalg.det(F) * Ft

    def colatitude(u, what):
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (2,):
            raise ValueError("sphere chart expects (colatitude, longitude) pairs")
        th = u[..., 0]
        inside = (POLAR_CAP <= th) & (th <= np.pi - POLAR_CAP)  # NaN is outside
        if not inside.all():
            bad = float(np.ravel(th)[np.argmin(np.ravel(inside))])
            raise ValueError(
                f"{what} at colatitude {bad:.6g} lies in the polar cap "
                f"(must stay within [{POLAR_CAP}, pi - {POLAR_CAP}])"
            )
        return th, u[..., 1]

    def chart(u):
        th, ph = colatitude(u, "chart point")
        st = np.sin(th)
        return r * np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1) @ Ft

    def chart_tangent(u):
        th, ph = colatitude(u, "chart tangent")
        st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        d_th = np.stack([ct * cp, ct * sp, -st], axis=-1) @ Ft
        d_ph = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1) @ Ft
        return r * np.stack([d_th, d_ph], axis=-1)

    def rolling(u, v):
        # the chart tangent's polar-cap refusal, so both report a cap point alike
        th, ph = colatitude(u, "chart tangent")
        v = np.asarray(v, dtype=float)
        # a latitude, and so every great arc, has one colatitude; equal floats outside the cap have equal
        # bits (no NaN, no signed zero), so its sine and cosine once give each row's bits. The last and
        # middle rows are compared first, so that a varying stack, a closed loop too, costs no full
        # comparison; tangents of the points' shape carry the two 0-d values to every row.
        latitude = (v.shape == th.shape + (2,) and th.size > 1
                    and th.item(0) == th.item(-1) == th.item(th.size // 2) and (th == th.item(0)).all())
        t = th.item(0) if latitude else th
        st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(ph), np.cos(ph)
        with np.errstate(over="ignore", invalid="ignore"):  # huge tangents give inf or NaN, refused by the engine
            v_th, a = v[..., 0], v[..., 1] * st  # a = v_ph sin(th)
            b = a * ct
            return np.stack([-sp * v_th - b * cp, cp * v_th - b * sp, a * st], axis=-1) @ rolling_map

    return Surface(f"sphere-{side}", chart, chart_tangent, rolling, gauss_curvature=1.0 / (r * r))


def parametric_surface(chart: Callable[[np.ndarray], np.ndarray]) -> Surface:
    """Surface of kind "parametric" from a chart alone; Gauss map data filled in numerically.

    ``chart`` maps chart points (..., 2) to points (..., 3). Every map refuses a
    point whose last axis is not 2, and the chart any other output shape, such
    as a chart written for one point meeting a stack.
    The chart tangent map is built by central differences with step h = 1e-5.
    The normal is the normalized cross product of the chart partials t1, t2,
    so the orientation follows the chart; |t1 x t2| <= 1e-12 |t1| |t2| is
    refused as singular. The shape operator along the chart tangent v is the
    central difference (n(u + h v) - n(u - h v)) / 2h.
    """

    user_chart, h = chart, 1e-5

    def points(u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (2,):
            raise ValueError(f"chart points must have shape (..., 2), got shape {u.shape}")
        return u

    def chart(u):
        u = points(u)
        x = np.asarray(user_chart(u), dtype=float)
        if x.shape != u.shape[:-1] + (3,):
            raise ValueError(f"chart maps points of shape {u.shape} to shape {x.shape}, not "
                             f"{u.shape[:-1] + (3,)}: charts must take stacks of chart points")
        return x

    def chart_tangent(u):
        u = points(u)
        return np.stack([(chart(u + e) - chart(u - e)) / (2 * h) for e in h * np.eye(2)], axis=-1)

    def normal(u, T):
        n = np.cross(T[..., 0], T[..., 1])
        nn = np.linalg.norm(n, axis=-1, keepdims=True)
        singular = nn[..., 0] <= 1e-12 * np.linalg.norm(T, axis=-2).prod(axis=-1)
        if singular.any():
            bad = np.reshape(u, (-1, 2))[np.argmax(np.ravel(singular))]
            raise ValueError(f"chart tangent map singular at chart point {bad.tolist()}: cannot orient a normal")
        return n / nn

    def rolling(u, v):
        v = np.asarray(v, dtype=float)
        T = chart_tangent(u)  # once, for v_emb and the normal at u: three chart tangents, 12 chart calls
        v_emb = (T * v[..., None, :]).sum(axis=-1)
        n = normal(u, T)
        ahead, behind = (normal(w, chart_tangent(w)) for w in (u + h * v, u - h * v))
        return np.cross(n, v_emb + (ahead - behind) / (2 * h))

    return Surface("parametric", chart, chart_tangent, rolling, None)


def surface_rolling_form(surface: Surface) -> LocalConnectionForm:
    """Connection of a unit sphere rolling without slipping on ``surface``.

    In chart coordinates, with v_emb the embedded image of the chart tangent
    vector v:

        omega_u(v) = -( n(x) x (v_emb + Dn(x)(v_emb)) ),   x = chart(u),

    which is minus ``surface.rolling(u, v)``. For the radius-r sphere with
    outward normal this reduces to omega = -(1/r)(1 + 1/r) (x x v_emb);
    :func:`sphere_surface` evaluates it in that closed form. The curvature is
    (1 - K) (U x V), U and V the chart pushforwards of u and v, when K is known.
    """

    def curvature(x, u, v):
        T = surface.chart_tangent(x)
        return (1.0 - surface.gauss_curvature) * cross(T @ u, T @ v)

    return LocalConnectionForm(
        base_dim=2,
        evaluate=lambda u, v: -surface.rolling(u, v),
        descriptor=surface.kind,
        curvature=None if surface.gauss_curvature is None else curvature,
    )


def curvature_closed_form(form: LocalConnectionForm, x, u, v) -> np.ndarray:
    """Exact curvature Omega_x(u, v), the form's own; a form without one is refused by its descriptor."""
    if form.curvature is None:
        raise ValueError(f"no closed-form curvature catalogued for '{form.descriptor}'")
    return form.curvature(*(np.asarray(a, dtype=float) for a in (x, u, v)))
