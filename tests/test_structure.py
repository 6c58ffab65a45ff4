"""The paper's invariants as properties over random inputs: the structure equation as every catalogued
curvature's reference, the bracket of rotation fields, the sphere factor 1 - 1/r^2 and the global section.

The paper's curvature of a connection form omega is d omega + [omega, omega], in axis coordinates

    Omega_x(u, v) = D_u omega(v) - D_v omega(u) + omega(u) x omega(v),

where D_u omega(v) is the derivative of x -> omega_x(v) along u. These tests take that right-hand side
from each form's ``evaluate`` alone, with 4-point stencils at h = 1e-3, and hold the form's stated
``curvature`` to it: a sign or factor slip in a closed form, or in a rolling map, shows here. For the
natural form d omega = 0, and the curvature is the bracket term alone, u x v.

The example counts are fixed here; derandomization comes from the loaded hypothesis profile
(conftest.py), so a run under ``--hypothesis-profile=random-sweep`` draws new forms, points and frames
from the seed that ``--hypothesis-seed`` gives.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecurv import (
    PLANE_ROLLING_PULLBACK,
    commutator_by_flows,
    cross,
    curvature_closed_form,
    natural_form,
    plane_rolling_form,
    pullback_form,
    section_residual,
    sphere_surface,
    surface_rolling_form,
    unit_sphere_section,
)
from liecurv.verify import sphere_curvature_probe
from references import random_frame

H = 1e-3  # stencil step
TOL = 1e-8  # relative to the size of the structure equation's terms


def stencil(f, h=H):
    """d/ds f(s) at s = 0 from the 4-point, 4th-order central stencil."""
    return (f(-2.0 * h) - 8.0 * f(-h) + 8.0 * f(h) - f(2.0 * h)) / (12.0 * h)


def structure_equation(form, x, u, v):
    """``(D_u omega(v) - D_v omega(u) + omega(u) x omega(v), the sum of the three terms' norms)`` at x."""
    def omega(y, w):
        return form.evaluate(y[None], w[None])[0]

    du_v, dv_u = stencil(lambda s: omega(x + s * u, v)), stencil(lambda s: omega(x + s * v, u))
    wu, wv = omega(x, u), omega(x, v)
    size = np.linalg.norm(du_v) + np.linalg.norm(dv_u) + np.linalg.norm(wu) * np.linalg.norm(wv)
    return du_v - dv_u + cross(wu, wv), size


def catalogued_form(kind, r, frame, rng):
    """A catalogued form and a random point of its domain."""
    if kind == "natural":
        return natural_form(), rng.standard_normal(3)
    if kind == "plane":
        return plane_rolling_form(), rng.standard_normal(2)
    if kind == "pullback":  # the CLI's pullback-rhoJ, or a random linear pullback of the natural form
        f = PLANE_ROLLING_PULLBACK if rng.randint(2) else rng.standard_normal((3, rng.randint(2, 5)))
        return pullback_form(f, natural_form()), rng.standard_normal(f.shape[1])
    F = None if frame == "identity" else random_frame(rng, frame == "left-handed")
    form = surface_rolling_form(sphere_surface(r, side=kind.split("-")[1], frame=F))
    return form, np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(-np.pi, np.pi)])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["natural", "plane", "pullback", "sphere-outer", "sphere-inner"]),
    r=st.floats(0.2, 5.0),
    frame=st.sampled_from(["identity", "random", "left-handed"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="sphere-outer", r=2.0, frame="identity", seed=0)
@example(kind="sphere-inner", r=0.5, frame="left-handed", seed=1)
@example(kind="sphere-outer", r=1.0, frame="random", seed=2)  # factor 1 - 1/r^2 = 0: the terms cancel
def test_every_catalogued_curvature_is_the_structure_equation(kind, r, frame, seed):
    rng = np.random.RandomState(seed)
    form, x = catalogued_form(kind, r, frame, rng)
    u, v = rng.standard_normal((2, form.base_dim))
    want, size = structure_equation(form, x, u, v)
    got = curvature_closed_form(form, x, u, v)
    assert np.linalg.norm(got - want) <= TOL * max(size, np.linalg.norm(got))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_natural_curvature_is_the_bracket_term_alone(seed):
    # d omega = 0 for omega_x(v) = -v, so the curvature is (-u) x (-v) = u x v, the paper's title
    x, u, v = np.random.RandomState(seed).standard_normal((3, 3))
    assert np.array_equal(curvature_closed_form(natural_form(), x, u, v), cross(u, v))
    want, size = structure_equation(natural_form(), x, u, v)  # its stencils of a constant leave only roundoff
    assert np.linalg.norm(want - cross(u, v)) <= 1e-12 * size


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_commutated_flows_give_minus_the_jacobi_lie_bracket_of_rotation_fields(seed):
    # the rotation fields X_u(p) = u x p on R^3: [X_u, X_v](p) = DX_v(p) X_u(p) - DX_u(p) X_v(p) = -X_{u x v}(p)
    rng = np.random.RandomState(seed)
    u, v = (w / np.linalg.norm(w) * rng.uniform(0.2, 2.0) for w in rng.standard_normal((2, 3)))
    p = rng.standard_normal(3)

    def field(w):
        return lambda q: cross(w, q)

    def jacobi_lie(X, Y):
        return stencil(lambda s: Y(p + s * X(p))) - stencil(lambda s: X(p + s * Y(p)))

    bracket = commutator_by_flows(u, v, 1e-3)  # u x v up to O(t^2)
    scale = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(p)
    assert np.linalg.norm(jacobi_lie(field(u), field(v)) + cross(bracket, p)) <= 1e-5 * scale
    assert np.linalg.norm(jacobi_lie(field(u), field(v)) + cross(cross(u, v), p)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.3, 20.0), side=st.sampled_from(["outer", "inner"]))
@example(r=1.0, side="outer")
def test_sphere_curvature_factor_is_one_minus_one_over_r_squared(r, side):
    # small-loop holonomy at eps = 1e-2 against the exact factor, on either side, through the probe the CLI runs
    _, _, factor, expected = sphere_curvature_probe(r, side, 1e-2)
    assert expected == 1.0 - 1.0 / (r * r)
    assert abs(factor - expected) <= 1e-3 * max(1.0, abs(expected))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unit_sphere_section_is_the_closed_form_at_random_points(seed):
    p = np.random.RandomState(seed).standard_normal(3)
    assert section_residual(*unit_sphere_section(p / np.linalg.norm(p))) <= 1e-10
