"""Tests for connection forms, surfaces, and curvature formulas."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecurv import (
    PLANE_ROLLING_PULLBACK,
    LocalConnectionForm,
    cross,
    curvature_closed_form,
    exp_so3,
    great_arc,
    hat,
    natural_alpha,
    natural_form,
    parametric_surface,
    plane_rolling_form,
    pullback_form,
    sphere_surface,
    surface_rolling_form,
)
from references import graph_chart, random_frame


# ---------------------------------------------------------------------------
# natural connection, local and total


def test_natural_form_negates_velocity():
    form = natural_form()
    assert form.base_dim == 3
    assert form.descriptor == "natural-so3"
    rng = np.random.RandomState(30)
    for _ in range(10):
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(form.evaluate(x, v), -v, atol=0.0)


def test_natural_alpha_reduces_to_local_form():
    rng = np.random.RandomState(31)
    x, v = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(
        natural_alpha(x, np.eye(3), v, np.zeros((3, 3))), -v, atol=1e-15
    )


def test_natural_alpha_fundamental_vector():
    # the generator of the right action by exp(t w) maps back to w
    rng = np.random.RandomState(32)
    for _ in range(10):
        g = exp_so3(rng.standard_normal(3))
        w = rng.standard_normal(3)
        got = natural_alpha(rng.standard_normal(3), g, np.zeros(3), g @ hat(w))
        np.testing.assert_allclose(got, w, atol=1e-12)


def test_natural_alpha_annihilates_horizontal_lifts():
    rng = np.random.RandomState(33)
    for _ in range(10):
        g = exp_so3(rng.standard_normal(3))
        v = rng.standard_normal(3)
        got = natural_alpha(rng.standard_normal(3), g, v, hat(v) @ g)
        np.testing.assert_allclose(got, np.zeros(3), atol=1e-12)


def test_natural_alpha_equivariance():
    # alpha(x, g h, v, xi h) = Ad_{h^-1} alpha(x, g, v, xi) = h^T alpha
    rng = np.random.RandomState(34)
    for _ in range(10):
        x, v, w = (rng.standard_normal(3) for _ in range(3))
        g = exp_so3(rng.standard_normal(3))
        h = exp_so3(rng.standard_normal(3))
        xi = hat(w) @ g
        lhs = natural_alpha(x, g @ h, v, xi @ h)
        rhs = h.T @ natural_alpha(x, g, v, xi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_natural_alpha_rejects_non_tangent_vectors():
    with pytest.raises(ValueError, match="not tangent"):
        natural_alpha(np.zeros(3), np.eye(3), np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="base point and tangent"):
        natural_alpha(np.zeros(2), np.eye(3), np.zeros(3), np.zeros((3, 3)))
    for g, xi in ((np.eye(2), np.zeros((3, 3))), (np.eye(3), np.zeros((3, 2))), (np.zeros(3), np.zeros((3, 3)))):
        with pytest.raises(ValueError, match="^natural_alpha expects 3x3 group element and tangent matrix$"):
            natural_alpha(np.zeros(3), g, np.zeros(3), xi)


def test_stacked_natural_alpha_matches_rowwise():
    rng = np.random.RandomState(35)
    x, v, w = rng.standard_normal((3, 12, 3))
    g = np.array([exp_so3(a) for a in rng.standard_normal((12, 3))])
    xi = hat(w) @ g
    got = natural_alpha(x, g, v, xi)
    want = np.array([natural_alpha(*row) for row in zip(x, g, v, xi)])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(natural_alpha(x.reshape(3, 4, 3), g.reshape(3, 4, 3, 3), v.reshape(3, 4, 3),
                                        xi.reshape(3, 4, 3, 3)), got.reshape(3, 4, 3))


def test_stacked_natural_alpha_refusal_names_the_first_bad_index():
    g = np.stack([np.eye(3)] * 5)
    xi = hat(np.ones((5, 3)))
    xi[[2, 4]] = np.eye(3)  # g^T xi = I is symmetric: |I + I^T| = 2 sqrt(3)
    message = r"^vector at index \(2,\) is not tangent to SO\(3\) at g \(\|g\^T xi \+ \(g\^T xi\)\^T\| = 3\.464e\+00\)$"
    with pytest.raises(ValueError, match=message):
        natural_alpha(np.zeros((5, 3)), g, np.zeros((5, 3)), xi)
    with pytest.raises(ValueError, match=message.replace(r" at index \(2,\)", "")):
        natural_alpha(np.zeros(3), g[2], np.zeros(3), xi[2])


# ---------------------------------------------------------------------------
# plane rolling and pullbacks


def test_plane_rolling_values():
    form = plane_rolling_form()
    assert form.base_dim == 2
    assert form.descriptor == "plane-rolling"
    x = np.array([5.0, -2.0])  # constant in x
    np.testing.assert_allclose(form.evaluate(x, np.array([1.0, 0.0])), [0.0, 1.0, 0.0], atol=0.0)
    np.testing.assert_allclose(form.evaluate(x, np.array([0.0, 1.0])), [-1.0, 0.0, 0.0], atol=0.0)


def test_plane_rolling_linearity():
    form = plane_rolling_form()
    rng = np.random.RandomState(36)
    x = rng.standard_normal(2)
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    np.testing.assert_allclose(
        form.evaluate(x, 2.0 * u - 3.0 * v), 2.0 * form.evaluate(x, u) - 3.0 * form.evaluate(x, v), atol=1e-10
    )


def test_plane_rolling_is_a_pullback_of_the_natural_form():
    """The grid identity behind the quarter-turn embedding of displacements."""
    pulled = pullback_form(PLANE_ROLLING_PULLBACK, natural_form())
    rolling = plane_rolling_form()
    assert pulled.base_dim == 2
    tangents = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.7, -0.4]), np.array([-1.3, 2.2])]
    for x1 in np.linspace(-2.0, 2.0, 10):
        for x2 in np.linspace(-2.0, 2.0, 10):
            x = np.array([x1, x2])
            for v in tangents:
                np.testing.assert_allclose(pulled.evaluate(x, v), rolling.evaluate(x, v), atol=1e-12)


def test_pullback_through_identity_and_zero():
    rng = np.random.RandomState(37)
    ident = pullback_form(np.eye(3), natural_form())
    zero = pullback_form(np.zeros((3, 3)), natural_form())
    for _ in range(5):
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(ident.evaluate(x, v), natural_form().evaluate(x, v), atol=0.0)
        np.testing.assert_allclose(zero.evaluate(x, v), np.zeros(3), atol=0.0)


def test_pullback_validation():
    with pytest.raises(ValueError, match="3 x d"):
        pullback_form(np.zeros((2, 2)), natural_form())
    with pytest.raises(ValueError, match="live on R\\^3"):
        pullback_form(np.zeros((3, 2)), plane_rolling_form())


# ---------------------------------------------------------------------------
# surfaces

# Charts for parametric_surface, written for stacks of chart points (..., 2).


def plane_chart(u):
    return np.stack([u[..., 0], u[..., 1], np.zeros_like(u[..., 0])], axis=-1)


def sphere_chart(r):
    def chart(u):
        th, ph = u[..., 0], u[..., 1]
        return r * np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)

    return chart


def test_sphere_surface_chart_points():
    s = sphere_surface(2.0)
    np.testing.assert_allclose(s.chart(np.array([np.pi / 2, 0.0])), [2.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(s.chart(np.array([np.pi / 2, np.pi / 2])), [0.0, 2.0, 0.0], atol=1e-15)
    assert s.kind == "sphere-outer"
    assert sphere_surface(1.0, side="inner").kind == "sphere-inner"


def test_sphere_surface_chart_tangent_matches_finite_differences():
    s = sphere_surface(1.5)
    h = 1e-6
    u = np.array([1.1, 0.7])
    T = s.chart_tangent(u)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (s.chart(u + e) - s.chart(u - e)) / (2 * h)
        np.testing.assert_allclose(T[:, i], fd, atol=1e-8)


def test_sphere_surface_gauss_map():
    # the sphere's Gauss map in closed form: n = s x / r and Dn v = s v / r, with side sign s
    rng = np.random.RandomState(38)
    for side, sign in (("outer", 1.0), ("inner", -1.0)):
        s = sphere_surface(2.0, side=side)
        for _ in range(5):
            u = np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(-np.pi, np.pi)])
            n = sign * s.chart(u) / 2.0
            np.testing.assert_allclose(np.linalg.norm(n), 1.0, atol=1e-10)
            np.testing.assert_allclose(n @ s.chart_tangent(u), np.zeros(2), atol=1e-12)
            v = rng.standard_normal(2)
            v_emb = s.chart_tangent(u) @ v
            np.testing.assert_allclose(s.rolling(u, v), np.cross(n, v_emb + sign * v_emb / 2.0), atol=1e-12)


def test_sphere_surface_polar_cap_refused():
    s = sphere_surface(1.0)
    with pytest.raises(ValueError, match="polar cap"):
        s.chart(np.array([1e-4, 0.0]))
    with pytest.raises(ValueError, match="polar cap"):
        s.chart_tangent(np.array([np.pi - 1e-5, 0.3]))


def test_sphere_surface_validation():
    with pytest.raises(ValueError, match="positive"):
        sphere_surface(0.0)
    for r in (np.inf, np.nan, 1e200, 1e-200, 1.4e154, 7e-155):  # r^2 or 1/r^2 past the float range
        with pytest.raises(ValueError, match=re.escape(f"positive and finite, with finite r^2 and 1/r^2, got {r}") + "$"):
            sphere_surface(r)
    for r in (1.3e154, 8e-155):
        assert sphere_surface(r).kind == "sphere-outer"
    with pytest.raises(ValueError, match="side"):
        sphere_surface(1.0, side="top")
    with pytest.raises(ValueError, match="orthonormal"):
        sphere_surface(1.0, frame=(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0])))
    for frame in ((np.array([np.nan, 0, 0]), *np.eye(3)[1:]), (*np.eye(3)[:2], np.full(3, np.nan)),
                  (np.array([np.inf, 0, 0]), *np.eye(3)[1:]), (np.array([1e200, 0, 0]), *np.eye(3)[1:])):
        # a NaN defect once passed "> 1e-10", and det(F) warned; an inf or huge entry warned in F.T @ F;
        # RuntimeWarnings are errors here (pyproject.toml)
        with pytest.raises(ValueError, match="^frame vectors are not orthonormal$"):
            sphere_surface(1.0, frame=frame)
    for frame in (np.eye(3)[:2], np.eye(2), [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="^frame must consist of three 3-vectors$"):
            sphere_surface(1.0, frame=frame)
    s = sphere_surface(2.0)
    for f in (s.chart, s.chart_tangent, lambda u: s.rolling(u, np.ones(u.shape))):
        for shape in ((3,), (4, 1), ()):
            with pytest.raises(ValueError, match=r"^sphere chart expects \(colatitude, longitude\) pairs$"):
                f(np.full(shape, 1.0))
    for p, q in (([1.0, 0.0], [0.0, 1.0]), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]), (np.eye(3), np.eye(3))):
        with pytest.raises(ValueError, match="^great_arc expects two points in R\\^3$"):
            great_arc(p, q)


def test_parametric_surface_matches_analytic_sphere():
    r = 1.3
    rng = np.random.RandomState(43)
    u = np.column_stack([rng.uniform(0.3, np.pi - 0.3, 40), rng.uniform(-np.pi, np.pi, 40)])
    v = rng.standard_normal((40, 2))
    outer = sphere_surface(r)
    # a chart's normal follows its orientation: swapping x and y turns it to the center
    inner = sphere_surface(r, side="inner", frame=([0, 1.0, 0], [1.0, 0, 0], [0, 0, 1.0]))
    for num, ana in ((parametric_surface(sphere_chart(r)), outer), (parametric_surface(inner.chart), inner)):
        np.testing.assert_allclose(num.chart_tangent(u), ana.chart_tangent(u), atol=1e-8)
        np.testing.assert_allclose(num.rolling(u, v), ana.rolling(u, v), rtol=0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# rolling forms


def test_surface_rolling_sphere_formula():
    # omega(v) = -(1/r)(1 + 1/r) x cross v_emb on the outer side
    r = 2.0
    s = sphere_surface(r)
    form = surface_rolling_form(s)
    assert form.descriptor == "sphere-outer"
    rng = np.random.RandomState(39)
    for _ in range(10):
        u = np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(-np.pi, np.pi)])
        v = rng.standard_normal(2)
        x = s.chart(u)
        v_emb = s.chart_tangent(u) @ v
        want = -(1.0 / r) * (1.0 + 1.0 / r) * cross(x, v_emb)
        np.testing.assert_allclose(form.evaluate(u, v), want, atol=1e-12)


def test_surface_rolling_inner_unit_sphere_vanishes():
    form = surface_rolling_form(sphere_surface(1.0, side="inner"))
    rng = np.random.RandomState(40)
    for _ in range(10):
        u = np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(-np.pi, np.pi)])
        np.testing.assert_allclose(form.evaluate(u, rng.standard_normal(2)), np.zeros(3), atol=0.0)


def test_surface_rolling_inner_sphere_formula():
    # inner side: omega(v) = +(1/r)(1 - 1/r) x cross v_emb
    r = 2.0
    s = sphere_surface(r, side="inner")
    form = surface_rolling_form(s)
    u = np.array([1.2, 0.5])
    v = np.array([-0.7, 1.1])
    x = s.chart(u)
    v_emb = s.chart_tangent(u) @ v
    want = (1.0 / r) * (1.0 - 1.0 / r) * cross(x, v_emb)
    np.testing.assert_allclose(form.evaluate(u, v), want, atol=1e-12)


def test_plane_as_parametric_surface_matches_plane_rolling_up_to_sign():
    """Rolling on a parametrized flat plane agrees with the closed form up to
    the orientation convention of the quarter turn."""
    form = surface_rolling_form(parametric_surface(plane_chart))
    rolling = plane_rolling_form()
    rng = np.random.RandomState(41)
    for _ in range(10):
        x, v = rng.standard_normal(2), rng.standard_normal(2)
        np.testing.assert_allclose(form.evaluate(x, v), -rolling.evaluate(x, v), atol=1e-8)


def test_surface_rolling_rejects_singular_chart():
    collapsed = parametric_surface(lambda u: np.stack([u[..., 0], u[..., 0], np.zeros_like(u[..., 0])], axis=-1))
    form = surface_rolling_form(collapsed)
    with pytest.raises(ValueError, match="singular"):
        form.evaluate(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
    # on a stack, the first singular point is named: the partial along u1 vanishes where u1 = 0
    folded = parametric_surface(lambda u: np.stack([u[..., 0] ** 2, u[..., 1], np.zeros_like(u[..., 0])], axis=-1))
    u = np.array([[0.5, 0.1], [0.0, 0.25], [0.0, 0.75], [1.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape("chart tangent map singular at chart point [0.0, 0.25]")):
        folded.rolling(u, np.ones((4, 2)))
    with pytest.raises(ValueError, match=re.escape("singular at chart point [0.0, 0.75]")):
        folded.rolling(u[2:], np.ones((2, 2)))


# ---------------------------------------------------------------------------
# parametric surfaces take stacks

PARAMETRIC_CHARTS = {"plane": plane_chart, "graph": graph_chart, "sphere": sphere_chart(2.0)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    chart=st.sampled_from(sorted(PARAMETRIC_CHARTS)),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_parametric_maps_on_a_stack_equal_them_row_by_row(chart, n, seed):
    rng = np.random.RandomState(seed)
    s = parametric_surface(PARAMETRIC_CHARTS[chart])
    u = np.column_stack([rng.uniform(0.3, np.pi - 0.3, n), rng.uniform(-3.0, 3.0, n)])
    v = rng.standard_normal((n, 2)) * rng.uniform(0.01, 100.0)
    rolled = s.rolling(u, v)
    assert rolled.shape == (n, 3)
    assert np.array_equal(rolled, [s.rolling(ui, vi) for ui, vi in zip(u, v)])
    T = s.chart_tangent(u)
    assert T.shape == (n, 3, 2)
    assert np.array_equal(T, [s.chart_tangent(ui) for ui in u])


def test_parametric_maps_refuse_a_point_whose_last_axis_is_not_two():
    s = parametric_surface(lambda u: np.stack([u[..., 0], u[..., 1], u[..., 0] * u[..., 1]], axis=-1))
    for f in (s.chart, s.chart_tangent, lambda u: s.rolling(u, u)):
        for shape in ((3,), (4, 3), ()):
            message = f"chart points must have shape (..., 2), got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                f(np.zeros(shape))
    assert s.chart(np.zeros((4, 2))).shape == (4, 3)


def test_point_only_chart_is_refused_by_its_shapes():
    s = parametric_surface(lambda u: np.array([u[0], u[1], 0.3 * np.sin(u[0]) * np.cos(u[1])]))
    s.rolling(np.array([0.1, 0.2]), np.array([1.0, 0.0]))  # one point still works
    message = r"chart maps points of shape (4, 2) to shape (3, 2), not (4, 3)"
    for f in (s.chart, s.chart_tangent, lambda u: s.rolling(u, u)):
        with pytest.raises(ValueError, match=re.escape(message)):
            f(np.ones((4, 2)))


def parent_rolling(s, u, v):
    """The parametric rolling map as once written, with the chart tangent at u evaluated twice."""
    h = 1e-5

    def normal(w):
        T = s.chart_tangent(w)
        n = np.cross(T[..., 0], T[..., 1])
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    v_emb = (s.chart_tangent(u) * v[..., None, :]).sum(axis=-1)
    return np.cross(normal(u), v_emb + (normal(u + h * v) - normal(u - h * v)) / (2 * h))


@pytest.mark.parametrize("chart", sorted(PARAMETRIC_CHARTS))
@pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3)])
def test_parametric_rolling_evaluates_the_chart_tangent_at_u_once(chart, shape):
    # three chart tangents (at u, u + h v and u - h v) of four chart calls each; the tangent at u was once
    # evaluated a second time for the normal there, 16 calls in all
    calls = []

    def counting(u):
        calls.append(None)
        return PARAMETRIC_CHARTS[chart](u)

    s = parametric_surface(counting)
    rng = np.random.RandomState(len(shape) + 10 * len(chart))
    u = np.stack([rng.uniform(0.3, np.pi - 0.3, shape), rng.uniform(-3.0, 3.0, shape)], axis=-1)
    v = rng.standard_normal(shape + (2,)) * rng.uniform(0.01, 100.0)
    got = s.rolling(u, v)
    assert len(calls) == 12
    assert got.shape == shape + (3,) and got.tobytes() == parent_rolling(s, u, v).tobytes()


# ---------------------------------------------------------------------------
# the sphere's closed-form rolling map against the generic formula

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def generic_rolling_form(surface, normal, shape_derivative, u, v):
    """-n x (v_emb + Dn v_emb), assembled point by point from the chart tangent and the Gauss map
    n = normal(u), Dn v_emb = shape_derivative(v_emb)."""
    u, v = np.atleast_2d(u), np.atleast_2d(v)
    rows = []
    for ui, vi in zip(u, v):
        v_emb = surface.chart_tangent(ui) @ vi
        rows.append(-np.cross(normal(ui), v_emb + shape_derivative(v_emb)))
    return np.array(rows)


@SETTINGS
@given(
    r=st.floats(0.2, 5.0),
    side=st.sampled_from(["outer", "inner"]),
    left_handed=st.booleans(),
    n=st.integers(0, 12),  # 0: a single point, else a stack of n
    seed=st.integers(0, 2**32 - 1),
)
@example(r=2.0, side="outer", left_handed=False, n=0, seed=0)
@example(r=1.0, side="outer", left_handed=True, n=5, seed=1)
def test_sphere_rolling_closed_form_matches_the_generic_formula(r, side, left_handed, n, seed):
    rng = np.random.RandomState(seed)
    s = sphere_surface(r, side=side, frame=random_frame(rng, left_handed))
    shape = (2,) if n == 0 else (n, 2)
    u = np.stack([rng.uniform(0.05, np.pi - 0.05, shape[:-1]), rng.uniform(-10.0, 10.0, shape[:-1])], axis=-1)
    v = rng.standard_normal(shape) * rng.uniform(0.01, 100.0)
    got = surface_rolling_form(s).evaluate(u, v)
    assert got.shape == shape[:-1] + (3,)
    tol = 1e-14 * np.linalg.norm(np.atleast_2d(v), axis=-1, keepdims=True) * max(r, 1.0)
    sign = 1.0 if side == "outer" else -1.0  # the sphere's Gauss map: n = s x / r, Dn v = s v / r
    want = generic_rolling_form(s, lambda ui: sign * s.chart(ui) / r, lambda e: sign * e / r, u, v)
    assert np.all(np.abs(np.atleast_2d(got) - want) <= tol)


@SETTINGS
@given(left_handed=st.booleans(), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_inner_unit_sphere_closed_form_is_exactly_zero(left_handed, n, seed):
    rng = np.random.RandomState(seed)
    s = sphere_surface(1.0, side="inner", frame=random_frame(rng, left_handed))
    u = np.column_stack([rng.uniform(0.05, np.pi - 0.05, n), rng.uniform(-10.0, 10.0, n)])
    assert np.all(surface_rolling_form(s).evaluate(u, rng.standard_normal((n, 2)) * 100.0) == 0.0)


@SETTINGS
@given(
    n=st.integers(1, 12),
    k=st.integers(0, 11),
    cap=st.one_of(st.floats(0.0, 1e-3, exclude_max=True), st.floats(np.pi - 1e-3, np.pi, exclude_min=True)),
    latitude=st.booleans(),  # every row at the cap colatitude: one colatitude for the stack
)
@example(n=1, k=0, cap=0.0, latitude=False)
@example(n=12, k=11, cap=np.pi, latitude=False)
@example(n=12, k=0, cap=5e-4, latitude=True)
def test_sphere_rolling_names_the_one_cap_point_of_a_stack(n, k, cap, latitude):
    k %= n
    s = sphere_surface(1.5)
    u = np.column_stack([np.linspace(0.5, 2.5, n), np.linspace(-1.0, 1.0, n)])
    u[slice(None) if latitude else k, 0] = cap
    message = f"colatitude {cap:.6g} lies in the polar cap"
    with pytest.raises(ValueError, match=re.escape(message)) as refused:
        surface_rolling_form(s).evaluate(u, np.ones((n, 2)))
    with pytest.raises(ValueError) as by_chart_tangent:
        s.chart_tangent(u)
    assert str(refused.value) == str(by_chart_tangent.value)


# The transport engine evaluates its first block led by copies of the start point and drops those
# rows, which is exact only if a row's bits do not depend on the rows above it. The sphere's closed form
# ends in a matmul with its rolling map: laid out in Fortran order, that gave a one-row stack other bits.


@SETTINGS
@given(
    surface=st.sampled_from(["sphere", "framed sphere", "parametric"]),
    r=st.floats(0.2, 5.0),
    n=st.integers(1, 12),
    k=st.integers(1, 8),
    latitude=st.booleans(),  # the n rows below the leading k share one colatitude, as along a latitude
    seed=st.integers(0, 2**32 - 1),
)
@example(surface="framed sphere", r=2.0, n=1, k=4, latitude=False, seed=0)
@example(surface="sphere", r=2.0, n=12, k=1, latitude=True, seed=0)
@example(surface="framed sphere", r=0.5, n=7, k=3, latitude=True, seed=1)
def test_a_stacks_rows_keep_their_bits_under_leading_rows(surface, r, n, k, latitude, seed):
    rng = np.random.RandomState(seed)
    side = ("outer", "inner")[rng.randint(2)]
    s = {
        "sphere": lambda: sphere_surface(r, side=side),
        "framed sphere": lambda: sphere_surface(r, side=side, frame=random_frame(rng, rng.randint(2) == 1)),
        "parametric": lambda: parametric_surface(graph_chart),
    }[surface]()
    u = np.column_stack([rng.uniform(0.05, np.pi - 0.05, n + k), rng.uniform(-10.0, 10.0, n + k)])
    if latitude:
        u[k:, 0] = u[k, 0]
    v = rng.standard_normal((n + k, 2)) * rng.uniform(0.01, 100.0)
    form = surface_rolling_form(s)
    assert form.evaluate(u[k:], v[k:]).tobytes() == form.evaluate(u, v)[k:].tobytes()


# Along a latitude, and so along every great arc, a stack's colatitudes are one float: the sphere's rolling
# map takes their sine and cosine once, on stacks of over 200 rows. Each row must keep the bits it has when
# evaluated alone, on either side of that row count.


@SETTINGS
@given(
    r=st.floats(0.2, 5.0),
    side=st.sampled_from(["outer", "inner"]),
    frame=st.sampled_from(["identity", "rotated", "left-handed"]),
    shape=st.sampled_from([(0, 2), (1, 2), (2, 2), (9, 2), (64, 2), (3, 5, 2), (2, 1, 2), (200, 2), (201, 2),
                           (2, 129, 2)]),
    theta=st.floats(1e-3, np.pi - 1e-3),
    dent=st.booleans(),  # one inner row at another colatitude, the first and last rows still equal
    seed=st.integers(0, 2**32 - 1),
)
@example(r=2.0, side="outer", frame="identity", shape=(64, 2), theta=0.5 * np.pi, dent=False, seed=0)
@example(r=0.5, side="inner", frame="left-handed", shape=(3, 5, 2), theta=1e-3, dent=False, seed=1)
@example(r=1.0, side="outer", frame="rotated", shape=(9, 2), theta=np.pi - 1e-3, dent=False, seed=2)
@example(r=2.0, side="outer", frame="identity", shape=(9, 2), theta=1.1, dent=True, seed=3)
@example(r=2.0, side="outer", frame="identity", shape=(201, 2), theta=0.5 * np.pi, dent=False, seed=4)
@example(r=0.5, side="inner", frame="left-handed", shape=(2, 129, 2), theta=1e-3, dent=False, seed=5)
@example(r=1.0, side="outer", frame="rotated", shape=(201, 2), theta=1.1, dent=True, seed=6)
def test_sphere_rolling_along_a_latitude_equals_it_row_by_row(r, side, frame, shape, theta, dent, seed):
    rng = np.random.RandomState(seed)
    F = None if frame == "identity" else random_frame(rng, frame == "left-handed")
    s = sphere_surface(r, side=side, frame=F)
    u = np.stack([np.full(shape[:-1], theta), rng.uniform(-10.0, 10.0, shape[:-1])], axis=-1)
    if dent and u[..., 0].size > 2:
        u.reshape(-1, 2)[1, 0] += 0.1 if theta < 1.5 else -0.1
    v = rng.standard_normal(shape) * rng.uniform(0.01, 100.0)
    got = s.rolling(u, v)
    rows = [s.rolling(ui, vi) for ui, vi in zip(u.reshape(-1, 2), v.reshape(-1, 2))]
    assert got.shape == shape[:-1] + (3,)
    assert got.tobytes() == np.array(rows).tobytes()
    # one tangent against the whole stack broadcasts, as it does off a latitude
    w = np.array([0.3, -1.7])
    assert s.rolling(u, w).tobytes() == np.array([s.rolling(ui, w) for ui in u.reshape(-1, 2)]).tobytes()


# The sphere's chart and chart tangent end in a matmul with the frame too: F.T, in Fortran order, gave a
# one-row stack other bits than the same row of a taller stack under a rotated or left-handed frame.


@SETTINGS
@given(
    frame=st.sampled_from(["identity", "rotated", "left-handed"]),
    r=st.floats(0.2, 5.0),
    n=st.integers(1, 12),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(frame="rotated", r=2.0, n=1, k=4, seed=0)
@example(frame="left-handed", r=2.0, n=1, k=4, seed=0)
def test_framed_chart_rows_keep_their_bits_under_leading_rows(frame, r, n, k, seed):
    rng = np.random.RandomState(seed)
    F = None if frame == "identity" else random_frame(rng, frame == "left-handed")
    s = sphere_surface(r, side=("outer", "inner")[rng.randint(2)], frame=F)
    u = np.column_stack([rng.uniform(0.05, np.pi - 0.05, n + k), rng.uniform(-10.0, 10.0, n + k)])
    for m in (s.chart, s.chart_tangent):
        tall = m(u)
        assert m(u[k:]).tobytes() == tall[k:].tobytes()
        assert m(u[k]).tobytes() == tall[k].tobytes()  # a single chart point, as closed-form curvature reads it


def test_translation_invariance_is_declared_by_the_flat_forms_and_kept_by_pullbacks():
    assert natural_form().translation_invariant and plane_rolling_form().translation_invariant
    assert pullback_form(PLANE_ROLLING_PULLBACK, natural_form()).translation_invariant
    assert not surface_rolling_form(sphere_surface(2.0)).translation_invariant
    assert not surface_rolling_form(parametric_surface(graph_chart)).translation_invariant
    reads_x = LocalConnectionForm(3, lambda x, v: cross(x, v), "reads x")
    assert not reads_x.translation_invariant and not pullback_form(np.eye(3), reads_x).translation_invariant
    # an invariant pullback is handed no positions and computes no images of them
    form = pullback_form(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), natural_form())
    v = np.array([[0.3, -0.2], [1.0, 2.0]])
    assert form.evaluate(None, v).tobytes() == form.evaluate(np.ones((2, 2)), v).tobytes()


# ---------------------------------------------------------------------------
# curvature


def test_curvature_closed_form_catalog():
    rng = np.random.RandomState(42)
    u3, v3 = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(
        curvature_closed_form(natural_form(), np.zeros(3), u3, v3), cross(u3, v3), atol=0.0
    )
    u2, v2 = rng.standard_normal(2), rng.standard_normal(2)
    want = cross(np.array([*u2, 0.0]), np.array([*v2, 0.0]))
    np.testing.assert_allclose(
        curvature_closed_form(plane_rolling_form(), np.zeros(2), u2, v2), want, atol=0.0
    )


def test_curvature_closed_form_sphere_scaling():
    x = np.array([1.1, 0.4])
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s2 = sphere_surface(2.0)
    form2 = surface_rolling_form(s2)
    T = s2.chart_tangent(x)
    np.testing.assert_allclose(
        curvature_closed_form(form2, x, u, v), 0.75 * cross(T @ u, T @ v), atol=1e-12
    )
    form1 = surface_rolling_form(sphere_surface(1.0))
    np.testing.assert_allclose(
        curvature_closed_form(form1, x, u, v), np.zeros(3), atol=1e-12
    )
    # K = 1/r^2 comes from the radius the sphere was built with, not read back
    # through a rotated chart, so the unit sphere is flat to the bit in any frame
    R = exp_so3(np.array([0.4, -1.1, 0.7]))
    for side in ("outer", "inner"):
        rotated = surface_rolling_form(sphere_surface(1.0, side=side, frame=tuple(R.T)))
        assert not curvature_closed_form(rotated, x, u, v).any()


def test_pullback_curvature_is_the_inner_curvature_at_the_images():
    rng = np.random.RandomState(44)
    f = rng.standard_normal((3, 2))
    inner = natural_form()
    for _ in range(10):
        x, u, v = rng.standard_normal((3, 2))
        want = curvature_closed_form(inner, x @ f.T, u @ f.T, v @ f.T)
        assert np.array_equal(curvature_closed_form(pullback_form(f, inner), x, u, v), want)
    rho_j = pullback_form(PLANE_ROLLING_PULLBACK, inner)
    np.testing.assert_allclose(curvature_closed_form(rho_j, np.zeros(2), u, v),
                               curvature_closed_form(plane_rolling_form(), np.zeros(2), u, v), atol=1e-15)


def test_curvature_closed_form_unknown_descriptor():
    plane = parametric_surface(plane_chart)
    with pytest.raises(ValueError, match="no closed-form curvature catalogued for 'parametric'"):
        curvature_closed_form(surface_rolling_form(plane), np.zeros(2), np.ones(2), np.ones(2))
    # a form built by hand states no curvature, and neither does its pullback
    user = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: -v, descriptor="user")
    for form, name in ((user, "user"), (pullback_form(PLANE_ROLLING_PULLBACK, user), "pullback[user]")):
        with pytest.raises(ValueError, match=re.escape(f"no closed-form curvature catalogued for '{name}'")):
            curvature_closed_form(form, np.zeros(form.base_dim), *np.eye(form.base_dim)[:2])
