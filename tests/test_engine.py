"""Property tests for the batched stepping engine and the array-valued catalog.

The engine evaluates a whole block of grid nodes per call and composes the
step quaternions by pairwise reduction into chunk products; the final frame
is their right-aligned pairwise reduction and the recorded states their
prefix scan, each built on first read. These tests hold it to the loop it
replaced (one ``exp(dt a) g`` per interval, written without the library as
``references.stepped_product``), to per-point evaluation of the same paths
and forms, and to the paper's concatenation and reversal laws.
"""

import dataclasses
import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liecurv import (
    PLANE_ROLLING_PULLBACK,
    IntegratorConfig,
    LocalConnectionForm,
    PathSpec,
    circle,
    convergence_order,
    exp_so3,
    great_arc,
    holonomy,
    integration_grid,
    lift_transport,
    line,
    natural_form,
    parametric_surface,
    plane_rolling_form,
    polyline,
    pullback_form,
    quat_to_rotation,
    small_loop_curvature,
    sphere_surface,
    surface_rolling_form,
    time_ordered_product,
    transport,
    transport_quat,
)
from liecurv.liecore import hamilton
from liecurv.transport import _BLOCK, _MAX_RECORDED, _last_product, _prefix_products
from references import CF, exp_quaternion, graph_chart, rotated_frame, sequential_grid, stepped_product, tilted_circle

ENGINE = importlib.import_module("liecurv.transport")  # the package exports a function of the same name
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
NAT = natural_form()
SAMPLE_POINT = {"lie-euler": 0.0, "exp-midpoint": 0.5}  # each method's sample point, not read from the library
METHODS = tuple(SAMPLE_POINT)


def cornered_polyline():
    """Irregular vertex times, so corners fall between uniform grid nodes."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.3], [0.4, 1.2, 0.9], [-0.2, 0.3, 0.1], [0.0, 0.0, 0.0]])
    return polyline(pts, times=[0.0, 0.1234567, 0.4, 0.77777, 1.0])


PATHS = {
    "line": line(np.array([0.3, -1.0, 2.0]), np.array([1.5, 0.2, -0.7])),
    "circle": tilted_circle(),
    "polyline": cornered_polyline(),
    "great_arc": great_arc(np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]))[0],
}

FORMS = {
    "natural": natural_form(),
    "plane": plane_rolling_form(),
    "pullback": pullback_form(PLANE_ROLLING_PULLBACK, natural_form()),
    "sphere-outer": surface_rolling_form(sphere_surface(2.0, side="outer", frame=rotated_frame())),
    "sphere-inner": surface_rolling_form(sphere_surface(0.5, side="inner")),
    "parametric": surface_rolling_form(parametric_surface(graph_chart)),
}

TIMES = hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 1.0))


def sequential_transport(form, path, steps, method):
    """``(g, q, recorded)``: the loops the engine replaced, one exponential per interval for the frame and
    q <- exp(dt v) q for the quaternion, and their sample-recording rule."""
    nodes, s = sequential_grid(steps, path.corners), SAMPLE_POINT[method]
    g, _ = stepped_product(lambda t: -form.evaluate(path.position(t), path.velocity(t)), nodes, s)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for t0, dt in zip(nodes[:-1], np.diff(nodes)):
        q = CF.quat_mul(CF.quat_exp(dt * path.velocity(t0 + s * dt)), q)
    n = len(nodes) - 1
    stride = max(1, -(-n // 1024))
    return g, q, [0.0] + [float(nodes[k]) for k in range(1, n + 1) if k % stride == 0 or k == n]


# ---------------------------------------------------------------------------
# array-valued catalog


@pytest.mark.parametrize("name", sorted(PATHS))
@SETTINGS
@given(ts=TIMES)
def test_batched_path_evaluation_matches_scalar(name, ts):
    path = PATHS[name]
    for fn in (path.position, path.velocity):
        batch = fn(ts)
        assert batch.shape == (len(ts), path.base_dim)
        for t, row in zip(ts, batch):
            np.testing.assert_allclose(row, fn(float(t)), rtol=1e-14, atol=1e-14)


def broadcast_line(x0, xi):
    """The line maps as once written, each operation broadcast over the trailing coordinate axis."""
    return (lambda t: x0 + np.multiply.outer(t, xi),
            lambda t: np.broadcast_to(xi, np.shape(t) + xi.shape).copy())


def broadcast_circle(center, radius, b1, b2):
    tau = 2.0 * np.pi

    def angle(t):
        return tau * np.asarray(t, dtype=float)[..., None]

    return (lambda t: center + radius * (np.cos(angle(t)) * b1 + np.sin(angle(t)) * b2),
            lambda t: radius * tau * (-np.sin(angle(t)) * b1 + np.cos(angle(t)) * b2))


def broadcast_polyline(P, T):
    slopes = (P[1:] - P[:-1]) / np.diff(T)[:, None]

    def segment_of(t):
        return np.clip(np.searchsorted(T, t, side="right") - 1, 0, len(P) - 2)

    def position(t):
        t = np.asarray(t, dtype=float)
        i = segment_of(t)
        return np.where((t == 1.0)[..., None], P[-1], P[i] + (t - T[i])[..., None] * slopes[i])  # the end is P[-1]

    return position, lambda t: np.take(slopes, segment_of(t), axis=0)


COORDS = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])
PIN_TIMES = st.one_of(
    st.floats(-0.5, 1.5) | st.sampled_from([0.0, -0.0, 1.0]),  # a single time
    st.integers(0, 2).flatmap(lambda ndim: hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=12),
        elements=st.floats(-0.5, 1.5) | st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]))),
)


@pytest.mark.parametrize("kind", ["line", "circle", "polyline"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), t=PIN_TIMES)
def test_catalog_maps_give_the_bits_of_the_broadcast_expressions(kind, data, t):
    # each map now runs its arithmetic along the node axis; the values and
    # signed zeros must be those of the trailing-axis broadcasts above. A NaN's
    # sign bit is not compared: numpy's SIMD and scalar loops already set it
    # differently for the same expression at different places in one array.
    d = data.draw(st.integers(2 if kind == "circle" else 1, 4))
    coords = lambda *shape: data.draw(hnp.arrays(np.float64, shape, elements=COORDS))
    if kind == "line":
        x0, xi = coords(d), coords(d)
        path, reference = line(x0, xi), broadcast_line(x0, xi)
    elif kind == "circle":
        center, radius = coords(d), data.draw(st.floats(0.1, 3.0))
        plane = None if data.draw(st.booleans()) else np.eye(d)[:2] + 0.1 * coords(2, d)  # never parallel
        path = circle(center, radius, plane=plane)
        b1, b2 = np.eye(d)[:2] if plane is None else plane
        b1 = b1 / np.linalg.norm(b1)  # the orthonormalization circle() does
        b2 = b2 - (b2 @ b1) * b1
        reference = broadcast_circle(center, radius, b1, b2 / np.linalg.norm(b2))
    else:
        P = coords(data.draw(st.integers(2, 6)), d)
        T = np.linspace(0.0, 1.0, len(P))
        if data.draw(st.booleans()):
            T = np.cumsum([0.0] + data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(P) - 1, max_size=len(P) - 1)))
            T = T / T[-1]
        path, reference = polyline(P, times=T), broadcast_polyline(P, T)
    with np.errstate(invalid="ignore"):  # infinite and NaN times give NaN entries
        for got, want in zip((path.position(t), path.velocity(t)), (reference[0](t), reference[1](t))):
            assert got.shape == want.shape == np.shape(t) + (d,)
            assert np.array_equal(got, want, equal_nan=True)
            number = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


@pytest.mark.parametrize("name", sorted(FORMS))
@SETTINGS
@given(data=st.data())
def test_batched_form_evaluation_matches_pointwise(name, data):
    form = FORMS[name]
    n = data.draw(st.integers(1, 30))
    d = form.base_dim
    X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0)))
    V = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0)))
    if name.startswith("sphere-"):
        X[:, 0] = 0.1 + (np.pi - 0.2) * np.abs(X[:, 0]) / 3.0  # colatitudes clear of the caps
    batch = form.evaluate(X, V)
    assert batch.shape == (n, 3)
    for x, v, row in zip(X, V, batch):
        np.testing.assert_allclose(row, form.evaluate(x, v), rtol=1e-13, atol=1e-13)


@SETTINGS
@given(data=st.data())
def test_stacked_quaternion_kernels_match_rowwise(data):
    n = data.draw(st.integers(1, 20))
    U = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-4.0, 4.0)))
    U[0] *= 1e-8  # one row on the small-angle branch
    Q = exp_quaternion(U)
    P = exp_quaternion(U[::-1])
    for u, p, q, qp, R in zip(U, P, Q, np.transpose(hamilton(P.T, Q.T)), quat_to_rotation(Q)):
        np.testing.assert_allclose(q, exp_quaternion(u), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(qp, CF.quat_mul(p, q), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(R, quat_to_rotation(q), rtol=1e-15, atol=1e-15)


@SETTINGS
@given(start=st.floats(0.01, 0.97), method=st.sampled_from(METHODS))
def test_polar_cap_node_anywhere_is_refused(start, method):
    # the path dwells at colatitude 5e-4 (inside the cap) on [start, start + 0.02];
    # 10^4 steps span three blocks, so the offending nodes land in any of them
    pts = np.array([[1.0, 0.0], [5e-4, 0.3], [5e-4, 0.4], [1.0, 0.7]])
    path = polyline(pts, times=[0.0, start, start + 0.02, 1.0])
    form = FORMS["sphere-outer"]
    with pytest.raises(ValueError, match="polar cap"):
        transport(form, path, config=IntegratorConfig(method=method, steps=10_000))


# ---------------------------------------------------------------------------
# user callables: maps take arrays


def test_user_lambdas_run_through_the_engine():
    c = tilted_circle()
    user_path = PathSpec(base_dim=3, position=lambda t: c.position(t), velocity=lambda t: c.velocity(t), closed=True)
    user_form = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: -np.asarray(v), descriptor="user")
    cfg = IntegratorConfig(steps=777)
    want = transport(NAT, c, config=cfg).final
    np.testing.assert_allclose(transport(user_form, user_path, config=cfg).final, want, rtol=0.0, atol=1e-13)


def test_form_with_wrong_output_shape_is_refused():
    bad = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: v[..., :2], descriptor="bad")
    with pytest.raises(ValueError, match="shape"):
        transport(bad, line(np.zeros(3), np.ones(3)), config=IntegratorConfig(steps=8))


# Maps written for one point at a time. On a block of d or 3 nodes the engine
# would get a transposed block of the right shape and a wrong answer; the first
# block, led by max(d, 3) + 1 start rows, refuses them by their shapes before any
# step is taken. A translation-invariant form reads positions on the start rows alone.
POINT_ONLY_PATH = PathSpec(
    base_dim=2,
    position=lambda t: np.array([np.cos(t), np.sin(t)]),
    velocity=lambda t: np.array([-np.sin(t), np.cos(t)]),
    closed=False,
)
POINT_ONLY_FORM = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: np.array([v[1], v[2], v[0]]), descriptor="point-only")
POINT_ONLY_SPACE_PATH = dataclasses.replace(
    POINT_ONLY_PATH, base_dim=3, position=lambda t: np.array([np.cos(t), np.sin(t), t]),
    velocity=lambda t: np.array([-np.sin(t), np.cos(t), np.ones_like(t)]),
)


@pytest.mark.parametrize("method", METHODS)
def test_point_only_maps_are_refused_by_their_shape(method):
    # first blocks of 4 start rows and 2 or 3 steps: 6 and 7 rows
    with pytest.raises(ValueError, match=r"path 'custom' maps 4 and 6 times to shapes \(2, 4\) and \(2, 6\), "
                                         r"not \(4, 2\) and \(6, 2\)"):
        transport(plane_rolling_form(), POINT_ONLY_PATH, config=IntegratorConfig(method=method, steps=2))
    with pytest.raises(ValueError, match=r"form 'point-only' maps a block of 7 points to shape \(3, 3\), not \(7, 3\)"):
        transport(POINT_ONLY_FORM, PATHS["line"], config=IntegratorConfig(method=method, steps=3))
    with pytest.raises(ValueError, match=r"form 'point-only' maps a block of 7 points to shape \(3, 3\)"):
        time_ordered_product(POINT_ONLY_FORM, PATHS["line"], 3)
    with pytest.raises(ValueError, match=r"maps 4 and 7 times to shapes \(3, 4\) and \(3, 7\)"):
        transport_quat(POINT_ONLY_SPACE_PATH, config=IntegratorConfig(method=method, steps=3))


def test_a_form_never_meets_a_malformed_path():
    # the path's shapes are checked before the form is called: this form would raise TypeError on (2, n) blocks
    def strict(x, v):
        if np.ndim(v) != 2 or np.shape(v)[1] != 2:
            raise TypeError(f"strict form called on shape {np.shape(v)}")
        return np.stack([v[:, 0], v[:, 1], 0.0 * v[:, 0]], axis=-1)

    form = LocalConnectionForm(base_dim=2, evaluate=strict, descriptor="strict", translation_invariant=True)
    with pytest.raises(ValueError, match=r"path 'custom' maps 4 and 7 times to shapes \(2, 4\) and \(2, 7\)"):
        transport(form, POINT_ONLY_PATH, config=IntegratorConfig(steps=3))


# Every public entry point that evaluates a user path or form, as a call on
# (form, path); the loop is closed so that holonomy accepts it.
FIRST_BLOCK_CFG = IntegratorConfig(steps=3)
ENTRY_POINTS = {
    "transport": lambda form, path: transport(form, path, config=FIRST_BLOCK_CFG),
    "holonomy": lambda form, path: holonomy(form, path, FIRST_BLOCK_CFG),
    "time_ordered_product": lambda form, path: time_ordered_product(form, path, 3),
    "lift_transport": lambda form, path: lift_transport(form, path, config=FIRST_BLOCK_CFG),
    "convergence_order": lambda form, path: convergence_order(form, path, n0=3),
    "small_loop_curvature": lambda form, path: small_loop_curvature(
        form, np.zeros(form.base_dim), *np.eye(form.base_dim)[:2], 1e-2, FIRST_BLOCK_CFG
    ),
    "transport_quat": lambda form, path: transport_quat(path, config=FIRST_BLOCK_CFG),
}
# the rows of each entry point's first block: m = max(d, 3) + 1 = 4 start rows and its first run's intervals, which
# are 3 steps (4 + 3 = 7), 48 for convergence_order's 16 n0 reference, and 6 for the parallelogram's 3 steps merged
# with its 3 corners at 1/4, 1/2 and 3/4 (4 + 6 = 10)
FIRST_BLOCK_ROWS = dict.fromkeys(ENTRY_POINTS, 7) | {"convergence_order": 4 + 48, "small_loop_curvature": 4 + 6}
POINT_ONLY_LOOP = PathSpec(
    base_dim=3,
    position=lambda t: np.array([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), 0.0 * t]),
    velocity=lambda t: 2 * np.pi * np.array([-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), 0.0 * t]),
    closed=True,
)


# A form that takes stacks on a chart written for one point: the chart refuses the stack.
POINT_ONLY_CHART = surface_rolling_form(
    parametric_surface(lambda u: np.array([u[0], u[1], 0.3 * np.sin(u[0]) * np.cos(u[1])]))
)
# (form, a closed path in its base, the refusal for a first block of n rows)
POINT_ONLY_FORMS = [
    (POINT_ONLY_FORM, tilted_circle(), r"form 'point-only' maps a block of {n} points to shape \(3, 3\), not \({n}, 3\)"),
    (POINT_ONLY_CHART, circle(np.array([0.3, -0.2]), 0.8),
     r"chart maps points of shape \({n}, 2\) to shape \(3, 2\), not \({n}, 3\)"),
]


@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"transport_quat"}))
def test_every_entry_point_refuses_a_point_only_form(entry):
    for form, path, message in POINT_ONLY_FORMS:
        with pytest.raises(ValueError, match=message.format(n=FIRST_BLOCK_ROWS[entry])):
            ENTRY_POINTS[entry](form, path)


@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"small_loop_curvature"}))
def test_every_entry_point_refuses_a_point_only_path(entry):
    n = FIRST_BLOCK_ROWS[entry]  # the natural form reads no positions: only the 4 start rows
    with pytest.raises(ValueError, match=rf"path 'custom' maps 4 and {n} times to shapes \(3, 4\) and \(3, {n}\), "
                                         rf"not \(4, 3\) and \({n}, 3\)"):
        ENTRY_POINTS[entry](NAT, POINT_ONLY_LOOP)


def stacked_path(d, position=None, velocity=None):
    """The line t -> t (1, ..., 1) in R^d, with either map replaceable."""
    ones = np.ones(d)
    return PathSpec(
        base_dim=d,
        position=position or (lambda t: np.asarray(t, float)[..., None] * ones),
        velocity=velocity or (lambda t: np.zeros(np.shape(t))[..., None] + ones),
        closed=False,
    )


def user_form(d, evaluate):
    return LocalConnectionForm(base_dim=d, evaluate=evaluate, descriptor="user")


# (form, path, the shapes the refusal names). The first block has m = max(d, 3) + 1 start rows and FIRST_BLOCK_CFG's
# 3 steps: 4 + 3 = 7 rows in R^2 and R^3, 6 + 3 = 9 in R^5. Translation-invariant forms (plane rolling, natural) read
# positions on the m start rows alone.
WRONG_SHAPES = {
    "path into a wider space": (
        plane_rolling_form(), stacked_path(2, position=lambda t: np.stack([t, t, t], axis=-1)),
        r"path 'custom' maps 4 and 7 times to shapes \(4, 3\) and \(7, 2\), not \(4, 2\) and \(7, 2\)",
    ),
    "flat velocity": (
        NAT, stacked_path(3, velocity=lambda t: np.ones_like(t)),
        r"path 'custom' maps 4 and 7 times to shapes \(4, 3\) and \(7,\), not \(4, 3\) and \(7, 3\)",
    ),
    "point-only path in R^5": (
        user_form(5, lambda x, v: v[..., :3]), stacked_path(5, position=lambda t: np.array([t, t, t, t, t])),
        r"path 'custom' maps 9 times to shapes \(5, 9\) and \(9, 5\), not \(9, 5\) and \(9, 5\)",
    ),
    "one number per point": (
        user_form(3, lambda x, v: v[..., 0]), stacked_path(3),
        r"form 'user' maps a block of 7 points to shape \(7,\), not \(7, 3\)",
    ),
    "one vector per stack": (
        user_form(3, lambda x, v: v.sum(axis=0)), stacked_path(3),
        r"form 'user' maps a block of 7 points to shape \(3,\), not \(7, 3\)",
    ),
    "trailing axis": (
        user_form(2, lambda x, v: np.stack([v[..., 0], v[..., 1], x[..., 0]], axis=-1)[..., None]), stacked_path(2),
        r"form 'user' maps a block of 7 points to shape \(7, 3, 1\), not \(7, 3\)",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_the_first_block_names_the_wrong_shape(case):
    form, path, message = WRONG_SHAPES[case]
    with pytest.raises(ValueError, match=message):
        transport(form, path, config=FIRST_BLOCK_CFG)


# ---------------------------------------------------------------------------
# the grid


@st.composite
def grid_requests(draw):
    """A step count and corners: random, on or within 1e-12 of grid nodes, 0, 1, out of range,
    duplicated, and chains of neighbours each within 1e-12 of the last."""
    steps = draw(st.integers(1, 400))
    seeds = draw(st.lists(st.one_of(
        st.floats(-0.5, 1.5),
        st.sampled_from([0.0, 1.0, -1e-13, 1.0 + 1e-13, 1e-13, 1.0 - 1e-13]),
        st.integers(0, steps).map(lambda k: k / steps),
    ), max_size=8))
    corners = []
    for c in seeds:
        corners.append(c)
        for _ in range(draw(st.integers(0, 3))):
            corners.append(corners[-1] + draw(st.sampled_from([0.0, 3e-13, -3e-13, 9.9e-13, 1.01e-12, 2e-12])))
    return steps, tuple(draw(st.permutations(corners)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(request=grid_requests())
@example(request=(4, (0.1, 0.25, 0.9999999999999)))
@example(request=(3, (1 / 3 + 5e-13, 1 / 3 + 1e-12, 1 / 3 + 1.5e-12, 0.5, 0.5)))
@example(request=(4, (1e-12, 2e-12)))  # gaps of exactly 1e-12 merge: 0 and 1e-12 give way
def test_integration_grid_equals_the_merge_loop(request):
    steps, corners = request
    nodes = integration_grid(steps, corners)
    assert np.array_equal(nodes, sequential_grid(steps, corners))
    assert nodes.dtype == np.float64 and nodes[-1] == 1.0


def test_the_uniform_grid_is_linspace_bit_for_bit():
    # the grid repeats linspace's own operations: a range, a multiply by 1/n in place, the end set to 1.0
    for n in [*range(1, 20_001), 10**6]:
        assert integration_grid(n).tobytes() == np.linspace(0.0, 1.0, n + 1).tobytes(), n
    # a polyline's uniform vertex times are that grid: its corners are linspace's interior nodes
    for m in range(2, 402):
        assert np.array(polyline(np.zeros((m, 2))).corners).tobytes() == np.linspace(0.0, 1.0, m)[1:-1].tobytes(), m
    with pytest.raises(ValueError, match="steps must be at least 1, got 0"):
        integration_grid(0)
    for steps in (64.0, 64.5):  # a count, as linspace takes it; IntegratorConfig refuses these before any run
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            integration_grid(steps)


# ---------------------------------------------------------------------------
# the reduction against the sequential product


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    steps=st.integers(1, 5000),
    method=st.sampled_from(METHODS),
    path_name=st.sampled_from(["circle", "polyline"]),
)
@example(steps=4097, method="exp-midpoint", path_name="circle")  # one interval past a block
@example(steps=1025, method="lie-euler", path_name="polyline")  # stride 2 with a partial last chunk
@example(steps=3071, method="exp-midpoint", path_name="polyline")
@example(steps=12001, method="exp-midpoint", path_name="polyline")  # 4 blocks, partial last chunk
@example(steps=9000, method="lie-euler", path_name="circle")  # 3 blocks, partial last chunk
def test_engine_matches_sequential_reference(steps, method, path_name):
    path = PATHS[path_name]
    cfg = IntegratorConfig(method=method, steps=steps)
    want, want_q, want_ts = sequential_transport(NAT, path, steps, method)
    res = transport(NAT, path, config=cfg)
    np.testing.assert_allclose(res.final, want, rtol=0.0, atol=1e-12)
    times, points, _ = res.states
    assert times.tolist() == want_ts
    every = max(1, len(times) // 5)
    for t, x in zip(times[::every].tolist(), points[::every]):
        np.testing.assert_allclose(x, path.position(t), rtol=0.0, atol=1e-14)

    # quaternion transport composes the same way
    got = transport_quat(path, config=cfg)
    np.testing.assert_allclose(got.final, want_q, rtol=0.0, atol=1e-12)
    assert got.states[0].tolist() == want_ts


def chunked_compose(sample, nodes, midpoint):
    """The chunk products as the engine once formed them: exponentials of (n, 3) stacks, then a pairwise tree within
    each chunk on (chunks, stride, 4) stacks, an odd level and a partial last chunk padded with identities."""
    n, identity = len(nodes) - 1, np.array([1.0, 0.0, 0.0, 0.0])
    stride = max(1, -(-n // _MAX_RECORDED))
    block = stride * max(1, _BLOCK // stride)
    chunks, angles = [], 0.0
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        t0 = nodes[k0:k1]
        dt = nodes[k0 + 1 : k1 + 1] - t0
        a = sample(t0 + 0.5 * dt if midpoint else t0, k0 == 0)
        steps = exp_quaternion(np.multiply(0.5 * dt, a.T, out=np.empty((3, len(dt)))).T)
        angles += 2.0 * float(np.linalg.norm(0.5 * dt[:, None] * a, axis=1).sum())
        if pad := -len(dt) % stride:
            steps = np.concatenate([steps, np.tile(identity, (pad, 1))])
        steps = steps.reshape(-1, stride, 4)
        while steps.shape[1] > 1:
            if steps.shape[1] % 2:
                steps = np.concatenate([steps, np.broadcast_to(identity, (len(steps), 1, 4))], axis=1)
            c = np.moveaxis(steps, -1, 0)  # the four components first
            steps = np.moveaxis(CF.quat_mul(c[..., 1::2], c[..., 0::2]), 0, -1)
        chunks.append(steps[:, 0])
    return np.concatenate(chunks), stride, angles


@pytest.mark.parametrize("stride", range(1, 17))
@pytest.mark.parametrize("method", METHODS)
def test_the_component_tree_gives_the_bits_of_the_chunked_tree(stride, method):
    # step counts with this stride: whole chunks, a partial last chunk, and (past _BLOCK) several blocks whose
    # last chunk is partial; steps about coordinate axes have signed zero components
    def sample(ts, start):  # the form's own values omega, as the engine samples them
        w = np.stack([np.sin(40.0 * ts), np.cos(23.0 * ts) - 0.5, ts * ts - 0.3], axis=1)
        k = np.round(ts * 7919.0).astype(int)
        w[k % 3 == 0, :2] = -0.0
        w[k % 5 == 1, 1:] = 0.0
        return w

    for n in {(stride - 1) * _MAX_RECORDED + 1, stride * _MAX_RECORDED - 3, stride * _MAX_RECORDED}:
        nodes = integration_grid(n)
        C, s, angles = ENGINE._compose(sample, nodes, ENGINE.METHODS[method])
        # the chunked tree steps with the algebra input a = -omega, as the engine once sampled it
        want, want_stride, want_angles = chunked_compose(lambda ts, start: -sample(ts, start), nodes,
                                                         method == "exp-midpoint")
        # the engine's chunk products are (4, n) component rows; the chunked tree's are an (n, 4) stack
        assert s == want_stride == stride and C.shape == want.T.shape
        assert C.tobytes() == np.ascontiguousarray(want.T).tobytes(), n
        assert angles == want_angles


# ---------------------------------------------------------------------------
# only what the caller reads: the final frame by reduction, the recorded states on demand

EDGE_LENGTHS = sorted({2**k + d for k in range(12) for d in (-1, 0, 1)} - {0})  # 1 ... 2049


def stacked_prefix_products(P):
    """The prefix scan as the engine once ran it: passes of the expression product on an (n, 4) stack."""
    S = P.copy()
    d = 1
    while d < len(S):
        S[d:] = CF.quat_mul(S[d:].T, S[:-d].T).T
        d *= 2
    return S


# the example count is fixed here; derandomization comes from the loaded hypothesis profile (conftest.py)
@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2100), st.sampled_from(EDGE_LENGTHS)),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
@example(n=1, seed=0, zeros=False)
@example(n=16, seed=4, zeros=True)  # 16 columns, the float floor, and 17, one stacked fold above it
@example(n=17, seed=5, zeros=False)
@example(n=1023, seed=1, zeros=True)
@example(n=1024, seed=2, zeros=False)
@example(n=1025, seed=3, zeros=True)
def test_last_product_is_bitwise_the_last_prefix_product(n, seed, zeros):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, 4))
    if zeros:  # signed zeros, as in rotations about a coordinate axis
        P[rng.random((n, 4)) < 0.3] = -0.0
        P[~P.any(axis=1), 0] = 1.0
    P /= np.linalg.norm(P, axis=1)[:, None]  # unit, as the chunk products are, so the frames are defined
    C = np.ascontiguousarray(P.T)  # the engine's chunk products are (4, n) component rows
    S = _prefix_products(C)
    assert S.shape == (4, n) and C.tobytes() == np.ascontiguousarray(P.T).tobytes()  # the input is not written
    last = _last_product(C)
    assert all(type(c) is float for c in last) and np.array(last).tobytes() == S[:, -1].tobytes()
    # the row scan and its frames have the bits of the (n, 4) stacked scan and of its frames
    want = stacked_prefix_products(P)
    assert S.tobytes() == np.ascontiguousarray(want.T).tobytes()
    assert quat_to_rotation(S.T).tobytes() == quat_to_rotation(want).tobytes()


@pytest.mark.parametrize("steps", [1, 64, 65, 129, 4096, 4097, 12_001])  # 64 to 129 straddle the Python-float tail
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("stepper", ["transport", "transport_quat", "lift_transport", "transport_e3", "lift_e3"])
def test_final_is_the_same_bits_whether_read_first_or_after_samples(steps, method, stepper):
    # random starts; from the identity along e3 the natural form's steps, products and frames have exact,
    # signed, zero components
    rng = np.random.default_rng(steps)
    cfg = IntegratorConfig(method=method, steps=steps)
    g0, q0 = exp_so3(rng.standard_normal(3) * 2.0), exp_quaternion(rng.standard_normal(3))
    sphere, arc = FORMS["sphere-outer"], PATHS["great_arc"]
    e3 = line(np.array([0.3, -1.0, 2.0]), np.array([0.0, 0.0, -2.5]))
    run = {
        "transport": lambda: transport(sphere, arc, g0, cfg),
        "transport_quat": lambda: transport_quat(PATHS["polyline"], q0, cfg),
        "lift_transport": lambda: ENGINE._lift(ENGINE._form_sampler(sphere, arc), arc, q0, cfg),
        "transport_e3": lambda: transport(NAT, e3, None, cfg),
        "lift_e3": lambda: ENGINE._lift(ENGINE._form_sampler(NAT, e3), e3, None, cfg),
    }[stepper]
    first = run()
    final_first = first.final
    later = run()
    times, points, states = later.states
    assert later.final.tobytes() == states[-1].tobytes() == final_first.tobytes()
    assert first.states[2][-1].tobytes() == final_first.tobytes()
    # the start is row 0, and the states read after final have the bits of the states read first
    m, d = len(times), points.shape[1]
    start = {"transport": g0, "transport_e3": np.eye(3), "lift_e3": np.array([1.0, 0.0, 0.0, 0.0])}.get(stepper, q0)
    assert times.shape == (m,) and points.shape == (m, d) and states.shape == (m, *start.shape)
    assert states[0].tobytes() == start.tobytes() and times[0] == 0.0
    assert [a.tobytes() for a in first.states] == [a.tobytes() for a in later.states]
    if stepper == "lift_transport":
        assert lift_transport(sphere, arc, q0, cfg).tobytes() == final_first.tobytes()
    if stepper.endswith("e3"):
        assert (final_first == 0.0).sum() == (4 if stepper == "transport_e3" else 2)


def test_the_frame_on_python_floats_is_quat_to_rotation_bit_for_bit():
    # chunk products are unit to a few ulps, where the order of the |q|^2 sum decides sqrt's last bit
    # about one time in eight; rotations about an axis have signed zero components
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((4000, 4))
    Q[::3, 1:3] = rng.choice([0.0, -0.0], (len(Q[::3]), 2))
    Q *= ((1.0 + rng.uniform(-1e-12, 1e-12, len(Q))) / np.linalg.norm(Q, axis=1))[:, None]
    for q in Q:  # one quaternion, converted on Python floats, against a stack of one
        assert quat_to_rotation(q).tobytes() == quat_to_rotation(q[None]).tobytes()
    with pytest.raises(ValueError, match=re.escape("quat_to_rotation: |q|^2 = 4.000000000000 is not 1")):
        quat_to_rotation([2.0, 0.0, -0.0, 0.0])


@pytest.mark.parametrize("steps, tree, folds, passes", [(64, 0, 2, 6), (4096, 2, 6, 10)])
@pytest.mark.parametrize("stepper", ["transport", "transport_quat"])
def test_reading_final_and_states_counts_hamilton_calls_on_rows(monkeypatch, steps, tree, folds, passes, stepper):
    # 64 one-step chunks need no tree; the final reduction folds them 64 -> 32 -> 16 in two stacked calls and
    # finishes on Python floats. 4,096 steps make 1,024 chunks of four: two hamilton calls reduce the chunks in
    # the tree, six stacked calls fold them down to 16 columns. Both final frames are built on Python floats,
    # so neither stepper's adds a call. The states are the prefix scan, log2 stacked passes over the chunks'
    # rows; their frames are one quat_to_rotation call, or for the lift one hamilton call with q0.
    # Calls on numpy rows and stacks are counted: not hamilton on floats, nor quat_to_rotation on one quaternion
    counted = {"hamilton": [], "hamilton_stacked": [], "quat_to_rotation": []}

    def counting(name, log):
        fn = getattr(ENGINE, name)

        def call(p, *args):
            if isinstance(p[0], np.ndarray) if name == "hamilton" else np.ndim(p) > 1:
                log.append(None)
            return fn(p, *args)

        return call

    for name, log in counted.items():
        monkeypatch.setattr(ENGINE, name, counting(name, log))
    cfg = IntegratorConfig(steps=steps)
    loop = circle(np.zeros(3), 0.5)
    run = transport(NAT, loop, config=cfg) if stepper == "transport" else transport_quat(loop, config=cfg)
    run.final
    assert tuple(map(len, counted.values())) == (tree, folds, 0)
    run.states
    lifted = stepper == "transport_quat"
    assert tuple(map(len, counted.values())) == (tree + lifted, folds + passes, not lifted)


def recorded(path):
    """``path`` with the times of every position and velocity call recorded, and the two records."""
    calls = {"position": [], "velocity": []}

    def recording(name):
        fn, log = getattr(path, name), calls[name]
        return lambda t: log.append(np.array(t)) or fn(t)

    return dataclasses.replace(path, position=recording("position"), velocity=recording("velocity")), calls


def test_reading_only_final_evaluates_the_path_once_per_block():
    # The first block leads with m = 4 copies of t = 0. The natural form reads no positions: the position
    # map is called on those start rows alone, to check the map that states reads. The sphere reads
    # positions in every block; the velocity is read in every block under both
    steps, m = 12_001, 4
    for form, base in (("natural", "polyline"), ("sphere-outer", "great_arc")):
        path, calls = recorded(PATHS[base])
        reads_x = not FORMS[form].translation_invariant
        res = transport(FORMS[form], path, config=IntegratorConfig(steps=steps))
        res.final
        n = len(integration_grid(steps, path.corners)) - 1
        stride = -(-n // _MAX_RECORDED)
        blocks = math.ceil(n / (stride * (_BLOCK // stride)))
        assert blocks > 1 and len(calls["velocity"]) == blocks
        assert len(calls["position"]) == (blocks if reads_x else 1)
        for name, times in calls.items():
            assert np.array_equal(times[0][:m], np.zeros(m))  # the start rows lead the first block
            if reads_x or name == "velocity":
                assert sum(len(ts) for ts in times) == m + n  # the sample times, not the recorded ones
        assert reads_x or len(calls["position"][0]) == m
        times, _, _ = res.states
        assert len(calls["position"]) == (blocks if reads_x else 1) + 1  # every recorded time, in one call
        assert len(calls["position"][-1]) == len(times)


# The same evaluate as an invariant catalog form, in a form that does not declare the fact: the engine
# evaluates positions and hands them over.
def fed_positions(form):
    def evaluate(x, v):
        assert x.shape == v.shape  # positions, not None
        return form.evaluate(x, v)

    return LocalConnectionForm(form.base_dim, evaluate, "fed positions", form.curvature)


@st.composite
def invariant_cases(draw):
    """An invariant catalog form's name and a random line, circle or polyline in its base."""
    name = draw(st.sampled_from(sorted(n for n, form in FORMS.items() if form.translation_invariant)))
    d = FORMS[name].base_dim
    point = hnp.arrays(np.float64, d, elements=st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["line", "circle", "polyline"]))
    if kind == "line":
        return name, line(draw(point), draw(point))
    if kind == "circle":
        return name, circle(draw(point), draw(st.floats(0.05, 2.0)))
    return name, polyline(draw(polylines(d)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=invariant_cases(), steps=st.integers(1, 9001), method=st.sampled_from(METHODS))
@example(case=("pullback", polyline([[0.0, 0.0], [1.0, 0.5], [0.4, 1.2]])), steps=1, method="exp-midpoint")
@example(case=("natural", PATHS["circle"]), steps=9001, method="lie-euler")
def test_an_invariant_form_gives_the_bits_of_the_same_form_fed_positions(case, steps, method):
    name, path = case
    cfg = IntegratorConfig(method=method, steps=steps)
    run, fed = transport(FORMS[name], path, config=cfg), transport(fed_positions(FORMS[name]), path, config=cfg)
    assert run.final.tobytes() == fed.final.tobytes()
    assert len(run.states[0]) == len(fed.states[0])
    assert [a.tobytes() for a in run.states] == [a.tobytes() for a in fed.states]


# A chart line that starts inside the polar cap. Every exp-midpoint sample of these runs lies outside the
# cap, so only the form's evaluation at the start point, carried in the first block, refuses them.
CAP_START = line(np.array([7.6e-4, 0.3]), np.array([0.5, 0.2]))


@pytest.mark.parametrize("steps", [1, 2, 64])
@pytest.mark.parametrize("method", METHODS)
def test_a_start_inside_the_polar_cap_is_refused(method, steps):
    nodes = integration_grid(steps)
    assert (CAP_START.position(nodes[:-1] + 0.5 * np.diff(nodes))[:, 0] > 1e-3).all()
    cfg = IntegratorConfig(method=method, steps=steps)
    for run in (lambda: transport(FORMS["sphere-outer"], CAP_START, config=cfg),
                lambda: lift_transport(FORMS["sphere-outer"], CAP_START, config=cfg)):
        with pytest.raises(ValueError, match=re.escape("chart tangent at colatitude 0.00076 lies in the polar cap")):
            run()


def test_a_path_written_only_for_arrays_gives_samples():
    # t[..., None] fails on a Python float: the library must call paths with arrays only
    xi = np.array([0.3, -0.2, 0.5])
    c = PathSpec(3, lambda t: t[..., None] * xi, lambda t: np.ones_like(t)[..., None] * xi, closed=False)
    cfg = IntegratorConfig(steps=10)
    for res in (transport(NAT, c, config=cfg), transport_quat(c, config=cfg)):
        ts, xs, _ = res.states
        assert ts[0] == 0.0 and len(ts) == 11
        np.testing.assert_allclose(xs, c.position(ts), atol=1e-15)


def test_time_ordered_product_pins_the_signs_of_zero_entries():
    # one plane-rolling step about e1 gives zero entries of either sign,
    # depending on the direction of travel
    for d, negative_zeros in (([0.0, 1.0], []), ([0.0, -1.0], [1, 6])):
        g = time_ordered_product(plane_rolling_form(), line(np.zeros(2), np.array(d)), 1).ravel()
        assert np.flatnonzero((g == 0.0) & np.signbit(g)).tolist() == negative_zeros


# ---------------------------------------------------------------------------
# refusals


def test_non_finite_sample_in_a_later_block_names_its_node():
    # NaN for x > 0.75 on the line x = t: 12000 steps make blocks of 4092
    # intervals, so the first NaN sample lies in the third block
    nan_late = LocalConnectionForm(
        base_dim=3,
        evaluate=lambda x, v: np.where(x[..., :1] > 0.75, np.nan, -v),
        descriptor="nan-late",
    )
    nodes = integration_grid(12_000)
    ts = nodes[:-1] + 0.5 * np.diff(nodes)
    k = int(np.argmax(ts > 0.75))
    assert 2 * 4092 <= k < 3 * 4092
    with pytest.raises(ValueError, match=re.escape(f"non-finite algebra increment at t = {float(ts[k])!r}")):
        transport(nan_late, line(np.zeros(3), np.array([1.0, 0.0, 0.0])), config=IntegratorConfig(steps=12_000))


@pytest.mark.parametrize("translation_invariant", [False, True])
def test_a_wrong_shape_on_a_later_block_is_refused_by_the_form_name(translation_invariant):
    # 12000 steps make blocks of 4092 intervals; the third block, of 3816, is the only one given two columns
    late = LocalConnectionForm(3, lambda x, v: -v[:, :2] if len(v) == 3816 else -v, "late-shape",
                               translation_invariant=translation_invariant)
    assert 12_000 - 2 * (_BLOCK - _BLOCK % 12) == 3816  # a stride of 12 steps keeps 1,000 chunks
    with pytest.raises(ValueError, match=re.escape("form 'late-shape' maps a block of 3816 points to shape (3816, 2), "
                                                   "not (3816, 3)")):
        transport(late, line(np.zeros(3), np.ones(3)), config=IntegratorConfig(steps=12_000))


def test_the_first_failed_step_names_the_refusal():
    # velocity 1e300: every step angle overflows, from the first step on, before the samples turn NaN past t = 0.75
    nan_late = LocalConnectionForm(3, lambda x, v: np.where(x[..., :1] > 0.75e300, np.nan, -v), "nan-late")
    huge = line(np.zeros(3), np.full(3, 1e300))
    for method in METHODS:
        t = 0.0 if method == "lie-euler" else 0.05
        with pytest.raises(ValueError, match=re.escape(f"step rotation at t = {t!r}: the step angle |dt a| overflows")):
            transport(nan_late, huge, config=IntegratorConfig(method, 10))


def test_overflowing_step_angle_is_refused():
    huge = line(np.zeros(3), np.full(3, 1e300))  # finite samples, |dt a| overflows
    with pytest.raises(ValueError, match=re.escape(f"at t = {0.05!r}: the step angle |dt a| overflows")):
        transport(NAT, huge, config=IntegratorConfig(steps=10))
    with pytest.raises(ValueError, match="overflows"):
        transport_quat(huge, config=IntegratorConfig(steps=10))
    # a finite velocity whose so(3) image 2 v overflows is refused as well, with no RuntimeWarning
    with pytest.raises(ValueError, match=re.escape(f"non-finite algebra increment at t = {0.05!r}")):
        transport_quat(line(np.zeros(3), np.full(3, 1e308)), config=IntegratorConfig(steps=10))


# ---------------------------------------------------------------------------
# the paper's laws on random polylines


def polylines(dim):
    return hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.just(dim)), elements=st.floats(-2.0, 2.0))


# A composed path is built from its own vertices, never from the callables of
# its pieces: the concatenation is one polyline that runs each piece's knots at
# half speed, and the reversal the polyline through the vertices in reverse.
# Both forms below are translation invariant, so straight segments integrate
# exactly and the laws hold to roundoff under both steppers at any step count.
# Lie-euler reads each corner on its outgoing segment, so it is held to the
# same bound.


@SETTINGS
@given(P1=polylines(3), P2=polylines(3), steps=st.integers(1, 300), method=st.sampled_from(METHODS))
def test_concatenation_law_on_random_polylines(P1, P2, steps, method):
    Q = P2 - P2[0] + P1[-1]  # starts where the first piece ends
    T1, T2 = np.linspace(0.0, 1.0, len(P1)), np.linspace(0.0, 1.0, len(Q))
    both = polyline(np.vstack([P1, Q[1:]]), times=np.concatenate([0.5 * T1, 0.5 + 0.5 * T2[1:]]))
    cfg = IntegratorConfig(method=method, steps=steps)
    g1 = transport(NAT, polyline(P1), config=cfg).final
    g2 = transport(NAT, polyline(Q), config=cfg).final
    g12 = transport(NAT, both, config=cfg).final
    np.testing.assert_allclose(g12, g2 @ g1, rtol=0.0, atol=1e-12)


@SETTINGS
@given(P=polylines(2), steps=st.integers(1, 300), method=st.sampled_from(METHODS))
@example(P=np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 2.0]]), steps=3, method="lie-euler")
def test_reversal_inverts_transport_on_random_polylines(P, steps, method):
    cfg = IntegratorConfig(method=method, steps=steps)
    g = transport(plane_rolling_form(), polyline(P), config=cfg).final
    g_rev = transport(plane_rolling_form(), polyline(P[::-1]), config=cfg).final
    np.testing.assert_allclose(g_rev @ g, np.eye(3), rtol=0.0, atol=1e-12)


# A circle is reversed by flipping its second plane vector. Exp-midpoint is
# time symmetric: on the mirrored grid each reversed step is the inverse of its
# mirror image, so the reversal law holds to roundoff. Lie-euler is not checked
# here: its error on a circle is its first-order truncation error (about 1.9 at
# 3 steps), not a corner defect.

PLANE = (np.array([1.0, 0.3, -0.2]), np.array([0.1, 1.0, 0.5]))  # spans the random circles' plane


@SETTINGS
@given(
    center=hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
    radius=st.floats(0.05, 2.0),
    steps=st.integers(1, 512),
)
def test_reversal_inverts_transport_on_random_circles(center, radius, steps):
    b1, b2 = PLANE
    cfg = IntegratorConfig(steps=steps)
    g = transport(NAT, circle(center, radius, plane=(b1, b2)), config=cfg).final
    g_rev = transport(NAT, circle(center, radius, plane=(b1, -b2)), config=cfg).final
    np.testing.assert_allclose(g_rev @ g, np.eye(3), rtol=0.0, atol=1e-12)


# Naturality under the double cover: the quaternion transport steps by
# exp(dt v) with the full velocity, which is the half-angle step of the
# natural SO(3) form along the doubled path 2c; it is that run's lift, bit for bit.
# 2c is built directly, through the doubled vertices or the doubled center and radius.


@SETTINGS
@given(
    curves=st.one_of(
        polylines(3).map(lambda P: (polyline(P), polyline(2.0 * P))),
        st.tuples(hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)), st.floats(0.05, 2.0)).map(
            lambda cr: (circle(cr[0], cr[1], plane=PLANE), circle(2.0 * cr[0], 2.0 * cr[1], plane=PLANE))
        ),
    ),
    steps=st.integers(1, 300),
    method=st.sampled_from(METHODS),
)
def test_double_cover_naturality_on_random_paths(curves, steps, method):
    curve, doubled = curves
    cfg = IntegratorConfig(method=method, steps=steps)
    q = transport_quat(curve, config=cfg).final
    g = transport(NAT, doubled, config=cfg).final
    np.testing.assert_allclose(quat_to_rotation(q), g, rtol=0.0, atol=1e-12)
    assert q.tobytes() == lift_transport(NAT, doubled, None, cfg).tobytes()
