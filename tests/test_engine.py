"""Property tests for the batched stepping engine and the array-valued catalog.

The engine evaluates a whole block of grid nodes per call and composes the
step quaternions by pairwise reduction and a prefix scan. These tests hold
it to the loop it replaced (one ``exp_so3(dt a) @ g`` per interval, written
out below as the reference), to per-point evaluation of the same paths and
forms, and to the paper's concatenation and reversal laws.
"""

import dataclasses

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
    concat_paths,
    exp_so3,
    great_arc,
    integration_grid,
    line,
    natural_form,
    plane_rolling_form,
    polyline,
    pullback_form,
    quat_exp,
    quat_mul,
    quat_to_rotation,
    reverse_path,
    scale_path,
    sphere_surface,
    surface_rolling_form,
    transport,
    transport_quat,
)

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
NAT = natural_form()
METHODS = ("lie-euler", "exp-midpoint")


def tilted_circle():
    return circle(np.array([0.3, -0.2, 0.5]), 0.8, plane=(np.array([1.0, 0.2, 0.3]), np.array([-0.1, 1.0, 0.4])))


def cornered_polyline():
    """Irregular vertex times, so corners fall between uniform grid nodes."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.3], [0.4, 1.2, 0.9], [-0.2, 0.3, 0.1], [0.0, 0.0, 0.0]])
    return polyline(pts, times=[0.0, 0.1234567, 0.4, 0.77777, 1.0])


def rotated_frame():
    R = exp_so3(np.array([0.4, -1.1, 0.7]))
    return tuple(R[:, i] for i in range(3))


PATHS = {
    "line": line(np.array([0.3, -1.0, 2.0]), np.array([1.5, 0.2, -0.7])),
    "circle": tilted_circle(),
    "polyline": cornered_polyline(),
    "great_arc": great_arc(np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]))[0],
    "scale_path": scale_path(cornered_polyline(), -1.7),
    "reverse_path": reverse_path(tilted_circle()),
}

FORMS = {
    "natural": natural_form(),
    "plane": plane_rolling_form(),
    "pullback": pullback_form(PLANE_ROLLING_PULLBACK, natural_form()),
    "sphere-outer": surface_rolling_form(sphere_surface(2.0, side="outer", frame=rotated_frame())),
    "sphere-inner": surface_rolling_form(sphere_surface(0.5, side="inner")),
}

TIMES = hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 1.0))


def sequential_transport(form, path, steps, method):
    """The loop the engine replaced: one exp_so3 per interval, and its sample-recording rule."""
    nodes = integration_grid(steps, path.corners)
    n = len(nodes) - 1
    stride = max(1, -(-n // 1024))
    g = np.eye(3)
    recorded = [0.0]
    for k in range(n):
        dt = nodes[k + 1] - nodes[k]
        t = nodes[k] + 0.5 * dt if method == "exp-midpoint" else nodes[k]
        g = exp_so3(-dt * form(path.position(t), path.velocity(t))) @ g
        if (k + 1) % stride == 0 or k + 1 == n:
            recorded.append(float(nodes[k + 1]))
    return g, recorded


# ---------------------------------------------------------------------------
# array-valued catalog


@pytest.mark.parametrize("name", sorted(PATHS))
@SETTINGS
@given(ts=TIMES)
def test_batched_path_evaluation_matches_scalar(name, ts):
    path = PATHS[name]
    assert path.vectorized
    for fn in (path.position, path.velocity):
        batch = fn(ts)
        assert batch.shape == (len(ts), path.base_dim)
        for t, row in zip(ts, batch):
            np.testing.assert_allclose(row, fn(float(t)), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", sorted(FORMS))
@SETTINGS
@given(data=st.data())
def test_batched_form_evaluation_matches_pointwise(name, data):
    form = FORMS[name]
    assert form.vectorized
    n = data.draw(st.integers(1, 30))
    d = form.base_dim
    X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0)))
    V = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0)))
    if form.surface is not None:
        X[:, 0] = 0.1 + (np.pi - 0.2) * np.abs(X[:, 0]) / 3.0  # colatitudes clear of the caps
    batch = form.evaluate(X, V)
    assert batch.shape == (n, 3)
    for x, v, row in zip(X, V, batch):
        np.testing.assert_allclose(row, form(x, v), rtol=1e-13, atol=1e-13)


@SETTINGS
@given(data=st.data())
def test_stacked_quaternion_kernels_match_rowwise(data):
    n = data.draw(st.integers(1, 20))
    U = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-4.0, 4.0)))
    U[0] *= 1e-8  # one row on the small-angle branch
    Q = quat_exp(U)
    P = quat_exp(U[::-1])
    for u, p, q, qp, R in zip(U, P, Q, quat_mul(P, Q), quat_to_rotation(Q)):
        np.testing.assert_allclose(q, quat_exp(u), rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(qp, quat_mul(p, q), rtol=1e-15, atol=1e-15)
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
# per-node fallback for user callables


def as_user_callables(form, path):
    """The same maps, declared scalar-only: the engine must evaluate them node by node."""
    return dataclasses.replace(form, vectorized=False), dataclasses.replace(path, vectorized=False)


CASES = {
    "natural circle": (NAT, tilted_circle()),
    "plane polyline": (plane_rolling_form(), polyline(np.array([[0.0, 0.0], [1.0, 0.4], [0.2, 1.3], [-0.5, 0.1]]))),
    "pullback circle": (FORMS["pullback"], circle(np.array([0.2, -0.4]), 0.7)),
    "sphere-outer latitude": (FORMS["sphere-outer"], line(np.array([1.1, -0.5]), np.array([0.3, 4.0]))),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(steps=st.integers(1, 600), method=st.sampled_from(METHODS))
def test_per_node_fallback_matches_vectorized_run(case, steps, method):
    form, path = CASES[case]
    cfg = IntegratorConfig(method=method, steps=steps)
    fast = transport(form, path, config=cfg)
    slow_form, slow_path = as_user_callables(form, path)
    for f, p in ((slow_form, path), (form, slow_path), (slow_form, slow_path)):
        slow = transport(f, p, config=cfg)
        np.testing.assert_allclose(slow.final, fast.final, rtol=0.0, atol=1e-13)
        assert [t for t, _, _ in slow.samples] == [t for t, _, _ in fast.samples]


def test_user_lambdas_run_through_the_engine():
    c = tilted_circle()
    user_path = PathSpec(base_dim=3, position=lambda t: c.position(t), velocity=lambda t: c.velocity(t), closed=True)
    user_form = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: -np.asarray(v), descriptor="user")
    cfg = IntegratorConfig(steps=777)
    want = transport(NAT, c, config=cfg).final
    np.testing.assert_allclose(transport(user_form, user_path, config=cfg).final, want, rtol=0.0, atol=1e-13)


def test_form_with_wrong_output_shape_is_refused():
    bad = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: v[..., :2], descriptor="bad", vectorized=True)
    with pytest.raises(ValueError, match="shape"):
        transport(bad, line(np.zeros(3), np.ones(3)), config=IntegratorConfig(steps=8))


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
def test_engine_matches_sequential_reference(steps, method, path_name):
    path = PATHS[path_name]
    cfg = IntegratorConfig(method=method, steps=steps)
    want, want_ts = sequential_transport(NAT, path, steps, method)
    res = transport(NAT, path, config=cfg)
    np.testing.assert_allclose(res.final, want, rtol=0.0, atol=1e-12)
    assert [t for t, _, _ in res.samples] == want_ts
    for t, x, _ in res.samples[:: max(1, len(res.samples) // 5)]:
        np.testing.assert_allclose(x, path.position(t), rtol=0.0, atol=1e-14)

    # quaternion transport composes the same way: compare with q <- quat_exp(dt v) q
    nodes = integration_grid(steps, path.corners)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for k in range(len(nodes) - 1):
        dt = nodes[k + 1] - nodes[k]
        t = nodes[k] + 0.5 * dt if method == "exp-midpoint" else nodes[k]
        q = quat_mul(quat_exp(dt * path.velocity(t)), q)
    got = transport_quat(path, config=cfg)
    np.testing.assert_allclose(got.final, q, rtol=0.0, atol=1e-12)
    assert [t for t, _, _ in got.samples] == want_ts


# ---------------------------------------------------------------------------
# the paper's laws on random polylines


def polylines(dim):
    return hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.just(dim)), elements=st.floats(-2.0, 2.0))


# Both laws are checked with the default exp-midpoint stepper, which samples
# inside each interval. Lie-euler samples at the left node, which is a corner
# for these paths, and reversed or concatenated parameters can land on the
# wrong side of it.


@SETTINGS
@given(P1=polylines(3), P2=polylines(3), steps=st.integers(1, 300))
def test_concatenation_law_on_random_polylines(P1, P2, steps):
    c1 = polyline(P1)
    c2 = polyline(P2 - P2[0] + P1[-1])  # starts where c1 ends
    cfg = IntegratorConfig(steps=steps)
    g1 = transport(NAT, c1, config=cfg).final
    g2 = transport(NAT, c2, config=cfg).final
    g12 = transport(NAT, concat_paths(c1, c2), config=cfg).final
    np.testing.assert_allclose(g12, g2 @ g1, rtol=0.0, atol=1e-12)


@SETTINGS
@given(P=polylines(2), steps=st.integers(1, 300))
def test_reverse_path_inverts_transport_on_random_polylines(P, steps):
    c = polyline(P)
    cfg = IntegratorConfig(steps=steps)
    g = transport(plane_rolling_form(), c, config=cfg).final
    g_rev = transport(plane_rolling_form(), reverse_path(c), config=cfg).final
    np.testing.assert_allclose(g_rev @ g, np.eye(3), rtol=0.0, atol=1e-12)
