"""Tests for parallel transport, holonomy, curvature estimators, and paths.

The integration fact used throughout: on a straight segment the algebra
increment is constant, so both steppers reproduce the segment's exponential
exactly and polyline transports equal finite products of exponentials. Any
derived tolerance below was first measured against such an independent
product (or a much finer run) before being frozen.
"""

import numpy as np
import pytest

from liecurv import (
    IntegratorConfig,
    PathSpec,
    circle,
    commutator_by_flows,
    concat_paths,
    convergence_order,
    cross,
    exp_so3,
    great_arc,
    holonomy,
    integration_grid,
    line,
    natural_form,
    parallelogram_loop,
    path_from_position,
    plane_rolling_form,
    polyline,
    quat_exp,
    quat_to_rotation,
    reverse_path,
    scale_path,
    small_loop_curvature,
    time_ordered_product,
    transport,
    transport_quat,
)

NAT = natural_form()
E1, E2, E3 = np.eye(3)


def tilted_circle():
    """Smooth closed curve whose algebra increments do not commute."""
    return circle(
        np.array([0.3, -0.2, 0.5]),
        0.8,
        plane=(np.array([1.0, 0.2, 0.3]), np.array([-0.1, 1.0, 0.4])),
    )


# ---------------------------------------------------------------------------
# transport basics


def test_line_transport_is_the_exponential():
    rng = np.random.RandomState(50)
    for norm in (0.1, 1.0, 3.0):
        xi = rng.standard_normal(3)
        xi = norm * xi / np.linalg.norm(xi)
        res = transport(NAT, line(np.zeros(3), xi), config=IntegratorConfig(steps=10_000))
        np.testing.assert_allclose(res.final, exp_so3(xi), atol=1e-8)


def test_line_transport_exact_at_any_step_count():
    # constant increments make the stepper exact; 4 steps suffice
    xi = np.array([0.3, -1.2, 0.7])
    for method in ("lie-euler", "exp-midpoint"):
        res = transport(NAT, line(np.zeros(3), xi), config=IntegratorConfig(method=method, steps=4))
        np.testing.assert_allclose(res.final, exp_so3(xi), atol=1e-13)


def test_transport_is_translation_invariant():
    xi = np.array([0.5, 0.2, -0.9])
    ref = transport(NAT, line(np.zeros(3), xi), config=IntegratorConfig(steps=1000)).final
    rng = np.random.RandomState(51)
    for _ in range(3):
        eta = 2.0 * rng.standard_normal(3)
        got = transport(NAT, line(eta, xi), config=IntegratorConfig(steps=1000)).final
        np.testing.assert_allclose(got, ref, atol=1e-10)


def test_transport_right_invariance_in_g0():
    c = tilted_circle()
    cfg = IntegratorConfig(steps=512)
    g0 = exp_so3(np.array([0.7, -0.3, 1.1]))
    lhs = transport(NAT, c, g0, cfg).final
    rhs = transport(NAT, c, None, cfg).final @ g0
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_constant_path_transport_is_identity_on_g0():
    c = line(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert c.closed
    g0 = exp_so3(np.array([0.1, 0.5, -0.2]))
    res = transport(NAT, c, g0, IntegratorConfig(steps=16))
    np.testing.assert_allclose(res.final, g0, atol=0.0)


def test_transport_validates_inputs():
    with pytest.raises(ValueError, match="dimension mismatch"):
        transport(plane_rolling_form(), line(np.zeros(3), E1))
    with pytest.raises(ValueError, match="not orthonormal"):
        transport(NAT, line(np.zeros(3), E1), g0=2.0 * np.eye(3))


def test_transport_rejects_non_finite_increments():
    from liecurv import LocalConnectionForm

    nan_form = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: v * np.nan, descriptor="nan")
    with pytest.raises(ValueError, match="non-finite"):
        transport(nan_form, line(np.zeros(3), E1), config=IntegratorConfig(steps=4))


def test_transport_samples_structure():
    res = transport(NAT, tilted_circle(), config=IntegratorConfig(steps=10_000))
    ts = [t for t, _, _ in res.samples]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert ts == sorted(ts)
    assert len(res.samples) <= 1026  # recording cap plus endpoints
    np.testing.assert_allclose(res.samples[-1][2], res.final, atol=0.0)
    for _, x, g in res.samples[:: len(res.samples) // 7]:
        np.testing.assert_allclose(g.T @ g, np.eye(3), atol=1e-8)


def test_transport_record_algebra():
    res = transport(NAT, line(np.zeros(3), E1), config=IntegratorConfig(steps=8), record_algebra=True)
    assert res.algebra_log is not None and len(res.algebra_log) == 8
    for a in res.algebra_log:
        np.testing.assert_allclose(a, E1, atol=0.0)  # a = -omega(xi) = xi
    assert transport(NAT, line(np.zeros(3), E1)).algebra_log is None


def test_transport_orthonormality_over_a_million_steps():
    """Composed exponentials stay on the group without renormalization."""
    res = transport(NAT, tilted_circle(), config=IntegratorConfig(steps=1_000_000))
    g = res.final
    assert np.linalg.norm(g.T @ g - np.eye(3)) <= 1e-10


def test_transport_renormalization_matches_plain_run():
    c = tilted_circle()
    plain = transport(NAT, c, config=IntegratorConfig(steps=4096)).final
    renorm = transport(NAT, c, config=IntegratorConfig(steps=4096, renormalize_every=128)).final
    np.testing.assert_allclose(renorm, plain, atol=1e-9)


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        IntegratorConfig(method="rk4")
    with pytest.raises(ValueError, match="at least 1"):
        IntegratorConfig(steps=0)
    with pytest.raises(ValueError, match="exceeds the limit"):
        IntegratorConfig(steps=10**12)  # refused before any grid is built
    with pytest.raises(ValueError, match="nonnegative"):
        IntegratorConfig(renormalize_every=-1)


def test_integration_grid_merges_corners():
    nodes = integration_grid(4, corners=(0.1, 0.25, 0.9999999999999))
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 1e-12)
    for c in (0.1, 0.25):
        assert np.min(np.abs(nodes - c)) == 0.0


# ---------------------------------------------------------------------------
# quaternion transport


def test_transport_quat_line_is_quat_exp():
    xi = np.array([0.4, -1.1, 0.8])
    res = transport_quat(line(np.zeros(3), xi), config=IntegratorConfig(steps=100))
    np.testing.assert_allclose(res.final, quat_exp(xi), atol=1e-12)


def test_transport_quat_projects_onto_group_transport():
    # the cover doubles increments, so the matching base path is 2c
    c = polyline(np.array([[0, 0, 0], [1, 0.5, -0.3], [0.4, 1.2, 0.9], [0, 0, 0]], float), closed=True)
    cfg = IntegratorConfig(steps=10_000)
    q = transport_quat(c, config=cfg).final
    R = transport(NAT, scale_path(c, 2.0), config=cfg).final
    np.testing.assert_allclose(quat_to_rotation(q), R, atol=1e-8)


def test_transport_quat_validation():
    with pytest.raises(ValueError, match="path in R\\^3"):
        transport_quat(polyline(np.array([[0.0, 0.0], [1.0, 0.0]])))
    with pytest.raises(ValueError, match="not unit"):
        transport_quat(line(np.zeros(3), E1), q0=np.array([2.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# holonomy and curvature estimation


def test_holonomy_requires_closed_path():
    with pytest.raises(ValueError, match="closed"):
        holonomy(NAT, line(np.zeros(3), E1))


def test_holonomy_of_parallelogram_is_exact_product():
    """Corner snapping makes the numeric run equal the four-factor product."""
    for eps in (0.3, 0.01):
        loop = parallelogram_loop(np.zeros(3), E1, E2, eps)
        hol = holonomy(NAT, loop, IntegratorConfig(steps=128))
        exact = (
            exp_so3(-eps * E2) @ exp_so3(-eps * E1) @ exp_so3(eps * E2) @ exp_so3(eps * E1)
        )
        np.testing.assert_allclose(hol, exact, atol=1e-12)


def test_holonomy_parallelogram_leading_term():
    # hol = exp(-eps^2 u x v) + O(eps^3); measured third-order constant ~1.0
    for eps in (0.1, 0.01):
        loop = parallelogram_loop(np.zeros(3), E1, E2, eps)
        hol = holonomy(NAT, loop, IntegratorConfig(steps=128))
        assert np.linalg.norm(hol - exp_so3(-eps * eps * E3)) <= 1.5 * eps**3


def test_small_loop_curvature_recovers_cross_product():
    u = np.array([0.8, 0.1, -0.4])
    v = np.array([-0.2, 0.9, 0.3])
    est = small_loop_curvature(
        NAT, np.zeros(3), u, v, 1e-2, IntegratorConfig(steps=256), richardson=True
    )
    ref = cross(u, v)
    assert np.linalg.norm(est - ref) / np.linalg.norm(ref) <= 1e-4


def test_small_loop_curvature_orders():
    """Plain estimates converge at first order, Richardson at second."""
    x0 = np.array([0.2, -0.4, 0.9])
    u = np.array([0.8, 0.1, -0.4])
    v = np.array([-0.2, 0.9, 0.3])
    want = cross(u, v)
    cfg = IntegratorConfig(steps=256)

    def err(eps, rich):
        est = small_loop_curvature(NAT, x0, u, v, eps, cfg, richardson=rich)
        return float(np.linalg.norm(est - want))

    plain = np.log2(err(0.02, False) / err(0.01, False))
    extrapolated = np.log2(err(0.02, True) / err(0.01, True))
    assert abs(plain - 1.0) <= 0.3
    assert abs(extrapolated - 2.0) <= 0.3


def test_small_loop_curvature_antisymmetry():
    u = np.array([0.8, 0.1, -0.4])
    v = np.array([-0.2, 0.9, 0.3])
    cfg = IntegratorConfig(steps=256)
    a = small_loop_curvature(NAT, np.zeros(3), u, v, 1e-2, cfg, richardson=True)
    b = small_loop_curvature(NAT, np.zeros(3), v, u, 1e-2, cfg, richardson=True)
    np.testing.assert_allclose(a, -b, atol=1e-4)


def test_small_loop_curvature_validation():
    with pytest.raises(ValueError, match="positive"):
        small_loop_curvature(NAT, np.zeros(3), E1, E2, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        parallelogram_loop(np.zeros(3), np.zeros(3), E2, 0.1)


def test_commutator_by_flows_basis_vectors():
    got = commutator_by_flows(E1, E2, 1e-3)
    assert np.linalg.norm(got - E3) <= 1e-5


def test_commutator_by_flows_equal_arguments():
    # the bracket vanishes; the numeric circuit leaves only roundoff
    xi = np.array([0.3, -1.0, 0.7])
    assert np.linalg.norm(commutator_by_flows(xi, xi, 1e-3)) <= 1e-12


def test_commutator_by_flows_random_pairs():
    rng = np.random.RandomState(52)
    for _ in range(10):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        got = commutator_by_flows(a, b, 1e-3)
        assert np.linalg.norm(got - cross(a, b)) <= 1e-5


def test_commutator_by_flows_validation():
    with pytest.raises(ValueError, match="positive"):
        commutator_by_flows(E1, E2, 0.0)


# ---------------------------------------------------------------------------
# time-ordered products and convergence orders


def test_time_ordered_product_single_factor():
    xi = np.array([0.2, 0.9, -0.5])
    np.testing.assert_allclose(time_ordered_product(NAT, line(np.zeros(3), xi), 1), exp_so3(xi), atol=1e-14)


def test_time_ordered_product_equals_lie_euler_on_smooth_paths():
    c = tilted_circle()
    top = time_ordered_product(NAT, c, 200)
    eul = transport(NAT, c, config=IntegratorConfig(method="lie-euler", steps=200)).final
    np.testing.assert_allclose(top, eul, atol=1e-13)


def test_time_ordered_product_first_order():
    c = tilted_circle()
    ref = time_ordered_product(NAT, c, 16 * 512)
    e1 = np.linalg.norm(time_ordered_product(NAT, c, 512) - ref)
    e2 = np.linalg.norm(time_ordered_product(NAT, c, 1024) - ref)
    assert abs(np.log2(e1 / e2) - 1.0) <= 0.2


def test_time_ordered_product_validation():
    with pytest.raises(ValueError, match="at least 1"):
        time_ordered_product(NAT, line(np.zeros(3), E1), 0)
    with pytest.raises(ValueError, match="exceeds the limit"):
        time_ordered_product(NAT, line(np.zeros(3), E1), 10**12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        time_ordered_product(plane_rolling_form(), line(np.zeros(3), E1), 4)


def test_convergence_orders_on_smooth_curve():
    c = tilted_circle()
    o_euler = convergence_order(NAT, c, method="lie-euler", n0=64)
    o_mid = convergence_order(NAT, c, method="exp-midpoint", n0=64)
    assert abs(o_euler - 1.0) <= 0.2
    assert abs(o_mid - 2.0) <= 0.2


def test_convergence_order_raises_on_exactly_integrated_paths():
    # lines are integrated exactly at any step count ...
    xi = np.array([0.3, -1.2, 0.7])
    got = transport(NAT, line(np.zeros(3), xi), config=IntegratorConfig(steps=4)).final
    np.testing.assert_allclose(got, exp_so3(xi), atol=1e-13)
    # ... so the error ratio carries no order information
    with pytest.raises(ValueError, match="not converged"):
        convergence_order(NAT, line(np.zeros(3), xi))


def test_reparametrization_invariance():
    """Transport depends on the path, not its parametrization."""
    c = tilted_circle()

    def sig(t):
        return t - 0.1 * np.sin(2 * np.pi * t) / (2 * np.pi)

    warped = PathSpec(
        base_dim=3,
        position=lambda t: c.position(sig(t)),
        velocity=lambda t: (1.0 - 0.1 * np.cos(2 * np.pi * t)) * np.asarray(c.velocity(sig(t))),
        closed=True,
        kind="circle-warped",
    )
    cfg = IntegratorConfig(steps=16_384)
    d = np.linalg.norm(transport(NAT, c, config=cfg).final - transport(NAT, warped, config=cfg).final)
    assert d <= 1e-8


# ---------------------------------------------------------------------------
# path catalog


def test_line_path():
    c = line(np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]))
    np.testing.assert_allclose(c.position(0.5), [1.0, 1.0, 0.0])
    np.testing.assert_allclose(c.velocity(0.3), [0.0, 2.0, 0.0])
    assert not c.closed
    assert line(np.zeros(3), np.zeros(3)).closed
    with pytest.raises(ValueError, match="equal dimension"):
        line(np.zeros(3), np.zeros(2))


def test_circle_path():
    c = circle(np.array([1.0, 2.0]), 0.5)
    np.testing.assert_allclose(c.position(0.0), [1.5, 2.0], atol=1e-15)
    np.testing.assert_allclose(c.position(0.25), [1.0, 2.5], atol=1e-15)
    np.testing.assert_allclose(c.position(1.0), c.position(0.0), atol=1e-15)
    assert c.closed
    # non-orthogonal spanning vectors are orthonormalized: speed is constant
    tilted = circle(np.zeros(3), 2.0, plane=(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])))
    for t in (0.0, 0.3, 0.77):
        np.testing.assert_allclose(np.linalg.norm(tilted.velocity(t)), 4.0 * np.pi, atol=1e-12)


def test_circle_validation():
    with pytest.raises(ValueError, match="positive"):
        circle(np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="parallel"):
        circle(np.zeros(3), 1.0, plane=(E1, 2.0 * E1))
    with pytest.raises(ValueError, match="vanishes"):
        circle(np.zeros(3), 1.0, plane=(np.zeros(3), E2))
    with pytest.raises(ValueError, match="at least 2"):
        circle(np.zeros(1), 1.0)


def test_polyline_path():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    c = polyline(pts)
    assert c.base_dim == 2 and not c.closed
    assert c.corners == (0.5,)
    np.testing.assert_allclose(c.position(0.25), [0.5, 0.0])
    np.testing.assert_allclose(c.position(0.75), [1.0, 0.5])
    np.testing.assert_allclose(c.velocity(0.2), [2.0, 0.0])
    np.testing.assert_allclose(c.velocity(0.8), [0.0, 2.0])


def test_polyline_custom_times():
    pts = np.array([[0.0], [2.0], [3.0]])
    c = polyline(pts, times=[0.0, 0.8, 1.0])
    np.testing.assert_allclose(c.position(0.4), [1.0])
    np.testing.assert_allclose(c.velocity(0.9), [5.0])
    assert c.corners == (0.8,)


def test_polyline_validation():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="at least two"):
        polyline(pts[:1])
    with pytest.raises(ValueError, match="match the number"):
        polyline(pts, times=[0.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        polyline(pts, times=[0.0, 0.7, 0.7])
    with pytest.raises(ValueError, match="cover"):
        polyline(pts, times=[0.0, 0.5, 0.9])
    with pytest.raises(ValueError, match="declared closed"):
        polyline(pts, closed=True)
    closed = polyline(np.vstack([pts, pts[0]]))
    assert closed.closed


def test_parallelogram_loop_structure():
    loop = parallelogram_loop(np.zeros(3), E1, E2, 0.5)
    assert loop.kind == "parallelogram" and loop.closed
    assert loop.corners == (0.25, 0.5, 0.75)
    np.testing.assert_allclose(loop.position(0.25), [0.5, 0.0, 0.0])
    np.testing.assert_allclose(loop.position(0.5), [0.5, 0.5, 0.0])
    np.testing.assert_allclose(loop.position(0.75), [0.0, 0.5, 0.0])
    np.testing.assert_allclose(loop.position(1.0), np.zeros(3), atol=1e-15)


def test_great_arc_geometry():
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    path, surface = great_arc(p, q)
    np.testing.assert_allclose(surface.chart(path.position(0.0)), p, atol=1e-12)
    np.testing.assert_allclose(surface.chart(path.position(1.0)), q, atol=1e-12)
    # quarter turn: the chart longitude advances by pi/2
    np.testing.assert_allclose(path.velocity(0.3), [0.0, np.pi / 2], atol=1e-12)
    # intermediate points stay on the sphere
    for t in (0.2, 0.6, 0.9):
        np.testing.assert_allclose(np.linalg.norm(surface.chart(path.position(t))), 1.0, atol=1e-12)


def test_great_arc_radius_two():
    p = 2.0 * np.array([0.6, 0.8, 0.0])
    q = 2.0 * np.array([0.0, 0.6, 0.8])
    path, surface = great_arc(p, q)
    np.testing.assert_allclose(surface.chart(path.position(0.0)), p, atol=1e-12)
    np.testing.assert_allclose(surface.chart(path.position(1.0)), q, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(surface.chart(path.position(0.5))), 2.0, atol=1e-12)


def test_great_arc_antipodal_half_circle():
    p = np.array([0.0, 0.0, 1.0])
    path, surface = great_arc(p, -p)
    np.testing.assert_allclose(surface.chart(path.position(1.0)), -p, atol=1e-12)
    np.testing.assert_allclose(path.velocity(0.0)[1], np.pi, atol=1e-12)


def test_great_arc_validation():
    p = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="distinct"):
        great_arc(p, p)
    with pytest.raises(ValueError, match="does not lie on"):
        great_arc(p, np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="positive"):
        great_arc(np.zeros(3), p)


def test_path_from_position_finite_difference_velocity():
    c = path_from_position(lambda t: np.array([np.sin(t), np.cos(t), t]), base_dim=3)
    np.testing.assert_allclose(c.velocity(0.4), [np.cos(0.4), -np.sin(0.4), 1.0], atol=1e-6)
    assert not c.closed
    with pytest.raises(ValueError, match="declared closed"):
        path_from_position(lambda t: np.array([t, 0.0]), base_dim=2, closed=True)


def test_reverse_path_inverts_transport():
    c = polyline(np.array([[0, 0, 0], [0.5, 0.2, -0.1], [1.0, -0.3, 0.4]], float))
    r = reverse_path(c)
    np.testing.assert_allclose(r.position(0.0), c.position(1.0))
    np.testing.assert_allclose(r.position(1.0), c.position(0.0))
    assert r.corners == (0.5,)
    cfg = IntegratorConfig(steps=512)
    g = transport(NAT, c, config=cfg).final
    g_rev = transport(NAT, r, config=cfg).final
    np.testing.assert_allclose(g_rev, g.T, atol=1e-9)


def test_concat_paths_composes_transport():
    c1 = polyline(np.array([[0, 0, 0], [0.5, 0.2, -0.1], [1.0, -0.3, 0.4]], float))
    c2 = polyline(np.array([[1.0, -0.3, 0.4], [1.2, 0.5, 0.0], [0.3, 0.3, 0.3]], float))
    both = concat_paths(c1, c2)
    np.testing.assert_allclose(both.position(0.25), c1.position(0.5))
    np.testing.assert_allclose(both.position(0.75), c2.position(0.5))
    assert 0.5 in both.corners
    cfg = IntegratorConfig(steps=1024)
    g12 = transport(NAT, both, config=cfg).final
    g1 = transport(NAT, c1, config=cfg).final
    g2 = transport(NAT, c2, config=cfg).final
    # later path's factor multiplies on the left
    np.testing.assert_allclose(g12, g2 @ g1, atol=1e-9)


def test_concat_paths_validation():
    c1 = line(np.zeros(3), E1)
    with pytest.raises(ValueError, match="do not meet"):
        concat_paths(c1, line(np.array([5.0, 0.0, 0.0]), E1))
    with pytest.raises(ValueError, match="different base dimension"):
        concat_paths(c1, polyline(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_scale_path():
    c = polyline(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 0.0, 1.0]]))
    s = scale_path(c, 2.0)
    np.testing.assert_allclose(s.position(0.5), 2.0 * c.position(0.5))
    np.testing.assert_allclose(s.velocity(0.2), 2.0 * np.asarray(c.velocity(0.2)))
    assert s.corners == c.corners
