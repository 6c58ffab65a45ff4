"""Tests for parallel transport, holonomy, curvature estimators, and paths.

The integration fact used throughout: on a straight segment the algebra
increment is constant, so both steppers reproduce the segment's exponential
exactly and polyline transports equal finite products of exponentials. Any
derived tolerance below was first measured against such an independent
product (or a much finer run) before being frozen.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecurv import (
    PLANE_ROLLING_PULLBACK,
    IntegratorConfig,
    PathSpec,
    circle,
    commutator_by_flows,
    convergence_order,
    cross,
    curvature_closed_form,
    exp_so3,
    great_arc,
    holonomy,
    integration_grid,
    lift_transport,
    line,
    natural_form,
    parallelogram_loop,
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
from references import CF, rotated_frame, tilted_circle

NAT = natural_form()
E1, E2, E3 = np.eye(3)


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
    with warnings.catch_warnings():  # a g0 whose R^T R overflows is refused, with no RuntimeWarning
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("matrix is not orthonormal (|R^T R - I| = inf)")):
            transport(NAT, line(np.zeros(3), E1), g0=np.full((3, 3), 1e200))


def test_transport_rejects_non_finite_increments():
    from liecurv import LocalConnectionForm

    nan_form = LocalConnectionForm(base_dim=3, evaluate=lambda x, v: v * np.nan, descriptor="nan")
    with pytest.raises(ValueError, match="non-finite"):
        transport(nan_form, line(np.zeros(3), E1), config=IntegratorConfig(steps=4))


def test_transport_samples_structure():
    res = transport(NAT, tilted_circle(), config=IntegratorConfig(steps=10_000))
    times, _, states = res.states
    ts = times.tolist()
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert ts == sorted(ts)
    assert len(ts) <= 1026  # recording cap plus endpoints
    np.testing.assert_allclose(states[-1], res.final, atol=0.0)
    for g in states[:: len(states) // 7]:
        np.testing.assert_allclose(g.T @ g, np.eye(3), atol=1e-8)


def test_transport_orthonormality_over_a_million_steps():
    """Composed exponentials stay on the group without renormalization."""
    res = transport(NAT, tilted_circle(), config=IntegratorConfig(steps=1_000_000))
    g = res.final
    assert np.linalg.norm(g.T @ g - np.eye(3)) <= 1e-10


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        IntegratorConfig(method="rk4")
    with pytest.raises(ValueError, match="at least 1"):
        IntegratorConfig(steps=0)
    with pytest.raises(ValueError, match="exceeds the limit"):
        IntegratorConfig(steps=10**12)  # refused before any grid is built


@pytest.mark.parametrize("steps", [64.0, 64.5, "64", True])
def test_integrator_config_refuses_a_step_count_that_is_not_an_integer(steps):
    # a float used to pass and fail later in the grid; True used to run one step
    with pytest.raises(ValueError, match=re.escape(f"steps must be an integer, got {steps!r}")):
        IntegratorConfig(steps=steps)


def test_a_config_without_steps_is_the_default():
    # steps=None leaves the count to the computation, and it is what IntegratorConfig() holds
    assert IntegratorConfig() == IntegratorConfig("exp-midpoint", None)
    assert IntegratorConfig("lie-euler").steps is None


def test_lift_transport_runs_512_steps_for_a_method_only_config():
    rows = []
    counted = dataclasses.replace(NAT, evaluate=lambda x, v: rows.append(len(v)) or NAT.evaluate(x, v))
    got = lift_transport(counted, tilted_circle(), config=IntegratorConfig("lie-euler"))
    assert rows == [4 + 512]  # one block: the m = 4 start rows, then 512 left nodes
    assert got.tobytes() == lift_transport(NAT, tilted_circle(), config=IntegratorConfig("lie-euler", 512)).tobytes()
    assert got.tobytes() != lift_transport(NAT, tilted_circle(), config=IntegratorConfig(steps=512)).tobytes()


@pytest.mark.parametrize("steps", [64, np.int64(64)])
def test_integrator_config_accepts_any_integer_type(steps):
    res = transport(NAT, tilted_circle(), config=IntegratorConfig(steps=steps))
    assert res.final.tobytes() == transport(NAT, tilted_circle(), config=IntegratorConfig(steps=64)).final.tobytes()


@pytest.mark.parametrize("read_first", ["final", "states"])
def test_results_do_not_see_later_changes_to_the_start_frame(read_first):
    cfg = IntegratorConfig(steps=3000)
    g0, q0 = exp_so3(np.array([0.4, -1.2, 0.9])), CF.quat_exp(np.array([0.3, 0.1, -0.7]))
    want = (transport(NAT, tilted_circle(), g0.copy(), cfg), transport_quat(tilted_circle(), q0.copy(), cfg))
    got = (transport(NAT, tilted_circle(), g0, cfg), transport_quat(tilted_circle(), q0, cfg))
    g0[:] = np.eye(3)
    q0[:] = [0.0, 1.0, 0.0, 0.0]
    for res, ref in zip(got, want):
        getattr(res, read_first)
        assert res.final.tobytes() == ref.final.tobytes()
        assert [a.tobytes() for a in res.states] == [a.tobytes() for a in ref.states]


def test_polyline_refuses_overflowing_vertices():
    for pts in ([[0.0, 0.0, 0.0], [1e308, -1e308, 0.0]], [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="overflows"):
            polyline(np.array(pts))


def test_integration_grid_merges_corners():
    nodes = integration_grid(4, corners=(0.1, 0.25, 0.9999999999999))
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 1e-12)
    for c in (0.1, 0.25):
        assert np.min(np.abs(nodes - c)) == 0.0


# ---------------------------------------------------------------------------
# quaternion transport


def test_transport_quat_line_is_the_quaternion_exponential():
    xi = np.array([0.4, -1.1, 0.8])
    res = transport_quat(line(np.zeros(3), xi), config=IntegratorConfig(steps=100))
    np.testing.assert_allclose(res.final, CF.quat_exp(xi), atol=1e-12)


def test_transport_quat_projects_onto_group_transport():
    # the cover doubles increments, so the matching base path is 2c
    P = np.array([[0, 0, 0], [1, 0.5, -0.3], [0.4, 1.2, 0.9], [0, 0, 0]], float)
    cfg = IntegratorConfig(steps=10_000)
    q = transport_quat(polyline(P, closed=True), config=cfg).final
    R = transport(NAT, polyline(2.0 * P, closed=True), config=cfg).final
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
    est = small_loop_curvature(NAT, np.zeros(3), u, v, 1e-2, IntegratorConfig(steps=256))
    ref = cross(u, v)
    assert np.linalg.norm(est - ref) / np.linalg.norm(ref) <= 1e-4


def test_small_loop_curvature_orders():
    """The extrapolated estimate converges at second order."""
    x0 = np.array([0.2, -0.4, 0.9])
    u = np.array([0.8, 0.1, -0.4])
    v = np.array([-0.2, 0.9, 0.3])
    want = cross(u, v)
    cfg = IntegratorConfig(steps=256)

    def err(eps):
        est = small_loop_curvature(NAT, x0, u, v, eps, cfg)
        return float(np.linalg.norm(est - want))

    extrapolated = np.log2(err(0.02) / err(0.01))
    assert abs(extrapolated - 2.0) <= 0.3


def test_small_loop_curvature_antisymmetry():
    u = np.array([0.8, 0.1, -0.4])
    v = np.array([-0.2, 0.9, 0.3])
    cfg = IntegratorConfig(steps=256)
    a = small_loop_curvature(NAT, np.zeros(3), u, v, 1e-2, cfg)
    b = small_loop_curvature(NAT, np.zeros(3), v, u, 1e-2, cfg)
    np.testing.assert_allclose(a, -b, atol=1e-4)


def rotated_sphere(radius, side):
    return surface_rolling_form(sphere_surface(radius, side=side, frame=rotated_frame()))


CHART_POINT, CHART_U, CHART_V = np.array([1.1, 0.4]), np.array([0.6, 0.2]), np.array([-0.3, 1.1])
CURVATURE_CASES = {
    "natural": (NAT, np.array([0.2, -0.4, 0.9]), np.array([0.8, 0.1, -0.4]), np.array([-0.2, 0.9, 0.3])),
    "plane-rolling": (plane_rolling_form(), np.array([1.3, -0.7]), CHART_U, CHART_V),
    "pullback-rhoJ": (pullback_form(PLANE_ROLLING_PULLBACK, NAT), np.array([1.3, -0.7]), CHART_U, CHART_V),
    **{
        f"sphere-{side}-r{r}": (rotated_sphere(r, side), CHART_POINT, CHART_U, CHART_V)
        for side in ("outer", "inner")
        for r in (0.5, 1.0, 2.0)
    },
}


@pytest.mark.parametrize("name", sorted(CURVATURE_CASES))
def test_small_loop_curvature_matches_the_closed_form(name):
    """Holonomy of small loops measures the catalogued curvature, the flat unit spheres included.

    Measured relative errors at eps = 1e-2 are 5e-6 to 5e-5; on the unit
    spheres (curvature 0) the error is below 2e-9.
    """
    form, x, u, v = CURVATURE_CASES[name]
    est = small_loop_curvature(form, x, u, v, 1e-2, IntegratorConfig(steps=256))
    ref = curvature_closed_form(form, x, u, v)
    assert np.linalg.norm(est - ref) <= 1e-4 * np.linalg.norm(ref) + 1e-8


def test_small_loop_curvature_refuses_loops_too_large_to_be_small():
    # the eps/2 loop's step angles sum to 3.0, below pi, but its holonomy angle is 0.538 rad, above pi/8
    cfg = IntegratorConfig(steps=512)
    with pytest.raises(ValueError, match=r"^loop too large to be small: the half-size loop's holonomy angle 0.538 "
                                         r"exceeds pi/8, so the full-size loop's may wrap past pi$"):
        small_loop_curvature(NAT, np.zeros(3), E1, E2, 1.5, cfg)


@pytest.mark.parametrize("eps, total", [(3.0, "6"), (6.234, "12.47"), (11.34, "22.68"), (1e154, re.escape("2e+154"))],
                         ids=["3", "6.234", "11.34", "1e154"])
def test_small_loop_curvature_refuses_loops_whose_step_angles_reach_pi(eps, total):
    # the natural form's eps/2 loop has step angles summing to 2 eps. At 6.234 and 11.34 its holonomy
    # angle has wrapped to a small one, and the pi/8 test alone let factors -0.000187 and 0.0133 through
    cfg = IntegratorConfig(steps=512)
    with pytest.raises(ValueError, match=rf"^loop too large to be small: the half-size loop's step angles \|dt a\| "
                                         rf"sum to {total}, at least pi, so its holonomy angle may wrap past pi$"):
        small_loop_curvature(NAT, np.zeros(3), E1, E2, eps, cfg)


def test_a_step_angle_whose_square_overflows_sums_to_the_angles_formed():
    # one step per side of |dt a| = 1.5e154: its square, which np.linalg.norm would form, overflows, but the
    # sum is of the four angles the engine formed
    with pytest.raises(ValueError, match=r"step angles \|dt a\| sum to 6e\+154, at least pi"):
        small_loop_curvature(NAT, np.zeros(3), E1, E2, 3e154, IntegratorConfig(steps=1))


def test_small_loop_curvature_evaluates_the_form_once_per_node():
    # the step-angle sum comes from the eps/2 transport itself: two loops of one block each, two evaluations
    rows, cfg = [], IntegratorConfig(steps=512)
    counted = dataclasses.replace(NAT, evaluate=lambda x, v: rows.append(len(v)) or NAT.evaluate(x, v))
    est = small_loop_curvature(counted, np.zeros(3), E1, E2, 1e-2, cfg)
    assert est.tobytes() == small_loop_curvature(NAT, np.zeros(3), E1, E2, 1e-2, cfg).tobytes()
    assert rows == [4 + 512, 4 + 512]  # the first block leads with the m = 4 start rows


def walked_angle_sum(form, path, cfg):
    """sum |dt a| over the run's grid, by a second walk in blocks of 4,096 nodes and np.linalg.norm."""
    nodes = integration_grid(cfg.steps, path.corners)
    n, total = len(nodes) - 1, 0.0
    for k0 in range(0, n, 4096):
        k1 = min(k0 + 4096, n)
        dt = nodes[k0 + 1 : k1 + 1] - nodes[k0:k1]
        ts = nodes[k0:k1] + 0.5 * dt if cfg.method == "exp-midpoint" else nodes[k0:k1]
        a = -form.evaluate(path.position(ts), path.velocity(ts))
        total += float(np.linalg.norm(dt[:, None] * a, axis=1).sum())
    return total


@pytest.mark.parametrize("steps", [1, 64, 512, 1024, 1025, 4096, 5000, 12_000])
@pytest.mark.parametrize("method", ["lie-euler", "exp-midpoint"])
@pytest.mark.parametrize("name", ["natural", "plane-rolling", "sphere-outer-r2.0", "sphere-inner-r0.5"])
def test_the_engines_step_angle_sum_is_the_walked_sum(name, method, steps):
    # the sum small_loop_curvature tests against pi comes from its eps/2 transport's own steps. Up to 4,096
    # steps the walk and the engine sum one block alike; past that the engine's blocks, whole chunks of
    # the recording stride, split the grid elsewhere
    form, x, u, v = CURVATURE_CASES[name]
    cfg, loop = IntegratorConfig(method, steps), parallelogram_loop(x, u, v, 5e-3)
    got, want = transport(form, loop, config=cfg)._angles, walked_angle_sum(form, loop, cfg)
    if steps <= 4096:
        assert got == want
    else:
        assert abs(got - want) <= 4e-16 * want


@pytest.mark.parametrize("form", [NAT, plane_rolling_form()], ids=["natural", "plane"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(log_eps=st.floats(-3.0, 12.0))
@example(log_eps=np.log10(1.27))  # the worst answer the two tests let through: 0.139 off
@example(log_eps=np.log10(6.234))
@example(log_eps=np.log10(11.34))
def test_small_loop_curvature_is_refused_or_within_the_bound_for_any_loop_size(form, log_eps):
    # eps log-uniform in [1e-3, 1e12]: every answer's factor, its projection onto the closed form, is within 0.15
    x, u, v = np.zeros(form.base_dim), *np.eye(form.base_dim)[:2]
    try:
        est = small_loop_curvature(form, x, u, v, 10.0**log_eps, IntegratorConfig(steps=512))
    except ValueError as e:
        assert str(e).startswith("loop too large to be small")
        return
    ref = curvature_closed_form(form, x, u, v)
    assert abs(est @ ref / (ref @ ref) - 1.0) <= 0.15


def test_small_loop_curvature_answers_below_the_wrap_guard():
    # the eps/2 loop's step angles sum to 2.0, below pi, and its angle is 0.245 rad, below pi/8
    est = small_loop_curvature(NAT, np.zeros(3), E1, E2, 1.0, IntegratorConfig(steps=512))
    assert abs(est[2] - 1.0) <= 0.15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps", [1e160, 1e300])
def test_small_loop_curvature_of_the_zero_form_at_huge_eps_is_zero(eps):
    # the zero form's loops have step angles 0 at any size, so they pass the wrap guard; the pi/8
    # test's (eps/2)^2 overflows to inf there, and must not raise OverflowError as a float power does
    zero = pullback_form(np.zeros((3, 3)), NAT)
    est = small_loop_curvature(zero, np.zeros(3), E1, E2, eps, IntegratorConfig(steps=8))
    assert est.tolist() == [0.0, 0.0, 0.0]


def test_small_loop_curvature_validation():
    with pytest.raises(ValueError, match="positive"):
        small_loop_curvature(NAT, np.zeros(3), E1, E2, 0.0)
    # the loop area e^2 underflows below the smallest normal float, ~2.2e-308
    for eps, e in ((1e-300, "5e-301"), (2e-154, "1e-154")):
        with pytest.raises(ValueError, match=rf"^eps = {eps!r} is too small: the loop area \({e}\)\^2 underflows$"):
            small_loop_curvature(NAT, np.zeros(3), E1, E2, eps, IntegratorConfig(steps=8))
    est = small_loop_curvature(NAT, np.zeros(3), E1, E2, 3e-154, IntegratorConfig(steps=8))
    assert np.isfinite(est).all()
    with pytest.raises(ValueError, match="nonzero"):
        parallelogram_loop(np.zeros(3), np.zeros(3), E2, 0.1)
    with pytest.raises(ValueError, match="nonzero"):
        parallelogram_loop(np.zeros(3), 1e-200 * E1, E2, 1e-150)  # eps u underflows to zero


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
    # corners are deliberately not merged in: a cornered polyline, whose corners
    # 1/3 and 2/3 miss the grid, equals the lie-euler run on its corner-free copy
    cfg = IntegratorConfig(method="lie-euler", steps=200)
    cornered = polyline(np.array([[0.0, 0.0, 0.0], [1.0, 0.3, 0.0], [1.2, 1.0, -0.5], [0.4, 0.2, 0.9]]))
    for c in (tilted_circle(), cornered):
        top = time_ordered_product(NAT, c, 200)
        assert np.array_equal(top, transport(NAT, dataclasses.replace(c, corners=()), config=cfg).final)
    assert not np.allclose(time_ordered_product(NAT, cornered, 200), transport(NAT, cornered, config=cfg).final)


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
        velocity=lambda t: (1.0 - 0.1 * np.cos(2 * np.pi * t))[..., None] * c.velocity(sig(t)),
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
    # the thresholds hold on the spanning vectors as given, however small
    with pytest.raises(ValueError, match="vanishes"):
        circle(np.zeros(3), 1.0, plane=(5e-324 * E1, E2))
    with pytest.raises(ValueError, match="vanishes"):
        circle(np.zeros(3), 1.0, plane=(0.9e-12 * E1, E2))
    with pytest.raises(ValueError, match="parallel"):
        circle(np.zeros(3), 1.0, plane=(E1, E1 + 0.9e-12 * E2))
    circle(np.zeros(3), 1.0, plane=(1.1e-12 * E1, E1 + 1.1e-12 * E2))
    # a plane of another dimension was once built, and its first transport failed with numpy's broadcast error
    for form, center, plane, shapes in ((plane_rolling_form(), np.zeros(2), (E1, E2), "(2,), got (3,) and (3,)"),
                                        (NAT, np.zeros(3), tuple(np.eye(2)), "(3,), got (2,) and (2,)")):
        with pytest.raises(ValueError, match=re.escape(f"plane vectors must have the center's shape {shapes}") + "$"):
            transport(form, circle(center, 1.0, plane=plane))


def test_circle_holonomy_does_not_depend_on_the_scale_of_its_plane():
    # |b|^2 of a spanning vector at 1e200 overflows: the circle once collapsed to a point, with the identity
    # as its holonomy. Axis-aligned vectors normalize exactly, at every scale; a tilted pair to rounding
    cfg, tilted = IntegratorConfig(steps=256), (np.array([0.3, -1.0, 2.0]), np.array([1.0, 0.7, -0.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aligned = [holonomy(natural_form(), circle(np.zeros(3), 0.5, plane=(s * E3, s * E1)), cfg)
                   for s in (1.0, 1e150, 1e200, 1e300)]
        tilts = [holonomy(natural_form(), circle(np.zeros(3), 0.5, plane=(s * tilted[0], s * tilted[1])), cfg)
                 for s in (1.0, 1e150, 1e200, 1e300)]
    assert all(R.tobytes() == aligned[0].tobytes() for R in aligned)
    assert abs(aligned[0][0, 0] - 0.790) < 5e-4
    assert max(np.abs(R - tilts[0]).max() for R in tilts) <= 1e-15


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


@pytest.mark.parametrize("times", [None, [0.0, 0.1234567, 0.4, 0.77777, 1.0]], ids=["uniform", "irregular"])
def test_polyline_velocity_at_each_knot_is_the_outgoing_slope(times):
    # lie-euler samples each interval at its left node, so a corner must read the segment it starts
    P = np.array([[0.0, 0.0], [1.0, 0.5], [0.4, 1.2], [-0.2, 0.3], [0.7, -0.6]])
    c = polyline(P, times=times)
    T = np.linspace(0.0, 1.0, len(P)) if times is None else np.array(times)
    slopes = np.diff(P, axis=0) / np.diff(T)[:, None]
    np.testing.assert_array_equal(c.velocity(T), np.vstack([slopes, slopes[-1:]]))  # the end keeps the last slope
    np.testing.assert_array_equal(c.position(T[:-1]), P[:-1])  # each knot starts its own segment
    # the end is the last vertex itself: interpolating it gave [0.7, -0.5999999999999999]
    assert c.position(1.0).tobytes() == c.position(T)[-1].tobytes() == P[-1].tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_catalog_paths_refuse_non_finite_parameters(bad):
    # refused at construction, before arithmetic such as x0 + 0 * inf can warn
    with pytest.raises(ValueError, match="line point and displacement must be finite"):
        line(np.zeros(3), np.array([bad, 0.0, 0.0]))
    with pytest.raises(ValueError, match="line point and displacement must be finite"):
        line(np.array([0.0, bad, 0.0]), E1)
    with pytest.raises(ValueError, match="circle center, radius and plane must be finite"):
        circle(np.array([bad, 0.0]), 1.0)
    if not bad < 0.0:  # a negative radius is refused as not positive first
        with pytest.raises(ValueError, match="circle center, radius and plane must be finite"):
            circle(np.zeros(2), bad)
    with pytest.raises(ValueError, match="circle center, radius and plane must be finite"):
        circle(np.zeros(3), 1.0, plane=(E1, np.array([0.0, bad, 1.0])))
    with pytest.raises(ValueError, match="polyline points must be finite"):
        polyline(np.array([[0.0, 0.0], [1.0, bad], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="polyline times must be finite"):
        polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), times=[0.0, bad, 1.0])
    with pytest.raises(ValueError, match="parallelogram corner, sides and eps must be finite"):
        parallelogram_loop(np.zeros(3), E1, np.array([0.0, bad, 0.0]), 0.5)
    if not bad < 0.0:
        with pytest.raises(ValueError, match="parallelogram corner, sides and eps must be finite"):
            parallelogram_loop(np.zeros(3), E1, E2, bad)


@pytest.mark.parametrize("corner, eps, lost", [
    ((1e20, 0.0, 0.0), 1.0, "1.000e+00"),  # the unit side is erased: 1e20 + 1 == 1e20
    ((1e10 + 0.3, 0.0, 0.0), 0.7, "1.090e-06"),  # just over the bound
    ((8e9 + 0.3, 0.0, 0.0), 0.7, None),  # just under it: off by 2.7e-7
    ((4e15, 0.0, 0.0), 1.0, None),  # integers below 2^53 add exactly
])
def test_parallelogram_loop_refuses_sides_lost_in_rounding(corner, eps, lost):
    if lost is None:
        assert parallelogram_loop(np.array(corner), E1, E2, eps).closed
        return
    message = (f"parallelogram side 1 is lost in rounding at corner {list(corner)} (eps = {eps!r}): "
               f"it is off by {lost} of its length, over the bound 1e-06")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parallelogram_loop(np.array(corner), E1, E2, eps)


def test_small_loop_curvature_refuses_a_loop_lost_in_rounding():
    # the natural form is translation invariant, so only rounding can tell x = 1e20 from x = 0
    with pytest.raises(ValueError, match="lost in rounding"):
        small_loop_curvature(NAT, np.array([1e20, 0.0, 0.0]), E1, E2, 1e-2, IntegratorConfig(steps=8))


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


def test_great_arc_takes_every_power_of_two_radius_and_refuses_non_finite_points():
    # |p x q|^2 = r^4 once overflowed from r ~ 1e78 and underflowed below r ~ 1e-80, and the arc was refused; a
    # power-of-two radius scales every operation exactly, so the path is the unit arc's, bit for bit
    p, q = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path, surface = great_arc(p, q)
        u = path.position(np.linspace(0.0, 1.0, 5))
        for k in range(-510, 511):
            r = 2.0**k
            scaled, chart = great_arc(r * p, r * q)
            assert scaled.velocity(0.3).tobytes() == path.velocity(0.3).tobytes(), k
            assert scaled.position(0.7).tobytes() == path.position(0.7).tobytes(), k
            assert (chart.chart_tangent(u) / r).tobytes() == surface.chart_tangent(u).tobytes(), k
        for bad in (np.nan, np.inf, -np.inf):
            for points in ((np.array([0.0, bad, 1.0]), q), (p, np.array([0.6, 0.0, bad]))):
                with pytest.raises(ValueError, match="^great_arc points p and q must be finite$"):
                    great_arc(*points)


def test_great_arc_validation():
    p = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="distinct"):
        great_arc(p, p)
    with pytest.raises(ValueError, match="does not lie on"):
        great_arc(p, np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="positive"):
        great_arc(np.zeros(3), p)
    # |p| and |q| once overflowed past r ~ 1.34e154, warned, and named the radius inf; RuntimeWarnings are errors here
    for r in (2e154, 1e200, 1e-200):
        with pytest.raises(ValueError, match=re.escape(f"with finite r^2 and 1/r^2, got {r}") + "$"):
            great_arc(r * p, r * np.array([0.6, 0.0, 0.8]))
