"""Tests for the residual checks and their building blocks."""

import importlib

import numpy as np
import pytest

from liecurv import (
    IntegratorConfig,
    ResidualReport,
    antipodal_check,
    check_alpha_naturality,
    check_curvature_naturality,
    check_omega_naturality,
    check_section_path_independence,
    check_transport_naturality,
    circle,
    commutator,
    cross,
    degenerate_span_loops,
    exp_so3,
    hat,
    holonomy,
    holonomy_span_check,
    inner_unit_sphere_identity,
    lasso_loop,
    lie_hom_derivative,
    lift_transport,
    line,
    log_so3,
    natural_alpha,
    natural_form,
    plane_rolling_form,
    polyline,
    quat_to_rotation,
    run_all_checks,
    section_residual,
    small_loop_curvature,
    sphere_curvature_factor,
    sphere_surface,
    surface_rolling_form,
    transport,
    transport_quat,
    unit_sphere_section,
)
from liecurv.verify import _BASEPOINT, _FIGURE_EIGHT, _s3_bracket, curvature_probe, default_span_loops, run_check
from references import CF, tilted_circle


# ---------------------------------------------------------------------------
# report plumbing


def test_residual_report_derives_pass_flag():
    assert ResidualReport("a", 1e-9, 3, 1e-8).passed
    assert not ResidualReport("a", 1e-7, 3, 1e-8).passed
    assert ResidualReport("a", 0.0, 1, 0.0).passed
    with pytest.raises(TypeError):
        ResidualReport("a", 0.5, 1, 1.0, passed=False)


def test_residual_report_stores_python_numbers():
    rep = ResidualReport("a", np.float64(0.5), np.int64(3), 1)
    assert type(rep.max_residual) is float and type(rep.samples) is int and type(rep.tolerance) is float
    assert rep.passed is True


# ---------------------------------------------------------------------------
# naturality checks


def test_alpha_naturality_passes():
    rep = check_alpha_naturality()
    assert rep.name == "alpha-naturality"
    assert rep.samples == 100
    assert rep.tolerance == 1e-8
    assert rep.passed


def test_omega_naturality_passes_and_frozen_value():
    rep = check_omega_naturality()
    assert rep.passed and rep.tolerance == 1e-12
    # the identity both sides reduce to: v = e1 gives -2 e1 on each
    v = np.array([1.0, 0.0, 0.0])
    lhs = natural_form().evaluate(np.zeros(3), lie_hom_derivative(v))
    rhs = lie_hom_derivative(-v)
    np.testing.assert_allclose(lhs, [-2.0, 0.0, 0.0], atol=0.0)
    np.testing.assert_allclose(rhs, [-2.0, 0.0, 0.0], atol=0.0)


def test_curvature_naturality_passes():
    assert check_curvature_naturality().passed


def test_s3_bracket_matches_doubled_cross_product():
    # pure-quaternion bracket through the 4x4 representation: [u, v] = 2 u x v
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(_s3_bracket(e1, e2), [0.0, 0.0, 2.0], atol=1e-15)
    rng = np.random.RandomState(60)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(_s3_bracket(u, v), 2.0 * np.cross(u, v), atol=1e-12)


# The sampled checks one draw at a time, as they were written before they took stacks: the
# stacked checks must print the same max_residual, so these loops are their reference.


def reference_unit_quat(rng):
    while True:
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
        if n > 1e-3:
            return q / n


def reference_s3_bracket(xi, eta):
    def left(q):
        w, x, y, z = q
        return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])

    Lx, Le = left(np.concatenate([[0.0], xi])), left(np.concatenate([[0.0], eta]))
    return commutator(Lx, Le)[:, 0][1:]


def reference_alpha_naturality(seed):
    rng = np.random.RandomState(101 + seed)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        q = reference_unit_quat(rng)
        R = quat_to_rotation(q)
        q_conj = q * np.array([1.0, -1.0, -1.0, -1.0])
        xi_quat = CF.quat_mul(np.concatenate([[0.0], w]), q)
        alpha_s3 = (
            CF.quat_mul(q_conj, xi_quat)
            - CF.quat_mul(CF.quat_mul(q_conj, np.concatenate([[0.0], v])), q)
        )[1:]
        lhs = lie_hom_derivative(alpha_s3)
        rhs = natural_alpha(2.0 * x, R, 2.0 * v, hat(2.0 * w) @ R)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def reference_omega_naturality(seed):
    rng = np.random.RandomState(202 + seed)
    form = natural_form()
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lhs = form.evaluate(2.0 * x, lie_hom_derivative(v))
        rhs = lie_hom_derivative(-v)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def reference_curvature_naturality(seed):
    rng = np.random.RandomState(303 + seed)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lhs = lie_hom_derivative(reference_s3_bracket(u, v))
        rhs = cross(lie_hom_derivative(u), lie_hom_derivative(v))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


@pytest.mark.parametrize(
    "check, reference",
    [
        (check_alpha_naturality, reference_alpha_naturality),
        (check_omega_naturality, reference_omega_naturality),
        (check_curvature_naturality, reference_curvature_naturality),
    ],
    ids=["alpha", "omega", "curvature"],
)
def test_stacked_naturality_check_equals_its_per_sample_loop(check, reference):
    seeds = [*range(0, 350, 7), 20261017]  # 51 seeds
    got = [check(seed=s).max_residual for s in seeds]
    want = [reference(s) for s in seeds]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    if check is not check_omega_naturality:  # omega's two sides agree exactly, so 0 there says nothing
        assert min(want) > 0.0


def test_transport_naturality_default_and_line():
    assert check_transport_naturality().passed
    # the same law on a line: quaternion transport along c is SO(3) transport along 2c
    xi, cfg = np.array([0.4, -0.2, 0.9]), IntegratorConfig()
    lhs = quat_to_rotation(transport_quat(line(np.zeros(3), xi), config=cfg).final)
    assert np.linalg.norm(lhs - transport(natural_form(), line(np.zeros(3), 2.0 * xi), config=cfg).final) <= 1e-10


def test_default_naturality_path_shape():
    c = polyline(_FIGURE_EIGHT, closed=True)
    assert c.base_dim == 3 and c.closed


@pytest.mark.parametrize("method", ["lie-euler", "exp-midpoint"])
@pytest.mark.parametrize("steps", [1, 7, 8, 9, 64, 1000, 10_000, None])
def test_naturality_runs_match_products_of_exponentials(method, steps):
    # the check's two runs feed one engine bitwise equal increments, so its residual shows nothing of the engine:
    # each run is held here to the closed form, a product of one exponential per segment (the velocity is
    # constant on each, and the grid steps at every corner)
    cfg = IntegratorConfig(method) if steps is None else IntegratorConfig(method, steps)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for u in np.diff(_FIGURE_EIGHT, axis=0):
        q = CF.quat_mul(CF.quat_exp(u), q)
    assert np.abs(transport_quat(polyline(_FIGURE_EIGHT, closed=True), config=cfg).final - q).max() <= 1e-12
    R = transport(natural_form(), polyline(2.0 * _FIGURE_EIGHT, closed=True), config=cfg).final
    assert np.abs(R - CF.ordered_product(2.0 * np.diff(_FIGURE_EIGHT, axis=0))).max() <= 1e-12


# ---------------------------------------------------------------------------
# quaternion lift and sections


def test_lift_transport_projects_onto_group_transport():
    c = polyline(np.array([[0, 0, 0], [0.7, 0.2, -0.4], [0.1, 1.0, 0.3]], float))
    cfg = IntegratorConfig(steps=512)
    q = lift_transport(natural_form(), c, config=cfg)
    R = transport(natural_form(), c, config=cfg).final
    np.testing.assert_allclose(quat_to_rotation(q), R, atol=1e-9)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lift_transport(plane_rolling_form(), c)


@pytest.mark.parametrize(
    "q0", [[2.0, 0.0, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]], ids=["norm-2", "huge", "nan"]
)
def test_lift_transport_refuses_a_non_unit_start(q0):
    # the same check as transport_quat; a huge start must not overflow into a warning
    with pytest.raises(ValueError, match="not unit"):
        lift_transport(natural_form(), line(np.zeros(3), np.ones(3)), q0=q0)


def test_unit_sphere_section_at_basepoint():
    q, formula = unit_sphere_section(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0, 0.0], atol=0.0)
    np.testing.assert_allclose(formula, [1.0, 0.0, 0.0, 0.0], atol=0.0)


def test_unit_sphere_section_quarter_turn_target():
    # the formula sends (1, 0, 0) to the pure quaternion j
    p = np.array([1.0, 0.0, 0.0])
    q, formula = unit_sphere_section(p)
    np.testing.assert_allclose(formula, [0.0, 0.0, 1.0, 0.0], atol=0.0)
    assert section_residual(*unit_sphere_section(p)) <= 1e-6
    # as a rotation: angle pi about (0, 1, 0)
    np.testing.assert_allclose(
        quat_to_rotation(q), exp_so3(np.pi * np.array([0.0, 1.0, 0.0])), atol=1e-6
    )


def test_unit_sphere_section_south_pole():
    p = np.array([0.0, 0.0, -1.0])
    q, formula = unit_sphere_section(p)
    np.testing.assert_allclose(formula, [-1.0, 0.0, 0.0, 0.0], atol=0.0)
    assert section_residual(q, formula) <= 1e-6


def test_section_residual_ignores_the_global_sign():
    q, formula = unit_sphere_section(np.array([0.6, 0.0, 0.8]))
    assert section_residual(-q, formula) == section_residual(q, formula) <= 1e-6
    assert section_residual(q, -q) == 0.0


def test_unit_sphere_section_random_targets():
    rng = np.random.RandomState(61)
    done = 0
    while done < 5:
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        if abs(p[2]) > 0.99:
            continue
        assert section_residual(*unit_sphere_section(p)) <= 1e-6
        done += 1


def test_unit_sphere_section_validation():
    with pytest.raises(ValueError, match="unit sphere"):
        unit_sphere_section(np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="point in R\\^3"):
        unit_sphere_section(np.zeros(2))


def test_section_path_independence_report():
    rep = check_section_path_independence()
    assert rep.name == "section-path-independence"
    assert rep.tolerance == 1e-6 and rep.passed


def test_section_path_independence_redraws_a_rejected_waypoint():
    # at seed 6 two draws of RandomState(410) give a leg whose ends are nearly equal or antipodal (|a . b| > 0.99);
    # the check draws again, and its report still holds 5 samples
    rng, rejected = np.random.RandomState(410), 0
    for _ in range(5 + 2):
        p, m = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)))
        rejected += any(abs(float(a @ b)) > 0.99 for a, b in [(_BASEPOINT, p), (_BASEPOINT, m), (m, p)])
    assert rejected == 2
    rep = check_section_path_independence(seed=6)
    assert rep.samples == 5 and rep.max_residual <= 1e-13 and rep.passed


def test_antipodal_check_report():
    rep = antipodal_check()
    assert rep.name == "antipodal-sections" and rep.passed


# ---------------------------------------------------------------------------
# inner sphere and span checks


def test_inner_unit_sphere_identity_report():
    rep = inner_unit_sphere_identity()
    assert rep.passed and rep.tolerance == 1e-12


def test_inner_unit_sphere_any_loop():
    loop = polyline(
        np.array([[1.0, 0.2], [1.5, -0.4], [0.8, 0.7], [1.0, 0.2]]), closed=True
    )
    form = surface_rolling_form(sphere_surface(1.0, side="inner"))
    assert np.linalg.norm(holonomy(form, loop, IntegratorConfig(steps=512)) - np.eye(3)) == 0.0


def test_inner_sphere_radius_two_is_not_flat():
    # only the unit radius cancels; r = 2 has curvature 1 - 1/4
    form = surface_rolling_form(sphere_surface(2.0, side="inner"))
    hol = holonomy(form, circle(np.array([1.2, 0.5]), 0.4), IntegratorConfig(steps=512))
    assert np.linalg.norm(hol - np.eye(3)) > 1e-3


def test_lasso_loop_structure():
    loop = lasso_loop(np.zeros(2), np.array([2.0, 0.0]))
    assert loop.closed
    np.testing.assert_allclose(loop.position(0.0), [0.0, 0.0])
    with pytest.raises(ValueError, match="equal dimension"):
        lasso_loop(np.zeros(2), np.zeros(3))


def test_holonomy_span_check_passes():
    rep = holonomy_span_check()
    assert rep.name == "plane-rolling-span"
    assert rep.passed and rep.max_residual == 0.0


def test_span_smallest_singular_value_is_healthy():
    form = plane_rolling_form()
    cfg = IntegratorConfig(steps=64)
    cols = []
    for c in default_span_loops():
        w = log_so3(holonomy(form, c, cfg))
        cols.append(w / np.linalg.norm(w))
    sigma_min = np.linalg.svd(np.column_stack(cols), compute_uv=False)[-1]
    assert sigma_min > 1e-4  # measured ~0.197


def test_degenerate_span_family_fails_with_rank_one():
    rep = holonomy_span_check(loops=degenerate_span_loops())
    assert not rep.passed
    form = plane_rolling_form()
    cfg = IntegratorConfig(steps=64)
    cols = [log_so3(holonomy(form, c, cfg)) for c in degenerate_span_loops()]
    sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    assert sv[1] <= 1e-10 * sv[0]  # identical loops give a rank-one family


def test_holonomy_span_check_needs_three_loops():
    with pytest.raises(ValueError, match="three"):
        holonomy_span_check(loops=[lasso_loop(np.zeros(2), np.array([2.0, 0.0]))])


# ---------------------------------------------------------------------------
# sphere curvature factors


def test_sphere_curvature_factor_catalog():
    assert abs(sphere_curvature_factor(0.5) - (-3.0)) / 3.0 <= 1e-3
    assert abs(sphere_curvature_factor(1.0)) <= 1e-6
    assert abs(sphere_curvature_factor(2.0) - 0.75) / 0.75 <= 1e-3
    assert abs(sphere_curvature_factor(5.0) - 0.96) / 0.96 <= 1e-3


def test_sphere_curvature_factor_approaches_plane_value():
    assert abs(sphere_curvature_factor(1000.0) - 1.0) <= 1e-3


def test_sphere_factor_report():
    rep = run_check("sphere-curvature-factor")
    assert rep.name == "sphere-curvature-factor" and rep.passed
    assert rep.samples == 1 and rep.tolerance == 7.5e-4


# ---------------------------------------------------------------------------
# the whole battery


def test_run_all_checks_all_pass_in_name_order():
    reports = run_all_checks()
    assert len(reports) == 9
    names = [r.name for r in reports]
    assert names == sorted(names)
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_residual:.3e} > {r.tolerance:.0e}"
        assert r.max_residual <= r.tolerance


def test_run_all_checks_with_seed_offset():
    reports = run_all_checks(seed=1)
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# each computation's own step count, read off the grid the engine lays


transport_module = importlib.import_module("liecurv.transport")  # the name liecurv.transport is the function


SPHERE_FORM, CHART_CIRCLE = surface_rolling_form(sphere_surface(2.0)), circle(np.array([1.2, 0.5]), 0.4)
OWN_STEPS = {  # computation: (a run of it under a config, its own step count)
    "transport": (lambda cfg: transport(natural_form(), tilted_circle(), config=cfg).final, 10_000),
    "transport_quat": (lambda cfg: transport_quat(tilted_circle(), config=cfg).final, 10_000),
    "holonomy": (lambda cfg: holonomy(SPHERE_FORM, CHART_CIRCLE, cfg), 10_000),
    "small_loop_curvature": (
        lambda cfg: small_loop_curvature(SPHERE_FORM, np.array([1.0, 0.3]), *np.eye(2), 1e-2, cfg), 10_000),
    "lift_transport": (lambda cfg: lift_transport(SPHERE_FORM, CHART_CIRCLE, config=cfg), 512),
    "curvature_probe": (lambda cfg: curvature_probe(SPHERE_FORM, np.array([1.0, 0.3]), 1e-2, cfg)[0], 512),
    "unit_sphere_section": (lambda cfg: unit_sphere_section(np.array([0.6, 0.0, 0.8]), cfg)[0], 512),
    **{f"check {name}": (lambda cfg, name=name: run_check(name, 0, cfg).max_residual, steps)
       for name, steps in [("transport-naturality", 10_000), ("section-path-independence", 512),
                           ("antipodal-sections", 512), ("inner-unit-sphere-identity", 512),
                           ("sphere-curvature-factor", 512), ("plane-rolling-span", 64), ("span-degenerate", 64)]},
}


@pytest.mark.parametrize("method", ["lie-euler", "exp-midpoint"])
@pytest.mark.parametrize("name", sorted(OWN_STEPS))
def test_a_config_without_steps_runs_the_computations_own_count(name, method, monkeypatch):
    compute, steps = OWN_STEPS[name]
    counts, grid = [], transport_module.integration_grid

    def laying(n, *corners):
        if corners:  # the engine's grid, laid with the path's corners; a polyline's vertex times are laid without
            counts.append(n)
        return grid(n, *corners)

    monkeypatch.setattr(transport_module, "integration_grid", laying)
    got = compute(IntegratorConfig(method))
    assert counts and set(counts) == {steps}
    assert np.asarray(got).tobytes() == np.asarray(compute(IntegratorConfig(method, steps))).tobytes()
    if method == "exp-midpoint":  # as with no config at all
        assert np.asarray(compute(None)).tobytes() == np.asarray(got).tobytes()
