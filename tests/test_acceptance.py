"""Acceptance gate: one test per contract criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside pytest's own report. Every numeric tolerance here
is part of the package contract; loosening one is a behavior change.
"""

import json
from contextlib import contextmanager

import numpy as np

from liecurv import (
    IntegratorConfig,
    PLANE_ROLLING_PULLBACK,
    antipodal_check,
    check_section_path_independence,
    circle,
    commutator_by_flows,
    convergence_order,
    cross,
    curvature_closed_form,
    default_span_loops,
    degenerate_span_loops,
    exp_so3,
    great_arc,
    holonomy,
    holonomy_span_check,
    inner_unit_sphere_identity,
    line,
    log_so3,
    natural_form,
    plane_rolling_form,
    polyline,
    pullback_form,
    quat_to_rotation,
    run_all_checks,
    small_loop_curvature,
    sphere_curvature_factor,
    sphere_surface,
    surface_rolling_form,
    time_ordered_product,
    transport,
    unit_sphere_section,
)
from liecurv.cli import main as cli_main

NAT = natural_form()
I3 = np.eye(3)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL - {label}")
        raise
    print(f"[criterion {number:2d}] PASS - {label}")


def curved_test_path():
    # a circle in a tilted plane; omega along it is genuinely non-commutative,
    # so the steppers commit real truncation error at every step
    return circle(
        (0.3, -0.2, 0.5), 0.8, plane=((1.0, 0.2, 0.3), (-0.1, 1.0, 0.4))
    )


def test_criterion_01_line_transport_is_exponential():
    with criterion(1, "straight-line transport equals exp of the direction"):
        cfg = IntegratorConfig(method="exp-midpoint", steps=10_000)
        rng = np.random.RandomState(2101)
        for norm in (0.1, 1.0, 3.0):
            for _ in range(2):
                xi = rng.standard_normal(3)
                xi *= norm / np.linalg.norm(xi)
                final = transport(NAT, line(np.zeros(3), xi), config=cfg).final
                assert np.linalg.norm(final - exp_so3(xi)) <= 1e-8


def test_criterion_02_translated_line_transport():
    with criterion(2, "translated lines: exp(xi) g0, independent of base point"):
        cfg = IntegratorConfig(method="exp-midpoint", steps=10_000)
        rng = np.random.RandomState(2102)
        xi = rng.standard_normal(3)
        g0 = exp_so3(rng.standard_normal(3))
        finals = []
        for _ in range(3):
            eta = rng.standard_normal(3) * 2.0
            final = transport(NAT, line(eta, xi), g0=g0, config=cfg).final
            assert np.linalg.norm(final - exp_so3(xi) @ g0) <= 1e-8
            finals.append(final)
        for f in finals[1:]:
            assert np.linalg.norm(f - finals[0]) <= 1e-10


def test_criterion_03_integrator_convergence_orders():
    with criterion(3, "orders: lie-euler 1, exp-midpoint 2, product integral 1"):
        path = curved_test_path()
        p_euler = convergence_order(NAT, path, method="lie-euler", n0=64)
        p_mid = convergence_order(NAT, path, method="exp-midpoint", n0=64)
        assert abs(p_euler - 1.0) <= 0.2
        assert abs(p_mid - 2.0) <= 0.2
        ref = time_ordered_product(NAT, path, 16 * 512)
        e1 = np.linalg.norm(time_ordered_product(NAT, path, 512) - ref)
        e2 = np.linalg.norm(time_ordered_product(NAT, path, 1024) - ref)
        p_top = float(np.log2(e1 / e2))
        assert abs(p_top - 1.0) <= 0.2


def test_criterion_04_small_loop_curvature_recovers_cross():
    with criterion(4, "small-loop curvature = cross product (Richardson + flows)"):
        cfg = IntegratorConfig(steps=256)
        rng = np.random.RandomState(11)
        pairs = []
        while len(pairs) < 20:
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            target = cross(u, v)
            if np.linalg.norm(target) < 0.3:
                continue  # skip nearly-parallel pairs; relative error is ill-posed
            x = rng.standard_normal(3)
            est = small_loop_curvature(NAT, x, u, v, 1e-2, cfg)
            rel = np.linalg.norm(est - target) / np.linalg.norm(target)
            assert rel <= 1e-4
            pairs.append((u, v))
        for u, v in pairs:
            err = np.linalg.norm(commutator_by_flows(u, v, 1e-3) - cross(u, v))
            assert err <= 1e-5


def test_criterion_05_plane_rolling_curvature_and_pullback():
    with criterion(5, "plane-rolling curvature; pullback identity on a grid"):
        pl = plane_rolling_form()
        cfg = IntegratorConfig(steps=256)
        rng = np.random.RandomState(12)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        for _ in range(5):
            x = rng.uniform(-3, 3, size=2)
            est = small_loop_curvature(pl, x, e1, e2, 1e-2, cfg)
            ref = curvature_closed_form(pl, x, e1, e2)
            assert np.linalg.norm(est - ref) / np.linalg.norm(ref) <= 1e-4
        pulled = pullback_form(PLANE_ROLLING_PULLBACK, NAT)
        tangents = [e1, e2, np.array([0.3, -0.7]), np.array([1.1, 0.4])]
        for a in np.linspace(-2.0, 2.0, 10):
            for b in np.linspace(-2.0, 2.0, 10):
                x = np.array([a, b])
                for v in tangents:
                    assert np.linalg.norm(pulled.evaluate(x, v) - pl.evaluate(x, v)) <= 1e-12


def test_criterion_06_sphere_curvature_factors():
    with criterion(6, "sphere small-loop factor equals 1 - 1/r^2"):
        assert abs(sphere_curvature_factor(1.0)) <= 1e-6
        for r, want in ((0.5, -3.0), (2.0, 0.75), (5.0, 0.96)):
            factor = sphere_curvature_factor(r)
            assert abs(factor - want) / abs(want) <= 1e-3


def test_criterion_07_unit_sphere_rolling_is_flat():
    with criterion(7, "unit-sphere rolling: flat, global section, angle law"):
        form = surface_rolling_form(sphere_surface(1.0, side="outer"))
        cfg = IntegratorConfig(steps=10_000)
        rng = np.random.RandomState(2026)
        for _ in range(5):
            th = rng.uniform(0.8, np.pi - 0.8, size=4)
            ph = rng.uniform(-1.2, 1.2, size=4)
            pts = np.column_stack([th, ph])
            pts = np.vstack([pts, pts[0]])
            hol = holonomy(form, polyline(pts, closed=True), cfg)
            assert np.linalg.norm(hol - I3) <= 1e-6

        report = check_section_path_independence()
        assert report.passed and report.max_residual <= 1e-6

        rng = np.random.RandomState(61)
        count = 0
        while count < 5:
            p = rng.standard_normal(3)
            p /= np.linalg.norm(p)
            if abs(p[2]) > 0.99:
                continue  # stay clear of the poles, where the axis degenerates
            count += 1
            computed, formula = unit_sphere_section(p)
            residual = min(
                np.linalg.norm(computed - formula), np.linalg.norm(computed + formula)
            )
            assert residual <= 1e-6
            q = computed if computed @ formula >= 0 else -computed
            angle = 2.0 * np.arctan2(np.linalg.norm(q[1:]), q[0])
            want = 2.0 * np.arccos(p[2])
            assert abs(angle - want) <= 1e-6
            axis = np.array([-p[1], p[0], 0.0])
            axis /= np.linalg.norm(axis)
            R = quat_to_rotation(computed)
            assert np.linalg.norm(R - exp_so3(want * axis)) <= 1e-6

        report = antipodal_check()
        assert report.passed and report.max_residual <= 1e-6


def test_criterion_08_inner_unit_sphere_is_identity():
    with criterion(8, "inner unit-sphere transport is the identity"):
        report = inner_unit_sphere_identity()
        assert report.passed and report.tolerance == 1e-12

        form = surface_rolling_form(sphere_surface(1.0, side="inner"))
        open_path = polyline(np.array([[1.0, -0.8], [1.4, 0.1], [0.9, 0.7]]))
        final = transport(form, open_path, config=IntegratorConfig(steps=512)).final
        assert np.linalg.norm(final - I3) <= 1e-12

        arc, surf = great_arc(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.8, 0.6]), side="inner"
        )
        final = transport(
            surface_rolling_form(surf), arc, config=IntegratorConfig(steps=512)
        ).final
        assert np.linalg.norm(final - I3) <= 1e-12


def test_criterion_09_residual_battery_all_green():
    with criterion(9, "standard residual checks all pass at stated tolerances"):
        reports = run_all_checks()
        assert len(reports) == 9
        for report in reports:
            assert report.passed, report.name
            assert report.max_residual <= report.tolerance, report.name


def test_criterion_10_holonomy_spans_so3():
    with criterion(10, "plane-rolling holonomy spans so(3); control is rank one"):
        assert holonomy_span_check().passed
        cfg = IntegratorConfig(steps=64)
        pl = plane_rolling_form()
        cols = []
        for loop in default_span_loops():
            w = log_so3(holonomy(pl, loop, cfg))
            cols.append(w / np.linalg.norm(w))
        sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        assert sv[-1] > 1e-4

        assert not holonomy_span_check(loops=degenerate_span_loops()).passed
        cols = []
        for loop in degenerate_span_loops():
            w = log_so3(holonomy(pl, loop, cfg))
            cols.append(w / np.linalg.norm(w))
        sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]


def test_criterion_11_cli_contract(tmp_path):
    with criterion(11, "CLI: byte-identical JSON, consistent rotations, exit codes"):
        out = tmp_path / "run.json"
        argv = [
            "transport", "--path", "line", "--xi", "0.3,-1,0.5",
            "--steps", "100", "--out", str(out),
        ]
        assert cli_main(argv) == 0
        first = out.read_bytes()
        assert cli_main(argv) == 0
        assert out.read_bytes() == first

        block = json.loads(first)["holonomy"]
        R = np.array(block["matrix"]).reshape(3, 3)
        assert np.linalg.norm(quat_to_rotation(np.array(block["quat"])) - R) <= 1e-9
        assert np.linalg.norm(exp_so3(block["angle"] * np.array(block["axis"])) - R) <= 1e-9

        assert cli_main(["transport", "--path", "line", "--xi", "a,b"]) == 1
        assert cli_main(["verify", "--check", "span-degenerate"]) == 2
