"""Seeded workloads: each is a list of operations with closed-form checks.

``build(name, seed)`` returns a :class:`Workload`. The seed fixes every
input; the composition of each workload (how many operations of each kind,
their step counts and sizes) is the same for every seed, so the work per
pass does not depend on the seed and runs with different seeds are
comparable. Only geometry and starting frames vary.

Operations reach the library through module attributes at call time
(``T.transport``, ``V.unit_sphere_section``, ``CLI.main``), so a traced
run can rebind those names from outside. The program receives only the
generated inputs: forms, paths and frames, or an argv list.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# the package re-exports the function ``transport`` over the submodule's name,
# so modules are taken from the import system rather than as attributes
CLI = importlib.import_module("liecurv.cli")
C = importlib.import_module("liecurv.connections")
T = importlib.import_module("liecurv.transport")
V = importlib.import_module("liecurv.verify")

import closed_forms as cf

LADDER_TOL = 1e-7  # equal-error target for the tol_solve cases
LADDER_START = 64
LADDER_CAP = 1 << 17  # a ladder that has not converged here counts as a failure
EXACT_TOL = 1e-9  # piecewise-constant inputs: the steppers are exact up to roundoff
SECTION_TOL = 1e-6
CURVATURE_TOL = 7.5e-4
BASEPOINT = np.array([0.0, 0.0, 1.0])


@dataclass
class Op:
    """One operation and the check of its result.

    ``run(timed)`` issues the operation and passes every call into the
    program through ``timed(fn)``, which times it; what ``run`` does
    between those calls (an equal-error solve judging its error) is not
    timed. ``check`` returns None when the result is right, else the reason
    it is not. ``intervals`` counts the integration intervals of a fixed-step case
    (for ``steps_per_s``); ``ladder`` marks an equal-error solve (for
    ``tol_solve_s``). ``must_refuse`` marks a request that the exit-code
    contract says must exit 1 with nothing on stdout; ``argv`` is set for
    CLI requests, whose stdout must be byte-identical on every issue.
    """

    label: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], str | None]
    intervals: int = 0
    ladder: bool = False
    must_refuse: bool = False
    argv: tuple[str, ...] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], Any]


def _frame_error(got, want, tol) -> str | None:
    err = float(np.linalg.norm(np.asarray(got, dtype=float) - want))
    if not err <= tol:  # also catches NaN
        return f"off the closed form by {err:.3e} (budget {tol:.1e})"
    return None


# ---------------------------------------------------------------------------
# library-level operations (flat-long, sphere-long)


def _transport_op(label, form, path, g0, steps, want, tol) -> Op:
    cfg = T.IntegratorConfig(steps=steps)
    return Op(
        label=label,
        run=lambda timed: timed(lambda: T.transport(form, path, g0, cfg)).final,
        check=lambda final: _frame_error(final, want @ g0, tol),
        intervals=cf.grid_intervals(steps, path.corners),
    )


def _ladder_op(label, form, path, g0, want) -> Op:
    """Equal-error solve: the library's default method, steps doubling from 64
    until the result is within LADDER_TOL of the closed form."""

    def run(timed):
        steps = LADDER_START
        while steps <= LADDER_CAP:
            cfg = T.IntegratorConfig(steps=steps)
            final = timed(lambda: T.transport(form, path, g0, cfg)).final
            err = float(np.linalg.norm(final - want @ g0))
            if err <= LADDER_TOL:
                return steps, err
            steps *= 2
        return None, err

    def check(result):
        steps, err = result
        if steps is None:
            return f"not within {LADDER_TOL:.0e} at {LADDER_CAP} steps (error {err:.3e})"
        return None

    return Op(label=label, run=run, check=check, ladder=True)


def _random_walk(rng, vertices: int, dim: int, scale: float) -> np.ndarray:
    return np.cumsum(np.vstack([rng.standard_normal(dim), scale * rng.standard_normal((vertices - 1, dim))]), axis=0)


def _plane_algebra(d) -> np.ndarray:
    # plane rolling: a = -omega(d) = (J d, 0) with J(d1, d2) = (d2, -d1)
    return np.array([d[1], -d[0], 0.0])


FLAT_STEPS = 12_000  # divisible by the polyline and figure-eight segment counts
FLAT_SEGMENTS = 400
FIGURE_EIGHT = np.array([
    [0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
    [1.0, -1.0, 0.0], [0.0, -2.0, 1.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 0.0],
])
LADDER_CIRCLE_RADIUS = 0.5  # natural circle: within 1e-7 at 8192 steps (5.1e-8), not at 4096 (2.0e-7)


def flat_long(rng) -> Workload:
    # Why: long transports under the flat forms (natural-so3, plane-rolling,
    # pullback-rhoJ). The form costs under 2 us of the ~30-45 us a step takes,
    # so this workload measures the stepping loop, exp_so3 and path
    # evaluation (circle and polyline), with the connections layer nearly
    # absent. It is the control for any change to connection evaluation:
    # there the prediction is no change. Every case has an exact reference:
    # lines and polylines have piecewise-constant inputs, circles rotate
    # about e3, and transport_quat on the figure-eight must match the
    # ordered quaternion product and, through the double cover, the doubled
    # path.
    natural = C.natural_form()
    plane = C.plane_rolling_form()
    pullback = C.pullback_form(C.PLANE_ROLLING_PULLBACK, C.natural_form())
    ops: list[Op] = []

    xi = rng.standard_normal(3)
    xi *= rng.uniform(1.0, 3.0) / np.linalg.norm(xi)
    ops.append(_transport_op("natural line", natural, T.line(rng.standard_normal(3), xi),
                             cf.random_rotation(rng), FLAT_STEPS, cf.rodrigues(xi), EXACT_TOL))
    for label, form in (("plane-rolling line", plane), ("pullback-rhoJ line", pullback)):
        d = rng.uniform(-2.0, 2.0, 2)
        ops.append(_transport_op(label, form, T.line(rng.standard_normal(2), d),
                                 cf.random_rotation(rng), FLAT_STEPS, cf.rodrigues(_plane_algebra(d)), EXACT_TOL))

    P = _random_walk(rng, FLAT_SEGMENTS + 1, 3, 0.08)
    ops.append(_transport_op("natural polyline", natural, T.polyline(P), cf.random_rotation(rng),
                             FLAT_STEPS, cf.ordered_product(np.diff(P, axis=0)), EXACT_TOL))
    for label, form in (("plane-rolling polyline", plane), ("pullback-rhoJ polyline", pullback)):
        P = _random_walk(rng, FLAT_SEGMENTS + 1, 2, 0.08)
        want = cf.ordered_product([_plane_algebra(d) for d in np.diff(P, axis=0)])
        ops.append(_transport_op(label, form, T.polyline(P), cf.random_rotation(rng), FLAT_STEPS, want, EXACT_TOL))

    # circles in the e1-e2 plane starting at angle 0: a(t) = Rz(2 pi t) a0
    rho = rng.uniform(0.3, 1.0)
    want, tol = cf.rotating_frame([0.0, 2 * np.pi * rho, 0.0], 2 * np.pi, FLAT_STEPS)
    ops.append(_transport_op("natural circle", natural, T.circle(rng.standard_normal(3), rho),
                             cf.random_rotation(rng), FLAT_STEPS, want, tol))
    rho = rng.uniform(0.3, 1.0)
    want, tol = cf.rotating_frame([2 * np.pi * rho, 0.0, 0.0], 2 * np.pi, FLAT_STEPS)
    ops.append(_transport_op("plane-rolling circle", plane, T.circle(rng.standard_normal(2), rho),
                             cf.random_rotation(rng), FLAT_STEPS, want, tol))

    # transport_quat on a rotated, scaled figure-eight
    P = rng.uniform(0.5, 1.0) * FIGURE_EIGHT @ cf.random_rotation(rng).T
    path8 = T.polyline(P, closed=True)
    q0 = cf.random_quat(rng)
    q_want = q0
    for d in np.diff(P, axis=0):
        q_want = cf.quat_mul(cf.quat_exp(d), q_want)
    doubled = cf.ordered_product(2.0 * np.diff(P, axis=0)) @ cf.quat_rotation(q0)
    cfg8 = T.IntegratorConfig(steps=FLAT_STEPS)

    def check_quat(q):
        lift = float(np.linalg.norm(np.asarray(q, dtype=float) - q_want))
        if not lift <= EXACT_TOL:
            return f"quaternion off the ordered product by {lift:.3e}"
        return _frame_error(cf.quat_rotation(q), doubled, 1e-7)

    ops.append(Op("transport_quat figure-eight", lambda timed: timed(lambda: T.transport_quat(path8, q0, cfg8)).final,
                  check_quat, intervals=cf.grid_intervals(FLAT_STEPS, path8.corners)))

    want, _ = cf.rotating_frame([0.0, 2 * np.pi * LADDER_CIRCLE_RADIUS, 0.0], 2 * np.pi, 1)
    ops.append(_ladder_op("natural circle to 1e-7", natural,
                          T.circle(rng.standard_normal(3), LADDER_CIRCLE_RADIUS), cf.random_rotation(rng), want))

    warm = T.IntegratorConfig(steps=LADDER_START)
    return Workload("flat-long", ops, lambda: T.transport(natural, T.line(np.zeros(3), xi), None, warm))


SPHERE_STEPS = 4096
# (radius, colatitude) of the sphere-outer ladders: each is within 1e-7 at
# 16384 steps and not at 8192 (r = 2: 5.0e-8 / 2.0e-7; r = 0.5: 4.3e-8 / 1.7e-7)
SPHERE_LADDERS = ((2.0, 1.1), (0.5, 1.0))


def _latitude(rng, radius, side, theta=None, full=False):
    """Chart line theta = theta0, phi = phi0 + Phi t and its algebra input at t = 0."""
    theta = rng.uniform(0.6, np.pi - 0.6) if theta is None else theta
    phi0 = rng.uniform(-np.pi, np.pi)
    Phi = 2 * np.pi if full else rng.uniform(np.pi, 2 * np.pi)
    a0 = cf.sphere_algebra(radius, side, theta, phi0, (0.0, Phi))
    return T.line(np.array([theta, phi0]), np.array([0.0, Phi])), a0, Phi


def _far_point(rng, *others) -> np.ndarray:
    # great arcs need well-separated, non-antipodal endpoints
    while True:
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        if all(abs(float(p @ o)) <= 0.99 for o in others):
            return p


def _section_op(label, p, steps, legs=None) -> Op:
    cfg = T.IntegratorConfig(steps=steps)
    formula = cf.section_formula(p)

    def check(result):
        q, _ = result
        err = cf.sign_free_distance(q, formula)
        if not err <= SECTION_TOL:
            return f"section off (z, -y, x, 0) by {err:.3e}"
        return None

    return Op(label, lambda timed: timed(lambda: V.unit_sphere_section(p, config=cfg, legs=legs)), check,
              intervals=steps * (1 if legs is None else len(legs)))


def sphere_long(rng) -> Workload:
    # Why: long transports under the surface-rolling forms. The form costs
    # ~109 us of the ~152 us a step takes (np.cross and two chart
    # evaluations per step), so here the connections layer dominates, unlike
    # flat-long. Latitudes rotate about e3 and have a closed form; the inner
    # unit sphere transports nothing; unit-sphere sections (through
    # verify.lift_transport, the quaternion stepping loop) must land on
    # (z, -y, x, 0) whether reached directly or via a waypoint. The two
    # equal-error solves (r = 2 and r = 0.5) take turns, one per pass.
    ops: list[Op] = []

    def form(side, r):
        return C.surface_rolling_form(C.sphere_surface(r, side=side))

    for r, theta in SPHERE_LADDERS:
        path, a0, Phi = _latitude(rng, r, "outer", theta=theta, full=True)
        want, _ = cf.rotating_frame(a0, Phi, 1)
        ops.append(_ladder_op(f"sphere-outer r={r} latitude to 1e-7", form("outer", r), path,
                              cf.random_rotation(rng), want))
    for side, r in (("outer", 2.0), ("outer", 0.5), ("inner", 2.0)):
        path, a0, Phi = _latitude(rng, r, side)
        want, tol = cf.rotating_frame(a0, Phi, SPHERE_STEPS)
        ops.append(_transport_op(f"sphere-{side} r={r} latitude", form(side, r), path,
                                 cf.random_rotation(rng), SPHERE_STEPS, want, tol))
    loop = T.circle(np.array([rng.uniform(1.0, np.pi - 1.0), rng.uniform(-np.pi, np.pi)]), rng.uniform(0.2, 0.4))
    ops.append(_transport_op("sphere-inner r=1 loop", form("inner", 1.0), loop, cf.random_rotation(rng),
                             SPHERE_STEPS, np.eye(3), 1e-12))

    p = _far_point(rng, BASEPOINT)
    ops.append(_section_op("unit-sphere section, direct arc", p, SPHERE_STEPS))
    p = _far_point(rng, BASEPOINT)
    m = _far_point(rng, BASEPOINT, p)
    legs = [T.great_arc(BASEPOINT, m), T.great_arc(m, p)]
    ops.append(_section_op("unit-sphere section, via a waypoint", p, SPHERE_STEPS // 2, legs))

    warm_form = form("outer", 2.0)
    warm_path, _, _ = _latitude(rng, 2.0, "outer")
    warm = T.IntegratorConfig(steps=LADDER_START)
    return Workload("sphere-long", ops, lambda: T.transport(warm_form, warm_path, None, warm))


# ---------------------------------------------------------------------------
# CLI requests (cli-mix)


def call_cli(argv) -> tuple[int, str]:
    """One in-process CLI request: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.main(list(argv))
    return code, out.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON output")


def load_doc(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def _vec(v) -> str:
    return ",".join(repr(float(c)) for c in np.atleast_1d(v))


def _request(label, argv, check, intervals=0, must_refuse=False) -> Op:
    argv = tuple(argv)
    return Op(label, lambda timed: timed(lambda: call_cli(argv)), check, intervals=intervals,
              must_refuse=must_refuse, argv=argv)


def _check_rotation_doc(want, tol):
    def check(result):
        code, out = result
        if code != 0:
            return f"exit {code}"
        doc = load_doc(out)
        hol = doc["holonomy"]
        M = np.array(hol["matrix"], dtype=float).reshape(3, 3)
        reason = _frame_error(M, want, tol)
        if reason:
            return "holonomy " + reason
        if np.linalg.norm(cf.quat_rotation(hol["quat"]) - M) > 1e-9:
            return "holonomy quat and matrix disagree"
        traj = doc["trajectory"]
        if traj[0]["t"] != 0.0 or traj[-1]["t"] != 1.0:
            return "trajectory does not span [0, 1]"
        if cf.sign_free_distance(traj[-1]["quat"], hol["quat"]) > 1e-12:
            return "last trajectory row differs from the holonomy"
        return None

    return check


def _check_refused(result):
    code, out = result
    if code != 1 or out:
        return f"invalid request not refused: exit {code}, {len(out)} bytes on stdout"
    return None


SHORT_STEPS = (16, 32, 64, 128, 256, 1024)  # 1024 gives the full 1025-row trajectory
CURVED_STEPS = (64, 128, 256)
# the sphere curvature requests and verify sphere-curvature-factor (~0.12 s
# each) make up the slowest class; with eight of the former the 95th
# percentile falls inside that class rather than at its edge
CURVATURE_CONNECTIONS = ("natural-so3", "plane-rolling", "pullback-rhoJ", "sphere-outer", "sphere-inner",
                         "sphere-outer", "sphere-inner")
FAST_CHECKS = (  # verify checks that take under ~0.2 s each at the seed
    "alpha-naturality", "omega-naturality", "curvature-naturality", "inner-unit-sphere-identity",
    "plane-rolling-span", "sphere-curvature-factor",
)


def _line_requests(rng, count):
    for i in range(count):
        steps = SHORT_STEPS[i % len(SHORT_STEPS)]
        method = "euler" if i % 4 == 3 else "midpoint"
        conn = ("natural-so3", "plane-rolling", "pullback-rhoJ")[i % 3]
        dim = 3 if conn == "natural-so3" else 2
        xi = rng.uniform(-1.5, 1.5, dim)
        want = cf.rodrigues(xi if dim == 3 else _plane_algebra(xi))
        argv = ["transport", f"--connection={conn}", "--path=line", f"--xi={_vec(xi)}",
                f"--steps={steps}", f"--method={method}"]
        if i % 2:
            argv.append(f"--x0={_vec(rng.standard_normal(dim))}")
        yield _request(f"transport {conn} line", argv, _check_rotation_doc(want, EXACT_TOL), intervals=steps)


def _polyline_requests(rng, count):
    for i in range(count):
        steps = SHORT_STEPS[i % len(SHORT_STEPS)]
        conn = ("natural-so3", "plane-rolling", "pullback-rhoJ")[i % 3]
        dim = 3 if conn == "natural-so3" else 2
        P = _random_walk(rng, 3 + i % 6, dim, 0.7)
        incs = np.diff(P, axis=0) if dim == 3 else [_plane_algebra(d) for d in np.diff(P, axis=0)]
        argv = ["transport", f"--connection={conn}", "--path=polyline",
                "--points=" + ";".join(_vec(p) for p in P), f"--steps={steps}"]
        corners = np.linspace(0.0, 1.0, len(P))[1:-1]
        yield _request(f"transport {conn} polyline", argv, _check_rotation_doc(cf.ordered_product(incs), EXACT_TOL),
                       intervals=cf.grid_intervals(steps, corners))


def _square_requests(rng, count):
    for i in range(count):
        steps = SHORT_STEPS[i % len(SHORT_STEPS)]
        conn = ("natural-so3", "plane-rolling", "pullback-rhoJ")[i % 3]
        dim = 3 if conn == "natural-so3" else 2
        eps = rng.uniform(0.2, 1.5)
        e1, e2 = np.eye(dim)[0], np.eye(dim)[1]
        legs = [eps * e1, eps * e2, -eps * e1, -eps * e2]
        incs = legs if dim == 3 else [_plane_algebra(d) for d in legs]
        argv = ["holonomy", f"--connection={conn}", "--path=square", f"--eps={eps!r}",
                f"--x0={_vec(rng.standard_normal(dim))}", f"--steps={steps}"]
        yield _request(f"holonomy {conn} square", argv, _check_rotation_doc(cf.ordered_product(incs), EXACT_TOL),
                       intervals=cf.grid_intervals(steps, (0.25, 0.5, 0.75)))


def _circle_requests(rng, count):
    for i in range(count):
        steps = CURVED_STEPS[i % len(CURVED_STEPS)]
        conn = ("natural-so3", "plane-rolling")[i % 2]
        dim = 3 if conn == "natural-so3" else 2
        rho = rng.uniform(0.2, 1.0)
        a0 = [0.0, 2 * np.pi * rho, 0.0] if dim == 3 else [2 * np.pi * rho, 0.0, 0.0]
        want, tol = cf.rotating_frame(a0, 2 * np.pi, steps)
        argv = ["holonomy", f"--connection={conn}", "--path=circle", f"--eps={rho!r}",
                f"--x0={_vec(rng.standard_normal(dim))}", f"--steps={steps}"]
        yield _request(f"holonomy {conn} circle", argv, _check_rotation_doc(want, tol), intervals=steps)


def _sphere_requests(rng, count):
    for i in range(count):
        steps = CURVED_STEPS[i % len(CURVED_STEPS)]
        if i % 5 == 4:
            # rolling inside the unit sphere transports nothing
            x0 = [rng.uniform(1.0, np.pi - 1.0), rng.uniform(-np.pi, np.pi)]
            shape = ("circle", "square")[i % 2]
            argv = ["holonomy", "--connection=sphere-inner", "--radius=1.0", f"--path={shape}",
                    f"--eps={rng.uniform(0.1, 0.4)!r}", f"--x0={_vec(x0)}", f"--steps={steps}"]
            corners = (0.25, 0.5, 0.75) if shape == "square" else ()
            yield _request("holonomy sphere-inner r=1 loop", argv, _check_rotation_doc(np.eye(3), 1e-12),
                           intervals=cf.grid_intervals(steps, corners))
            continue
        side = ("outer", "inner")[i % 2]
        r = rng.uniform(0.5, 3.0)
        path, a0, Phi = _latitude(rng, r, side)
        want, tol = cf.rotating_frame(a0, Phi, steps)
        argv = ["transport", f"--connection=sphere-{side}", f"--radius={r!r}", "--path=line",
                f"--x0={_vec(path.position(0.0))}", f"--xi={_vec(path.velocity(0.0))}", f"--steps={steps}"]
        yield _request(f"transport sphere-{side} latitude", argv, _check_rotation_doc(want, tol), intervals=steps)


def _curvature_requests(rng, count):
    for i in range(count):
        conn = CURVATURE_CONNECTIONS[i % len(CURVATURE_CONNECTIONS)]
        argv = ["curvature", f"--connection={conn}"]
        expected = 1.0
        if conn.startswith("sphere-"):
            r = rng.uniform(0.5, 5.0)
            argv.append(f"--radius={r!r}")
            expected = 1.0 - 1.0 / (r * r)

        def check(result, expected=expected, conn=conn):
            code, out = result
            if conn == "pullback-rhoJ" and code == 1 and not out:
                return None  # no closed form catalogued: a refusal with a message is allowed
            if code != 0:
                return f"exit {code}"
            cur = load_doc(out)["curvature"]
            err = abs(cur["factor"] - expected)
            if not err <= CURVATURE_TOL:
                return f"curvature factor off 1 - 1/r^2 by {err:.3e}"
            if abs(cur["expected_factor"] - expected) > 1e-12:
                return "expected_factor is not 1 - 1/r^2"
            return None

        yield _request(f"curvature {conn}", argv, check)


def _section_requests(rng, count):
    for _ in range(count):
        p = rng.standard_normal(3)
        p *= rng.uniform(0.5, 2.0) / np.linalg.norm(p)
        unit = p / np.linalg.norm(p)

        def check(result, unit=unit):
            code, out = result
            if code != 0:
                return f"exit {code}"
            doc = load_doc(out)
            sec = doc["section"]
            if np.linalg.norm(np.array(sec["point"]) - unit) > 1e-12:
                return "section point is not the normalized request point"
            err = cf.sign_free_distance(sec["computed_quat"], cf.section_formula(unit))
            if not err <= SECTION_TOL:
                return f"section off (z, -y, x, 0) by {err:.3e}"
            if not all(r["passed"] for r in doc["reports"]):
                return "section report failed"
            return None

        yield _request("section", ["section", f"--point={_vec(p)}"], check)


def _verify_requests(rng):
    def passed(result):
        code, out = result
        reports = load_doc(out)["reports"] if out else []
        if code != 0 or not reports or not all(r["passed"] for r in reports):
            return f"verify failed: exit {code}"
        return None

    def control_fails(result):
        code, out = result
        reports = load_doc(out)["reports"] if out else []
        if code != 2 or not reports or any(r["passed"] for r in reports):
            return f"control fixture did not fail: exit {code}"
        return None

    for name in FAST_CHECKS:
        yield _request(f"verify {name}", ["verify", f"--check={name}", f"--seed={int(rng.integers(0, 10_000))}"], passed)
    # span-degenerate is a control built to fail: the contract answer is exit 2
    yield _request("verify span-degenerate", ["verify", "--check=span-degenerate"], control_fails)


def _invalid_requests(rng):
    """Requests the contract says must exit 1 with an empty stdout.

    Some are mishandled at the seed (the overflowing --xi prints NaN and
    exits 0; non-finite --point exits 2); they stay in the mix on purpose.
    """
    a, b = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
    bad = [
        ["transport", f"--xi=nan,{a!r},{b!r}"],
        ["transport", "--connection=plane-rolling", f"--xi={a!r},inf"],
        ["transport", f"--xi={a!r},-inf,{b!r}"],
        ["transport", f"--xi=1e300,{a!r},{b!r}"],
        ["transport", "--connection=pullback-rhoJ", f"--xi={a!r},-1e300"],
        ["section", f"--point=nan,{a!r},{b!r}"],
        ["section", f"--point={a!r},inf,{b!r}"],
        ["transport", "--connection=sphere-outer", f"--radius={rng.uniform(0.5, 3.0)!r}", "--path=line",
         f"--x0={rng.uniform(1e-4, 9e-4)!r},{a!r}", f"--xi=0.5,{b!r}"],
        ["holonomy", "--connection=sphere-inner", "--path=circle", "--eps=0.2", f"--x0=3.1414,{a!r}"],
        ["holonomy", "--path=line", f"--xi={a!r},{b!r},0.5"],
    ]
    for argv in bad:
        if argv[0] != "section":
            argv.append("--steps=64")
        yield _request("invalid: " + " ".join(argv), argv, _check_refused, must_refuse=True)


def cli_mix(rng) -> Workload:
    # Why: a seeded stream of short requests through liecurv.cli.main(argv),
    # issued in process by one caller that waits for each result (a closed
    # loop). A fixed per-request cost dominates: argparse (~1.5 ms), building
    # the form and path, the grid, and rotation_to_quat on each of up to
    # 1025 trajectory rows before json.dumps. A batched stepping engine gains
    # little here and any extra per-call setup shows. All five subcommands
    # appear; a minority of requests must be refused with exit 1. A fixed
    # subset is issued twice per pass (and every request again on every
    # later pass) to hold the CLI to byte-identical output.
    ops = [
        *_line_requests(rng, 12),
        *_polyline_requests(rng, 9),
        *_square_requests(rng, 6),
        *_circle_requests(rng, 6),
        *_sphere_requests(rng, 10),
        *_curvature_requests(rng, 14),
        *_section_requests(rng, 6),
        *_verify_requests(rng),
        *_invalid_requests(rng),
    ]
    # byte-identity probe: the first valid request generated for each
    # subcommand is issued again at the end of every pass
    first: dict[str, Op] = {}
    for op in ops:
        if not op.must_refuse:
            first.setdefault(op.argv[0], op)
    ops = [ops[i] for i in rng.permutation(len(ops))] + list(first.values())

    # equal-error solve through the CLI: double --steps until the holonomy of
    # the natural circle is within 1e-7 of exp(c'(0) - 2 pi e3)
    want, _ = cf.rotating_frame([0.0, 2 * np.pi * LADDER_CIRCLE_RADIUS, 0.0], 2 * np.pi, 1)
    x0 = _vec(rng.standard_normal(3))

    def ladder(timed):
        steps = LADDER_START
        while steps <= LADDER_CAP:
            argv = ["holonomy", "--path=circle", f"--eps={LADDER_CIRCLE_RADIUS!r}", f"--x0={x0}", f"--steps={steps}"]
            code, out = timed(lambda: call_cli(argv))
            if code != 0:
                return None, f"exit {code}"
            M = np.array(load_doc(out)["holonomy"]["matrix"]).reshape(3, 3)
            err = float(np.linalg.norm(M - want))
            if err <= LADDER_TOL:
                return steps, err
            steps *= 2
        return None, err

    def check_ladder(result):
        steps, err = result
        return None if steps is not None else f"CLI ladder did not reach {LADDER_TOL:.0e}: {err}"

    ops.append(Op("holonomy natural circle to 1e-7 (CLI)", ladder, check_ladder, ladder=True))
    return Workload("cli-mix", ops, lambda: call_cli(["transport", "--xi=0,0,1", "--steps=16"]))


WORKLOADS = {"flat-long": flat_long, "sphere-long": sphere_long, "cli-mix": cli_mix}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed))
