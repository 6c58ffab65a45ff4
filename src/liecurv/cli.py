"""Command-line interface: transport runs, holonomy, curvature, checks, sections.

Subcommands
-----------
transport   integrate a frame along a path and dump the trajectory
holonomy    transport around a closed path; reports the loop's rotation
curvature   estimate curvature from small loops and compare with closed form
verify      run residual checks (--all or --check NAME); failures exit 2
section     integrate the unit-sphere rolling section at a point

Output is a JSON document (sorted keys, fixed separators, so identical
requests produce byte-identical bytes) or a CSV trajectory. Exit codes:
0 success, 1 invalid request or runtime error, 2 at least one verification
check failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .connections import (
    PLANE_ROLLING_PULLBACK,
    LocalConnectionForm,
    natural_form,
    plane_rolling_form,
    pullback_form,
    sphere_surface,
    surface_rolling_form,
)
from .liecore import quat_to_rotation, rotation_to_quat
from .transport import (
    IntegratorConfig,
    PathSpec,
    line,
    circle,
    parallelogram_loop,
    polyline,
    transport,
)
from . import verify as _verify

_CONNECTIONS = ("natural-so3", "plane-rolling", "sphere-outer", "sphere-inner", "pullback-rhoJ")
_PATHS = ("line", "circle", "square", "polyline", "file")
_METHODS = {"euler": "lie-euler", "midpoint": "exp-midpoint"}
_NEGATIVE_VALUE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)

@dataclass(frozen=True)
class RunRequest:
    """Normalized CLI request; everything the run depends on, seed included."""

    command: str
    connection: str = "natural-so3"
    radius: float = 1.0
    path: str = "line"
    xi: tuple[float, ...] | None = None
    x0: tuple[float, ...] | None = None
    points: tuple[tuple[float, ...], ...] | None = None
    file: str | None = None
    point: tuple[float, ...] | None = None
    eps: float | None = None  # None: 1e-2 for curvature, else 1.0
    steps: int | None = None
    method: str = "midpoint"
    format: str = "json"
    out: str | None = None
    seed: int = 0
    check: str | None = None
    all_checks: bool = False

    def __post_init__(self):
        # the effective loop scale is part of the echoed request
        if self.eps is None:
            object.__setattr__(self, "eps", 1e-2 if self.command == "curvature" else 1.0)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this CLI reserves
    # for verification failures; report usage problems as invalid requests
    def error(self, message):
        raise ValueError(message)


def _vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as e:
        raise ValueError(f"cannot parse vector {text!r}: {e}") from None


def _point_list(text: str) -> tuple[tuple[float, ...], ...]:
    rows = [r for r in (chunk.strip() for chunk in text.split(";")) if r]
    if not rows:
        raise ValueError("empty point list")
    pts = tuple(_vector(r) for r in rows)
    if len({len(p) for p in pts}) != 1:
        raise ValueError("points have inconsistent dimensions")
    return pts


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="liecurv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, connection=True, path=True):
        if connection:
            p.add_argument("--connection", choices=_CONNECTIONS, default="natural-so3")
            p.add_argument("--radius", type=float, default=1.0, help="sphere radius for sphere connections")
            p.add_argument("--eps", type=float, default=None,
                           help="square side or circle radius (default 1); curvature loop scale (default 1e-2)")
        if path:
            p.add_argument("--path", choices=_PATHS, default="line")
            p.add_argument("--xi", type=str, default=None, help="line direction, comma separated")
            p.add_argument("--x0", type=str, default=None, help="start point / center, comma separated")
            p.add_argument("--points", type=str, default=None, help="polyline vertices 'x,y;x,y;...'")
            p.add_argument("--file", type=str, default=None, help="CSV path file (header t,x1,...,xd)")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--method", choices=sorted(_METHODS), default="midpoint")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None)

    add_common(sub.add_parser("transport", help="integrate a frame along a path"))
    add_common(sub.add_parser("holonomy", help="transport around a closed path"))
    add_common(sub.add_parser("curvature", help="small-loop curvature vs closed form"), path=False)

    pv = sub.add_parser("verify", help="run residual checks")
    add_common(pv, connection=False, path=False)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--check", choices=sorted(_verify.CHECKS), default=None)
    pv.add_argument("--all", action="store_true", dest="all_checks")

    ps = sub.add_parser("section", help="unit-sphere rolling section at a point")
    add_common(ps, connection=False, path=False)
    ps.add_argument("--point", type=str, default="1,0,0", help="target point on the unit sphere")
    return parser


def parse_args(argv=None) -> RunRequest:
    """Parse command-line arguments into a :class:`RunRequest`.

    ``--xi -1,0,0`` parses as ``--xi=-1,0,0``; argparse alone would read the
    value as an option. Raises ValueError on any usage problem (exit code 1).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and _NEGATIVE_VALUE.match(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    ns = vars(_parser().parse_args(argv))
    for name, parse in (("xi", _vector), ("x0", _vector), ("points", _point_list), ("point", _vector)):
        if name in ns:
            ns[name] = parse(ns[name]) if ns[name] else None
    return RunRequest(**ns)


def read_path_file(filename: str) -> PathSpec:
    """Build a polyline from a CSV file with header ``t,x1,...,xd``.

    Every row must carry the full coordinate count; :func:`polyline` refuses
    parameter values that do not increase strictly or do not cover [0, 1].
    """
    with open(filename, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 3:
        raise ValueError("path file needs a header and at least two data rows")
    header = [c.strip() for c in rows[0]]
    d = len(header) - 1
    if d < 1 or header[0] != "t" or header[1:] != [f"x{i + 1}" for i in range(d)]:
        raise ValueError(f"path file header must be t,x1,...,xd; got {','.join(header)}")
    times, points = [], []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise ValueError(f"row {idx} has {len(row)} fields, expected {d + 1}")
        try:
            vals = [float(c) for c in row]
        except ValueError as e:
            raise ValueError(f"row {idx}: {e}") from None
        times.append(vals[0])
        points.append(vals[1:])
    return polyline(points, times=times)


def _build_connection(req: RunRequest) -> LocalConnectionForm:
    if req.connection == "natural-so3":
        return natural_form()
    if req.connection == "plane-rolling":
        return plane_rolling_form()
    if req.connection in ("sphere-outer", "sphere-inner"):
        return surface_rolling_form(sphere_surface(req.radius, side=req.connection.split("-")[1]))
    if req.connection == "pullback-rhoJ":
        return pullback_form(PLANE_ROLLING_PULLBACK, natural_form())
    raise ValueError(f"unknown connection {req.connection!r}")


def _build_path(req: RunRequest, dim: int) -> PathSpec:
    def base_point() -> np.ndarray:
        if req.x0 is None:
            if req.connection in ("sphere-outer", "sphere-inner"):
                raise ValueError(f"--connection {req.connection} requires --x0 (colatitude, longitude): "
                                 "the default (0, 0) is the sphere chart's pole")
            return np.zeros(dim)
        x0 = np.asarray(req.x0, dtype=float)
        if x0.shape != (dim,):
            raise ValueError(f"--x0 must have dimension {dim}")
        return x0

    if req.path == "line":
        if req.xi is None:
            raise ValueError("--path line requires --xi")
        xi = np.asarray(req.xi, dtype=float)
        if xi.shape != (dim,):
            raise ValueError(f"--xi must have dimension {dim}")
        return line(base_point(), xi)
    if req.path == "circle":
        return circle(base_point(), req.eps)
    if req.path == "square":
        e1, e2 = np.eye(dim)[:2]
        return parallelogram_loop(base_point(), e1, e2, req.eps)
    if req.path == "polyline":
        if req.points is None:
            raise ValueError("--path polyline requires --points")
        pts = np.asarray(req.points, dtype=float)
        if pts.shape[1] != dim:
            raise ValueError(f"--points must have dimension {dim}")
        return polyline(pts)
    if req.path == "file":
        if req.file is None:
            raise ValueError("--path file requires --file")
        c = read_path_file(req.file)
        if c.base_dim != dim:
            raise ValueError(f"path file dimension {c.base_dim} does not match connection dimension {dim}")
        return c
    raise ValueError(f"unknown path {req.path!r}")


def _config(req: RunRequest) -> IntegratorConfig | None:
    method = _METHODS[req.method]
    if req.steps is None:
        return IntegratorConfig(method=method) if method != "exp-midpoint" else None
    return IntegratorConfig(method=method, steps=req.steps)


def _rotation_block(R: np.ndarray, q: np.ndarray | None = None) -> dict:
    q = rotation_to_quat(R) if q is None else q
    im = q[1:]
    n = float(np.linalg.norm(im))
    angle = 2.0 * float(np.arctan2(n, q[0]))
    axis = [0.0, 0.0, 0.0] if n < 1e-15 else [float(c) for c in im / n]
    return {
        "matrix": [float(c) for c in R.reshape(-1)],
        "quat": [float(c) for c in q],
        "axis": axis,
        "angle": angle,
    }


def _trajectory(states) -> list[dict]:
    """Trajectory rows from a result's stacked ``states``: one ``rotation_to_quat`` and one ``tolist`` per stack."""
    ts, xs, gs = states
    return [{"t": t, "x": x, "quat": q} for t, x, q in zip(ts.tolist(), xs.tolist(), rotation_to_quat(gs).tolist())]


def run(req: RunRequest) -> dict:
    """Execute a request; returns the result document as plain Python data."""
    doc = {
        "request": dict(vars(req)),  # its fields are flat: str, numbers, None, tuples
        "holonomy": None,
        "trajectory": [],
        "reports": [],
        "curvature": None,
        "section": None,
    }

    if req.command in ("transport", "holonomy"):
        form = _build_connection(req)
        path = _build_path(req, form.base_dim)
        cfg = _config(req)
        if req.command == "holonomy" and not path.closed:
            raise ValueError("holonomy requires a closed path")
        res = transport(form, path, config=cfg)
        doc["trajectory"] = _trajectory(res.states)
        # the last sample's frame is res.final, so its quaternion is already known
        doc["holonomy"] = _rotation_block(res.final, np.array(doc["trajectory"][-1]["quat"]))
        return doc

    if req.command == "curvature":
        cfg = _config(req)
        if req.connection in ("sphere-outer", "sphere-inner"):
            # eps names the embedded loop scale; the factor recovers 1 - 1/r^2
            est, ref, factor, expected = _verify.sphere_curvature_probe(
                req.radius, req.connection.split("-")[1], req.eps, cfg)
        else:
            form = _build_connection(req)
            est, ref, factor = _verify.curvature_probe(form, np.zeros(form.base_dim), req.eps, cfg)
            expected = 1.0
        doc["curvature"] = {
            "estimate": [float(c) for c in est],
            "closed_form": [float(c) for c in ref],
            "factor": factor,
            "expected_factor": expected,
        }
        return doc

    if req.command == "verify":
        if not req.all_checks and req.check is None:
            raise ValueError("verify needs --all or --check NAME")
        cfg = _config(req)
        if req.all_checks:
            reports = _verify.run_all_checks(config=cfg, seed=req.seed)
        else:
            reports = [_verify.run_check(req.check, seed=req.seed, config=cfg)]
        doc["reports"] = [dict(vars(r)) for r in reports]
        return doc

    if req.command == "section":
        p = np.asarray(req.point, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("--point must be a finite 3-vector")
        with np.errstate(over="ignore"):  # refused just below
            n = np.linalg.norm(p)
        if n == np.inf:
            raise ValueError(f"--point is too large: the norm of {req.point} overflows")
        if n < 1e-12:
            raise ValueError(f"--point must have norm at least 1e-12; the norm of {req.point} is below it")
        p = p / n
        cfg = _config(req)
        computed, formula = _verify.unit_sphere_section(p, config=cfg)
        residual = _verify.section_residual(computed, formula)
        doc["section"] = {
            "point": [float(c) for c in p],
            "computed_quat": [float(c) for c in computed],
            "formula_quat": [float(c) for c in formula],
            "residual": residual,
        }
        doc["holonomy"] = _rotation_block(quat_to_rotation(computed))
        doc["reports"] = [dict(vars(_verify.ResidualReport("section-formula", residual, 1, 1e-6)))]
        return doc

    raise ValueError(f"unknown command {req.command!r}")


def write_result(doc: dict, fmt: str = "json", out: str | None = None) -> str:
    """Serialize a result document; write to ``out`` or return the text.

    JSON uses sorted keys and fixed separators so identical requests yield
    byte-identical bytes. CSV emits the trajectory only (17 significant
    digits) and therefore requires a transport or holonomy result. A
    non-finite number raises ValueError in either format: NaN and infinity
    are not valid JSON, and no result may carry them.
    """
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    elif fmt == "csv":
        traj = doc.get("trajectory") or []
        if not traj:
            raise ValueError("csv format requires a trajectory (transport or holonomy run)")
        d = len(traj[0]["x"])
        lines = ["t," + ",".join(f"x{i + 1}" for i in range(d)) + ",qw,qx,qy,qz"]
        for row in traj:
            vals = [row["t"], *row["x"], *row["quat"]]
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"non-finite value in trajectory row at t = {row['t']!r}")
            lines.append(",".join("%.17g" % v for v in vals))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    return text


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, 1 invalid request, 2 check failure."""
    try:
        req = parse_args(argv)
        doc = run(req)
        text = write_result(doc, req.format, req.out)
        if not req.out:
            sys.stdout.write(text)
        if any(not r["passed"] for r in doc["reports"]):
            return 2
        return 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
