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

import numpy as np

from .connections import (PLANE_ROLLING_PULLBACK, natural_form, plane_rolling_form, pullback_form, sphere_surface,
                          surface_rolling_form)
from .liecore import canonical_quat, quat_to_rotation
from .transport import METHODS, IntegratorConfig, PathSpec, circle, line, parallelogram_loop, polyline, transport
from . import verify as _verify

# each connection's form at a radius, which only the sphere connections read; a sphere's name is "sphere-<side>"
_CONNECTIONS = {
    "natural-so3": lambda radius: natural_form(),
    "plane-rolling": lambda radius: plane_rolling_form(),
    "sphere-outer": lambda radius: surface_rolling_form(sphere_surface(radius, side="outer")),
    "sphere-inner": lambda radius: surface_rolling_form(sphere_surface(radius, side="inner")),
    "pullback-rhoJ": lambda radius: pullback_form(PLANE_ROLLING_PULLBACK, natural_form()),
}
_PATHS = ("line", "circle", "square", "polyline", "file")
_METHODS = {name.split("-")[-1]: name for name in METHODS}  # CLI name: the library name's last word
_NEGATIVE_VALUE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)
# The request: every key but ``command``, with its default (the table's first connection). Each subparser starts
# from all of them, so every request carries and echoes the same keys, at the default where an option is not taken.
_REQUEST = {"connection": next(iter(_CONNECTIONS)), "radius": 1.0, "path": "line", "xi": None, "x0": None,
            "points": None, "file": None, "point": None, "eps": 1.0, "steps": None, "method": "midpoint",
            "format": "json", "out": None, "seed": 0, "check": None, "all_checks": False}


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
    """The argument parser, built on first use and shared by later calls: the CLI's one request schema. Its options
    carry no defaults; each subparser takes :data:`_REQUEST`'s, and curvature and section override one each."""
    parser = _Parser(prog="liecurv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, connection=True, path=True, **defaults):
        p.set_defaults(**{**_REQUEST, **defaults})
        if connection:
            p.add_argument("--connection", choices=_CONNECTIONS)
            p.add_argument("--radius", type=float, help="sphere radius for sphere connections")
            p.add_argument("--eps", type=float,
                           help="square side or circle radius (default 1); curvature loop scale (default 1e-2)")
        if path:
            p.add_argument("--path", choices=_PATHS)
            p.add_argument("--xi", type=str, help="line direction, comma separated")
            p.add_argument("--x0", type=str, help="start point / center, comma separated")
            p.add_argument("--points", type=str, help="polyline vertices 'x,y;x,y;...'")
            p.add_argument("--file", type=str, help="CSV path file (header t,x1,...,xd)")
        p.add_argument("--steps", type=int)
        p.add_argument("--method", choices=sorted(_METHODS))
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--out", type=str)

    add_common(sub.add_parser("transport", help="integrate a frame along a path"))
    add_common(sub.add_parser("holonomy", help="transport around a closed path"))
    add_common(sub.add_parser("curvature", help="small-loop curvature vs closed form"), path=False, eps=1e-2)

    pv = sub.add_parser("verify", help="run residual checks")
    add_common(pv, connection=False, path=False)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--check", choices=sorted(_verify.CHECKS))
    pv.add_argument("--all", action="store_true", dest="all_checks")

    ps = sub.add_parser("section", help="unit-sphere rolling section at a point")
    add_common(ps, connection=False, path=False, point="1,0,0")
    ps.add_argument("--point", type=str, help="target point on the unit sphere")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse command-line arguments into the request: every key of :data:`_REQUEST`, and ``command``.

    ``--xi -1,0,0`` parses as ``--xi=-1,0,0``; argparse alone would read the
    value as an option. Raises ValueError on any usage problem (exit code 1).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and _NEGATIVE_VALUE.match(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    req = _parser().parse_args(argv)
    ns = vars(req)
    for name, parse in (("xi", _vector), ("x0", _vector), ("points", _point_list), ("point", _vector)):
        ns[name] = parse(ns[name]) if ns[name] else None
    return req


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


def _build_path(req: argparse.Namespace, dim: int) -> PathSpec:
    def option(name: str) -> np.ndarray:
        """The value of ``--name``, which ``--path`` requires, as points of dimension ``dim``."""
        if (value := getattr(req, name)) is None:
            raise ValueError(f"--path {req.path} requires --{name}")
        if (arr := np.asarray(value, dtype=float)).shape[-1] != dim:
            raise ValueError(f"--{name} must have dimension {dim}")
        return arr

    def base_point() -> np.ndarray:
        if req.x0 is None:
            if req.connection.startswith("sphere-"):
                raise ValueError(f"--connection {req.connection} requires --x0 (colatitude, longitude): "
                                 "the default (0, 0) is the sphere chart's pole")
            return np.zeros(dim)
        return option("x0")

    if req.path == "line":
        xi = option("xi")  # refused before --x0
        return line(base_point(), xi)
    if req.path == "circle":
        return circle(base_point(), req.eps)
    if req.path == "square":
        e1, e2 = np.eye(dim)[:2]
        return parallelogram_loop(base_point(), e1, e2, req.eps)
    if req.path == "polyline":
        return polyline(option("points"))
    if req.path == "file":
        if req.file is None:
            raise ValueError("--path file requires --file")
        c = read_path_file(req.file)
        if c.base_dim != dim:
            raise ValueError(f"path file dimension {c.base_dim} does not match connection dimension {dim}")
        return c
    raise ValueError(f"unknown path {req.path!r}")


def _config(req: argparse.Namespace) -> IntegratorConfig:
    """The request's stepper; without ``--steps`` each computation runs its own default count."""
    return IntegratorConfig(_METHODS[req.method], req.steps)


def _rotation_block(R: np.ndarray, q: np.ndarray) -> dict:
    im = q[1:]
    n = float(np.linalg.norm(im))
    angle = 2.0 * float(np.arctan2(n, q[0]))
    axis = [0.0, 0.0, 0.0] if n < 1e-15 else (im / n).tolist()
    return {"matrix": R.reshape(-1).tolist(), "quat": q.tolist(), "axis": axis, "angle": angle}


def _unit(q: np.ndarray) -> np.ndarray:
    """Quaternions (..., 4) over their norms, |q|^2 summed in np.sum's order, signed by :func:`canonical_quat`."""
    return canonical_quat(q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True)))


def _trajectory(res) -> list[dict]:
    """Rows ``{t, x, quat}`` from a result's ``quat_states``: the engine's own quaternions, :func:`_unit`; no frames."""
    ts, xs, qs = res.quat_states
    return [{"t": t, "x": x, "quat": q} for t, x, q in zip(ts.tolist(), xs.tolist(), _unit(qs).tolist())]


def run(req: argparse.Namespace) -> dict:
    """Execute a request; returns the result document as plain Python data."""
    doc = {
        "request": dict(vars(req)),  # its values are flat: str, numbers, None, tuples
        "holonomy": None,
        "trajectory": [],
        "reports": [],
        "curvature": None,
        "section": None,
    }

    if req.command in ("transport", "holonomy"):
        form = _CONNECTIONS[req.connection](req.radius)
        path = _build_path(req, form.base_dim)
        cfg = _config(req)
        if req.command == "holonomy" and not path.closed:
            raise ValueError("holonomy requires a closed path")
        res = transport(form, path, config=cfg)
        doc["trajectory"] = _trajectory(res)
        # the last sample's frame is res.final, so its quaternion is already known
        doc["holonomy"] = _rotation_block(res.final, np.array(doc["trajectory"][-1]["quat"]))
        return doc

    if req.command == "curvature":
        cfg = _config(req)
        if req.connection.startswith("sphere-"):
            # eps names the embedded loop scale; the factor recovers 1 - 1/r^2
            est, ref, factor, expected = _verify.sphere_curvature_probe(
                req.radius, req.connection.removeprefix("sphere-"), req.eps, cfg)
        else:
            form = _CONNECTIONS[req.connection](req.radius)
            est, ref, factor = _verify.curvature_probe(form, np.zeros(form.base_dim), req.eps, cfg)
            expected = 1.0
        doc["curvature"] = {"estimate": est.tolist(), "closed_form": ref.tolist(), "factor": factor,
                            "expected_factor": expected}
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
        computed, formula = _verify.unit_sphere_section(p, config=_config(req))
        residual = _verify.section_residual(computed, formula)
        doc["section"] = {"point": p.tolist(), "computed_quat": computed.tolist(), "formula_quat": formula.tolist(),
                          "residual": residual}
        doc["holonomy"] = _rotation_block(quat_to_rotation(computed), _unit(computed))
        doc["reports"] = [dict(vars(_verify.ResidualReport("section-formula", residual, 1, 1e-6)))]
        return doc

    raise ValueError(f"unknown command {req.command!r}")


def write_result(doc: dict, fmt: str = "json", out: str | None = None) -> str:
    """Serialize a result document; write to ``out`` or return the text.

    JSON uses sorted keys and fixed separators so identical requests yield
    byte-identical bytes. CSV emits the trajectory only (17 significant
    digits) and therefore requires a transport or holonomy result. A
    non-finite number raises ValueError in either format: NaN and infinity
    are not valid JSON, and no result may carry them. A JSON refusal names
    the number's key path, such as ``curvature.factor``.
    """
    if fmt == "json":
        # ``run`` builds no circular document, so the encoder need not track the ids of its lists and dicts
        try:
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False) + "\n"
        except ValueError:  # a non-finite float: with no cycle, json raises no other
            raise ValueError(f"{_non_finite_key(doc)} is not finite") from None
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


def _non_finite_key(value, path: str = "") -> str | None:
    """The key path (``trajectory[3].quat[1]``) of the first non-finite float in ``value``, in JSON's sorted order."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return path if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_non_finite_key(v, key) for key, v in items)), None)


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
