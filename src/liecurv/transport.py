"""Parallel transport, holonomy, and curvature estimation from loops.

Transport solves the right-trivialized equation g'(t) = hat(a(t)) g(t) with
a(t) = -omega_{c(t)}(c'(t)) by composing exponentials of algebra increments.
Later steps multiply on the LEFT, so the result of a full run is the
time-ordered product

    exp(dt a(t_{n-1})) ... exp(dt a(t_1)) exp(dt a(t_0)) g0.

Two steppers are provided: "lie-euler" samples a at the left node of each
interval (first order) and "exp-midpoint" at the interval midpoint (second
order). The integration grid is the union of a uniform grid with the path's
registered corner times, so piecewise-smooth paths never straddle a kink.

How the product is evaluated
----------------------------
Every public stepper (:func:`transport`, :func:`transport_quat`,
:func:`time_ordered_product` and :func:`liecurv.verify.lift_transport`)
runs through one engine, :func:`_compose`. It walks the grid one block of
at most a few thousand intervals at a time, so memory stays flat on long
runs, and for each block it

1. samples a(t*) at every node of the block in one call when the form and
   the path are vectorized (catalog forms and paths are; user callables
   are evaluated node by node);
2. exponentiates all steps at once as unit quaternions, refusing non-finite
   ones. The SO(3) steppers use half angles, quat_exp(dt a / 2), whose image
   under the double cover is exactly exp_so3(dt a); the same product is
   therefore the SO(3) frame (through :func:`liecurv.liecore.quat_to_rotation`)
   and its continuous quaternion lift;
3. multiplies the factors, later ones on the left, by a pairwise (tree)
   reduction within chunks of ``stride`` steps, the sample-recording stride.

After the last block, one prefix scan (Hillis-Steele: log2 passes) over the
run's chunk products, at most ~1024, gives the recorded states.

Regrouping the factors is legal because the product is associative, which
is the paper's concatenation law T(c1 * c2) = T(c2) T(c1) read at the level
of the grid: the transport over a union of consecutive intervals is the
product of the transports over the pieces, in any bracketing. A tree
reduction also accumulates roundoff over O(log n) levels instead of n.

Composition in unit quaternions needs no re-projection onto the group:
the products stay unit to within a few ulps and ``quat_to_rotation``
normalizes before it builds a matrix. ``IntegratorConfig.renormalize_every``
is therefore accepted but has no work left to do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connections import LocalConnectionForm, Surface, sphere_surface
from .liecore import check_rotation, check_unit_quat, exp_so3, log_so3, quat_exp, quat_mul, quat_to_rotation

MAX_STEPS = 10**7  # largest accepted step count; bounds the grid allocation
_MAX_RECORDED = 1024  # sample-recording cap per transport run
_BLOCK = 4096  # intervals evaluated per block (rounded to whole recording chunks)
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_IDENTITY.flags.writeable = False


@dataclass(frozen=True)
class PathSpec:
    """A path c: [0, 1] -> R^d with its velocity and bookkeeping.

    ``corners`` lists interior parameter values where the velocity may jump;
    the integrators place grid nodes there. ``closed`` declares c(1) = c(0).
    ``vectorized`` declares that ``position`` and ``velocity`` also map an
    array of n times to an (n, d) array.
    """

    base_dim: int
    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    closed: bool
    kind: str = "custom"
    corners: tuple[float, ...] = ()
    vectorized: bool = False


def _check_step_count(name: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")
    if n > MAX_STEPS:
        raise ValueError(f"{name} = {n} exceeds the limit of {MAX_STEPS} steps")


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection: method, uniform step count, optional renormalization.

    ``steps`` may be at most ``MAX_STEPS``. ``renormalize_every`` is kept
    for compatibility; quaternion composition stays on the group without it
    (see the module docstring), so it has no effect.
    """

    method: str = "exp-midpoint"
    steps: int = 10_000
    renormalize_every: int = 0

    def __post_init__(self):
        if self.method not in ("lie-euler", "exp-midpoint"):
            raise ValueError(f"unknown method {self.method!r}; use 'lie-euler' or 'exp-midpoint'")
        _check_step_count("steps", self.steps)
        if self.renormalize_every < 0:
            raise ValueError("renormalize_every must be nonnegative")


@dataclass(frozen=True)
class TransportResult:
    """Final group element plus recorded (t, base point, group element) samples.

    Long runs record at most ~1024 evenly strided samples; the first and
    final states are always included. ``algebra_log`` holds every algebra
    increment input a(t*) when requested at transport time.
    """

    final: np.ndarray
    samples: tuple[tuple[float, np.ndarray, np.ndarray], ...]
    algebra_log: tuple[np.ndarray, ...] | None = None


def integration_grid(steps: int, corners: tuple[float, ...] = ()) -> np.ndarray:
    """Uniform grid on [0, 1] with ``steps`` intervals, merged with corners.

    Corner times strictly inside (0, 1) become grid nodes; nodes closer than
    1e-12 are coalesced (keeping the later one, so 1.0 always survives).
    """
    nodes = np.linspace(0.0, 1.0, steps + 1)
    interior = [float(t) for t in corners if 0.0 < t < 1.0]
    if interior:
        merged = np.unique(np.concatenate([nodes, np.asarray(interior)]))
        nodes = merged[np.append(np.diff(merged) > 1e-12, True)]
    return nodes


def _check_dims(form: LocalConnectionForm, path: PathSpec) -> None:
    if form.base_dim != path.base_dim:
        raise ValueError(
            f"dimension mismatch: form '{form.descriptor}' lives on R^{form.base_dim}, "
            f"path '{path.kind}' on R^{path.base_dim}"
        )


# ---------------------------------------------------------------------------
# the stepping engine


def _on_path(fn: Callable, path: PathSpec, ts: np.ndarray) -> np.ndarray:
    """``fn`` (the path's position or velocity) at every time in ``ts``, as an (n, d) array."""
    if path.vectorized:
        return np.asarray(fn(ts), dtype=float)
    return np.array([np.asarray(fn(t), dtype=float) for t in ts])


def _form_sampler(form: LocalConnectionForm, path: PathSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The algebra input a(t) = -omega_{c(t)}(c'(t)) as a function of an array of times."""
    _check_dims(form, path)
    # one guarded evaluation validates shapes; blocks then use the raw callable
    form(path.position(0.0), path.velocity(0.0))
    ev = form.evaluate

    def sample(ts):
        X, V = _on_path(path.position, path, ts), _on_path(path.velocity, path, ts)
        if form.vectorized:
            return -np.asarray(ev(X, V), dtype=float)
        return -np.array([np.asarray(ev(x, v), dtype=float) for x, v in zip(X, V)])

    return sample


def _first_bad(values: np.ndarray) -> int:
    """The index of the first row of ``values`` that is not finite, or -1."""
    bad = ~np.isfinite(values).all(axis=-1)
    return int(np.argmax(bad)) if bad.any() else -1


def _prefix_products(P: np.ndarray) -> np.ndarray:
    """Inclusive scan S_j = P_j ... P_1 P_0 (later factors on the left) in log2 passes."""
    S = P.copy()
    d = 1
    while d < len(S):
        S[d:] = quat_mul(S[d:], S[:-d])
        d *= 2
    return S


def _compose(
    sample: Callable[[np.ndarray], np.ndarray],
    nodes: np.ndarray,
    midpoint: bool,
    scale: float,
    q0: np.ndarray,
    algebra_log: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ordered product of quat_exp(scale dt_k a(t*_k)) over the grid, applied to q0.

    ``sample`` maps an array of times to the (n, 3) algebra inputs there;
    ``scale`` is 1/2 for SO(3) transport (half angles) and 1 for quaternion
    transport. Returns ``(ends, Q)``: states are recorded after every
    ``stride`` intervals and after the last, where stride is the smallest
    step keeping at most _MAX_RECORDED samples; ``ends`` holds the interval
    counts of the recorded states and ``Q`` the states, shape (len(ends), 4).
    Non-finite samples, step quaternions or products raise ValueError.
    """
    n = len(nodes) - 1
    stride = max(1, -(-n // _MAX_RECORDED))
    block = stride * max(1, _BLOCK // stride)
    chunks = []
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        t0 = nodes[k0:k1]
        dt = nodes[k0 + 1 : k1 + 1] - t0
        ts = t0 + 0.5 * dt if midpoint else t0
        a = sample(ts)
        if a.shape != (k1 - k0, 3):
            raise ValueError(f"algebra samples have shape {a.shape[1:]} per node, expected an so(3) vector (3,)")
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            steps = quat_exp((scale * dt)[:, None] * a)
        if not np.isfinite(steps).all():  # a non-finite a(t*) gives a non-finite step, as dt > 0
            if (k := _first_bad(a)) >= 0:
                raise ValueError(f"non-finite algebra increment at t = {float(ts[k])!r}")
            k = _first_bad(steps)
            raise ValueError(f"non-finite step rotation at t = {float(ts[k])!r}: the step angle |dt a| overflows")
        if algebra_log is not None:
            algebra_log.append(a)
        # whole chunks of ``stride`` steps, the last one padded with identities
        pad = -(k1 - k0) % stride
        steps = np.concatenate([steps, np.tile(_IDENTITY, (pad, 1))]).reshape(-1, stride, 4)
        while steps.shape[1] > 1:
            if steps.shape[1] % 2:
                steps = np.concatenate([steps, np.broadcast_to(_IDENTITY, (len(steps), 1, 4))], axis=1)
            steps = quat_mul(steps[:, 1::2], steps[:, 0::2])
        chunks.append(steps[:, 0])
    states = quat_mul(_prefix_products(np.concatenate(chunks)), q0)
    ends = np.minimum(np.arange(1, len(states) + 1) * stride, n)
    if (j := _first_bad(states)) >= 0:
        raise ValueError(f"non-finite transport state in t = [{nodes[j * stride]!r}, {nodes[ends[j]]!r}]")
    return ends, states


# ---------------------------------------------------------------------------
# public steppers


def transport(
    form: LocalConnectionForm,
    path: PathSpec,
    g0=None,
    config: IntegratorConfig | None = None,
    record_algebra: bool = False,
) -> TransportResult:
    """Parallel-transport the frame g0 along the path under the given form.

    Parameters
    ----------
    form : LocalConnectionForm
        Connection form; must share the path's base dimension.
    path : PathSpec
        The base path. Corner times registered on it refine the grid.
    g0 : array, optional
        Starting rotation (identity by default).
    config : IntegratorConfig, optional
        Stepper and step count; defaults to exp-midpoint with 10^4 steps.
    record_algebra : bool
        Keep every algebra input a(t*) on the result (memory scales with
        the step count).
    """
    cfg = config or IntegratorConfig()
    sample = _form_sampler(form, path)
    g = check_rotation(np.eye(3) if g0 is None else g0)
    nodes = integration_grid(cfg.steps, path.corners)
    alog = [] if record_algebra else None
    ends, Q = _compose(sample, nodes, cfg.method == "exp-midpoint", 0.5, _IDENTITY, alog)
    G = quat_to_rotation(Q) @ g
    ts = nodes[ends]
    samples = ((0.0, np.asarray(path.position(0.0), dtype=float), g.copy()),)
    samples += tuple(zip(ts.tolist(), _on_path(path.position, path, ts), G))
    return TransportResult(
        final=G[-1].copy(),
        samples=samples,
        algebra_log=tuple(np.concatenate(alog)) if record_algebra else None,
    )


def transport_quat(
    path: PathSpec,
    q0=None,
    config: IntegratorConfig | None = None,
) -> TransportResult:
    """Transport on the unit-quaternion group under its natural connection.

    The algebra increment is the path velocity itself; steps compose as
    q <- quat_exp(dt a(t*)) q. Projecting the result through the double
    cover reproduces :func:`transport` with the natural SO(3) form on a
    doubled path.
    """
    if path.base_dim != 3:
        raise ValueError("quaternion transport requires a path in R^3")
    cfg = config or IntegratorConfig()
    q = check_unit_quat(_IDENTITY if q0 is None else q0, tol=1e-9)
    nodes = integration_grid(cfg.steps, path.corners)
    ends, Q = _compose(
        lambda ts: _on_path(path.velocity, path, ts), nodes, cfg.method == "exp-midpoint", 1.0, q
    )
    ts = nodes[ends]
    samples = ((0.0, np.asarray(path.position(0.0), dtype=float), q.copy()),)
    samples += tuple(zip(ts.tolist(), _on_path(path.position, path, ts), Q))
    return TransportResult(final=Q[-1].copy(), samples=samples)


def holonomy(
    form: LocalConnectionForm,
    loop: PathSpec,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Transport around a closed loop starting from the identity."""
    if not loop.closed:
        raise ValueError(f"holonomy requires a closed path; '{loop.kind}' is not closed")
    return transport(form, loop, np.eye(3), config).final


def time_ordered_product(form: LocalConnectionForm, path: PathSpec, n: int) -> np.ndarray:
    """First-order product approximation of transport on a plain uniform grid.

    Returns exp(dt a(t_{n-1})) ... exp(dt a(t_0)) with dt = 1/n and left
    endpoint sampling; corners are deliberately not merged in, so this equals
    a lie-euler run exactly only when the path is smooth (or its corners land
    on the grid). ``n`` may be at most ``MAX_STEPS``.
    """
    sample = _form_sampler(form, path)
    _check_step_count("n", n)
    _, Q = _compose(sample, integration_grid(n), False, 0.5, _IDENTITY)
    return quat_to_rotation(Q[-1])


def small_loop_curvature(
    form: LocalConnectionForm,
    x,
    u,
    v,
    eps: float,
    config: IntegratorConfig | None = None,
    richardson: bool = False,
) -> np.ndarray:
    """Estimate the curvature Omega_x(u, v) from parallelogram holonomies.

    The circuit x -> x+eps u -> x+eps u+eps v -> x+eps v -> x transports to
    exp(-eps^2 Omega_x(u, v)) up to O(eps^3), so the estimate negates the
    holonomy logarithm. With ``richardson`` the leading O(eps) error term is
    extrapolated away using a second run at eps/2, leaving O(eps^2).

    Raises the :func:`liecurv.liecore.log_so3` domain error when eps is so
    large that the holonomy angle approaches pi.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")

    def estimate(e: float) -> np.ndarray:
        loop = parallelogram_loop(x, u, v, e)
        hol = transport(form, loop, np.eye(3), config).final
        return -log_so3(hol) / (e * e)

    if richardson:
        return 2.0 * estimate(eps / 2.0) - estimate(eps)
    return estimate(eps)


def commutator_by_flows(xi, eta, t: float) -> np.ndarray:
    """Recover the bracket [xi, eta] = xi x eta from commutated flows.

    Forms C(s) = exp(s xi^) exp(s eta^) exp(-s xi^) exp(-s eta^) and returns
    the symmetric second difference (log C(t) + log C(-t)) / (2 t^2), whose
    error is O(t^2); the one-sided quotient would carry an O(t) term.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)

    def circuit(s: float) -> np.ndarray:
        return exp_so3(s * xi) @ exp_so3(s * eta) @ exp_so3(-s * xi) @ exp_so3(-s * eta)

    return (log_so3(circuit(t)) + log_so3(circuit(-t))) / (2.0 * t * t)


def convergence_order(
    form: LocalConnectionForm,
    path: PathSpec,
    method: str = "lie-euler",
    n0: int = 64,
    g0=None,
) -> float:
    """Observed order from runs at n0 and 2 n0 steps against a 16 n0 reference.

    Intended for smooth paths where the stepper actually commits truncation
    error. When both runs already sit at roundoff (as on exactly integrable
    paths) the error ratio is meaningless and a ValueError is raised.
    """
    ref = transport(form, path, g0, IntegratorConfig(method=method, steps=16 * n0)).final
    e1 = np.linalg.norm(transport(form, path, g0, IntegratorConfig(method=method, steps=n0)).final - ref)
    e2 = np.linalg.norm(transport(form, path, g0, IntegratorConfig(method=method, steps=2 * n0)).final - ref)
    if e2 < 1e-14 or e1 <= e2:
        raise ValueError(
            f"reference not converged: error ratio non-monotone (e(n0) = {e1:.3e}, e(2 n0) = {e2:.3e})"
        )
    return float(np.log2(e1 / e2))


# ---------------------------------------------------------------------------
# path catalog


def line(x0, xi) -> PathSpec:
    """Straight path c(t) = x0 + t xi."""
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x0.shape != xi.shape or x0.ndim != 1:
        raise ValueError("line expects a point and a displacement of equal dimension")
    return PathSpec(
        base_dim=len(x0),
        position=lambda t: x0 + np.multiply.outer(t, xi),
        velocity=lambda t: np.broadcast_to(xi, np.shape(t) + xi.shape).copy(),
        closed=not np.any(xi),
        kind="line",
        vectorized=True,
    )


def circle(center, radius: float, plane=None) -> PathSpec:
    """Closed circle of the given radius around ``center``.

    ``plane`` is a pair of spanning vectors for the circle's plane (defaults
    to the first two coordinate axes); they are orthonormalized and must be
    linearly independent.
    """
    center = np.asarray(center, dtype=float)
    if radius <= 0.0:
        raise ValueError(f"circle radius must be positive, got {radius}")
    d = len(center)
    if plane is None:
        if d < 2:
            raise ValueError("circle needs a base dimension of at least 2")
        b1 = np.zeros(d)
        b1[0] = 1.0
        b2 = np.zeros(d)
        b2[1] = 1.0
    else:
        b1 = np.asarray(plane[0], dtype=float)
        b2 = np.asarray(plane[1], dtype=float)
    n1 = np.linalg.norm(b1)
    if n1 < 1e-12:
        raise ValueError("degenerate circle plane: first spanning vector vanishes")
    b1 = b1 / n1
    b2 = b2 - (b2 @ b1) * b1
    n2 = np.linalg.norm(b2)
    if n2 < 1e-12:
        raise ValueError("degenerate circle plane: spanning vectors are parallel")
    b2 = b2 / n2
    tau = 2.0 * np.pi

    def angle(t):
        return tau * np.asarray(t, dtype=float)[..., None]

    return PathSpec(
        base_dim=d,
        position=lambda t: center + radius * (np.cos(angle(t)) * b1 + np.sin(angle(t)) * b2),
        velocity=lambda t: radius * tau * (-np.sin(angle(t)) * b1 + np.cos(angle(t)) * b2),
        closed=True,
        kind="circle",
        vectorized=True,
    )


def polyline(points, times=None, closed: bool | None = None) -> PathSpec:
    """Piecewise-linear path through ``points`` (each row one vertex).

    ``times`` assigns a strictly increasing parameter in [0, 1] to each
    vertex (uniform by default, endpoints pinned to 0 and 1). Interior
    vertex times are registered as corners so integrators land on them.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 2:
        raise ValueError("polyline needs at least two points")
    m, d = P.shape
    if times is None:
        T = np.linspace(0.0, 1.0, m)
    else:
        T = np.asarray(times, dtype=float)
        if T.shape != (m,):
            raise ValueError(f"times must match the number of points ({m})")
        if np.any(np.diff(T) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if abs(T[0]) > 1e-12 or abs(T[-1] - 1.0) > 1e-12:
            raise ValueError("times must cover [0, 1]")
        T = T.copy()
        T[0], T[-1] = 0.0, 1.0
    slopes = (P[1:] - P[:-1]) / np.diff(T)[:, None]

    gap = float(np.linalg.norm(P[-1] - P[0]))
    if closed is None:
        closed = gap <= 1e-9
    elif closed and gap > 1e-9:
        raise ValueError(f"polyline declared closed but endpoints differ by {gap:.3e}")

    def segment_of(t):
        return np.clip(np.searchsorted(T, t, side="right") - 1, 0, m - 2)

    def position(t):
        t = np.asarray(t, dtype=float)
        i = segment_of(t)
        return P[i] + (t - T[i])[..., None] * slopes[i]

    def velocity(t):
        return np.take(slopes, segment_of(t), axis=0)

    return PathSpec(
        base_dim=d,
        position=position,
        velocity=velocity,
        closed=bool(closed),
        kind="polyline",
        corners=tuple(float(t) for t in T[1:-1]),
        vectorized=True,
    )


def parallelogram_loop(x, u, v, eps: float) -> PathSpec:
    """Closed parallelogram circuit x -> x+eps u -> x+eps u+eps v -> x+eps v -> x."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
        raise ValueError("parallelogram sides must be nonzero")
    pts = np.array([x, x + eps * u, x + eps * u + eps * v, x + eps * v, x])
    return dataclasses.replace(polyline(pts, closed=True), kind="parallelogram")


def great_arc(p, q, radius: float | None = None, side: str = "outer") -> tuple[PathSpec, Surface]:
    """Shortest great-circle arc from p to q on a sphere, as a chart path.

    Builds a sphere chart whose equator contains the arc (so the path stays
    far from the chart's polar caps) and returns the path in that chart's
    coordinates together with the surface. For antipodal endpoints the
    half-circle plane is chosen deterministically from the coordinate axis
    least aligned with p.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (3,) or q.shape != (3,):
        raise ValueError("great_arc expects two points in R^3")
    r = float(np.linalg.norm(p)) if radius is None else float(radius)
    if r <= 0.0:
        raise ValueError("sphere radius must be positive")
    for name, pt in (("p", p), ("q", q)):
        if abs(np.linalg.norm(pt) - r) > 1e-9 * max(r, 1.0):
            raise ValueError(f"point {name} does not lie on the sphere of radius {r}")

    w = np.cross(p, q)
    wn = float(np.linalg.norm(w))
    dot = float(p @ q)
    if wn < 1e-12 * r * r:
        if dot > 0.0:
            raise ValueError("great_arc requires distinct points")
        # antipodal: any axis orthogonal to p closes a half circle
        e = np.zeros(3)
        e[int(np.argmin(np.abs(p)))] = 1.0
        w = np.cross(p, e)
        f3 = w / np.linalg.norm(w)
        s = float(np.pi)
    else:
        f3 = w / wn
        s = float(np.arctan2(wn / (r * r), dot / (r * r)))
    f1 = p / r
    f2 = np.cross(f3, f1)

    surface = sphere_surface(r, side=side, frame=(f1, f2, f3))
    # along the chart's equator: colatitude pi/2, longitude from 0 to s
    path = dataclasses.replace(line(np.array([0.5 * np.pi, 0.0]), np.array([0.0, s])), kind="great-arc")
    return path, surface


def path_from_position(
    position: Callable[[float], np.ndarray],
    base_dim: int,
    closed: bool | None = None,
    kind: str = "custom",
    corners: tuple[float, ...] = (),
    h: float = 1e-7,
) -> PathSpec:
    """Wrap a position callable; the velocity comes from central differences.

    Near the parameter boundaries the stencil shrinks to stay inside [0, 1].
    """

    def velocity(t):
        a, b = max(0.0, t - h), min(1.0, t + h)
        pa = np.asarray(position(a), dtype=float)
        pb = np.asarray(position(b), dtype=float)
        return (pb - pa) / (b - a)

    gap = float(np.linalg.norm(np.asarray(position(1.0), float) - np.asarray(position(0.0), float)))
    if closed is None:
        closed = gap <= 1e-9
    elif closed and gap > 1e-9:
        raise ValueError(f"path declared closed but endpoints differ by {gap:.3e}")
    return PathSpec(
        base_dim=base_dim,
        position=lambda t: np.asarray(position(t), dtype=float),
        velocity=velocity,
        closed=bool(closed),
        kind=kind,
        corners=corners,
    )


def reverse_path(path: PathSpec) -> PathSpec:
    """Traverse a path backwards; transport along it inverts the original."""
    return PathSpec(
        base_dim=path.base_dim,
        position=lambda t: path.position(1.0 - t),
        velocity=lambda t: -np.asarray(path.velocity(1.0 - t), dtype=float),
        closed=path.closed,
        kind=path.kind,
        corners=tuple(sorted(1.0 - t for t in path.corners)),
        vectorized=path.vectorized,
    )


def concat_paths(first: PathSpec, second: PathSpec) -> PathSpec:
    """Run ``first`` on [0, 1/2] and ``second`` on [1/2, 1].

    The endpoint of ``first`` must meet the start of ``second``.
    """
    if first.base_dim != second.base_dim:
        raise ValueError("cannot concatenate paths of different base dimension")
    gap = float(np.linalg.norm(np.asarray(second.position(0.0), float) - np.asarray(first.position(1.0), float)))
    if gap > 1e-9:
        raise ValueError(f"paths do not meet: gap {gap:.3e}")

    def position(t):
        return first.position(2.0 * t) if t < 0.5 else second.position(2.0 * t - 1.0)

    def velocity(t):
        if t < 0.5:
            return 2.0 * np.asarray(first.velocity(2.0 * t), dtype=float)
        return 2.0 * np.asarray(second.velocity(2.0 * t - 1.0), dtype=float)

    corners = tuple(sorted(
        [0.5 * t for t in first.corners] + [0.5] + [0.5 + 0.5 * t for t in second.corners]
    ))
    gap_loop = float(np.linalg.norm(np.asarray(second.position(1.0), float) - np.asarray(first.position(0.0), float)))
    return PathSpec(
        base_dim=first.base_dim,
        position=position,
        velocity=velocity,
        closed=gap_loop <= 1e-9,
        kind="concat",
        corners=corners,
    )


def scale_path(path: PathSpec, factor: float) -> PathSpec:
    """Scale a path pointwise by a constant factor."""
    return PathSpec(
        base_dim=path.base_dim,
        position=lambda t: factor * np.asarray(path.position(t), dtype=float),
        velocity=lambda t: factor * np.asarray(path.velocity(t), dtype=float),
        closed=path.closed,
        kind=path.kind,
        corners=path.corners,
        vectorized=path.vectorized,
    )
