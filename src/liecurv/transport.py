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
:func:`lift_transport` and :func:`time_ordered_product`) runs through one
engine, :func:`_compose`, with one step rule. It walks the grid one block of
at most a few thousand intervals at a time, so memory stays flat on long
runs, and for each block it

1. samples a(t*) at every node of the block in one call: paths map an
   array of n times to (n, d) arrays and forms map (n, d) stacks to (n, 3).
   The first block also carries the start point, where every map's shape
   is checked (:func:`_form_sampler`), and positions are evaluated only
   where the form reads them. Per-node
   arithmetic runs along the node axis: the catalog paths compute their
   (n, d) values as (d, n) and return the transpose, and dt a / 2 is formed
   as (3, n), so each numpy loop covers the whole block, not one node's
   2 to 4 components;
2. exponentiates all steps at once as unit quaternions by half angles,
   quat_exp(dt a / 2), refusing non-finite ones. The image of that step under
   the double cover is exactly exp_so3(dt a), so one product is both the
   SO(3) frame (through :func:`liecurv.liecore.quat_to_rotation`) and its
   continuous quaternion lift. Quaternion transport is such a lift: its so(3)
   input is lie_hom_derivative(v) = 2 v for the path velocity v, so its step
   is quat_exp(dt v);
3. multiplies the factors, later ones on the left, by a pairwise (tree)
   reduction within chunks of ``stride`` steps, the sample-recording stride.

The engine keeps only the run's chunk products, at most ~1024. The final
frame is their pairwise reduction with the pairs aligned to the right end
(:func:`_last_product`): exactly the products that the prefix scan
(Hillis-Steele, :func:`_prefix_products`) forms on its way to its last state,
so the two are bitwise equal. Its numpy passes stop at 64 rows, because a
numpy ``quat_mul`` costs about 30 array operations whatever its row count;
the top levels are reduced in Python floats with the same pairing and the
same bits. The scan, which gives the recorded states, runs on the first read
of :attr:`TransportResult.states` (or ``samples``, its tuple view). Only the
engine builds a result; it refuses every non-finite step, so reading refuses nothing.

The scalar work at the two ends of a run also avoids numpy's per-call cost:
``check_rotation`` tests a caller's g0 on Python floats, the uniform grid is
built by ``np.linspace``'s own operations in place (:func:`integration_grid`),
and ``final`` builds its one frame on Python floats (:func:`_rotation_on_floats`,
:func:`_hamilton`). Each repeats numpy's operations in numpy's order, sums
included, and CPython floats, like numpy's elementwise loops, are IEEE doubles
without fused multiply-add, so every bit is the same.

Regrouping the factors is legal because the product is associative, which
is the paper's concatenation law T(c1 * c2) = T(c2) T(c1) read at the level
of the grid: the transport over a union of consecutive intervals is the
product of the transports over the pieces, in any bracketing. A tree
reduction also accumulates roundoff over O(log n) levels instead of n.
Composition in unit quaternions needs no re-projection onto the group: the
products stay unit to within a few ulps and ``quat_to_rotation`` normalizes
before it builds a matrix.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .connections import LocalConnectionForm, Surface, sphere_surface
from .liecore import (check_rotation, check_unit_quat, exp_so3, lie_hom_derivative, log_so3, quat_exp, quat_mul,
                      quat_to_rotation)

MAX_STEPS = 10**7  # largest accepted step count; bounds the grid allocation
_MAX_RECORDED = 1024  # sample-recording cap per transport run
_BLOCK = 4096  # intervals evaluated per block (rounded to whole recording chunks)
_SCALAR_ROWS = 64  # _last_product finishes on Python floats from this many rows down
SIDE_ROUNDING = 1e-6  # largest relative error rounding at the corner may leave on a parallelogram side
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_IDENTITY.flags.writeable = False


@dataclass(frozen=True)
class PathSpec:
    """A path c: [0, 1] -> R^d with its velocity and bookkeeping.

    ``position`` and ``velocity`` map an array of n times to an (n, d) array;
    the library calls them only with arrays, whole blocks of grid times at
    once. (The catalog paths also map a single time to a d-vector.)
    ``corners`` lists interior parameter values where the velocity may jump;
    the integrators place grid nodes there. At a corner time ``velocity``
    must return the outgoing velocity, the one on the segment that starts
    there, because lie-euler samples each interval at its left node.
    ``closed`` declares c(1) = c(0).
    """

    base_dim: int
    position: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    closed: bool
    kind: str = "custom"
    corners: tuple[float, ...] = ()


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection: method and uniform step count (at most ``MAX_STEPS``)."""

    method: str = "exp-midpoint"
    steps: int = 10_000

    def __post_init__(self):
        if self.method not in ("lie-euler", "exp-midpoint"):
            raise ValueError(f"unknown method {self.method!r}; use 'lie-euler' or 'exp-midpoint'")
        if isinstance(self.steps, bool) or not hasattr(type(self.steps), "__index__"):  # what operator.index takes
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps = {self.steps} exceeds the limit of {MAX_STEPS} steps")


def integration_grid(steps: int, corners: tuple[float, ...] = ()) -> np.ndarray:
    """Uniform grid on [0, 1] with ``steps`` intervals, merged with corners.

    Corner times strictly inside (0, 1) become grid nodes; nodes closer than
    1e-12 are coalesced (keeping the later one, so 1.0 always survives).
    The uniform nodes are ``np.linspace(0, 1, steps + 1)`` bit for bit, built
    by its own operations in place: a range, one multiply by 1/steps, and the
    end set to 1.0 (its ``+= 0.0`` changes no node). Like linspace, it takes
    only an integer count.
    """
    if operator.index(steps) < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    nodes = np.arange(steps + 1.0)
    nodes *= 1.0 / steps
    nodes[-1] = 1.0
    interior = [float(t) for t in corners if 0.0 < t < 1.0]
    if interior:
        merged = np.unique(np.concatenate([nodes, np.asarray(interior)]))
        nodes = merged[np.append(np.diff(merged) > 1e-12, True)]
    return nodes


# ---------------------------------------------------------------------------
# the stepping engine


def _on_path(fn: Callable, ts: np.ndarray) -> np.ndarray:
    """``fn`` (the path's position or velocity) at every time in ``ts``, as an (n, d) array."""
    return np.asarray(fn(ts), dtype=float)


def _probe(path: PathSpec, form: LocalConnectionForm) -> None:
    """Refuse maps that do not take arrays, by their shapes on m = max(d, 3) + 1 times.

    m differs from d and from 3, so a map written for one time at a time shows
    a wrong shape here, where a block of d or 3 nodes could pass it unseen.
    Every probe time is 0, the start point; non-finite values are left to the
    engine's refusal, which names their time. It runs when a first block fails.
    """
    m, d = max(path.base_dim, 3) + 1, path.base_dim
    ts = np.zeros(m)
    X, V = _on_path(path.position, ts), _on_path(path.velocity, ts)
    if X.shape != (m, d) or V.shape != (m, d):
        raise ValueError(f"path '{path.kind}' maps {m} times to shapes {X.shape} and {V.shape}, "
                         f"not ({m}, {d}): paths must take arrays of times")
    if (got := np.shape(form.evaluate(None if form.translation_invariant else X, V))) != (m, 3):
        raise ValueError(f"form '{form.descriptor}' maps {m} points to shape {got}, "
                         f"not ({m}, 3): forms must take stacks of points and tangents")


def _form_sampler(form: LocalConnectionForm, path: PathSpec) -> Callable[..., np.ndarray]:
    """The algebra input a(t) = -omega_{c(t)}(c'(t)) as a function of an array of times.

    ``sample(ts, True)``, the first block, leads ``ts`` with the probe's m start rows, checks every shape
    on them, words a failure by :func:`_probe`, and drops them. A translation-invariant form is given no
    positions: ``position`` is then called on the start rows alone, for ``samples``.
    """
    if form.base_dim != path.base_dim:
        raise ValueError(f"dimension mismatch: form '{form.descriptor}' lives on R^{form.base_dim}, "
                         f"path '{path.kind}' on R^{path.base_dim}")
    m, d, ev, reads_x = max(path.base_dim, 3) + 1, path.base_dim, form.evaluate, not form.translation_invariant

    def sample(ts, start=False):
        if not start:
            X = _on_path(path.position, ts) if reads_x else None
            return -np.asarray(ev(X, _on_path(path.velocity, ts)), dtype=float)
        n = len(ts := np.concatenate((np.zeros(m), ts)))
        try:
            X, V = _on_path(path.position, ts if reads_x else ts[:m]), _on_path(path.velocity, ts)
            a = -np.asarray(ev(X if reads_x else None, V), dtype=float)
            if (X.shape, V.shape, a.shape) != ((n if reads_x else m, d), (n, d), (n, 3)):
                raise ValueError(f"path '{path.kind}' and form '{form.descriptor}' map a block of {n} times "
                                 f"to shapes {X.shape}, {V.shape} and {a.shape}")
        except Exception:
            _probe(path, form)
            raise
        return a[m:]

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


def _last_product(P: np.ndarray) -> np.ndarray:
    """P_{n-1} ... P_1 P_0, bitwise equal to ``_prefix_products(P)[-1]``.

    Each halving pass multiplies the pairs (P_{n-1}, P_{n-2}), (P_{n-3},
    P_{n-4}), ... and passes an unpaired first row through: the products
    the scan forms on its way to the last row, and no others.

    The passes run in numpy while more than ``_SCALAR_ROWS`` rows remain. A
    numpy ``quat_mul`` costs about 30 array operations whatever its row count,
    so the last few levels, on at most 64 rows, are finished on Python floats
    with the same pairing and :func:`liecurv.liecore.quat_mul`'s terms in its
    order. Both are IEEE doubles without fused multiply-add, so every bit,
    signed zeros included, is the same.
    """
    while len(P) > _SCALAR_ROWS:
        odd = len(P) % 2
        P = np.concatenate([P[:odd], quat_mul(P[odd + 1 :: 2], P[odd::2])])
    rows = P.tolist()
    while len(rows) > 1:
        odd = len(rows) % 2
        rows[odd:] = map(_hamilton, rows[odd + 1 :: 2], rows[odd::2])
    return np.array(rows[0])


def _hamilton(p: list[float], q: list[float]) -> list[float]:
    """The product p q of two quaternions given as Python floats, by
    :func:`liecurv.liecore.quat_mul`'s terms in its order: the same bits."""
    (pw, px, py, pz), (qw, qx, qy, qz) = p, q
    return [pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw]


def _rotation_on_floats(q: list[float]) -> np.ndarray:
    """``quat_to_rotation(np.array(q)[None])`` for one quaternion given as Python floats, on those floats.

    The same bits: |q|^2 is summed in np.sum's order over four entries, and the
    unit-norm test and the entries are :func:`liecurv.liecore.quat_to_rotation`'s,
    in its order. A refusal is left to that function, in its words.
    """
    w, x, y, z = q
    n2 = ((w * w + x * x) + y * y) + z * z
    if not abs(n2 - 1.0) <= 1e-9:
        return quat_to_rotation(np.array(q)[None])
    n = math.sqrt(n2)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z,
    ]).reshape(1, 3, 3)


def _walk(sample: Callable[..., np.ndarray], nodes: np.ndarray, midpoint: bool, stride: int = 1):
    """The engine's walk over the grid: blocks of at most ~_BLOCK intervals, in whole chunks of ``stride``.

    Yields each block's sample times t* (left nodes, or interval midpoints if
    ``midpoint``), its widths dt and the (n, 3) so(3) inputs ``sample(t*, first block)``.
    """
    n = len(nodes) - 1
    block = stride * max(1, _BLOCK // stride)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        t0 = nodes[k0:k1]
        dt = nodes[k0 + 1 : k1 + 1] - t0
        ts = t0 + 0.5 * dt if midpoint else t0
        a = sample(ts, k0 == 0)
        if a.shape != (k1 - k0, 3):
            raise ValueError(f"algebra samples have shape {a.shape[1:]} per node, expected an so(3) vector (3,)")
        yield ts, dt, a


def _compose(sample: Callable[..., np.ndarray], nodes: np.ndarray, midpoint: bool) -> tuple[np.ndarray, int]:
    """The ordered products of the half-angle steps quat_exp(dt_k a(t*_k) / 2) over chunks of the grid.

    ``sample`` maps an array of times to the (n, 3) so(3) inputs there. Each
    step lifts exp_so3(dt a) through the double cover, for every caller.
    Returns ``(C, stride)``: ``C[j]`` is the product over the
    intervals ``[j stride, (j + 1) stride)`` (the last chunk may be shorter),
    where stride is the smallest step keeping at most _MAX_RECORDED chunks.
    The state after chunk j is C_j ... C_0. Non-finite samples or step
    quaternions raise ValueError.
    """
    stride = max(1, -(-(len(nodes) - 1) // _MAX_RECORDED))
    chunks = []
    for ts, dt, a in _walk(sample, nodes, midpoint, stride):
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            # dt a / 2 laid out (3, n), so the product runs along the nodes; quat_exp reads its columns
            steps = quat_exp(np.multiply(0.5 * dt, a.T, out=np.empty((3, len(dt)))).T)
        if not np.isfinite(steps).all():  # a non-finite a(t*) gives a non-finite step, as dt > 0
            if (k := _first_bad(a)) >= 0:
                raise ValueError(f"non-finite algebra increment at t = {float(ts[k])!r}")
            k = _first_bad(steps)
            raise ValueError(f"non-finite step rotation at t = {float(ts[k])!r}: the step angle |dt a| overflows")
        # whole chunks of ``stride`` steps, a partial last one padded with identities
        if pad := -len(dt) % stride:
            steps = np.concatenate([steps, np.tile(_IDENTITY, (pad, 1))])
        steps = steps.reshape(-1, stride, 4)
        while steps.shape[1] > 1:
            if steps.shape[1] % 2:
                steps = np.concatenate([steps, np.broadcast_to(_IDENTITY, (len(steps), 1, 4))], axis=1)
            steps = quat_mul(steps[:, 1::2], steps[:, 0::2])
        chunks.append(steps[:, 0])
    return (chunks[0] if len(chunks) == 1 else np.concatenate(chunks)), stride


# ---------------------------------------------------------------------------
# public steppers


class TransportResult:
    """Final group element plus the recorded states, stacked and as (t, x, g) samples.

    Built by the engine alone: the constructor runs :func:`_compose` over the
    path's grid, which refuses every non-finite step, so reading refuses nothing.
    Long runs record at most ~1024 evenly strided states; the first and final
    states are always included. Both are built from the run's chunk products on
    first read: ``final`` by :func:`_last_product`, ``states`` (times (m,), points
    (m, d), and frames (m, 3, 3) or, for the lifts, quaternions (m, 4); row 0 is the
    start) by the prefix scan, which also fills ``final`` from its last row (the two
    are bitwise equal). ``samples`` is its tuple view, one ``(t, x, g)`` per row.
    ``frames`` maps a stack of states to their frames, and ``frame`` maps one
    state, given as four Python floats, to the same bits as a one-row ``frames``.
    """

    def __init__(self, sample, path: PathSpec, config: IntegratorConfig, frames, frame, start: np.ndarray):
        nodes = integration_grid(config.steps, path.corners)
        self._chunks, stride = _compose(sample, nodes, config.method == "exp-midpoint")
        self._path, self._frames, self._frame, self._start = path, frames, frame, start
        # the start, then the end of every chunk: a copy, so the result does not keep the whole grid alive
        self._times = np.concatenate((nodes[:-1:stride], nodes[-1:]))

    @cached_property
    def final(self) -> np.ndarray:
        return self._frame(_last_product(self._chunks).tolist())

    @cached_property
    def states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        G = np.concatenate((self._start[None], self._frames(_prefix_products(self._chunks))))
        self.__dict__.setdefault("final", G[-1].copy())
        return self._times, _on_path(self._path.position, self._times), G

    @cached_property
    def samples(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
        times, points, states = self.states
        return tuple(zip(times.tolist(), points, states))


def _lift(sample, path: PathSpec, q0, cfg: IntegratorConfig) -> TransportResult:
    """The run as unit quaternions: the chunk states applied to q0 (a fresh identity if None)."""
    q = _IDENTITY.copy() if q0 is None else check_unit_quat(q0).copy()  # frames are built after the return
    qs = q.tolist()
    return TransportResult(sample, path, cfg, lambda S: quat_mul(S, q), lambda p: np.array(_hamilton(p, qs)), q)


def transport(
    form: LocalConnectionForm,
    path: PathSpec,
    g0=None,
    config: IntegratorConfig | None = None,
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
    """
    sample = _form_sampler(form, path)
    g = np.eye(3) if g0 is None else check_rotation(g0).copy()  # frames are built after the return
    return TransportResult(sample, path, config or IntegratorConfig(), lambda S: quat_to_rotation(S) @ g,
                           lambda p: (_rotation_on_floats(p) @ g)[0], g)


def transport_quat(
    path: PathSpec,
    q0=None,
    config: IntegratorConfig | None = None,
) -> TransportResult:
    """Transport on the unit-quaternion group under its natural connection.

    The S^3 algebra input is the path velocity v, whose image in so(3) is
    lie_hom_derivative(v) = 2 v; the engine's half-angle step of 2 v is
    q <- quat_exp(dt v(t*)) q. So this is the lift of :func:`transport` with
    the natural SO(3) form on the doubled path, and projects onto it through
    the double cover.
    """
    if path.base_dim != 3:
        raise ValueError("quaternion transport requires a path in R^3")

    def evaluate(x, v):
        with np.errstate(over="ignore"):  # a doubled velocity past the float range is refused as non-finite
            return -lie_hom_derivative(v)

    doubled = LocalConnectionForm(3, evaluate, "quaternion", translation_invariant=True)
    return _lift(_form_sampler(doubled, path), path, q0, config or IntegratorConfig())


def lift_transport(
    form: LocalConnectionForm,
    path: PathSpec,
    q0=None,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Continuous unit-quaternion lift of an SO(3) transport run.

    Steps with half the algebra increment, quat_exp(dt a / 2), so the image
    under the double cover reproduces exp_so3(dt a) exactly at every step
    while the sign is tracked by continuity from q0 (identity by default).
    This is the quaternion product that :func:`transport` projects to SO(3).
    ``config`` defaults to exp-midpoint with 512 steps.
    """
    return _lift(_form_sampler(form, path), path, q0, config or IntegratorConfig(steps=512)).final


def holonomy(
    form: LocalConnectionForm,
    loop: PathSpec,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Transport around a closed loop starting from the identity."""
    if not loop.closed:
        raise ValueError(f"holonomy requires a closed path; '{loop.kind}' is not closed")
    return transport(form, loop, config=config).final


def time_ordered_product(form: LocalConnectionForm, path: PathSpec, n: int) -> np.ndarray:
    """First-order product approximation of transport on a plain uniform grid.

    Returns exp(dt a(t_{n-1})) ... exp(dt a(t_0)) with dt = 1/n and left
    endpoint sampling; corners are deliberately not merged in, so this equals
    a lie-euler run exactly only when the path is smooth (or its corners land
    on the grid). ``n`` may be at most ``MAX_STEPS``. This is the lift of a
    lie-euler run on the corner-free path, from the identity, projected to SO(3).
    """
    flat = dataclasses.replace(path, corners=())
    # the lift's frame, a product with the identity quaternion, fixes the signs of zero entries
    return quat_to_rotation(_lift(_form_sampler(form, flat), flat, None, IntegratorConfig("lie-euler", n)).final)


def small_loop_curvature(
    form: LocalConnectionForm,
    x,
    u,
    v,
    eps: float,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Estimate the curvature Omega_x(u, v) from parallelogram holonomies.

    The circuit x -> x+eps u -> x+eps u+eps v -> x+eps v -> x transports to
    exp(-eps^2 Omega_x(u, v)) up to O(eps^3), so the negated holonomy
    logarithm over eps^2 is off by O(eps). Extrapolating from a second loop
    at eps/2 (Richardson) leaves O(eps^2).

    A loop past pi in holonomy angle wraps into a wrong estimate without an
    error, so a loop too large to be small is refused by two tests on the
    eps/2 loop. Its step angles |dt a| over the engine's own nodes must sum to
    less than pi: the angle of a product of rotations is at most the sum of
    the factors' angles, so the loop's holonomy has not wrapped and log_so3
    reads its angle truly. That angle |est(eps/2)| (eps/2)^2 must then not
    exceed pi/8, which keeps the eps loop, about four times larger, below
    pi/2. These guard the wrap, not the error.

    A loop whose area e^2 (e = eps or eps/2) underflows below the smallest
    normal float, or whose sides are lost in rounding at x, is refused before
    any transport; above that the estimate, at most pi / e^2, is finite.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    cfg = config or IntegratorConfig()

    def loop(e: float) -> PathSpec:
        if e * e < np.finfo(float).tiny:
            raise ValueError(f"eps = {eps!r} is too small: the loop area ({e!r})^2 underflows")
        return parallelogram_loop(x, u, v, e)

    def estimate(c: PathSpec, e: float) -> np.ndarray:
        return -log_so3(transport(form, c, config=cfg).final) / (e * e)

    small = loop(eps / 2.0)
    half = estimate(small, eps / 2.0)
    blocks = _walk(_form_sampler(form, small), integration_grid(cfg.steps, small.corners), cfg.method == "exp-midpoint")
    with np.errstate(over="ignore"):  # the engine took every step, so a sum past the float range is inf, refused
        total = sum(float(np.linalg.norm(dt[:, None] * a, axis=1).sum()) for _, dt, a in blocks)
    if total >= np.pi:
        raise ValueError(f"loop too large to be small: the half-size loop's step angles |dt a| sum to {total:.4g}, "
                         "at least pi, so its holonomy angle may wrap past pi")
    angle = float(np.linalg.norm(half)) * ((eps / 2.0) * (eps / 2.0))  # a float power would raise OverflowError
    if angle > np.pi / 8.0:
        raise ValueError("loop too large to be small: the half-size loop's holonomy angle "
                         f"{angle:.3f} exceeds pi/8, so the full-size loop's may wrap past pi")
    return 2.0 * half - estimate(loop(eps), eps)


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
) -> float:
    """Observed order from runs at n0 and 2 n0 steps against a 16 n0 reference.

    Intended for smooth paths where the stepper actually commits truncation
    error. When both runs already sit at roundoff (as on exactly integrable
    paths) the error ratio is meaningless and a ValueError is raised. Runs
    start from the identity.
    """
    ref = transport(form, path, config=IntegratorConfig(method=method, steps=16 * n0)).final
    e1 = np.linalg.norm(transport(form, path, config=IntegratorConfig(method=method, steps=n0)).final - ref)
    e2 = np.linalg.norm(transport(form, path, config=IntegratorConfig(method=method, steps=2 * n0)).final - ref)
    if e2 < 1e-14 or e1 <= e2:
        raise ValueError(
            f"reference not converged: error ratio non-monotone (e(n0) = {e1:.3e}, e(2 n0) = {e2:.3e})"
        )
    return float(np.log2(e1 / e2))


# ---------------------------------------------------------------------------
# path catalog


def _check_finite(what: str, *values) -> None:
    """Refuse non-finite path parameters before any arithmetic on them."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{what} must be finite")


def _node_major(t, values: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per-node values at the times ``t``, as an array of shape ``t.shape + (d,)``.

    ``values`` maps the flattened times, shape (n,), to a (d, n) array, so each
    of its ufunc loops runs along the n nodes rather than over the d
    components of every node; the result is its transpose, not a copy.
    """
    t = np.asarray(t, dtype=float)
    V = values(t.reshape(-1))
    return V.T.reshape(t.shape + V.shape[:1])


def line(x0, xi) -> PathSpec:
    """Straight path c(t) = x0 + t xi."""
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x0.shape != xi.shape or x0.ndim != 1:
        raise ValueError("line expects a point and a displacement of equal dimension")
    _check_finite("line point and displacement", x0, xi)
    with np.errstate(over="ignore"):  # refused just below
        reach = np.abs(x0) + np.abs(xi)
    if not np.isfinite(reach).all():
        raise ValueError(f"line point {x0.tolist()} and displacement {xi.tolist()} are too large: "
                         "a coordinate's reach |x0| + |xi| overflows")
    x0, xi = x0[:, None], xi[:, None]
    return PathSpec(
        base_dim=len(x0),
        position=lambda t: _node_major(t, lambda s: x0 + xi * s),
        velocity=lambda t: _node_major(t, lambda s: np.repeat(xi, len(s), axis=1)),
        closed=not np.any(xi),
        kind="line",
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
        b1, b2 = np.eye(d)[:2]
    else:
        b1 = np.asarray(plane[0], dtype=float)
        b2 = np.asarray(plane[1], dtype=float)
    _check_finite("circle center, radius and plane", center, radius, b1, b2)
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
    with np.errstate(over="ignore"):  # refused just below
        speed, reach = radius * tau, np.abs(center) + radius
    if not (np.isfinite(speed) and np.isfinite(reach).all()):
        raise ValueError(f"circle radius {radius} around center {center.tolist()} is too large: "
                         "the speed 2 pi r or a coordinate's reach |center| + r overflows")
    center, b1, b2 = center[:, None], b1[:, None], b2[:, None]

    def position(s):
        angle = tau * s
        return center + radius * (b1 * np.cos(angle) + b2 * np.sin(angle))

    def velocity(s):
        angle = tau * s
        return speed * (b1 * -np.sin(angle) + b2 * np.cos(angle))

    return PathSpec(
        base_dim=d,
        position=lambda t: _node_major(t, position),
        velocity=lambda t: _node_major(t, velocity),
        closed=True,
        kind="circle",
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
    _check_finite("polyline points", P)
    m, d = P.shape
    if times is None:
        T = np.linspace(0.0, 1.0, m)
    else:
        T = np.asarray(times, dtype=float)
        if T.shape != (m,):
            raise ValueError(f"times must match the number of points ({m})")
        _check_finite("polyline times", T)
        if np.any(np.diff(T) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if abs(T[0]) > 1e-12 or abs(T[-1] - 1.0) > 1e-12:
            raise ValueError("times must cover [0, 1]")
        T = T.copy()
        T[0], T[-1] = 0.0, 1.0
    with np.errstate(over="ignore"):  # huge finite vertices overflow: refused just below
        slopes = (P[1:] - P[:-1]) / np.diff(T)[:, None]
        gap = float(np.linalg.norm(P[-1] - P[0]))
    if not (np.isfinite(slopes).all() and np.isfinite(gap)):
        raise ValueError("polyline vertices are too far apart: a slope or the closure gap overflows")
    if closed is None:
        closed = gap <= 1e-9
    elif closed and gap > 1e-9:
        raise ValueError(f"polyline declared closed but endpoints differ by {gap:.3e}")

    # vertices and slopes one row per coordinate, so a segment lookup is a take along the nodes
    P, slopes, knots = P.T.copy(), slopes.T.copy(), T[1:-1]

    def segment_of(s):
        # the number of interior knots at or before s: the clamped segment containing s
        return np.searchsorted(knots, s, side="right")

    def position(s):
        i = segment_of(s)
        X = P.take(i, axis=1) + (s - T.take(i)) * slopes.take(i, axis=1)
        np.copyto(X, P[:, -1:], where=s == 1.0)  # the end is the last vertex itself, not interpolated to
        return X

    return PathSpec(
        base_dim=d,
        position=lambda t: _node_major(t, position),
        velocity=lambda t: _node_major(t, lambda s: slopes.take(segment_of(s), axis=1)),
        closed=bool(closed),
        kind="polyline",
        corners=tuple(float(t) for t in knots),
    )


def parallelogram_loop(x, u, v, eps: float) -> PathSpec:
    """Closed parallelogram circuit x -> x+eps u -> x+eps u+eps v -> x+eps v -> x.

    A side that rounding at the corners moves off eps u or eps v by more than
    ``SIDE_ROUNDING`` of its length (max norm) is refused; a unit side at x = 1e20 is lost whole.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_finite("parallelogram corner, sides and eps", x, u, v, eps)
    with np.errstate(over="ignore", invalid="ignore"):  # corners that overflow are refused below
        sides = eps * np.array([u, v, -u, -v])
        pts = np.array([x, x + eps * u, x + eps * u + eps * v, x + eps * v, x])
    if not sides.any(axis=1).all():
        raise ValueError("parallelogram sides must be nonzero")
    if not np.isfinite(pts).all():
        raise ValueError(f"parallelogram corner {x.tolist()} and sides at eps = {eps!r} are too large: a corner overflows")
    loop = polyline(pts, closed=True)  # refuses slopes that overflow, so the sides below are finite
    off = np.abs(np.diff(pts, axis=0) - sides).max(axis=1) / np.abs(sides).max(axis=1)
    if off.max() > SIDE_ROUNDING:
        raise ValueError(f"parallelogram side {np.argmax(off) + 1} is lost in rounding at corner {x.tolist()} (eps = "
                         f"{eps!r}): it is off by {off.max():.3e} of its length, over the bound {SIDE_ROUNDING:g}")
    return dataclasses.replace(loop, kind="parallelogram")


def great_arc(p, q, side: str = "outer") -> tuple[PathSpec, Surface]:
    """Shortest great-circle arc from p to q on the sphere of radius |p|, as a chart path.

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
    r = float(np.linalg.norm(p))
    if r <= 0.0:
        raise ValueError("sphere radius must be positive")
    if abs(np.linalg.norm(q) - r) > 1e-9 * max(r, 1.0):
        raise ValueError(f"point q does not lie on the sphere of radius {r}")

    w = np.cross(p, q)
    wn = float(np.linalg.norm(w))
    dot = float(p @ q)
    if wn < 1e-12 * r * r:
        if dot > 0.0:
            raise ValueError("great_arc requires distinct points")
        # antipodal: any axis orthogonal to p closes a half circle
        e = np.eye(3)[int(np.argmin(np.abs(p)))]
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
