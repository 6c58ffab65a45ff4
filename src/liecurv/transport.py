"""Parallel transport, holonomy, and curvature estimation from loops.

Transport solves the right-trivialized equation g'(t) = hat(a(t)) g(t) with
a(t) = -omega_{c(t)}(c'(t)) by composing exponentials of algebra increments.
Later steps multiply on the LEFT, so the result of a full run is the
time-ordered product

    exp(dt a(t_{n-1})) ... exp(dt a(t_1)) exp(dt a(t_0)) g0.

The steppers are the rows of :data:`METHODS`, each named by where it samples
a in its interval, as a fraction of the interval: "lie-euler" at the left
node, 0 (first order), and "exp-midpoint" at the midpoint, 1/2 (second
order). The integration grid is the union of a uniform grid with the path's
registered corner times, so piecewise-smooth paths never straddle a kink.

How the product is evaluated
----------------------------
Every public stepper (:func:`transport`, :func:`transport_quat`,
:func:`lift_transport` and :func:`time_ordered_product`) runs through one
engine, :func:`_compose`, with one step rule. It walks the grid one block of
at most a few thousand intervals at a time, so memory stays flat on long
runs, and for each block it

1. samples the form's own value omega = -a(t*) at every node of the block
   in one call: paths map an array of n times to (n, d) arrays and forms
   map (n, d) stacks to (n, 3). The form's shape is checked on every block;
   the first also carries the start point, where the path's shapes are
   checked before the form is called (:func:`_form_sampler`), once each, and
   positions are evaluated only where the form reads them. Per-node
   arithmetic runs along the node axis: the catalog paths compute their
   (n, d) values as (d, n) and return the transpose, and dt a / 2 is formed
   as (-dt / 2) omega, bitwise (dt / 2)(-omega), laid out (3, n), so each
   numpy loop covers the whole block, not one node's 2 to 4 components;
2. exponentiates all steps at once as unit quaternions by half angles,
   exp(dt a / 2) (:func:`liecurv.liecore.exp_components`), and sums the
   step angles |dt a| from those half angles; a block's steps are finite
   when its angle sum is, so only a non-finite sum is searched for the
   first non-finite step, refused by its time. A step's image under the
   double cover is exactly exp_so3(dt a), so one product is both the SO(3)
   frame (through :func:`liecurv.liecore.quat_to_rotation`) and its
   continuous quaternion lift. Quaternion transport is such a lift: its
   so(3) input is lie_hom_derivative(v) = 2 v for the path velocity v, so
   its step is exp(dt v);
3. multiplies the factors, later ones on the left, by a pairwise (tree)
   reduction within chunks of ``stride`` steps, the sample-recording stride.

The engine's quaternions have one layout from the exponential to the frames:
four component rows (w, x, y, z), one column per quaternion, for the steps,
the chunk products and the scan's states. The in-chunk tree multiplies them by
:func:`liecurv.liecore.hamilton`, each component formed in place; the chunk-level
products (final reduction and scan) by ``hamilton_stacked``, the same bits in
about six numpy calls. Chunks lie end to end along the rows, so while a chunk
holds an even count its pairs are consecutive (``r[1::2]``, ``r[0::2]``).

The engine keeps only the run's chunk products, at most ~1024. The final
frame is their pairwise reduction with the pairs aligned to the right end
(:func:`_last_product`): exactly the products that the prefix scan
(Hillis-Steele, :func:`_prefix_products`) forms on its way to its last state,
so the two are bitwise equal. Its top levels, on at most 16 columns, run on
Python floats through ``hamilton``, with the same bits. The scan,
which gives the recorded states, runs on the first read of
:attr:`TransportResult.quat_states` or of :attr:`TransportResult.states`.

The scalar work at the two ends of a run (``check_rotation`` on g0, the uniform
grid, ``final``'s one frame) also avoids numpy's per-call cost by repeating
numpy's operations in numpy's order on Python floats: the same bits. Each such
path lives in the kernel it copies: :func:`liecurv.liecore.check_rotation`,
:func:`integration_grid` and :func:`liecurv.liecore.quat_to_rotation`.

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
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .connections import LocalConnectionForm, Surface, sphere_radius, sphere_surface
from .liecore import (check_rotation, check_unit_quat, cross, exp_components, exp_so3, hamilton,
                      hamilton_stacked, lie_hom_derivative, log_so3, quat_to_rotation)

MAX_STEPS = 10**7  # largest accepted step count; bounds the grid allocation
_MAX_RECORDED = 1024  # sample-recording cap per transport run
_BLOCK = 4096  # intervals evaluated per block (rounded to whole recording chunks)
_SCALAR_ROWS = 16  # _last_product folds with hamilton_stacked down to this many columns, then on Python floats
SIDE_ROUNDING = 1e-6  # largest relative error rounding at the corner may leave on a parallelogram side
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_IDENTITY.flags.writeable = False
METHODS = {"lie-euler": 0.0, "exp-midpoint": 0.5}  # each stepper's sample point, as a fraction of its interval


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
    """Stepper selection: method and uniform step count (at most ``MAX_STEPS``); ``steps=None`` leaves
    the count to the computation that runs the config, in either method, which states its own default."""

    method: str = "exp-midpoint"
    steps: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; use {' or '.join(map(repr, METHODS))}")
        if self.steps is None:  # the computation's own default
            return
        if isinstance(self.steps, bool) or not hasattr(type(self.steps), "__index__"):  # what operator.index takes
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps = {self.steps} exceeds the limit of {MAX_STEPS} steps")


def with_default_steps(config: IntegratorConfig | None, default: int) -> IntegratorConfig:
    """The config a computation runs: ``config`` (exp-midpoint if None), its method kept and a missing step
    count set to the computation's own ``default``. The one place a default step count is filled in."""
    cfg = config or IntegratorConfig()
    return cfg if cfg.steps is not None else IntegratorConfig(cfg.method, default)


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


def _form_sampler(form: LocalConnectionForm, path: PathSpec) -> Callable[..., np.ndarray]:
    """The form's own value omega_{c(t)}(c'(t)) = -a(t), minus the algebra input, as a function of an array of times.

    ``sample(ts, start)`` checks on every block that the form maps its n times to (n, 3). The first block
    (``start``) is led by m = max(d, 3) + 1 rows at time 0, the start point, dropped from the result: they
    make n exceed d and 3, so a map written for one time or point at a time shows a wrong shape there, where
    a block of d or 3 nodes could pass it unseen. On that block the path's shapes are checked before the form
    is called, so a form never meets a malformed path's output. A translation-invariant form is given no
    positions: ``position`` is then called on the m start rows alone, for ``states``. Each refusal names the
    map, the rows it was called with, the shapes it returned and the shapes expected.
    """
    if form.base_dim != path.base_dim:
        raise ValueError(f"dimension mismatch: form '{form.descriptor}' lives on R^{form.base_dim}, "
                         f"path '{path.kind}' on R^{path.base_dim}")
    m, d, ev, reads_x = max(path.base_dim, 3) + 1, path.base_dim, form.evaluate, not form.translation_invariant

    def sample(ts, start):
        ts = np.concatenate((np.zeros(m), ts)) if start else ts
        n = len(ts)
        X = np.asarray(path.position(ts if reads_x else ts[:m]), dtype=float) if reads_x or start else None
        V = np.asarray(path.velocity(ts), dtype=float)
        if start and (X.shape, V.shape) != ((k := n if reads_x else m, d), (n, d)):
            raise ValueError(f"path '{path.kind}' maps {n if reads_x else f'{m} and {n}'} times to shapes {X.shape} "
                             f"and {V.shape}, not ({k}, {d}) and ({n}, {d}): paths must take arrays of times")
        w = np.asarray(ev(X if reads_x else None, V), dtype=float)
        if w.shape != (n, 3):
            raise ValueError(f"form '{form.descriptor}' maps a block of {n} points to shape {w.shape}, "
                             f"not ({n}, 3): forms must take stacks of points and tangents")
        return w[m:] if start else w

    return sample


def _prefix_products(C: np.ndarray) -> np.ndarray:
    """Inclusive scan S_j = C_j ... C_1 C_0 (later factors on the left) of (4, n) component rows, in log2 passes."""
    S = C.copy()
    d = 1
    while d < len(S[0]):
        S[:, d:] = hamilton_stacked(S[:, d:], S[:, :-d])
        d *= 2
    return S


def _last_product(C: np.ndarray) -> Sequence[float]:
    """C_{n-1} ... C_1 C_0 of (4, n) component rows, as four Python floats: bitwise ``_prefix_products(C)[:, -1]``.

    Each halving pass multiplies the pairs (C_{n-1}, C_{n-2}), (C_{n-3}, C_{n-4}), ... and passes an
    unpaired first column through: the products the scan forms on its way to the last column, and no others.
    The passes run on the rows by ``hamilton_stacked`` while more than ``_SCALAR_ROWS`` columns remain, copying
    only to put an unpaired column in front; a stacked product costs about six array operations whatever its
    length, so the last levels are finished on Python floats by :func:`liecurv.liecore.hamilton`: the same IEEE
    operations in the same order, without fused multiply-add, so every bit, signed zeros included, is the same.
    """
    rows = C
    while len(rows[0]) > _SCALAR_ROWS:
        odd = len(rows[0]) % 2
        pairs = hamilton_stacked(rows[:, odd + 1 :: 2], rows[:, odd::2])
        rows = np.concatenate((rows[:, :1], pairs), axis=1) if odd else pairs
    rows = rows.T.tolist()
    while len(rows) > 1:
        odd = len(rows) % 2
        rows[odd:] = map(hamilton, rows[odd + 1 :: 2], rows[odd::2])
    return rows[0]


def _compose(sample: Callable[..., np.ndarray], nodes: np.ndarray, offset: float) -> tuple[np.ndarray, int, float]:
    """The ordered products of the half-angle steps exp(dt_k a(t*_k) / 2) over chunks of the grid.

    ``offset`` is the method's :data:`METHODS` entry: each interval [t0, t0 + dt] is sampled at t* = t0 + offset dt.
    ``sample(ts, first block)`` maps an array of those times to the (n, 3) form values -a, shape checked, one block
    of at most ~_BLOCK intervals in whole chunks at a time. Each step lifts exp_so3(dt a) through the double cover, for
    every caller. Returns ``(C, stride, angles)``: column ``C[:, j]`` of the four component rows is the product over the
    intervals ``[j stride, (j + 1) stride)`` (the last chunk may be shorter), where stride is the smallest step keeping
    at most _MAX_RECORDED chunks, so the state after chunk j is C_j ... C_0. ``angles`` sums the step angles
    |dt a| = 2 |dt a / 2| the steps were formed from, each ``np.linalg.norm(dt a)`` bit for bit unless that norm's
    square overflows. The first non-finite step raises ValueError, naming its time and whether its sample is finite.
    The steps are component rows throughout; a chunk of odd width is padded with one identity, as the partial last
    chunk is, so the pairing and the bits are those of a per-chunk tree on (chunks, stride, 4) stacks.
    """
    n = len(nodes) - 1
    stride = max(1, -(-n // _MAX_RECORDED))
    block = stride * max(1, _BLOCK // stride)
    chunks, angles = [], 0.0
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        t0 = nodes[k0:k1]
        dt = nodes[k0 + 1 : k1 + 1] - t0
        minus_half, ts = -0.5 * dt, t0 + offset * dt  # offset * dt is dt / 2, or 0.0, bit for bit
        w = sample(ts, k0 == 0)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            # dt a / 2 as (-dt / 2) omega, bitwise (dt / 2)(-omega), laid out (3, n): four component rows from here on
            *q, theta = exp_components(*np.multiply(minus_half, w.T, out=np.empty((3, len(dt)))))
            angles += 2.0 * (total := float(theta.sum()))
        # a step is finite exactly when its angle is, and a block's sum when its angles are (each < 2^512, ~10^4 of them)
        if not np.isfinite(total):
            k = int(np.argmax(~np.isfinite(theta)))
            if not np.isfinite(w[k]).all():
                raise ValueError(f"non-finite algebra increment at t = {float(ts[k])!r}")
            raise ValueError(f"non-finite step rotation at t = {float(ts[k])!r}: the step angle |dt a| overflows")
        # chunks of ``width`` steps laid end to end along each component row, a partial last one padded with identities
        if pad := -len(dt) % stride:
            q = np.concatenate((q, np.broadcast_to(_IDENTITY[:, None], (4, pad))), axis=1)
        width = stride
        while width > 1:
            if width % 2:  # an identity at the end of every chunk
                S = np.empty((4, len(q[0]) // width, width + 1))
                S[..., :width], S[..., width] = np.reshape(q, (4, -1, width)), _IDENTITY[:, None]
                q, width = S.reshape(4, -1), width + 1
            q = hamilton([r[1::2] for r in q], [r[0::2] for r in q])  # an even width pairs within chunks
            width //= 2
        chunks.append(q)
    return np.concatenate(chunks, axis=1), stride, angles


# ---------------------------------------------------------------------------
# public steppers


class TransportResult:
    """Final group element plus the recorded states, stacked.

    Built by the engine alone: the constructor runs :func:`_compose` over the path's grid, which refuses every
    non-finite step, so reading refuses nothing. Long runs record at most ~1024 evenly strided states, the first and
    final among them. Each attribute is built on first read from the run's chunk products (component rows): ``final``
    by :func:`_last_product`; ``quat_states``, the times (m,), points (m, d) and the run's quaternions (m, 4) from the
    identity (row 0), by the prefix scan, the one place it runs; ``states``, the same times and points with frames
    (m, 3, 3), or for the lifts quaternions (m, 4), from the start (row 0), by the one map ``frames`` from
    ``quat_states``. That map also takes one state, four Python floats, to its frame: the scan's last, for ``final``
    if the states come first (bitwise :func:`_last_product`'s). ``_angles`` sums the step angles |dt a|.
    """

    def __init__(self, sample, path: PathSpec, config: IntegratorConfig, frames, start: np.ndarray):
        nodes = integration_grid(config.steps, path.corners)
        self._chunks, stride, self._angles = _compose(sample, nodes, METHODS[config.method])
        self._path, self._frames, self._start = path, frames, start
        # the start, then the end of every chunk: a copy, so the result does not keep the whole grid alive
        self._times = np.concatenate((nodes[:-1:stride], nodes[-1:]))

    @cached_property
    def final(self) -> np.ndarray:
        return self._frames(_last_product(self._chunks))

    @cached_property
    def quat_states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        S = _prefix_products(self._chunks)
        if "final" not in self.__dict__:
            self.final = self._frames(S[:, -1].tolist())
        Q = np.concatenate((_IDENTITY[None], S.T))
        return self._times, np.asarray(self._path.position(self._times), dtype=float), Q

    @cached_property
    def states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ts, xs, Q = self.quat_states
        return ts, xs, np.concatenate((self._start[None], self._frames(Q[1:].T)))


def _lift(sample, path: PathSpec, q0, cfg: IntegratorConfig) -> TransportResult:
    """The run as unit quaternions: the chunk states applied to q0 (a fresh identity if None)."""
    q = _IDENTITY.copy() if q0 is None else check_unit_quat(q0).copy()  # frames are built after the return
    qs = q.tolist()
    return TransportResult(sample, path, cfg, lambda S: np.array(hamilton(S, qs)).T, q)


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
        Stepper and step count; exp-midpoint by default, with 10^4 steps unless it gives a count.
    """
    sample = _form_sampler(form, path)
    g = np.eye(3) if g0 is None else check_rotation(g0).copy()  # frames are built after the return
    return TransportResult(sample, path, with_default_steps(config, 10_000),
                           lambda S: quat_to_rotation(np.transpose(S)) @ g, g)


def transport_quat(
    path: PathSpec,
    q0=None,
    config: IntegratorConfig | None = None,
) -> TransportResult:
    """Transport on the unit-quaternion group under its natural connection.

    The S^3 algebra input is the path velocity v, whose image in so(3) is
    lie_hom_derivative(v) = 2 v; the engine's half-angle step of 2 v is
    q <- exp(dt v(t*)) q. So this is the lift of :func:`transport` with
    the natural SO(3) form on the doubled path, and projects onto it through
    the double cover.
    """
    if path.base_dim != 3:
        raise ValueError("quaternion transport requires a path in R^3")

    def evaluate(x, v):
        with np.errstate(over="ignore"):  # a doubled velocity past the float range is refused as non-finite
            return -lie_hom_derivative(v)

    doubled = LocalConnectionForm(3, evaluate, "quaternion", translation_invariant=True)
    return _lift(_form_sampler(doubled, path), path, q0, with_default_steps(config, 10_000))


def lift_transport(
    form: LocalConnectionForm,
    path: PathSpec,
    q0=None,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Continuous unit-quaternion lift of an SO(3) transport run.

    Steps with half the algebra increment, exp(dt a / 2), so the image
    under the double cover reproduces exp_so3(dt a) exactly at every step
    while the sign is tracked by continuity from q0 (identity by default).
    This is the quaternion product that :func:`transport` projects to SO(3).
    ``config`` defaults to exp-midpoint; with ``steps=None``, in either method, it runs 512 steps.
    """
    return _lift(_form_sampler(form, path), path, q0, with_default_steps(config, 512)).final


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
    eps/2 loop. Its step angles |dt a|, which its transport sums as it forms
    them, must sum to less than pi: the angle of a product of rotations is at
    most the sum of the factors' angles, so the loop's holonomy has not
    wrapped and log_so3 reads its angle truly. That angle |est(eps/2)|
    (eps/2)^2 must then not exceed pi/8, which keeps the eps loop, about four
    times larger, below pi/2. These guard the wrap, not the error.

    A loop whose area e^2 (e = eps or eps/2) underflows below the smallest
    normal float, or whose sides are lost in rounding at x, is refused before
    any transport; above that the estimate, at most pi / e^2, is finite.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")

    def loop(e: float) -> PathSpec:
        if e * e < np.finfo(float).tiny:
            raise ValueError(f"eps = {eps!r} is too small: the loop area ({e!r})^2 underflows")
        return parallelogram_loop(x, u, v, e)

    def estimate(res: TransportResult, e: float) -> np.ndarray:
        return -log_so3(res.final) / (e * e)

    small = transport(form, loop(eps / 2.0), config=config)
    half = estimate(small, eps / 2.0)
    if (total := small._angles) >= np.pi:
        raise ValueError(f"loop too large to be small: the half-size loop's step angles |dt a| sum to {total:.4g}, "
                         "at least pi, so its holonomy angle may wrap past pi")
    angle = float(np.linalg.norm(half)) * ((eps / 2.0) * (eps / 2.0))  # a float power would raise OverflowError
    if angle > np.pi / 8.0:
        raise ValueError("loop too large to be small: the half-size loop's holonomy angle "
                         f"{angle:.3f} exceeds pi/8, so the full-size loop's may wrap past pi")
    return 2.0 * half - estimate(transport(form, loop(eps), config=config), eps)


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
    ref, f1, f2 = (transport(form, path, config=IntegratorConfig(method, n)).final for n in (16 * n0, n0, 2 * n0))
    e1, e2 = np.linalg.norm(f1 - ref), np.linalg.norm(f2 - ref)
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
    if b1.shape != center.shape or b2.shape != center.shape:
        raise ValueError(f"circle plane vectors must have the center's shape {center.shape}, "
                         f"got {b1.shape} and {b2.shape}")
    # |b| from b 2^-e, its largest entry in [0.5, 1): exact, no overflow; the 1e-12 thresholds on |b| (inf past range)
    e1, e2 = (int(np.frexp(np.abs(b).max())[1]) for b in (b1, b2))
    b1, b2 = np.ldexp(b1, -e1), np.ldexp(b2, -e2)
    with np.errstate(over="ignore"):
        if np.ldexp(n1 := np.linalg.norm(b1), e1) < 1e-12:
            raise ValueError("degenerate circle plane: first spanning vector vanishes")
        b1 = b1 / n1
        b2 = b2 - (b2 @ b1) * b1
        if np.ldexp(n2 := np.linalg.norm(b2), e2) < 1e-12:
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
        T = integration_grid(m - 1)
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


def _norm(x: np.ndarray) -> float:
    """|x| from x 2^-e, its largest entry in [0.5, 1), so that no |x|^2 over- or underflows (|p x q|^2 = r^4 does
    inside sphere_surface's radii). A power of two scales exactly: where np.linalg.norm's squares stay normal
    floats, the bits are its."""
    e = int(np.frexp(np.abs(x).max())[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def great_arc(p, q, side: str = "outer") -> tuple[PathSpec, Surface]:
    """Shortest great-circle arc from p to q on the sphere of radius |p|, as a chart path.

    Builds a sphere chart whose equator contains the arc (so the path stays
    far from the chart's polar caps) and returns the path in that chart's
    coordinates together with the surface. For antipodal endpoints the
    half-circle plane is chosen deterministically from the coordinate axis
    least aligned with p. A radius |p| that :func:`sphere_surface` refuses
    is refused, by its value, before p and q are multiplied.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (3,) or q.shape != (3,):
        raise ValueError("great_arc expects two points in R^3")
    _check_finite("great_arc points p and q", p, q)
    r = sphere_radius(_norm(p))
    if abs(_norm(q) - r) > 1e-9 * max(r, 1.0):
        raise ValueError(f"point q does not lie on the sphere of radius {r}")

    w = cross(p, q)
    wn = _norm(w)
    dot = float(p @ q)
    if wn < 1e-12 * r * r:
        if dot > 0.0:
            raise ValueError("great_arc requires distinct points")
        # antipodal: any axis orthogonal to p closes a half circle
        e = np.eye(3)[int(np.argmin(np.abs(p)))]
        w = cross(p, e)
        f3 = w / _norm(w)
        s = float(np.pi)
    else:
        f3 = w / wn
        s = float(np.arctan2(wn / (r * r), dot / (r * r)))
    f1 = p / r
    f2 = cross(f3, f1)

    surface = sphere_surface(r, side=side, frame=(f1, f2, f3))
    # along the chart's equator: colatitude pi/2, longitude from 0 to s
    path = dataclasses.replace(line(np.array([0.5 * np.pi, 0.0]), np.array([0.0, s])), kind="great-arc")
    return path, surface
