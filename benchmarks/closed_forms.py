"""Closed-form references for the benchmark, written without the library.

Every reference here is computed from the geometry alone, so a check never
compares the program with itself. Conventions match the package: rotations
act on the left, later steps multiply on the left, quaternions are
``(w, x, y, z)``.
"""

from __future__ import annotations

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])


def hat(v) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def rodrigues(v) -> np.ndarray:
    """exp(hat(v)); the series branch keeps tiny angles exact to roundoff."""
    v = np.asarray(v, dtype=float)
    th = float(np.linalg.norm(v))
    K = hat(v)
    if th < 1e-4:
        t2 = th * th
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / (th * th)
    return np.eye(3) + a * K + b * (K @ K)


def rz(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def ordered_product(increments) -> np.ndarray:
    """exp(a_{n-1}) ... exp(a_1) exp(a_0): transport when a is piecewise constant."""
    G = np.eye(3)
    for a in increments:
        G = rodrigues(a) @ G
    return G


def quat_mul(p, q) -> np.ndarray:
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def quat_exp(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    th = float(np.linalg.norm(u))
    s = np.sin(th) / th if th > 0.0 else 1.0
    return np.concatenate([[np.cos(th)], s * u])


def quat_rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def random_quat(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def random_rotation(rng) -> np.ndarray:
    return quat_rotation(random_quat(rng))


def sign_free_distance(p, q) -> float:
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return float(min(np.linalg.norm(p - q), np.linalg.norm(p + q)))


def rotating_frame(a0, phi: float, steps: int):
    """Transport when the algebra input rotates about e3: a(t) = Rz(phi t) a0.

    Substituting g = Rz(phi t) h gives h' = hat(a0 - phi e3) h, so the exact
    transport is Rz(phi) exp(a0 - phi e3); for phi = 2 pi that is
    exp(a0 - 2 pi e3). Natural and plane-rolling circles in the e1-e2 plane
    and sphere latitudes all have this form.

    Returns ``(exact, budget)``. ``budget`` is twice the error that the
    exponential midpoint stepper (the library's default method) commits on
    ``steps`` uniform intervals, plus 1e-9 for roundoff. That stepper's
    product has a closed form too: with E = exp(h a0), d = phi h and
    phi_k = (k + 1/2) d, it is Rz(phi_{n-1}) E (Rz(-d) E)^(n-1) Rz(-phi_0).
    A result within the budget is at least half as accurate as that stepper.
    """
    a0 = np.asarray(a0, dtype=float)
    exact = rz(phi) @ rodrigues(a0 - phi * E3)
    h = 1.0 / steps
    E = rodrigues(h * a0)
    stepper = (
        rz(phi * (steps - 0.5) * h)
        @ E
        @ np.linalg.matrix_power(rz(-phi * h) @ E, steps - 1)
        @ rz(-0.5 * phi * h)
    )
    return exact, 2.0 * float(np.linalg.norm(stepper - exact)) + 1e-9


def sphere_algebra(radius: float, side: str, theta: float, phi: float, v) -> np.ndarray:
    """a = -omega_u(v) for a unit ball rolling on the sphere of ``radius``.

    In the spherical chart u = (theta, phi): outside, omega = -(1/r)(1 + 1/r)
    (x cross v_emb); inside, omega = (1/r)(1 - 1/r)(x cross v_emb).
    """
    r = float(radius)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    x = r * np.array([st * cp, st * sp, ct])
    d_th = r * np.array([ct * cp, ct * sp, -st])
    d_ph = r * np.array([-st * sp, st * cp, 0.0])
    v_emb = v[0] * d_th + v[1] * d_ph
    k = -(1.0 / r) * (1.0 + 1.0 / r) if side == "outer" else (1.0 / r) * (1.0 - 1.0 / r)
    return -k * np.cross(x, v_emb)


def section_formula(p) -> np.ndarray:
    """Global section of unit-sphere rolling: q(x, y, z) = (z, -y, x, 0), up to sign."""
    x, y, z = p
    return np.array([z, -y, x, 0.0])


def grid_intervals(steps: int, corners=()) -> int:
    """Intervals of the uniform grid once the path's interior corners are merged in."""
    nodes = np.linspace(0.0, 1.0, steps + 1)
    extra = sum(1 for c in corners if 0.0 < c < 1.0 and np.min(np.abs(nodes - c)) > 1e-12)
    return steps + extra
