"""Kernels for so(3), SO(3), and unit quaternions.

Conventions used throughout the package:

* Vectors in R^3 identify with so(3) through the hat map, so that
  ``hat(u) @ w == cross(u, w)``.
* Quaternions are arrays ``(w, x, y, z)`` with scalar part first and
  Hamilton's product rule.
* ``quat_to_rotation`` is the usual double cover; its derivative at the
  identity doubles the axis vector (``lie_hom_derivative``), hence
  ``quat_to_rotation(quat_exp(u)) == exp_so3(2 * u)``.

All functions accept array-likes and return fresh ``float64`` arrays.
"""

from __future__ import annotations

import numpy as np

_EPS_ANGLE = 1e-6  # switch to Taylor series below this rotation angle
_LOG_DOMAIN_MARGIN = 1e-6  # log_so3 refuses angles above pi minus this


def hat(v) -> np.ndarray:
    """Return the skew-symmetric matrix of ``v``, i.e. hat(v) @ w = v x w."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"hat expects a 3-vector, got shape {v.shape}")
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(M, tol: float = 1e-10) -> np.ndarray:
    """Inverse of :func:`hat`. Rejects matrices that are not skew-symmetric.

    ``tol`` bounds the allowed Frobenius norm of ``M + M.T``.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"vee expects a 3x3 matrix, got shape {M.shape}")
    asym = np.linalg.norm(M + M.T)
    if asym > tol:
        raise ValueError(f"vee: matrix is not skew-symmetric (|M + M^T| = {asym:.3e})")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def cross(u, v) -> np.ndarray:
    """Cross product on R^3 (the Lie bracket in hat coordinates)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (3,) or v.shape != (3,):
        raise ValueError("cross expects two 3-vectors")
    return np.cross(u, v)


def commutator(A, B) -> np.ndarray:
    """Matrix commutator AB - BA."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ValueError("commutator expects two square matrices of equal shape")
    return A @ B - B @ A


def exp_so3(v) -> np.ndarray:
    """Rotation matrix exp(hat(v)) by the Rodrigues formula.

    For angles below 1e-6 the sin/cos coefficients are replaced by their
    fourth-order Taylor expansions to avoid cancellation.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"exp_so3 expects a 3-vector, got shape {v.shape}")
    theta = float(np.linalg.norm(v))
    K = hat(v)
    if theta < _EPS_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0  # sin(t)/t
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0  # (1-cos(t))/t^2
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def log_so3(R) -> np.ndarray:
    """Axis-angle vector of a rotation matrix; inverse of :func:`exp_so3`.

    Well defined for rotation angles in [0, pi). Angles within 1e-6 of pi
    are refused because the axis becomes numerically ambiguous there.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"log_so3 expects a 3x3 matrix, got shape {R.shape}")
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(c))
    if theta > np.pi - _LOG_DOMAIN_MARGIN:
        raise ValueError(
            f"log_so3: rotation angle {theta:.9f} is within {_LOG_DOMAIN_MARGIN:.0e} "
            "of pi; the axis is ill-conditioned there"
        )
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < _EPS_ANGLE:
        t2 = theta * theta
        # theta / (2 sin theta) expanded to fourth order
        f = 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
    else:
        f = 0.5 * theta / np.sin(theta)
    return f * w


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a 30-term Taylor sum.

    The input is scaled by 2**-s until its Frobenius norm is at most 0.5,
    the series is summed in Horner form, and the result squared s times.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expm expects a square matrix")
    n = A.shape[0]
    norm = np.linalg.norm(A)
    s = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    B = A / (2.0**s)
    E = np.eye(n)
    for k in range(30, 0, -1):
        E = np.eye(n) + (B @ E) / k
    for _ in range(s):
        E = E @ E
    return E


def quat_mul(p, q) -> np.ndarray:
    """Hamilton product of quaternions given as (w, x, y, z).

    Stacks of shape (..., 4) multiply elementwise, with broadcasting.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != (4,) or q.shape[-1:] != (4,):
        raise ValueError("quat_mul expects quaternions of shape (..., 4)")
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = pw * qw - px * qx - py * qy - pz * qz
    out[..., 1] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 2] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 3] = pw * qz + px * qy - py * qx + pz * qw
    return out


def quat_conj(q) -> np.ndarray:
    """Quaternion conjugate (w, -x, -y, -z)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError("quat_conj expects a 4-vector")
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_exp(u) -> np.ndarray:
    """Exponential of the pure quaternion with imaginary part ``u``.

    Returns the unit quaternion (cos|u|, sin|u| * u/|u|); the sinc factor
    uses its Taylor expansion below 1e-6. A stack of shape (..., 3) gives
    a stack of shape (..., 4).
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (3,):
        raise ValueError(f"quat_exp expects vectors of shape (..., 3), got shape {u.shape}")
    theta = np.linalg.norm(u, axis=-1)
    t2 = theta * theta
    small = theta < _EPS_ANGLE
    sinc = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(theta)[..., None], sinc[..., None] * u], axis=-1)


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (the double cover SO(3) <- S^3).

    Both q and -q map to the same rotation. The input must be unit to within
    1e-9; it is renormalized before use so products of many unit factors stay
    in domain. A stack of shape (..., 4) gives a stack of shape (..., 3, 3).
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError("quat_to_rotation expects quaternions of shape (..., 4)")
    n2 = np.sum(q * q, axis=-1)
    bad = ~(np.abs(n2 - 1.0) <= 1e-9)  # NaN counts as bad
    if np.any(bad):
        first = float(np.ravel(n2)[np.argmax(np.ravel(bad))])
        raise ValueError(f"quat_to_rotation: |q|^2 = {first:.12f} is not 1")
    w, x, y, z = np.moveaxis(q / np.sqrt(n2)[..., None], -1, 0)
    rows = [
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def rotation_to_quat(R) -> np.ndarray:
    """A unit quaternion mapping to ``R`` under :func:`quat_to_rotation`.

    Uses Shepperd's branch selection for stability and returns the canonical
    representative: w >= 0, and if w == 0 the first nonzero component of
    (x, y, z) is positive.
    """
    R = np.asarray(R, dtype=float)
    check_rotation(R, tol=1e-8)
    tr = np.trace(R)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (R[2, 1] - R[1, 2]) / s,
                (R[0, 2] - R[2, 0]) / s,
                (R[1, 0] - R[0, 1]) / s,
            ]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    q = q / np.linalg.norm(q)
    return canonical_quat(q)


def canonical_quat(q) -> np.ndarray:
    """Pick the sign representative with w >= 0 (ties broken by the first
    nonzero imaginary component being positive)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError("canonical_quat expects a 4-vector")
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q
    return q.copy()


def lie_hom_derivative(u) -> np.ndarray:
    """Derivative at the identity of the double cover: pure quaternion
    imaginary part ``u`` maps to the so(3) axis vector ``2 u``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("lie_hom_derivative expects a 3-vector")
    return 2.0 * u


def project_rotation(M) -> np.ndarray:
    """Orthogonally project a near-rotation matrix back onto SO(3).

    Uses the polar factor from an SVD, which is the Frobenius-nearest
    rotation. Refuses singular or reflection-dominant input (det <= 0).
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError("project_rotation expects a 3x3 matrix")
    d = np.linalg.det(M)
    if not np.isfinite(d) or d <= 0.0:
        raise ValueError(f"project_rotation: det = {d:.3e}; input is singular or reflection-dominant")
    U, S, Vt = np.linalg.svd(M)
    if S[-1] <= 1e-12 * S[0]:
        raise ValueError("project_rotation: input is numerically singular")
    R = U @ Vt
    if np.linalg.det(R) < 0.0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def check_rotation(R, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``R`` is a rotation matrix; returns it as float64.

    ``tol`` bounds the Frobenius norm of R^T R - I; det must be positive.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation matrix, got shape {R.shape}")
    defect = np.linalg.norm(R.T @ R - np.eye(3))
    if defect > tol:
        raise ValueError(f"matrix is not orthonormal (|R^T R - I| = {defect:.3e})")
    if np.linalg.det(R) < 0.0:
        raise ValueError("matrix has negative determinant (reflection, not rotation)")
    return R


def check_unit_quat(q, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``q`` is a unit quaternion; returns it as float64."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"expected a quaternion (w, x, y, z), got shape {q.shape}")
    defect = abs(float(q @ q) - 1.0)
    if defect > tol:
        raise ValueError(f"quaternion is not unit (| |q|^2 - 1 | = {defect:.3e})")
    return q
