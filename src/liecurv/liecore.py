"""Kernels for so(3), SO(3), and unit quaternions.

Conventions used throughout the package:

* Vectors in R^3 identify with so(3) through the hat map, so that
  ``hat(u) @ w == cross(u, w)``.
* Quaternions are ``(w, x, y, z)`` with scalar part first. The package's one
  product is ``hamilton`` and its one exponential ``exp_components``; both
  work on the four components, numpy rows or Python floats, so a stack of
  quaternions (n, 4) is multiplied as its component rows, ``hamilton(p.T, q.T)``.
* ``quat_to_rotation`` is the usual double cover; its derivative at the
  identity doubles the axis vector (``lie_hom_derivative``), hence the
  rotation of the quaternion ``exp_components(*u)[:4]`` is ``exp_so3(2 * u)``.

The other kernels accept array-likes and return fresh ``float64`` arrays.
``exp_so3``, ``log_so3``, ``check_rotation`` and ``check_unit_quat`` take one
input; the rest also take a stack of vectors (..., 3), matrices (..., 3, 3) or
quaternions (..., 4) and equal their row-by-row calls bit for bit. One input
(pair) of ``check_rotation``, ``quat_to_rotation`` or ``cross`` runs on Python
floats, by numpy's operations in numpy's order: numpy's bits.
"""

from __future__ import annotations

import math

import numpy as np

_EPS_ANGLE = 1e-6  # switch to Taylor series below this rotation angle
_LOG_DOMAIN_MARGIN = 1e-6  # log_so3 refuses angles above pi minus this
_HAT_INDEX = np.array([[3, 2, 1], [2, 3, 0], [1, 0, 3]])  # hat(v) = signs times (x, y, z, 0)[index]
_HAT_SIGN = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])


def hat(v) -> np.ndarray:
    """Return the skew-symmetric matrix of ``v``, i.e. hat(v) @ w = v x w."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"hat expects a 3-vector, got shape {v.shape}")
    return np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)[..., _HAT_INDEX] * _HAT_SIGN


def vee(M) -> np.ndarray:
    """Inverse of :func:`hat`. Rejects matrices that are not skew-symmetric,
    those with Frobenius norm of ``M + M.T`` above 1e-10; a refusal on a
    stack names the first."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ValueError(f"vee expects a 3x3 matrix, got shape {M.shape}")
    asym = np.linalg.norm(M + np.swapaxes(M, -1, -2), axis=(-2, -1))
    if (asym > 1e-10).any():
        i, where = first_failure(asym > 1e-10)
        raise ValueError(f"vee: matrix{where} is not skew-symmetric (|M + M^T| = {asym[i]:.3e})")
    return M[..., [2, 0, 1], [1, 2, 0]]


def cross(u, v) -> np.ndarray:
    """Cross product on R^3 (the Lie bracket in hat coordinates); one pair on Python floats, np.cross's bits."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (3,) or v.shape[-1:] != (3,):
        raise ValueError("cross expects two 3-vectors")
    if u.shape == v.shape == (3,):
        (a0, a1, a2), (b0, b1, b2) = u.tolist(), v.tolist()
        w = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
        if math.isfinite(sum(w)):  # else np.cross, for its warnings; a finite overflowing sum only costs its call
            return np.array(w)
    return np.cross(u, v)


def commutator(A, B) -> np.ndarray:
    """Matrix commutator AB - BA."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape != B.shape:
        raise ValueError("commutator expects two square matrices of equal shape")
    return A @ B - B @ A


def exp_so3(v) -> np.ndarray:
    """Rotation matrix exp(hat(v)) by the Rodrigues formula.

    For angles below 1e-6 the sin/cos coefficients are replaced by their
    fourth-order Taylor expansions to avoid cancellation. A non-finite angle
    (from a non-finite entry or an overflowing norm) raises ValueError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"exp_so3 expects a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):
        theta = float(np.linalg.norm(v))
    if not np.isfinite(theta):  # a non-finite entry, or |v| overflows
        raise ValueError(f"exp_so3: rotation angle |v| = {theta} is not finite")
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
    are refused because the axis becomes numerically ambiguous there. It does
    not check that ``R`` is a rotation: ``log_so3(2 I)`` returns zero.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"log_so3 expects a 3x3 matrix, got shape {R.shape}")
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # |w| = 2 sin(theta): atan2 keeps theta accurate near pi, where arccos of the trace loses digits
    theta = float(np.arctan2(np.linalg.norm(w) / 2.0, (np.trace(R) - 1.0) / 2.0))
    if theta > np.pi - _LOG_DOMAIN_MARGIN:
        raise ValueError(
            f"log_so3: rotation angle {theta:.9f} is within {_LOG_DOMAIN_MARGIN:.0e} "
            "of pi; the axis is ill-conditioned there"
        )
    if theta < _EPS_ANGLE:
        t2 = theta * theta
        # theta / (2 sin theta) expanded to fourth order
        f = 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
    else:
        f = 0.5 * theta / np.sin(theta)
    return f * w


def hamilton(p, q) -> tuple:
    """The Hamilton product p q of quaternions given as component sequences (w, x, y, z), as ``(w, x, y, z)``.

    Components may be numpy rows (broadcast together), numpy scalars or Python floats. Each component adds
    its four terms left to right, in place on rows (one temporary per term): the bits of
    ``pw * qw - px * qx - py * qy - pz * qz`` and so on, whatever the component type.
    """
    (pw, px, py, pz), (qw, qx, qy, qz) = p, q
    w, x, y, z = pw * qw, pw * qx, pw * qy, pw * qz
    w -= px * qx
    w -= py * qy
    w -= pz * qz
    x += px * qw
    x += py * qz
    x -= pz * qy
    y -= px * qz
    y += py * qw
    y += pz * qx
    z += px * qy
    z -= py * qx
    z += pz * qw
    return w, x, y, z


def exp_components(x, y, z) -> tuple:
    """Exponential of the pure quaternion with imaginary part u = (x, y, z), numpy rows or scalars: the unit
    quaternion (cos|u|, sin|u| u/|u|), the sinc factor by its Taylor expansion below 1e-6, with the angle
    theta = |u| it is formed from, as ``(w, x, y, z, theta)``: the package's one exponential.

    Each ufunc loop runs along the rows; |u|^2 = (x x + y y) + z z, np.linalg.norm's summation order, and
    the sinc quotient are formed in place on rows, and one reduction, the least angle apart from NaN, decides
    the branch.
    """
    theta = x * x
    theta += y * y
    theta += z * z
    theta = np.sqrt(theta)
    sinc = np.sin(theta)
    if np.fmin.reduce(theta, axis=None, initial=np.inf) < _EPS_ANGLE:  # any angle below 1e-6 (fmin skips NaN)
        small = theta < _EPS_ANGLE
        t2 = theta * theta
        sinc = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, sinc / np.where(small, 1.0, theta))
    else:
        sinc /= theta
    return np.cos(theta), sinc * x, sinc * y, sinc * z, theta


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (the double cover SO(3) <- S^3).

    Both q and -q map to the same rotation. The input must be unit to within
    1e-9; it is renormalized before use so products of many unit factors stay
    in domain. A stack of shape (..., 4) gives a stack of shape (..., 3, 3).
    One unit quaternion is converted on Python floats, which cost less than
    numpy's per-call overhead, by the stack's arithmetic in its order (|q|^2
    in np.sum's order), so the bits are the same; a refusal is the stack's.
    """
    q = np.asarray(q, dtype=float)
    if q.shape == (4,):
        w, x, y, z = q.tolist()
        n2 = ((w * w + x * x) + y * y) + z * z
        if abs(n2 - 1.0) <= 1e-9:
            n = math.sqrt(n2)
            return np.array(rotation_entries(w / n, x / n, y / n, z / n)).reshape(3, 3)
    if q.shape[-1:] != (4,):
        raise ValueError("quat_to_rotation expects quaternions of shape (..., 4)")
    with np.errstate(over="ignore"):  # huge entries give an infinite |q|^2, refused just below
        n2 = np.sum(q * q, axis=-1)
    bad = ~(np.abs(n2 - 1.0) <= 1e-9)  # NaN counts as bad
    if np.any(bad):
        first = float(np.ravel(n2)[np.argmax(np.ravel(bad))])
        raise ValueError(f"quat_to_rotation: |q|^2 = {first:.12f} is not 1")
    n = np.sqrt(n2)
    return np.stack(rotation_entries(*(q[..., i] / n for i in range(4))), axis=-1).reshape(q.shape[:-1] + (3, 3))


def rotation_entries(w, x, y, z) -> list:
    """The nine entries, row by row, of the rotation of the unit quaternion (w, x, y, z), given as
    numpy arrays or Python floats: the same bits either way."""
    return [
        w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z,
    ]


def rotation_to_quat(R) -> np.ndarray:
    """A unit quaternion mapping to ``R`` under :func:`quat_to_rotation`.

    Uses Shepperd's branch selection for stability and returns the canonical
    representative (:func:`canonical_quat`). A stack of shape (..., 3, 3) gives
    a stack of shape (..., 4); each matrix must pass :func:`check_rotation`'s
    test with 1e-8 in place of 1e-10, and a refusal names the first that does not.
    """
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"rotation_to_quat expects matrices of shape (..., 3, 3), got shape {R.shape}")
    r = _checked_entries(R, tol=1e-8)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    tr = r00 + r11 + r22
    # 4 q q^T is linear in R; Shepperd reads q off its row with the largest
    # diagonal entry: the w row when tr > 0, else that of R's largest diagonal
    a, b, c = r21 - r12, r02 - r20, r10 - r01
    d, e, f = r10 + r01, r20 + r02, r21 + r12
    M = np.array([[tr + 1.0, a, b, c], [a, r00 - r11 - r22 + 1.0, d, e],
                  [b, d, r11 - r22 - r00 + 1.0, f], [c, e, f, r22 - r00 - r11 + 1.0]])
    row = np.where(tr > 0.0, 0, 1 + r[[0, 1, 2], [0, 1, 2]].argmax(axis=0))
    n = np.arange(len(tr))
    s = np.sqrt(M[row, row, n]) * 2.0
    q = M[row, :, n] / s[:, None]
    q[n, row] = 0.25 * s  # s = 4 q_c; M[c, c] / s would round differently
    w, x, y, z = q.T
    q /= np.sqrt(w * w + x * x + y * y + z * z)[:, None]
    return canonical_quat(q).reshape(R.shape[:-2] + (4,))


def canonical_quat(q) -> np.ndarray:
    """Pick the sign representative whose first nonzero component is positive.

    That is w >= 0, with ties at w == 0 broken by the first nonzero imaginary
    component. A stack of shape (..., 4) is signed row by row.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError(f"canonical_quat expects quaternions of shape (..., 4), got shape {q.shape}")
    lead = np.take_along_axis(q, np.argmax(q != 0.0, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0.0, -q, q)


def lie_hom_derivative(u) -> np.ndarray:
    """Derivative at the identity of the double cover: pure quaternion
    imaginary part ``u`` maps to the so(3) axis vector ``2 u``."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (3,):
        raise ValueError("lie_hom_derivative expects a 3-vector")
    return 2.0 * u


def check_rotation(R) -> np.ndarray:
    """Validate that ``R`` is a rotation matrix; returns it as float64.

    The Frobenius norm of R^T R - I must be at most 1e-10 and det positive.
    The one matrix is checked on Python floats, which cost less than numpy's
    per-call overhead, by :func:`_checked_entries`' arithmetic in its order, so
    the decision is the same bit for bit; that function, which also checks the
    stacks of :func:`rotation_to_quat`, words a refusal.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation matrix, got shape {R.shape}")
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R.tolist()
    cols = ((r00, r10, r20), (r01, r11, r21), (r02, r12, r22))
    # R^T R - I entry by entry, squared, row by row; a float product past the range is inf, never an exception
    s = []
    for i, (a0, a1, a2) in enumerate(cols):
        for j, (b0, b1, b2) in enumerate(cols):
            e = ((a0 * b0 + a1 * b1) + a2 * b2) - (i == j)
            s.append(e * e)
    # np.sum's pairwise order over nine entries
    defect = math.sqrt(((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + s[8])
    det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
    if not defect <= 1e-10 or det < 0.0:
        _checked_entries(R, tol=1e-10)
    return R


def _checked_entries(R: np.ndarray, tol: float) -> np.ndarray:
    """:func:`check_rotation`'s test at ``tol`` (NaN refused) on each matrix of a (..., 3, 3)
    stack, naming the first that fails; returns the (3, 3, n) entries of the flattened stack."""
    r = np.ascontiguousarray(R.reshape(-1, 3, 3).transpose(1, 2, 0))
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite entries give inf or NaN, refused below
        D = (r[:, :, None] * r[:, None, :]).sum(axis=0) - np.eye(3)[:, :, None]  # R^T R - I
        defect = np.sqrt((D * D).sum(axis=(0, 1)))
        det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
    bad = ~(defect <= tol) | (det < 0.0)
    if not bad.any():
        return r
    i = int(np.argmax(bad))
    where = first_failure(bad.reshape(R.shape[:-2]))[1]
    if not defect[i] <= tol:
        raise ValueError(f"matrix{where} is not orthonormal (|R^T R - I| = {defect[i]:.3e})")
    raise ValueError(f"matrix{where} has negative determinant (reflection, not rotation)")


def first_failure(bad) -> tuple[tuple[int, ...], str]:
    """Index of the first True of the boolean stack ``bad`` and the phrase a refusal names it by:
    " at index (i, ...)" for a stack, "" for a single input (``bad`` 0-d)."""
    i = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    return i, f" at index {tuple(map(int, i))}" if np.ndim(bad) else ""


def check_unit_quat(q) -> np.ndarray:
    """Validate that ``q`` is a unit quaternion (| |q|^2 - 1 | <= 1e-9); returns it as float64."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"expected a quaternion (w, x, y, z), got shape {q.shape}")
    with np.errstate(over="ignore"):  # huge entries give inf and NaN gives nan; both are refused
        defect = abs(float(q @ q) - 1.0)
    if not defect <= 1e-9:
        raise ValueError(f"quaternion is not unit (| |q|^2 - 1 | = {defect:.3e})")
    return q
