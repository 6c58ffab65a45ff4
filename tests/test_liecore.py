"""Tests for the so(3) / SO(3) / unit-quaternion kernels.

Expected values come from independent oracles built inside this file:
truncated power series for the exponentials, eigendecompositions for expm,
the 4x4 left-multiplication representation for quaternions, quaternion
conjugation for rotation images, and polar-decomposition properties for the
projection.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liecurv import (
    canonical_quat,
    check_rotation,
    check_unit_quat,
    commutator,
    cross,
    exp_so3,
    expm,
    hat,
    lie_hom_derivative,
    log_so3,
    project_rotation,
    quat_conj,
    quat_exp,
    quat_mul,
    quat_to_rotation,
    rotation_to_quat,
    vee,
)


def series_exp(A, terms=20):
    """Plain truncated power series; the independent exponential oracle."""
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        E = E + term
    return E


def left_matrix(q):
    """4x4 matrix of left Hamilton multiplication by q, basis (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


# ---------------------------------------------------------------------------
# hat / vee / cross / commutator


def test_hat_vee_roundtrip():
    rng = np.random.RandomState(0)
    for _ in range(20):
        v = rng.standard_normal(3)
        M = hat(v)
        np.testing.assert_allclose(M + M.T, np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(vee(M), v, atol=1e-15)


def test_hat_action_is_cross_product():
    rng = np.random.RandomState(1)
    for _ in range(20):
        u, w = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(hat(u) @ w, cross(u, w), atol=1e-14)


def test_hat_is_a_bracket_isomorphism():
    # hat(u x v) = [hat(u), hat(v)]
    rng = np.random.RandomState(2)
    for _ in range(20):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(
            hat(cross(u, v)), commutator(hat(u), hat(v)), atol=1e-12
        )


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError, match="not skew-symmetric"):
        vee(np.eye(3))


def test_hat_vee_shape_errors():
    with pytest.raises(ValueError):
        hat(np.zeros(4))
    with pytest.raises(ValueError):
        vee(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cross(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        commutator(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# exp_so3 / log_so3


def test_exp_so3_quarter_turn_about_z():
    R = exp_so3(np.array([0.0, 0.0, np.pi / 2]))
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(R, want, atol=1e-15)
    np.testing.assert_allclose(R, series_exp(hat(np.array([0.0, 0.0, np.pi / 2]))), atol=1e-12)


def test_exp_so3_half_turn_about_x():
    R = exp_so3(np.array([np.pi, 0.0, 0.0]))
    np.testing.assert_allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-15)
    # the 20-term series truncation error at angle pi is ~8e-10
    np.testing.assert_allclose(R, series_exp(hat(np.array([np.pi, 0.0, 0.0]))), atol=1e-8)


def test_exp_so3_matches_series_on_random_input():
    rng = np.random.RandomState(3)
    for _ in range(20):
        v = rng.standard_normal(3)
        np.testing.assert_allclose(exp_so3(v), series_exp(hat(v)), atol=1e-8)


def test_exp_so3_small_angle_branch():
    for scale in (1e-7, 1e-9, 0.0):
        v = scale * np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(exp_so3(v), series_exp(hat(v), terms=6), atol=1e-15)


@pytest.mark.parametrize(
    "v", [[np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0], [np.nan, 0.0, 0.0], [1e300, 0.0, 0.0], [1e200, -1e200, 0.0]]
)
def test_exp_so3_refuses_non_finite_angles(v):
    # a non-finite entry, or finite entries whose norm overflows, is refused
    # before any trigonometry: no NaN matrix and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            exp_so3(np.array(v))


def test_exp_so3_orthonormal():
    rng = np.random.RandomState(4)
    for _ in range(50):
        R = exp_so3(rng.standard_normal(3) * 2.0)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) > 0.0


def test_exp_so3_one_parameter_homomorphism():
    v = np.array([0.4, -0.7, 1.1])
    np.testing.assert_allclose(
        exp_so3(0.9 * v) @ exp_so3(0.4 * v), exp_so3(1.3 * v), atol=1e-12
    )


def test_log_so3_roundtrip():
    rng = np.random.RandomState(5)
    for _ in range(50):
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > np.pi - 1e-3:
            v = v * (np.pi - 1e-3) / n
        np.testing.assert_allclose(log_so3(exp_so3(v)), v, atol=1e-9)


def test_log_so3_near_pi_roundtrip():
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    v = (np.pi - 1e-3) * axis
    np.testing.assert_allclose(log_so3(exp_so3(v)), v, atol=1e-8)


def test_log_so3_small_angle_branch():
    v = 1e-8 * np.array([0.3, 1.0, -0.2])
    np.testing.assert_allclose(log_so3(exp_so3(v)), v, atol=1e-15)
    np.testing.assert_allclose(log_so3(np.eye(3)), np.zeros(3), atol=0.0)


# Round trip across [0, pi - 1e-6): the Taylor branch, the bulk, and the last
# milliradian before the refusal margin. The bound is the measured error
# shape: near pi, arccos returns the angle with an error ~ eps / (pi - theta)
# and theta / (2 sin theta) amplifies it by another 1 / (pi - theta). Over
# 40,000 random angles and axes the worst error was 14.7 eps (1 + (pi -
# theta)^-2); the bound allows 32. Angles within ~1e-10 of the margin may be
# refused, as their computed angle lands past it, so the top is pi - 1.001e-6.
ROUND_TRIP_ANGLES = st.one_of(
    st.floats(0.0, 1e-6, exclude_max=True),
    st.floats(1e-6, np.pi - 1e-3),
    st.floats(1.001e-6, 1e-3).map(lambda gap: np.pi - gap),
)
AXES = hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(lambda a: np.linalg.norm(a) > 1e-3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(theta=ROUND_TRIP_ANGLES, axis=AXES)
@example(theta=0.0, axis=np.array([1.0, 0.0, 0.0]))
@example(theta=1e-6 * (1.0 - 1e-12), axis=np.array([0.3, -0.4, 0.5]))
@example(theta=np.pi - 1.001e-6, axis=np.array([0.0, 0.0, -1.0]))
def test_log_so3_inverts_exp_so3_up_to_pi(theta, axis):
    v = theta * axis / np.linalg.norm(axis)
    tol = 32.0 * np.finfo(float).eps * (1.0 + (np.pi - theta) ** -2)
    np.testing.assert_allclose(log_so3(exp_so3(v)), v, rtol=0.0, atol=tol)


def test_log_so3_refuses_angles_near_pi():
    v = (np.pi - 1e-7) * np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="ill-conditioned"):
        log_so3(exp_so3(v))


def test_log_so3_shape_error():
    with pytest.raises(ValueError):
        log_so3(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# expm


def test_expm_matches_eigh_oracle_on_symmetric_input():
    rng = np.random.RandomState(6)
    S = rng.standard_normal((4, 4))
    S = S + S.T
    lam, Q = np.linalg.eigh(S)
    np.testing.assert_allclose(expm(S), Q @ np.diag(np.exp(lam)) @ Q.T, atol=1e-12)


def test_expm_skew_matches_rodrigues():
    rng = np.random.RandomState(7)
    for _ in range(10):
        v = rng.standard_normal(3)
        np.testing.assert_allclose(expm(hat(v)), exp_so3(v), atol=1e-12)


def test_expm_diagonal():
    a = np.array([0.3, -1.2, 2.5])
    np.testing.assert_allclose(expm(np.diag(a)), np.diag(np.exp(a)), atol=1e-12)


def test_expm_large_norm_uses_scaling():
    # Frobenius norm ~40 forces several squaring stages
    S = 20.0 * np.array([[1.0, 0.5], [0.5, -0.3]])
    lam, Q = np.linalg.eigh(S)
    want = Q @ np.diag(np.exp(lam)) @ Q.T
    np.testing.assert_allclose(expm(S), want, rtol=1e-12)


def test_expm_inverse_property():
    rng = np.random.RandomState(8)
    A = rng.standard_normal((3, 3))
    np.testing.assert_allclose(expm(A) @ expm(-A), np.eye(3), atol=1e-12)


def test_expm_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# quaternions


def test_quat_mul_identity_and_association():
    rng = np.random.RandomState(9)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(10):
        p, q, r = (rng.standard_normal(4) for _ in range(3))
        np.testing.assert_allclose(quat_mul(one, p), p, atol=1e-15)
        np.testing.assert_allclose(quat_mul(p, one), p, atol=1e-15)
        np.testing.assert_allclose(
            quat_mul(quat_mul(p, q), r), quat_mul(p, quat_mul(q, r)), atol=1e-12
        )


def test_quat_mul_norm_multiplicative():
    rng = np.random.RandomState(10)
    p, q = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_allclose(
        np.linalg.norm(quat_mul(p, q)), np.linalg.norm(p) * np.linalg.norm(q), rtol=1e-12
    )


def test_quat_conj_gives_inverse():
    rng = np.random.RandomState(11)
    q = rng.standard_normal(4)
    n2 = float(q @ q)
    np.testing.assert_allclose(
        quat_mul(q, quat_conj(q)), np.array([n2, 0.0, 0.0, 0.0]), atol=1e-12
    )


def test_quat_exp_is_unit():
    rng = np.random.RandomState(12)
    for _ in range(20):
        q = quat_exp(rng.standard_normal(3))
        np.testing.assert_allclose(q @ q, 1.0, atol=1e-14)


def test_quat_exp_matches_matrix_representation():
    # left regular representation: exp of L(pure u) applied to 1 is quat_exp(u)
    rng = np.random.RandomState(13)
    for _ in range(10):
        u = rng.standard_normal(3)
        L = left_matrix(np.concatenate([[0.0], u]))
        np.testing.assert_allclose(expm(L)[:, 0], quat_exp(u), atol=1e-12)


def test_quat_exp_small_angle_branch():
    u = 1e-8 * np.array([1.0, 2.0, -1.0])
    np.testing.assert_allclose(quat_exp(u), np.array([1.0, *u]), atol=1e-15)


def test_quat_to_rotation_axis_angle():
    # (cos t/2, sin t/2, 0, 0) rotates by t about e1
    t = 0.73
    R = quat_to_rotation(np.array([np.cos(t / 2), np.sin(t / 2), 0.0, 0.0]))
    want = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(t), -np.sin(t)],
            [0.0, np.sin(t), np.cos(t)],
        ]
    )
    np.testing.assert_allclose(R, want, atol=1e-14)


def test_quat_to_rotation_conjugation_oracle():
    # R v must equal the imaginary part of q (0, v) q*
    rng = np.random.RandomState(14)
    for _ in range(20):
        q = rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        v = rng.standard_normal(3)
        img = quat_mul(quat_mul(q, np.concatenate([[0.0], v])), quat_conj(q))[1:]
        np.testing.assert_allclose(quat_to_rotation(q) @ v, img, atol=1e-12)


def test_quat_to_rotation_kernel_is_plus_minus_one():
    rng = np.random.RandomState(15)
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    np.testing.assert_allclose(quat_to_rotation(q), quat_to_rotation(-q), atol=1e-15)


def test_quat_to_rotation_rejects_non_unit():
    with pytest.raises(ValueError, match="not 1"):
        quat_to_rotation(np.array([1.0, 1.0, 0.0, 0.0]))


def test_cover_of_exponential_doubles_axis():
    # phi(quat_exp(u)) = exp_so3(2 u)
    rng = np.random.RandomState(16)
    for _ in range(20):
        u = rng.standard_normal(3)
        np.testing.assert_allclose(
            quat_to_rotation(quat_exp(u)), exp_so3(2.0 * u), atol=1e-9
        )


def test_rotation_to_quat_roundtrip():
    rng = np.random.RandomState(17)
    for _ in range(30):
        q = rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        R = quat_to_rotation(q)
        np.testing.assert_allclose(quat_to_rotation(rotation_to_quat(R)), R, atol=1e-12)


def test_rotation_to_quat_canonical_and_branches():
    # half turns exercise every Shepperd branch; results are canonical
    np.testing.assert_allclose(
        rotation_to_quat(np.diag([1.0, -1.0, -1.0])), np.array([0.0, 1.0, 0.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        rotation_to_quat(np.diag([-1.0, 1.0, -1.0])), np.array([0.0, 0.0, 1.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        rotation_to_quat(np.diag([-1.0, -1.0, 1.0])), np.array([0.0, 0.0, 0.0, 1.0]), atol=1e-15
    )
    rng = np.random.RandomState(18)
    for _ in range(20):
        q = rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        assert rotation_to_quat(quat_to_rotation(q))[0] >= 0.0


def test_rotation_to_quat_rejects_non_rotation():
    with pytest.raises(ValueError):
        rotation_to_quat(2.0 * np.eye(3))


def test_canonical_quat_sign_rules():
    np.testing.assert_allclose(
        canonical_quat(np.array([-0.5, 0.1, 0.2, 0.3])), np.array([0.5, -0.1, -0.2, -0.3])
    )
    np.testing.assert_allclose(
        canonical_quat(np.array([0.0, -1.0, 0.0, 0.0])), np.array([0.0, 1.0, 0.0, 0.0])
    )
    np.testing.assert_allclose(
        canonical_quat(np.array([0.0, 0.0, 0.0, -1.0])), np.array([0.0, 0.0, 0.0, 1.0])
    )
    q = np.array([0.5, 0.5, -0.5, 0.5])
    np.testing.assert_allclose(canonical_quat(q), q)


def test_lie_hom_derivative_doubles():
    np.testing.assert_allclose(lie_hom_derivative(np.array([1.0, 0.0, 0.0])), [2.0, 0.0, 0.0])


def test_lie_hom_derivative_is_cover_derivative():
    """Central finite difference of the cover composed with quat_exp."""
    rng = np.random.RandomState(19)
    eps = 1e-5
    for _ in range(5):
        u = rng.standard_normal(3)
        fd = (quat_to_rotation(quat_exp(eps * u)) - quat_to_rotation(quat_exp(-eps * u))) / (2 * eps)
        np.testing.assert_allclose(fd, hat(lie_hom_derivative(u)), atol=1e-6)


# ---------------------------------------------------------------------------
# project_rotation and validators


def test_project_rotation_small_perturbation():
    rng = np.random.RandomState(20)
    M = np.eye(3) + 1e-8 * rng.standard_normal((3, 3))
    np.testing.assert_allclose(project_rotation(M), np.eye(3), atol=1e-7)


def test_project_rotation_polar_property():
    """The result R satisfies M = R P with P symmetric positive definite."""
    rng = np.random.RandomState(21)
    for _ in range(10):
        M = exp_so3(rng.standard_normal(3)) + 0.05 * rng.standard_normal((3, 3))
        R = project_rotation(M)
        check_rotation(R, tol=1e-10)
        P = R.T @ M
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        assert np.linalg.eigvalsh((P + P.T) / 2.0).min() > 0.0


def test_project_rotation_fixes_rotations():
    R = exp_so3(np.array([0.2, -1.0, 0.4]))
    np.testing.assert_allclose(project_rotation(R), R, atol=1e-12)


def test_project_rotation_rejects_reflection():
    with pytest.raises(ValueError, match="reflection"):
        project_rotation(np.diag([1.0, 1.0, -1.0]))


def test_project_rotation_rejects_singular():
    with pytest.raises(ValueError):
        project_rotation(np.zeros((3, 3)))


def test_check_rotation():
    check_rotation(np.eye(3))
    with pytest.raises(ValueError, match="not orthonormal"):
        check_rotation(np.eye(3) + 1e-6)
    with pytest.raises(ValueError, match="negative determinant"):
        check_rotation(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="3x3"):
        check_rotation(np.eye(4))
    with pytest.raises(ValueError, match="not orthonormal"):
        check_rotation(np.full((3, 3), np.nan))


def test_check_unit_quat():
    check_unit_quat(np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="not unit"):
        check_unit_quat(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="quaternion"):
        check_unit_quat(np.zeros(3))


# ---------------------------------------------------------------------------
# stacked rotation_to_quat / canonical_quat (derandomized property tests)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
QUAT_STACKS = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(4)), elements=st.floats(-1.0, 1.0))


def unit_rows(Q):
    Q = Q.copy()
    n = np.linalg.norm(Q, axis=1)
    Q[n < 1e-3] = [0.6, 0.0, -0.8, 0.0]
    return Q / np.linalg.norm(Q, axis=1)[:, None]


def first_nonzero(q):
    nz = q[q != 0.0]
    return nz[0] if nz.size else 0.0


def reference_canonical(q):
    """The sign rule written out row by row: w >= 0, ties to the first nonzero imaginary part."""
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q
    return q.copy()


@SETTINGS
@given(Q=QUAT_STACKS)
def test_stacked_rotation_to_quat_equals_rowwise(Q):
    R = quat_to_rotation(unit_rows(Q))
    stacked = rotation_to_quat(R)
    assert stacked.shape == Q.shape
    assert np.array_equal(stacked, np.array([rotation_to_quat(r) for r in R]))
    m = len(R) // 2 * 2
    assert np.array_equal(rotation_to_quat(R[:m].reshape(2, -1, 3, 3)), stacked[:m].reshape(2, -1, 4))


def reference_rotation_to_quat(R):
    """Shepperd's method one matrix at a time, with explicit branches."""
    tr = np.trace(R)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    return reference_canonical(q / np.linalg.norm(q))


@SETTINGS
@given(Q=QUAT_STACKS)
@example(Q=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -0.6, 0.8], [0.3, -0.9, 0.1, 0.2]]))
def test_stacked_rotation_to_quat_matches_scalar_shepperd(Q):
    # same branch and same arithmetic up to the final normalization, whose
    # sum of squares may round differently: two ulps at 1 bound the change
    R = quat_to_rotation(unit_rows(Q))
    out = rotation_to_quat(R)
    ref = np.array([reference_rotation_to_quat(r) for r in R])
    assert np.abs(out - ref).max() <= 2 * np.finfo(float).eps
    assert np.array_equal(np.sign(out), np.sign(ref))


@SETTINGS
@given(Q=QUAT_STACKS)
def test_stacked_rotation_to_quat_round_trips(Q):
    q = unit_rows(Q)
    R = quat_to_rotation(q)
    out = rotation_to_quat(R)
    np.testing.assert_allclose(quat_to_rotation(out), R, atol=1e-12)
    for got, want in zip(out, q):
        assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-12
        assert first_nonzero(got) > 0.0


@pytest.mark.parametrize("branch", ["w", "x", "y", "z"])
@SETTINGS
@given(data=st.data())
def test_rotation_to_quat_covers_every_shepperd_branch(branch, data):
    # trace > 0 (angle below 2 pi / 3) takes the w row; beyond that the row of
    # the largest diagonal entry, which belongs to the dominant axis component
    axis = np.array(data.draw(st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3)))
    if branch == "w":
        angle = data.draw(st.floats(0.0, 2.0))
    else:
        angle = data.draw(st.floats(2.2, np.pi))
        axis["xyz".index(branch)] = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(1.0, 2.0))
    n = np.linalg.norm(axis)
    axis = np.array([0.0, 0.0, 1.0]) if n < 1e-6 else axis / n
    R = exp_so3(angle * axis)
    assert (np.trace(R) > 0.0) == (branch == "w")
    if branch != "w":
        assert np.argmax(np.diag(R)) == "xyz".index(branch)
    want = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
    got = rotation_to_quat(np.stack([R, R.T]))
    assert min(np.abs(got[0] - want).max(), np.abs(got[0] + want).max()) <= 1e-12
    np.testing.assert_allclose(got[1] * [1, -1, -1, -1], got[0], atol=1e-12)  # R^T is the inverse
    assert all(first_nonzero(q) > 0.0 for q in got)


@SETTINGS
@given(data=st.data())
@example(data=None)
def test_rotation_to_quat_half_turn_ties(data):
    # half turns about axes with zero leading components give w == 0 exactly;
    # the sign then goes to the first nonzero imaginary component
    if data is None:
        pure = [np.array(v) for v in ([0.0, 0.0, -0.6, 0.8], [0.0, 0.0, 0.0, -1.0], [0.0, -1.0, 0.0, 0.0])]
    else:
        lead = data.draw(st.integers(1, 3))
        part = st.just(0.0) | st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)
        tail = data.draw(st.lists(part, min_size=4 - lead, max_size=4 - lead))
        if not any(tail):
            tail[0] = -1.0
        pure = [np.array([0.0] * lead + tail)]
    for q in pure:
        q = q / np.linalg.norm(q)
        out = rotation_to_quat(np.stack([quat_to_rotation(q)] * 2))
        assert np.array_equal(out[0], out[1])
        assert out[0, 0] == 0.0
        assert np.array_equal(out[0] == 0.0, q == 0.0)
        assert first_nonzero(out[0]) > 0.0
        np.testing.assert_allclose(out[0], np.sign(first_nonzero(q)) * q, atol=1e-15)


@SETTINGS
@given(Q=QUAT_STACKS, data=st.data())
def test_stacked_rotation_to_quat_refuses_one_bad_row(Q, data):
    R = quat_to_rotation(unit_rows(Q))
    i = data.draw(st.integers(0, len(R) - 1))
    fault = data.draw(st.sampled_from(["scaled", "reflected", "sheared", "nan"]))
    if fault == "scaled":
        R[i] *= 1.0 + 1e-6
    elif fault == "reflected":
        R[i] = -R[i]
    elif fault == "sheared":
        R[i, 0, 1] += 1e-7
    else:
        R[i, 2, 2] = np.nan
    with pytest.raises(ValueError, match=rf"index \({i},\)"):
        rotation_to_quat(R)
    with pytest.raises(ValueError, match="orthonormal" if fault != "reflected" else "determinant"):
        rotation_to_quat(R[i])


@SETTINGS
@given(Q=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(4)),
                    elements=st.sampled_from([-1.0, -0.25, -0.0, 0.0, 0.25, 1.0]) | st.floats(-1.0, 1.0)))
def test_stacked_canonical_quat_applies_the_sign_rule_per_row(Q):
    out = canonical_quat(Q)
    assert np.array_equal(out, np.array([reference_canonical(q) for q in Q]))
    assert np.array_equal(out, np.array([canonical_quat(q) for q in Q]))
    assert np.array_equal(canonical_quat(Q[None]), out[None])
