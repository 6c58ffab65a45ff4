"""Tests for the so(3) / SO(3) / unit-quaternion kernels.

Expected values come from independent oracles: truncated power series for
the exponentials, the 4x4 left-multiplication representation for quaternions,
quaternion conjugation for rotation images, and the benchmark's closed forms
(``references.CF``).
"""

import importlib
import re
import warnings
from unittest import mock

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
    hat,
    lie_hom_derivative,
    log_so3,
    quat_to_rotation,
    rotation_to_quat,
    vee,
)
from liecurv.liecore import _checked_entries, exp_components, hamilton, hamilton_stacked
from references import CF, component_exp, exp_quaternion

LIECORE = importlib.import_module("liecurv.liecore")


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
    # the other kernels refuse a wrong last axis by name; the one-input kernels name the shape they got
    for fn, args, message in (
        (exp_so3, (np.zeros(4),), "exp_so3 expects a 3-vector, got shape (4,)"),
        (exp_so3, (np.zeros((2, 3)),), "exp_so3 expects a 3-vector, got shape (2, 3)"),
        (quat_to_rotation, (np.zeros(3),), "quat_to_rotation expects quaternions of shape (..., 4)"),
        (rotation_to_quat, (np.eye(2),), "rotation_to_quat expects matrices of shape (..., 3, 3), got shape (2, 2)"),
        (rotation_to_quat, (np.zeros((3, 3, 2)),), "rotation_to_quat expects matrices of shape (..., 3, 3), got "
                                                    "shape (3, 3, 2)"),
        (canonical_quat, (np.zeros((2, 3)),), "canonical_quat expects quaternions of shape (..., 4), got shape (2, 3)"),
        (lie_hom_derivative, (np.zeros(4),), "lie_hom_derivative expects a 3-vector"),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            fn(*args)


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


# theta from atan2(|w| / 2, (tr - 1) / 2) stays accurate up to the refusal
# margin; arccos of the trace lost ~1e-3 rad at pi - 1e-6.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(gap=st.floats(1.001e-6, 1e-3), axis=AXES)
@example(gap=1.001e-6, axis=np.array([0.0, 0.0, -1.0]))
@example(gap=1.001e-6, axis=np.array([0.6, -0.8, 0.0]))
def test_log_so3_round_trip_near_pi_within_1e_9(gap, axis):
    v = (np.pi - gap) * axis / np.linalg.norm(axis)
    np.testing.assert_allclose(log_so3(exp_so3(v)), v, rtol=0.0, atol=1e-9)


def test_log_so3_refuses_angles_near_pi():
    v = (np.pi - 1e-7) * np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="ill-conditioned"):
        log_so3(exp_so3(v))


def test_log_so3_shape_error():
    with pytest.raises(ValueError):
        log_so3(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# quaternions


def test_hamilton_identity_and_association():
    rng = np.random.RandomState(9)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(10):
        p, q, r = (rng.standard_normal(4) for _ in range(3))
        np.testing.assert_allclose(hamilton(one, p), p, atol=1e-15)
        np.testing.assert_allclose(hamilton(p, one), p, atol=1e-15)
        np.testing.assert_allclose(
            hamilton(hamilton(p, q), r), hamilton(p, hamilton(q, r)), atol=1e-12
        )


def test_hamilton_norm_multiplicative():
    rng = np.random.RandomState(10)
    p, q = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_allclose(
        np.linalg.norm(hamilton(p, q)), np.linalg.norm(p) * np.linalg.norm(q), rtol=1e-12
    )


def test_hamilton_with_the_conjugate_gives_the_inverse():
    rng = np.random.RandomState(11)
    q = rng.standard_normal(4)
    n2 = float(q @ q)
    np.testing.assert_allclose(
        hamilton(q, q * np.array([1.0, -1.0, -1.0, -1.0])), np.array([n2, 0.0, 0.0, 0.0]), atol=1e-12
    )


def test_exp_components_is_unit():
    rng = np.random.RandomState(12)
    for _ in range(20):
        q = exp_quaternion(rng.standard_normal(3))
        np.testing.assert_allclose(q @ q, 1.0, atol=1e-14)


def test_exp_components_matches_matrix_representation():
    # left regular representation: exp of L(pure u) applied to 1 is the quaternion exp(u)
    rng = np.random.RandomState(13)
    for _ in range(10):
        u = rng.standard_normal(3)
        L = left_matrix(np.concatenate([[0.0], u]))
        np.testing.assert_allclose(series_exp(L, terms=40)[:, 0], exp_quaternion(u), atol=1e-12)


def test_exp_components_small_angle_branch():
    u = 1e-8 * np.array([1.0, 2.0, -1.0])
    np.testing.assert_allclose(exp_quaternion(u), np.array([1.0, *u]), atol=1e-15)


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
        img = CF.quat_mul(CF.quat_mul(q, np.concatenate([[0.0], v])), q * [1.0, -1.0, -1.0, -1.0])[1:]
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
    # phi(exp(u)) = exp_so3(2 u)
    rng = np.random.RandomState(16)
    for _ in range(20):
        u = rng.standard_normal(3)
        np.testing.assert_allclose(
            quat_to_rotation(exp_quaternion(u)), exp_so3(2.0 * u), atol=1e-9
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
    """Central finite difference of the cover composed with the quaternion exponential."""
    rng = np.random.RandomState(19)
    eps = 1e-5
    for _ in range(5):
        u = rng.standard_normal(3)
        fd = (quat_to_rotation(exp_quaternion(eps * u)) - quat_to_rotation(exp_quaternion(-eps * u))) / (2 * eps)
        np.testing.assert_allclose(fd, hat(lie_hom_derivative(u)), atol=1e-6)


# ---------------------------------------------------------------------------
# validators


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


def outcome(check, R):
    """"ok" if ``check(R)`` accepts ``R``, else its refusal message."""
    try:
        check(R)
    except ValueError as e:
        return str(e)
    return "ok"


def flip_point(R, E):
    """The largest t found by bisection with R + t E still accepted at 1e-10 (E of norm about 1e-10)."""
    lo, hi = 0.0, 64.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if outcome(lambda M: _checked_entries(M, tol=1e-10), R + mid * E) == "ok" else (lo, mid)
    return lo


SPECIAL_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310, 2.2e-308, np.nan, np.inf, -np.inf])
HUGE_ENTRIES = st.floats(1e154, 1e308) | st.floats(-1e308, -1e154)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["ulps", "perturbed", "reflection", "special", "huge"]))
def test_check_rotation_decides_as_the_stack_check(data, kind):
    # check_rotation decides on Python floats; _checked_entries, the stack check, words its refusals.
    # Both must accept and refuse the same matrices, and check_rotation may hand a matrix to
    # _checked_entries only for that function to refuse it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    R = exp_so3(rng.standard_normal(3) * 2.0)
    if kind in ("ulps", "perturbed"):  # R + t E at the t where the stack check flips, and t a few ulps off
        if kind == "ulps":
            # a signed permutation with diagonal 1 + k 2^-40, plus tiny off-diagonal entries: the diagonal of
            # R^T R - I is fixed, its off-diagonal entries are exact to an ulp and move by ulps with t, so the
            # defect lands within a few ulps of 1e-10, with all nine squares nonzero
            P = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)
            R = P @ np.diag(1.0 + rng.integers(-16, 17, 3) * 2.0**-40)
            E = P @ (rng.standard_normal((3, 3)) * (1.0 - np.eye(3))) * 1e-10
        else:  # a rotation: rounding in R^T R leaves the defect's last few digits to chance
            E = rng.standard_normal((3, 3)) * 1e-10
        t0 = flip_point(R, E)
        ts = [t0]
        for _ in range(4):
            ts = [np.nextafter(ts[0], 0.0)] + ts + [np.nextafter(ts[-1], np.inf)]
        matrices = [R + t * E for t in ts]
    elif kind == "reflection":
        matrices = [R @ np.diag([1.0, 1.0, -1.0]) + data.draw(st.sampled_from([0.0, 1e-17, 3e-11, 1e-9]))]
    else:  # special or huge values at some entries of a rotation
        values = SPECIAL_ENTRIES if kind == "special" else HUGE_ENTRIES | SPECIAL_ENTRIES
        for i in data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True)):
            R[divmod(i, 3)] = data.draw(values)
        matrices = [R]
    handed = []

    def recording(M, tol):
        handed.append(outcome(lambda M: _checked_entries(M, tol), M))
        return _checked_entries(M, tol)

    for M in matrices:
        with mock.patch.object(LIECORE, "_checked_entries", recording):
            got = outcome(check_rotation, M)
        assert got == outcome(lambda M: _checked_entries(M, tol=1e-10), M)
    assert "ok" not in handed


def test_refusals_of_huge_and_infinite_entries_raise_no_runtime_warning():
    # products past the float range give inf, and inf - inf in the determinant NaN: no warning, just the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1e200, np.inf):
            for check in (check_rotation, rotation_to_quat):
                with pytest.raises(ValueError, match=re.escape("matrix is not orthonormal (|R^T R - I| = inf)")):
                    check(np.full((3, 3), value))
        with pytest.raises(ValueError, match=re.escape("quat_to_rotation: |q|^2 = inf is not 1")):
            quat_to_rotation(np.full(4, 1e200))


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


VECTOR_STACKS = st.integers(1, 12).flatmap(
    lambda n: hnp.arrays(np.float64, (n, 3), elements=st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])))


def bitwise_equal(a, b):
    """Equal values with equal signs of zero."""
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@SETTINGS
@given(U=VECTOR_STACKS, data=st.data())
def test_stacked_kernels_match_rowwise(U, data):
    # the liecore twin of test_engine's stacked quaternion kernels: every kernel that
    # takes stacks gives, row for row, the bits of its single-input call
    V = U[::-1] * 0.5
    Q = unit_rows(data.draw(hnp.arrays(np.float64, (len(U), 4), elements=st.floats(-1.0, 1.0))))
    A = data.draw(hnp.arrays(np.float64, (len(U), 4, 4), elements=st.floats(-2.0, 2.0)))
    H = hat(U)
    stacked = {
        "hat": (H, [hat(u) for u in U]),
        "vee": (vee(H), [vee(h) for h in H]),
        "cross": (cross(U, V), [cross(u, v) for u, v in zip(U, V)]),
        "commutator 3x3": (commutator(H, hat(V)), [commutator(hat(u), hat(v)) for u, v in zip(U, V)]),
        "commutator 4x4": (commutator(A, A[::-1]), [commutator(a, b) for a, b in zip(A, A[::-1])]),
        "lie_hom_derivative": (lie_hom_derivative(U), [lie_hom_derivative(u) for u in U]),
        "quat_to_rotation": (quat_to_rotation(Q), [quat_to_rotation(q) for q in Q]),
    }
    for name, (got, rows) in stacked.items():
        assert bitwise_equal(got, np.array(rows)), name
    assert bitwise_equal(vee(H), U)
    m = len(U) // 2 * 2  # a 2-D stack too
    assert bitwise_equal(hat(U[:m].reshape(2, -1, 3)), H[:m].reshape(2, -1, 3, 3))
    R = stacked["quat_to_rotation"][0]
    assert bitwise_equal(quat_to_rotation(Q[:m].reshape(2, -1, 4)), R[:m].reshape(2, -1, 3, 3))


def broadcast_exp(u):
    """The quaternion exponential as once written: np.linalg.norm over the last axis, then a concatenate of broadcasts."""
    u = np.asarray(u, dtype=float)
    theta = np.linalg.norm(u, axis=-1)
    t2 = theta * theta
    small = theta < 1e-6
    sinc = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / np.where(small, 1.0, theta))
    return np.concatenate([np.cos(theta)[..., None], sinc[..., None] * u], axis=-1)


# the engine's chunk-level kernel. NaN is not drawn, nor inf, which makes NaN from inf * 0 and inf - inf: the
# stacked form adds the negated term where hamilton subtracts, which sets a NaN's sign bit differently, and the
# engine only multiplies finite unit chunk products (it refuses a non-finite step before its tree)
STACKED_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 1100) | st.sampled_from([1, 2, 16, 17, 1024, 1100]), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
@example(m=1, seed=0, special=1.0)
def test_hamilton_stacked_is_hamilton_bit_for_bit(m, seed, special):
    # components from [-2, 2], signed zeros and subnormals; (4, m) stacks contiguous, strided as the final
    # reduction's pairs (every other column), and offset as the prefix scan's (S[:, d:] against S[:, :-d])
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2.0, 2.0, (2, 4, 2 * m + 1))
    pick = rng.random(A.shape) < special
    A[pick] = rng.choice(STACKED_SPECIAL, pick.sum())
    before = A.tobytes()
    for p, q in [(A[0, :, :m].copy(), A[1, :, :m].copy()), (A[0, :, 1::2], A[0, :, 0::2][:, :m]),
                 (A[1, :, m + 1 :], A[1, :, :m])]:
        got = hamilton_stacked(p, q)
        assert got.shape == (4, m) and got.tobytes() == np.array(hamilton(p, q)).tobytes()
    assert A.tobytes() == before  # the inputs are not written


@settings(max_examples=100, deadline=None, derandomize=True)
@given(U=st.integers(1, 12).flatmap(lambda n: hnp.arrays(
    np.float64, (n, 3), elements=st.floats(-4.0, 4.0) | st.floats(-1e-6, 1e-6)
    | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e-300]))))
def test_exp_components_gives_the_bits_of_the_norm_and_concatenate_expression(U):
    # the norm is now summed from components in norm's order and the result
    # written into one array; values and signed zeros must not move. A NaN's
    # sign bit is not compared: numpy's SIMD and scalar loops set it differently.
    if np.isfinite(U[0]).all():
        U[0] *= 1e-7  # a small-angle row
    m = len(U) // 2 * 2
    inputs = [U, U[:1], U[:m].reshape(2, -1, 3), *U]
    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite rows
        for u in inputs:
            got, want = exp_quaternion(u), broadcast_exp(u)
            assert got.shape == want.shape == u.shape[:-1] + (4,)
            assert np.array_equal(got, want, equal_nan=True)
            theta = exp_components(*np.moveaxis(u, -1, 0))[4]  # the norm that the quaternion is formed from
            assert np.array_equal(theta, np.linalg.norm(u, axis=-1), equal_nan=True)
            number = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


def test_stacked_vee_refusal_names_the_first_bad_index():
    M = hat(np.random.RandomState(40).standard_normal((2, 3, 3)))
    M[1, 2] += 1e-3 * np.eye(3)
    M[1, 0, 0, 0] = 0.25  # |M + M^T| = 2 * 0.25
    message = "vee: matrix{} is not skew-symmetric (|M + M^T| = 5.000e-01)"
    with pytest.raises(ValueError, match="^" + re.escape(message.format(" at index (1, 0)")) + "$"):
        vee(M)
    with pytest.raises(ValueError, match="^" + re.escape(message.format("")) + "$"):
        vee(M[1, 0])
    vee(M[0])  # the good rows alone pass


# ---------------------------------------------------------------------------
# the one Hamilton product and the component exponential, bit for bit

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e308, -1e308, 1.5, -0.75]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(P=st.integers(1, 40).flatmap(lambda n: hnp.arrays(
    np.float64, (2, 4, n), elements=st.floats(-3.0, 3.0) | st.sampled_from(SPECIAL))))
def test_hamilton_is_the_expression_product_bit_for_bit(P):
    # rows (the engine's), 0-d arrays, numpy scalars and Python floats; NaN bits too, since every type runs the
    # same IEEE operations in the same order
    p, q = P
    with np.errstate(over="ignore", invalid="ignore"):
        want = CF.quat_mul(p, q)
        assert np.array(hamilton(p, q)).tobytes() == want.tobytes()
        assert np.array(hamilton(list(p[:, ::-1]), tuple(q[:, ::-1]))).tobytes() == want[:, ::-1].tobytes()
        for k in range(min(P.shape[-1], 5)):
            for convert in (np.asarray, float, np.float64):  # 0-d arrays, Python floats, numpy scalars
                got = np.array(hamilton([convert(c) for c in p[:, k]], [convert(c) for c in q[:, k]]))
                assert got.tobytes() == want[:, k].tobytes(), (convert, k)
        # components broadcast together: rows against rows of another shape, and one quaternion against rows
        Ps, Qs = np.moveaxis(P, 1, -1)  # (n, 4) each
        want = CF.quat_mul(Ps.T[:, :, None], Qs.T[:, None, :2])
        assert np.array(hamilton(Ps.T[:, :, None], Qs.T[:, None, :2])).tobytes() == want.tobytes()
        assert np.array(hamilton(Ps[0], Qs.T)).tobytes() == CF.quat_mul(Ps[0], Qs.T).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(U=st.integers(1, 12).flatmap(lambda n: hnp.arrays(
    np.float64, (n, 3), elements=st.floats(-4.0, 4.0) | st.floats(-1e-6, 1e-6)
    | st.sampled_from([0.0, -0.0, 5e-324, 3e-7, 1e200, -1e308, np.inf, np.nan]))))
@example(U=np.array([[0.0, -0.0, 0.0], [1e-7, -2e-7, 3e-8], [1e200, 0.0, 1.0], [0.3, -0.4, 1.2]]))
def test_exp_components_is_the_component_formula_bit_for_bit(U):
    # one vector (0-d components) and stacks, on the small-angle branch (theta < 1e-6 and theta = 0) and on
    # overflowing input (an infinite theta); a NaN's sign bit is not compared, numpy's SIMD and scalar sin set
    # it differently
    with np.errstate(over="ignore", invalid="ignore"):
        for u in [U, U.T.copy().T, *U]:
            want, theta = component_exp(*np.moveaxis(u, -1, 0))
            *rows, row_theta = exp_components(*np.moveaxis(u, -1, 0))
            q = np.stack(rows, axis=-1)
            assert q.shape == want.shape and np.array_equal(q, want, equal_nan=True)
            number = ~np.isnan(want)
            assert q[number].tobytes() == want[number].tobytes()
            assert np.asarray(row_theta).tobytes() == np.asarray(theta).tobytes()
