"""Property tests of library kernels over extreme floats, with every warning an error.

Inputs range over the float classes of the CLI sweep: 0, -0, subnormal, 1e-200,
ordinary, 1e154, 1e200, the largest float, inf and NaN, either sign. Each
kernel is held to a reference written here from its plain definition: the
values and their bits, signed zeros included, the warnings numpy emits, and
the refusal that names the first bad input.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liecurv import cross, sphere_surface
from liecurv.connections import POLAR_CAP
from liecurv.liecore import exp_components
from references import component_exp

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MAGNITUDES = [0.0, 5e-324, 2.5e-310, 1e-200, 1e154, 1e200, np.finfo(float).max, np.inf]
FLOATS = (st.sampled_from(MAGNITUDES + [np.nan]) | st.floats(0.0, 4.0)).flatmap(
    lambda x: st.sampled_from([x, -x]))
VECTORS = hnp.arrays(np.float64, 3, elements=FLOATS)
SETTINGS = settings(max_examples=300, deadline=None)  # derandomized by the loaded profile (conftest.py)


def with_warnings(f):
    """What ``f()`` gives with every warning recorded: (result or exception text, warnings in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = f()
        except Exception as err:  # noqa: BLE001  a refusal is an outcome too
            got = f"{type(err).__name__}: {err}"
    return got, [(w.category, str(w.message)) for w in caught]


# ---------------------------------------------------------------------------
# cross: one pair on floats, np.cross's bits and warnings


@SETTINGS
@given(u=VECTORS, v=VECTORS)
@example(u=np.array([0.0, -0.0, 1.0]), v=np.array([-0.0, 1.0, 0.0]))  # signed zero terms
@example(u=np.array([1e200, 1e200, 0.0]), v=np.array([1e200, -1e200, 0.0]))  # overflow: inf and its warnings
@example(u=np.array([np.inf, 0.0, 0.0]), v=np.array([1.0, 0.0, 0.0]))  # inf * 0: NaN and its warnings
@example(u=np.array([1e154, 1e154, 0.0]), v=np.array([1e154, -1e154, 0.0]))  # finite products, overflowing difference
@example(u=np.array([0.0, 0.0, 1.2e154]), v=np.array([1.2e154, -1.2e154, 0.0]))  # finite entries, an overflowing sum
def test_cross_of_one_pair_gives_np_cross_bits_and_warnings(u, v):
    got, got_warnings = with_warnings(lambda: cross(u, v))
    want, want_warnings = with_warnings(lambda: np.cross(u, v))
    assert type(got) is np.ndarray and got.shape == (3,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()  # NaN bits and signed zeros too
    assert got_warnings == want_warnings
    # array-likes of one pair, and stacks, take the same values
    with np.errstate(all="ignore"):
        assert cross(u.tolist(), tuple(v)).tobytes() == want.tobytes()
        assert cross(np.stack([u, v]), np.stack([v, u])).tobytes() == np.cross([u, v], [v, u]).tobytes()


# ---------------------------------------------------------------------------
# exp_components: the small-angle branch decided as "any angle below 1e-6"


def assert_exp_components_as_first_written(U):
    for u in (U, U[:, 0] if U.shape[1] else None):  # rows (3, n), and the first column's numpy scalars
        if u is None:
            continue
        got, got_warnings = with_warnings(lambda: exp_components(*u))
        (q, theta), want_warnings = with_warnings(lambda: component_exp(*u))
        assert not isinstance(got, str), got
        assert got_warnings == want_warnings
        for g, w in zip(got, [*np.moveaxis(q, -1, 0), theta]):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w, equal_nan=True)
            number = ~np.isnan(w)
            assert np.asarray(g)[number].tobytes() == np.asarray(w)[number].tobytes()  # signed zeros too


SMALL = st.floats(-3e-7, 3e-7) | st.sampled_from([0.0, -0.0, 5e-324, 1e-200])
STACKS = {"all-small": SMALL, "mixed": SMALL | FLOATS.filter(np.isfinite), "any": SMALL | FLOATS}


@SETTINGS
@given(U=st.sampled_from(sorted(STACKS)).flatmap(lambda kind: st.integers(0, 9).flatmap(
    lambda n: hnp.arrays(np.float64, (3, n), elements=STACKS[kind]))))
def test_exp_components_keeps_its_values_theta_and_branch(U):
    assert_exp_components_as_first_written(U)


@pytest.mark.parametrize("U", [np.empty((3, 0)), np.array([[0.0, np.nan], [0.0, 1.0], [-0.0, 2.0]]),
                               np.array([[0.0, 1.0], [-0.0, np.inf], [0.0, 2.0]])], ids=["empty", "nan", "inf"])
def test_exp_components_takes_the_small_angle_branch_beside_a_non_finite_angle(U):
    # a zero angle gets w = 1 from the Taylor branch, which is taken when any angle is below 1e-6; beside a NaN
    # or inf angle a least angle taken by a NaN-propagating reduction would not take it, and give sin(0) / 0
    assert_exp_components_as_first_written(U)
    if U.size:
        with np.errstate(invalid="ignore"):  # sin(inf); its warning is compared above
            w, x, y, z, theta = exp_components(*U)
        assert (w[0], x[0], y[0], z[0]) == (1.0, 0.0, 0.0, 0.0) and not np.isfinite(theta[1])


# ---------------------------------------------------------------------------
# sphere_surface: the polar-cap refusal names the first bad colatitude

COLATITUDES = FLOATS | st.floats(POLAR_CAP, np.pi - POLAR_CAP) | st.sampled_from(
    [POLAR_CAP, np.pi - POLAR_CAP, np.nextafter(POLAR_CAP, 0.0), np.nextafter(np.pi - POLAR_CAP, 4.0)])


@SETTINGS
@given(th=st.integers(0, 6).flatmap(lambda n: hnp.arrays(np.float64, n, elements=COLATITUDES)),
       ph=st.floats(-4.0, 4.0), shape=st.sampled_from([(-1,), (1, -1), (-1, 1)]))
@example(th=np.array([1.0, np.nan, 0.0]), ph=0.5, shape=(-1,))
@example(th=np.array([1.0, 1e-4, np.nan]), ph=0.5, shape=(-1,))
@example(th=np.array([]), ph=0.5, shape=(1, -1))
@example(th=np.array([np.nan]), ph=0.5, shape=())
@example(th=np.array([1.2]), ph=0.5, shape=())
def test_sphere_maps_name_the_first_cap_colatitude(th, ph, shape):
    # shape () is one chart point (2,); the others are stacks, empty ones too
    u = np.stack([th, np.full_like(th, ph)], axis=-1).reshape(shape + (2,)) if shape else np.array([th[0], ph])
    surface = sphere_surface(2.0, side="inner")
    maps = [("chart point", surface.chart, (u,), (3,)), ("chart tangent", surface.chart_tangent, (u,), (3, 2)),
            ("chart tangent", surface.rolling, (u, np.ones_like(u)), (3,))]
    inside = [POLAR_CAP <= t <= np.pi - POLAR_CAP for t in th]  # NaN is outside
    for what, f, args, tail in maps:
        if all(inside):
            got = f(*args)
            assert got.shape == u.shape[:-1] + tail and np.isfinite(got).all()
            continue
        message = f"{what} at colatitude {th[inside.index(False)]:.6g} lies in the polar cap"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            f(*args)
