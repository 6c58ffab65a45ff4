"""The tests' shared fixtures and independent references, each defined once: a test module imports them from here
and defines none of them itself (tests/test_api.py holds every module to that).

``sequential_grid`` and ``stepped_product`` are the time-ordered product of exponentials written without the library:
they call no liecurv function, only the benchmark's closed forms.
"""

import importlib.util
from pathlib import Path

import numpy as np

from liecurv import circle, exp_so3
from liecurv.liecore import exp_components

# the benchmark's closed forms, written without the library: quat_mul is the Hamilton product as one expression per
# component, which has hamilton's bits (tests/test_liecore.py)
_SPEC = importlib.util.spec_from_file_location("closed_forms", Path(__file__).parents[1] / "benchmarks/closed_forms.py")
CF = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(CF)


def exp_quaternion(u):
    """The unit quaternion exp_components forms from u (..., 3), stacked along the last axis as (..., 4)."""
    return np.stack(exp_components(*np.moveaxis(np.asarray(u, dtype=float), -1, 0))[:4], axis=-1)


def tilted_circle():
    """Smooth closed curve whose algebra increments do not commute."""
    return circle(np.array([0.3, -0.2, 0.5]), 0.8, plane=(np.array([1.0, 0.2, 0.3]), np.array([-0.1, 1.0, 0.4])))


def rotated_frame():
    """The columns of exp_so3((0.4, -1.1, 0.7)): a sphere frame far from the identity."""
    R = exp_so3(np.array([0.4, -1.1, 0.7]))
    return tuple(R[:, i] for i in range(3))


def random_frame(rng, left_handed):
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Q *= np.sign(np.linalg.det(Q)) * (-1.0 if left_handed else 1.0)  # det(Q) = -1 exactly when left-handed
    return tuple(Q.T)  # sphere_surface stacks the frame vectors as columns: F = Q


def graph_chart(u):
    """The graph z = 0.3 sin u1 cos u2, for stacks of chart points (..., 2)."""
    return np.stack([u[..., 0], u[..., 1], 0.3 * np.sin(u[..., 0]) * np.cos(u[..., 1])], axis=-1)


def sequential_grid(steps, corners):
    """The grid's corner merge as a loop: a node within 1e-12 of the previous one replaces it."""
    nodes = np.linspace(0.0, 1.0, steps + 1)
    interior = [float(t) for t in corners if 0.0 < t < 1.0]
    if interior:
        merged = np.unique(np.concatenate([nodes, np.asarray(interior)]))
        out = [merged[0]]
        for t in merged[1:]:
            if t - out[-1] > 1e-12:
                out.append(t)
            else:
                out[-1] = t
        nodes = np.asarray(out)
    return nodes


def stepped_product(algebra, nodes, s):
    """``(R, angle_sum)``: the product of exponentials over the grid ``nodes``, stepped in order.

    Each interval [t0, t0 + dt] is sampled at t0 + s dt and steps R <- exp(dt a) R, with a = algebra(t0 + s dt) and
    exp in Rodrigues' closed form; angle_sum adds up the step angles |dt a|."""
    R, angles = np.eye(3), 0.0
    for t0, dt in zip(nodes[:-1], np.diff(nodes)):
        step = dt * algebra(t0 + s * dt)
        R, angles = CF.rodrigues(step) @ R, angles + float(np.linalg.norm(step))
    return R, angles
