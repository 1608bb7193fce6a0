"""Floating-point verification of the Hopf fibration.

This module checks, numerically, the geometric facts behind the first stem:

* quaternion algebra and the double cover ``S^3 -> SO(3)`` (a group
  homomorphism with kernel ``{+1, -1}``), and
* Hopf fibers (circles in ``S^3``), stereographic projection, and the Gauss
  linking integral certifying that any two distinct fibers link once.

A quaternion is the 4-tuple ``(w, x, y, z)`` of floats, as in
:mod:`stemcert.so3`, and a point of ``S^2`` the tuple ``(x, y, z)``.  A
closed curve is the (N, 3) or (N, 4) array of its N distinct samples, the
last joined back to the first.

The rotations, the ball model of ``SO(3)``, its loops and their lifts live in
:mod:`stemcert.so3`, which needs no numpy; this module re-exports them.

Rotation matrices use the active convention throughout: ``rot_from_quat(q)``
is the matrix of ``x -> q x conj(q)``, which makes the map a homomorphism
under matrix composition.  (Conjugating on the other side gives the same
set of rotations but reverses composition order.)
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

from . import _kernels
from .errors import ResamplePole, VerificationError
from .so3 import (
    BallPoint,
    Rotation3,
    ball_to_rotation,
    homotopy_H,
    homotopy_slice_matrices,
    lift_loop,
    loop_matrices,
    loop_point,
    matrix_path,
    quat_from_rot,
)

# The SO(3) names stay listed here, as the same objects: the benchmark's
# tracer times the functions of this list as ``hopf.*``.
__all__ = [
    "BallPoint",
    "Rotation3",
    "ball_to_rotation",
    "choose_pole",
    "fiber_curve",
    "fiber_linking",
    "gauss_linking",
    "homotopy_H",
    "homotopy_slice_matrices",
    "hopf_map",
    "hurwitz_units",
    "lift_loop",
    "loop_matrices",
    "loop_point",
    "matrix_path",
    "qmul",
    "quat_from_rot",
    "random_sphere_point",
    "rot_from_quat",
    "stereographic",
    "stereographic_inverse",
    "unlinked_control",
]

_UNIT_TOL = 1e-9


# --------------------------------------------------------------------------
# Quaternions
# --------------------------------------------------------------------------


def qmul(a, b) -> tuple:
    """Hamilton product of two quaternions ``(w, x, y, z)``, with the
    conventions ij = k, jk = i, ki = j."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _unit(q) -> tuple:
    """``q`` as a 4-tuple of floats, after checking that its norm is 1."""
    w, x, y, z = map(float, q)
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(norm - 1.0) >= _UNIT_TOL:
        raise ValueError(f"expected a unit quaternion, got norm {norm}")
    return w, x, y, z


# --------------------------------------------------------------------------
# Hopf map and fibers
# --------------------------------------------------------------------------


def hopf_map(q) -> tuple:
    """``q -> conj(q) i q`` as a point ``(x, y, z)`` of S^2 in the (i, j, k)
    coordinates.

    The real part of ``conj(q) i q`` is ``Re(i q conj(q)) = 0`` exactly, so
    only the imaginary part is returned.
    """
    w, x, y, z = _unit(q)
    _, hx, hy, hz = qmul(qmul((w, -x, -y, -z), (0.0, 1.0, 0.0, 0.0)), (w, x, y, z))
    return (hx, hy, hz)


def _hopf_points(points: np.ndarray) -> np.ndarray:
    """Vectorized Hopf map on an (N, 4) array of unit quaternions."""
    w, x, y, z = points[:, 0], points[:, 1], points[:, 2], points[:, 3]
    return np.stack(
        [w**2 + x**2 - y**2 - z**2, 2 * (x * y - w * z), 2 * (w * y + x * z)],
        axis=1,
    )


def fiber_curve(p, samples: int) -> np.ndarray:
    """The Hopf fiber over ``p`` in S^2, sampled as a closed curve in S^3:
    an (N, 4) array of ``samples`` distinct points.

    Finds a base lift ``q0`` with ``hopf_map(q0) = p`` (the rotation taking
    i to p, lifted to a quaternion) and samples
    ``theta -> (cos theta + i sin theta) * q0`` at ``samples`` evenly spaced
    angles in ``[0, 2 pi)``; every sample maps back to ``p`` within 1e-9.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or abs(np.linalg.norm(p) - 1.0) >= _UNIT_TOL:
        raise ValueError("the base point must lie on the unit sphere")
    if samples < 16:
        raise ValueError("at least 16 samples are required")

    if p[0] >= 1.0 - 1e-12:
        q0 = np.array([1.0, 0.0, 0.0, 0.0])  # stabilizer of i itself
    elif p[0] <= -1.0 + 1e-12:
        q0 = np.array([0.0, 0.0, 1.0, 0.0])  # j conjugates i to -i
    else:
        axis = np.array([0.0, -p[2], p[1]])  # i cross p
        sin_t = np.linalg.norm(axis)
        axis /= sin_t
        angle = math.atan2(sin_t, p[0])
        # conj(q) i q rotates i by -angle about the axis, hence the minus.
        q0 = np.concatenate([[math.cos(angle / 2)], -math.sin(angle / 2) * axis])

    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    w0, x0, y0, z0 = q0
    points = np.stack(
        [c * w0 - s * x0, c * x0 + s * w0, c * y0 - s * z0, c * z0 + s * y0],
        axis=1,
    )
    if np.abs(_hopf_points(points) - p).max() >= _UNIT_TOL:
        raise VerificationError("fiber samples failed to map back to the base point")
    return points


# --------------------------------------------------------------------------
# Stereographic projection
# --------------------------------------------------------------------------


def _pole_basis(pole: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to a unit
    pole of S^3 (Gram-Schmidt over the standard basis)."""
    if pole.shape != (4,) or abs(np.linalg.norm(pole) - 1.0) >= _UNIT_TOL:
        raise ValueError("the pole must be a unit vector of length 4")
    basis = []
    for seed in np.eye(4):
        v = seed - np.dot(seed, pole) * pole
        for e in basis:
            v -= np.dot(v, e) * e
        n = np.linalg.norm(v)
        if n > 1e-6:
            basis.append(v / n)
        if len(basis) == 3:
            break
    return np.array(basis)


def stereographic(points, pole) -> np.ndarray:
    """Stereographic projection from ``pole`` to R^3 of a point of S^3 (a
    4-vector) or of an (N, 4) array of them.

    Every point must be a unit vector more than 1e-3 away from the unit
    pole; a point nearer the pole raises :class:`ResamplePole`.
    """
    points = np.asarray(points, dtype=float)
    pole = np.asarray(pole, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != 4:
        raise ValueError("expected a 4-vector or an (N, 4) array")
    if np.abs(np.linalg.norm(points, axis=-1) - 1.0).max() >= _UNIT_TOL:
        raise ValueError("expected unit vectors")
    basis = _pole_basis(pole)
    if np.linalg.norm(points - pole, axis=-1).min() <= 1e-3:
        raise ResamplePole("sample too close to the projection pole")
    return (points @ basis.T) / (1.0 - points @ pole)[..., None]


def stereographic_inverse(v, pole) -> np.ndarray:
    """Inverse of :func:`stereographic`; round trips within 1e-9."""
    v = np.asarray(v, dtype=float)
    pole = np.asarray(pole, dtype=float)
    basis = _pole_basis(pole)
    t = float(np.dot(v, v))
    return ((t - 1.0) / (t + 1.0)) * pole + (2.0 / (t + 1.0)) * (v @ basis)


def hurwitz_units() -> np.ndarray:
    """The 24 fixed pole candidates: unit basis quaternions and all
    ``(+-1 +- i +- j +- k) / 2``, in deterministic order."""
    units = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            v = np.zeros(4)
            v[axis] = sign
            units.append(v)
    for signs in np.ndindex(2, 2, 2, 2):
        units.append(np.array([0.5 if s == 0 else -0.5 for s in signs]))
    return np.array(units)


def choose_pole(
    curves: Iterable[np.ndarray],
    rng: Union[np.random.Generator, int, None] = None,
) -> np.ndarray:
    """Projection pole: ``-1`` by default, re-chosen at random among the 24
    fixed candidates if any curve sample comes within 1e-3 of it."""
    curves = list(curves)

    def clearance(pole: np.ndarray) -> float:
        return min(
            float(np.linalg.norm(c - pole, axis=1).min()) for c in curves
        )

    default = np.array([-1.0, 0.0, 0.0, 0.0])
    if clearance(default) > 1e-3:
        return default
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    candidates = hurwitz_units()
    for idx in rng.permutation(len(candidates)):
        pole = candidates[idx]
        if clearance(pole) > 1e-3:
            return pole
    raise ValueError("no pole candidate clears every curve sample")


# --------------------------------------------------------------------------
# Gauss linking
# --------------------------------------------------------------------------


def gauss_linking(a, b) -> float:
    """Discretized Gauss double integral over segment midpoints.

    ``a`` and ``b`` are closed curves in R^3, (N, 3) arrays of at least 64
    samples each, whose segments join each sample to the next and the last
    back to the first.  The curves must stay more than 1e-3 apart; the
    result is a real number near an integer (the linking number).  The
    separation check over the samples and the double sum over the segments
    both run in :mod:`stemcert._kernels`, block by block in a fixed order,
    in memory linear in the sample count.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for curve in (a, b):
        if curve.ndim != 2 or curve.shape[1] != 3:
            raise ValueError("linking is computed for (N, 3) arrays of samples in R^3")
        if len(curve) < 64:
            raise ValueError("at least 64 samples per curve are required")
    if _kernels.closest_squared_distance(a, b) <= 1e-6:
        raise ValueError("curves intersect within tolerance")
    total = _kernels.gauss_linking_sum(*_segments(a), *_segments(b))
    return total / (4.0 * math.pi)


def _segments(points: np.ndarray):
    """Midpoints and difference vectors of a closed curve's segments."""
    following = np.roll(points, -1, axis=0)
    return 0.5 * (points + following), following - points


def fiber_linking(
    p1,
    p2,
    samples: int = 512,
    rng: Union[np.random.Generator, int, None] = None,
) -> float:
    """Linking number of the Hopf fibers over two distinct base points,
    measured after stereographic projection to R^3 from :func:`choose_pole`.
    Both fibers are projected in one call, on their stacked samples."""
    fibers = [fiber_curve(p1, samples), fiber_curve(p2, samples)]
    pole = choose_pole(fibers, rng)
    return gauss_linking(*np.split(stereographic(np.concatenate(fibers), pole), 2))


def unlinked_control(samples: int = 512):
    """Two planar unit circles 4 apart (linking number 0), as (N, 3) arrays."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    first = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    return first, first + np.array([4.0, 0.0, 0.0])


def random_sphere_point(rng: np.random.Generator) -> np.ndarray:
    """Uniform random point of S^2."""
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


# --------------------------------------------------------------------------
# The double cover
# --------------------------------------------------------------------------


def rot_from_quat(q) -> Rotation3:
    """Rotation matrix of ``x -> q x conj(q)`` on the (i, j, k) coordinates,
    for a unit quaternion ``q = (w, x, y, z)``.

    A group homomorphism from unit quaternions onto SO(3) with kernel
    ``{q, -q}``.
    """
    w, x, y, z = _unit(q)
    return Rotation3(
        (
            (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
        )
    )
