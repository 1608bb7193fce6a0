"""Floating-point verification of the Hopf fibration.

This module checks, numerically, the geometric facts behind the first stem:

* quaternion algebra and the double cover ``S^3 -> SO(3)`` (a group
  homomorphism with kernel ``{+1, -1}``), and
* Hopf fibers (circles in ``S^3``), stereographic projection, and the Gauss
  linking integral certifying that any two distinct fibers link once.

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
from ._frozen import Frozen
from .errors import ResamplePole, VerificationError
from .so3 import (
    BallPoint,
    QuaternionPath,
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
    "Quaternion",
    "QuaternionPath",
    "Rotation3",
    "SampledCurve",
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


class Quaternion(Frozen):
    """A quaternion ``w + x i + y j + z k`` in double precision."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        self._set(w=w, x=x, y=y, z=z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return qmul(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


I = Quaternion(0.0, 1.0, 0.0, 0.0)


def qmul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product with the conventions ij = k, jk = i, ki = j."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def _require_unit(q: Quaternion) -> None:
    if abs(q.norm() - 1.0) >= _UNIT_TOL:
        raise ValueError(f"expected a unit quaternion, got norm {q.norm()}")


# --------------------------------------------------------------------------
# Hopf map and fibers
# --------------------------------------------------------------------------


def hopf_map(q: Quaternion) -> np.ndarray:
    """``q -> conj(q) i q`` as a point of S^2 in the (i, j, k) coordinates.

    The real part of ``conj(q) i q`` is ``Re(i q conj(q)) = 0`` exactly, so
    only the imaginary part is returned.
    """
    _require_unit(q)
    image = qmul(qmul(q.conjugate(), I), q)
    return np.array([image.x, image.y, image.z])


def _hopf_points(points: np.ndarray) -> np.ndarray:
    """Vectorized Hopf map on an (N, 4) array of unit quaternions."""
    w, x, y, z = points[:, 0], points[:, 1], points[:, 2], points[:, 3]
    return np.stack(
        [w**2 + x**2 - y**2 - z**2, 2 * (x * y - w * z), 2 * (w * y + x * z)],
        axis=1,
    )


class SampledCurve:
    """An ordered list of sample points in R^3 or R^4 (S^3), with a closed
    flag; closed curves repeat their first point at the end."""

    __slots__ = ("points", "closed")

    def __init__(self, points: np.ndarray, closed: bool):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] not in (3, 4):
            raise ValueError("a curve is an (N, 3) or (N, 4) array of samples")
        # Written as "all within", so that a NaN coordinate fails it.
        if closed and not (np.abs(points[0] - points[-1]) <= _UNIT_TOL).all():
            raise ValueError("a closed curve must end where it starts")
        self.points = points
        self.closed = closed

    @property
    def num_segments(self) -> int:
        return len(self.points) - 1

    def segments(self):
        """Midpoints and difference vectors of the polyline segments."""
        mids = 0.5 * (self.points[:-1] + self.points[1:])
        difs = self.points[1:] - self.points[:-1]
        return np.ascontiguousarray(mids), np.ascontiguousarray(difs)


def fiber_curve(p, samples: int) -> SampledCurve:
    """The Hopf fiber over ``p`` in S^2, sampled as a closed curve in S^3.

    Finds a base lift ``q0`` with ``hopf_map(q0) = p`` (the rotation taking
    i to p, lifted to a quaternion) and samples
    ``theta -> (cos theta + i sin theta) * q0`` uniformly; every sample maps
    back to ``p`` within 1e-9.
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

    theta = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    c, s = np.cos(theta), np.sin(theta)
    w0, x0, y0, z0 = q0
    points = np.stack(
        [c * w0 - s * x0, c * x0 + s * w0, c * y0 - s * z0, c * z0 + s * y0],
        axis=1,
    )
    if np.abs(_hopf_points(points) - p).max() >= _UNIT_TOL:
        raise VerificationError("fiber samples failed to map back to the base point")
    return SampledCurve(points=points, closed=True)


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
    curves: Iterable[SampledCurve],
    rng: Union[np.random.Generator, int, None] = None,
) -> np.ndarray:
    """Projection pole: ``-1`` by default, re-chosen at random among the 24
    fixed candidates if any curve sample comes within 1e-3 of it."""
    curves = list(curves)

    def clearance(pole: np.ndarray) -> float:
        return min(
            float(np.linalg.norm(c.points - pole, axis=1).min()) for c in curves
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


def gauss_linking(a: SampledCurve, b: SampledCurve) -> float:
    """Discretized Gauss double integral over segment midpoints.

    Both curves must be closed, sampled with at least 64 segments, live in
    R^3, and stay more than 1e-3 apart; the result is a real number near an
    integer (the linking number).  The separation check over the sample
    points and the double sum over the segments both run in
    :mod:`stemcert._kernels`, block by block in a fixed order, in memory
    linear in the sample count.
    """
    for curve in (a, b):
        if not curve.closed:
            raise ValueError("linking requires closed curves")
        if curve.points.shape[1] != 3:
            raise ValueError("linking is computed for curves in R^3")
        if curve.num_segments < 64:
            raise ValueError("at least 64 segments per curve are required")
    if _kernels.closest_squared_distance(a.points, b.points) <= 1e-6:
        raise ValueError("curves intersect within tolerance")
    mid_a, seg_a = a.segments()
    mid_b, seg_b = b.segments()
    total = _kernels.gauss_linking_sum(mid_a, seg_a, mid_b, seg_b)
    return total / (4.0 * math.pi)


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
    images = stereographic(np.concatenate([f.points for f in fibers]), pole)
    a, b = (SampledCurve(half, closed=True) for half in np.split(images, 2))
    return gauss_linking(a, b)


def unlinked_control(samples: int = 512):
    """Two planar unit circles 4 apart (linking number 0)."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    first = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    second = first + np.array([4.0, 0.0, 0.0])
    return SampledCurve(first, closed=True), SampledCurve(second, closed=True)


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


def rot_from_quat(q: Quaternion) -> Rotation3:
    """Rotation matrix of ``x -> q x conj(q)`` on the (i, j, k) coordinates.

    A group homomorphism from unit quaternions onto SO(3) with kernel
    ``{q, -q}``.
    """
    _require_unit(q)
    w, x, y, z = q.w, q.x, q.y, q.z
    return Rotation3(
        (
            (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
        )
    )
