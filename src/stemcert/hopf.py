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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import _kernels
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
    "curve_from_json",
    "curve_to_json",
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
#: Rows of the first curve per block of the separation check; memory is
#: O(_BLOCK_ROWS * N) instead of O(N^2).
_BLOCK_ROWS = 256


# --------------------------------------------------------------------------
# Quaternions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    """A quaternion ``w + x i + y j + z k`` in double precision."""

    w: float
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return cls(w, x, y, z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return qmul(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


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
    """``q -> conj(q) i q`` as a point of S^2 in the (i, j, k) coordinates."""
    _require_unit(q)
    image = qmul(qmul(q.conjugate(), I), q)
    if abs(image.w) >= _UNIT_TOL:
        raise VerificationError("Hopf image is not purely imaginary")
    return np.array([image.x, image.y, image.z])


def _hopf_points(points: np.ndarray) -> np.ndarray:
    """Vectorized Hopf map on an (N, 4) array of unit quaternions."""
    w, x, y, z = points[:, 0], points[:, 1], points[:, 2], points[:, 3]
    return np.stack(
        [w**2 + x**2 - y**2 - z**2, 2 * (x * y - w * z), 2 * (w * y + x * z)],
        axis=1,
    )


@dataclass(eq=False)
class SampledCurve:
    """An ordered list of sample points in R^3 or R^4 (S^3), with a closed
    flag; closed curves repeat their first point at the end."""

    points: np.ndarray
    closed: bool

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] not in (3, 4):
            raise ValueError("a curve is an (N, 3) or (N, 4) array of samples")
        if self.closed and not np.allclose(
            self.points[0], self.points[-1], atol=_UNIT_TOL, rtol=0.0
        ):
            raise ValueError("a closed curve must end where it starts")

    @property
    def num_segments(self) -> int:
        return len(self.points) - 1

    def segments(self):
        """Midpoints and difference vectors of the polyline segments."""
        mids = 0.5 * (self.points[:-1] + self.points[1:])
        difs = self.points[1:] - self.points[:-1]
        return np.ascontiguousarray(mids), np.ascontiguousarray(difs)


def curve_to_json(curve: SampledCurve) -> list:
    """Plain JSON array of [x, y, z] (or [w, x, y, z]) sample points."""
    return [[float(v) for v in row] for row in curve.points]


def curve_from_json(data: Sequence) -> SampledCurve:
    points = np.asarray(data, dtype=float)
    closed = bool(np.allclose(points[0], points[-1], atol=_UNIT_TOL, rtol=0.0))
    return SampledCurve(points=points, closed=closed)


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


def _as_unit_array(q, dim: int) -> np.ndarray:
    arr = q.as_array() if isinstance(q, Quaternion) else np.asarray(q, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}")
    if abs(np.linalg.norm(arr) - 1.0) >= _UNIT_TOL:
        raise ValueError("expected a unit vector")
    return arr


def _pole_basis(pole: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to the
    pole (Gram-Schmidt over the standard basis)."""
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


def stereographic(q, pole) -> np.ndarray:
    """Stereographic projection of ``q`` in S^3 from ``pole`` to R^3."""
    q = _as_unit_array(q, 4)
    pole = _as_unit_array(pole, 4)
    if np.linalg.norm(q - pole) <= 1e-3:
        raise ResamplePole("sample too close to the projection pole")
    basis = _pole_basis(pole)
    return (basis @ q) / (1.0 - np.dot(q, pole))


def stereographic_inverse(v, pole) -> np.ndarray:
    """Inverse of :func:`stereographic`; round trips within 1e-9."""
    v = np.asarray(v, dtype=float)
    pole = _as_unit_array(pole, 4)
    basis = _pole_basis(pole)
    t = float(np.dot(v, v))
    return ((t - 1.0) / (t + 1.0)) * pole + (2.0 / (t + 1.0)) * (v @ basis)


def _project_curve(curve: SampledCurve, pole: np.ndarray) -> SampledCurve:
    points = curve.points
    if np.linalg.norm(points - pole, axis=1).min() <= 1e-3:
        raise ResamplePole("curve passes too close to the projection pole")
    basis = _pole_basis(pole)
    images = (points @ basis.T) / (1.0 - points @ pole)[:, None]
    return SampledCurve(points=images, closed=curve.closed)


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
    integer (the linking number).  The double sum runs in a deterministic
    segment order.
    """
    for curve in (a, b):
        if not curve.closed:
            raise ValueError("linking requires closed curves")
        if curve.points.shape[1] != 3:
            raise ValueError("linking is computed for curves in R^3")
        if curve.num_segments < 64:
            raise ValueError("at least 64 segments per curve are required")
    bx, by, bz = b.points.T
    closest2 = math.inf
    for start in range(0, len(a.points), _BLOCK_ROWS):
        ax, ay, az = a.points[start : start + _BLOCK_ROWS].T
        dist2 = np.subtract.outer(ax, bx) ** 2
        dist2 += np.subtract.outer(ay, by) ** 2
        dist2 += np.subtract.outer(az, bz) ** 2
        closest2 = min(closest2, float(dist2.min()))
    if closest2 <= 1e-6:
        raise ValueError("curves intersect within tolerance")
    mid_a, seg_a = a.segments()
    mid_b, seg_b = b.segments()
    total = _kernels.gauss_linking_sum(mid_a, seg_a, mid_b, seg_b)
    return total / (4.0 * math.pi)


def fiber_linking(
    p1,
    p2,
    samples: int = 512,
    pole: Optional[np.ndarray] = None,
    rng: Union[np.random.Generator, int, None] = None,
) -> float:
    """Linking number of the Hopf fibers over two distinct base points,
    measured after stereographic projection to R^3."""
    f1 = fiber_curve(p1, samples)
    f2 = fiber_curve(p2, samples)
    if pole is None:
        pole = choose_pole([f1, f2], rng)
    return gauss_linking(_project_curve(f1, pole), _project_curve(f2, pole))


def unlinked_control(samples: int = 512, separation: float = 4.0):
    """Two distant planar unit circles (linking number 0)."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    first = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    second = first + np.array([separation, 0.0, 0.0])
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
