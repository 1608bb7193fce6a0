"""Floating-point verification of the Hopf fibration and SO(3) geometry.

This module checks, numerically, the geometric facts behind the first stem:

* quaternion algebra and the double cover ``S^3 -> SO(3)`` (a group
  homomorphism with kernel ``{+1, -1}``),
* Hopf fibers (circles in ``S^3``), stereographic projection, and the Gauss
  linking integral certifying that any two distinct fibers link once,
* the closed-ball model of ``SO(3)`` (radius pi, antipodal boundary points
  identified), the explicit loops gamma/alpha/beta with their homotopy, and
* loop lifting: the monodromy sign of a continuous quaternion lift, which
  detects the generator of ``pi_1(SO(3)) = Z/2``.

Rotation matrices use the active convention throughout: ``rot_from_quat(q)``
is the matrix of ``x -> q x conj(q)``, which makes the map a homomorphism
under matrix composition.  (Conjugating on the other side gives the same
set of rotations but reverses composition order.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .errors import ResamplePole, VerificationError

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
# Rotations, the ball model, and the explicit loops
# --------------------------------------------------------------------------


class Rotation3:
    """A 3x3 rotation matrix (orthogonal within 1e-9, determinant +1)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("a rotation is a 3x3 matrix")
        # Scalar arithmetic on the nine entries: numpy's per-call overhead on
        # a 3x3 matrix costs more than the arithmetic itself.
        (a, b, c), (d, e, f), (g, h, i) = m.tolist()
        gram_error = max(
            abs(a * a + d * d + g * g - 1.0),
            abs(b * b + e * e + h * h - 1.0),
            abs(c * c + f * f + i * i - 1.0),
            abs(a * b + d * e + g * h),
            abs(a * c + d * f + g * i),
            abs(b * c + e * f + h * i),
        )
        if gram_error >= _UNIT_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) <= 0:
            raise ValueError("matrix must have positive determinant")
        self.matrix = m

    def __matmul__(self, other: "Rotation3") -> "Rotation3":
        return Rotation3(self.matrix @ other.matrix)

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def __repr__(self) -> str:
        return f"Rotation3({self.matrix.tolist()})"


def rot_from_quat(q: Quaternion) -> Rotation3:
    """Rotation matrix of ``x -> q x conj(q)`` on the (i, j, k) coordinates.

    A group homomorphism from unit quaternions onto SO(3) with kernel
    ``{q, -q}``.
    """
    _require_unit(q)
    w, x, y, z = q.w, q.x, q.y, q.z
    return Rotation3(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_rot(rotation) -> np.ndarray:
    """A unit quaternion mapping to the given rotation (max-trace branch).

    The other preimage is its negative; continuity along a path is restored
    separately by sign choice (see :func:`lift_loop`).
    """
    m = rotation.matrix if isinstance(rotation, Rotation3) else np.asarray(rotation)
    t = float(np.trace(m))
    if t > 0:
        r = math.sqrt(1.0 + t)
        w = 0.5 * r
        x = (m[2, 1] - m[1, 2]) / (2.0 * r)
        y = (m[0, 2] - m[2, 0]) / (2.0 * r)
        z = (m[1, 0] - m[0, 1]) / (2.0 * r)
    else:
        d = int(np.argmax(np.diag(m)))
        if d == 0:
            r = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
            x = 0.5 * r
            w = (m[2, 1] - m[1, 2]) / (2.0 * r)
            y = (m[0, 1] + m[1, 0]) / (2.0 * r)
            z = (m[0, 2] + m[2, 0]) / (2.0 * r)
        elif d == 1:
            r = math.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2])
            y = 0.5 * r
            w = (m[0, 2] - m[2, 0]) / (2.0 * r)
            x = (m[0, 1] + m[1, 0]) / (2.0 * r)
            z = (m[1, 2] + m[2, 1]) / (2.0 * r)
        else:
            r = math.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2])
            z = 0.5 * r
            w = (m[1, 0] - m[0, 1]) / (2.0 * r)
            x = (m[0, 2] + m[2, 0]) / (2.0 * r)
            y = (m[1, 2] + m[2, 1]) / (2.0 * r)
    return np.array([w, x, y, z])


class BallPoint:
    """A point of the closed ball of radius pi modeling SO(3).

    Boundary points (norm within 1e-9 of pi) are stored in the canonical
    antipodal representative: first coordinate of magnitude above 1e-12 is
    made positive.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        n = math.sqrt(x * x + y * y + z * z)
        if n > math.pi + _UNIT_TOL:
            raise ValueError("point lies outside the closed ball of radius pi")
        if n >= math.pi - _UNIT_TOL:
            for coord in (x, y, z):
                if abs(coord) > 1e-12:
                    if coord < 0:
                        x, y, z = -x, -y, -z
                    break
        self.x, self.y, self.z = float(x), float(y), float(z)

    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __repr__(self) -> str:
        return f"BallPoint({self.x}, {self.y}, {self.z})"


def ball_to_rotation(b) -> Rotation3:
    """Axis-angle rotation: direction of ``b``, angle ``|b|`` (Rodrigues).

    The origin maps to the identity, and antipodal boundary points map to
    equal rotations.
    """
    v = b.as_array() if isinstance(b, BallPoint) else np.asarray(b, dtype=float)
    theta = np.linalg.norm(v)
    if theta > math.pi + _UNIT_TOL:
        raise ValueError("point lies outside the closed ball of radius pi")
    if theta < 1e-15:
        return Rotation3(np.eye(3))
    u = v / theta
    k = np.array(
        [[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]]
    )
    return Rotation3(np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k))


_LOOP_NAMES = ("gamma", "alpha", "beta")


def _require_loop_name(name: str) -> str:
    name = name.strip().lower()
    if name not in _LOOP_NAMES:
        raise ValueError(f"loop name must be one of {_LOOP_NAMES}, got {name!r}")
    return name


def loop_point(name: str, t: float) -> BallPoint:
    """The explicit loops in the ball model, canonicalized on the boundary:

    * gamma(t) = (0, 0, pi cos(pi t)) — a diameter, closed in the quotient,
    * alpha(t) = (0, -pi sin(pi t), pi cos(pi t)) — a boundary semicircle,
    * beta(t)  = (0, +pi sin(pi t), pi cos(pi t)) — its mirror image.
    """
    name = _require_loop_name(name)
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise ValueError("loop parameter must lie in [0, 1]")
    c = math.pi * math.cos(math.pi * t)
    s = math.pi * math.sin(math.pi * t)
    if name == "gamma":
        return BallPoint(0.0, 0.0, c)
    if name == "alpha":
        return BallPoint(0.0, -s, c)
    return BallPoint(0.0, s, c)


def homotopy_H(variant: str, s: float, t: float) -> BallPoint:
    """The ellipse-shaped homotopy ``H(s, t) = (0, -+ pi s sin(pi t),
    pi cos(pi t))`` connecting gamma (s = 0) to alpha or beta (s = 1).

    Its image stays inside the closed ball:
    ``(pi s sin)^2 + (pi cos)^2 <= pi^2``.
    """
    variant = _require_loop_name(variant)
    if variant == "gamma":
        raise ValueError("the homotopy variant is the target loop: alpha or beta")
    if not (-1e-12 <= s <= 1.0 + 1e-12 and -1e-12 <= t <= 1.0 + 1e-12):
        raise ValueError("homotopy parameters must lie in [0, 1]")
    sign = -1.0 if variant == "alpha" else 1.0
    return BallPoint(
        0.0,
        sign * math.pi * s * math.sin(math.pi * t),
        math.pi * math.cos(math.pi * t),
    )


def matrix_path(name: str, t: float) -> Rotation3:
    """The explicit matrix paths in SO(3).

    The gamma path is a rotation about the z-axis through angle ``pi t``;
    note it closes up only after ``t = 2`` (one full traversal of the
    underlying loop), while alpha and beta close over ``t in [0, 1]``.  The
    parameter is therefore not restricted to [0, 1] here.
    """
    name = _require_loop_name(name)
    if name == "gamma":
        c, s = math.cos(math.pi * t), math.sin(math.pi * t)
        return Rotation3([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)
    if name == "alpha":
        return Rotation3([[-1.0, 0.0, 0.0], [0.0, -c, -s], [0.0, -s, c]])
    return Rotation3([[-1.0, 0.0, 0.0], [0.0, -c, s], [0.0, s, c]])


# --------------------------------------------------------------------------
# Loop building and lifting
# --------------------------------------------------------------------------


def loop_matrices(name: str, steps: int, turns: int = 1) -> np.ndarray:
    """Sampled closed matrix loops for the lift command.

    ``gamma``/``alpha``/``beta`` sample the displayed matrix paths over one
    full period (``t in [0, 2]`` for gamma, ``[0, 1]`` otherwise) repeated
    ``turns`` times; ``alpha-then-beta`` concatenates the two; ``ball-gamma``
    runs gamma through the ball model instead; ``identity`` is the constant
    loop.
    """
    if steps < 256:
        raise ValueError("at least 256 steps are required")
    if turns < 1:
        raise ValueError("turns must be at least 1")
    if name == "alpha-then-beta":
        ts = np.linspace(0.0, 1.0, steps + 1)
        mats = [matrix_path("alpha", t).matrix for t in ts[:-1]]
        mats += [matrix_path("beta", t).matrix for t in ts]
        return np.array(mats)
    if name == "identity":
        return np.broadcast_to(np.eye(3), (steps + 1, 3, 3)).copy()
    if name == "ball-gamma":
        ts = np.linspace(0.0, 1.0, steps + 1)
        return np.array(
            [ball_to_rotation(loop_point("gamma", t % 1.0)).matrix for t in ts]
        )
    period = 2.0 if name == "gamma" else 1.0
    ts = np.linspace(0.0, period * turns, steps + 1)
    return np.array([matrix_path(name, t).matrix for t in ts])


def homotopy_slice_matrices(variant: str, s: float, steps: int) -> np.ndarray:
    """The closed loop ``t -> ball_to_rotation(H(s, t))`` sampled over
    [0, 1]."""
    if steps < 256:
        raise ValueError("at least 256 steps are required")
    ts = np.linspace(0.0, 1.0, steps + 1)
    return np.array(
        [ball_to_rotation(homotopy_H(variant, s, t)).matrix for t in ts]
    )


@dataclass(eq=False)
class QuaternionPath:
    """A continuous unit-quaternion lift of a rotation loop with its
    monodromy sign (-1 when the lift ends at the negative of its start)."""

    points: np.ndarray
    monodromy: int


def lift_loop(
    path: Union[np.ndarray, Sequence, Callable[[float], Rotation3]],
    steps: int = 1024,
) -> tuple:
    """Lift a closed rotation loop to S^3 and read off the monodromy sign.

    ``path`` is either an (N, 3, 3) array of sampled rotations (closed: the
    last equals the first) or a callable on [0, 1] sampled at ``steps + 1``
    points.  At least 256 steps are required, consecutive rotations must be
    within angle 0.2 of each other, and the quaternion preimage is chosen at
    each step to be the one closest to the previous choice.  Returns
    ``(QuaternionPath, sign)``; sign -1 means the loop generates
    ``pi_1(SO(3))``, +1 that it is nullhomotopic (double-cover criterion).
    """
    if callable(path):
        if steps < 256:
            raise ValueError("at least 256 steps are required")
        ts = np.linspace(0.0, 1.0, steps + 1)
        mats = []
        for t in ts:
            r = path(t)
            mats.append(r.matrix if isinstance(r, Rotation3) else np.asarray(r))
        mats = np.array(mats)
    else:
        if isinstance(path, np.ndarray):
            mats = path.astype(float)
        else:
            mats = np.array(
                [r.matrix if isinstance(r, Rotation3) else np.asarray(r) for r in path]
            )
        if mats.ndim != 3 or mats.shape[1:] != (3, 3):
            raise ValueError("expected an (N, 3, 3) array of rotations")
        if len(mats) < 257:
            raise ValueError("at least 256 steps are required")
    if np.abs(mats[0] - mats[-1]).max() >= _UNIT_TOL:
        raise ValueError("the sampled path is not a closed loop")

    lift = [quat_from_rot(mats[0])]
    for m in mats[1:]:
        cand = quat_from_rot(m)
        dot = float(np.dot(cand, lift[-1]))
        # Rotation-angle distance between consecutive samples.
        jump = 2.0 * math.acos(min(1.0, abs(dot)))
        if jump > 0.2:
            raise ValueError(
                f"discontinuity: consecutive rotations jump by angle {jump:.3f}"
            )
        lift.append(-cand if dot < 0 else cand)
    points = np.array(lift)
    monodromy = 1 if float(np.dot(points[-1], points[0])) > 0 else -1
    return QuaternionPath(points=points, monodromy=monodromy), monodromy
