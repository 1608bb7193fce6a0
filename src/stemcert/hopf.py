"""Verification of the Hopf fibration, in stdlib arithmetic.

This module checks the geometric facts behind the first stem:

* quaternion algebra and the double cover ``S^3 -> SO(3)`` (a group
  homomorphism with kernel ``{+1, -1}``),
* that any two distinct Hopf fibers link once, exactly: the fiber through a
  quaternion ``q`` is the oriented plane spanned by ``q`` and ``i q``, and
  two such fibers link with the sign of the integer ``det[q, iq, r, ir]``
  (H. Hopf, *Math. Ann.* 104, 1931; Gluck and Warner, *Duke Math. J.* 50,
  1983), and
* in floats, the same fact as the classical integral: Hopf fibers (circles
  in ``S^3``), stereographic projection, and the Gauss linking sum.

A quaternion is the 4-tuple ``(w, x, y, z)``, as in :mod:`stemcert.so3`:
of ints for the integer certificates, of floats elsewhere.  A point of
``S^2`` is the tuple ``(x, y, z)``.  A closed curve is the list of its N
distinct samples, each a tuple, the last joined back to the first.

The rotations, the ball model of ``SO(3)``, its loops and their lifts live in
:mod:`stemcert.so3`; this module re-exports them.

Rotation matrices use the active convention throughout: ``rot_from_quat(q)``
is the matrix of ``x -> q x conj(q)``, which makes the map a homomorphism
under matrix composition.  (Conjugating on the other side gives the same
set of rotations but reverses composition order.)
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Iterable, Union

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
    "base_point",
    "choose_pole",
    "draw_fiber_pair",
    "fiber_curve",
    "fiber_determinant",
    "fiber_linking",
    "gauss_linking",
    "homotopy_H",
    "homotopy_slice_matrices",
    "hopf_map",
    "hurwitz_units",
    "lift_loop",
    "linking_number",
    "loop_matrices",
    "loop_point",
    "matrix_path",
    "mirror_determinant",
    "qmul",
    "quat_from_rot",
    "random_sphere_point",
    "rot_from_quat",
    "stereographic",
    "stereographic_inverse",
    "unlinked_control",
]

_UNIT_TOL = 1e-9
_I = (0, 1, 0, 0)
#: Entries of a drawn integer quaternion lie in [-_DRAW_BOUND, _DRAW_BOUND].
_DRAW_BOUND = 6
#: Tilt, in radians, of the unlinked control's second circle out of the
#: first circle's plane.
_CONTROL_TILT = 1.0


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


def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


def _points(points, dim: int, message: str) -> list:
    """``points`` as a list of ``dim``-tuples of floats; ``ValueError(message)``
    for anything else."""
    try:
        rows = [tuple(map(float, p)) for p in points]
    except TypeError:
        raise ValueError(message) from None
    if any(len(row) != dim for row in rows):
        raise ValueError(message)
    return rows


def _det4(rows) -> Union[int, float]:
    """Determinant of a 4x4 matrix, by the Laplace expansion along its first
    two rows; exact on ints."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


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


def _hopf_point(w, x, y, z) -> tuple:
    """``conj(q) i q`` in closed form: a point of norm ``|q|^2``, in integers
    for an integer ``q``."""
    return (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (w * y + x * z))


def fiber_curve(p, samples: int) -> list:
    """The Hopf fiber over ``p`` in S^2, sampled as a closed curve in S^3:
    a list of ``samples`` distinct points.

    Finds a base lift ``q0`` with ``hopf_map(q0) = p`` (the rotation taking
    i to p, lifted to a quaternion) and samples
    ``theta -> (cos theta + i sin theta) * q0`` at ``samples`` evenly spaced
    angles in ``[0, 2 pi)``; every sample maps back to ``p`` within 1e-9.
    """
    px, py, pz = map(float, p)
    if not abs(math.hypot(px, py, pz) - 1.0) < _UNIT_TOL:
        raise ValueError("the base point must lie on the unit sphere")
    if samples < 16:
        raise ValueError("at least 16 samples are required")

    if px >= 1.0 - 1e-12:
        w0, x0, y0, z0 = 1.0, 0.0, 0.0, 0.0  # stabilizer of i itself
    elif px <= -1.0 + 1e-12:
        w0, x0, y0, z0 = 0.0, 0.0, 1.0, 0.0  # j conjugates i to -i
    else:
        sin_t = math.hypot(pz, py)  # |i cross p|, with i cross p = (0, -pz, py)
        half = 0.5 * math.atan2(sin_t, px)
        # conj(q) i q rotates i by -angle about the axis, hence the minus.
        s = math.sin(half) / sin_t
        w0, x0, y0, z0 = math.cos(half), 0.0, s * pz, -s * py

    step = 2.0 * math.pi / samples
    points = []
    for k in range(samples):
        c, s = math.cos(k * step), math.sin(k * step)
        points.append((c * w0 - s * x0, c * x0 + s * w0, c * y0 - s * z0, c * z0 + s * y0))
    worst = max(
        abs(h - t) for point in points for h, t in zip(_hopf_point(*point), (px, py, pz))
    )
    if not worst < _UNIT_TOL:
        raise VerificationError("fiber samples failed to map back to the base point")
    return points


# --------------------------------------------------------------------------
# Integer certificates
# --------------------------------------------------------------------------


def fiber_determinant(q, r) -> int:
    """``det[q, i q, r, i r]`` of two integer quaternions.

    The Hopf fiber through ``q`` is the plane spanned by ``q`` and ``i q``,
    oriented by ``theta -> (cos theta + i sin theta) q``.  Left
    multiplication by i is a complex structure on R^4 that orients it as
    ``(1, i, j, k)`` does, so the determinant is ``|det_C(q, r)|^2 >= 0``,
    and 0 exactly when ``q`` and ``r`` lie on one fiber (or one is 0).
    """
    return _det4((q, qmul(_I, q), r, qmul(_I, r)))


def mirror_determinant(q, r) -> int:
    """``det[q, q i, r, r i]``: the pair in the mirror fibration, whose
    circles are ``q (cos theta + i sin theta)``.  Right multiplication by i
    orients R^4 against ``(1, i, j, k)``, so this is ``<= 0``."""
    return _det4((q, qmul(q, _I), r, qmul(r, _I)))


def linking_number(det: int) -> int:
    """The linking number (+1 or -1) of two Hopf fibers certified by their
    :func:`fiber_determinant`: its sign.  A zero determinant has no sign and
    raises :class:`VerificationError`."""
    if det == 0:
        raise VerificationError("a zero fiber determinant certifies no linking number")
    return 1 if det > 0 else -1


def base_point(q) -> tuple:
    """The point ``h(q) / |q|^2`` of S^2 under which the fiber through a
    nonzero integer quaternion ``q`` lies, as floats."""
    norm2 = _dot(q, q)
    return tuple(c / norm2 for c in _hopf_point(*q))


def draw_fiber_pair(rng: random.Random) -> tuple:
    """Two integer quaternions ``(q, r)`` with entries in [-6, 6], redrawn
    until both determinants are non-zero and the base points ``h(q)/|q|^2``
    and ``h(r)/|r|^2`` lie at least 0.1 apart, which is tested in integers."""
    while True:
        q, r = (tuple(rng.randint(-_DRAW_BOUND, _DRAW_BOUND) for _ in range(4)) for _ in range(2))
        if fiber_determinant(q, r) == 0 or mirror_determinant(q, r) == 0:
            continue
        nq, nr = _dot(q, q), _dot(r, r)
        gap = sum((a * nr - b * nq) ** 2 for a, b in zip(_hopf_point(*q), _hopf_point(*r)))
        if 100 * gap >= (nq * nr) ** 2:
            return q, r


# --------------------------------------------------------------------------
# Stereographic projection
# --------------------------------------------------------------------------


def _pole_basis(pole) -> list:
    """Orthonormal basis of the hyperplane orthogonal to a unit pole of S^3
    (Gram-Schmidt over the standard basis), oriented so that
    ``det[pole; basis] = -1``, as ``(i, j, k)`` is seen from the pole -1.
    Projection from any pole then keeps the orientation of S^3, and with it
    the sign of a linking number."""
    pole = _points([pole], 4, "the pole must be a unit vector of length 4")[0]
    if not abs(math.hypot(*pole) - 1.0) < _UNIT_TOL:
        raise ValueError("the pole must be a unit vector of length 4")
    basis = []
    for axis in range(4):
        v = [(axis == n) - pole[axis] * c for n, c in enumerate(pole)]
        for e in basis:
            d = _dot(v, e)
            v = [a - d * b for a, b in zip(v, e)]
        n = math.hypot(*v)
        if n > 1e-6:
            basis.append(tuple(c / n for c in v))
        if len(basis) == 3:
            break
    if _det4([pole, *basis]) > 0:
        basis[2] = tuple(-c for c in basis[2])
    return basis


def stereographic(points, pole) -> list:
    """Stereographic projection from ``pole`` to R^3 of a sequence of points
    of S^3 (4-tuples), as a list of 3-tuples.

    Every point must be a unit vector more than 1e-3 away from the unit
    pole; a point nearer the pole raises :class:`ResamplePole`.
    """
    e1, e2, e3 = _pole_basis(pole)
    pole = tuple(map(float, pole))
    points = _points(points, 4, "expected points of S^3 with 4 coordinates")
    if not all(abs(math.hypot(*p) - 1.0) < _UNIT_TOL for p in points):
        raise ValueError("expected unit vectors")
    if not min(math.dist(p, pole) for p in points) > 1e-3:
        raise ResamplePole("sample too close to the projection pole")
    images = []
    for p in points:
        scale = 1.0 - _dot(p, pole)
        images.append((_dot(p, e1) / scale, _dot(p, e2) / scale, _dot(p, e3) / scale))
    return images


def stereographic_inverse(v, pole) -> tuple:
    """Inverse of :func:`stereographic` on one point of R^3; round trips
    within 1e-9."""
    basis = _pole_basis(pole)
    v = tuple(map(float, v))
    t = _dot(v, v)
    along, across = (t - 1.0) / (t + 1.0), 2.0 / (t + 1.0)
    return tuple(
        along * c + across * _dot(v, column) for c, column in zip(map(float, pole), zip(*basis))
    )


def hurwitz_units() -> list:
    """The 24 fixed pole candidates: unit basis quaternions and all
    ``(+-1 +- i +- j +- k) / 2``, in deterministic order."""
    units = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            units.append(tuple(sign if n == axis else 0.0 for n in range(4)))
    units.extend(product((0.5, -0.5), repeat=4))
    return units


def choose_pole(
    curves: Iterable[list],
    rng: Union[random.Random, int, None] = None,
) -> tuple:
    """Projection pole: ``-1`` by default, re-chosen at random among the 24
    fixed candidates if any curve sample comes within 1e-3 of it."""
    curves = list(curves)

    def clearance(pole: tuple) -> float:
        return min(math.dist(p, pole) for curve in curves for p in curve)

    default = (-1.0, 0.0, 0.0, 0.0)
    if clearance(default) > 1e-3:
        return default
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    candidates = hurwitz_units()
    for pole in rng.sample(candidates, len(candidates)):
        if clearance(pole) > 1e-3:
            return pole
    raise ValueError("no pole candidate clears every curve sample")


# --------------------------------------------------------------------------
# Gauss linking
# --------------------------------------------------------------------------


def gauss_linking(a, b) -> float:
    """Discretized Gauss double integral over segment midpoints.

    ``a`` and ``b`` are closed curves in R^3, sequences of at least 64
    points each, whose segments join each point to the next and the last
    back to the first.  The curves must stay more than 1e-3 apart, and a
    non-finite coordinate fails that check too; the result is a real number
    near an integer (the linking number).  The separation check over the
    samples and the double sum over the segments both run in
    :mod:`stemcert._kernels`, in memory linear in the sample count.
    """
    curves = []
    for curve in (a, b):
        points = _points(curve, 3, "linking is computed for curves of points in R^3")
        if len(points) < 64:
            raise ValueError("at least 64 samples per curve are required")
        curves.append(points)
    if not _kernels.closest_squared_distance(*curves) > 1e-6:
        raise ValueError("curves intersect within tolerance (or a sample is not finite)")
    total = _kernels.gauss_linking_sum(*_segments(curves[0]), *_segments(curves[1]))
    return total / (4.0 * math.pi)


def _segments(points: list):
    """Midpoints and difference vectors of a closed curve's segments."""
    mids, steps = [], []
    for (ax, ay, az), (bx, by, bz) in zip(points, points[1:] + points[:1]):
        mids.append((0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz)))
        steps.append((bx - ax, by - ay, bz - az))
    return mids, steps


def fiber_linking(
    p1,
    p2,
    samples: int = 512,
    rng: Union[random.Random, int, None] = None,
) -> float:
    """Linking number of the Hopf fibers over two distinct base points,
    measured after stereographic projection to R^3 from :func:`choose_pole`.
    Both fibers are projected in one call, on their joined samples."""
    first, second = fiber_curve(p1, samples), fiber_curve(p2, samples)
    projected = stereographic(first + second, choose_pole([first, second], rng))
    return gauss_linking(projected[:samples], projected[samples:])


def unlinked_control(samples: int = 512):
    """Two unit circles with centres 4 apart (linking number 0), as lists of
    3-tuples.  The second is tilted by 1 radian out of the first's plane, so
    no term of their Gauss sum vanishes: moved to pass through the first
    circle's disc, the same pair links once."""
    step = 2.0 * math.pi / samples
    angles = [k * step for k in range(samples)]
    tilt_c, tilt_s = math.cos(_CONTROL_TILT), math.sin(_CONTROL_TILT)
    first = [(math.cos(t), math.sin(t), 0.0) for t in angles]
    second = [(4.0 + math.cos(t), tilt_c * math.sin(t), tilt_s * math.sin(t)) for t in angles]
    return first, second


def random_sphere_point(rng: random.Random) -> tuple:
    """Uniform random point of S^2."""
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        n = math.hypot(*v)
        if n > 1e-6:
            return tuple(c / n for c in v)


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
