"""Verification of the Hopf fibration, in stdlib arithmetic.

This module checks the geometric facts behind the first stem:

* quaternion algebra and the double cover ``S^3 -> SO(3)`` (a group
  homomorphism with kernel ``{+1, -1}``),
* that any two distinct Hopf fibers link once, exactly: the fiber through a
  quaternion ``q`` is the oriented plane spanned by ``q`` and ``i q``, and
  two such fibers link with the sign of the integer ``det[q, iq, r, ir]``
  (H. Hopf, *Math. Ann.* 104, 1931; Gluck and Warner, *Duke Math. J.* 50,
  1983),
* the same fact as an independent exact count: stereographic projection
  from -1 carries the fiber through an integer quaternion to a round circle
  with rational centre, plane and squared radius, and two such circles link
  as often as one crosses the disc of the other, each crossing decided by
  one exact sign in a quadratic field (:func:`circle_linking`,
  :func:`fiber_circle_linking`), and
* in floats, the classical integral: the Gauss linking sum of sampled
  fibers, which no command runs, as the oracle of that count.

A quaternion is the 4-tuple ``(w, x, y, z)``, as in :mod:`stemcert.so3`:
of ints for the integer certificates, of floats elsewhere.  A point of
``S^2`` is the tuple ``(x, y, z)``, and a round circle the tuple of
integers that :func:`circle_linking` describes.  In the public functions a
sampled closed curve is the list of its N distinct samples, each a tuple,
the last joined back to the first.  :func:`gauss_linking` holds its curves
in column form: a tuple of one ``array('d')`` per coordinate, each of
length N, so that a vertex costs 8 bytes per coordinate rather than a tuple
of float objects.

The rotations, the ball model of ``SO(3)``, its loops and their lifts live in
:mod:`stemcert.so3`; this module re-exports only the six of its functions that
the benchmark times as ``hopf.*``.  A rotation is three row tuples of floats
and a point of the ball the tuple ``(x, y, z)``.

Rotation matrices use the active convention throughout: ``rot_from_quat(q)``
is the matrix of ``x -> q x conj(q)``, which makes the map a homomorphism
under matrix composition.  (Conjugating on the other side gives the same
set of rotations but reverses composition order.)
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, product
from operator import mul
from typing import TYPE_CHECKING, Iterable, Union

from .errors import ResamplePole, VerificationError
from .so3 import (
    _rotation,
    ball_to_rotation,
    homotopy_slice_matrices,
    lift_loop,
    loop_matrices,
    matrix_path,
    quat_from_rot,
)

if TYPE_CHECKING:
    import random

# The six so3 functions of this list stay here, as the same objects, only
# because the benchmark's metrics name them ``hopf.*``: its tracer times the
# functions of this list.
__all__ = [
    "UNLINKED_CONTROL",
    "ball_to_rotation",
    "base_point",
    "choose_pole",
    "circle_linking",
    "draw_fiber_pair",
    "fiber_circle_linking",
    "fiber_curve",
    "fiber_determinant",
    "fiber_linking",
    "gauss_linking",
    "homotopy_slice_matrices",
    "hopf_map",
    "hurwitz_units",
    "lift_loop",
    "linking_number",
    "loop_matrices",
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
_I, _J, _K = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
#: Entries of a drawn integer quaternion lie in [-_DRAW_BOUND, _DRAW_BOUND].
_DRAW_BOUND = 6
#: The integer quaternions that :func:`fiber_circle_linking` multiplies a
#: pair of fibers by, in turn, until their projection is in general position.
_MOVES = ((1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
#: The unlinked control, each circle as ``(centre, u, v, scale)``: the points
#: ``(centre + cos t u + sin t v) / scale``.  The first is the unit circle in
#: the plane z = 0; the second has radius 1 and centre (3/2, 0, 0), and is
#: spanned by (0, 1, 0) and (3/5, 0, 4/5), tilted by about 0.93 radian out of
#: the first's plane.
_CONTROL = (((0, 0, 0), (1, 0, 0), (0, 1, 0), 1), ((15, 0, 0), (0, 10, 0), (6, 0, 8), 10))


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
    return sum(map(mul, u, v))


def _sub(p, q) -> tuple:
    return tuple(a - b for a, b in zip(p, q))


def _cross(p, q) -> tuple:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _columns(points, dim: int, message: str) -> tuple:
    """``points``, a sequence of ``dim``-sequences of numbers, in column
    form: ``dim`` arrays of floats, one per coordinate.
    ``ValueError(message)`` for anything else."""
    columns = tuple(array("d") for _ in range(dim))
    try:
        for point in points:
            row = tuple(map(float, point))
            if len(row) != dim:
                raise ValueError(message)
            for column, c in zip(columns, row):
                column.append(c)
    except TypeError:
        raise ValueError(message) from None
    return columns


def _vertex(curve: tuple, index: int) -> tuple:
    """Vertex ``index`` of a curve in column form, as a tuple."""
    return tuple(column[index] for column in curve)


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

    cos, sin = _turn(samples)
    fiber = [
        (c * w0 - s * x0, c * x0 + s * w0, c * y0 - s * z0, c * z0 + s * y0)
        for c, s in zip(cos, sin)
    ]
    worst = max(abs(h - t) for point in fiber for h, t in zip(_hopf_point(*point), (px, py, pz)))
    if not worst < _UNIT_TOL:
        raise VerificationError("fiber samples failed to map back to the base point")
    return fiber


def _turn(samples: int) -> tuple:
    """The cosines and sines of ``samples`` evenly spaced angles in
    ``[0, 2 pi)``, as two arrays."""
    step = 2.0 * math.pi / samples
    angles = [k * step for k in range(samples)]
    return array("d", map(math.cos, angles)), array("d", map(math.sin, angles))


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
# Exact linking of round circles
# --------------------------------------------------------------------------


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _surd_sign(x: int, y: int, d: int) -> int:
    """The sign (1, 0 or -1) of ``x + y sqrt(d)``, for integers ``x``, ``y``
    and ``d > 0``: where the two terms differ in sign, that of the larger,
    found by comparing ``x^2`` with ``y^2 d``."""
    if x * y >= 0:
        return _sign(x) or _sign(y)
    return _sign(x) * _sign(x * x - y * y * d)


def circle_linking(a, b) -> int:
    """Linking number of two disjoint oriented round circles in R^3,
    exactly: the signed number of points where ``b`` crosses the open disc
    that ``a`` bounds (D. Rolfsen, *Knots and Links*, ch. 5).

    A circle is ``(normal, centre, radius2, scale, sign)``, all integers:
    the circle about ``centre / scale`` of squared radius
    ``radius2 / scale^2``, in the plane ``normal . u = normal . centre /
    scale``, run counterclockwise about ``sign * normal`` (``scale`` is
    positive and ``sign`` is 1 or -1).  Over the common scale the two planes
    meet in a line with integer data, and ``b`` meets that line at the two
    roots ``(-beta +- sqrt D) / dd`` of one integer quadratic.  With equal
    ``sign``s, ``b`` crosses the plane of ``a`` along its oriented normal at
    the ``+`` root and against it at the ``-`` root.  Each point lies inside
    the disc where some ``x +- y sqrt D`` is negative: a sign decided by
    comparing ``x^2`` with ``y^2 D``.

    Raises ``ValueError`` for a pair in no general position: coplanar
    circles, ``b`` tangent to the plane of ``a``, or a point of ``b`` on
    ``a``.
    """
    (na, ca, ra, sa, oa), (nb, cb, rb, sb, ob) = a, b
    ca, cb = [sb * c for c in ca], [sa * c for c in cb]
    ra, rb = ra * sb * sb, rb * sa * sa
    d = _cross(na, nb)
    if not any(d):
        # Parallel planes: b misses the plane of a, or lies in it.
        if _dot(na, _sub(cb, ca)) == 0:
            raise ValueError("the circles are coplanar")
        return 0
    # The line of the two planes: the points (u0 + t d) / dd.
    dd = _dot(d, d)
    ka, kb = _dot(na, ca), _dot(nb, cb)
    u0 = [ka * m + kb * n for m, n in zip(_cross(nb, d), _cross(d, na))]
    # Along it, dd^2 (|u - centre|^2 - radius^2) = dd t^2 + 2 beta t + gamma
    # for each circle.
    pa, pb = ([u - dd * c for u, c in zip(u0, centre)] for centre in (ca, cb))
    beta_a, beta_b = _dot(d, pa), _dot(d, pb)
    gamma_a, gamma_b = _dot(pa, pa) - dd * dd * ra, _dot(pb, pb) - dd * dd * rb
    disc = beta_b * beta_b - dd * gamma_b
    if disc < 0:
        return 0  # b misses the plane of a
    if disc == 0:
        raise ValueError("the second circle touches the plane of the first")
    # At b's point t = (-beta_b + e sqrt(disc)) / dd, a's quadratic less b's,
    # times dd, is x + e y sqrt(disc); b's tangent there has the sign
    # oa ob e against a's oriented normal.
    x = dd * (gamma_a - gamma_b) - 2 * beta_b * (beta_a - beta_b)
    y = 2 * (beta_a - beta_b)
    count = 0
    for e in (1, -1):
        inside = _surd_sign(x, e * y, disc)
        if inside == 0:
            raise ValueError("the circles meet")
        count += e * (inside < 0)
    return oa * ob * count


def _fiber_circle(q, mirror: bool) -> tuple:
    """The stereographic image from -1 of the fiber through the non-zero
    integer quaternion ``q`` (of the mirror fibration if ``mirror``), as a
    circle of :func:`circle_linking`.

    The fiber is the unit circle of the plane span(q, iq), cut out by the
    hyperplanes ``<jq, p> = 0`` and ``<kq, p> = 0``.  From -1 a hyperplane
    of normal ``n`` maps to ``n_w (1 - |u|^2) + 2 n_v . u = 0``, so the
    image lies in the plane ``m . u = 0``, with
    ``m = (kq)_w (jq)_v - (jq)_w (kq)_v``, and on the sphere of the
    combination ``(jq)_w jq + (kq)_w kq``.  With ``c = (jq)_w^2 + (kq)_w^2``,
    that sphere has its centre ``((jq)_w (jq)_v + (kq)_w (kq)_v) / c`` in the
    plane and the squared radius ``|q|^2 / c``.  The circle's orientation is
    that of the tangent ``iq`` (``q i`` in the mirror fibration) at
    ``q / |q|``, a sign in ``Q(sqrt |q|^2)``.  ``m = 0`` exactly when the
    fiber passes through the pole, which raises ``ValueError``.  (In the
    mirror fibration ``jq`` and ``kq`` read ``q j`` and ``q k``.)
    """
    if mirror:
        jq, kq, tangent = qmul(q, _J), qmul(q, _K), qmul(q, _I)
    else:
        jq, kq, tangent = qmul(_J, q), qmul(_K, q), qmul(_I, q)
    (a, *alpha), (b, *beta) = jq, kq
    normal = [b * m - a * n for m, n in zip(alpha, beta)]
    if not any(normal):
        raise ValueError("a fiber passes through the pole")
    c = a * a + b * b
    centre = [a * m + b * n for m, n in zip(alpha, beta)]
    norm2 = _dot(q, q)
    # With s = sqrt(norm2), u = q_v / (s + q_w) and its tangent, scaled by
    # positive factors: u - centre / c ~ p0 - s centre, u' ~ t0 + s t_v.
    (qw, *qv), (tw, *tv) = q, tangent
    p0 = [c * m - qw * g for m, g in zip(qv, centre)]
    t0 = [qw * m - tw * n for m, n in zip(tv, qv)]

    def turn(u, v):
        return _dot(normal, _cross(u, v))

    x = turn(p0, t0) - norm2 * turn(centre, tv)
    y = turn(p0, tv) - turn(centre, t0)
    return normal, centre, norm2 * c, c, _surd_sign(x, y, norm2)


def fiber_circle_linking(q, r, mirror: bool = False) -> int:
    """Exact linking number of the Hopf fibers through the non-zero integer
    quaternions ``q`` and ``r``, or with ``mirror`` of the circles
    ``q (cos theta + i sin theta)`` and ``r (...)`` of the mirror fibration:
    :func:`circle_linking` of their stereographic images from -1, which
    keeps the orientation of S^3.

    A degenerate projection (a fiber through -1, or a pair that
    :func:`circle_linking` rejects) multiplies ``q`` and ``r`` on the right
    (on the left, in the mirror fibration) by the next of 1, 1 + j and
    1 + k.  That map is conformal, keeps the orientation of R^4 and carries
    fibers to fibers, so it moves the pole without changing the linking
    number.  :class:`VerificationError` once none is left.
    """
    for move in _MOVES:
        moved = (qmul(move, p) if mirror else qmul(p, move) for p in (q, r))
        try:
            return circle_linking(*(_fiber_circle(p, mirror) for p in moved))
        except ValueError as exc:
            failure = exc
    raise VerificationError(
        f"every projection of the fibers through {q} and {r} is degenerate "
        f"({len(_MOVES)} moves; the last: {failure})"
    )


#: The circles of :func:`unlinked_control`, as :func:`circle_linking` takes
#: them: the negative control of the exact count.
UNLINKED_CONTROL = tuple(
    (_cross(u, v), centre, _dot(u, u), scale, 1) for centre, u, v, scale in _CONTROL
)


# --------------------------------------------------------------------------
# Stereographic projection
# --------------------------------------------------------------------------


def _pole_basis(pole) -> list:
    """Orthonormal basis of the hyperplane orthogonal to a unit pole of S^3
    (Gram-Schmidt over the standard basis), oriented so that
    ``det[pole; basis] = -1``, as ``(i, j, k)`` is seen from the pole -1.
    Projection from any pole then keeps the orientation of S^3, and with it
    the sign of a linking number."""
    (pole,) = zip(*_columns([pole], 4, "the pole must be a unit vector of length 4"))
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
    points = list(zip(*_columns(points, 4, "expected points of S^3 with 4 coordinates")))
    e1, e2, e3 = _pole_basis(pole)
    pole = tuple(map(float, pole))
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


#: The projection poles, in the order in which :func:`choose_pole` tries
#: them: -1, then the 20 Hurwitz units off the Hopf fiber of -1 in
#: :func:`hurwitz_units`' order, then +1, +i and -i, which lie on that fiber
#: and so tend to fail where -1 failed.
_POLES = (
    (-1.0, 0.0, 0.0, 0.0),
    *(u for u in hurwitz_units() if u[2:] != (0.0, 0.0)),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 0.0),
)


def choose_pole(curves: Iterable[list]) -> tuple:
    """The projection pole of :func:`fiber_linking`: the first pole of the
    order ``-1``, the 20 Hurwitz units off its Hopf fiber, then ``+1``,
    ``+i`` and ``-i``, from which every sample of ``curves`` (sequences of
    4-tuples) lies more than 1e-3 away.  ``ValueError`` if none does."""
    curves = list(curves)
    for pole in _POLES:
        if min(math.dist(p, pole) for curve in curves for p in curve) > 1e-3:
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
    near an integer (the linking number).  The separation is measured
    segment to segment by :func:`_closest_within`, on a box sweep, and the
    double sum over the segments runs in :mod:`stemcert._kernels`, both in
    memory linear in the sample count.  No command runs it: it is the float
    oracle of :func:`circle_linking`.
    """
    from . import _kernels

    curves = []
    for curve in (a, b):
        columns = _columns(curve, 3, "linking is computed for curves of points in R^3")
        if len(columns[0]) < 64:
            raise ValueError("at least 64 samples per curve are required")
        curves.append(columns)
    finite = all(map(math.isfinite, chain(*curves[0], *curves[1])))
    if not finite or _closest_within(*curves, 1e-3) is not None:
        raise ValueError("curves intersect within tolerance (or a sample is not finite)")
    total = _kernels.gauss_linking_sum(*_segments(curves[0]), *_segments(curves[1]))
    return total / (4.0 * math.pi)


def _segments(curve: tuple):
    """Midpoints and difference vectors of the segments of a closed curve in
    column form, as lists of 3-tuples."""
    mids, steps = [], []
    ends = (column[1:] + column[:1] for column in curve)
    for ax, ay, az, bx, by, bz in zip(*curve, *ends):
        mids.append((0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz)))
        steps.append((bx - ax, by - ay, bz - az))
    return mids, steps


def fiber_linking(p1, p2, samples: int = 512) -> float:
    """Linking number of the Hopf fibers over two distinct base points,
    measured after stereographic projection to R^3 from :func:`choose_pole`.
    Both fibers are projected in one call, on their joined samples, so the
    result is a function of the inputs alone.  No command runs it: it is
    the float oracle of :func:`fiber_circle_linking`."""
    first, second = fiber_curve(p1, samples), fiber_curve(p2, samples)
    projected = stereographic(first + second, choose_pole([first, second]))
    return gauss_linking(projected[:samples], projected[samples:])


def unlinked_control(samples: int = 512):
    """The two circles of :data:`UNLINKED_CONTROL`, as lists of ``samples``
    3-tuples each, at evenly spaced ``t``: the unit circle in the plane
    z = 0, and ``c + cos t (0, 1, 0) + sin t (3/5, 0, 4/5)`` about
    ``c = (3/2, 0, 0)``.  No term of their Gauss sum vanishes (no segment of
    one is parallel to a segment of the other).

    The second circle meets the plane z = 0 at ``(3/2, +-1, 0)``, outside
    the first circle's disc, so the pair does not link; yet their xy
    projections cross, with crossings of both signs.  Moved to the centre
    ``(3/5, 1/2, 0)``, it meets that plane once inside the disc, at
    ``(3/5, -1/2, 0)``, and the pair links once.
    """
    cos, sin = _turn(samples)
    return tuple(
        [
            tuple((o + c * m + s * n) / scale for o, m, n in zip(centre, u, v))
            for c, s in zip(cos, sin)
        ]
        for centre, u, v, scale in _CONTROL
    )


def _closest_within(a: tuple, b: tuple, gap: float):
    """The distance of some segment of the closed polygon ``a`` from some
    segment of ``b`` (both in column form) that is at most ``gap``, or None
    if every pair lies further apart.  Only pairs whose bounding boxes meet,
    once those of ``a`` are widened by ``2 gap`` (twice, so that rounding
    cannot narrow them below ``gap``), are measured, in a sweep along the
    coordinate on which the two polygons' vertices spread widest (the first
    of equals)."""
    spreads = [max(max(p), max(q)) - min(min(p), min(q)) for p, q in zip(a, b)]
    widest = spreads.index(max(spreads))
    xyz = (widest, *(k for k in range(3) if k != widest))
    for i, j in _overlapping(a, b, xyz, 2.0 * gap):
        distance = _segment_distance(
            _vertex(a, i - 1), _vertex(a, i), _vertex(b, j - 1), _vertex(b, j)
        )
        if not distance > gap:
            return distance
    return None


def _segment_distance(p0, p1, q0, q1) -> float:
    """Distance between the segments ``p0 p1`` and ``q0 q1`` of R^3 (the
    closest-point parameters, clamped to both segments)."""
    d1, d2, r = _sub(p1, p0), _sub(q1, q0), _sub(p0, q0)
    a, e, f = _dot(d1, d1), _dot(d2, d2), _dot(d2, r)
    if a == 0.0 and e == 0.0:
        return math.dist(p0, q0)
    if a == 0.0:
        s, t = 0.0, min(max(f / e, 0.0), 1.0)
    else:
        c = _dot(d1, r)
        if e == 0.0:
            s, t = min(max(-c / a, 0.0), 1.0), 0.0
        else:
            b = _dot(d1, d2)
            denom = a * e - b * b
            s = min(max((b * f - c * e) / denom, 0.0), 1.0) if denom > 0.0 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                s, t = min(max(-c / a, 0.0), 1.0), 0.0
            elif t > 1.0:
                s, t = min(max((b - c) / a, 0.0), 1.0), 1.0
    return math.dist(
        tuple(x + s * dx for x, dx in zip(p0, d1)), tuple(y + t * dy for y, dy in zip(q0, d2))
    )


def _overlapping(a: tuple, b: tuple, xyz: tuple, widen: float = 0.0):
    """The index pairs ``(i, j)`` for which the closed bounding box of
    segment ``i`` of the closed polygon ``a``, widened by ``widen`` on every
    side, meets that of segment ``j`` of ``b``.  Both polygons are in column
    form in R^3, and segment ``i`` joins vertex ``i - 1`` to vertex ``i``.

    A sweep along coordinate ``xyz[0]`` (``xyz`` orders the three), which
    :func:`_closest_within` makes the one on which its curves spread widest,
    so that curves in a plane x = const (or y, z = const) do not enter all
    at once: the boxes enter in the order of their lower ends there, by one
    stable sort of both polygons' lower ends, ``a``'s first (so ties go to
    ``a``, then by index), and each is tested against the boxes of the other
    polygon that are still open there.  Only the lower ends on the sweep
    coordinate are stored for every segment, to sort them; a box is read
    from the vertex columns when it enters and kept while it is open.  The
    pairs are yielded as they are found.  It only compares the floats it is
    given, so no pair is lost to rounding.
    """
    polygons, widths = (a, b), (widen, 0.0)
    starts = array("d")
    for polygon, width in zip(polygons, widths):
        column = polygon[xyz[0]]
        starts.extend(lo - width for lo in map(min, chain(column[-1:], column), column))
    count = len(a[0])
    open_boxes = [[], []]
    for event in array("l", sorted(range(len(starts)), key=starts.__getitem__)):
        side = int(event >= count)
        start, index = starts[event], event - side * count
        polygon, width = polygons[side], widths[side]
        # The box as (index, lo, hi, lo, hi, lo, hi), on the coordinates in turn.
        box = [index]
        for k in xyz:
            lo, hi = polygon[k][index - 1], polygon[k][index]
            if lo > hi:
                lo, hi = hi, lo
            box += (lo - width, hi + width)
        others = open_boxes[1 - side]
        still = open_boxes[1 - side] = [other for other in others if other[2] >= start]
        for other in still:
            if (
                box[3] <= other[4]
                and other[3] <= box[4]
                and box[5] <= other[6]
                and other[5] <= box[6]
            ):
                yield (index, other[0]) if side == 0 else (other[0], index)
        if not still:
            # Where the other polygon has nothing open, this side's closed
            # boxes would pile up until it has: drop them here.
            open_boxes[side] = [mine for mine in open_boxes[side] if mine[2] >= start]
        open_boxes[side].append(box)


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


def rot_from_quat(q) -> tuple:
    """Rotation matrix of ``x -> q x conj(q)`` on the (i, j, k) coordinates,
    for a unit quaternion ``q = (w, x, y, z)``.

    A group homomorphism from unit quaternions onto SO(3) with kernel
    ``{q, -q}``; the matrix is three row tuples, checked to be a rotation.
    """
    w, x, y, z = _unit(q)
    return _rotation(
        (
            (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
        )
    )
