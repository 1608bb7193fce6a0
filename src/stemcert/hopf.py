"""Verification of the Hopf fibration, in stdlib arithmetic.

This module checks the geometric facts behind the first stem:

* quaternion algebra and the double cover ``S^3 -> SO(3)`` (a group
  homomorphism with kernel ``{+1, -1}``),
* that any two distinct Hopf fibers link once, exactly: the fiber through a
  quaternion ``q`` is the oriented plane spanned by ``q`` and ``i q``, and
  two such fibers link with the sign of the integer ``det[q, iq, r, ir]``
  (H. Hopf, *Math. Ann.* 104, 1931; Gluck and Warner, *Duke Math. J.* 50,
  1983),
* the same fact as an independent exact count: Hopf fibers (circles in
  ``S^3``) sampled as polygons, stereographic projection, and the signed
  crossings of the two polygons in a coordinate projection, each decided
  on the dyadic rationals of the float vertices, with an isotopy bound
  that ties the polygons to their round circles (:func:`polygon_linking`),
  and
* in floats, the classical integral: the Gauss linking sum, which no
  command runs, as the oracle of that count.

A quaternion is the 4-tuple ``(w, x, y, z)``, as in :mod:`stemcert.so3`:
of ints for the integer certificates, of floats elsewhere.  A point of
``S^2`` is the tuple ``(x, y, z)``.  In the public functions a closed curve
is the list of its N distinct samples, each a tuple, the last joined back
to the first.  Inside the module the same curve is held in column form: a
tuple of one ``array('d')`` per coordinate, each of length N, so that a
vertex costs 8 bytes per coordinate rather than a tuple of float objects.
Every check and every count runs on the columns; :func:`fiber_curve`,
:func:`stereographic`, :func:`unlinked_control` and :func:`polygon_linking`
convert between the two forms and add nothing else, and
:func:`gauss_linking` reads its curves into columns too.

The rotations, the ball model of ``SO(3)``, its loops and their lifts live in
:mod:`stemcert.so3`; this module re-exports them.

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

if TYPE_CHECKING:
    import random

# The SO(3) names stay listed here, as the same objects: the benchmark's
# tracer times the functions of this list as ``hopf.*``.
__all__ = [
    "BallPoint",
    "Rotation3",
    "ball_to_rotation",
    "base_point",
    "choose_pole",
    "control_linking",
    "draw_fiber_pair",
    "fiber_curve",
    "fiber_determinant",
    "fiber_linking",
    "fiber_polygon_linking",
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
    "polygon_linking",
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
#: first circle's plane, and that circle's centre.
_CONTROL_TILT = 1.0
_CONTROL_CENTRE = (1.5, 0.0, 0.0)
#: Bound on a polygon vertex's distance from the round circle it samples,
#: per unit of the circle's scale ``max(1, |centre| + radius)``.  A projected
#: fiber sample lies within about 1e-15 (1 + |v|^2) of its exact circle, and
#: ``|v|`` stays below about 2e3 at the 1e-3 pole clearance.
_VERTEX_ERROR = 1e-9
#: Sign of a crossing whose over-strand direction turns counterclockwise,
#: by less than a half turn, onto its under-strand direction.
_CROSSING_SIGN = 1


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
    return list(zip(*_fiber(p, samples)))


def _fiber(p, samples: int) -> tuple:
    """:func:`fiber_curve` in column form: the ``w``, ``x``, ``y`` and ``z``
    columns of the samples."""
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
    fiber = (
        array("d", [c * w0 - s * x0 for c, s in zip(cos, sin)]),
        array("d", [c * x0 + s * w0 for c, s in zip(cos, sin)]),
        array("d", [c * y0 - s * z0 for c, s in zip(cos, sin)]),
        array("d", [c * z0 + s * y0 for c, s in zip(cos, sin)]),
    )
    worst = max(
        abs(h - t) for point in zip(*fiber) for h, t in zip(_hopf_point(*point), (px, py, pz))
    )
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
    points = _columns(points, 4, "expected points of S^3 with 4 coordinates")
    (images,) = _stereographic([points], pole)
    return list(zip(*images))


def _stereographic(curves: list, pole) -> list:
    """:func:`stereographic` in column form: the image of each curve of
    ``curves`` (4 columns each), as 3 columns.  The checks run over all the
    curves' points before any is projected."""
    e1, e2, e3 = _pole_basis(pole)
    pole = tuple(map(float, pole))
    if not all(abs(math.hypot(*p) - 1.0) < _UNIT_TOL for curve in curves for p in zip(*curve)):
        raise ValueError("expected unit vectors")
    if not min(math.dist(p, pole) for curve in curves for p in zip(*curve)) > 1e-3:
        raise ResamplePole("sample too close to the projection pole")
    images = []
    for curve in curves:
        xs, ys, zs = array("d"), array("d"), array("d")
        for p in zip(*curve):
            scale = 1.0 - _dot(p, pole)
            xs.append(_dot(p, e1) / scale)
            ys.append(_dot(p, e2) / scale)
            zs.append(_dot(p, e3) / scale)
        images.append((xs, ys, zs))
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


#: The projection poles, in the order in which both linking counts try
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
    order that :func:`fiber_polygon_linking` walks (``-1``, the 20 Hurwitz
    units off its Hopf fiber, then ``+1``, ``+i`` and ``-i``) from which
    every sample of ``curves`` (sequences of 4-tuples) lies more than 1e-3
    away.  ``ValueError`` if none does."""
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
    segment to segment by :func:`_closest_within`, the test of the isotopy
    bound of :func:`polygon_linking` on the same box sweep, and the double
    sum over the segments runs in :mod:`stemcert._kernels`, both in memory
    linear in the sample count.  No command runs it: it is the float oracle
    of :func:`polygon_linking`.
    """
    from . import _kernels

    curves = []
    for curve in (a, b):
        columns = _columns(curve, 3, "linking is computed for curves of points in R^3")
        if len(columns[0]) < 64:
            raise ValueError("at least 64 samples per curve are required")
        curves.append(columns)
    finite = all(map(math.isfinite, chain(*curves[0], *curves[1])))
    if not finite or _closest_within(*curves, 1e-3, _spreads(*curves)) is not None:
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
    measured after stereographic projection to R^3 from :func:`choose_pole`:
    the pole that :func:`fiber_polygon_linking` counts from whenever that
    pole passes the isotopy bound.  Both fibers are projected in one call,
    on their joined samples, so the result is a function of the inputs
    alone.  No command runs it: it is the float oracle of
    :func:`fiber_polygon_linking`."""
    first, second = fiber_curve(p1, samples), fiber_curve(p2, samples)
    projected = stereographic(first + second, choose_pole([first, second]))
    return gauss_linking(projected[:samples], projected[samples:])


def unlinked_control(samples: int = 512):
    """Two unit circles, as lists of ``samples`` 3-tuples each: the first in
    the plane z = 0 about the origin, the second about ``c = (1.5, 0, 0)``
    as ``c + cos t (0, 1, 0) + sin t (cos 1, 0, sin 1)``, so tilted by 1
    radian out of the first's plane, and no term of their Gauss sum vanishes
    (no segment of one is parallel to a segment of the other).

    The second circle meets the plane z = 0 at ``(1.5, +-1, 0)``, outside
    the first circle's disc, so the pair does not link; yet their xy
    projections cross, with crossings of both signs.  Moved to the centre
    ``(0.6, 0.5, 0)``, it meets that plane once inside the disc, at
    ``(0.6, -0.5, 0)``, and the pair links once.
    """
    return tuple(list(zip(*curve)) for curve in _unlinked_control(samples))


def _unlinked_control(samples: int) -> tuple:
    """:func:`unlinked_control` in column form."""
    cx, cy, cz = _CONTROL_CENTRE
    tilt_c, tilt_s = math.cos(_CONTROL_TILT), math.sin(_CONTROL_TILT)
    cos, sin = _turn(samples)
    first = (cos, sin, array("d", [0.0]) * samples)
    second = (
        array("d", [cx + tilt_c * s for s in sin]),
        array("d", [cy + c for c in cos]),
        array("d", [cz + tilt_s * s for s in sin]),
    )
    return first, second


def control_linking(samples: int = 512) -> int:
    """:func:`polygon_linking` of the two circles of :func:`unlinked_control`,
    which do not link: the negative control of the signed crossing count,
    run on their column form."""
    return _polygon_linking(*_unlinked_control(samples))


# --------------------------------------------------------------------------
# Signed crossings
# --------------------------------------------------------------------------


def polygon_linking(a, b) -> int:
    """Linking number of two closed polygons in R^3, exactly: the signed
    count of the crossings where ``a`` passes over ``b`` in a coordinate
    projection (D. Rolfsen, *Knots and Links*, ch. 5).

    ``a`` and ``b`` are sequences of 3-tuples whose vertices sample round
    circles in cyclic order, the last joined back to the first, as
    :func:`unlinked_control` and the stereographic image of a fiber do.
    Three checks make the count the linking number of those circles:

    * **Exactness.**  Each float vertex is read as the dyadic rational it
      is.  A sweep over the segments' projected bounding boxes, which only
      compares vertex floats, picks every segment pair whose projections
      can meet; each is decided by exact integer orientation and height
      tests.
    * **Degenerate projections.**  A vertex of one polygon on the other in
      projection, overlapping projected segments, or two segments that
      meet in R^3 move the count from the projection along z to the one
      along x, then y; each keeps the orientation of R^3.  If all three are
      degenerate, :class:`VerificationError` is raised.
    * **Isotopy.**  Moving each vertex onto its circle and then each chord
      onto its arc moves no point further than the polygon's largest
      sagitta plus the vertex error bound (:func:`_circle_slack`).  So while
      the polygons lie further apart than the sum of those bounds for both,
      neither passes through the other on the way, and the polygons link as
      their circles do.  That distance is checked over every segment pair
      that can come so close, and a failure raises :class:`ResamplePole`.

    Raises ``ValueError`` for polygons whose vertices are not finite points
    of R^3 on one round circle, in order.
    """
    message = "linking is computed for polygons of points in R^3"
    return _polygon_linking(_columns(a, 3, message), _columns(b, 3, message))


def _polygon_linking(a: tuple, b: tuple) -> int:
    """:func:`polygon_linking` of two polygons in column form."""
    for polygon in (a, b):
        if len(polygon[0]) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not all(map(math.isfinite, chain(*polygon))):
            raise ValueError("polygon vertices must be finite")
    # Rounded up, against the certificate.
    slack = (_circle_slack(a) + _circle_slack(b)) * (1.0 + 1e-6)
    spreads = _spreads(a, b)
    closest = _closest_within(a, b, slack, spreads)
    if closest is not None:
        raise ResamplePole(
            f"isotopy bound fails: the polygons come {closest:.3g} apart, within "
            f"{slack:.3g}, the sum of their sagittas and vertex error bounds"
        )
    for axis in (2, 0, 1):
        signs = _crossings(a, b, axis, spreads)
        if signs is not None:
            return sum(signs)
    raise VerificationError("every coordinate projection of the two polygons is degenerate")


def _circle_slack(polygon: tuple) -> float:
    """How far the straight-line homotopies that carry the closed polygon
    ``polygon`` (in column form) onto the round circle it samples move any
    point, at most: the largest sagitta ``(L + 2 e)^2 / 4R`` of a chord of
    length ``L``, plus the vertex error bound ``e``.

    The circle is the one through three well-spread vertices: the first,
    the vertex farthest from it and the vertex farthest from the line
    through those two.  Every vertex must lie within ``e`` of it, where
    ``e = _VERTEX_ERROR * max(1, |centre| + R)``, or ``ValueError`` is
    raised.  The vertices must go round the circle once, in one direction,
    by steps of at most a quarter turn; so each edge is the chord of the arc
    between its ends that holds no other vertex, and its sagitta is below
    ``L^2 / 4R``.  A polygon that does not raises :class:`ResamplePole`.
    The float rounding of this bound is far below ``e``.
    """
    first = _vertex(polygon, 0)
    fx, fy, fz = first
    far = max(zip(*polygon), key=lambda p: math.dist(p, first))
    u = ux, uy, uz = far[0] - fx, far[1] - fy, far[2] - fz

    def off_line(p) -> float:
        dx, dy, dz = p[0] - fx, p[1] - fy, p[2] - fz
        return (dy * uz - dz * uy) ** 2 + (dz * ux - dx * uz) ** 2 + (dx * uy - dy * ux) ** 2

    third = max(zip(*polygon), key=off_line)
    v = third[0] - fx, third[1] - fy, third[2] - fz
    w = _cross(u, v)
    w2 = _dot(w, w)
    if not w2 > 0.0:
        raise ValueError("polygon vertices must lie on a round circle")
    uu, vv = _dot(u, u), _dot(v, v)
    offset = [(uu * c + vv * d) / (2.0 * w2) for c, d in zip(_cross(v, w), _cross(w, u))]
    cx, cy, cz = fx + offset[0], fy + offset[1], fz + offset[2]
    radius = math.hypot(*offset)
    nx, ny, nz = (c / math.sqrt(w2) for c in w)
    ax, ay, az = (c / radius for c in offset)  # a unit vector in the circle's plane
    bx, by, bz = ny * az - nz * ay, nz * ax - nx * az, nx * ay - ny * ax
    error = _VERTEX_ERROR * max(1.0, math.hypot(cx, cy, cz) + radius)

    # Each vertex in the circle's plane, in the basis (a, b).
    along, across = array("d"), array("d")
    for x, y, z in zip(*polygon):
        dx, dy, dz = x - cx, y - cy, z - cz
        h = dx * nx + dy * ny + dz * nz
        dx, dy, dz = dx - h * nx, dy - h * ny, dz - h * nz
        if not (abs(h) <= error and abs(math.hypot(dx, dy, dz) - radius) <= error):
            raise ValueError("polygon vertices must lie on a round circle")
        along.append(dx * ax + dy * ay + dz * az)
        across.append(dx * bx + dy * by + dz * bz)
    # Signed turns, as (cross, dot) of consecutive vertices about the centre.
    consecutive = (along, across, along[1:] + along[:1], across[1:] + across[:1])
    crosses = array("d", [x0 * y1 - y0 * x1 for x0, y0, x1, y1 in zip(*consecutive)])
    dots = array("d", [x0 * x1 + y0 * y1 for x0, y0, x1, y1 in zip(*consecutive)])
    direction = 1.0 if crosses[0] > 0.0 else -1.0
    if not (
        all(direction * cross > 0.0 and dot >= 0.0 for cross, dot in zip(crosses, dots))
        and abs(math.fsum(map(math.atan2, crosses, dots))) < 3.0 * math.pi
    ):
        raise ResamplePole("the polygon does not go once round its circle by short steps")
    ends = zip(*(column[1:] + column[:1] for column in polygon))
    chord = max(map(math.dist, zip(*polygon), ends))
    return (chord + 2.0 * error) ** 2 / (4.0 * radius) + error


def _closest_within(a: tuple, b: tuple, gap: float, spreads: tuple):
    """The distance of some segment of the closed polygon ``a`` from some
    segment of ``b`` (both in column form) that is at most ``gap``, or None
    if every pair lies further apart.  Only pairs whose bounding boxes meet,
    once those of ``a`` are widened by ``2 gap`` (twice, so that rounding
    cannot narrow them below ``gap``), are measured, in a sweep along the
    coordinate of the largest of the polygons' ``spreads``."""
    xyz = _widest_first((0, 1, 2), spreads)
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


def _crossings(a: tuple, b: tuple, axis: int, spreads: tuple):
    """The signs of the crossings where the closed polygon ``a`` passes over
    ``b`` (both in column form), seen down coordinate ``axis`` (the height)
    onto the next two coordinates in cyclic order; None if that projection
    is degenerate.

    Segment pairs whose projected bounding boxes meet are the candidates,
    found by a sweep along the one of the two coordinates with the larger
    of the polygons' ``spreads``, and each is decided exactly on the dyadic
    rationals of its vertices: a crossing needs each segment's ends
    strictly on either side of the other's line, and its sign is that of
    the cross product of ``a``'s direction with ``b``'s, as the right-hand
    rule gives it.
    """
    u, v = (axis + 1) % 3, (axis + 2) % 3
    uv = _widest_first((u, v), spreads)
    # The projected coordinates, then the height.
    a_uvh, b_uvh = (a[u], a[v], a[axis]), (b[u], b[v], b[axis])
    signs = []
    for i, j in _overlapping(a, b, uv):
        ends = ((a_uvh, i - 1), (a_uvh, i), (b_uvh, j - 1), (b_uvh, j))
        ax0, ay0, az0, ax1, ay1, az1, bx0, by0, bz0, bx1, by1, bz1 = _integers(
            [column[n] for columns, n in ends for column in columns]
        )
        # Each end of one segment against the line of the other.
        dax, day, dbx, dby = ax1 - ax0, ay1 - ay0, bx1 - bx0, by1 - by0
        o1 = dax * (by0 - ay0) - day * (bx0 - ax0)
        o2 = dax * (by1 - ay0) - day * (bx1 - ax0)
        o3 = dbx * (ay0 - by0) - dby * (ax0 - bx0)
        o4 = dbx * (ay1 - by0) - dby * (ax1 - bx0)
        if o1 * o2 > 0 or o3 * o4 > 0:
            continue
        if not (o1 * o2 < 0 and o3 * o4 < 0):
            return None  # touching or collinear in projection
        # The heights there, a's at o3 / (o3 - o4) of its way and b's at
        # o1 / (o1 - o2), compared over their common denominator.
        over = (o3 * az1 - o4 * az0) * (o1 - o2) - (o1 * bz1 - o2 * bz0) * (o3 - o4)
        if over == 0:
            return None  # the segments meet in R^3
        if (over > 0) == ((o3 - o4 > 0) == (o1 - o2 > 0)):
            # o2 - o1 is the cross product of the two directions.
            signs.append(_CROSSING_SIGN if o2 > 0 else -_CROSSING_SIGN)
    return signs


def _spreads(a: tuple, b: tuple) -> tuple:
    """How widely the vertices of the curves ``a`` and ``b`` (in column
    form) spread on each coordinate: the width of their joint range."""
    return tuple(max(max(p), max(q)) - min(min(p), min(q)) for p, q in zip(a, b))


def _widest_first(coords: tuple, spreads: tuple) -> tuple:
    """``coords`` with the one of largest ``spreads`` moved to the front
    (the first of equals), so that the sweep of :func:`_overlapping` runs
    along it."""
    widest = max(coords, key=spreads.__getitem__)
    return (widest, *(k for k in coords if k != widest))


def _overlapping(a: tuple, b: tuple, coords: tuple, widen: float = 0.0):
    """The index pairs ``(i, j)`` for which the closed bounding box of
    segment ``i`` of the closed polygon ``a``, widened by ``widen`` on every
    side, meets that of segment ``j`` of ``b`` on the coordinates
    ``coords``.  Both polygons are in column form, and segment ``i`` joins
    vertex ``i - 1`` to vertex ``i``.

    A sweep along ``coords[0]``, which every caller makes the coordinate on
    which its curves spread widest (:func:`_widest_first`), so that curves
    in a plane x = const (or y, z = const) do not enter all at once: the
    boxes enter in the order of their lower ends there, by one stable sort
    of both polygons' lower ends, ``a``'s first (so ties go to ``a``, then
    by index), and each is tested against the boxes of the other polygon
    that are still open there.  Only the lower ends on the sweep coordinate
    are stored for every segment, to sort them; a box is read from the
    vertex columns when it enters and kept while it is open.  The pairs are
    yielded as they are found.  It only compares the floats it is given, so
    no pair is lost to rounding.  This is the package's one search for
    nearby curve elements.
    """
    polygons, widths = (a, b), (widen, 0.0)
    starts = array("d")
    for polygon, width in zip(polygons, widths):
        column = polygon[coords[0]]
        starts.extend(lo - width for lo in map(min, chain(column[-1:], column), column))
    count = len(a[0])
    open_boxes = [[], []]
    for event in array("l", sorted(range(len(starts)), key=starts.__getitem__)):
        side = int(event >= count)
        start, index = starts[event], event - side * count
        polygon, width = polygons[side], widths[side]
        # The box as (index, lo, hi, lo, hi, ...), on the coordinates in turn.
        box = [index]
        for k in coords:
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
                and (len(box) == 5 or (box[5] <= other[6] and other[5] <= box[6]))
            ):
                yield (index, other[0]) if side == 0 else (other[0], index)
        if not still:
            # Where the other polygon has nothing open, this side's closed
            # boxes would pile up until it has: drop them here.
            open_boxes[side] = [mine for mine in open_boxes[side] if mine[2] >= start]
        open_boxes[side].append(box)


def _integers(values: list) -> list:
    """Finite floats as integers over one common power-of-two denominator,
    so that every sign test on them is exact."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios]


def _sub(p, q) -> tuple:
    return tuple(a - b for a, b in zip(p, q))


def _cross(p, q) -> tuple:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def fiber_polygon_linking(p1, p2, samples: int = 512) -> int:
    """Exact linking number of the Hopf fibers over two distinct base
    points: :func:`polygon_linking` of their stereographic images, whose
    vertices are ``samples`` points of each fiber.

    Stereographic projection keeps the orientation of S^3 and carries each
    fiber to a round circle.  The poles are tried in the order that
    :func:`choose_pole` walks for the float oracle: ``-1``, then the 20
    Hurwitz units off the Hopf fiber of ``-1`` in :func:`hurwitz_units`'
    order, then ``+1``, ``+i`` and ``-i``, which lie on that fiber and so
    tend to fail where it failed.  A pole is passed over where a sample
    comes within 1e-3 of it or the polygons fail the isotopy bound from it,
    and :class:`VerificationError` is raised once none passes.  The answer
    is a function of the two base points and ``samples`` alone.
    """
    fibers = [_fiber(p1, samples), _fiber(p2, samples)]
    for pole in _POLES:
        try:
            return _polygon_linking(*_stereographic(fibers, pole))
        except ResamplePole as exc:
            # Only the message: the exception's traceback would keep this
            # pole's polygons alive while the next one is tried.
            failure = str(exc)
    raise VerificationError(f"the isotopy bound fails from every pole (the last: {failure})")


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
