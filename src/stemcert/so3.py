"""Floating-point verification of SO(3) geometry, in stdlib arithmetic.

This module checks, numerically, the SO(3) facts behind the first stem:

* rotation matrices (orthogonal within 1e-9, determinant +1) and a
  unit-quaternion preimage of each under the double cover ``S^3 -> SO(3)``,
* the closed-ball model of ``SO(3)`` (radius pi, antipodal boundary points
  identified), the explicit loops gamma/alpha/beta with their homotopy, and
* loop lifting: the monodromy sign of a continuous quaternion lift, which
  detects the generator of ``pi_1(SO(3)) = Z/2``.

A matrix is three row tuples of floats and a quaternion the 4-tuple
``(w, x, y, z)``.  Every value is a scalar: a 3x3 matrix costs numpy more in
per-call overhead than in arithmetic, so this module does not import it.
Rotations follow the active convention of :func:`stemcert.hopf.rot_from_quat`,
the matrix of ``x -> q x conj(q)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

__all__ = [
    "BallPoint",
    "QuaternionPath",
    "Rotation3",
    "ball_to_rotation",
    "homotopy_H",
    "homotopy_slice_matrices",
    "lift_loop",
    "loop_matrices",
    "loop_point",
    "matrix_path",
    "quat_from_rot",
]

_UNIT_TOL = 1e-9
#: Fewest intervals a sampled loop may have.
_MIN_STEPS = 256
#: Largest rotation angle between consecutive samples of a lifted loop.
_MAX_JUMP = 0.2

_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


# --------------------------------------------------------------------------
# Rotations and the double cover
# --------------------------------------------------------------------------


class Rotation3:
    """A 3x3 rotation matrix (orthogonal within 1e-9, determinant +1),
    held as three row tuples of floats."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        try:
            (a, b, c), (d, e, f), (g, h, i) = matrix
        except (TypeError, ValueError):
            raise ValueError("a rotation is a 3x3 matrix") from None
        a, b, c, d, e, f, g, h, i = map(float, (a, b, c, d, e, f, g, h, i))
        # Every Gram entry within tolerance; a NaN entry fails a comparison.
        if not (
            abs(a * a + d * d + g * g - 1.0) < _UNIT_TOL
            and abs(b * b + e * e + h * h - 1.0) < _UNIT_TOL
            and abs(c * c + f * f + i * i - 1.0) < _UNIT_TOL
            and abs(a * b + d * e + g * h) < _UNIT_TOL
            and abs(a * c + d * f + g * i) < _UNIT_TOL
            and abs(b * c + e * f + h * i) < _UNIT_TOL
        ):
            raise ValueError("matrix is not orthogonal within tolerance")
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) <= 0:
            raise ValueError("matrix must have positive determinant")
        self.matrix = ((a, b, c), (d, e, f), (g, h, i))

    def apply(self, v) -> tuple:
        x, y, z = v
        return tuple(r0 * x + r1 * y + r2 * z for r0, r1, r2 in self.matrix)

    def __repr__(self) -> str:
        return f"Rotation3({[list(row) for row in self.matrix]})"


def quat_from_rot(rotation) -> tuple:
    """A unit quaternion ``(w, x, y, z)`` mapping to the given rotation
    (max-trace branch).

    ``rotation`` is a :class:`Rotation3` or a 3x3 nested sequence, which is
    checked to be a rotation first.  The other preimage is the negative;
    continuity along a path is restored separately by sign choice (see
    :func:`lift_loop`).
    """
    if not isinstance(rotation, Rotation3):
        rotation = Rotation3(rotation)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rotation.matrix
    t = m00 + m11 + m22
    if t > 0:
        r = math.sqrt(1.0 + t)
        d = 2.0 * r
        return (0.5 * r, (m21 - m12) / d, (m02 - m20) / d, (m10 - m01) / d)
    # The largest diagonal entry, the first of equals, picks the branch.
    if m00 >= m11 and m00 >= m22:
        r = math.sqrt(1.0 + m00 - m11 - m22)
        d = 2.0 * r
        return ((m21 - m12) / d, 0.5 * r, (m01 + m10) / d, (m02 + m20) / d)
    if m11 >= m22:
        r = math.sqrt(1.0 - m00 + m11 - m22)
        d = 2.0 * r
        return ((m02 - m20) / d, (m01 + m10) / d, 0.5 * r, (m12 + m21) / d)
    r = math.sqrt(1.0 - m00 - m11 + m22)
    d = 2.0 * r
    return ((m10 - m01) / d, (m02 + m20) / d, (m12 + m21) / d, 0.5 * r)


# --------------------------------------------------------------------------
# The ball model and the explicit loops
# --------------------------------------------------------------------------


class BallPoint:
    """A point of the closed ball of radius pi modeling SO(3).

    Boundary points (norm within 1e-9 of pi) are stored in the canonical
    antipodal representative: first coordinate of magnitude above 1e-12 is
    made positive.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        n = math.sqrt(x * x + y * y + z * z)
        if not n <= math.pi + _UNIT_TOL:
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

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.z)

    def __repr__(self) -> str:
        return f"BallPoint({self.x}, {self.y}, {self.z})"


def ball_to_rotation(b) -> Rotation3:
    """Axis-angle rotation: direction of ``b``, angle ``|b|`` (Rodrigues,
    ``I + sin|b| K + (1 - cos|b|) K^2`` for the cross-product matrix ``K``
    of the unit axis).

    The origin maps to the identity, and antipodal boundary points map to
    equal rotations.
    """
    x, y, z = b.as_tuple() if isinstance(b, BallPoint) else map(float, b)
    theta = math.sqrt(x * x + y * y + z * z)
    if not theta <= math.pi + _UNIT_TOL:
        raise ValueError("point lies outside the closed ball of radius pi")
    if theta < 1e-15:
        return Rotation3(_IDENTITY)
    ux, uy, uz = x / theta, y / theta, z / theta
    s, c = math.sin(theta), 1.0 - math.cos(theta)
    return Rotation3(
        (
            (1.0 - c * (uy * uy + uz * uz), c * ux * uy - s * uz, c * ux * uz + s * uy),
            (c * ux * uy + s * uz, 1.0 - c * (ux * ux + uz * uz), c * uy * uz - s * ux),
            (c * ux * uz - s * uy, c * uy * uz + s * ux, 1.0 - c * (ux * ux + uy * uy)),
        )
    )


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
        return Rotation3(((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0)))
    c, s = math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)
    if name == "alpha":
        return Rotation3(((-1.0, 0.0, 0.0), (0.0, -c, -s), (0.0, -s, c)))
    return Rotation3(((-1.0, 0.0, 0.0), (0.0, -c, s), (0.0, s, c)))


# --------------------------------------------------------------------------
# Loop building and lifting
# --------------------------------------------------------------------------


def _grid(steps: int, turns: int) -> list:
    """``steps + 1`` evenly spaced parameters from 0 to ``turns``, after
    checking both counts."""
    if steps < _MIN_STEPS:
        raise ValueError(f"at least {_MIN_STEPS} steps are required")
    if turns < 1:
        raise ValueError("turns must be at least 1")
    if turns > steps:
        raise ValueError("turns must be at most the number of steps")
    return [turns * k / steps for k in range(steps + 1)]


def loop_matrices(name: str, steps: int, turns: int = 1) -> list:
    """Sampled closed matrix loops for the lift command.

    The loop runs ``turns`` times through ``steps`` intervals in all, so its
    monodromy is the one-turn sign to the power ``turns``.
    ``gamma``/``alpha``/``beta`` sample the displayed matrix paths over one
    full period per turn (``t in [0, 2]`` for gamma, ``[0, 1]`` otherwise);
    ``alpha-then-beta`` runs alpha over the first half of each turn and beta
    over the second; ``ball-gamma`` runs gamma through the ball model
    instead; ``identity`` is the constant loop.  Returns the ``steps + 1``
    matrices, the last equal to the first.
    """
    ts = _grid(steps, turns)
    if name == "identity":
        return [Rotation3(_IDENTITY).matrix] * len(ts)
    if name == "ball-gamma":
        return [ball_to_rotation(loop_point("gamma", t % 1.0)).matrix for t in ts]
    if name == "alpha-then-beta":
        return [
            matrix_path("alpha" if t % 1.0 < 0.5 else "beta", 2.0 * t).matrix
            for t in ts
        ]
    period = 2.0 if name == "gamma" else 1.0
    return [matrix_path(name, period * t).matrix for t in ts]


def homotopy_slice_matrices(variant: str, s: float, steps: int, turns: int = 1) -> list:
    """The closed loop ``t -> ball_to_rotation(H(s, t))``, ``t in [0, 1]``,
    run ``turns`` times through ``steps`` intervals in all."""
    return [
        ball_to_rotation(homotopy_H(variant, s, t % 1.0)).matrix
        for t in _grid(steps, turns)
    ]


@dataclass(eq=False)
class QuaternionPath:
    """A continuous unit-quaternion lift of a rotation loop with its
    monodromy sign (-1 when the lift ends at the negative of its start)."""

    points: list
    monodromy: int


def lift_loop(
    path: Union[Sequence, Callable[[float], Rotation3]],
    steps: int = 1024,
) -> tuple:
    """Lift a closed rotation loop to S^3 and read off the monodromy sign.

    ``path`` is either a sequence of sampled rotations (``Rotation3`` or 3x3
    nested sequences such as an (N, 3, 3) array; closed: the last equals the
    first) or a callable on [0, 1] sampled at ``steps + 1`` points.  At least
    256 steps are required, every sample must be a rotation, consecutive
    rotations must be within angle 0.2 of each other, and the quaternion
    preimage is chosen at each step to be the one closest to the previous
    choice.  Returns ``(QuaternionPath, sign)``; sign -1 means the loop
    generates ``pi_1(SO(3))``, +1 that it is nullhomotopic (double-cover
    criterion).
    """
    if callable(path):
        samples = [path(t) for t in _grid(steps, 1)]
    else:
        samples = list(path)
        if len(samples) < _MIN_STEPS + 1:
            raise ValueError(f"at least {_MIN_STEPS} steps are required")
    first, last = (
        m if isinstance(m, Rotation3) else Rotation3(m)
        for m in (samples[0], samples[-1])
    )
    gap = max(
        abs(p - q) for r, s in zip(first.matrix, last.matrix) for p, q in zip(r, s)
    )
    if gap >= _UNIT_TOL:
        raise ValueError("the sampled path is not a closed loop")

    pw, px, py, pz = quat_from_rot(first)
    points = [(pw, px, py, pz)]
    for m in samples[1:]:
        w, x, y, z = quat_from_rot(m)
        dot = w * pw + x * px + y * py + z * pz
        # Rotation-angle distance between consecutive samples.
        jump = 2.0 * math.acos(min(1.0, abs(dot)))
        if jump > _MAX_JUMP:
            raise ValueError(
                f"discontinuity: consecutive rotations jump by angle {jump:.3f}"
            )
        if dot < 0:
            w, x, y, z = -w, -x, -y, -z
        points.append((w, x, y, z))
        pw, px, py, pz = w, x, y, z
    w0, x0, y0, z0 = points[0]
    monodromy = 1 if pw * w0 + px * x0 + py * y0 + pz * z0 > 0 else -1
    return QuaternionPath(points=points, monodromy=monodromy), monodromy
