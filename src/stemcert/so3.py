"""Floating-point verification of SO(3) geometry, in stdlib arithmetic.

This module checks, numerically, the SO(3) facts behind the first stem:

* rotation matrices (orthogonal within 1e-9, determinant +1) and a
  unit-quaternion preimage of each under the double cover ``S^3 -> SO(3)``,
* the closed-ball model of ``SO(3)`` (radius pi, antipodal boundary points
  identified), the explicit loops gamma/alpha/beta with their homotopy, and
* loop lifting: the monodromy sign of a continuous quaternion lift, which
  detects the generator of ``pi_1(SO(3)) = Z/2``.

A rotation is three row tuples of floats, a point of the ball the tuple
``(x, y, z)`` (on the boundary, the canonical one of its two antipodes),
and a quaternion the 4-tuple ``(w, x, y, z)`` (as in :mod:`stemcert.hopf`).
:func:`matrix_path` and :func:`ball_to_rotation` return rows already checked
to be a rotation.  A sampled loop is a one-shot iterator of unchecked rows,
built as it is read, and :func:`lift_loop` consumes any iterable of samples
once, checks each as :func:`quat_from_rot` reads it, and returns only the
sign, so a lift holds a few samples at a time whatever its step count.
Every value is a scalar in stdlib floats.
Rotations follow the active convention of :func:`stemcert.hopf.rot_from_quat`,
the matrix of ``x -> q x conj(q)``.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Iterator

__all__ = [
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
#: Largest rate at which each loop turns, in radians per turn, so that
#: ``turns * speed / steps`` bounds the angle between consecutive samples.
#: Above ``_MAX_JUMP`` a step of nearly a full turn can pass the jump check
#: of :func:`lift_loop` as a small backward one and flip the monodromy.
_LOOP_SPEED = {
    "gamma": 2 * math.pi,
    "alpha": 2 * math.pi,
    "beta": 2 * math.pi,
    "alpha-then-beta": 4 * math.pi,
    "ball-gamma": math.pi**2,
    "homotopy": math.pi**2,
    "identity": 0.0,
}

_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


# --------------------------------------------------------------------------
# Rotations and the double cover
# --------------------------------------------------------------------------


def _rotation(matrix) -> tuple:
    """``matrix``, a 3x3 nested sequence, as three row tuples of floats,
    checked to be a rotation: orthogonal within 1e-9, determinant +1."""
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
    return ((a, b, c), (d, e, f), (g, h, i))


def quat_from_rot(rotation) -> tuple:
    """A unit quaternion ``(w, x, y, z)`` mapping to the given rotation
    (max-trace branch).

    ``rotation`` is a 3x3 nested sequence, such as three row tuples, lists
    or a numpy array, which is checked to be a rotation first.  The other
    preimage is the negative; continuity along a path is restored separately
    by sign choice (see :func:`lift_loop`).
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = _rotation(rotation)
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


def _canonical(x: float, y: float, z: float) -> tuple:
    """``(x, y, z)`` as floats, checked to lie in the closed ball of radius
    pi; on its boundary, the antipode whose first coordinate of magnitude
    above 1e-12 is positive."""
    n = math.sqrt(x * x + y * y + z * z)
    if not n <= math.pi + _UNIT_TOL:
        raise ValueError("point lies outside the closed ball of radius pi")
    if n >= math.pi - _UNIT_TOL:
        for coord in (x, y, z):
            if abs(coord) > 1e-12:
                if coord < 0:
                    x, y, z = -x, -y, -z
                break
    return float(x), float(y), float(z)


def ball_to_rotation(b) -> tuple:
    """Axis-angle rotation: direction of ``b``, angle ``|b|`` (Rodrigues,
    ``I + sin|b| K + (1 - cos|b|) K^2`` for the cross-product matrix ``K``
    of the unit axis).

    ``b`` is any 3-sequence, such as a :func:`loop_point` tuple; the result
    is checked rows.  The origin maps to the identity, and antipodal
    boundary points map to equal rotations.
    """
    x, y, z = map(float, b)
    return _rotation(_rodrigues(x, y, z))


def _rodrigues(x: float, y: float, z: float) -> tuple:
    """The rows of :func:`ball_to_rotation` at the float point ``(x, y, z)``,
    checked to lie in the closed ball of radius pi."""
    theta = math.sqrt(x * x + y * y + z * z)
    if not theta <= math.pi + _UNIT_TOL:
        raise ValueError("point lies outside the closed ball of radius pi")
    if theta < 1e-15:
        return _IDENTITY
    ux, uy, uz = x / theta, y / theta, z / theta
    s, c = math.sin(theta), 1.0 - math.cos(theta)
    return (
        (1.0 - c * (uy * uy + uz * uz), c * ux * uy - s * uz, c * ux * uz + s * uy),
        (c * ux * uy + s * uz, 1.0 - c * (ux * ux + uz * uz), c * uy * uz - s * ux),
        (c * ux * uz - s * uy, c * uy * uz + s * ux, 1.0 - c * (ux * ux + uy * uy)),
    )


_LOOP_NAMES = ("gamma", "alpha", "beta")


def _require_loop_name(name: str) -> str:
    name = name.strip().lower()
    if name not in _LOOP_NAMES:
        raise ValueError(f"loop name must be one of {_LOOP_NAMES}, got {name!r}")
    return name


def loop_point(name: str, t: float) -> tuple:
    """The explicit loops in the ball model, as ``(x, y, z)`` tuples
    canonicalized on the boundary:

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
        return _canonical(0.0, 0.0, c)
    if name == "alpha":
        return _canonical(0.0, -s, c)
    return _canonical(0.0, s, c)


def homotopy_H(variant: str, s: float, t: float) -> tuple:
    """The ellipse-shaped homotopy ``H(s, t) = (0, -+ pi s sin(pi t),
    pi cos(pi t))`` connecting gamma (s = 0) to alpha or beta (s = 1).

    Its image, an ``(x, y, z)`` tuple canonicalized on the boundary, stays
    inside the closed ball: ``(pi s sin)^2 + (pi cos)^2 <= pi^2``.
    """
    variant = _require_loop_name(variant)
    if variant == "gamma":
        raise ValueError("the homotopy variant is the target loop: alpha or beta")
    if not (-1e-12 <= s <= 1.0 + 1e-12 and -1e-12 <= t <= 1.0 + 1e-12):
        raise ValueError("homotopy parameters must lie in [0, 1]")
    sign = -1.0 if variant == "alpha" else 1.0
    return _canonical(
        0.0,
        sign * math.pi * s * math.sin(math.pi * t),
        math.pi * math.cos(math.pi * t),
    )


def matrix_path(name: str, t: float) -> tuple:
    """The explicit matrix paths in SO(3), as checked rows.

    The gamma path is a rotation about the z-axis through angle ``pi t``;
    note it closes up only after ``t = 2`` (one full traversal of the
    underlying loop), while alpha and beta close over ``t in [0, 1]``.  The
    parameter is therefore not restricted to [0, 1] here.
    """
    return _rotation(_PATH_ROWS[_require_loop_name(name)](t))


def _gamma_rows(t: float) -> tuple:
    c, s = math.cos(math.pi * t), math.sin(math.pi * t)
    return ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))


def _alpha_rows(t: float) -> tuple:
    c, s = math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)
    return ((-1.0, 0.0, 0.0), (0.0, -c, -s), (0.0, -s, c))


def _beta_rows(t: float) -> tuple:
    c, s = math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)
    return ((-1.0, 0.0, 0.0), (0.0, -c, s), (0.0, s, c))


#: The rows of :func:`matrix_path` by loop name, for a name already checked.
_PATH_ROWS = {"gamma": _gamma_rows, "alpha": _alpha_rows, "beta": _beta_rows}


# --------------------------------------------------------------------------
# Loop building and lifting
# --------------------------------------------------------------------------


def _grid(steps: int, turns: int, loop: str) -> Iterator[float]:
    """``steps + 1`` evenly spaced parameters from 0 to ``turns``, after
    checking both counts and that no step of ``loop`` turns by more than
    ``_MAX_JUMP``.  The checks run at call time; the parameters come one at
    a time."""
    if steps < _MIN_STEPS:
        raise ValueError(f"at least {_MIN_STEPS} steps are required")
    if turns < 1:
        raise ValueError("turns must be at least 1")
    if turns > steps:
        raise ValueError("turns must be at most the number of steps")
    jump = turns * _LOOP_SPEED[loop] / steps
    if jump > _MAX_JUMP:
        raise ValueError(
            f"discontinuity: {turns} turns in {steps} steps move {loop} by up to "
            f"{jump:.3f} radians per step, more than {_MAX_JUMP}"
        )
    return (turns * k / steps for k in range(steps + 1))


def loop_matrices(name: str, steps: int, turns: int = 1) -> Iterator[tuple]:
    """Sampled closed matrix loops for the lift command.

    The loop runs ``turns`` times through ``steps`` intervals in all, so its
    monodromy is the one-turn sign to the power ``turns``.
    ``gamma``/``alpha``/``beta`` sample the displayed matrix paths over one
    full period per turn (``t in [0, 2]`` for gamma, ``[0, 1]`` otherwise);
    ``alpha-then-beta`` runs alpha over the first half of each turn and beta
    over the second; ``ball-gamma`` runs gamma through the ball model
    instead; ``identity`` is the constant loop.  The arguments are checked at
    call time; the ``steps + 1`` samples, the last equal to the first, then
    come from a one-shot iterator, built as it is read.  The name is checked
    once; each sample is the rows of the :func:`matrix_path` or
    ``ball_to_rotation(loop_point(...))`` value, by the same arithmetic, left
    for :func:`lift_loop` to check.
    """
    if name not in _LOOP_SPEED:
        name = _require_loop_name(name)
    ts = _grid(steps, turns, name)
    if name == "identity":
        return repeat(_IDENTITY, steps + 1)
    if name == "ball-gamma":
        # loop_point("gamma", t % 1.0), canonicalized on the boundary.
        return (
            _rodrigues(*_canonical(0.0, 0.0, math.pi * math.cos(pi_t)))
            for pi_t in (math.pi * (t % 1.0) for t in ts)
        )
    if name == "alpha-then-beta":
        return ((_alpha_rows if t % 1.0 < 0.5 else _beta_rows)(2.0 * t) for t in ts)
    rows, period = _PATH_ROWS[name], 2.0 if name == "gamma" else 1.0
    return (rows(period * t) for t in ts)


def homotopy_slice_matrices(
    variant: str, s: float, steps: int, turns: int = 1
) -> Iterator[tuple]:
    """The closed loop ``t -> ball_to_rotation(H(s, t))``, ``t in [0, 1]``,
    run ``turns`` times through ``steps`` intervals in all, as a one-shot
    iterator of row samples.  The step counts, the variant and ``s`` are
    checked once, at call time; each sample is the rows of the
    ``ball_to_rotation(homotopy_H(...))`` value, by the same arithmetic, left
    for :func:`lift_loop` to check."""
    ts = _grid(steps, turns, "homotopy")
    homotopy_H(variant, s, 0.0)
    scale = (-1.0 if _require_loop_name(variant) == "alpha" else 1.0) * math.pi * s
    return (
        _rodrigues(*_canonical(0.0, scale * math.sin(pi_t), math.pi * math.cos(pi_t)))
        for pi_t in (math.pi * (t % 1.0) for t in ts)
    )


def lift_loop(path: Iterable) -> int:
    """Lift a closed rotation loop to S^3 and return its monodromy sign.

    ``path`` is an iterable of sampled rotations (3x3 nested sequences such
    as three row tuples or the rows of an (N, 3, 3) array; closed: the last
    equals the first), consumed once, in one pass that holds only the first
    and latest samples, the previous lifted quaternion and a sample count.
    Each sample is read once, by :func:`quat_from_rot`, which checks it to
    be a rotation, and consecutive
    rotations must lie within angle 0.2 of each other; the quaternion
    preimage is chosen at each step to be the one closest to the previous
    choice.  At the end at least 256 steps are required, and the last sample
    must equal the first within 1e-9.  The sign is -1 when the lift ends at
    the negative of its start: the loop generates ``pi_1(SO(3))``; +1 means
    it is nullhomotopic (double-cover criterion).
    """
    samples = iter(path)
    first = last = next(samples, None)
    if first is None:
        raise ValueError(f"at least {_MIN_STEPS} steps are required")
    w0, x0, y0, z0 = pw, px, py, pz = quat_from_rot(first)
    steps = 0
    for last in samples:
        w, x, y, z = quat_from_rot(last)
        dot = w * pw + x * px + y * py + z * pz
        # Rotation-angle distance between consecutive samples.
        jump = 2.0 * math.acos(min(1.0, abs(dot)))
        if jump > _MAX_JUMP:
            raise ValueError(
                f"discontinuity: consecutive rotations jump by angle {jump:.3f}"
            )
        if dot < 0:
            w, x, y, z = -w, -x, -y, -z
        pw, px, py, pz = w, x, y, z
        steps += 1
    if steps < _MIN_STEPS:
        raise ValueError(f"at least {_MIN_STEPS} steps are required")
    gap = max(
        abs(float(p) - float(q)) for r, s in zip(first, last) for p, q in zip(r, s)
    )
    if gap >= _UNIT_TOL:
        raise ValueError("the sampled path is not a closed loop")
    return 1 if pw * w0 + px * x0 + py * y0 + pz * z0 > 0 else -1
