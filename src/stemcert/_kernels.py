"""Pure-Python kernel of the Gauss linking double sum.

:func:`gauss_linking_sum` walks the first curve one point at a time
against the whole second curve, and the separation check of
``hopf.gauss_linking`` (:func:`closest_squared_distance`) against the points
of the second curve near it along one axis, so memory is linear in the
sample count.
Distances come from :func:`math.dist`, on coordinate differences, never by
expanding ``|x|^2 - 2 x.y + |y|^2``, so that no cancellation enters them.
Each row of the sum is added up on its own and the rows in a fixed order, so
results do not depend on the machine.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import itemgetter

__all__ = ["gauss_linking_sum", "get_backend"]

#: Half-width along the sweep axis of the separation check's window: twice
#: the 1e-3 separation, so that rounding in ``key +- _WINDOW`` cannot drop a
#: pair that is closer than 1e-3.
_WINDOW = 2e-3


def get_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "python"


def closest_squared_distance(points_a: list, points_b: list) -> float:
    """Least squared distance between a point of ``points_a`` and one of
    ``points_b``, both lists of 3-tuples, exact whenever some pair lies at
    most 1e-3 apart; NaN unless every coordinate is finite, so that a
    ``closest > tolerance`` test fails closed.

    A sort-and-sweep on the axis along which ``points_b`` spreads widest,
    so that curves in a plane x = const (or y, z = const) spread over many
    windows: ``points_b`` is sorted on that coordinate, and each point of
    ``points_a`` is measured only against the points whose coordinate lies
    within ``_WINDOW`` of its own, found by bisection.  A pair outside that
    window is more than 1e-3 apart along the axis, hence in R^3, even after
    rounding in the window's bounds.  So when the closest pair is at most
    1e-3 apart, the result is its squared distance, as a walk over every
    pair gives it.  Otherwise the result is only known to exceed 1e-6: it
    is the least over the pairs in the window, or inf if there are none.  The cost is ``O(N log N)`` plus one distance
    per pair in the window.

    Not in ``__all__``: ``hopf.gauss_linking`` runs it as its separation
    check, and the benchmark's tracer times it there, as part of that
    function.
    """
    if not all(map(math.isfinite, chain.from_iterable(chain(points_a, points_b)))):
        return math.nan
    spreads = [max(c) - min(c) for c in zip(*points_b)]
    axis = spreads.index(max(spreads)) if spreads else 0
    ordered = sorted(points_b, key=itemgetter(axis))
    keys = [p[axis] for p in ordered]
    closest = math.inf
    for p in points_a:
        key = p[axis]
        window = ordered[bisect_left(keys, key - _WINDOW) : bisect_right(keys, key + _WINDOW)]
        if window:
            closest = min(closest, min(map(math.dist, repeat(p), window)))
    return closest * closest


def gauss_linking_sum(mid_a: list, seg_a: list, mid_b: list, seg_b: list) -> float:
    """Midpoint-rule double sum of the Gauss linking integrand.

    ``mid_*`` are segment midpoints, ``seg_*`` the segment vectors, as lists
    of 3-tuples; the caller divides by ``4*pi``.  Each term is
    ``((seg_a x seg_b) . (mid_a - mid_b)) / |mid_a - mid_b|^3``.  Its
    numerator is a six-term dot product, by the identity
    ``(a x b) . (m_a - m_b) = (m_a x a) . b - a . (b x m_b)``: the factors
    ``b`` and ``b x m_b`` of every column are formed once.
    """
    columns = [
        (bx, by, bz, by * mz - bz * my, bz * mx - bx * mz, bx * my - by * mx)
        for (bx, by, bz), (mx, my, mz) in zip(seg_b, mid_b)
    ]
    total = 0.0
    for m, (ax, ay, az) in zip(mid_a, seg_a):
        mx, my, mz = m
        ux, uy, uz = my * az - mz * ay, mz * ax - mx * az, mx * ay - my * ax
        total += sum(
            [
                (ux * bx + uy * by + uz * bz - ax * cx - ay * cy - az * cz) / (d * d * d)
                for (bx, by, bz, cx, cy, cz), d in zip(columns, map(math.dist, repeat(m), mid_b))
            ]
        )
    return total
