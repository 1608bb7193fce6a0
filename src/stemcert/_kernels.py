"""Pure-Python kernel of the Gauss linking double sum.

:func:`gauss_linking_sum` walks the first curve one point at a time
against the whole second curve, so memory is linear in the sample count.
The separation check that ``hopf.gauss_linking`` runs first is in
:mod:`stemcert.hopf`, on the box sweep of its exact linking count.
Distances come from :func:`math.dist`, on coordinate differences, never by
expanding ``|x|^2 - 2 x.y + |y|^2``, so that no cancellation enters them.
Each row of the sum is added up on its own and the rows in a fixed order, so
results do not depend on the machine.
"""

from __future__ import annotations

import math
from itertools import repeat

__all__ = ["gauss_linking_sum", "get_backend"]


def get_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "python"


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
