"""NumPy kernel of the Gauss linking double sum.

:func:`gauss_linking_sum` and the separation check of
``hopf.gauss_linking`` (:func:`closest_squared_distance`) walk the first
curve in blocks of ``_BLOCK_ROWS`` rows against the whole second curve.
Each call allocates its few (block x N) buffers once and reuses them for
every block through ``out=``, so memory is O(_BLOCK_ROWS * N), and a block
costs a fixed handful of numpy calls.  Distances are formed from coordinate
differences, never by expanding ``|x|^2 - 2 x.y + |y|^2``, so that no
cancellation enters them.  The sum runs in a fixed block order, so results
do not depend on the machine beyond the rounding of its BLAS.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gauss_linking_sum", "get_backend"]

#: Rows of the first curve per block: at N = 1024 samples each (block x N)
#: buffer is 512 KiB, small enough to stay in cache between the passes.
_BLOCK_ROWS = 64


def get_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "python"


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (N, 3) arrays, from their components."""
    ux, uy, uz = u.T
    vx, vy, vz = v.T
    return np.stack([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx], axis=1)


def _squared_distance_blocks(rows: np.ndarray, cols: np.ndarray):
    """Yield ``(start, dist2, scratch)`` for each block of ``rows``.

    ``dist2[i, j]`` is the squared distance between ``rows[start + i]`` and
    ``cols[j]``, summed over coordinate differences; ``scratch`` is a free
    buffer of the same shape.  Both are overwritten by the next block.
    """
    cols_t = np.ascontiguousarray(cols.T)
    buffers = np.empty((2, min(_BLOCK_ROWS, len(rows)), len(cols)))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        dist2, scratch = buffers[:, : len(block)]
        np.subtract(block[:, 0:1], cols_t[0], out=dist2)
        dist2 *= dist2
        for k in (1, 2):
            np.subtract(block[:, k : k + 1], cols_t[k], out=scratch)
            scratch *= scratch
            dist2 += scratch
        yield start, dist2, scratch


def closest_squared_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Least squared distance between a point of ``points_a`` and one of
    ``points_b``, both (N, 3).

    Not in ``__all__``: ``hopf.gauss_linking`` runs it as its separation
    check, and the benchmark's tracer times it there, as part of that
    function.
    """
    closest2 = math.inf
    for _, dist2, _ in _squared_distance_blocks(points_a, points_b):
        closest2 = min(closest2, float(dist2.min()))
    return closest2


def gauss_linking_sum(
    mid_a: np.ndarray,
    seg_a: np.ndarray,
    mid_b: np.ndarray,
    seg_b: np.ndarray,
) -> float:
    """Midpoint-rule double sum of the Gauss linking integrand.

    ``mid_*`` are segment midpoints, ``seg_*`` the segment vectors; the
    caller divides by ``4*pi``.  Each term is
    ``((seg_a x seg_b) . (mid_a - mid_b)) / |mid_a - mid_b|^3``.  The
    numerators of a block come from one matrix product, by the identity
    ``(a x b) . (m_a - m_b) = (m_a x a) . b - a . (b x m_b)``: the rows
    ``[m_a x a, -a]`` times the columns ``[b; b x m_b]``.
    """
    left = np.concatenate([_cross(mid_a, seg_a), -seg_a], axis=1)
    right = np.ascontiguousarray(np.concatenate([seg_b, _cross(seg_b, mid_b)], axis=1).T)
    triple_buffer = np.empty((min(_BLOCK_ROWS, len(mid_a)), len(mid_b)))
    total = 0.0
    for start, dist2, scratch in _squared_distance_blocks(mid_a, mid_b):
        triple = triple_buffer[: len(dist2)]
        np.matmul(left[start : start + len(dist2)], right, out=triple)
        np.sqrt(dist2, out=scratch)
        scratch *= dist2
        triple /= scratch
        total += float(triple.sum())
    return total
