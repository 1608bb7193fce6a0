"""NumPy implementations of the two hot loops.

The Gauss linking double sum (``hopf.gauss_linking``) is blocked so memory
stays O(N) per row block, and the integer-conjugacy search
(``einv.conjugacy_witness``) returns the lexicographic-first witness, so
results do not depend on the machine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["gauss_linking_sum", "get_backend", "search_diagonalizer"]

#: Rows of the first curve per block of the Gauss sum; memory is
#: O(_BLOCK_ROWS * N) instead of O(N^2).
_BLOCK_ROWS = 256


def get_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "python"


def gauss_linking_sum(
    mid_a: np.ndarray,
    seg_a: np.ndarray,
    mid_b: np.ndarray,
    seg_b: np.ndarray,
) -> float:
    """Midpoint-rule double sum of the Gauss linking integrand.

    ``mid_*`` are segment midpoints, ``seg_*`` the segment vectors; the
    caller divides by ``4*pi``.  Each term is
    ``((seg_a x seg_b) . (mid_a - mid_b)) / |mid_a - mid_b|^3``, evaluated
    component by component on (block rows x len(mid_b)) planes.
    """
    outer, sub = np.multiply.outer, np.subtract.outer
    bx, by, bz = mid_b.T
    ux, uy, uz = seg_b.T
    total = 0.0
    for start in range(0, len(mid_a), _BLOCK_ROWS):
        ax, ay, az = mid_a[start : start + _BLOCK_ROWS].T
        sx, sy, sz = seg_a[start : start + _BLOCK_ROWS].T
        dx, dy, dz = sub(ax, bx), sub(ay, by), sub(az, bz)
        triple = (outer(sy, uz) - outer(sz, uy)) * dx
        triple += (outer(sz, ux) - outer(sx, uz)) * dy
        triple += (outer(sx, uy) - outer(sy, ux)) * dz
        dist2 = dx * dx
        dist2 += dy * dy
        dist2 += dz * dz
        triple /= dist2 * np.sqrt(dist2)
        total += float(triple.sum())
    return total


def search_diagonalizer(
    m00: int, c: int, m11: int, bound: int
) -> Optional[tuple]:
    """First unit-determinant integral base change making
    ``[[m00, 0], [c, m11]]`` diagonal, scanning ``(p, q, r, s)`` in
    lexicographic order over ``[-bound, bound]^4``; ``None`` if none exists.
    """
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    # Lexicographic (r, s) grid: r varies slowest.
    r_grid, s_grid = np.meshgrid(rng, rng, indexing="ij")
    r_flat = r_grid.ravel()
    s_flat = s_grid.ravel()
    # Off-diagonal of P*M*adj(P) below the diagonal depends only on (r, s).
    u10 = (r_flat * m00 + s_flat * c) * s_flat - s_flat * m11 * r_flat
    for p in rng:
        for q in rng:
            # Off-diagonal above the diagonal depends only on (p, q).
            u01 = -(p * m00 + q * c) * q + q * m11 * p
            if u01 != 0:
                continue
            det = p * s_flat - q * r_flat
            ok = (np.abs(det) == 1) & (u10 == 0)
            hits = np.nonzero(ok)[0]
            if hits.size:
                i = int(hits[0])
                return (int(p), int(q), int(r_flat[i]), int(s_flat[i]))
    return None
