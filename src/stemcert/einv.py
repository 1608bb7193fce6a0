"""Stable-splitting obstructions for two-cell K-theory models.

A two-cell model carries, for an Adams operation ``psi^k``, a lower
triangular matrix ``[[k^a, 0], [c_k, k^b]]`` in its graded basis.  The class
``e = c_k / (k^b - k^a) mod 1`` is independent of ``k`` and obstructs a
stable splitting: when ``e != 0`` no integral base change with unit
determinant can diagonalize the matrix, so the psi-module (and hence the
space) does not split.  The denominator of ``e`` is a lower bound for the
order of the attaching map's stable class.

A brute-force integer-conjugacy search (:func:`conjugacy_witness`) provides
an independent oracle for the divisibility criterion.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from ._frozen import Frozen
from .kring import RingModel, adams_matrix

__all__ = [
    "ObstructionCertificate",
    "TwoCellModel",
    "Verdict",
    "certificate_to_json",
    "conjugacy_witness",
    "e_invariant",
    "e_of_cells",
    "order_lower_bound",
    "splitting_verdict",
    "two_cell_from",
    "verdict_from_cells",
]


class Verdict(str, Enum):
    """Outcome of the splitting decision."""

    SPLITS = "Splits"
    DOES_NOT_SPLIT = "DoesNotSplit"
    INCONCLUSIVE = "Inconclusive"


class TwoCellModel(Frozen):
    """Adams data of a two-cell model at a single operation index ``k``.

    Cells sit in dimensions ``2a`` and ``2b`` with ``b > a``; the matrix of
    ``psi^k`` is ``[[k^a, 0], [c, k^b]]``.
    """

    __slots__ = ("a", "b", "k", "c")

    def __init__(self, a: int, b: int, k: int, c: int):
        if not (1 <= a < b):
            raise ValueError("cell dimensions must satisfy b > a >= 1")
        if k < 2:
            raise ValueError("Adams index must be at least 2")
        self._set(a=a, b=b, k=k, c=c)

    @property
    def modulus(self) -> int:
        return self.k**self.b - self.k**self.a

    @property
    def diagonal(self) -> tuple:
        return (self.k**self.a, self.k**self.b)


def two_cell_from(model: RingModel, k: int) -> TwoCellModel:
    """Extract ``(a, b, c_k)`` from the Adams matrix of a two-cell model."""
    if len(model.basis) != 2:
        raise ValueError(
            f"two-cell extraction requires exactly 2 basis monomials, "
            f"{model.label} has {len(model.basis)}"
        )
    if k < 2:
        raise ValueError("Adams index must be at least 2")
    a, b = model.dims[0] // 2, model.dims[1] // 2
    mat = adams_matrix(model, k)
    if mat.entries[0][1] != 0 or mat.diagonal() != (k**a, k**b):
        raise ValueError(f"{model.label} is not lower-triangular graded at k={k}")
    return TwoCellModel(a=a, b=b, k=k, c=mat.entries[1][0])


def e_of_cells(cell: TwoCellModel) -> Fraction:
    """``c / (k^b - k^a)`` reduced into ``[0, 1)``."""
    return Fraction(cell.c, cell.modulus) % 1


def e_invariant(model: RingModel, k: int) -> Fraction:
    """The splitting obstruction of a two-cell model, in ``[0, 1)``."""
    return e_of_cells(two_cell_from(model, k))


def order_lower_bound(model: RingModel, k: int) -> int:
    """Denominator of the e-invariant: divides the attaching class's order."""
    return e_invariant(model, k).denominator


class ObstructionCertificate(Frozen):
    """Splitting verdict with its divisibility witness.

    ``k`` is the witness index (the first index with nonzero obstruction for
    a negative verdict, otherwise the first index tested), ``c`` the
    off-diagonal there, ``modulus`` the diagonal gap ``k^b - k^a``, and ``e``
    the obstruction value in ``[0, 1)``.
    """

    __slots__ = ("verdict", "k", "c", "modulus", "e")

    def __init__(
        self, verdict: Verdict, k: int, c: int, modulus: int, e: Fraction
    ):
        if verdict is Verdict.DOES_NOT_SPLIT and e == 0:
            raise ValueError("a non-splitting certificate requires e != 0")
        if verdict is Verdict.SPLITS and e != 0:
            raise ValueError("a splitting certificate requires e == 0")
        self._set(verdict=verdict, k=k, c=c, modulus=modulus, e=e)


def verdict_from_cells(cells: Sequence[TwoCellModel]) -> ObstructionCertificate:
    """Decide splitting from per-index Adams data.

    ``DoesNotSplit`` if any obstruction is nonzero; ``Splits`` only when all
    matrices are genuinely diagonal; ``Inconclusive`` when every obstruction
    vanishes but some off-diagonal does not (the psi-structure is integrally
    diagonalizable, which proves nothing about the space).
    """
    if not cells:
        raise ValueError("at least one Adams index is required")
    for cell in cells:
        e = e_of_cells(cell)
        if e != 0:
            return ObstructionCertificate(
                Verdict.DOES_NOT_SPLIT, cell.k, cell.c, cell.modulus, e
            )
    offender = next((cell for cell in cells if cell.c != 0), None)
    if offender is None:
        first = cells[0]
        return ObstructionCertificate(
            Verdict.SPLITS, first.k, 0, first.modulus, Fraction(0)
        )
    return ObstructionCertificate(
        Verdict.INCONCLUSIVE, offender.k, offender.c, offender.modulus, Fraction(0)
    )


def splitting_verdict(model: RingModel, primes: Sequence[int]) -> ObstructionCertificate:
    """Run the obstruction over a list of Adams indices (each at least 2)."""
    primes = list(primes)
    if not primes:
        raise ValueError("at least one Adams index is required")
    if any(k < 2 for k in primes):
        raise ValueError("Adams indices must be at least 2")
    return verdict_from_cells([two_cell_from(model, k) for k in primes])


def conjugacy_witness(cell: TwoCellModel, bound: int = 20) -> Optional[tuple]:
    """Search for an integral unit-determinant base change diagonalizing
    the Adams matrix.

    Scans matrices ``P = [[p, q], [r, s]]`` with entries in
    ``[-bound, bound]`` in lexicographic order and returns the first one with
    ``|det P| = 1`` making ``P M P^(-1)`` diagonal, or ``None``.  Such a
    witness exists iff ``(k^b - k^a)`` divides ``c`` — the brute-force oracle
    for :func:`splitting_verdict`.  The arithmetic is exact, so entries of
    any size give the same answer.
    """
    (m00, m11), c = cell.diagonal, cell.c
    span = range(-bound, bound + 1)
    # The entry of P M adj(P) below the diagonal depends only on (r, s), the
    # one above it only on (p, q): keep the (r, s) that clear theirs, in order.
    lower = [(r, s) for r in span for s in span if (r * m00 + s * c) * s == s * m11 * r]
    for p in span:
        for q in span:
            if (p * m00 + q * c) * q != q * m11 * p:
                continue
            for r, s in lower:
                if abs(p * s - q * r) == 1:
                    return (p, q, r, s)
    return None


def certificate_to_json(cert: ObstructionCertificate) -> dict:
    """Serialize as ``{verdict, k, c, modulus, e: "num/den"}``."""
    return {
        "verdict": cert.verdict.value,
        "k": cert.k,
        "c": int(cert.c),
        "modulus": int(cert.modulus),
        "e": f"{cert.e.numerator}/{cert.e.denominator}",
    }
