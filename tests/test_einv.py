"""e-invariants, splitting verdicts, and the integer-conjugacy oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemcert.einv import (
    ObstructionCertificate,
    TwoCellModel,
    Verdict,
    certificate_to_json,
    conjugacy_witness,
    e_invariant,
    e_of_cells,
    order_lower_bound,
    splitting_verdict,
    two_cell_from,
    verdict_from_cells,
)
from stemcert.kring import make_ring, parse_space


def ring(name):
    return make_ring(parse_space(name))


# --------------------------------------------------------------------------
# Extraction and the frozen e-invariant values
# --------------------------------------------------------------------------


def test_two_cell_extraction_cp2():
    cell = two_cell_from(ring("cp2"), 2)
    assert (cell.a, cell.b, cell.k, cell.c) == (1, 2, 2, 1)
    assert cell.modulus == 2
    assert cell.diagonal == (2, 4)


def test_two_cell_extraction_smash():
    cell = two_cell_from(ring("s2-smash-cp2"), 2)
    assert (cell.a, cell.b, cell.c) == (2, 3, 2)
    assert cell.modulus == 4


def test_two_cell_extraction_hp2():
    assert two_cell_from(ring("hp2"), 2).c == 1
    assert two_cell_from(ring("hp2"), 3).c == 6


def test_two_cell_requires_two_cells():
    with pytest.raises(ValueError):
        two_cell_from(ring("cp3"), 2)
    with pytest.raises(ValueError):
        two_cell_from(ring("s2"), 2)


def test_e_invariant_frozen_values():
    assert e_invariant(ring("cp2"), 2) == Fraction(1, 2)
    assert e_invariant(ring("s2-smash-cp2"), 2) == Fraction(1, 2)
    assert e_invariant(ring("hp2"), 2) == Fraction(1, 12)
    assert e_invariant(ring("hp2"), 3) == Fraction(1, 12)


@pytest.mark.parametrize("space", ["cp2", "s2-smash-cp2"])
@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_e_invariant_is_k_independent_first_stem(space, k):
    assert e_invariant(ring(space), k) == Fraction(1, 2)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_e_invariant_is_k_independent_hp2(k):
    assert e_invariant(ring("hp2"), k) == Fraction(1, 12)


def test_order_lower_bounds():
    assert order_lower_bound(ring("cp2"), 2) == 2
    assert order_lower_bound(ring("s2-smash-cp2"), 2) == 2
    assert order_lower_bound(ring("hp2"), 2) == 12
    assert order_lower_bound(ring("hp2"), 3) == 12


# --------------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------------


def test_splitting_verdict_negative_cases():
    for space in ["cp2", "s2-smash-cp2", "hp2"]:
        cert = splitting_verdict(ring(space), [2, 3, 5])
        assert cert.verdict is Verdict.DOES_NOT_SPLIT
        assert cert.e != 0


def test_splitting_verdict_positive_case():
    # A genuinely diagonal psi-structure: a wedge of two spheres.
    cells = [TwoCellModel(a=1, b=2, k=k, c=0) for k in (2, 3, 5)]
    cert = verdict_from_cells(cells)
    assert cert.verdict is Verdict.SPLITS
    assert cert.e == 0 and cert.c == 0


def test_splitting_verdict_inconclusive_case():
    # c = modulus: e vanishes yet the matrix is not diagonal, so the
    # obstruction theory is silent (integrally diagonalizable).
    base = two_cell_from(ring("cp2"), 2)
    scaled = TwoCellModel(a=base.a, b=base.b, k=base.k, c=base.modulus)  # c = 2
    cert = verdict_from_cells([scaled])
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.e == 0 and cert.c != 0


def test_splitting_verdict_input_validation():
    with pytest.raises(ValueError):
        splitting_verdict(ring("cp2"), [])
    with pytest.raises(ValueError):
        splitting_verdict(ring("cp2"), [1, 2])


def test_certificate_invariants():
    with pytest.raises(ValueError):
        ObstructionCertificate(
            Verdict.DOES_NOT_SPLIT, k=2, c=0, modulus=2, e=Fraction(0)
        )
    with pytest.raises(ValueError):
        ObstructionCertificate(
            Verdict.SPLITS, k=2, c=1, modulus=2, e=Fraction(1, 2)
        )


# --------------------------------------------------------------------------
# Conjugacy oracle: brute-force integral base change
# --------------------------------------------------------------------------


def test_witness_absent_for_nontrivial_attachments():
    # cp2 at k=2: e = 1/2 != 0, so no unit base change diagonalizes.
    assert conjugacy_witness(two_cell_from(ring("cp2"), 2)) is None
    assert conjugacy_witness(two_cell_from(ring("hp2"), 2)) is None


def test_witness_present_for_divisible_attachments():
    base = two_cell_from(ring("cp2"), 2)
    # c = 2 = modulus
    divisible = TwoCellModel(a=base.a, b=base.b, k=base.k, c=base.modulus)
    witness = conjugacy_witness(divisible)
    assert witness is not None
    p, q, r, s = witness
    assert abs(p * s - q * r) == 1
    # Verify P M adj(P) is diagonal by direct multiplication.
    m00, m11 = divisible.diagonal
    c = divisible.c
    det = p * s - q * r
    u01 = (-(p * m00 + q * c) * q + q * m11 * p) * det
    u10 = ((r * m00 + s * c) * s - s * m11 * r) * det
    assert u01 == 0 and u10 == 0


def test_witness_trivial_for_diagonal_matrix():
    diagonal = TwoCellModel(a=1, b=2, k=2, c=0)
    assert conjugacy_witness(diagonal) is not None


def test_search_witness_is_lexicographic_first():
    # Determinism contract: the first (p, q, r, s) in lexicographic order.
    # For diag(2, 4) with bound 2, off-diagonals vanish iff q = 0 and r = 0
    # (given p, s nonzero); |det| = 1 then forces p, s in {-1, 1}, so the
    # scan finds (-1, 0, 0, -1) first.
    diagonal = TwoCellModel(a=1, b=2, k=2, c=0)
    assert conjugacy_witness(diagonal, bound=2) == (-1, 0, 0, -1)


@given(st.integers(-12, 12))
@settings(max_examples=40, deadline=None)
def test_witness_exists_iff_modulus_divides_c(c):
    # The canonical diagonalizer has an entry of size |c| / modulus, so the
    # equivalence needs bound >= |c| / modulus; here 12 / 2 = 6.
    cell = TwoCellModel(a=1, b=2, k=2, c=c)  # modulus = 2
    witness = conjugacy_witness(cell, bound=6)
    assert (witness is not None) == (c % cell.modulus == 0)


def test_witness_is_bound_sensitive():
    # c = 14, modulus = 2: the smallest diagonalizer has an entry of 7.
    cell = TwoCellModel(a=1, b=2, k=2, c=14)
    assert conjugacy_witness(cell, bound=6) is None
    assert conjugacy_witness(cell, bound=7) is not None


def test_witness_is_exact_beyond_machine_integers():
    # diag(2^61, 2^62) with c = 2^61: products of these entries overflow
    # 64-bit integers, yet the first witness is the small one.
    cell = TwoCellModel(a=61, b=62, k=2, c=2**61)
    assert conjugacy_witness(cell) == (-1, -1, -1, 0)


@pytest.mark.parametrize("c,splits", [(2**64 - 2, True), (0, True), (3, False), (2**63, False)])
def test_witness_on_a_diagonal_beyond_two_to_the_63(c, splits):
    cell = TwoCellModel(a=1, b=64, k=2, c=c)  # diag(2, 2^64), modulus 2^64 - 2
    assert max(cell.diagonal) >= 2**63
    witness = conjugacy_witness(cell, bound=3)
    assert (witness is not None) == splits == (c % cell.modulus == 0)


def test_oracle_agrees_with_verdict_across_spaces():
    for space in ["cp2", "s2-smash-cp2", "hp2"]:
        cell = two_cell_from(ring(space), 2)
        cert = verdict_from_cells([cell])
        witness = conjugacy_witness(cell)
        if cert.verdict is Verdict.DOES_NOT_SPLIT:
            assert witness is None
        else:
            assert witness is not None


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def test_certificate_json_round_trip():
    cert = splitting_verdict(ring("hp2"), [2, 3])
    blob = certificate_to_json(cert)
    assert blob == {
        "verdict": "DoesNotSplit",
        "k": 2,
        "c": 1,
        "modulus": 12,
        "e": "1/12",
    }
