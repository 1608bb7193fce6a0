"""Value semantics of the package's record classes.

The frozen classes compare and hash by their fields, never equal an instance
of another class, refuse attribute assignment and validate in their
constructors.  ``QuaternionPath`` and ``SampledCurve`` stay mutable and
compare by identity.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from stemcert.derivation import DerivationStep, StemReport, StepStatus
from stemcert.einv import ObstructionCertificate, TwoCellModel, Verdict
from stemcert.hopf import Quaternion, SampledCurve
from stemcert.jorder import JOrderBound, KOClassS2, StuntedSpace
from stemcert.kring import (
    AdamsMatrix,
    ComplexProjective,
    EvenSphere,
    QuaternionicProjective,
    RingElement,
    RingModel,
    Smash,
    make_ring,
)
from stemcert.so3 import QuaternionPath

CP2 = ComplexProjective(2)
CP2_MODEL = (CP2, "cp2", (CP2,), (2,), ((1,), (2,)), (2, 4))
STEP = DerivationStep("eta^2 is essential", StepStatus.PAPER_ASSERTED, "EHP")

# Constructor arguments of one instance of every frozen class.
FROZEN = [
    (DerivationStep, ("c", StepStatus.PAPER_ASSERTED, "cited")),
    (StemReport, (2, "Z2", "eta^2", (STEP,))),
    (TwoCellModel, (1, 2, 2, 12)),
    (ObstructionCertificate, (Verdict.DOES_NOT_SPLIT, 2, 1, 12, Fraction(1, 12))),
    (JOrderBound, (2, 24, ("gcd", "closed", "bernoulli"))),
    (StuntedSpace, ("quaternionic", 25, 24, 3)),
    (KOClassS2, (4, 1)),
    (ComplexProjective, (2,)),
    (QuaternionicProjective, (2,)),
    (EvenSphere, (1,)),
    (Smash, (EvenSphere(1), CP2)),
    (RingModel, CP2_MODEL),
    (RingElement, (RingModel(*CP2_MODEL), (2, 1))),
    (AdamsMatrix, ("cp2", 2, ((2, 0), (1, 4)), (2, 4))),
    (Quaternion, (0.0, 1.0, 0.0, 0.0)),
]
FROZEN_IDS = [cls.__name__ for cls, _ in FROZEN]


@pytest.mark.parametrize("cls,args", FROZEN, ids=FROZEN_IDS)
def test_equal_fields_give_equal_values_with_equal_hashes(cls, args):
    first, second = cls(*args), cls(*args)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls,args", FROZEN, ids=FROZEN_IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, args):
    other = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert other != cls(*args) and cls(*args) != other
    assert not other == cls(*args)


@pytest.mark.parametrize("cls,args", FROZEN, ids=FROZEN_IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    value = cls(*args)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


@pytest.mark.parametrize("cls,args", FROZEN, ids=FROZEN_IDS)
def test_copies_and_pickles_are_equal_values(cls, args):
    value = cls(*args)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_projective_spaces_of_one_size_differ_by_family():
    assert ComplexProjective(2) != QuaternionicProjective(2)
    assert Smash(EvenSphere(1), CP2) != Smash(EvenSphere(1), QuaternionicProjective(2))
    assert ComplexProjective(2) != (2,)


def test_repr_lists_the_fields_by_name():
    assert repr(Smash(EvenSphere(1), CP2)) == (
        "Smash(left=EvenSphere(m=1), right=ComplexProjective(n=2))"
    )
    assert repr(StuntedSpace("complex", 3, 1)) == (
        "StuntedSpace(family='complex', top=3, bottom=1, suspension=0)"
    )
    assert repr(KOClassS2(rank=2, reduced=1)) == "KOClassS2(rank=2, reduced=1)"


def test_the_monomial_index_is_not_part_of_a_ring_model():
    model = make_ring(CP2)
    assert model == RingModel(*CP2_MODEL)
    assert hash(model) == hash(RingModel(*CP2_MODEL))
    assert "_index" not in repr(model)
    assert repr(model).startswith("RingModel(space=ComplexProjective(n=2), label='cp2',")
    assert model.monomial_index((2,)) == 1


def test_keyword_arguments_and_defaults_still_work():
    assert StuntedSpace(family="complex", top=3, bottom=1) == StuntedSpace("complex", 3, 1, 0)
    step = DerivationStep(claim="c", status=StepStatus.PAPER_ASSERTED, citation="x")
    assert step.evidence is None


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: DerivationStep("c", StepStatus.COMPUTED, "x"), "needs evidence"),
        (lambda: DerivationStep("c", StepStatus.COMPUTED, "x", {"n": 1}), "needs evidence"),
        (
            lambda: DerivationStep("c", StepStatus.PAPER_ASSERTED, "x", {"check": "y"}),
            "carries no machine evidence",
        ),
        (lambda: StemReport(4, "Z2", "eta", ()), "stem must be 1, 2 or 3"),
        (lambda: StemReport(3, "Z2", "nu", ()), "must conclude Z24 generated by nu"),
        (lambda: TwoCellModel(2, 2, 2, 0), "b > a >= 1"),
        (lambda: TwoCellModel(0, 2, 2, 0), "b > a >= 1"),
        (lambda: TwoCellModel(1, 2, 1, 0), "Adams index must be at least 2"),
        (
            lambda: ObstructionCertificate(Verdict.DOES_NOT_SPLIT, 2, 0, 12, Fraction(0)),
            "requires e != 0",
        ),
        (
            lambda: ObstructionCertificate(Verdict.SPLITS, 2, 1, 12, Fraction(1, 12)),
            "requires e == 0",
        ),
        (lambda: JOrderBound(2, 0, ()), "at least 1"),
        (lambda: StuntedSpace("real", 2, 1), "unknown family"),
        (lambda: StuntedSpace("complex", 1, 2), "top >= bottom >= 0"),
        (lambda: StuntedSpace("complex", 2, 1, -1), "non-negative"),
        (lambda: KOClassS2(2, 2), "Z/2"),
        (lambda: RingElement(RingModel(*CP2_MODEL), (1,)), "does not match basis"),
        (lambda: SampledCurve(np.zeros((4, 2)), False), r"\(N, 3\) or \(N, 4\)"),
        (lambda: SampledCurve(np.eye(3), True), "must end where it starts"),
    ],
)
def test_constructors_still_validate(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_paths_and_curves_are_mutable_and_compare_by_identity():
    path = QuaternionPath([(1.0, 0.0, 0.0, 0.0)], 1)
    twin = QuaternionPath([(1.0, 0.0, 0.0, 0.0)], 1)
    assert path != twin and path == path
    path.monodromy = -1
    assert path.monodromy == -1
    points = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    curve, other = SampledCurve(points, True), SampledCurve(points, True)
    assert curve != other and len({curve, other}) == 2
    curve.closed = False
    assert curve.closed is False
    # The constructor stores float samples, whatever it was given.
    assert SampledCurve([[1, 0, 0], [0, 1, 0]], False).points.dtype == float
