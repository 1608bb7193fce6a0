"""Value semantics of the package's record classes.

The frozen classes compare and hash by their fields, never equal an instance
of another class, refuse attribute assignment and validate in their
constructors.  Quaternions, rotations, points of the ball model of SO(3),
sampled curves and lifted loops have no class: they are plain tuples,
arrays and lists, whose semantics are Python's and numpy's.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from stemcert.derivation import DerivationStep, StemReport, StepStatus
from stemcert.einv import ObstructionCertificate, TwoCellModel, Verdict
from stemcert.jorder import JOrderBound, KOClassS2, StuntedSpace
from stemcert.kring import (
    RingElement,
    RingModel,
    Space,
    make_ring,
    parse_space,
)

CP2 = Space("cp2", "cp", 2, 0)
CP2_MODEL = (CP2,)
STEP = DerivationStep("eta^2 is essential", StepStatus.PAPER_ASSERTED, "EHP")
CONCLUSION = {"multiplier": 2, "stem": 2, "order": 2, "generator": "eta^2"}
CONCLUDING_STEP = DerivationStep(
    "eta^2 has order dividing 2",
    StepStatus.COMPUTED,
    "composition bilinearity",
    {"check": "composite_killed_by_two", "inputs": {}, "outputs": CONCLUSION},
)

# Constructor arguments of one instance of every frozen class.
FROZEN = [
    (DerivationStep, ("c", StepStatus.PAPER_ASSERTED, "cited")),
    (StemReport, ((CONCLUDING_STEP, STEP),)),
    (TwoCellModel, (1, 2, 2, 12)),
    (ObstructionCertificate, (Verdict.DOES_NOT_SPLIT, 2, 1, 12, Fraction(1, 12))),
    (JOrderBound, (2, 24, ("gcd", "closed", "bernoulli"))),
    (StuntedSpace, ("quaternionic", 25, 24, 3)),
    (KOClassS2, (4, 1)),
    # One Space row per shape it describes: P^n of each kind, S^(2m), a smash.
    (Space, ("cp2", "cp", 2, 0)),
    (Space, ("hp2", "hp", 2, 0)),
    (Space, ("s2", None, 0, 1)),
    (Space, ("s2-smash-cp2", "cp", 2, 1)),
    (RingModel, CP2_MODEL),
    (RingElement, (RingModel(*CP2_MODEL), (2, 1))),
]
SPACE_IDS = {
    "cp2": "ComplexProjective",
    "hp2": "QuaternionicProjective",
    "s2": "EvenSphere",
    "s2-smash-cp2": "Smash",
}
FROZEN_IDS = [
    SPACE_IDS[args[0]] if cls is Space else cls.__name__ for cls, args in FROZEN
]


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
    assert parse_space("cp2") != parse_space("hp2")
    assert parse_space("s2-smash-cp2") != parse_space("s2-smash-hp2")
    # The label keeps the side of the sphere.
    assert parse_space("s2-smash-cp2") != parse_space("cp2-smash-s2")
    assert CP2 != ("cp2", "cp", 2, 0)


def test_repr_lists_the_fields_by_name():
    assert repr(parse_space("s2-smash-cp2")) == (
        "Space(label='s2-smash-cp2', kind='cp', n=2, m=1)"
    )
    assert repr(StuntedSpace("complex", 3, 1)) == (
        "StuntedSpace(family='complex', top=3, bottom=1, suspension=0)"
    )
    assert repr(KOClassS2(rank=2, reduced=1)) == "KOClassS2(rank=2, reduced=1)"


def test_the_monomial_index_is_not_part_of_a_ring_model():
    # A model holds only its space; basis, dims and indices derive from it.
    model = make_ring(CP2)
    assert model == RingModel(*CP2_MODEL)
    assert hash(model) == hash(RingModel(*CP2_MODEL))
    assert repr(model) == "RingModel(space=Space(label='cp2', kind='cp', n=2, m=0))"
    assert (model.basis, model.dims) == (range(1, 3), (2, 4))
    assert model.monomial_index(2) == 1


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
        (lambda: StemReport((STEP,)), "must output its stem, order, generator"),
        (
            lambda: StemReport(
                (
                    DerivationStep(
                        "c",
                        StepStatus.COMPUTED,
                        "x",
                        {"check": "y", "inputs": {}, "outputs": {**CONCLUSION, "stem": 4}},
                    ),
                )
            ),
            "stem must be 1, 2 or 3",
        ),
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
    ],
)
def test_constructors_still_validate(build, message):
    with pytest.raises(ValueError, match=message):
        build()
