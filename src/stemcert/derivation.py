"""Derivation records: steps tagged Computed or PaperAsserted, with replay.

A ``Computed`` step is one run of a registered check
``fn(inputs, earlier) -> outputs``: ``inputs`` holds the step's literal
parameters, ``earlier`` maps the check name of each computed step before it
to that step's outputs, and the outputs are JSON-native (lists, ints,
``"p/q"`` strings).  Its evidence ``{"check", "inputs", "outputs"}`` is
recorded by running the check (:func:`computed_step`), and its claim is the
check's registered template formatted from the inputs and outputs;
:func:`replay_step` reruns the check and requires exactly the recorded
outputs and the claim they format to.  A
``PaperAsserted`` step carries no evidence — it records a statement taken
from the published literature (cited by ``citation``) that this package
deliberately does not recompute, and is never presented as computed.  A
report concludes what its last computed step outputs: the stem, the order
of the group and its generator.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

from ._frozen import Frozen
from .errors import VerificationError

__all__ = [
    "DerivationStep",
    "StemReport",
    "StepStatus",
    "computed_step",
    "register_check",
    "replay_step",
    "report_from_json",
    "report_to_json",
]


class StepStatus(str, Enum):
    COMPUTED = "Computed"
    PAPER_ASSERTED = "PaperAsserted"


_CHECKS: dict = {}


def register_check(name: str, claim: str) -> Callable:
    """Decorator registering ``fn(inputs, earlier) -> outputs`` as the check
    ``name`` of ``Computed`` steps, whose claim is ``claim`` formatted with
    ``str.format`` from the inputs and outputs."""

    def decorate(fn: Callable[[dict, dict], dict]) -> Callable[[dict, dict], dict]:
        if name in _CHECKS:
            raise ValueError(f"duplicate check name {name!r}")
        _CHECKS[name] = (fn, claim)
        return fn

    return decorate


class DerivationStep(Frozen):
    """One step of a derivation.

    ``citation`` points at the implementing operation for computed steps and
    at the literature source for asserted ones.  A step hashes by its other
    fields, since the evidence is a JSON dictionary.
    """

    __slots__ = ("claim", "status", "citation", "evidence")

    def __init__(
        self, claim: str, status: StepStatus, citation: str, evidence: Optional[dict] = None
    ):
        if status is StepStatus.COMPUTED:
            if not (
                isinstance(evidence, dict)
                and evidence.keys() == {"check", "inputs", "outputs"}
                and isinstance(evidence["inputs"], dict)
                and isinstance(evidence["outputs"], dict)
            ):
                raise ValueError("a Computed step needs evidence {check, inputs, outputs}")
        elif evidence is not None:
            raise ValueError("a PaperAsserted step carries no machine evidence")
        self._set(claim=claim, status=status, citation=citation, evidence=evidence)

    def __hash__(self):
        return hash((self.claim, self.status, self.citation))


def computed_step(earlier: dict, check: str, inputs: dict, citation: str) -> DerivationStep:
    """Run ``check`` on ``inputs`` and ``earlier``, add its outputs to
    ``earlier`` and return the step, with the check's claim formatted from
    the inputs and outputs so that each number it quotes is one the check
    computed."""
    fn, template = _CHECKS[check]
    outputs = fn(inputs, earlier)
    earlier[check] = outputs
    evidence = {"check": check, "inputs": inputs, "outputs": outputs}
    claim = template.format(**inputs, **outputs)
    return DerivationStep(claim, StepStatus.COMPUTED, citation, evidence)


def replay_step(step: DerivationStep, earlier: dict) -> bool:
    """Re-verify a step from scratch.

    A computed step reruns its check on its inputs and on ``earlier``, the
    outputs of the computed steps before it, and raises
    ``VerificationError`` unless that gives exactly the recorded outputs and
    they format the check's claim template to the step's claim; it then adds
    the outputs to ``earlier``.  Asserted steps pass.
    """
    if step.status is StepStatus.PAPER_ASSERTED:
        return True
    name, recorded = step.evidence["check"], step.evidence["outputs"]
    if name not in _CHECKS:
        raise VerificationError(f"no check registered under {name!r}")
    fn, template = _CHECKS[name]
    inputs = step.evidence["inputs"]
    # Evidence read back from JSON may hold inputs the check rejects or miss
    # an earlier step it reads: that is a failed replay, not a usage error.
    try:
        outputs = fn(inputs, earlier)
        claim = template.format(**inputs, **outputs)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise VerificationError(f"replay failed for step: {step.claim}: {exc!r}") from exc
    if outputs != recorded:
        raise VerificationError(
            f"replay failed for step: {step.claim}: computed {outputs}, recorded {recorded}"
        )
    if claim != step.claim:
        raise VerificationError(f"replay failed for step: {step.claim}: the check claims {claim}")
    earlier[name] = outputs
    return True


class StemReport(Frozen):
    """Ordered derivation steps for one stable stem, concluding the stem,
    the group ``Z<order>`` and its generator that the last computed step
    outputs."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        computed = [s for s in steps if s.status is StepStatus.COMPUTED]
        outputs = computed[-1].evidence["outputs"] if computed else {}
        if not {"stem", "order", "generator"} <= outputs.keys():
            raise ValueError("a report's last Computed step must output its stem, order, generator")
        if outputs["stem"] not in (1, 2, 3):
            raise ValueError(f"stem must be 1, 2 or 3, got {outputs['stem']}")
        self._set(steps=tuple(steps))

    def _conclusion(self) -> dict:
        return self.computed_steps()[-1].evidence["outputs"]

    @property
    def stem(self) -> int:
        return self._conclusion()["stem"]

    @property
    def group(self) -> str:
        return f"Z{self._conclusion()['order']}"

    @property
    def generator(self) -> str:
        return self._conclusion()["generator"]

    def computed_steps(self) -> tuple:
        return tuple(s for s in self.steps if s.status is StepStatus.COMPUTED)

    def asserted_steps(self) -> tuple:
        return tuple(s for s in self.steps if s.status is StepStatus.PAPER_ASSERTED)

    def replay(self) -> bool:
        """Replay every computed step in order; raises on the first failure."""
        earlier: dict = {}
        for step in self.steps:
            replay_step(step, earlier)
        return True


def report_to_json(report: StemReport) -> dict:
    return {
        "stem": report.stem,
        "group": report.group,
        "generator": report.generator,
        "steps": [
            {"claim": s.claim, "status": s.status.value, "citation": s.citation,
             "evidence": s.evidence}
            for s in report.steps
        ],
    }


def report_from_json(data: dict) -> StemReport:
    """The report in ``data``; raises ``VerificationError`` when the stem,
    group or generator it states is not what its last computed step
    concludes."""
    report = StemReport(
        tuple(
            DerivationStep(s["claim"], StepStatus(s["status"]), s["citation"], s["evidence"])
            for s in data["steps"]
        )
    )
    stated = (data["stem"], data["group"], data["generator"])
    derived = (report.stem, report.group, report.generator)
    if stated != derived:
        raise VerificationError(f"the report states {stated}, its last computed step {derived}")
    return report
