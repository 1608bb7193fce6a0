"""Derivation records: steps tagged Computed or PaperAsserted, with replay.

A ``Computed`` step carries a JSON-serializable evidence dictionary whose
``"check"`` key names a registered replayer; replaying re-runs the
computation from scratch and confirms the recorded claim.  A
``PaperAsserted`` step carries no evidence — it records a statement taken
from the published literature (cited by ``citation``) that this package
deliberately does not recompute.  The distinction is a first-class field:
reports never present an asserted step as computed.
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
    "register_check",
    "replay_step",
    "report_from_json",
    "report_to_json",
]


class StepStatus(str, Enum):
    COMPUTED = "Computed"
    PAPER_ASSERTED = "PaperAsserted"


_CHECKS: dict = {}


def register_check(name: str) -> Callable:
    """Decorator registering a replayer for ``Computed`` evidence.

    The replayer receives the evidence dictionary and returns whether the
    recorded claim reproduces.
    """

    def decorate(fn: Callable[[dict], bool]) -> Callable[[dict], bool]:
        if name in _CHECKS:
            raise ValueError(f"duplicate check name {name!r}")
        _CHECKS[name] = fn
        return fn

    return decorate


class DerivationStep(Frozen):
    """One step of a derivation.

    ``citation`` points at the implementing operation for computed steps and
    at the literature source for asserted ones.
    """

    __slots__ = ("claim", "status", "citation", "evidence")

    def __init__(
        self,
        claim: str,
        status: StepStatus,
        citation: str,
        evidence: Optional[dict] = None,
    ):
        if status is StepStatus.COMPUTED:
            if not evidence or "check" not in evidence:
                raise ValueError(
                    "a Computed step needs evidence with a registered 'check'"
                )
        elif evidence is not None:
            raise ValueError("a PaperAsserted step carries no machine evidence")
        self._set(claim=claim, status=status, citation=citation, evidence=evidence)


def replay_step(step: DerivationStep) -> bool:
    """Re-verify a step from scratch.

    Computed steps re-run their registered check and raise
    ``VerificationError`` if the claim does not reproduce; asserted steps
    have nothing to replay and pass trivially.
    """
    if step.status is StepStatus.PAPER_ASSERTED:
        return True
    name = step.evidence["check"]
    if name not in _CHECKS:
        raise VerificationError(f"no replayer registered for check {name!r}")
    if not _CHECKS[name](step.evidence):
        raise VerificationError(f"replay failed for step: {step.claim}")
    return True


_EXPECTED_CONCLUSIONS = {
    1: ("Z2", "eta"),
    2: ("Z2", "eta^2"),
    3: ("Z24", "nu"),
}


class StemReport(Frozen):
    """Conclusion and ordered derivation steps for one stable stem."""

    __slots__ = ("stem", "group", "generator", "steps")

    def __init__(self, stem: int, group: str, generator: str, steps: tuple):
        expected = _EXPECTED_CONCLUSIONS.get(stem)
        if expected is None:
            raise ValueError(f"stem must be 1, 2 or 3, got {stem}")
        if (group, generator) != expected:
            raise ValueError(
                f"stem {stem} must conclude {expected[0]} generated by "
                f"{expected[1]}, got ({group}, {generator})"
            )
        self._set(stem=stem, group=group, generator=generator, steps=steps)

    def computed_steps(self) -> tuple:
        return tuple(s for s in self.steps if s.status is StepStatus.COMPUTED)

    def asserted_steps(self) -> tuple:
        return tuple(s for s in self.steps if s.status is StepStatus.PAPER_ASSERTED)

    def replay(self) -> bool:
        """Replay every computed step; raises on the first failure."""
        for step in self.steps:
            replay_step(step)
        return True


def report_to_json(report: StemReport) -> dict:
    return {
        "stem": report.stem,
        "group": report.group,
        "generator": report.generator,
        "steps": [
            {
                "claim": s.claim,
                "status": s.status.value,
                "citation": s.citation,
                "evidence": s.evidence,
            }
            for s in report.steps
        ],
    }


def report_from_json(data: dict) -> StemReport:
    steps = tuple(
        DerivationStep(
            claim=s["claim"],
            status=StepStatus(s["status"]),
            citation=s["citation"],
            evidence=s["evidence"],
        )
        for s in data["steps"]
    )
    return StemReport(
        stem=data["stem"],
        group=data["group"],
        generator=data["generator"],
        steps=steps,
    )
